//! The two co-simulation workloads, run through the library harnesses as
//! users run them.
//!
//! * `fabric_rdma_lossy` — `run_fabric_sim` at fig_rdma's operating point:
//!   4×4 mesh, one valid-P_Key full-rate attacker, a replay attacker on
//!   every third packet, 1 % link loss, 1536 B messages, all six
//!   {SEND, WRITE, READ} × {go-back-N, selective repeat} points on three
//!   derived seeds. The whole stack at once and off the fast path;
//!   `ib-sim` does most of the work.
//! * `rekey_1024qp` — `run_rekey_sim` at fig_rekey's full `kill-3ms` arm:
//!   512 flows (1024 QPs), five SM replicas, 2 ms rotation, leader kill at
//!   3 ms, a stale-epoch attacker. The only workload with many QPs.
//!
//! The traced `fabric_rdma_lossy` run uses [`traced_fabric_sim`], the
//! driver's own copy of the library loop built from the same public
//! calls; its report must be byte-equal to the library's, so the copy
//! cannot drift.

use std::collections::VecDeque;
use std::time::Instant;

use ib_mgmt::keymgmt::SecretKey;
use ib_packet::types::{Lid, PKey, Qpn, RKey};
use ib_packet::{Operation, Packet};
use ib_runtime::Seed;
use ib_security::ChannelSecurity;
use ib_sim::time::{ps_to_us, MS, NS, US};
use ib_sim::{AttackKeys, FaultConfig, OnlineStats, SimTime, Simulator};
use ib_sm::{run_rekey_sim, RekeyConfig, RekeyReport};
use ib_transport::{
    run_fabric_sim, FabricReport, FabricSimConfig, RdmaOp, RetransmitMode, SecureRcEndpoint,
};

use crate::gen::{cosim_payload, derive};
use crate::span::Tracer;
use crate::workload::Repetition;

// ------------------------------------------------------------- fabric

/// Messages per point at full size.
const FABRIC_MESSAGES: u64 = 256;
/// 1.5 MTUs: every message segments.
const FABRIC_PAYLOAD: usize = 1536;
/// Fabric seeds derived from the run's seed, per repetition.
const FABRIC_SEEDS: u64 = 3;
const FABRIC_LOSS: f64 = 0.01;
/// Capture-to-reinjection delay of the replay attacker. fig_rdma uses the
/// library default of 5 µs; here the replay goes back in at once. Once a
/// transfer is complete, `run_fabric_sim` advances one picosecond per
/// loop iteration from its drain deadline to the due time of a replay
/// still pending then — up to `replay_delay` in picoseconds, 5 × 10⁶
/// iterations (seconds of host time) at the default, on whichever seeds
/// leave a straggler. A nanosecond bounds that at 1000 iterations, so the
/// workload's host time does not hinge on it. See README.md, "Findings".
const FABRIC_REPLAY_DELAY: SimTime = NS;
const MODES: [RetransmitMode; 2] = [RetransmitMode::GoBackN, RetransmitMode::SelectiveRepeat];

/// fig_rdma's point at 1 % loss.
fn fabric_config(seed: u64, messages: usize, op: RdmaOp, mode: RetransmitMode) -> FabricSimConfig {
    let mut cfg = FabricSimConfig {
        seed,
        security: ChannelSecurity::AuthReplay,
        op,
        messages,
        payload_len: FABRIC_PAYLOAD,
        ..FabricSimConfig::default()
    };
    cfg.rc.retransmit = mode;
    cfg.replay_delay = FABRIC_REPLAY_DELAY;
    cfg.sim.num_attackers = 1;
    cfg.sim.attack_keys = AttackKeys::Valid;
    cfg.sim.attack_probability = 1.0;
    cfg.sim.duration = 5 * MS;
    cfg.sim.fault = FaultConfig::lossy(FABRIC_LOSS, 50_000);
    cfg
}

/// Every point of one repetition, in run order.
fn fabric_points(seed: u64, messages: usize) -> Vec<FabricSimConfig> {
    let mut points = Vec::new();
    for k in 0..FABRIC_SEEDS {
        let fabric_seed = derive(seed, 0xFAB0 + k);
        for op in RdmaOp::ALL {
            for mode in MODES {
                points.push(fabric_config(fabric_seed, messages, op, mode));
            }
        }
    }
    points
}

fn point_label(cfg: &FabricSimConfig) -> String {
    format!(
        "{}/{} seed {:#x}",
        cfg.op.label(),
        cfg.rc.retransmit.label(),
        cfg.seed
    )
}

/// Failed operations of one point, with the reason. A dead QP or a
/// time-out fails the whole point.
fn fabric_point_failures(cfg: &FabricSimConfig, r: &FabricReport) -> Option<(u64, String)> {
    let label = point_label(cfg);
    if r.failed || r.timed_out {
        return Some((
            r.expected,
            format!(
                "{label}: QP dead ({}) or timed out ({})",
                r.failed, r.timed_out
            ),
        ));
    }
    let failed = (r.expected - r.delivered.min(r.expected))
        + r.replays_admitted
        + r.payload_mismatches
        + r.duplicates_delivered;
    (failed > 0).then(|| {
        (
            failed,
            format!(
                "{label}: delivered {}/{}, replays admitted {}, payload mismatches {}, \
                 duplicates delivered {}",
                r.delivered,
                r.expected,
                r.replays_admitted,
                r.payload_mismatches,
                r.duplicates_delivered
            ),
        )
    })
}

/// Segments one message takes at the configured MTU.
fn segments(cfg: &FabricSimConfig) -> u64 {
    cfg.payload_len.div_ceil(cfg.rc.mtu) as u64
}

/// One `fabric_rdma_lossy` repetition. With the tracer on, every point
/// runs through [`traced_fabric_sim`] and is then checked against the
/// library's report.
pub fn fabric_repetition(seed: u64, size_divisor: u64, tr: &mut Tracer) -> Repetition {
    let start = Instant::now();
    let messages = (FABRIC_MESSAGES / size_divisor).max(4) as usize;
    let points = fabric_points(seed, messages);
    // A tenth of the repetition: two of its eighteen points' worth.
    for (op, mode) in [
        (RdmaOp::Send, RetransmitMode::GoBackN),
        (RdmaOp::Read, RetransmitMode::SelectiveRepeat),
    ] {
        let warm = fabric_config(derive(seed, 0xFABF), messages, op, mode);
        std::hint::black_box(run_fabric_sim(&warm));
    }
    let setup_s = start.elapsed().as_secs_f64();

    let mut engine = EngineCounts::default();
    let root = tr.open("harness.workload", 1);
    let timed = Instant::now();
    let reports: Vec<FabricReport> = points
        .iter()
        .map(|cfg| {
            if tr.enabled() {
                let p = tr.open("harness.point", 1);
                let r = traced_fabric_sim(cfg, tr, &mut engine);
                tr.close(p);
                r
            } else {
                run_fabric_sim(cfg)
            }
        })
        .collect();
    let wall_s = timed.elapsed().as_secs_f64();
    tr.close(root);

    let mut rep = Repetition {
        setup_s,
        wall_s,
        attempted: points.len() as u64 * messages as u64,
        ..Repetition::default()
    };
    let mut latency = OnlineStats::new();
    let (mut bits, mut completion_us) = (0u64, 0.0f64);
    let mut sums = FabricSums::default();
    for (cfg, r) in points.iter().zip(&reports) {
        if let Some((ops, why)) = fabric_point_failures(cfg, r) {
            rep.fail(ops, why);
        }
        if tr.enabled() {
            let library = run_fabric_sim(cfg);
            if library.to_json().to_string() != r.to_json().to_string() {
                rep.fail(
                    r.expected,
                    format!(
                        "{}: traced loop's report differs from run_fabric_sim's",
                        point_label(cfg)
                    ),
                );
            }
        }
        bits += r.delivered * cfg.payload_len as u64 * 8;
        completion_us += r.completion_us;
        latency.merge(&r.latency_us);
        sums.add(cfg, r);
    }
    rep.payload_bits = bits;
    rep.sim = vec![
        (
            "sim_goodput_gbps",
            bits as f64 / (completion_us * 1e-6) / 1e9,
        ),
        ("sim_lat_mean_us", latency.mean()),
    ];
    rep.layer = sums.layer();
    rep.layer.extend(engine.layer(sums.fabric_generated));
    rep
}

/// Report fields summed over a repetition's points.
#[derive(Default)]
struct FabricSums {
    retransmits: u64,
    first_transmissions: u64,
    dup_suppressed: u64,
    ooo_buffered: u64,
    gap_drops: u64,
    corrupt_drops: u64,
    rejected_auth: u64,
    rejected_stale: u64,
    fabric_generated: u64,
}

impl FabricSums {
    fn add(&mut self, cfg: &FabricSimConfig, r: &FabricReport) {
        self.retransmits += r.retransmits;
        self.first_transmissions += r.expected * segments(cfg);
        self.dup_suppressed += r.dup_suppressed;
        self.ooo_buffered += r.ooo_buffered;
        self.gap_drops += r.gap_drops;
        self.corrupt_drops += r.corrupt_drops;
        self.rejected_auth += r.rejected_auth;
        self.rejected_stale += r.rejected_stale;
        self.fabric_generated += r.fabric_generated;
    }

    fn layer(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ib_packet.parse_drops", self.corrupt_drops as f64),
            ("ib_security.rejected_auth", self.rejected_auth as f64),
            ("ib_security.rejected_stale", self.rejected_stale as f64),
            ("ib_security.duplicates", self.dup_suppressed as f64),
            (
                "ib_transport.retx_share",
                self.retransmits as f64
                    / (self.first_transmissions + self.retransmits).max(1) as f64,
            ),
            ("ib_transport.ooo_buffered", self.ooo_buffered as f64),
            ("ib_transport.gap_drops", self.gap_drops as f64),
            ("ib_transport.dup_suppressed", self.dup_suppressed as f64),
        ]
    }
}

/// What only the traced loop can see of the engine and the channels: it
/// owns the `Simulator` and the endpoints the library keeps to itself.
#[derive(Default)]
struct EngineCounts {
    events: u64,
    peak_packets: u64,
    fresh: u64,
    offered: u64,
}

impl EngineCounts {
    fn layer(&self, fabric_generated: u64) -> Vec<(&'static str, f64)> {
        if self.events == 0 {
            return Vec::new(); // untraced: the library's loop ran
        }
        vec![
            ("ib_sim.events", self.events as f64),
            (
                "ib_sim.events_per_pkt",
                self.events as f64 / fabric_generated.max(1) as f64,
            ),
            ("ib_sim.peak_packets", self.peak_packets as f64),
            (
                "ib_security.admit_useful_share",
                self.fresh as f64 / self.offered.max(1) as f64,
            ),
        ]
    }
}

/// After the transfer completes, keep the fabric running this long so
/// already-captured replays still in flight get judged by the window.
const REPLAY_DRAIN_GRACE: SimTime = MS;
const FABRIC_RKEY: RKey = RKey(0x0DA7_A001);

/// Completion accounting of `ib_transport::fabric` (private there).
struct Ledger {
    seen: Vec<bool>,
    payload_len: usize,
    delivered_unique: u64,
    duplicates: u64,
    mismatches: u64,
    latency: OnlineStats,
    next_read: usize,
}

impl Ledger {
    fn new(messages: usize, payload_len: usize) -> Ledger {
        Ledger {
            seen: vec![false; messages],
            payload_len,
            delivered_unique: 0,
            duplicates: 0,
            mismatches: 0,
            latency: OnlineStats::new(),
            next_read: 0,
        }
    }

    fn complete(&mut self, idx: usize, now: SimTime) {
        if self.seen[idx] {
            self.duplicates += 1;
        } else {
            self.seen[idx] = true;
            self.delivered_unique += 1;
            self.latency.push(ps_to_us(now));
        }
    }

    fn drain_dst(&mut self, b: &mut SecureRcEndpoint, op: RdmaOp, now: SimTime) {
        match op {
            RdmaOp::Send => {
                for payload in b.take_delivered() {
                    let idx = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
                    if idx >= self.seen.len() || payload != cosim_payload(idx, self.payload_len) {
                        self.mismatches += 1;
                        continue;
                    }
                    self.complete(idx, now);
                }
            }
            RdmaOp::Write => {
                let len = self.payload_len as u64;
                for (addr, wlen) in b.take_write_events() {
                    let idx = (addr / len) as usize;
                    let aligned = addr % len == 0 && u64::from(wlen) == len;
                    if !aligned || idx >= self.seen.len() {
                        self.mismatches += 1;
                        continue;
                    }
                    let lo = addr as usize;
                    if b.memory()[lo..lo + wlen as usize] != cosim_payload(idx, self.payload_len) {
                        self.mismatches += 1;
                        continue;
                    }
                    self.complete(idx, now);
                }
            }
            RdmaOp::Read => {}
        }
    }

    fn drain_src(&mut self, a: &mut SecureRcEndpoint, op: RdmaOp, now: SimTime) {
        if op != RdmaOp::Read {
            return;
        }
        for payload in a.take_read_completions() {
            let idx = self.next_read;
            self.next_read += 1;
            if idx >= self.seen.len() || payload != cosim_payload(idx, self.payload_len) {
                self.mismatches += 1;
                continue;
            }
            self.complete(idx, now);
        }
    }
}

/// `run_fabric_sim`'s loop, call for call, with a span around each call
/// into a crate. Any behavioural difference from the library shows as a
/// report mismatch in [`fabric_repetition`].
fn traced_fabric_sim(
    cfg: &FabricSimConfig,
    tr: &mut Tracer,
    counts: &mut EngineCounts,
) -> FabricReport {
    let mut sim_cfg = cfg.sim.clone();
    sim_cfg.seed = Seed(cfg.seed);
    let s = tr.open("ib_sim.new", 1);
    let mut sim = Simulator::new(sim_cfg);
    tr.close(s);

    let secret = SecretKey::from_seed(cfg.seed ^ 0x005E_C2E7);
    let pkey = PKey(0x8001);
    let make = |lid, peer| {
        SecureRcEndpoint::new(
            cfg.security,
            pkey,
            secret,
            cfg.replay_window,
            cfg.rc,
            lid,
            peer,
            Qpn(7),
        )
    };
    let (src_lid, dst_lid) = (Lid(cfg.src as u16 + 1), Lid(cfg.dst as u16 + 1));
    let s = tr.open("ib_transport.new", 2);
    let mut a = make(src_lid, dst_lid);
    let mut b = make(dst_lid, src_lid);
    tr.close(s);

    let region = cfg.messages * cfg.payload_len;
    let s = tr.open("ib_transport.post", cfg.messages);
    match cfg.op {
        RdmaOp::Send => {
            for i in 0..cfg.messages {
                a.post(cosim_payload(i, cfg.payload_len));
            }
        }
        RdmaOp::Write => {
            b.configure_memory(region, FABRIC_RKEY);
            for i in 0..cfg.messages {
                let addr = (i * cfg.payload_len) as u64;
                a.post_write(addr, FABRIC_RKEY, cosim_payload(i, cfg.payload_len));
            }
        }
        RdmaOp::Read => {
            b.configure_memory(region, FABRIC_RKEY);
            for i in 0..cfg.messages {
                let lo = i * cfg.payload_len;
                b.memory_mut()[lo..lo + cfg.payload_len]
                    .copy_from_slice(&cosim_payload(i, cfg.payload_len));
                a.post_read(lo as u64, FABRIC_RKEY, cfg.payload_len as u32);
            }
        }
    }
    tr.close(s);

    let mut led = Ledger::new(cfg.messages, cfg.payload_len);
    let mut pending: VecDeque<(SimTime, Vec<u8>)> = VecDeque::new();
    let mut captured = 0u64;
    let mut replays_injected = 0u64;
    let mut wire: Vec<Vec<u8>> = Vec::new();
    let mut now: SimTime = 0;
    let mut done_at: Option<SimTime> = None;
    let mut timed_out = false;

    loop {
        let round = tr.open("harness.round", 1);
        while pending.front().is_some_and(|(t, _)| *t <= now) {
            let (_, bytes) = pending.pop_front().unwrap();
            replays_injected += 1;
            let s = tr.open("ib_sim.post_host", 1);
            sim.post_host(cfg.replay_node, cfg.dst, cfg.vl, bytes);
            tr.close(s);
        }
        let s = tr.open("ib_transport.poll_into", 1);
        a.poll_into(now, &mut wire);
        tr.close(s);
        if !wire.is_empty() {
            let s = tr.open("ib_sim.post_host", wire.len());
            for bytes in wire.drain(..) {
                sim.post_host(cfg.src, cfg.dst, cfg.vl, bytes);
            }
            tr.close(s);
        }
        let s = tr.open("ib_transport.poll_into", 1);
        b.poll_into(now, &mut wire);
        tr.close(s);
        if !wire.is_empty() {
            let s = tr.open("ib_sim.post_host", wire.len());
            for bytes in wire.drain(..) {
                sim.post_host(cfg.dst, cfg.src, cfg.vl, bytes);
            }
            tr.close(s);
        }

        if done_at.is_none() && led.delivered_unique == cfg.messages as u64 && a.tx_idle() {
            done_at = Some(now);
        }
        let mut stop = a.failed() || b.failed();
        if !stop && now >= cfg.max_sim_time {
            timed_out = done_at.is_none();
            stop = true;
        }
        if let (false, Some(done)) = (stop, done_at) {
            let drain_until = done + cfg.replay_delay + REPLAY_DRAIN_GRACE;
            stop = now >= drain_until && pending.is_empty();
        }
        if stop {
            tr.close(round);
            break;
        }

        let mut target = cfg.max_sim_time;
        if let Some(d) = a.next_deadline() {
            target = target.min(d);
        }
        if let Some(d) = b.next_deadline() {
            target = target.min(d);
        }
        if let Some((t, _)) = pending.front() {
            target = target.min(*t);
        }
        if let Some(done) = done_at {
            target = target.min(done + cfg.replay_delay + REPLAY_DRAIN_GRACE);
        }
        let target = target.max(now + 1);
        let s = tr.open("ib_sim.run_hosts_until", 1);
        let t = sim.run_hosts_until(target);
        tr.close(s);
        loop {
            let s = tr.open("ib_sim.take_host_delivery", 1);
            let delivery = sim.take_host_delivery();
            tr.close(s);
            let Some(d) = delivery else { break };
            if d.node == cfg.dst {
                if cfg.replay_every > 0 {
                    let s = tr.open("harness.tap_parse", 1);
                    let parsed = Packet::parse(&d.bytes);
                    tr.close(s);
                    if let Ok(p) = parsed {
                        if p.bth.opcode.operation != Operation::Acknowledge {
                            captured += 1;
                            if captured.is_multiple_of(cfg.replay_every) {
                                pending.push_back((d.at + cfg.replay_delay, d.bytes.clone()));
                            }
                        }
                    }
                }
                let s = tr.open("ib_transport.handle_wire", 1);
                b.handle_wire(d.at, &d.bytes);
                tr.close(s);
                led.drain_dst(&mut b, cfg.op, d.at);
            } else if d.node == cfg.src {
                let s = tr.open("ib_transport.handle_wire", 1);
                a.handle_wire(d.at, &d.bytes);
                tr.close(s);
                led.drain_src(&mut a, cfg.op, d.at);
            }
        }
        now = t;
        tr.close(round);
    }

    let completion_ps = done_at.unwrap_or(now).max(1);
    let bits = (led.delivered_unique * cfg.payload_len as u64 * 8) as f64;
    let a_channel = a.channel().stats;
    let b_channel = b.channel().stats;
    counts.events += sim.events_processed();
    counts.peak_packets = counts.peak_packets.max(sim.peak_packets() as u64);
    for c in [a_channel, b_channel] {
        counts.fresh += c.fresh;
        counts.offered += crate::rc::offered(&c);
    }
    FabricReport {
        delivered: led.delivered_unique,
        expected: cfg.messages as u64,
        failed: a.failed() || b.failed(),
        timed_out,
        completion_us: ps_to_us(completion_ps),
        goodput_gbps: bits / (completion_ps as f64 * 1e-12) / 1e9,
        latency_us: led.latency,
        retransmits: a.retransmits(),
        replays_injected,
        replays_admitted: b.stats.dup_admitted_fresh,
        duplicates_delivered: led.duplicates,
        payload_mismatches: led.mismatches,
        dup_suppressed: a.stats.dup_suppressed + b.stats.dup_suppressed,
        ooo_buffered: a.stats.ooo_buffered + b.stats.ooo_buffered,
        gap_drops: a.stats.gap_drops + b.stats.gap_drops,
        rdma_faults: a.stats.rdma_faults + b.stats.rdma_faults,
        reads_served: b.stats.reads_served,
        fabric_link_drops: sim.stats().link_drops,
        corrupt_drops: a.stats.parse_drops + b.stats.parse_drops,
        rejected_auth: a_channel.rejected_auth + b_channel.rejected_auth,
        rejected_stale: b_channel.rejected_stale,
        fabric_generated: sim.stats().generated,
    }
}

// -------------------------------------------------------------- rekey

/// Messages per flow at full size.
const REKEY_MESSAGES: u64 = 48;
const REKEY_FLOWS: usize = 512;
const REKEY_PAYLOAD: usize = 256;

/// fig_rekey's full-mode `kill-3ms` arm.
fn rekey_config(seed: u64, flows: usize, messages: usize) -> RekeyConfig {
    let mut cfg = RekeyConfig {
        seed,
        flows,
        messages,
        payload_len: REKEY_PAYLOAD,
        post_interval: 800 * US,
        replicas: 5,
        rotation_period: 2 * MS,
        grace: 2 * MS,
        kill_leader_at: 3 * MS,
        stale_every: 2,
        stale_delay: 12 * MS,
        ..RekeyConfig::default()
    };
    cfg.sim.duration = 2 * MS;
    cfg.sim.warmup = 200 * US;
    cfg
}

fn rekey_failures(r: &RekeyReport) -> Option<(u64, String)> {
    if r.failed || r.timed_out {
        return Some((
            r.expected,
            format!("QP dead ({}) or timed out ({})", r.failed, r.timed_out),
        ));
    }
    let failed = (r.expected - r.delivered.min(r.expected))
        + r.stale_admitted
        + r.payload_mismatches
        + r.duplicates_delivered;
    (failed > 0).then(|| {
        (
            failed,
            format!(
                "delivered {}/{}, stale-epoch packets admitted {}, payload mismatches {}, \
                 duplicates delivered {}",
                r.delivered,
                r.expected,
                r.stale_admitted,
                r.payload_mismatches,
                r.duplicates_delivered
            ),
        )
    })
}

/// One `rekey_1024qp` repetition: the whole harness is one call from
/// outside, so it is one span.
pub fn rekey_repetition(seed: u64, size_divisor: u64, tr: &mut Tracer) -> Repetition {
    let start = Instant::now();
    let messages = (REKEY_MESSAGES / size_divisor).max(2) as usize;
    let cfg = rekey_config(derive(seed, 0x004B_4559), REKEY_FLOWS, messages);
    let warm = rekey_config(derive(seed, 0x004B_455A), REKEY_FLOWS / 10, messages);
    std::hint::black_box(run_rekey_sim(&warm));
    let setup_s = start.elapsed().as_secs_f64();

    let root = tr.open("harness.workload", 1);
    let timed = Instant::now();
    let s = tr.open("ib_sm.run_rekey_sim", 1);
    let r = run_rekey_sim(&cfg);
    tr.close(s);
    let wall_s = timed.elapsed().as_secs_f64();
    tr.close(root);

    let mut rep = Repetition {
        setup_s,
        wall_s,
        attempted: r.expected,
        payload_bits: r.delivered * REKEY_PAYLOAD as u64 * 8,
        ..Repetition::default()
    };
    if let Some((ops, why)) = rekey_failures(&r) {
        rep.fail(ops, why);
    }
    if r.leader_kills != 1 || r.takeovers < 1 || r.rotations < 1 {
        rep.fail(
            r.expected,
            format!(
                "key plane did not exercise failover: kills {}, takeovers {}, rotations {}",
                r.leader_kills, r.takeovers, r.rotations
            ),
        );
    }
    rep.sim = vec![("sim_goodput_gbps", r.goodput_gbps)];
    let first = r.expected * (REKEY_PAYLOAD.div_ceil(cfg.rc.mtu) as u64);
    rep.layer = vec![
        ("ib_security.rejected_auth", r.rejected_auth as f64),
        ("ib_security.rejected_stale", r.rejected_stale_psn as f64),
        (
            "ib_security.rejected_stale_epoch",
            r.rejected_stale_epoch as f64,
        ),
        ("ib_security.duplicates", r.dup_suppressed as f64),
        (
            "ib_transport.retx_share",
            r.retransmits as f64 / (first + r.retransmits).max(1) as f64,
        ),
        ("ib_transport.dup_suppressed", r.dup_suppressed as f64),
        ("ib_sm.rotations", r.rotations as f64),
        ("ib_sm.key_updates_tx", r.key_updates_tx as f64),
        ("ib_sm.takeovers", r.takeovers as f64),
        ("ib_sm.time_to_recover_us", r.time_to_recover_us),
    ];
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_fabric_loop_reproduces_the_library_report() {
        for (op, mode) in [
            (RdmaOp::Send, RetransmitMode::GoBackN),
            (RdmaOp::Write, RetransmitMode::SelectiveRepeat),
            (RdmaOp::Read, RetransmitMode::SelectiveRepeat),
        ] {
            let mut cfg = fabric_config(0xC0FFEE, 8, op, mode);
            cfg.sim.duration = MS;
            let mut tr = Tracer::on();
            let mut counts = EngineCounts::default();
            let traced = traced_fabric_sim(&cfg, &mut tr, &mut counts);
            assert_eq!(
                traced.to_json().to_string(),
                run_fabric_sim(&cfg).to_json().to_string(),
                "{op:?}/{mode:?}"
            );
            assert_eq!(traced.delivered, 8);
            assert!(counts.events > 0);
            crate::span::validate(tr.spans()).unwrap();
            assert!(crate::span::layer_self_ns(&tr.totals(), "ib_sim") > 0);
        }
    }

    #[test]
    fn a_dead_or_short_point_fails_operations() {
        let cfg = fabric_config(1, 8, RdmaOp::Send, RetransmitMode::GoBackN);
        let mut r = run_fabric_sim(&FabricSimConfig {
            messages: 4,
            ..FabricSimConfig::default()
        });
        r.expected = 8;
        r.delivered = 6;
        r.replays_admitted = 1;
        let (ops, _) = fabric_point_failures(&cfg, &r).expect("short delivery fails");
        assert_eq!(ops, 3);
        r.timed_out = true;
        assert_eq!(fabric_point_failures(&cfg, &r).unwrap().0, 8);
    }
}
