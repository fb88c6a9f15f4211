//! Transport-over-fabric co-simulation: two [`SecureRcEndpoint`]s
//! attached to HCAs of an [`ib_sim::Simulator`] mesh — the fig_rdma
//! experiment.
//!
//! Where [`crate::sim`] models the link as two fault streams and a fixed
//! delay (the determinism oracle), this harness posts every wire buffer
//! into the full fabric via [`Simulator::post_host`]: packets compete
//! with the simulator's own traffic (including Figure-5 attackers) for
//! host-link access, credits and VL arbitration, cross the mesh hop by
//! hop, and are exposed to per-link faults. Deliveries come back through
//! [`Simulator::take_host_delivery`] with their real per-hop latency, so
//! retransmission timers and the replay window interact with congestion
//! rather than a constant RTT.
//!
//! The co-simulation loop alternates endpoint time and fabric time:
//! endpoints speak at `now`, the fabric runs until the next delivery or
//! the earliest endpoint deadline ([`Simulator::run_hosts_until`]), and
//! deliveries are handed to the destination endpoint at their fabric
//! arrival time. The replay attacker taps the destination HCA: it
//! captures every clean data packet and re-posts every `replay_every`-th
//! one from `replay_node` after `replay_delay` — byte-identical to the
//! original, so only the replay window can reject it.
//!
//! Everything is deterministic in `seed`: it steers the fabric (traffic,
//! attacker placement, faults) and the endpoints' shared secret, and the
//! report is bit-identical across same-seed runs.

use std::collections::VecDeque;

use ib_mgmt::keymgmt::SecretKey;
use ib_packet::types::{Lid, PKey, Qpn, RKey};
use ib_packet::{Operation, Packet};
use ib_runtime::{Json, Seed, ToJson};
use ib_security::ChannelSecurity;
use ib_sim::time::{ps_to_us, MS, US};
use ib_sim::{OnlineStats, SimConfig, SimTime, Simulator};

use crate::config::RcConfig;
use crate::endpoint::SecureRcEndpoint;
use crate::sim::payload_for;

/// After the transfer completes, keep the fabric running this long so
/// already-captured replays still in flight get judged by the window.
const REPLAY_DRAIN_GRACE: SimTime = MS;

/// R_Key registered for the RDMA arms.
const FABRIC_RKEY: RKey = RKey(0x0DA7_A001);

/// Which verb the measured flow exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaOp {
    /// SEND: messages land in the peer's receive queue.
    Send,
    /// RDMA WRITE: message `i` lands at offset `i × payload_len` of the
    /// responder's memory region.
    Write,
    /// RDMA READ: the requester pulls message `i` from offset
    /// `i × payload_len` of the responder's pre-filled region.
    Read,
}

impl RdmaOp {
    /// All ops, sweep order.
    pub const ALL: [RdmaOp; 3] = [RdmaOp::Send, RdmaOp::Write, RdmaOp::Read];

    /// Stable label for JSON / tables.
    pub fn label(self) -> &'static str {
        match self {
            RdmaOp::Send => "send",
            RdmaOp::Write => "write",
            RdmaOp::Read => "read",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<RdmaOp> {
        Self::ALL.into_iter().find(|o| o.label() == s)
    }
}

/// Everything one fig_rdma point needs to reproduce itself.
#[derive(Debug, Clone)]
pub struct FabricSimConfig {
    /// Master seed: overrides `sim.seed` and derives the channel secret,
    /// so one number steers fabric and transport alike.
    pub seed: u64,
    /// Security arm under test.
    pub security: ChannelSecurity,
    /// Verb the measured flow uses.
    pub op: RdmaOp,
    /// Messages (or RDMA ops) the requester posts.
    pub messages: usize,
    /// Payload bytes per message (≥ 8; the first 8 carry the index).
    pub payload_len: usize,
    /// Requester's node index (endpoint A's HCA).
    pub src: usize,
    /// Responder's node index (endpoint B's HCA).
    pub dst: usize,
    /// Node the attacker re-injects captured packets from.
    pub replay_node: usize,
    /// Virtual lane the host flow rides (1 = the realtime-priority VL).
    pub vl: u8,
    /// Attacker replays every n-th captured data packet (0 = off).
    pub replay_every: u64,
    /// Delay between capture and re-injection.
    pub replay_delay: SimTime,
    /// Transport knobs (MTU, window, go-back-N vs selective repeat).
    pub rc: RcConfig,
    /// Replay-window depth for the auth+replay-window arm.
    pub replay_window: u32,
    /// Safety valve: give up past this simulated instant.
    pub max_sim_time: SimTime,
    /// The fabric under the flow (loss, attackers, background load).
    pub sim: SimConfig,
}

impl Default for FabricSimConfig {
    fn default() -> Self {
        FabricSimConfig {
            seed: 1,
            security: ChannelSecurity::AuthReplay,
            op: RdmaOp::Send,
            messages: 64,
            payload_len: 256,
            src: 0,
            dst: 15,
            replay_node: 5,
            vl: 1,
            replay_every: 3,
            replay_delay: 5 * US,
            rc: RcConfig::default(),
            replay_window: 64,
            max_sim_time: 500 * MS,
            sim: SimConfig::default(),
        }
    }
}

impl FabricSimConfig {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.to_json()),
            ("security", self.security.label().to_json()),
            ("op", self.op.label().to_json()),
            ("messages", (self.messages as u64).to_json()),
            ("payload_len", (self.payload_len as u64).to_json()),
            ("src", (self.src as u64).to_json()),
            ("dst", (self.dst as u64).to_json()),
            ("replay_node", (self.replay_node as u64).to_json()),
            ("vl", u64::from(self.vl).to_json()),
            ("replay_every", self.replay_every.to_json()),
            ("replay_delay_ps", self.replay_delay.to_json()),
            ("rc", self.rc.to_json()),
            ("replay_window", self.replay_window.to_json()),
            ("max_sim_time_ps", self.max_sim_time.to_json()),
            ("sim", self.sim.to_json()),
        ])
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub fn from_json(v: &Json) -> Option<FabricSimConfig> {
        Some(FabricSimConfig {
            seed: v.get("seed")?.as_u64()?,
            security: ChannelSecurity::from_label(v.get("security")?.as_str()?)?,
            op: RdmaOp::from_label(v.get("op")?.as_str()?)?,
            messages: v.get("messages")?.as_u64()? as usize,
            payload_len: v.get("payload_len")?.as_u64()? as usize,
            src: v.get("src")?.as_u64()? as usize,
            dst: v.get("dst")?.as_u64()? as usize,
            replay_node: v.get("replay_node")?.as_u64()? as usize,
            vl: u8::try_from(v.get("vl")?.as_u64()?).ok()?,
            replay_every: v.get("replay_every")?.as_u64()?,
            replay_delay: v.get("replay_delay_ps")?.as_u64()?,
            rc: RcConfig::from_json(v.get("rc")?)?,
            replay_window: v.get("replay_window")?.as_u64()? as u32,
            max_sim_time: v.get("max_sim_time_ps")?.as_u64()?,
            sim: SimConfig::from_json(v.get("sim")?)?,
        })
    }
}

/// One fig_rdma data point.
#[derive(Debug, Clone)]
pub struct FabricReport {
    /// Unique messages/ops completed at the application.
    pub delivered: u64,
    /// Messages posted.
    pub expected: u64,
    /// Either sender half exhausted its retries (QP error state).
    pub failed: bool,
    /// Run hit `max_sim_time` before completing.
    pub timed_out: bool,
    /// Instant the transfer completed (excludes the replay-drain tail), µs.
    pub completion_us: f64,
    /// Unique completed payload bits over the completion time.
    pub goodput_gbps: f64,
    /// Post-to-completion latency per unique message, µs.
    pub latency_us: OnlineStats,
    /// Requester-side retransmissions (timeouts, NAKs).
    pub retransmits: u64,
    /// Attacker packets re-posted into the fabric.
    pub replays_injected: u64,
    /// Behind-expected packets the responder admitted as fresh. On the
    /// mesh an attacker's replay and a lost-ACK retransmit are the same
    /// bytes, so every such admission is a replay-class failure; always 0
    /// under auth+replay-window.
    pub replays_admitted: u64,
    /// Already-completed messages surfaced to the application again.
    pub duplicates_delivered: u64,
    /// Completions whose payload or addressing failed verification.
    pub payload_mismatches: u64,
    /// Duplicates the channels suppressed (both endpoints).
    pub dup_suppressed: u64,
    /// Ahead-of-expected packets buffered out of order (selective repeat).
    pub ooo_buffered: u64,
    /// Ahead-of-expected packets dropped (go-back-N gaps).
    pub gap_drops: u64,
    /// RDMA ops refused (R_Key / bounds / no open transaction).
    pub rdma_faults: u64,
    /// RDMA READ requests the responder served.
    pub reads_served: u64,
    /// Fabric-wide wire drops by the fault layer (all traffic classes,
    /// host flow included).
    pub fabric_link_drops: u64,
    /// Host wire buffers discarded at parse (fault-layer corruption).
    pub corrupt_drops: u64,
    /// Packets failing MAC/ICRC at either endpoint.
    pub rejected_auth: u64,
    /// Packets rejected as older than the replay window.
    pub rejected_stale: u64,
    /// Total packets the fabric generated (background + attack + host).
    pub fabric_generated: u64,
}

impl FabricReport {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("delivered", self.delivered.to_json()),
            ("expected", self.expected.to_json()),
            ("failed", self.failed.to_json()),
            ("timed_out", self.timed_out.to_json()),
            ("completion_us", self.completion_us.to_json()),
            ("goodput_gbps", self.goodput_gbps.to_json()),
            ("latency_us", self.latency_us.to_json()),
            ("retransmits", self.retransmits.to_json()),
            ("replays_injected", self.replays_injected.to_json()),
            ("replays_admitted", self.replays_admitted.to_json()),
            ("duplicates_delivered", self.duplicates_delivered.to_json()),
            ("payload_mismatches", self.payload_mismatches.to_json()),
            ("dup_suppressed", self.dup_suppressed.to_json()),
            ("ooo_buffered", self.ooo_buffered.to_json()),
            ("gap_drops", self.gap_drops.to_json()),
            ("rdma_faults", self.rdma_faults.to_json()),
            ("reads_served", self.reads_served.to_json()),
            ("fabric_link_drops", self.fabric_link_drops.to_json()),
            ("corrupt_drops", self.corrupt_drops.to_json()),
            ("rejected_auth", self.rejected_auth.to_json()),
            ("rejected_stale", self.rejected_stale.to_json()),
            ("fabric_generated", self.fabric_generated.to_json()),
        ])
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub fn from_json(v: &Json) -> Option<FabricReport> {
        Some(FabricReport {
            delivered: v.get("delivered")?.as_u64()?,
            expected: v.get("expected")?.as_u64()?,
            failed: v.get("failed")?.as_bool()?,
            timed_out: v.get("timed_out")?.as_bool()?,
            completion_us: v.get("completion_us")?.as_f64()?,
            goodput_gbps: v.get("goodput_gbps")?.as_f64()?,
            latency_us: OnlineStats::from_json(v.get("latency_us")?)?,
            retransmits: v.get("retransmits")?.as_u64()?,
            replays_injected: v.get("replays_injected")?.as_u64()?,
            replays_admitted: v.get("replays_admitted")?.as_u64()?,
            duplicates_delivered: v.get("duplicates_delivered")?.as_u64()?,
            payload_mismatches: v.get("payload_mismatches")?.as_u64()?,
            dup_suppressed: v.get("dup_suppressed")?.as_u64()?,
            ooo_buffered: v.get("ooo_buffered")?.as_u64()?,
            gap_drops: v.get("gap_drops")?.as_u64()?,
            rdma_faults: v.get("rdma_faults")?.as_u64()?,
            reads_served: v.get("reads_served")?.as_u64()?,
            fabric_link_drops: v.get("fabric_link_drops")?.as_u64()?,
            corrupt_drops: v.get("corrupt_drops")?.as_u64()?,
            rejected_auth: v.get("rejected_auth")?.as_u64()?,
            rejected_stale: v.get("rejected_stale")?.as_u64()?,
            fabric_generated: v.get("fabric_generated")?.as_u64()?,
        })
    }
}

/// Per-run completion accounting, shared by the three verbs.
struct Ledger {
    seen: Vec<bool>,
    payload_len: usize,
    delivered_unique: u64,
    duplicates: u64,
    mismatches: u64,
    latency: OnlineStats,
    /// READ completions FIFO-match requests: index of the next expected.
    next_read: usize,
}

impl Ledger {
    fn new(messages: usize, payload_len: usize) -> Self {
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

    /// Record a completion of message `idx` at `now` (all messages are
    /// posted at t = 0, so latency is the completion instant).
    fn complete(&mut self, idx: usize, now: SimTime) {
        if self.seen[idx] {
            self.duplicates += 1;
        } else {
            self.seen[idx] = true;
            self.delivered_unique += 1;
            self.latency.push(ps_to_us(now));
        }
    }

    /// Drain responder-side completions (SEND deliveries, WRITE events).
    fn drain_dst(&mut self, b: &mut SecureRcEndpoint, op: RdmaOp, now: SimTime) {
        match op {
            RdmaOp::Send => {
                for payload in b.take_delivered() {
                    let idx = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
                    if idx >= self.seen.len() || payload != payload_for(idx, self.payload_len) {
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
                    if b.memory()[lo..lo + wlen as usize] != payload_for(idx, self.payload_len) {
                        self.mismatches += 1;
                        continue;
                    }
                    self.complete(idx, now);
                }
            }
            RdmaOp::Read => {}
        }
    }

    /// Drain requester-side completions (READ payloads, request order).
    fn drain_src(&mut self, a: &mut SecureRcEndpoint, op: RdmaOp, now: SimTime) {
        if op != RdmaOp::Read {
            return;
        }
        for payload in a.take_read_completions() {
            let idx = self.next_read;
            self.next_read += 1;
            if idx >= self.seen.len() || payload != payload_for(idx, self.payload_len) {
                self.mismatches += 1;
                continue;
            }
            self.complete(idx, now);
        }
    }
}

/// Run one fig_rdma point: all ops completed (plus a replay-drain grace
/// window), sender failure, or the time limit.
pub fn run_fabric_sim(cfg: &FabricSimConfig) -> FabricReport {
    assert!(cfg.payload_len >= 8, "payload must hold the 8-byte index");
    let nodes = cfg.sim.num_nodes();
    assert!(cfg.src < nodes && cfg.dst < nodes && cfg.replay_node < nodes);
    assert_ne!(cfg.src, cfg.dst, "the flow needs two distinct HCAs");

    let mut sim_cfg = cfg.sim.clone();
    sim_cfg.seed = Seed(cfg.seed);
    let mut sim = Simulator::new(sim_cfg);

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
    let mut a = make(src_lid, dst_lid);
    let mut b = make(dst_lid, src_lid);

    let region = cfg.messages * cfg.payload_len;
    match cfg.op {
        RdmaOp::Send => {
            for i in 0..cfg.messages {
                a.post(payload_for(i, cfg.payload_len));
            }
        }
        RdmaOp::Write => {
            b.configure_memory(region, FABRIC_RKEY);
            for i in 0..cfg.messages {
                let addr = (i * cfg.payload_len) as u64;
                a.post_write(addr, FABRIC_RKEY, payload_for(i, cfg.payload_len));
            }
        }
        RdmaOp::Read => {
            b.configure_memory(region, FABRIC_RKEY);
            for i in 0..cfg.messages {
                let lo = i * cfg.payload_len;
                b.memory_mut()[lo..lo + cfg.payload_len]
                    .copy_from_slice(&payload_for(i, cfg.payload_len));
                a.post_read(lo as u64, FABRIC_RKEY, cfg.payload_len as u32);
            }
        }
    }

    let mut led = Ledger::new(cfg.messages, cfg.payload_len);
    // Captured-and-due-later replays: (injection time, bytes).
    let mut pending: VecDeque<(SimTime, Vec<u8>)> = VecDeque::new();
    let mut captured = 0u64;
    let mut replays_injected = 0u64;
    let mut wire: Vec<Vec<u8>> = Vec::new();
    let mut now: SimTime = 0;
    let mut done_at: Option<SimTime> = None;
    let mut timed_out = false;

    loop {
        // Attacker re-injections that have come due.
        while pending.front().is_some_and(|(t, _)| *t <= now) {
            let (_, bytes) = pending.pop_front().unwrap();
            replays_injected += 1;
            sim.post_host(cfg.replay_node, cfg.dst, cfg.vl, bytes);
        }
        // Endpoints speak at `now`; their wire buffers enter the fabric.
        a.poll_into(now, &mut wire);
        for bytes in wire.drain(..) {
            sim.post_host(cfg.src, cfg.dst, cfg.vl, bytes);
        }
        b.poll_into(now, &mut wire);
        for bytes in wire.drain(..) {
            sim.post_host(cfg.dst, cfg.src, cfg.vl, bytes);
        }

        if done_at.is_none() && led.delivered_unique == cfg.messages as u64 && a.tx_idle() {
            done_at = Some(now);
        }
        if a.failed() || b.failed() {
            break;
        }
        if now >= cfg.max_sim_time {
            timed_out = done_at.is_none();
            break;
        }
        // Transfer complete: drain in-flight and pending replays so the
        // window still judges them, then stop.
        let drain_until = done_at.map(|done| done + cfg.replay_delay + REPLAY_DRAIN_GRACE);
        if drain_until.is_some_and(|t| now >= t) && pending.is_empty() {
            break;
        }

        // Fabric advances to the next delivery, endpoint deadline, replay
        // due time, or the horizon — whichever is first.
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
        // Only a future horizon is a scheduling target; a past one (waiting
        // on a pending replay) must not collapse the step to 1 ps.
        if let Some(t) = drain_until.filter(|&t| t > now) {
            target = target.min(t);
        }
        let target = target.max(now + 1);
        let t = sim.run_hosts_until(target);
        while let Some(d) = sim.take_host_delivery() {
            if d.node == cfg.dst {
                // Attacker tap at the destination HCA: capture clean data
                // packets (ACKs are idempotent — replaying them proves
                // nothing).
                if cfg.replay_every > 0 {
                    if let Ok(p) = Packet::parse(&d.bytes) {
                        if p.bth.opcode.operation != Operation::Acknowledge {
                            captured += 1;
                            if captured.is_multiple_of(cfg.replay_every) {
                                pending.push_back((d.at + cfg.replay_delay, d.bytes.clone()));
                            }
                        }
                    }
                }
                b.handle_wire(d.at, &d.bytes);
                led.drain_dst(&mut b, cfg.op, d.at);
            } else if d.node == cfg.src {
                a.handle_wire(d.at, &d.bytes);
                led.drain_src(&mut a, cfg.op, d.at);
            }
        }
        now = t;
    }

    let completion_ps = done_at.unwrap_or(now).max(1);
    let bits = (led.delivered_unique * cfg.payload_len as u64 * 8) as f64;
    let a_channel = a.channel().stats;
    let b_channel = b.channel().stats;
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

#[cfg(test)]
mod tests {
    use super::*;
    use ib_sim::FaultConfig;

    fn base(op: RdmaOp) -> FabricSimConfig {
        let mut cfg = FabricSimConfig {
            op,
            messages: 24,
            payload_len: 96,
            ..FabricSimConfig::default()
        };
        cfg.sim.duration = 2 * MS;
        cfg.sim.warmup = 200 * US;
        cfg
    }

    #[test]
    fn all_ops_complete_over_the_mesh() {
        for op in RdmaOp::ALL {
            let r = run_fabric_sim(&base(op));
            assert_eq!(r.delivered, 24, "{op:?}");
            assert!(!r.failed && !r.timed_out, "{op:?}");
            assert_eq!(r.payload_mismatches, 0, "{op:?}");
            assert_eq!(r.replays_admitted, 0, "{op:?}: window holds");
            assert!(r.replays_injected > 0, "{op:?}: attacker was active");
            assert!(r.goodput_gbps > 0.0, "{op:?}");
            if op == RdmaOp::Read {
                assert_eq!(r.reads_served, 24);
            }
        }
    }

    #[test]
    fn multi_segment_messages_cross_the_fabric() {
        // 2.5 MTUs per message: First/Middle/Last segmentation end to end.
        let mut cfg = base(RdmaOp::Send);
        cfg.messages = 6;
        cfg.payload_len = 2 * cfg.rc.mtu + cfg.rc.mtu / 2;
        let r = run_fabric_sim(&cfg);
        assert_eq!(r.delivered, 6);
        assert_eq!(r.payload_mismatches, 0);
        assert!(!r.failed && !r.timed_out);
    }

    #[test]
    fn lossy_fabric_still_completes_and_rejects_replays() {
        for op in RdmaOp::ALL {
            let mut cfg = base(op);
            cfg.sim.fault = FaultConfig::lossy(0.02, 50_000);
            let r = run_fabric_sim(&cfg);
            assert_eq!(r.delivered, 24, "{op:?}: reliable despite 2% loss");
            assert!(!r.failed && !r.timed_out, "{op:?}");
            assert!(r.retransmits > 0, "{op:?}: loss forces retransmission");
            assert_eq!(r.replays_admitted, 0, "{op:?}");
            assert_eq!(r.payload_mismatches, 0, "{op:?}");
        }
    }

    /// Regression: a replay still pending after the drain horizon used to
    /// pin the scheduling target in the past, stepping 1 ps at a time
    /// (~2 × 10⁸ iterations per 200 µs of replay delay).
    #[test]
    fn late_replay_past_the_drain_horizon_does_not_spin() {
        let mut cfg = base(RdmaOp::Send);
        // Every arrival at the tap is re-captured, replays included, so a
        // replay is always pending and the run ends at `max_sim_time`.
        cfg.replay_every = 1;
        cfg.replay_delay = 200 * US;
        cfg.max_sim_time = 4 * MS;
        let r = run_fabric_sim(&cfg);
        assert_eq!(r.delivered, r.expected);
        assert!(r.replays_injected > 0);
        assert_eq!(r.replays_admitted, 0);
    }

    #[test]
    fn same_seed_same_report_different_seed_different() {
        let mut cfg = base(RdmaOp::Write);
        cfg.sim.fault = FaultConfig::lossy(0.02, 50_000);
        cfg.seed = 42;
        let a = run_fabric_sim(&cfg).to_json().to_string();
        let b = run_fabric_sim(&cfg).to_json().to_string();
        assert_eq!(a, b, "bit-identical across same-seed runs");
        cfg.seed = 43;
        let c = run_fabric_sim(&cfg).to_json().to_string();
        assert_ne!(a, c, "seed steers fabric and transport");
    }

    #[test]
    fn config_and_report_json_round_trip() {
        let mut cfg = base(RdmaOp::Read);
        cfg.rc.retransmit = crate::config::RetransmitMode::SelectiveRepeat;
        cfg.sim.fault = FaultConfig::lossy(0.01, 25_000);
        let text = cfg.to_json().to_string();
        let back = FabricSimConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_string(), text);

        let report = run_fabric_sim(&back);
        let rt = report.to_json().to_string();
        let parsed = FabricReport::from_json(&Json::parse(&rt).unwrap()).unwrap();
        assert_eq!(parsed.to_json().to_string(), rt);
    }
}
