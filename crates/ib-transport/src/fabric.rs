//! Transport-over-fabric co-simulation: one RC flow between two HCAs of
//! an [`ib_sim::Simulator`] mesh — the fig_rdma and fig_replay
//! experiments.
//!
//! Every wire buffer is posted into the full fabric: packets compete with
//! the simulator's own traffic (including Figure-5 attackers) for
//! host-link access, credits and VL arbitration, cross the mesh hop by
//! hop, and are exposed to per-link faults. Deliveries come back with
//! their real per-hop latency, so retransmission timers and the replay
//! window interact with congestion rather than a constant RTT.
//!
//! The loop itself is [`crate::cosim`]'s; this module is one
//! configuration of it — a single flow with every verb posted at t = 0
//! and the replay attacker tapping the destination HCA: it captures every
//! clean data packet and re-posts every `replay_every`-th one from
//! `replay_node` after `replay_delay`, byte-identical to the original, so
//! only the replay window can reject it — and the [`FabricReport`] read
//! off the finished run.
//!
//! Everything is deterministic in `seed`: it steers the fabric (traffic,
//! attacker placement, faults) and the endpoints' shared secret, and the
//! report is bit-identical across same-seed runs.

use ib_mgmt::keymgmt::SecretKey;
use ib_packet::types::{PKey, Qpn};
use ib_runtime::{Json, Seed, ToJson};
use ib_security::ChannelSecurity;
use ib_sim::time::{ps_to_us, MS, US};
use ib_sim::{OnlineStats, SimConfig, SimTime, Simulator};

use crate::config::RcConfig;
use crate::cosim::{Cosim, RdmaOp, Tap, Workload};
use crate::endpoint::SecureRcEndpoint;

/// The measured flow's QPN.
const FABRIC_QPN: u32 = 7;

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
    /// Virtual lane the host flow rides: 0, 1 (the realtime-priority
    /// VL) or 15, the VLs the engine provisions.
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
    /// Run hit `max_sim_time` before completing. A run the limit stops
    /// after every message was delivered and acknowledged (a replay still
    /// pending at the tap, say) reports `false`.
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
}

/// Run one fig_rdma point: all ops completed (plus a replay-drain grace
/// window), sender failure, or the time limit.
pub fn run_fabric_sim(cfg: &FabricSimConfig) -> FabricReport {
    let nodes = cfg.sim.num_nodes();
    assert!(cfg.src < nodes && cfg.dst < nodes && cfg.replay_node < nodes);

    let mut sim_cfg = cfg.sim.clone();
    sim_cfg.seed = Seed(cfg.seed);

    let secret = SecretKey::from_seed(cfg.seed ^ 0x005E_C2E7);
    let make = |qpn, lid, peer, node: &_| {
        SecureRcEndpoint::on_node(
            cfg.security,
            PKey(0x8001),
            secret,
            cfg.replay_window,
            cfg.rc,
            lid,
            peer,
            qpn,
            node,
        )
    };
    let load = Workload {
        qpn0: FABRIC_QPN,
        vl: cfg.vl,
        messages: cfg.messages,
        payload_len: cfg.payload_len,
        post_interval: 0,
        // `FabricReport` carries no timeline; any width does.
        bucket: MS,
        max_sim_time: cfg.max_sim_time,
    };
    let tap = Tap {
        node: cfg.dst,
        qpn: Qpn(FABRIC_QPN),
        every: cfg.replay_every,
        delay: cfg.replay_delay,
        inject_from: cfg.replay_node,
    };
    let spec = [(cfg.src, cfg.dst, cfg.op, 0)];
    let mut run = Cosim::new(Simulator::new(sim_cfg), load, tap, spec, make);
    run.run(&mut ());

    let (a, b) = (&run.flows[0].a, &run.flows[0].b);
    let a_channel = a.channel().stats;
    let b_channel = b.channel().stats;
    let fabric = run.sim.stats();
    FabricReport {
        delivered: run.ledger.delivered,
        expected: cfg.messages as u64,
        failed: run.failed,
        timed_out: run.timed_out,
        completion_us: ps_to_us(run.completion_ps()),
        goodput_gbps: run.goodput_gbps(),
        latency_us: run.ledger.latency_us.clone(),
        retransmits: a.retransmits(),
        replays_injected: run.replays_injected,
        replays_admitted: b.stats.dup_admitted_fresh,
        duplicates_delivered: run.ledger.duplicates,
        payload_mismatches: run.ledger.mismatches,
        dup_suppressed: a.stats.dup_suppressed + b.stats.dup_suppressed,
        ooo_buffered: a.stats.ooo_buffered + b.stats.ooo_buffered,
        gap_drops: a.stats.gap_drops + b.stats.gap_drops,
        rdma_faults: a.stats.rdma_faults + b.stats.rdma_faults,
        reads_served: b.stats.reads_served,
        fabric_link_drops: fabric.link_drops,
        // The driver's dispatch parse drops a corrupted arrival before any
        // endpoint sees it; the endpoints still count reserved encodings.
        corrupt_drops: run.ledger.unparseable + a.stats.parse_drops + b.stats.parse_drops,
        rejected_auth: a_channel.rejected_auth + b_channel.rejected_auth,
        rejected_stale: b_channel.rejected_stale,
        fabric_generated: fabric.generated,
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
        let parsed = Json::parse(&text).expect("config JSON parses");
        assert_eq!(parsed.get("op").and_then(Json::as_str), Some("read"));
        let rc = parsed.get("rc").expect("rc object");
        assert_eq!(rc.get("retransmit").and_then(Json::as_str), Some("sr"));
        assert_eq!(parsed.to_string(), text, "writer/parser agree");

        let rt = run_fabric_sim(&cfg).to_json().to_string();
        let parsed = Json::parse(&rt).expect("report JSON parses");
        assert_eq!(parsed.get("delivered").and_then(Json::as_u64), Some(24));
        assert_eq!(parsed.to_string(), rt);
    }
}
