//! RDMA-over-fabric experiment — SEND / RDMA WRITE / RDMA READ between
//! two HCAs of the 16-node mesh, swept over link loss and retransmission
//! strategy, with a Figure-5 attacker flooding the fabric and an on-path
//! replay attacker re-injecting captured data packets.
//!
//! The point of the figure: the verbs survive the fabric. Segmented
//! messages reassemble despite per-link loss and attack congestion, every
//! arm reaches 100% eventual delivery, the replay window admits zero
//! attacker duplicates even though retransmits are byte-identical to
//! replays, and selective repeat beats go-back-N on goodput once loss is
//! high enough that a single drop no longer implies every later segment
//! must be resent.
//!
//! Usage: `fig_rdma [--smoke] [--seed S]`

use bench::{bench_doc, parse_args, render_table, write_bench_json};
use ib_runtime::{Json, ToJson};
use ib_security::ChannelSecurity;
use ib_sim::time::MS;
use ib_sim::{AttackKeys, FaultConfig};
use ib_transport::{run_fabric_sim, FabricReport, FabricSimConfig, RdmaOp, RetransmitMode};

/// Link loss probabilities swept per op (0–2%).
const LOSSES: [f64; 3] = [0.0, 0.01, 0.02];

/// Retransmission strategies compared at each point.
const MODES: [RetransmitMode; 2] = [RetransmitMode::GoBackN, RetransmitMode::SelectiveRepeat];

/// 1.5 MTUs per message: every message segments (First/Last at least).
const PAYLOAD_LEN: usize = 1536;

fn config_for(
    seed: u64,
    messages: usize,
    op: RdmaOp,
    loss: f64,
    mode: RetransmitMode,
) -> FabricSimConfig {
    let mut cfg = FabricSimConfig {
        seed,
        security: ChannelSecurity::AuthReplay,
        op,
        messages,
        payload_len: PAYLOAD_LEN,
        ..FabricSimConfig::default()
    };
    cfg.rc.retransmit = mode;
    // One full-speed valid-P_Key attacker (Figure 5's worst case: the
    // flood is admitted everywhere) contends with the flow for the
    // fabric, on top of the background realtime/best-effort load.
    cfg.sim.num_attackers = 1;
    cfg.sim.attack_keys = AttackKeys::Valid;
    cfg.sim.attack_probability = 1.0;
    cfg.sim.duration = 5 * MS;
    cfg.sim.fault = FaultConfig::lossy(loss, 50_000);
    cfg
}

fn main() {
    let (smoke, seed) = parse_args(std::env::args());
    let messages: usize = if smoke { 16 } else { 48 };

    let mut points: Vec<(RdmaOp, f64, RetransmitMode, FabricReport)> = Vec::new();
    for op in RdmaOp::ALL {
        for &loss in &LOSSES {
            for &mode in &MODES {
                let cfg = config_for(seed.0, messages, op, loss, mode);
                points.push((op, loss, mode, run_fabric_sim(&cfg)));
            }
        }
    }

    println!(
        "RDMA verbs over the attacked mesh: goodput / latency / replay outcome \
         (seed {seed}, {messages} x {PAYLOAD_LEN} B ops/point)"
    );
    let table: Vec<Vec<String>> = points
        .iter()
        .map(|(op, loss, mode, r)| {
            vec![
                op.label().to_string(),
                format!("{:.1}%", loss * 100.0),
                mode.label().to_string(),
                format!("{}/{}", r.delivered, r.expected),
                format!("{:.3}", r.goodput_gbps),
                format!("{:.2}", r.latency_us.mean()),
                r.retransmits.to_string(),
                r.ooo_buffered.to_string(),
                r.gap_drops.to_string(),
                r.replays_injected.to_string(),
                r.replays_admitted.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "op",
                "loss",
                "retx mode",
                "delivered",
                "goodput (Gb/s)",
                "latency (us)",
                "retrans",
                "ooo buf",
                "gap drops",
                "replays inj",
                "replays admitted"
            ],
            &table
        )
    );

    // ---- acceptance assertions ----
    for (op, loss, mode, r) in &points {
        let tag = format!("{}/{:.1}%/{}", op.label(), loss * 100.0, mode.label());
        assert!(
            r.delivered == r.expected && !r.failed && !r.timed_out,
            "{tag}: 100% eventual delivery required, got {}/{}",
            r.delivered,
            r.expected
        );
        assert_eq!(r.payload_mismatches, 0, "{tag}: every byte verified");
        assert_eq!(
            r.replays_admitted, 0,
            "{tag}: replay window must admit zero attacker replays"
        );
        assert!(r.replays_injected > 0, "{tag}: attacker must be active");
        if *loss > 0.0 {
            assert!(r.retransmits > 0, "{tag}: loss must force retransmits");
        }
        if *op == RdmaOp::Read {
            assert!(r.reads_served > 0, "{tag}: responder served reads");
        }
    }
    // Selective repeat only buffers out of order; go-back-N only drops
    // gaps. At ≥1% loss SR's goodput must not trail GBN in aggregate.
    let sum = |want: RetransmitMode| -> f64 {
        points
            .iter()
            .filter(|(_, loss, mode, _)| *loss >= 0.01 && *mode == want)
            .map(|(_, _, _, r)| r.goodput_gbps)
            .sum()
    };
    let (gbn, sr) = (
        sum(RetransmitMode::GoBackN),
        sum(RetransmitMode::SelectiveRepeat),
    );
    assert!(
        sr >= gbn,
        "selective repeat must not trail go-back-N at >=1% loss (sr {sr:.4} vs gbn {gbn:.4})"
    );
    println!("lossy goodput: selective-repeat {sr:.3} Gb/s vs go-back-N {gbn:.3} Gb/s");

    // Determinism: the same seed reproduces a lossy RDMA WRITE point
    // bit-for-bit.
    let headline = points
        .iter()
        .find(|(op, loss, mode, _)| {
            *op == RdmaOp::Write && *loss == 0.02 && *mode == RetransmitMode::SelectiveRepeat
        })
        .expect("write/2%/sr point exists");
    let again = run_fabric_sim(&config_for(
        seed.0,
        messages,
        RdmaOp::Write,
        0.02,
        RetransmitMode::SelectiveRepeat,
    ));
    assert_eq!(
        headline.3.to_json().to_string(),
        again.to_json().to_string(),
        "identical output across two same-seed runs"
    );
    println!("OK: 100% delivery for every verb; zero admitted replays on the mesh.");

    let doc = bench_doc(
        "fig_rdma",
        seed,
        Json::obj([
            (
                "ops",
                Json::arr(RdmaOp::ALL.iter().map(|o| o.label().to_json())),
            ),
            ("losses", Json::arr(LOSSES.iter().map(|l| l.to_json()))),
            (
                "modes",
                Json::arr(MODES.iter().map(|m| m.label().to_json())),
            ),
            ("messages", (messages as u64).to_json()),
            ("payload_len", (PAYLOAD_LEN as u64).to_json()),
            (
                "base",
                config_for(seed.0, messages, RdmaOp::Send, 0.0, RetransmitMode::GoBackN).to_json(),
            ),
            ("smoke", smoke.to_json()),
        ]),
        points
            .iter()
            .map(|(op, loss, mode, r)| {
                Json::obj([
                    ("op", op.label().to_json()),
                    ("loss", loss.to_json()),
                    ("retransmit", mode.label().to_json()),
                    ("report", r.to_json()),
                ])
            })
            .collect(),
    );
    let path = write_bench_json("fig_rdma", &doc).expect("write BENCH_fig_rdma.json");
    println!("wrote {}", path.display());
}
