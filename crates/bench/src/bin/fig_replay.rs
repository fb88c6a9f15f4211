//! Replay-defense experiment — goodput and delivery latency vs link loss
//! for {no-auth, auth, auth+replay-window}, over the reliable-connection
//! transport with fault injection and an active replay attacker.
//!
//! The point of the figure: reliability and the §7 replay defense are
//! *not* in tension. Every arm achieves 100% eventual delivery under
//! loss (the RC layer retransmits with the original PSN), but only the
//! replay-window arm admits zero attacker replays — the other two
//! deliver the attacker's byte-identical duplicates to the application.
//!
//! Both sweeps run through [`ib_transport::run_fabric_sim`]; they differ
//! in the fabric under the flow, not in the harness:
//!
//! * **quiet** — a 2×2 mesh with no background traffic, neighbours
//!   talking, the attacker on a third node: the point-to-point case,
//!   where loss and the replays are all that happens to the flow.
//! * **mesh** — the paper's 16-node fabric at its default load, corner
//!   to corner, where replays ride real VL arbitration and congestion.
//!
//! Usage: `fig_replay [--smoke] [--seed S]`

use bench::{parse_args, render_table, write_bench_json};
use ib_runtime::{bench::bench_doc, Json, ToJson};
use ib_security::ChannelSecurity;
use ib_sim::time::MS;
use ib_sim::FaultConfig;
use ib_transport::{run_fabric_sim, FabricReport, FabricSimConfig, RdmaOp};

/// Link loss probabilities swept on the x-axis (0–5%).
const LOSSES: [f64; 5] = [0.0, 0.005, 0.01, 0.02, 0.05];

/// One point's config; `quiet` moves it from the 16-node mesh onto the
/// 2×2 one: node 0 → node 1, attacker on node 2, no background load.
fn config_for(
    quiet: bool,
    seed: u64,
    messages: usize,
    loss: f64,
    security: ChannelSecurity,
) -> FabricSimConfig {
    let mut cfg = FabricSimConfig {
        seed,
        security,
        op: RdmaOp::Send,
        messages,
        payload_len: 256,
        ..FabricSimConfig::default()
    };
    cfg.sim.duration = 5 * MS;
    cfg.sim.fault = FaultConfig::lossy(loss, 50_000);
    if quiet {
        (cfg.src, cfg.dst, cfg.replay_node) = (0, 1, 2);
        cfg.sim.mesh_dim = 2;
        cfg.sim.traffic.realtime_load = 0.0;
        cfg.sim.traffic.best_effort_load = 0.0;
    }
    cfg
}

/// The two sweeps: label in the table and the document, and `quiet`.
const SWEEPS: [(&str, bool); 2] = [("quiet", true), ("mesh", false)];

fn main() {
    let (smoke, seed) = parse_args(std::env::args());
    let messages: usize = if smoke { 60 } else { 300 };

    let mut points: Vec<(&str, f64, ChannelSecurity, FabricReport)> = Vec::new();
    for (transport, quiet) in SWEEPS {
        for &loss in &LOSSES {
            for &arm in &ChannelSecurity::ALL {
                let cfg = config_for(quiet, seed.0, messages, loss, arm);
                points.push((transport, loss, arm, run_fabric_sim(&cfg)));
            }
        }
    }

    println!(
        "Replay defense under loss: goodput / latency / attacker outcome \
         (seed {seed}, {messages} messages/point)"
    );
    let header = [
        "transport",
        "loss",
        "arm",
        "delivered",
        "goodput (Gb/s)",
        "latency (us)",
        "retrans",
        "replays inj",
        "replays admitted",
        "dups delivered",
        "dups suppressed",
    ];
    let table: Vec<Vec<String>> = points
        .iter()
        .map(|(transport, loss, arm, r)| {
            vec![
                transport.to_string(),
                format!("{:.1}%", loss * 100.0),
                arm.label().to_string(),
                format!("{}/{}", r.delivered, r.expected),
                format!("{:.3}", r.goodput_gbps),
                format!("{:.2}", r.latency_us.mean()),
                r.retransmits.to_string(),
                r.replays_injected.to_string(),
                r.replays_admitted.to_string(),
                r.duplicates_delivered.to_string(),
                r.dup_suppressed.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &table));

    // ---- acceptance assertions (every point of both sweeps) ----
    for (transport, loss, arm, r) in &points {
        let at = format!("{transport} {}% / {}", loss * 100.0, arm.label());
        assert!(
            r.delivered == r.expected && !r.failed && !r.timed_out,
            "{at}: 100% eventual delivery required, got {}/{}",
            r.delivered,
            r.expected
        );
        if *arm == ChannelSecurity::AuthReplay {
            assert_eq!(
                r.replays_admitted, 0,
                "{at}: replay window must admit zero attacker replays"
            );
            assert_eq!(
                r.duplicates_delivered, 0,
                "{at}: no duplicate ever reaches the application"
            );
        } else if r.replays_injected > 0 {
            assert!(
                r.replays_admitted > 0,
                "{at}: without the window the attack must succeed"
            );
        }
    }
    // Loss forces retransmission; retransmits reuse their original PSN and
    // still get through the window (the issue's headline scenario, at 2%).
    let headline = points
        .iter()
        .find(|(t, l, a, _)| *t == "quiet" && *l == 0.02 && *a == ChannelSecurity::AuthReplay)
        .expect("2% auth+replay point exists");
    assert!(headline.3.retransmits > 0, "2% loss must force retransmits");

    // Determinism: the same seed reproduces the headline point bit-for-bit.
    let again = run_fabric_sim(&config_for(
        true,
        seed.0,
        messages,
        0.02,
        ChannelSecurity::AuthReplay,
    ));
    assert_eq!(
        headline.3.to_json().to_string(),
        again.to_json().to_string(),
        "identical output across two same-seed runs"
    );
    println!("OK: 100% delivery on every arm; zero admitted replays with the window.");

    let doc = bench_doc(
        "fig_replay",
        seed,
        Json::obj([
            ("losses", Json::arr(LOSSES.iter().map(|l| l.to_json()))),
            ("messages", (messages as u64).to_json()),
            (
                "base",
                config_for(true, seed.0, messages, 0.0, ChannelSecurity::AuthReplay).to_json(),
            ),
            (
                "mesh_base",
                config_for(false, seed.0, messages, 0.0, ChannelSecurity::AuthReplay).to_json(),
            ),
            ("smoke", smoke.to_json()),
        ]),
        points
            .iter()
            .map(|(transport, loss, arm, r)| {
                Json::obj([
                    ("transport", transport.to_json()),
                    ("loss", loss.to_json()),
                    ("security", arm.label().to_json()),
                    ("report", r.to_json()),
                ])
            })
            .collect(),
    );
    let path = write_bench_json("fig_replay", &doc).expect("write BENCH_fig_replay.json");
    println!("wrote {}", path.display());
}
