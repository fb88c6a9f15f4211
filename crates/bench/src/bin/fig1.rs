//! Figure 1 — average queuing time & network latency under DoS attacks,
//! for realtime (a) and best-effort (b) traffic, vs number of attackers.
//!
//! Paper shape: with no attacker, queuing is a few µs and network ≈ 20 µs;
//! attackers multiply queuing time while network latency moves only
//! marginally; best-effort suffers more than realtime (VL priority).
//! Each point averages several random partition/attacker placements.
//!
//! Usage: `fig1 [--smoke] [--seed S]`.

use bench::{parse_args, render_table, write_bench_json};
use ib_runtime::{bench::bench_doc, Json, ToJson};
use ib_security::experiments::{fig1_rows, Fig1Row, FigureRun, FIG1_MAX_ATTACKERS};

fn main() {
    let (quick, seed) = parse_args(std::env::args());
    let seeds = FigureRun::fig1(quick).seeds;
    let rows = fig1_rows(seed, quick);

    println!("Figure 1(a). Realtime traffic under DoS attack (seed {seed}, {seeds} seeds/point)");
    let a_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.attackers.to_string(),
                format!("{:.2}", r.rt_queuing_us),
                format!("{:.2}", r.rt_network_us),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["attackers", "queuing time (us)", "network latency (us)"],
            &a_rows
        )
    );

    println!("Figure 1(b). Best-effort traffic under DoS attack");
    let b_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.attackers.to_string(),
                format!("{:.2}", r.be_queuing_us),
                format!("{:.2}", r.be_network_us),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["attackers", "queuing time (us)", "network latency (us)"],
            &b_rows
        )
    );

    // ---- shape assertions (who wins, roughly by what factor) ----
    let base = &rows[0];
    let worst = &rows[rows.len() - 1];
    assert!(
        worst.be_queuing_us > base.be_queuing_us * 2.0,
        "best-effort queuing must blow up under attack: {} -> {}",
        base.be_queuing_us,
        worst.be_queuing_us
    );
    let q_growth = worst.be_queuing_us / base.be_queuing_us.max(1e-9);
    let n_growth = worst.be_network_us / base.be_network_us.max(1e-9);
    assert!(
        q_growth > n_growth,
        "queuing grows faster than network latency (paper's key observation)"
    );
    assert!(
        worst.be_queuing_us >= worst.rt_queuing_us,
        "DoS hurts best-effort at least as much as realtime (VL priority)"
    );
    assert!(
        worst.rt_network_us < base.rt_network_us * 2.0,
        "realtime network latency stays near-flat: {} -> {}",
        base.rt_network_us,
        worst.rt_network_us
    );
    println!("OK: Figure 1 shape holds (queuing explodes, latency ~flat, BE > RT).");

    let doc = bench_doc(
        "fig1",
        seed,
        Json::obj([
            ("max_attackers", (FIG1_MAX_ATTACKERS as u64).to_json()),
            ("seeds_per_point", seeds.to_json()),
            ("quick", quick.to_json()),
        ]),
        rows.iter().map(Fig1Row::to_json).collect(),
    );
    let path = write_bench_json("fig1", &doc).expect("write BENCH_fig1.json");
    println!("wrote {}", path.display());
}
