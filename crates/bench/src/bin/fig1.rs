//! Figure 1 — average queuing time & network latency under DoS attacks,
//! for realtime (a) and best-effort (b) traffic, vs number of attackers.
//!
//! Paper shape: with no attacker, queuing is a few µs and network ≈ 20 µs;
//! attackers multiply queuing time while network latency moves only
//! marginally; best-effort suffers more than realtime (VL priority).
//! Each point averages several random partition/attacker placements.
//!
//! Usage: `fig1 [--quick|--smoke] [--max-attackers N] [--seeds K] [--seed S]`
//! (`--smoke` is an alias for `--quick`, matching the other gated binaries).

use bench::{arg_value, bench_doc, render_table, seed_arg, smoke_arg, write_bench_json};
use ib_runtime::{Json, ToJson};
use ib_security::experiments::{fig1_config, run_grid_seed_averaged, Fig1Row, DEFAULT_SEEDS};
use ib_sim::time::{MS, US};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = smoke_arg(&args);
    let max: usize = arg_value(&args, "--max-attackers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    // Figure 1 is the cheapest sweep, so it affords extra seeds — attacker
    // placement dominates the variance of the middle points.
    let seeds: u64 = arg_value(&args, "--seeds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 6 } else { DEFAULT_SEEDS + 4 });
    let seed = seed_arg(&args);

    // Build the whole grid up front, then let the flattened (point × seed)
    // runner shard the work across cores in one parallel scope.
    let bases: Vec<_> = (0..=max)
        .map(|attackers| {
            let mut cfg = fig1_config(attackers);
            cfg.seed = seed;
            if quick {
                cfg.duration = 3 * MS;
                cfg.warmup = 300 * US;
            }
            cfg
        })
        .collect();
    let rows: Vec<Fig1Row> = run_grid_seed_averaged(&bases, seeds)
        .into_iter()
        .enumerate()
        .map(|(attackers, p)| Fig1Row {
            attackers,
            rt_queuing_us: p.rt_queuing_us,
            rt_network_us: p.rt_network_us,
            be_queuing_us: p.be_queuing_us,
            be_network_us: p.be_network_us,
        })
        .collect();

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
            ("max_attackers", (max as u64).to_json()),
            ("seeds_per_point", seeds.to_json()),
            ("quick", quick.to_json()),
        ]),
        rows.iter().map(Fig1Row::to_json).collect(),
    );
    let path = write_bench_json("fig1", &doc).expect("write BENCH_fig1.json");
    println!("wrote {}", path.display());
}
