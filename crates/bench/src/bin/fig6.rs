//! Figure 6 — message-authentication overhead with key initialization:
//! queuing and network delay, "No Key" vs "With Key", input loads 40–70 %.
//!
//! Paper shape: the two bars are nearly identical at every load (QP-level
//! key exchange costs one RTT per pair, amortized over many messages;
//! per-message MAC costs one pipeline cycle per end node).
//!
//! Usage: `fig6 [--quick|--smoke] [--all-modes] [--seeds K] [--seed S]`
//! (`--smoke` is an alias for `--quick`, matching the other gated binaries).
//! (`--all-modes` adds the partition-level ablation row).

use bench::{arg_value, bench_doc, render_table, seed_arg, smoke_arg, write_bench_json};
use ib_runtime::{Json, ToJson};
use ib_security::experiments::{
    fig6_config, run_grid_seed_averaged, Fig6Row, DEFAULT_SEEDS, FIG5_LOADS,
};
use ib_sim::config::AuthMode;
use ib_sim::time::{MS, US};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = smoke_arg(&args);
    let modes: &[AuthMode] = if args.iter().any(|a| a == "--all-modes") {
        &[AuthMode::None, AuthMode::PartitionLevel, AuthMode::QpLevel]
    } else {
        &[AuthMode::None, AuthMode::QpLevel]
    };
    let seeds: u64 = arg_value(&args, "--seeds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2 } else { DEFAULT_SEEDS });
    let seed = seed_arg(&args);

    // One flattened (load × mode × seed) work list for the sharded runner.
    let mut bases = Vec::new();
    let mut cells = Vec::new();
    for &load in &FIG5_LOADS {
        for &mode in modes {
            let mut cfg = fig6_config(load, mode);
            cfg.seed = seed;
            if quick {
                cfg.duration = 4 * MS;
                cfg.warmup = 400 * US;
            }
            bases.push(cfg);
            cells.push((load, mode));
        }
    }
    let rows: Vec<Fig6Row> = run_grid_seed_averaged(&bases, seeds)
        .into_iter()
        .zip(cells)
        .map(|(p, (load, mode))| Fig6Row {
            input_load: load,
            mode,
            queuing_us: p.legit_queuing_us,
            network_us: p.legit_network_us,
            queuing_stddev_us: p.legit_queuing_stddev_us,
        })
        .collect();

    println!("Figure 6. Message authentication overhead with key initialization (seed {seed})");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r: &Fig6Row| {
            vec![
                format!("{:.0}%", r.input_load * 100.0),
                r.mode.label().to_string(),
                format!("{:.2}", r.queuing_us),
                format!("{:.2}", r.network_us),
                format!("{:.2}", r.queuing_stddev_us),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "load",
                "mode",
                "queuing (us)",
                "network (us)",
                "queuing stddev"
            ],
            &table
        )
    );

    // ---- shape assertions: overhead is marginal at every load ----
    for &load in &[0.4, 0.5, 0.6, 0.7] {
        let no_key = rows
            .iter()
            .find(|r| (r.input_load - load).abs() < 1e-9 && r.mode == AuthMode::None)
            .unwrap();
        let with_key = rows
            .iter()
            .find(|r| (r.input_load - load).abs() < 1e-9 && r.mode == AuthMode::QpLevel)
            .unwrap();
        let base_total = no_key.queuing_us + no_key.network_us;
        let with_total = with_key.queuing_us + with_key.network_us;
        let overhead = with_total - base_total;
        // Marginal = a few µs absolute at moderate load, or a small
        // relative slice once the fabric is near saturation (where seed
        // noise and queue amplification dwarf any fixed threshold). Quick
        // runs amortize the per-pair key-exchange RTT over far fewer
        // messages, so they get a wider relative band.
        let rel = if quick { 0.20 } else { 0.12 };
        assert!(
            overhead < 5.0f64.max(base_total * rel),
            "overhead at {load} must be marginal, got {overhead:.2} us on base {base_total:.2}"
        );
    }
    println!("OK: Figure 6 shape holds (With Key ~ No Key at every load).");

    let doc = bench_doc(
        "fig6",
        seed,
        Json::obj([
            ("all_modes", (modes.len() > 2).to_json()),
            ("seeds_per_point", seeds.to_json()),
            ("quick", quick.to_json()),
        ]),
        rows.iter().map(Fig6Row::to_json).collect(),
    );
    let path = write_bench_json("fig6", &doc).expect("write BENCH_fig6.json");
    println!("wrote {}", path.display());
}
