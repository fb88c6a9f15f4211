//! Table 2 — partition enforcement overhead.
//!
//! Evaluates the paper's closed-form memory and lookup-cost model over a
//! parameter grid, then cross-checks the lookup column against the
//! simulator's actual per-packet lookup-cycle counters.
//!
//! Usage: `table2 [--smoke] [--seed S]` (the seed is not used).

use bench::{parse_args, render_table};
use ib_mgmt::enforcement::EnforcementKind;
use ib_security::analysis::enforcement::EnforcementModel;
use ib_security::experiments::{fig5_config, run_many};
use ib_sim::time::{MS, US};

fn main() {
    let (quick, _) = parse_args(std::env::args());

    // ---- symbolic table, as printed in the paper ----
    println!("Table 2. Partition enforcement overhead (symbolic)");
    let sym = vec![
        vec![
            "Memory for one switch".into(),
            "n x p".into(),
            "p".into(),
            "p + Pr(n) x MIN(Avg(p),p)".into(),
        ],
        vec![
            "Memory for all switches".into(),
            "n x p x s".into(),
            "p x n".into(),
            "p x n + Pr(n) x MIN(Avg(p),p) x n".into(),
        ],
        vec![
            "Table lookups/packet".into(),
            "f(n x p)".into(),
            "f(p)".into(),
            "Pr(n) x f(MIN(Avg(p),p))".into(),
        ],
    ];
    println!("{}", render_table(&["quantity", "DPT", "IF", "SIF"], &sym));

    // ---- numeric instantiation over a grid ----
    println!("Numeric instantiation (entries / expected probes per packet):");
    let mut rows = Vec::new();
    for p in [1usize, 4, 16, 64] {
        let model = EnforcementModel::paper_testbed(p);
        for row in model.table2() {
            rows.push(vec![
                format!("p={p}"),
                row.kind.label().to_string(),
                format!("{:.2}", row.memory_per_switch),
                format!("{:.2}", row.memory_total),
                format!("{:.4}", row.lookups_per_packet),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "partitions/node",
                "method",
                "mem/switch",
                "mem total",
                "lookups/pkt"
            ],
            &rows
        )
    );

    // ---- simulator cross-check ----
    // Run the Figure 5 scenario (4 attackers, 1 % attack probability) per
    // method and compare measured lookup cycles per delivered packet with
    // the model's prediction ordering: DPT >> IF > SIF ~ 0.
    println!("Simulator cross-check (lookup cycles per generated packet):");
    let kinds = [
        EnforcementKind::Dpt,
        EnforcementKind::If,
        EnforcementKind::Sif,
    ];
    let configs = kinds
        .iter()
        .map(|&k| {
            let mut cfg = fig5_config(0.5, k);
            if quick {
                cfg.duration = 2 * MS;
                cfg.warmup = 200 * US;
            }
            cfg
        })
        .collect();
    let reports = run_many(configs);
    let mut sim_rows = Vec::new();
    let mut per_packet = Vec::new();
    for (kind, r) in kinds.iter().zip(reports.iter()) {
        let per = r.lookup_cycles as f64 / r.generated.max(1) as f64;
        per_packet.push(per);
        sim_rows.push(vec![
            kind.label().to_string(),
            r.lookup_cycles.to_string(),
            r.generated.to_string(),
            format!("{per:.4}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["method", "lookup cycles", "packets", "cycles/pkt"],
            &sim_rows
        )
    );
    assert!(
        per_packet[0] > per_packet[1],
        "DPT per-packet lookups must exceed IF (per-hop vs per-ingress)"
    );
    assert!(
        per_packet[2] < per_packet[1] * 0.5,
        "SIF must be far below IF when attacks are rare"
    );
    println!("OK: measured ordering DPT > IF >> SIF matches Table 2.");
}
