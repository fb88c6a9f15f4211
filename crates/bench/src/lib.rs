//! Shared helpers for the experiment binaries: CPU-clock estimation,
//! plain-text table rendering, argument and seed plumbing, and
//! machine-readable result emission (`BENCH_*.json`).

use ib_runtime::{Json, Seed};
use std::time::Instant;

/// Estimate the CPU clock in Hz by timing a dependent-add spin loop
/// (1 add/cycle on every 64-bit core this runs on). Good to a few percent,
/// which is all the cycles/byte normalization needs.
pub fn estimate_cpu_hz() -> f64 {
    let iters: u64 = 200_000_000;
    let start = Instant::now();
    let mut acc: u64 = 0;
    for i in 0..iters {
        // A dependent chain the compiler cannot vectorize away.
        acc = acc.wrapping_mul(1).wrapping_add(i ^ acc.rotate_left(1));
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    // The loop body is ~3 dependent ops; calibrate empirically as 1 iter ≈
    // 3 cycles. This is a rough but stable estimate.
    iters as f64 * 3.0 / elapsed
}

/// Render rows of (label, values) as an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$} | ", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&"-".repeat(w + 2));
        sep.push('|');
    }
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Write an experiment's result document to `BENCH_<name>.json` in the
/// current directory (deterministic, insertion-ordered output — two
/// same-seed runs produce byte-identical files). Returns the path.
pub fn write_bench_json(name: &str, doc: &Json) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::PathBuf::from(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

/// Parse `--flag value` style arguments; returns the value following the
/// flag, if present. A flag given as the last argument has no value to
/// take: that is a usage error, not a request for the default.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(value) => Some(value.clone()),
        None => panic!("{flag} needs a value"),
    }
}

/// Whether the short-run flag was given. Every binary takes both
/// spellings, `--smoke` and `--quick`.
pub fn smoke_arg(args: &[String]) -> bool {
    args.iter().any(|a| a == "--smoke" || a == "--quick")
}

/// Parse a `--seed <u64>` argument (decimal or `0x`-prefixed hex). Falls
/// back to the workspace's fixed default seed, so every experiment binary
/// is reproducible with no arguments and re-runnable from the seed it
/// prints in its header.
pub fn seed_arg(args: &[String]) -> Seed {
    match arg_value(args, "--seed") {
        Some(v) => {
            let v = v.trim();
            let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16).ok()
            } else {
                v.parse().ok()
            };
            Seed(parsed.unwrap_or_else(|| panic!("--seed {v:?} is not a u64")))
        }
        None => ib_sim::config::SimConfig::default().seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let out = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        assert!(out.contains("| name"));
        assert!(out.contains("| long-name | 2"));
        assert_eq!(out.lines().count(), 4);
    }

    fn to_args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn arg_value_parses() {
        let args = to_args(&["prog", "--quick", "--load", "0.5"]);
        assert_eq!(arg_value(&args, "--load"), Some("0.5".into()));
        assert_eq!(arg_value(&args, "--missing"), None);
    }

    #[test]
    #[should_panic(expected = "--flows needs a value")]
    fn arg_value_rejects_a_flag_with_no_value() {
        arg_value(&to_args(&["prog", "--smoke", "--flows"]), "--flows");
    }

    #[test]
    fn smoke_arg_takes_both_spellings() {
        assert!(smoke_arg(&to_args(&["prog", "--smoke"])));
        assert!(smoke_arg(&to_args(&["prog", "--seed", "7", "--quick"])));
        assert!(!smoke_arg(&to_args(&["prog", "--seed", "7"])));
    }

    #[test]
    fn seed_arg_parses_dec_hex_and_defaults() {
        assert_eq!(seed_arg(&to_args(&["prog", "--seed", "42"])), Seed(42));
        assert_eq!(
            seed_arg(&to_args(&["prog", "--seed", "0xBEEF"])),
            Seed(0xBEEF)
        );
        assert_eq!(
            seed_arg(&to_args(&["prog"])),
            ib_sim::config::SimConfig::default().seed
        );
    }

    #[test]
    fn bench_doc_round_trips() {
        use ib_runtime::{bench::bench_doc, ToJson};
        let doc = bench_doc(
            "fig_test",
            Seed(0xABCD),
            Json::obj([("knob", 3u64.to_json())]),
            vec![Json::obj([("x", 1u64.to_json())])],
        );
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("experiment").unwrap().as_str(), Some("fig_test"));
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(0xABCD));
        assert_eq!(
            back.get("config").unwrap().get("knob").unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(back.get("points").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(back, doc, "writer/parser agree");
    }
}
