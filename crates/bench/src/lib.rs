//! Shared helpers for the experiment binaries: CPU-clock estimation,
//! plain-text table rendering, the shared command line, and
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

/// The command line every experiment binary takes, program name first:
/// `[--smoke] [--seed <u64|0xHEX>]`. Returns `(smoke, seed)`; the seed
/// falls back to the workspace's fixed default, so every binary is
/// reproducible with no arguments and re-runnable from the seed it prints
/// in its header. Anything else — an unknown flag, a stray positional
/// argument, `--seed` with no value or a bad one — panics with the usage
/// line rather than running the default grid as if asked.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> (bool, Seed) {
    let mut args = args.into_iter();
    let prog = args.next().unwrap_or_default();
    let mut smoke = false;
    let mut seed = ib_sim::config::SimConfig::default().seed;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                let Some(v) = args.next() else {
                    usage(&prog, "--seed needs a value")
                };
                let hex = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X"));
                let parsed = match hex {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => v.parse().ok(),
                };
                seed = Seed(
                    parsed.unwrap_or_else(|| usage(&prog, &format!("--seed {v:?} is not a u64"))),
                );
            }
            _ => usage(&prog, &format!("unexpected argument {arg:?}")),
        }
    }
    (smoke, seed)
}

fn usage(prog: &str, problem: &str) -> ! {
    panic!("{problem}; usage: {prog} [--smoke] [--seed <u64|0xHEX>]")
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
    fn parse_args_takes_smoke_and_seed_in_any_order() {
        let default = ib_sim::config::SimConfig::default().seed;
        assert!(!parse_args(to_args(&["prog"])).0);
        assert_eq!(parse_args(to_args(&["prog", "--smoke"])), (true, default));
        assert_eq!(
            parse_args(to_args(&["prog", "--seed", "7", "--smoke"])),
            (true, Seed(7))
        );
    }

    #[test]
    fn seed_arg_parses_dec_hex_and_defaults() {
        let seed = |v: &str| parse_args(to_args(&["prog", "--seed", v])).1;
        assert_eq!(seed("42"), Seed(42));
        assert_eq!(seed("0xBEEF"), Seed(0xBEEF));
        assert_eq!(seed("0XBEEF"), Seed(0xBEEF));
        assert_eq!(
            parse_args(to_args(&["prog"])).1,
            ib_sim::config::SimConfig::default().seed
        );
    }

    #[test]
    #[should_panic(expected = "unexpected argument \"--quick\"; usage: prog [--smoke]")]
    fn parse_args_rejects_the_retired_quick_spelling() {
        parse_args(to_args(&["prog", "--quick"]));
    }

    #[test]
    #[should_panic(expected = "unexpected argument \"--messages\"")]
    fn parse_args_rejects_a_flag_it_does_not_take() {
        parse_args(to_args(&["prog", "--smoke", "--messages", "8"]));
    }

    #[test]
    #[should_panic(expected = "unexpected argument \"8\"")]
    fn parse_args_rejects_a_stray_positional_argument() {
        parse_args(to_args(&["prog", "8"]));
    }

    #[test]
    #[should_panic(expected = "--seed needs a value")]
    fn parse_args_rejects_a_trailing_seed() {
        parse_args(to_args(&["prog", "--smoke", "--seed"]));
    }

    #[test]
    #[should_panic(expected = "--seed \"seven\" is not a u64")]
    fn parse_args_rejects_a_bad_seed() {
        parse_args(to_args(&["prog", "--seed", "seven"]));
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
