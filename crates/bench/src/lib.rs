//! Shared helpers for the experiment binaries: CPU-clock estimation,
//! plain-text table rendering, the shared command line, the timing
//! sampler with its one summary per cell, and machine-readable result
//! emission (`BENCH_*.json`).
//!
//! Four binaries time code: `table4` and `ablations` pass one arm to
//! [`sample_arms`]; `mac_table4` and `sim_engine` interleave the arms of
//! each comparison and judge speed-ups on [`paired_ratio`]. Every timed
//! cell is reported as a [`Summary`] of its raw samples, and every rate
//! a binary prints or writes comes from the summary's median.

use ib_runtime::{Json, Seed, ToJson};
use std::fmt;
use std::time::{Duration, Instant};

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

/// Sampling parameters: warm-up time, the measurement time one arm's
/// samples share, and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    warmup: Duration,
    measurement: Duration,
    samples: u32,
}

impl BenchConfig {
    /// The sampling every timing binary uses: the short one under
    /// `--smoke`, the full one otherwise.
    pub fn new(smoke: bool) -> BenchConfig {
        let (warmup_ms, measurement_ms, samples) = if smoke { (20, 80, 5) } else { (200, 300, 15) };
        BenchConfig {
            warmup: Duration::from_millis(warmup_ms),
            measurement: Duration::from_millis(measurement_ms),
            samples,
        }
    }

    /// The `config` object of [`bench_doc`]: the sampling parameters,
    /// then `extra`'s entries.
    pub fn to_json<'a>(&self, extra: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let sampling = [
            ("warmup_ms", (self.warmup.as_millis() as u64).to_json()),
            (
                "measurement_ms",
                (self.measurement.as_millis() as u64).to_json(),
            ),
            ("samples", self.samples.to_json()),
        ];
        Json::obj(sampling.into_iter().chain(extra))
    }
}

/// Time `arms` interleaved sample by sample under one shared batch size,
/// so a clock-frequency dip lands on every arm of the adjacent sample
/// tuple, not on whichever arm ran last. Warm-up doubles the batch until
/// the slowest arm's batch fills a tenth of its share of a sample window,
/// and lasts at least `config.warmup`. Returns one vector of
/// per-iteration nanoseconds per arm, `config.samples` long.
pub fn sample_arms<A: FnMut()>(config: &BenchConfig, arms: &mut [A]) -> Vec<Vec<f64>> {
    let sample_window = config.measurement / (config.samples * arms.len() as u32);
    let mut batch: u64 = 1;
    let warmup_end = Instant::now() + config.warmup;
    loop {
        let mut slowest = Duration::ZERO;
        for run in arms.iter_mut() {
            let start = Instant::now();
            for _ in 0..batch {
                run();
            }
            slowest = slowest.max(start.elapsed());
        }
        if slowest * 10 >= sample_window && Instant::now() >= warmup_end {
            break;
        }
        if slowest * 10 < sample_window {
            batch = batch.saturating_mul(2);
        }
    }
    let mut sample_ns = vec![Vec::with_capacity(config.samples as usize); arms.len()];
    for _ in 0..config.samples {
        for (a, run) in arms.iter_mut().enumerate() {
            let start = Instant::now();
            for _ in 0..batch {
                run();
            }
            sample_ns[a].push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
    }
    sample_ns
}

/// Per-sample time ratios `num[i] / den[i]` of two interleaved arms, as
/// `(median, best)`. Both arms of a sample tuple run back to back, so a
/// clock dip hits numerator and denominator almost equally and cancels,
/// unlike cross-arm means, which drift apart when the dip moves mid-cell.
pub fn paired_ratio(num: &[f64], den: &[f64]) -> (f64, f64) {
    let mut ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[ratios.len() / 2], ratios[0])
}

/// One timed cell: median, quartiles, fastest sample and count of its
/// raw per-iteration times, and the work one iteration does. Quartiles
/// follow the benchmark package's rule (Python's
/// `statistics.quantiles(n=4)`, exclusive method), so a spread read here
/// and one read there mean the same.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Cell id, such as `table4/CRC`.
    pub id: String,
    pub median_ns: f64,
    pub q1_ns: f64,
    pub q3_ns: f64,
    pub min_ns: f64,
    pub samples: usize,
    /// Bytes one iteration processes; the scheduler and engine cells
    /// count operations or events instead.
    pub bytes_per_iter: u64,
}

impl Summary {
    /// Summarise `sample_ns` (per-iteration nanoseconds, at least one).
    pub fn new(id: impl Into<String>, sample_ns: &[f64], bytes_per_iter: u64) -> Summary {
        let mut v = sample_ns.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        // Cut point `i` of `statistics.quantiles(v, n=4)`.
        let cut = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            id: id.into(),
            median_ns: (v[(n - 1) / 2] + v[n / 2]) / 2.0,
            q1_ns: cut(1),
            q3_ns: cut(3),
            min_ns: v[0],
            samples: n,
            bytes_per_iter,
        }
    }

    /// Bytes (or operations, or events) per second at the median time.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_iter as f64 / (self.median_ns / 1e9)
    }

    /// One `points` row of the standard document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", self.id.to_json()),
            ("median_ns", self.median_ns.to_json()),
            ("q1_ns", self.q1_ns.to_json()),
            ("q3_ns", self.q3_ns.to_json()),
            ("min_ns", self.min_ns.to_json()),
            ("samples", (self.samples as u64).to_json()),
            ("bytes_per_iter", self.bytes_per_iter.to_json()),
            ("bytes_per_sec", self.bytes_per_sec().to_json()),
        ])
    }
}

/// The one print line: median (Q1–Q3), fastest sample, count, and the
/// rate at the median in MB/s.
impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<40} {:>11.1} ns ({:.1}–{:.1}) min {:.1} n={} {:>10.1} MB/s",
            self.id,
            self.median_ns,
            self.q1_ns,
            self.q3_ns,
            self.min_ns,
            self.samples,
            self.bytes_per_sec() / 1e6
        )
    }
}

/// The workspace's standard result document: experiment name, the seed
/// it reproduces from, the configuration, and the per-point rows:
/// everything a plotting script (or a re-run) needs.
pub fn bench_doc(experiment: &str, seed: Seed, config: Json, points: Vec<Json>) -> Json {
    Json::obj([
        ("experiment", experiment.to_json()),
        ("seed", seed.0.to_json()),
        ("config", config),
        ("points", Json::arr(points)),
    ])
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

    fn tiny() -> BenchConfig {
        BenchConfig {
            warmup: Duration::from_millis(1),
            measurement: Duration::from_millis(10),
            samples: 3,
        }
    }

    #[test]
    fn arms_interleave_and_pair() {
        let (mut fast, mut slow) = (0u32, 0u32);
        let mut arms: [Box<dyn FnMut()>; 2] = [
            Box::new(|| fast += 1),
            Box::new(|| {
                slow += 1;
                std::thread::sleep(Duration::from_micros(50));
            }),
        ];
        let samples = sample_arms(&tiny(), &mut arms);
        drop(arms);
        assert_eq!(samples.len(), 2);
        assert!(samples.iter().all(|s| s.len() == tiny().samples as usize));
        assert_eq!(fast, slow, "one shared batch size");
        let (median, best) = paired_ratio(&samples[0], &samples[1]);
        assert!(best <= median && median < 1.0, "{best} <= {median} < 1");
        assert_eq!(paired_ratio(&[2.0, 9.0, 3.0], &[1.0; 3]), (3.0, 2.0));
    }

    #[test]
    fn summary_of_an_odd_sample_count() {
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let s = Summary::new("g/odd", &[50.0, 10.0, 40.0, 20.0, 30.0], 100);
        assert_eq!(s.id, "g/odd");
        assert_eq!((s.q1_ns, s.median_ns, s.q3_ns), (15.0, 30.0, 45.0));
        assert_eq!((s.min_ns, s.samples), (10.0, 5));
        // 100 bytes every 30 ns, at the median.
        assert!((s.bytes_per_sec() / (100.0 / 30e-9) - 1.0).abs() < 1e-12);
        let row = s.to_json();
        assert_eq!(row.get("median_ns").unwrap().as_f64(), Some(30.0));
        assert_eq!(row.get("samples").unwrap().as_u64(), Some(5));
        assert_eq!(row.get("bytes_per_iter").unwrap().as_u64(), Some(100));
        assert_eq!(
            s.to_string(),
            format!(
                "{:<40} {:>11} ns (15.0–45.0) min 10.0 n=5 {:>10} MB/s",
                "g/odd", "30.0", "3333.3"
            )
        );
    }

    #[test]
    fn summary_of_an_even_sample_count() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = Summary::new("g/even", &v, 11);
        assert_eq!((s.q1_ns, s.median_ns, s.q3_ns), (2.75, 5.5, 8.25));
        assert_eq!((s.min_ns, s.samples), (1.0, 10));
        assert!((s.bytes_per_sec() / 2e9 - 1.0).abs() < 1e-12);
        // Two samples: the middle pair's mean; the exclusive quartiles
        // extrapolate past the samples, as Python's do.
        let s = Summary::new("g/two", &[2.0, 1.0], 4);
        assert_eq!((s.q1_ns, s.median_ns, s.q3_ns), (0.75, 1.5, 2.25));
        let s = Summary::new("g/one", &[9.0], 1);
        assert_eq!(
            (s.q1_ns, s.median_ns, s.q3_ns, s.min_ns),
            (9.0, 9.0, 9.0, 9.0)
        );
    }
}
