//! Micro-benchmark harness for the timing binaries. Every one of them
//! samples through [`sample_arms`] and takes its sampling from
//! [`BenchConfig::new`]:
//!
//! * `table4` and `ablations` time one closure at a time with
//!   [`Group::bench`], the sampler's one-arm case;
//! * `mac_table4` and `sim_engine` interleave the arms of each comparison
//!   with [`sample_arms`], hand the samples to [`Group::record`], and
//!   judge speed-ups on [`paired_ratio`];
//! * those two write their measurements, and every figure binary its
//!   points, as the standard `BENCH_*.json` document ([`bench_doc`]).
//!
//! Replaces the criterion dependency with the subset the workspace
//! actually uses: named groups, per-benchmark warmup, adaptive
//! batch sizing, summary statistics over timed samples, and optional
//! bytes/s throughput reporting. Results print as aligned plain text.
//!
//! Statistics are criterion-grade rather than raw: each benchmark's
//! samples pass through Tukey-fence outlier rejection (scheduler
//! preemptions and frequency-transition spikes land far outside the
//! inter-quartile fences) before the mean/stddev, and the mean carries a
//! 95% percentile-bootstrap confidence interval computed with the
//! workspace's deterministic [`Rng`] so reruns reproduce it bit-exactly.

use std::time::{Duration, Instant};

use crate::json::{Json, ToJson};
use crate::rng::{Rng, Seed};

/// Sampling parameters: warm-up time, the measurement time one arm's
/// samples share, and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    pub(crate) warmup: Duration,
    pub(crate) measurement: Duration,
    pub(crate) samples: u32,
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

/// One benchmark's measurements. Mean/stddev/CI are computed over the
/// outlier-filtered samples; `min_ns` is over all samples (the fastest
/// observation is never an artifact worth discarding).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Full benchmark id, `group/name`.
    pub id: String,
    /// Mean time per iteration, ns.
    pub mean_ns: f64,
    /// Standard deviation across samples, ns.
    pub(crate) stddev_ns: f64,
    /// Fastest sample, ns.
    pub(crate) min_ns: f64,
    /// Lower edge of the 95% bootstrap confidence interval on the mean, ns.
    pub(crate) ci95_lo_ns: f64,
    /// Upper edge of the 95% bootstrap confidence interval on the mean, ns.
    pub(crate) ci95_hi_ns: f64,
    /// Samples discarded by the Tukey fences.
    pub(crate) outliers_rejected: u32,
    /// Bytes processed per iteration, if declared.
    pub(crate) throughput_bytes: Option<u64>,
}

impl Measurement {
    /// Bytes/second implied by the mean time, if throughput was declared.
    pub fn bytes_per_sec(&self) -> Option<f64> {
        self.throughput_bytes
            .map(|b| b as f64 / (self.mean_ns / 1e9))
    }

    /// JSON object form (one `points` row of the standard document).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id", self.id.to_json()),
            ("mean_ns", self.mean_ns.to_json()),
            ("stddev_ns", self.stddev_ns.to_json()),
            ("min_ns", self.min_ns.to_json()),
            ("ci95_lo_ns", self.ci95_lo_ns.to_json()),
            ("ci95_hi_ns", self.ci95_hi_ns.to_json()),
            ("outliers_rejected", self.outliers_rejected.to_json()),
        ];
        if let Some(bytes) = self.throughput_bytes {
            pairs.push(("bytes_per_iter", bytes.to_json()));
            if let Some(bps) = self.bytes_per_sec() {
                pairs.push(("bytes_per_sec", bps.to_json()));
            }
        }
        Json::obj(pairs)
    }
}

/// Linear-interpolation quantile (R type 7, what criterion and numpy
/// default to) over an ascending-sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Tukey-fence outlier rejection: keep samples inside
/// `[Q1 - 1.5·IQR, Q3 + 1.5·IQR]`. Returns the survivors and the
/// rejection count; if fewer than two samples survive (degenerate
/// spread), the original set is returned untouched.
fn reject_outliers(samples: &[f64]) -> (Vec<f64>, u32) {
    if samples.len() < 4 {
        return (samples.to_vec(), 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q1 = quantile(&sorted, 0.25);
    let q3 = quantile(&sorted, 0.75);
    let iqr = q3 - q1;
    let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
    let kept: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|s| (lo..=hi).contains(s))
        .collect();
    if kept.len() < 2 {
        return (samples.to_vec(), 0);
    }
    let rejected = (samples.len() - kept.len()) as u32;
    (kept, rejected)
}

/// Resamples drawn per bootstrap interval.
const BOOTSTRAP_RESAMPLES: usize = 200;

/// 95% percentile-bootstrap confidence interval on the mean:
/// [`BOOTSTRAP_RESAMPLES`] with-replacement resample means, 2.5th and
/// 97.5th percentiles. Deterministic in the caller's RNG.
fn bootstrap_ci95(samples: &[f64], rng: &mut Rng) -> (f64, f64) {
    if samples.len() < 2 {
        let v = samples.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let mut means = Vec::with_capacity(BOOTSTRAP_RESAMPLES);
    for _ in 0..BOOTSTRAP_RESAMPLES {
        let sum: f64 = (0..samples.len())
            .map(|_| samples[rng.gen_range(0..samples.len())])
            .sum();
        means.push(sum / samples.len() as f64);
    }
    means.sort_by(f64::total_cmp);
    (quantile(&means, 0.025), quantile(&means, 0.975))
}

/// The top-level harness a bench target's `main` drives.
pub struct Harness {
    config: BenchConfig,
    results: Vec<Measurement>,
}

impl Harness {
    /// Build with explicit sampling (the bench binaries parse their own
    /// CLI).
    pub fn new(config: BenchConfig) -> Self {
        Harness {
            config,
            results: Vec::new(),
        }
    }

    /// Start a named group of related benchmarks.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
            throughput_bytes: None,
        }
    }

    /// All measurements taken so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// The `config` object of [`bench_doc`]: the sampling parameters,
    /// then `extra`'s entries.
    pub fn config_json<'a>(&self, extra: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let sampling = [
            (
                "warmup_ms",
                (self.config.warmup.as_millis() as u64).to_json(),
            ),
            (
                "measurement_ms",
                (self.config.measurement.as_millis() as u64).to_json(),
            ),
            ("samples", self.config.samples.to_json()),
        ];
        Json::obj(sampling.into_iter().chain(extra))
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct Group<'h> {
    harness: &'h mut Harness,
    name: String,
    throughput_bytes: Option<u64>,
}

impl Group<'_> {
    /// Declare how many bytes one iteration processes, enabling the
    /// throughput column.
    pub fn throughput_bytes(&mut self, bytes: u64) -> &mut Self {
        self.throughput_bytes = Some(bytes);
        self
    }

    /// Measure `f` ([`sample_arms`] with one arm), printing one result
    /// line.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) -> &mut Self {
        let cfg = self.harness.config;
        let sample_ns = sample_arms(
            &cfg,
            &mut [|| {
                std::hint::black_box(f());
            }],
        );
        self.record(id, &sample_ns[0])
    }

    /// Ingest per-iteration samples (ns each) through the statistics
    /// pipeline [`Group::bench`] uses: one arm of a [`sample_arms`]
    /// comparison.
    pub fn record(&mut self, id: &str, sample_ns: &[f64]) -> &mut Self {
        let full_id = format!("{}/{}", self.name, id);
        let m = measurement_from_samples(full_id, sample_ns, self.throughput_bytes);
        print_measurement(&m);
        self.harness.results.push(m);
        self
    }

    /// [`Group::record`] with an explicit per-iteration byte count. Batch
    /// cells (one iteration processes several messages) override the
    /// group-level [`Group::throughput_bytes`] here so their
    /// `bytes_per_iter` / `bytes_per_sec` report the true total and stay
    /// comparable with single-message cells.
    pub fn record_with_bytes(
        &mut self,
        id: &str,
        sample_ns: &[f64],
        bytes_per_iter: u64,
    ) -> &mut Self {
        let full_id = format!("{}/{}", self.name, id);
        let m = measurement_from_samples(full_id, sample_ns, Some(bytes_per_iter));
        print_measurement(&m);
        self.harness.results.push(m);
        self
    }
}

/// Summary statistics over raw per-iteration samples: Tukey-fence outlier
/// rejection, mean/stddev over survivors, deterministic 95% bootstrap CI.
fn measurement_from_samples(
    id: String,
    sample_ns: &[f64],
    throughput_bytes: Option<u64>,
) -> Measurement {
    let (kept, outliers_rejected) = reject_outliers(sample_ns);
    let n = kept.len() as f64;
    let mean = kept.iter().sum::<f64>() / n;
    let var = kept.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    // Fixed seed: the interval is a property of the samples, and two
    // reports over the same samples must agree.
    let mut rng = Rng::from_seed(Seed(0xB007_57A9));
    let (ci95_lo_ns, ci95_hi_ns) = bootstrap_ci95(&kept, &mut rng);
    Measurement {
        id,
        mean_ns: mean,
        stddev_ns: var.sqrt(),
        min_ns: sample_ns.iter().cloned().fold(f64::INFINITY, f64::min),
        ci95_lo_ns,
        ci95_hi_ns,
        outliers_rejected,
        throughput_bytes,
    }
}

fn print_measurement(m: &Measurement) {
    let time = format_ns(m.mean_ns);
    let spread = format_ns(m.stddev_ns);
    match m.bytes_per_sec() {
        Some(bps) => println!(
            "{:<44} {:>12}/iter (± {:>9})  {:>10}/s",
            m.id,
            time,
            spread,
            format_bytes(bps)
        ),
        None => println!("{:<44} {:>12}/iter (± {:>9})", m.id, time, spread),
    }
}

/// Human-readable nanosecond quantity.
fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Human-readable byte quantity.
fn format_bytes(b: f64) -> String {
    if b < 1e3 {
        format!("{b:.0} B")
    } else if b < 1e6 {
        format!("{:.1} KB", b / 1e3)
    } else if b < 1e9 {
        format!("{:.1} MB", b / 1e6)
    } else {
        format!("{:.2} GB", b / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            warmup: Duration::from_millis(1),
            measurement: Duration::from_millis(10),
            samples: 3,
        }
    }

    #[test]
    fn measures_something_sane() {
        let mut h = Harness::new(tiny());
        let data = vec![1u64; 1024];
        h.group("sum")
            .throughput_bytes(8 * 1024)
            .bench("u64x1024", || data.iter().sum::<u64>());
        assert_eq!(h.results().len(), 1);
        let m = &h.results()[0];
        assert_eq!(m.id, "sum/u64x1024");
        assert!(m.mean_ns > 0.0);
        assert!(m.min_ns <= m.mean_ns);
        let bps = m.bytes_per_sec().expect("throughput declared");
        // Summing 8 KiB must beat 8 MB/s on anything that can run tests.
        assert!(bps > 8e6, "{bps} B/s");
    }

    #[test]
    fn record_runs_the_same_statistics_pipeline_as_bench() {
        let mut h = Harness::new(tiny());
        let samples = [10.0, 11.0, 12.0, 13.0, 500.0];
        h.group("g").throughput_bytes(100).record("r", &samples);
        let m = &h.results()[0];
        assert_eq!(m.id, "g/r");
        assert_eq!(m.outliers_rejected, 1, "the 500 ns spike is fenced out");
        assert_eq!(m.min_ns, 10.0);
        assert!((m.mean_ns - 11.5).abs() < 1e-9, "mean over survivors");
        assert_eq!(m.throughput_bytes, Some(100));
    }

    #[test]
    fn record_with_bytes_overrides_the_group_throughput() {
        let mut h = Harness::new(tiny());
        h.group("g")
            .throughput_bytes(100)
            .record("single", &[10.0, 11.0, 12.0])
            .record_with_bytes("batch4", &[40.0, 41.0, 42.0], 400);
        assert_eq!(h.results()[0].throughput_bytes, Some(100));
        assert_eq!(h.results()[1].throughput_bytes, Some(400));
        // A batch cell with 4× the bytes at 4× the time reports the same
        // bytes/s — the comparability the override exists for.
        let a = h.results()[0].bytes_per_sec().unwrap();
        let b = h.results()[1].bytes_per_sec().unwrap();
        assert!((a / b - 1.0).abs() < 0.15, "{a} vs {b}");
    }

    #[test]
    fn quantiles_interpolate_linearly() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 1.0), 4.0);
        assert_eq!(quantile(&sorted, 0.5), 2.5);
        assert_eq!(quantile(&sorted, 0.25), 1.75);
    }

    #[test]
    fn tukey_fences_reject_the_spike_only() {
        let mut samples = vec![100.0; 19];
        samples.push(10_000.0); // scheduler preemption
        let (kept, rejected) = reject_outliers(&samples);
        assert_eq!(rejected, 1);
        assert_eq!(kept.len(), 19);
        assert!(kept.iter().all(|&s| s == 100.0));

        // Tight clusters lose nothing.
        let clean: Vec<f64> = (0..20).map(|i| 100.0 + i as f64).collect();
        let (kept, rejected) = reject_outliers(&clean);
        assert_eq!((kept.len(), rejected), (20, 0));
    }

    #[test]
    fn bootstrap_ci_brackets_the_mean_and_is_deterministic() {
        let samples: Vec<f64> = (0..20).map(|i| 90.0 + i as f64).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut rng = Rng::from_seed(Seed(7));
        let (lo, hi) = bootstrap_ci95(&samples, &mut rng);
        assert!(lo <= mean && mean <= hi, "{lo} <= {mean} <= {hi}");
        assert!(lo >= 90.0 && hi <= 109.0, "inside the sample range");
        let mut rng2 = Rng::from_seed(Seed(7));
        assert_eq!(bootstrap_ci95(&samples, &mut rng2), (lo, hi));
    }

    #[test]
    fn measurement_stats_are_consistent() {
        let mut h = Harness::new(tiny());
        h.group("g").bench("work", || std::hint::black_box(1 + 1));
        let m = &h.results()[0];
        assert!(m.ci95_lo_ns <= m.mean_ns && m.mean_ns <= m.ci95_hi_ns);
        assert!(m.min_ns <= m.mean_ns);
        assert!(m.outliers_rejected < tiny().samples);
    }

    #[test]
    fn json_document_has_the_standard_shape() {
        let mut h = Harness::new(tiny());
        h.group("g")
            .throughput_bytes(64)
            .bench("a", || 1)
            .bench("b", || 2);
        let points = h.results().iter().map(Measurement::to_json).collect();
        let doc = bench_doc(
            "unit",
            Seed(9),
            h.config_json([("extra", 5u64.to_json())]),
            points,
        );
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("unit"));
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(9));
        let cfg = doc.get("config").unwrap();
        assert_eq!(cfg.get("samples").unwrap().as_u64(), Some(3));
        assert_eq!(cfg.get("extra").unwrap().as_u64(), Some(5));
        let points = doc.get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].get("id").unwrap().as_str(), Some("g/a"));
        assert_eq!(points[0].get("bytes_per_iter").unwrap().as_u64(), Some(64));
        assert!(points[0].get("ci95_lo_ns").is_some());
        // The document must survive the jsonck round-trip rule.
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc, "writer/parser agree");
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
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
    fn formatting() {
        assert_eq!(format_ns(12.34), "12.3 ns");
        assert_eq!(format_ns(12_340.0), "12.34 µs");
        assert_eq!(format_ns(12_340_000.0), "12.34 ms");
        assert_eq!(format_bytes(512.0), "512 B");
        assert_eq!(format_bytes(2.5e9), "2.50 GB");
    }
}
