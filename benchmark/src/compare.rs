//! `ib-benchmark compare A.json B.json`: one row per (workload,
//! end-to-end metric), judged by the catalogue's bounds.
//!
//! A is the base of every ratio. Host metrics compare medians; where the
//! run-to-run spread is wider than the bound the row is `unresolved`
//! rather than `ok`, unless every B sample lies on one side of every A
//! sample. Simulated (`exact`) metrics must be identical.

use ib_runtime::Json;

use crate::catalogue::{Better, EndToEnd, Kind, END_TO_END};
use crate::stats::{summarize, Summary};

/// Verdict on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The spread is wider than the bound: the runs cannot tell.
    Unresolved,
    /// An exact metric differs: simulated behaviour changed.
    Changed,
    /// The metric is in one result only.
    Missing,
}

impl Status {
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
            Status::Changed => "changed",
            Status::Missing => "missing",
        }
    }

    /// Rows that make `compare` exit non-zero.
    pub fn fails(self) -> bool {
        matches!(self, Status::Regressed | Status::Changed | Status::Missing)
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction (negative when `b` is better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

/// Judge a host metric from both sides' samples.
pub fn judge_host(
    better: Better,
    bound: f64,
    floor: f64,
    a: &[f64],
    b: &[f64],
) -> (Status, Summary, Summary) {
    let (sa, sb) = (summarize(a), summarize(b));
    let worse = worsening(better, sa.median, sb.median);
    let is_worse = |x: f64, than: f64| match better {
        Better::Higher => x < than,
        Better::Lower => x > than,
    };
    let every_b =
        |pred: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| pred(y, x)));
    let status = if (sb.median - sa.median).abs() <= floor {
        Status::Ok
    } else if sa.spread().max(sb.spread()) > bound {
        if worse > bound && every_b(&|y, x| is_worse(y, x)) {
            Status::Regressed
        } else if every_b(&|y, x| !is_worse(y, x)) {
            Status::Ok
        } else {
            Status::Unresolved
        }
    } else if worse > bound {
        Status::Regressed
    } else {
        Status::Ok
    };
    (status, sa, sb)
}

/// Judge an exact metric. `failed_share` may fall but not rise; every
/// other exact metric must be identical.
pub fn judge_exact(m: &EndToEnd, a: f64, b: f64) -> Status {
    if a.to_bits() == b.to_bits() {
        Status::Ok
    } else if m.name == "failed_share" {
        if b > a {
            Status::Regressed
        } else {
            Status::Ok
        }
    } else {
        Status::Changed
    }
}

fn samples(metric: &Json) -> Option<Vec<f64>> {
    metric
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn workload_metrics<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .get("metrics")
}

/// One table line; the quartile columns hold `(exact)` for simulated
/// metrics.
fn print_row(cells: [&str; 8]) {
    println!(
        "{:<18} {:<17} {:>13} {:>24} {:>13} {:>24} {:>22}  {}",
        cells[0], cells[1], cells[2], cells[3], cells[4], cells[5], cells[6], cells[7]
    );
}

/// `b / a` with its base, as the table prints it.
fn ratio(a: f64, b: f64) -> String {
    if a == 0.0 {
        "-".to_string()
    } else {
        format!("{:.4} of {a:.5}", b / a)
    }
}

/// Judge one metric of one workload and print its row. `None` when a
/// side has the metric in a form that cannot be read.
fn compare_metric(
    workload: &str,
    m: &EndToEnd,
    a: Option<&Json>,
    b: Option<&Json>,
) -> Option<Status> {
    let (Some(a), Some(b)) = (a, b) else {
        return Some(Status::Missing);
    };
    match m.kind {
        Kind::Host { bound, floor } => {
            let (xa, xb) = (samples(a)?, samples(b)?);
            if xa.is_empty() || xb.is_empty() {
                return Some(Status::Missing);
            }
            let (status, sa, sb) = judge_host(m.better, bound, floor, &xa, &xb);
            print_row([
                workload,
                m.name,
                &format!("{:.5}", sa.median),
                &format!("[{:.5}, {:.5}]", sa.q1, sa.q3),
                &format!("{:.5}", sb.median),
                &format!("[{:.5}, {:.5}]", sb.q1, sb.q3),
                &ratio(sa.median, sb.median),
                status.label(),
            ]);
            Some(status)
        }
        Kind::Exact => {
            let value = |e: &Json| e.get("value").and_then(Json::as_f64);
            let (va, vb) = (value(a)?, value(b)?);
            let status = judge_exact(m, va, vb);
            print_row([
                workload,
                m.name,
                &format!("{va:.5}"),
                "(exact)",
                &format!("{vb:.5}"),
                "(exact)",
                &ratio(va, vb),
                status.label(),
            ]);
            Some(status)
        }
    }
}

/// Compare two result documents; prints the table and returns whether
/// any row fails.
pub fn compare(a: &Json, b: &Json) -> bool {
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_arr)
        .map(|ws| {
            ws.iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str))
                .collect()
        })
        .unwrap_or_default();
    print_row([
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "B/A (base A)",
        "status",
    ]);
    let mut any_fail = names.is_empty();
    for workload in names {
        let (ma, mb) = (workload_metrics(a, workload), workload_metrics(b, workload));
        for m in &END_TO_END {
            let (ea, eb) = (
                ma.and_then(|x| x.get(m.name)),
                mb.and_then(|x| x.get(m.name)),
            );
            if ea.is_none() && eb.is_none() {
                continue; // this workload has no such metric
            }
            let status = compare_metric(workload, m, ea, eb).unwrap_or(Status::Missing);
            if status == Status::Missing {
                print_row([
                    workload,
                    m.name,
                    "",
                    "",
                    "",
                    "",
                    "in one result only",
                    "missing",
                ]);
            }
            any_fail |= status.fails();
        }
    }
    any_fail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    const TIGHT_A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn host_rows_follow_the_bound_and_the_spread() {
        let judge = |b: &[f64]| judge_host(Better::Higher, 0.05, 0.0, &TIGHT_A, b).0;
        assert_eq!(judge(&[98.0, 99.0, 97.0, 98.5, 97.5]), Status::Ok);
        assert_eq!(judge(&[90.0, 91.0, 89.0, 90.5, 89.5]), Status::Regressed);
        assert_eq!(judge(&[120.0, 121.0, 119.0, 120.0, 118.0]), Status::Ok);
        // Wide spread straddling A: cannot tell.
        assert_eq!(judge(&[70.0, 130.0, 95.0, 85.0, 120.0]), Status::Unresolved);
        // Wide spread, but every run is worse than every run of A.
        assert_eq!(judge(&[60.0, 90.0, 70.0, 85.0, 65.0]), Status::Regressed);
        // Wide spread, every run better.
        assert_eq!(judge(&[110.0, 190.0, 150.0, 120.0, 170.0]), Status::Ok);
    }

    #[test]
    fn lower_is_better_metrics_flip_direction_and_honour_the_floor() {
        let a = [1.00, 1.01, 0.99];
        let worse = [1.30, 1.31, 1.29];
        assert_eq!(
            judge_host(Better::Lower, 0.10, 0.0, &a, &worse).0,
            Status::Regressed
        );
        assert_eq!(
            judge_host(Better::Lower, 0.10, 0.0, &worse, &a).0,
            Status::Ok
        );
        // A 30 % change of a 10 ms set-up is below the 50 ms floor.
        let (small_a, small_b) = ([0.010, 0.011, 0.010], [0.013, 0.014, 0.013]);
        assert_eq!(
            judge_host(Better::Lower, 0.10, 0.05, &small_a, &small_b).0,
            Status::Ok
        );
    }

    #[test]
    fn exact_rows_must_be_identical_except_a_falling_failed_share() {
        let sim = end_to_end("sim_fct_p99_us").unwrap();
        assert_eq!(judge_exact(sim, 659.5568, 659.5568), Status::Ok);
        assert_eq!(judge_exact(sim, 659.5568, 659.5569), Status::Changed);
        let failed = end_to_end("failed_share").unwrap();
        assert_eq!(judge_exact(failed, 0.0, 0.0), Status::Ok);
        assert_eq!(judge_exact(failed, 0.0, 0.001), Status::Regressed);
        assert_eq!(judge_exact(failed, 0.01, 0.0), Status::Ok);
        assert!(Status::Changed.fails() && !Status::Unresolved.fails());
    }
}
