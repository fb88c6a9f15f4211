//! Result documents: the per-workload JSON a worker process emits, the
//! one-line form the benchmark contract asks for, and the determinism
//! gate that runs across a worker's repetitions.

use ib_runtime::{Json, ToJson};

use crate::catalogue::{contract_end_to_end, Kind, END_TO_END, PER_LAYER};
use crate::stats::summarize;
use crate::workload::{Repetition, Workload, LINK_GBPS};

/// Hold every repetition to the first: the operation count and every
/// simulated result must repeat bit for bit. A repetition that differs
/// fails all of its operations.
pub fn gate_repetitions(reps: &mut [Repetition]) {
    let Some((first, rest)) = reps.split_first_mut() else {
        return;
    };
    let bits = |r: &Repetition| -> Vec<(&'static str, u64)> {
        r.sim.iter().map(|(n, v)| (*n, v.to_bits())).collect()
    };
    for (k, rep) in rest.iter_mut().enumerate() {
        if rep.attempted != first.attempted || bits(rep) != bits(first) {
            let ops = rep.attempted;
            rep.fail(
                ops,
                format!(
                    "repetition {} differs from the first: {} ops {:?} vs {} ops {:?}",
                    k + 2,
                    rep.attempted,
                    rep.sim,
                    first.attempted,
                    first.sim
                ),
            );
        }
    }
}

/// Everything a worker measured on one workload.
pub struct WorkloadResult {
    pub workload: Workload,
    pub size_divisor: u64,
    pub repetitions: Vec<Repetition>,
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Failures outside any repetition (a malformed trace).
    pub extra_failures: Vec<String>,
}

impl WorkloadResult {
    pub fn attempted(&self) -> u64 {
        self.repetitions.iter().map(|r| r.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        let in_reps: u64 = self.repetitions.iter().map(|r| r.failed).sum();
        (in_reps + self.extra_failures.len() as u64).min(self.attempted())
    }

    pub fn gate_failures(&self) -> Vec<String> {
        self.repetitions
            .iter()
            .flat_map(|r| r.gate_failures.iter().cloned())
            .chain(self.extra_failures.iter().cloned())
            .collect()
    }

    /// Samples of a host-side end-to-end metric, one per repetition
    /// (`peak_rss_mb` has one per process).
    fn host_samples(&self, name: &str) -> Vec<f64> {
        let per_rep = |f: fn(&Repetition) -> f64| self.repetitions.iter().map(f).collect();
        match name {
            "ops_per_s" => per_rep(Repetition::ops_per_s),
            "goodput_gbps" => per_rep(Repetition::goodput_gbps),
            "setup_s" => per_rep(|r| r.setup_s),
            "peak_rss_mb" => vec![self.peak_rss_mb],
            other => unreachable!("{other} is not a host metric"),
        }
    }

    fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// The `metrics` object of the full document: host metrics with their
    /// samples, exact ones with their single value.
    fn metrics_json(&self) -> Json {
        let first = self.repetitions.first();
        let mut out = Vec::new();
        for m in &END_TO_END {
            let mut fields = vec![
                ("unit", m.unit.to_json()),
                ("better", m.better.label().to_json()),
            ];
            match m.kind {
                Kind::Host { bound, .. } => {
                    let samples = self.host_samples(m.name);
                    let s = summarize(&samples);
                    fields.extend([
                        ("kind", "host".to_json()),
                        ("bound", bound.to_json()),
                        ("median", s.median.to_json()),
                        ("q1", s.q1.to_json()),
                        ("q3", s.q3.to_json()),
                        ("n", (s.n as u64).to_json()),
                        ("samples", samples.to_json()),
                    ]);
                }
                Kind::Exact => {
                    let value = if m.name == "failed_share" {
                        Some(self.failed_share())
                    } else {
                        first.and_then(|r| r.sim_value(m.name))
                    };
                    let Some(value) = value else { continue };
                    fields.extend([("kind", "exact".to_json()), ("value", value.to_json())]);
                }
            }
            out.push((m.name, Json::obj(fields)));
        }
        Json::obj(out)
    }

    /// The full per-workload document (`run`, `trace`).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", self.workload.name().to_json()),
            ("operation", self.workload.operation().to_json()),
            ("repetitions", (self.repetitions.len() as u64).to_json()),
            ("size_divisor", self.size_divisor.to_json()),
            ("ops_attempted", self.attempted().to_json()),
            ("ops_failed", self.failed().to_json()),
            ("gate_failures", self.gate_failures().to_json()),
            ("metrics", self.metrics_json()),
        ];
        if !self.layers.is_empty() {
            fields.push((
                "layers",
                Json::obj(self.layers.iter().map(|(n, v)| (*n, v.to_json()))),
            ));
        }
        Json::obj(fields)
    }

    /// The benchmark contract's result line: the host end-to-end metrics
    /// for a timed run, every per-layer metric for a traced one.
    pub fn contract_line(&self, traced: bool) -> Json {
        let value =
            |v: f64, unit: &str| Json::obj([("value", v.to_json()), ("unit", unit.to_json())]);
        let metrics = if traced {
            Json::obj(PER_LAYER.iter().map(|m| {
                let v = self
                    .layers
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name, value(v, m.unit))
            }))
        } else {
            Json::obj(contract_end_to_end().map(|m| {
                let samples = self.host_samples(m.name);
                (m.name, value(summarize(&samples).median, m.unit))
            }))
        };
        Json::obj([
            ("correct", (self.failed() == 0).to_json()),
            ("attempted", self.attempted().to_json()),
            ("failed", self.failed().to_json()),
            ("metrics", metrics),
        ])
    }

    /// Every metric by name with its unit, for a person.
    pub fn print(&self) {
        println!(
            "{}  ({}; {} repetitions at 1/{} size)",
            self.workload.name(),
            self.workload.operation(),
            self.repetitions.len(),
            self.size_divisor
        );
        for m in &END_TO_END {
            match m.kind {
                Kind::Host { .. } => {
                    let s = summarize(&self.host_samples(m.name));
                    let note =
                        if m.name == "goodput_gbps" && self.workload.name().starts_with("rc_") {
                            format!(
                                "  = {:.2} x the {LINK_GBPS} Gb/s link",
                                s.median / LINK_GBPS
                            )
                        } else {
                            String::new()
                        };
                    println!(
                        "  {:<18} {:>14.4} {:<5} [q1 {:.4}, q3 {:.4}, n {}]{note}",
                        m.name, s.median, m.unit, s.q1, s.q3, s.n
                    );
                }
                Kind::Exact if m.name == "failed_share" => println!(
                    "  {:<18} {:>14.6} {:<5} (ops_attempted {}, ops_failed {})",
                    m.name,
                    self.failed_share(),
                    m.unit,
                    self.attempted(),
                    self.failed()
                ),
                Kind::Exact => {
                    if let Some(v) = self.repetitions.first().and_then(|r| r.sim_value(m.name)) {
                        println!(
                            "  {:<18} {:>14.4} {:<5} (simulated, exact)",
                            m.name, v, m.unit
                        );
                    }
                }
            }
        }
        for (name, v) in self.layers.iter().filter(|(_, v)| *v != 0.0) {
            if let Some(m) = PER_LAYER.iter().find(|m| m.name == *name) {
                println!(
                    "  {name:<36} {v:>16.4} {:<6} ({} is better)",
                    m.unit,
                    m.better.label()
                );
            }
        }
        for why in self.gate_failures() {
            println!("  GATE FAILED [{}]: {why}", self.workload.name());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(attempted: u64, sim: f64) -> Repetition {
        Repetition {
            setup_s: 0.1,
            wall_s: 1.0,
            attempted,
            payload_bits: 8_000,
            sim: vec![("sim_goodput_gbps", sim)],
            ..Repetition::default()
        }
    }

    #[test]
    fn a_repetition_that_differs_from_the_first_fails_whole() {
        let mut reps = vec![rep(100, 1.5), rep(100, 1.5), rep(100, 1.5000000000000002)];
        gate_repetitions(&mut reps);
        assert_eq!(reps[0].failed + reps[1].failed, 0);
        assert_eq!(reps[2].failed, 100);
        assert_eq!(reps[2].gate_failures.len(), 1);

        let mut reps = vec![rep(100, 1.5), rep(99, 1.5)];
        gate_repetitions(&mut reps);
        assert_eq!(reps[1].failed, 99);
    }

    #[test]
    fn contract_lines_carry_exactly_the_contract_keys() {
        let mut bad = rep(100, 2.0);
        bad.fail(3, "three undelivered".into());
        let result = WorkloadResult {
            workload: Workload::RcSmall64,
            size_divisor: 4,
            repetitions: vec![rep(100, 2.0), bad],
            peak_rss_mb: 3.5,
            layers: vec![("ib_crypto.crc16_ns_per_byte", 0.9)],
            extra_failures: Vec::new(),
        };
        let line = result.contract_line(false);
        let Json::Obj(fields) = &line else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(200));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(3));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["ops_per_s", "goodput_gbps", "setup_s"]);

        let traced = result.contract_line(true);
        let Some(Json::Obj(metrics)) = traced.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics[0].1.get("value").and_then(Json::as_f64), Some(0.9));
        assert_eq!(metrics[1].1.get("value").and_then(Json::as_f64), Some(0.0));

        // The full document round-trips through the workspace's parser.
        let text = result.to_json().to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("ops_failed").and_then(Json::as_u64), Some(3));
        let share = back
            .get("metrics")
            .and_then(|m| m.get("failed_share"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(share, Some(0.015));
    }
}
