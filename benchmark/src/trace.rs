//! The traced run: one traced repetition of a workload between two
//! untraced ones, the probe pass, and the per-layer metrics derived from
//! them.
//!
//! Per-layer numbers never come from the timed run. The untraced
//! repetitions here exist only to measure what tracing itself costs
//! (`trace.overhead_share`).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ib_flow::simulate;
use ib_security::ChannelSecurity;
use ib_sim::time::ps_to_us;
use ib_sim::{ParSimulator, Simulator};

use crate::catalogue::{sim_layer_name, PER_LAYER};
use crate::span::{layer_self_ns, validate, NameTotals, Tracer};
use crate::stats::percentile;
use crate::workload::{Repetition, Workload};
use crate::{engine, host, probes, rc};

/// What a traced run produced.
pub struct Traced {
    /// Every catalogue metric, in catalogue order; 0 where the workload
    /// does not exercise the metric's layer.
    pub layers: Vec<(&'static str, f64)>,
    /// The traced repetition between its two untraced neighbours (all
    /// three count as attempted operations of the run).
    pub repetitions: Vec<Repetition>,
    /// Structural problems found in the recorded trace.
    pub trace_faults: Vec<String>,
}

/// Sparse metric list, filled as the run goes.
#[derive(Default)]
struct Sink(Vec<(&'static str, f64)>);

impl Sink {
    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    fn extend(&mut self, items: impl IntoIterator<Item = (&'static str, f64)>) {
        for (n, v) in items {
            self.put(n, v);
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn into_catalogue_order(self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name).unwrap_or(0.0)))
            .collect()
    }
}

type Totals = BTreeMap<&'static str, NameTotals>;

/// Total time of every span called `name`, divided by the calls covered.
fn ns_per_call(totals: &Totals, name: &str) -> Option<f64> {
    let t = totals.get(name)?;
    (t.calls > 0).then(|| t.total_ns as f64 / t.calls as f64)
}

fn total_s(totals: &Totals, names: &[&str]) -> f64 {
    names
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|t| t.total_ns as f64 / 1e9)
        .sum()
}

/// Metrics every workload derives the same way from its spans.
fn span_metrics(totals: &Totals, traced: &Repetition, sink: &mut Sink) {
    let new_s = total_s(totals, &["ib_sim.new", "ib_sim.par_new"]);
    let busy_s = total_s(
        totals,
        &[
            "ib_sim.run_hosts_until",
            "ib_sim.run_counted",
            "ib_sim.par_run",
        ],
    );
    if new_s > 0.0 {
        sink.put("ib_sim.new_s", new_s);
    }
    if busy_s > 0.0 {
        sink.put("ib_sim.run_busy_s", busy_s);
        if let Some(events) = traced.layer_value("ib_sim.events") {
            sink.put("ib_sim.ns_per_event", busy_s * 1e9 / events.max(1.0));
        }
    }
    // Construction is set-up on the engine workloads, so it is left out
    // of the engine's share of the timed wall everywhere.
    sink.put(
        "ib_sim.busy_share",
        (layer_self_ns(totals, "ib_sim") as f64 / 1e9 - new_s).max(0.0) / traced.wall_s,
    );
    for (metric, span) in [
        ("ib_sim.post_host_ns", "ib_sim.post_host"),
        ("ib_sim.take_delivery_ns", "ib_sim.take_host_delivery"),
        ("ib_transport.post_ns_per_msg", "ib_transport.post"),
        ("ib_transport.rx_ns_per_pkt", "ib_transport.handle_wire"),
        ("harness.tap_parse_ns", "harness.tap_parse"),
    ] {
        if let Some(ns) = ns_per_call(totals, span) {
            sink.put(metric, ns);
        }
    }
    let sm_s = total_s(totals, &["ib_sm.run_rekey_sim"]);
    if sm_s > 0.0 {
        sink.put("ib_sm.run_s", sm_s);
    }
}

/// Run `workload` traced and derive every per-layer metric. The trace is
/// written to `<out_dir>/trace_<workload>.jsonl` when a directory is
/// given.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    size_divisor: u64,
    out_dir: Option<&Path>,
) -> Traced {
    let mut sink = Sink::default();
    // The first untraced repetition only warms the process (see
    // `worker`). Tracing is then compared against the mean of an untraced
    // repetition on either side of the traced one, which cancels a drift
    // of the host over these few seconds.
    std::hint::black_box(workload.repetition(seed, size_divisor, &mut Tracer::off()));
    let before = workload.repetition(seed, size_divisor, &mut Tracer::off());
    // Read before tracing starts: spans and captured wire images are the
    // harness's memory, not the workload's.
    sink.put("harness.peak_rss_mb", host::peak_rss_mb());
    let mut tr = Tracer::on();

    let traced = match workload.rc_spec() {
        Some(spec) => {
            let mut capture = rc::Capture::default();
            let run = rc::run(
                spec,
                ChannelSecurity::AuthReplay,
                seed,
                size_divisor,
                &mut tr,
                Some(&mut capture),
            );
            let data = run.data_pkts.max(1) as f64;
            sink.put("ib_transport.allocs_per_pkt", run.allocs as f64 / data);
            // The requester's polls, spread over the data packets they made.
            sink.put(
                "ib_transport.tx_ns_per_pkt",
                total_s(&tr.totals(), &["ib_transport.poll_into"]) * 1e9 / data,
            );
            // Figure 6's claim in host time: the same stream with the
            // MAC and the replay window off, traced alike.
            let plain = rc::run(
                spec,
                ChannelSecurity::NoAuth,
                seed,
                size_divisor,
                &mut Tracer::on(),
                None,
            );
            sink.put(
                "ib_security.auth_cost_share",
                1.0 - run.rep.ops_per_s() / plain.rep.ops_per_s(),
            );
            sink.extend(probes::rc_probes(&capture, seed));
            run.rep
        }
        None => workload.repetition(seed, size_divisor, &mut tr),
    };

    let totals = tr.totals();
    span_metrics(&totals, &traced, &mut sink);
    if let (Some(parse), Some(admit), Some(rx)) = (
        sink.get("ib_packet.parse_ns_per_pkt"),
        sink.get("ib_security.admit_ns_per_pkt"),
        sink.get("ib_transport.rx_ns_per_pkt"),
    ) {
        sink.put("ib_transport.rx_accounted_share", (parse + admit) / rx);
    }
    let after = workload.repetition(seed, size_divisor, &mut Tracer::off());
    sink.put(
        "trace.overhead_share",
        traced.wall_s / ((before.wall_s + after.wall_s) / 2.0) - 1.0,
    );
    sink.extend(traced.layer.iter().copied());
    for (name, value) in &traced.sim {
        if let Some(layer_name) = sim_layer_name(name) {
            sink.put(layer_name, *value);
        }
    }

    match workload {
        Workload::MeshDosSif => {
            sink.extend(probes::enforcement_probes(seed));
            sink.put("ib_sim.sched_ns_per_op", probes::sched_ns_per_op(seed));
            sink.put("ib_sim.par2_speedup", mesh_par2_speedup(seed, size_divisor));
        }
        Workload::Fattree1kSerial => {
            sink.put("ib_sim.sched_ns_per_op", probes::sched_ns_per_op(seed));
            let (simulate_s, rel_err) = flow_model_account(seed, size_divisor, &traced);
            sink.put("ib_flow.simulate_s", simulate_s);
            sink.put("ib_flow.p99_fct_rel_err", rel_err);
            sink.put(
                "ib_sim.par2_speedup",
                fattree_par2_speedup(seed, size_divisor),
            );
        }
        Workload::Fattree1kPar2 => {
            sink.put("ib_sim.sched_ns_per_op", probes::sched_ns_per_op(seed));
        }
        Workload::Rekey1024Qp => sink.extend(probes::key_plane_probes(seed)),
        Workload::RcStream1k | Workload::RcSmall64 | Workload::FabricRdmaLossy => {}
    }

    let mut trace_faults = Vec::new();
    if let Err(e) = validate(tr.spans()) {
        trace_faults.push(format!("trace is malformed: {e}"));
    }
    // The spans under the timed root must account for the timed wall.
    let accounted_s = total_s(&totals, &["harness.workload"]);
    if (accounted_s / traced.wall_s - 1.0).abs() > 0.05 {
        trace_faults.push(format!(
            "spans cover {accounted_s:.4} s of a {:.4} s timed section",
            traced.wall_s
        ));
    }
    if let Some(dir) = out_dir {
        let path = dir.join(format!("trace_{}.jsonl", workload.name()));
        if let Err(e) = tr.write_jsonl(&path, workload.name()) {
            trace_faults.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    Traced {
        layers: sink.into_catalogue_order(),
        repetitions: vec![before, traced, after],
        trace_faults,
    }
}

/// Serial over two-thread wall time of the mesh workload's own
/// configuration — the cache-resident side of the parallel driver's
/// keep-or-delete rule.
fn mesh_par2_speedup(seed: u64, size_divisor: u64) -> f64 {
    let cfg = engine::mesh_config(seed, engine::MESH_DURATION / size_divisor);
    let serial = Simulator::new(cfg.clone());
    let start = Instant::now();
    std::hint::black_box(serial.run_counted());
    let serial_s = start.elapsed().as_secs_f64();
    let mut par = ParSimulator::with_threads(cfg, 2);
    let start = Instant::now();
    std::hint::black_box(par.run());
    serial_s / start.elapsed().as_secs_f64()
}

/// The same ratio on the fat-tree inputs, for the traced
/// `fattree_1k_serial` run: `BENCHMARK.json` does not list
/// `fattree_1k_par2`, so this is where its driver reads the parallel
/// engine's number.
fn fattree_par2_speedup(seed: u64, size_divisor: u64) -> f64 {
    let (cfg, flows) = engine::fattree_inputs(seed, size_divisor);
    let serial = engine::run_serial(&cfg, &flows, &mut Tracer::off());
    let par = engine::run_parallel(&cfg, &flows, 2, &mut Tracer::off());
    serial.wall_s / par.wall_s
}

/// The fluid model on the fat-tree inputs: its run time, and how far its
/// p99 flow-completion time lies from the packet engine's.
fn flow_model_account(seed: u64, size_divisor: u64, packet: &Repetition) -> (f64, f64) {
    let (cfg, flows) = engine::fattree_inputs(seed, size_divisor);
    let topo = cfg.build_topology();
    let start = Instant::now();
    let report = simulate(&*topo, &cfg, &flows);
    let simulate_s = start.elapsed().as_secs_f64();
    let mut fct_us: Vec<f64> = report
        .completions_ps
        .iter()
        .map(|&ps| ps_to_us(ps as u64))
        .collect();
    fct_us.sort_by(|a, b| a.partial_cmp(b).expect("finite completion times"));
    let fluid_p99 = percentile(&fct_us, 0.99);
    let packet_p99 = packet.sim_value("sim_fct_p99_us").unwrap_or(f64::NAN);
    (simulate_s, (fluid_p99 - packet_p99).abs() / packet_p99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_orders_by_catalogue_and_zero_fills() {
        let mut sink = Sink::default();
        sink.put("sim.fct_p99_us", 3.0);
        sink.put("ib_crypto.crc16_ns_per_byte", 1.0);
        sink.put("sim.fct_p99_us", 4.0);
        let all = sink.into_catalogue_order();
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(all[0], ("ib_crypto.crc16_ns_per_byte", 1.0));
        assert_eq!(all[1].1, 0.0);
        assert_eq!(*all.last().unwrap(), ("sim.fct_p99_us", 4.0));
    }
}
