//! The three pure-engine workloads: no crypto, no transport.
//!
//! * `mesh_dos_sif` — the paper's own testbed and first mechanism:
//!   Figure 5's 4×4 mesh at 60 % load with four duty-cycle attackers and
//!   SIF. A small, cache-resident fabric.
//! * `fattree_1k_serial` — fig_scale's fat-tree-16 arm: 1024 hosts, a
//!   seeded permutation of bulk flows, no background load. Event queue,
//!   arena, routing and credits with a working set far beyond cache.
//! * `fattree_1k_par2` — the same inputs through the windowed parallel
//!   driver at two threads; everything it reports must equal the serial
//!   engine's.

use std::time::Instant;

use ib_flow::Flow;
use ib_mgmt::enforcement::EnforcementKind;
use ib_runtime::Seed;
use ib_security::experiments::fig5_config;
use ib_sim::engine::FlowRecord;
use ib_sim::time::{ps_to_us, MS};
use ib_sim::{ParSimulator, SimConfig, SimReport, SimTime, Simulator, TopoSpec};

use crate::gen::{derive, permutation};
use crate::span::Tracer;
use crate::stats::percentile;
use crate::workload::Repetition;

// --------------------------------------------------------------- mesh

/// Simulated duration at full size.
pub const MESH_DURATION: SimTime = 300 * MS;
const MESH_LOAD: f64 = 0.6;

pub fn mesh_config(seed: u64, duration: SimTime) -> SimConfig {
    let mut cfg = fig5_config(MESH_LOAD, EnforcementKind::Sif);
    cfg.seed = Seed(derive(seed, 0x4D45_5348));
    cfg.duration = duration;
    cfg
}

/// Fabric seeds (attacker placements and traffic streams) one repetition
/// runs, each for its share of the simulated duration. Work per generated
/// packet differs by a fifth from one placement to the next (the library
/// averages Figure 5 over placements for the same reason), so a
/// repetition on one placement would make `ops_per_s` a property of the
/// seed. A share is never shorter than 15 ms, Figure 5's run length and
/// a half: below that the 1 ms warm-up and the attack burst no longer fit.
pub fn mesh_placements(duration: SimTime) -> u64 {
    (duration / (15 * MS)).clamp(1, 5)
}

/// Conservation checks on a finished mesh run; each returns a reason.
fn mesh_report_faults(r: &SimReport) -> Vec<String> {
    let mut faults = Vec::new();
    let delivered = r.realtime.delivered + r.best_effort.delivered + r.attack.delivered;
    let dropped = r.realtime.dropped + r.best_effort.dropped + r.attack.dropped;
    if r.generated == 0 {
        faults.push("no packet generated".into());
    }
    if delivered + dropped + r.hca_blocked > r.generated {
        faults.push(format!(
            "more packets accounted ({delivered} delivered + {dropped} dropped + {} blocked) \
             than generated ({})",
            r.hca_blocked, r.generated
        ));
    }
    if r.realtime.dropped + r.best_effort.dropped > 0 {
        faults.push(format!(
            "SIF dropped {} valid-P_Key packets",
            r.realtime.dropped + r.best_effort.dropped
        ));
    }
    if r.filter_drops + r.hca_blocked == 0 {
        faults.push("the attack never reached a filter or an HCA".into());
    }
    faults
}

/// One `mesh_dos_sif` repetition: the warm-up and `Simulator::new` are
/// set-up, the `run_counted` calls the timed work. The simulated time is
/// split over [`mesh_placements`] fabric seeds.
pub fn mesh_repetition(seed: u64, size_divisor: u64, tr: &mut Tracer) -> Repetition {
    let start = Instant::now();
    let duration = MESH_DURATION / size_divisor;
    let warm = Simulator::new(mesh_config(derive(seed, 1), (duration / 10).max(2 * MS)));
    std::hint::black_box(warm.run_counted());
    let placements = mesh_placements(duration);
    let mtu_bits = mesh_config(seed, duration).mtu_bytes as u64 * 8;
    let s = tr.open("ib_sim.new", placements as usize);
    let sims: Vec<Simulator> = (0..placements)
        .map(|k| Simulator::new(mesh_config(derive(seed, 0x100 + k), duration / placements)))
        .collect();
    tr.close(s);
    let setup_s = start.elapsed().as_secs_f64();

    let root = tr.open("harness.workload", 1);
    let timed = Instant::now();
    let runs: Vec<(SimReport, u64)> = sims
        .into_iter()
        .map(|sim| {
            let s = tr.open("ib_sim.run_counted", 1);
            let run = sim.run_counted();
            tr.close(s);
            run
        })
        .collect();
    let wall_s = timed.elapsed().as_secs_f64();
    tr.close(root);

    let sum = |f: fn(&SimReport) -> u64| runs.iter().map(|(r, _)| f(r)).sum::<u64>();
    let generated = sum(|r| r.generated);
    let events: u64 = runs.iter().map(|(_, e)| e).sum();
    let mut rep = Repetition {
        setup_s,
        wall_s,
        attempted: generated.max(1),
        payload_bits: sum(|r| r.realtime.delivered + r.best_effort.delivered) * mtu_bits,
        ..Repetition::default()
    };
    for (report, _) in &runs {
        for fault in mesh_report_faults(report) {
            rep.fail(report.generated.max(1), fault);
        }
    }
    // Figure 5 averages its y-axis over placements the same way.
    let lat_mean_us = runs
        .iter()
        .map(|(r, _)| r.legit_queuing_mean() + r.legit_network_mean())
        .sum::<f64>()
        / runs.len() as f64;
    rep.sim = vec![("sim_lat_mean_us", lat_mean_us)];
    let (blocked, filtered) = (sum(|r| r.hca_blocked), sum(|r| r.filter_drops));
    rep.layer = vec![
        ("ib_sim.events", events as f64),
        (
            "ib_sim.events_per_pkt",
            events as f64 / generated.max(1) as f64,
        ),
        (
            "ib_mgmt.lookups_per_pkt",
            sum(|r| r.lookup_cycles) as f64 / generated.max(1) as f64,
        ),
        ("ib_mgmt.traps", sum(|r| r.traps) as f64),
        ("ib_mgmt.filter_drops", filtered as f64),
        (
            "ib_mgmt.attack_leak_share",
            blocked as f64 / (blocked + filtered).max(1) as f64,
        ),
    ];
    rep
}

// ------------------------------------------------------------ fat-tree

/// Bytes per flow at full size.
const FLOW_BYTES: u64 = 128 * 1024;
const FATTREE_K: usize = 16;

/// Which driver runs the fat-tree inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    Serial,
    Par2,
}

/// fig_scale's fat-tree-16 arm: one partition, the permutation is the
/// only load.
pub fn fattree_config(seed: u64, k: usize) -> SimConfig {
    let mut cfg = SimConfig {
        topology: TopoSpec::FatTree { k },
        num_partitions: 1,
        seed: Seed(derive(seed, 0x4641_5454)),
        ..SimConfig::default()
    };
    cfg.traffic.realtime_load = 0.0;
    cfg.traffic.best_effort_load = 0.0;
    cfg
}

/// Node `i` sends one `bytes`-sized flow to `perm[i]`.
pub fn permutation_flows(n: usize, bytes: u64, seed: u64) -> Vec<Flow> {
    permutation(n, seed)
        .into_iter()
        .enumerate()
        .map(|(src, dst)| Flow { src, dst, bytes })
        .collect()
}

/// Everything one engine run produced that a second run must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    pub report_json: String,
    pub completions: Vec<Option<SimTime>>,
    pub events: u64,
    pub peak_packets: u64,
}

impl EngineOutcome {
    fn collect(report: &SimReport, flows: &[FlowRecord], events: u64, peak: usize) -> Self {
        EngineOutcome {
            report_json: report.to_json().to_string(),
            completions: flows.iter().map(|f| f.completed_at).collect(),
            events,
            peak_packets: peak as u64,
        }
    }
}

/// One engine run: construction time, posting-plus-running time (the
/// `harness.workload` span), and what came out.
pub struct EngineRun {
    pub new_s: f64,
    pub wall_s: f64,
    pub out: EngineOutcome,
}

/// Post `flows` and run the serial engine to completion.
pub fn run_serial(cfg: &SimConfig, flows: &[Flow], tr: &mut Tracer) -> EngineRun {
    let building = Instant::now();
    let s = tr.open("ib_sim.new", 1);
    let mut sim = Simulator::new(cfg.clone());
    tr.close(s);
    let new_s = building.elapsed().as_secs_f64();
    let root = tr.open("harness.workload", 1);
    let timed = Instant::now();
    let s = tr.open("ib_sim.post_flow", flows.len());
    for f in flows {
        sim.post_flow(f.src, f.dst, f.bytes);
    }
    tr.close(s);
    let s = tr.open("ib_sim.run_hosts_until", 1);
    sim.run_hosts_until(SimTime::MAX);
    tr.close(s);
    let wall_s = timed.elapsed().as_secs_f64();
    tr.close(root);
    let out = EngineOutcome::collect(
        &sim.stats(),
        sim.flows(),
        sim.events_processed(),
        sim.peak_packets(),
    );
    EngineRun { new_s, wall_s, out }
}

/// Post `flows` and run the windowed parallel driver to completion.
pub fn run_parallel(cfg: &SimConfig, flows: &[Flow], threads: usize, tr: &mut Tracer) -> EngineRun {
    let building = Instant::now();
    let s = tr.open("ib_sim.par_new", 1);
    let mut sim = ParSimulator::with_threads(cfg.clone(), threads);
    tr.close(s);
    let new_s = building.elapsed().as_secs_f64();
    let root = tr.open("harness.workload", 1);
    let timed = Instant::now();
    let s = tr.open("ib_sim.post_flow", flows.len());
    for f in flows {
        sim.post_flow(f.src, f.dst, f.bytes);
    }
    tr.close(s);
    let s = tr.open("ib_sim.par_run", 1);
    let report = sim.run();
    tr.close(s);
    let wall_s = timed.elapsed().as_secs_f64();
    tr.close(root);
    let out = EngineOutcome::collect(
        &report,
        sim.flows(),
        sim.events_processed(),
        sim.peak_packets(),
    );
    EngineRun { new_s, wall_s, out }
}

/// The 1024-host fabric and its permutation of bulk flows.
pub fn fattree_inputs(seed: u64, size_divisor: u64) -> (SimConfig, Vec<Flow>) {
    let cfg = fattree_config(seed, FATTREE_K);
    let bytes = (FLOW_BYTES / size_divisor).max(cfg.mtu_bytes as u64);
    let flows = permutation_flows(cfg.num_nodes(), bytes, seed);
    (cfg, flows)
}

/// One fat-tree repetition on either driver. The parallel driver's
/// outcome is checked against a serial reference run after the timed
/// section, so the gate needs nothing from another process.
pub fn fattree_repetition(
    driver: Driver,
    seed: u64,
    size_divisor: u64,
    tr: &mut Tracer,
) -> Repetition {
    let start = Instant::now();
    let (cfg, flows) = fattree_inputs(seed, size_divisor);
    let (n, bytes) = (flows.len(), flows[0].bytes);
    let warm_flows = permutation_flows(n, (bytes / 10).max(cfg.mtu_bytes as u64), derive(seed, 1));
    match driver {
        Driver::Serial => drop(run_serial(&cfg, &warm_flows, &mut Tracer::off())),
        Driver::Par2 => drop(run_parallel(&cfg, &warm_flows, 2, &mut Tracer::off())),
    }
    let prepared_s = start.elapsed().as_secs_f64();
    let EngineRun { new_s, wall_s, out } = match driver {
        Driver::Serial => run_serial(&cfg, &flows, tr),
        Driver::Par2 => run_parallel(&cfg, &flows, 2, tr),
    };
    // Building the simulator is set-up; posting the flows starts the clock.
    let setup_s = prepared_s + new_s;

    let packets_per_flow = bytes.div_ceil(cfg.mtu_bytes as u64);
    let mut rep = Repetition {
        setup_s,
        wall_s,
        attempted: n as u64 * packets_per_flow,
        ..Repetition::default()
    };
    let incomplete = out.completions.iter().filter(|c| c.is_none()).count() as u64;
    if incomplete > 0 {
        rep.fail(
            incomplete * packets_per_flow,
            format!("{incomplete} of {n} flows never completed"),
        );
    }
    rep.payload_bits = (n as u64 - incomplete) * bytes * 8;
    let mut speedup = None;
    if driver == Driver::Par2 {
        let reference = run_serial(&cfg, &flows, &mut Tracer::off());
        speedup = Some(reference.wall_s / wall_s);
        let serial = reference.out;
        if serial != out {
            rep.fail(
                rep.attempted,
                format!(
                    "parallel driver diverged from serial: report equal {}, completions equal {}, \
                     events {} vs {}, peak packets {} vs {}",
                    serial.report_json == out.report_json,
                    serial.completions == out.completions,
                    out.events,
                    serial.events,
                    out.peak_packets,
                    serial.peak_packets
                ),
            );
        }
    }
    let mut fct_us: Vec<f64> = out
        .completions
        .iter()
        .flatten()
        .map(|&t| ps_to_us(t))
        .collect();
    fct_us.sort_by(|a, b| a.partial_cmp(b).expect("finite completion times"));
    if !fct_us.is_empty() {
        rep.sim = vec![
            ("sim_fct_p50_us", percentile(&fct_us, 0.50)),
            ("sim_fct_p99_us", percentile(&fct_us, 0.99)),
        ];
    }
    rep.layer = vec![
        ("ib_sim.events", out.events as f64),
        (
            "ib_sim.events_per_pkt",
            out.events as f64 / rep.attempted as f64,
        ),
        ("ib_sim.peak_packets", out.peak_packets as f64),
    ];
    if let Some(speedup) = speedup {
        rep.layer.push(("ib_sim.par2_speedup", speedup));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_outcome_equals_serial_on_a_small_fat_tree() {
        let cfg = fattree_config(3, 4);
        let flows = permutation_flows(cfg.num_nodes(), 8 * 1024, 3);
        let serial = run_serial(&cfg, &flows, &mut Tracer::off()).out;
        let par = run_parallel(&cfg, &flows, 2, &mut Tracer::off()).out;
        assert_eq!(serial, par);
        assert!(serial.completions.iter().all(Option::is_some));
        assert!(serial.events > 0 && serial.peak_packets > 0);
    }

    #[test]
    fn mesh_report_checks_catch_a_broken_report() {
        let sim = Simulator::new(mesh_config(9, 3 * MS));
        let (good, _) = sim.run_counted();
        assert_eq!(mesh_report_faults(&good), Vec::<String>::new());
        let mut bad = good.clone();
        bad.best_effort.dropped = 2;
        bad.generated = 1;
        assert_eq!(mesh_report_faults(&bad).len(), 2);
    }
}
