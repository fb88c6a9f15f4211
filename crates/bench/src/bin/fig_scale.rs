//! Scale-out sweep — the packet engine's account of itself as the fabric
//! grows. A seeded random permutation of bulk flows crosses each
//! generated fabric (2-D mesh, k-ary fat-tree) on the serial packet
//! engine (credits, arbitration, store-and-forward), reporting flow
//! completion percentiles, makespan, events handled and the most packets
//! in flight at once.
//!
//! Full mode climbs to 1024 HCAs (fat-tree k=16 → 1024 hosts), runs
//! each arm `WALL_RUNS` (5) times and reports the median wall time (with
//! its quartiles in the printed table) and events per wall-second at
//! that median. Smoke mode keeps the fabrics small, runs each arm once
//! and zeroes the wall-clock fields so two same-seed runs emit
//! byte-identical `BENCH_fig_scale.json` (the ci.sh determinism gate).
//!
//! Usage: `fig_scale [--smoke] [--seed S]`

use bench::{bench_doc, parse_args, render_table, write_bench_json, Summary};
use ib_runtime::{Json, Rng, Seed, ToJson};
use ib_sim::{SimConfig, SimTime, Simulator, TopoSpec};
use std::time::Instant;

/// Full-mode runs per arm: one run's wall time moves by up to 2× on an
/// unchanged build, so the table reports the median of these.
const WALL_RUNS: usize = 5;

/// One swept fabric.
struct Arm {
    label: &'static str,
    spec: TopoSpec,
}

fn arms(smoke: bool) -> Vec<Arm> {
    let arm = |label, spec| Arm { label, spec };
    if smoke {
        vec![
            arm("mesh-2", TopoSpec::Mesh),
            arm("mesh-4", TopoSpec::Mesh),
            arm("fat-tree-4", TopoSpec::FatTree { k: 4 }),
        ]
    } else {
        vec![
            arm("mesh-2", TopoSpec::Mesh),
            arm("mesh-4", TopoSpec::Mesh),
            arm("mesh-8", TopoSpec::Mesh),
            arm("fat-tree-4", TopoSpec::FatTree { k: 4 }),
            arm("fat-tree-8", TopoSpec::FatTree { k: 8 }),
            arm("fat-tree-16", TopoSpec::FatTree { k: 16 }),
        ]
    }
}

fn config_for(seed: Seed, arm: &Arm) -> SimConfig {
    let mut cfg = SimConfig {
        topology: arm.spec,
        // One partition so flows pass the receive-side P_Key check; the
        // permutation is the only load.
        num_partitions: 1,
        seed,
        ..SimConfig::default()
    };
    if let (TopoSpec::Mesh, Some(dim)) = (arm.spec, arm.label.strip_prefix("mesh-")) {
        cfg.mesh_dim = dim.parse().expect("mesh arm label carries its dim");
    }
    cfg.traffic.realtime_load = 0.0;
    cfg.traffic.best_effort_load = 0.0;
    cfg
}

/// A seeded random permutation with no fixed points: node `i` sends one
/// `bytes`-sized flow to `perm[i]`, as `(src, dst, bytes)`.
fn permutation_flows(n: usize, bytes: u64, seed: Seed) -> Vec<(usize, usize, u64)> {
    let mut rng = Rng::from_seed(Seed(seed.0 ^ 0x5CA1_AB1E));
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    // Break self-sends by swapping with a neighbor (cyclically), which
    // cannot create a new fixed point since n ≥ 2.
    for i in 0..n {
        if perm[i] == i {
            let j = (i + 1) % n;
            perm.swap(i, j);
        }
    }
    (0..n).map(|src| (src, perm[src], bytes)).collect()
}

/// Sorted-sample percentile (nearest-rank, deterministic).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The measurements of one arm.
struct Run {
    completions_ps: Vec<f64>,
    /// Scheduler events handled.
    events: u64,
    /// The most packets in flight at once (`Simulator::peak_packets`,
    /// the packet arena's high-water mark).
    peak_mem_items: u64,
    wall_ns: f64,
}

fn run_packet(cfg: &SimConfig, flows: &[(usize, usize, u64)]) -> Run {
    let start = Instant::now();
    let mut sim = Simulator::new(cfg.clone());
    for &(src, dst, bytes) in flows {
        sim.post_flow(src, dst, bytes);
    }
    sim.run_hosts_until(SimTime::MAX);
    let wall_ns = start.elapsed().as_nanos() as f64;
    let completions_ps: Vec<f64> = sim
        .flows()
        .iter()
        .map(|f| {
            f.completed_at
                .expect("permutation flows complete: one partition, no faults") as f64
        })
        .collect();
    Run {
        completions_ps,
        events: sim.events_processed(),
        peak_mem_items: sim.peak_packets() as u64,
        wall_ns,
    }
}

/// `wall` summarises full mode's wall times (`bytes_per_iter` counting
/// events); smoke mode has none and zeroes the wall-clock fields so the
/// double-run byte-diff gate can hold.
fn point_json(arm: &Arm, cfg: &SimConfig, run: &Run, wall: Option<&Summary>) -> Json {
    let mut fct = run.completions_ps.clone();
    fct.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let makespan_ps = fct.last().copied().unwrap_or(0.0);
    let topo = cfg.build_topology();
    let (wall_ms, events_per_sec) =
        wall.map_or((0.0, 0.0), |w| (w.median_ns / 1e6, w.bytes_per_sec()));
    Json::obj([
        ("arm", arm.label.to_json()),
        ("topology", topo.name().to_json()),
        ("nodes", (topo.num_nodes() as u64).to_json()),
        ("switches", (topo.num_switches() as u64).to_json()),
        ("radix", (topo.radix() as u64).to_json()),
        ("diameter", (topo.diameter() as u64).to_json()),
        ("flows", (fct.len() as u64).to_json()),
        ("fct_p50_us", (percentile(&fct, 0.50) / 1e6).to_json()),
        ("fct_p90_us", (percentile(&fct, 0.90) / 1e6).to_json()),
        ("fct_p99_us", (percentile(&fct, 0.99) / 1e6).to_json()),
        ("makespan_us", (makespan_ps / 1e6).to_json()),
        ("events", run.events.to_json()),
        ("peak_mem_items", run.peak_mem_items.to_json()),
        ("wall_ms", wall_ms.to_json()),
        ("events_per_sec", events_per_sec.to_json()),
    ])
}

fn main() {
    let (smoke, seed) = parse_args(std::env::args());
    let flow_bytes: u64 = if smoke { 16 * 1024 } else { 64 * 1024 };

    let swept = arms(smoke);
    let mut points: Vec<Json> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    let mut biggest = 0usize;

    for arm in &swept {
        let cfg = config_for(seed, arm);
        let n = cfg.num_nodes();
        biggest = biggest.max(n);
        let flows = permutation_flows(n, flow_bytes, seed);
        let run = run_packet(&cfg, &flows);
        let wall = (!smoke).then(|| {
            let mut wall_ns = vec![run.wall_ns];
            for _ in 1..WALL_RUNS {
                let again = run_packet(&cfg, &flows);
                assert_eq!(again.events, run.events, "{}: a re-run diverged", arm.label);
                wall_ns.push(again.wall_ns);
            }
            Summary::new(arm.label, &wall_ns, run.events)
        });
        let p = point_json(arm, &cfg, &run, wall.as_ref());
        let us = |key| format!("{:.1}", p.get(key).unwrap().as_f64().unwrap());
        table.push(vec![
            arm.label.to_string(),
            p.get("nodes").unwrap().as_u64().unwrap().to_string(),
            p.get("switches").unwrap().as_u64().unwrap().to_string(),
            us("fct_p50_us"),
            us("fct_p99_us"),
            us("makespan_us"),
            run.events.to_string(),
            run.peak_mem_items.to_string(),
            wall.map_or("-".into(), |w| {
                format!(
                    "{:.1} ({:.1}–{:.1})",
                    w.median_ns / 1e6,
                    w.q1_ns / 1e6,
                    w.q3_ns / 1e6
                )
            }),
        ]);
        points.push(p);
    }

    println!(
        "Scale-out sweep: permutation of {}-KiB flows on the packet engine (seed {seed})",
        flow_bytes / 1024
    );
    println!(
        "{}",
        render_table(
            &[
                "arm",
                "nodes",
                "switches",
                "p50 (us)",
                "p99 (us)",
                "makespan (us)",
                "events",
                "peak mem",
                "wall ms, median (Q1–Q3)",
            ],
            &table
        )
    );

    // ---- acceptance assertions ----
    if !smoke {
        assert!(
            biggest >= 1024,
            "full sweep must reach ≥1024 HCAs, peaked at {biggest}"
        );
    }
    println!("OK: every flow completed on every fabric; largest fabric {biggest} HCAs.");

    let doc = bench_doc(
        "fig_scale",
        seed,
        Json::obj([
            (
                "arms",
                Json::arr(swept.iter().map(|a| {
                    Json::obj([("label", a.label.to_json()), ("topology", a.spec.to_json())])
                })),
            ),
            ("flow_bytes", flow_bytes.to_json()),
            ("workload", "random permutation, no fixed points".to_json()),
            ("base", config_for(seed, &swept[0]).to_json()),
            ("smoke", smoke.to_json()),
        ]),
        points,
    );
    let path = write_bench_json("fig_scale", &doc).expect("write BENCH_fig_scale.json");
    println!("wrote {}", path.display());
}
