//! Scale-out sweep — node count × topology × engine. A seeded random
//! permutation of bulk flows crosses each generated fabric (2-D mesh,
//! k-ary fat-tree), once through the packet engine (ground truth:
//! credits, arbitration, store-and-forward) and once through the
//! `ib-flow` max-min fluid model. The figure shows where the fast path
//! earns its keep: identical paths and near-identical completion times at
//! a tiny fraction of the events.
//!
//! Full mode climbs to 1024 HCAs (fat-tree k=16 → 1024 hosts) on both
//! engines. Smoke mode keeps the fabrics small and zeroes the wall-clock
//! fields so two same-seed runs emit byte-identical
//! `BENCH_fig_scale.json` (the ci.sh determinism gate).
//!
//! The packet engine also runs sharded (`ib_sim::ParSimulator`) at each
//! thread count in the `threads` axis (default 1/2/4, overridable with
//! `IB_THREADS=a,b,c`), reporting `speedup_vs_serial` and per-thread
//! event rates. Every parallel run is asserted identical to the serial
//! oracle — completions, event count, and arena high-water — at every
//! thread count, in both modes; full mode additionally gates ≥2×
//! speedup at 4 threads on the 1024-host fat-tree.
//!
//! Usage: `fig_scale [--smoke] [--seed S]`

use bench::{parse_args, render_table, write_bench_json};
use ib_flow::{simulate, Flow};
use ib_runtime::{bench::bench_doc, Json, Rng, Seed, ToJson};
use ib_sim::{ParSimulator, SimConfig, SimTime, Simulator, TopoSpec};
use std::time::Instant;

/// Full-mode speedup floor for the sharded engine at 4 threads on the
/// 1024-host fat-tree permutation — applied when the host actually has
/// that many CPUs. On narrower machines parallel scaling is unobservable,
/// so the gate degrades to "sharding must not lose to serial" and the
/// JSON records `host_cpus` so readers can interpret the numbers.
const SPEEDUP_FLOOR: f64 = 2.0;
const SPEEDUP_FLOOR_DEGRADED: f64 = 0.95;
const SPEEDUP_ARM: &str = "fat-tree-16";
const SPEEDUP_THREADS: usize = 4;

/// Packet-vs-flow agreement bound on the calibration arm (the 2×2 mesh),
/// mirroring the `ib-flow` crossval gate.
const CROSSVAL_TOLERANCE: f64 = 0.25;

/// One swept fabric; both engines run on every arm.
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
        // permutation is the only load in both engines.
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
/// `bytes`-sized flow to `perm[i]`.
fn permutation_flows(n: usize, bytes: u64, seed: Seed) -> Vec<Flow> {
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
    (0..n)
        .map(|src| Flow {
            src,
            dst: perm[src],
            bytes,
        })
        .collect()
}

/// Sorted-sample percentile (nearest-rank, deterministic).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The per-engine measurements of one arm.
struct Run {
    engine: String,
    /// Worker threads (1 for the serial engine and the fluid model).
    threads: usize,
    completions_ps: Vec<f64>,
    /// Packet: scheduler events handled. Flow: rate-recompute epochs.
    events: u64,
    /// Packet: packet-arena high-water slots. Flow: path-table entries.
    peak_mem_items: u64,
    wall_ms: f64,
}

/// CPUs actually usable by this process (affinity/cgroup-aware).
fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The `threads` axis: `IB_THREADS=a,b,c` overrides the default 1/2/4.
fn thread_counts() -> Vec<usize> {
    match std::env::var("IB_THREADS") {
        Ok(v) => v
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("IB_THREADS: bad thread count {t:?}"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

fn run_packet(cfg: &SimConfig, flows: &[Flow]) -> Run {
    let start = Instant::now();
    let mut sim = Simulator::new(cfg.clone());
    for f in flows {
        sim.post_flow(f.src, f.dst, f.bytes);
    }
    sim.run_hosts_until(SimTime::MAX);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let completions_ps: Vec<f64> = sim
        .flows()
        .iter()
        .map(|f| {
            f.completed_at
                .expect("permutation flows complete: one partition, no faults") as f64
        })
        .collect();
    Run {
        engine: "packet".into(),
        threads: 1,
        completions_ps,
        events: sim.events_processed(),
        peak_mem_items: sim.peak_packets() as u64,
        wall_ms,
    }
}

/// The sharded engine at an explicit thread count; asserted bit-identical
/// to the serial run by the caller.
fn run_parallel(cfg: &SimConfig, flows: &[Flow], threads: usize) -> Run {
    let start = Instant::now();
    let mut sim = ParSimulator::with_threads(cfg.clone(), threads);
    for f in flows {
        sim.post_flow(f.src, f.dst, f.bytes);
    }
    sim.run();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let completions_ps: Vec<f64> = sim
        .flows()
        .iter()
        .map(|f| {
            f.completed_at
                .expect("permutation flows complete: one partition, no faults") as f64
        })
        .collect();
    Run {
        engine: "packet-par".into(),
        threads,
        completions_ps,
        events: sim.events_processed(),
        peak_mem_items: sim.peak_packets() as u64,
        wall_ms,
    }
}

fn run_flow(cfg: &SimConfig, flows: &[Flow]) -> Run {
    let topo = cfg.build_topology();
    let start = Instant::now();
    let rep = simulate(&*topo, cfg, flows);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    // Path-table entries are the fluid model's dominant allocation: one
    // link id per hop per flow.
    let path_entries: u64 = flows
        .iter()
        .map(|f| topo.hops_on_path(f.src, f.dst, ib_sim::flow_hash(f.src, f.dst)) as u64 + 2)
        .sum();
    Run {
        engine: "flow".into(),
        threads: 1,
        completions_ps: rep.completions_ps,
        events: rep.epochs as u64,
        peak_mem_items: path_entries,
        wall_ms,
    }
}

fn point_json(arm: &Arm, cfg: &SimConfig, run: &Run, serial_wall_ms: f64, smoke: bool) -> Json {
    let mut fct = run.completions_ps.clone();
    fct.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let makespan_ps = fct.last().copied().unwrap_or(0.0);
    let topo = cfg.build_topology();
    // Smoke zeroes the wall-clock-derived fields so the double-run
    // byte-diff gate can hold; full mode reports the real numbers.
    let (wall_ms, events_per_sec, speedup) = if smoke {
        (0.0, 0.0, 0.0)
    } else {
        (
            run.wall_ms,
            run.events as f64 / (run.wall_ms / 1e3).max(1e-9),
            serial_wall_ms / run.wall_ms.max(1e-9),
        )
    };
    Json::obj([
        ("arm", arm.label.to_json()),
        ("topology", topo.name().to_json()),
        ("engine", run.engine.to_json()),
        ("threads", (run.threads as u64).to_json()),
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
        (
            "events_per_sec_per_thread",
            (events_per_sec / run.threads.max(1) as f64).to_json(),
        ),
        ("speedup_vs_serial", speedup.to_json()),
    ])
}

fn main() {
    let (smoke, seed) = parse_args(std::env::args());
    let flow_bytes: u64 = if smoke { 16 * 1024 } else { 64 * 1024 };

    let swept = arms(smoke);
    let threads_axis = thread_counts();
    let mut points: Vec<Json> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    let mut crossval: Option<(f64, f64)> = None; // mesh-2 (packet, flow) makespan
    let mut biggest = 0usize;
    let mut gate_speedup: Option<f64> = None; // fat-tree-16 @ 4 threads

    for arm in &swept {
        let cfg = config_for(seed, arm);
        let n = cfg.num_nodes();
        biggest = biggest.max(n);
        let flows = permutation_flows(n, flow_bytes, seed);

        let serial = run_packet(&cfg, &flows);
        let mut runs: Vec<Run> = Vec::new();
        for &t in &threads_axis {
            let par = run_parallel(&cfg, &flows, t);
            // The tentpole contract: sharded results are identical
            // to the serial oracle at every thread count.
            assert_eq!(
                serial.completions_ps, par.completions_ps,
                "{}: parallel completions diverged at {t} threads",
                arm.label
            );
            assert_eq!(
                serial.events, par.events,
                "{}: parallel event count diverged at {t} threads",
                arm.label
            );
            assert_eq!(
                serial.peak_mem_items, par.peak_mem_items,
                "{}: parallel arena high-water diverged at {t} threads",
                arm.label
            );
            if arm.label == SPEEDUP_ARM && t == SPEEDUP_THREADS {
                gate_speedup = Some(serial.wall_ms / par.wall_ms.max(1e-9));
            }
            runs.push(par);
        }
        let serial_wall = serial.wall_ms;
        runs.insert(0, serial);
        runs.push(run_flow(&cfg, &flows));
        // Determinism spot-check: the fluid model is pure arithmetic.
        let again = run_flow(&cfg, &flows);
        assert_eq!(
            runs.last().unwrap().completions_ps,
            again.completions_ps,
            "{}: flow model must be bit-deterministic",
            arm.label
        );

        if arm.label == "mesh-2" {
            let pkt = runs.iter().find(|r| r.engine == "packet").unwrap();
            let flw = runs.iter().find(|r| r.engine == "flow").unwrap();
            let span = |r: &Run| r.completions_ps.iter().fold(0.0f64, |a, &b| a.max(b));
            crossval = Some((span(pkt), span(flw)));
        }

        for run in &runs {
            // Speedup baseline: the serial packet engine for its sharded
            // variants; each other engine is its own baseline (1.0).
            let base = if run.engine == "packet-par" {
                serial_wall
            } else {
                run.wall_ms
            };
            let p = point_json(arm, &cfg, run, base, smoke);
            table.push(vec![
                arm.label.to_string(),
                run.engine.clone(),
                run.threads.to_string(),
                p.get("nodes").unwrap().as_u64().unwrap().to_string(),
                p.get("switches").unwrap().as_u64().unwrap().to_string(),
                format!("{:.1}", p.get("fct_p50_us").unwrap().as_f64().unwrap()),
                format!("{:.1}", p.get("fct_p99_us").unwrap().as_f64().unwrap()),
                format!("{:.1}", p.get("makespan_us").unwrap().as_f64().unwrap()),
                run.events.to_string(),
                run.peak_mem_items.to_string(),
                if smoke {
                    "-".into()
                } else {
                    format!("{:.0}", run.wall_ms)
                },
                if smoke {
                    "-".into()
                } else {
                    format!(
                        "{:.2}",
                        p.get("speedup_vs_serial").unwrap().as_f64().unwrap()
                    )
                },
            ]);
            points.push(p);
        }
    }

    println!(
        "Scale-out sweep: permutation of {}-KiB flows, packet vs flow engine (seed {seed})",
        flow_bytes / 1024
    );
    println!(
        "{}",
        render_table(
            &[
                "arm",
                "engine",
                "thr",
                "nodes",
                "switches",
                "p50 (us)",
                "p99 (us)",
                "makespan (us)",
                "events",
                "peak mem",
                "wall (ms)",
                "speedup"
            ],
            &table
        )
    );

    // ---- acceptance assertions ----
    let (pkt_span, flw_span) = crossval.expect("mesh-2 calibration arm must run both engines");
    let rel = (pkt_span - flw_span).abs() / pkt_span;
    assert!(
        rel <= CROSSVAL_TOLERANCE,
        "packet vs flow makespan disagree on mesh-2: {pkt_span:.0} vs {flw_span:.0} ({:.1}%)",
        rel * 100.0
    );
    if !smoke {
        assert!(
            biggest >= 1024,
            "full sweep must reach ≥1024 HCAs, peaked at {biggest}"
        );
        if threads_axis.contains(&SPEEDUP_THREADS) {
            let sp = gate_speedup
                .expect("full sweep includes the fat-tree-16 arm at the gated thread count");
            let host = host_cpus();
            let floor = if host >= SPEEDUP_THREADS {
                SPEEDUP_FLOOR
            } else {
                SPEEDUP_FLOOR_DEGRADED
            };
            assert!(
                sp >= floor,
                "sharded engine must reach {floor}x at {SPEEDUP_THREADS} threads \
                 on {SPEEDUP_ARM} ({host} host CPUs), got {sp:.2}x"
            );
            println!(
                "speedup gate: {sp:.2}x at {SPEEDUP_THREADS} threads on {SPEEDUP_ARM} \
                 (floor {floor}x, {host} host CPUs)"
            );
        }
    }

    println!(
        "OK: every flow completed on every fabric; packet vs flow within {:.1}% on mesh-2; \
         sharded engine identical to serial at {} thread count(s); largest fabric {biggest} HCAs.",
        rel * 100.0,
        threads_axis.len()
    );

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
            (
                "threads",
                Json::arr(threads_axis.iter().map(|&t| (t as u64).to_json())),
            ),
            (
                "ib_threads_env",
                match std::env::var("IB_THREADS") {
                    Ok(v) => v.to_json(),
                    Err(_) => Json::Null,
                },
            ),
            ("host_cpus", (host_cpus() as u64).to_json()),
            ("workload", "random permutation, no fixed points".to_json()),
            ("base", config_for(seed, &swept[0]).to_json()),
            ("crossval_rel_err", rel.to_json()),
            ("smoke", smoke.to_json()),
        ]),
        points,
    );
    let path = write_bench_json("fig_scale", &doc).expect("write BENCH_fig_scale.json");
    println!("wrote {}", path.display());
}
