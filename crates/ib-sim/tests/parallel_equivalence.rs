//! Randomized cross-engine equivalence and partition-shape properties,
//! driven by `ib_runtime::check` (failing cases persist to
//! `tests/corpus/` and replay before the random phase).
//!
//! The equivalence property is the parallel engine's whole contract:
//! for ANY config — topology, attackers, enforcement, trap transport,
//! faults — and ANY thread count, [`ib_sim::ParSimulator`] must produce
//! a report byte-identical to the serial oracle [`ib_sim::Simulator`].

use ib_mgmt::enforcement::EnforcementKind;
use ib_runtime::check::{self, Gen};
use ib_runtime::Seed;
use ib_sim::config::{AttackSchedule, TrapTransport};
use ib_sim::time::{MS, US};
use ib_sim::{AttackKeys, ParSimulator, Partition, SimConfig, Simulator, TopoSpec};

#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    topo: TopoSpec,
    mesh_dim: usize,
    attackers: usize,
    keys: AttackKeys,
    enforcement: EnforcementKind,
    transport: TrapTransport,
    schedule: AttackSchedule,
    faults: bool,
    threads: usize,
}

fn gen_topo(g: &mut Gen) -> TopoSpec {
    if g.bool() {
        TopoSpec::Mesh
    } else {
        TopoSpec::FatTree { k: 4 }
    }
}

fn gen_case(g: &mut Gen) -> Case {
    Case {
        seed: g.u64(),
        topo: gen_topo(g),
        mesh_dim: g.usize_in(2..5),
        attackers: g.usize_in(0..3),
        keys: match g.usize_in(0..3) {
            0 => AttackKeys::RandomInvalid,
            1 => AttackKeys::Valid,
            _ => AttackKeys::SmFlood,
        },
        enforcement: match g.usize_in(0..4) {
            0 => EnforcementKind::NoFiltering,
            1 => EnforcementKind::Dpt,
            2 => EnforcementKind::If,
            _ => EnforcementKind::Sif,
        },
        transport: if g.bool() {
            TrapTransport::OutOfBand
        } else {
            TrapTransport::InBand
        },
        schedule: if g.bool() {
            AttackSchedule::Probabilistic
        } else {
            AttackSchedule::DutyCycle
        },
        faults: g.bool(),
        threads: g.usize_in(2..7),
    }
}

/// Simpler variants: no attack machinery, no faults, fewer threads.
fn shrink_case(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    if case.attackers > 0 {
        out.push(Case {
            attackers: 0,
            ..case.clone()
        });
    }
    if case.faults {
        out.push(Case {
            faults: false,
            ..case.clone()
        });
    }
    if case.threads > 2 {
        out.push(Case {
            threads: 2,
            ..case.clone()
        });
    }
    out
}

fn build_cfg(case: &Case) -> SimConfig {
    let mut cfg = SimConfig {
        seed: Seed(case.seed),
        topology: case.topo,
        mesh_dim: case.mesh_dim,
        num_attackers: case.attackers,
        attack_keys: case.keys,
        attack_schedule: case.schedule,
        attack_probability: 1.0,
        enforcement: case.enforcement,
        trap_transport: case.transport,
        duration: MS,
        warmup: 100 * US,
        ..SimConfig::default()
    };
    if case.faults {
        cfg.fault.drop_prob = 0.02;
        cfg.fault.corrupt_prob = 0.01;
        cfg.fault.reorder_prob = 0.01;
        cfg.fault.reorder_delay_ps = 20 * US;
    }
    cfg
}

#[test]
fn parallel_report_matches_serial_on_random_configs() {
    check::run("parallel_equivalence", 12, gen_case, shrink_case, |case| {
        let cfg = build_cfg(case);
        let (serial, serial_events) = Simulator::new(cfg.clone()).run_counted();
        let mut par = ParSimulator::with_threads(cfg, case.threads);
        let preport = par.run();
        assert_eq!(
            serial.to_json().to_string(),
            preport.to_json().to_string(),
            "report diverged for {case:?}"
        );
        assert_eq!(
            serial_events,
            par.events_processed(),
            "event count diverged for {case:?}"
        );
    });
}

/// The co-simulation figures (fig_rdma, fig_rekey) run their fabrics on
/// the default mesh with one attacker; pin that engine config to the
/// serial oracle explicitly (shortened duration — the contract is
/// per-event, not per-length).
#[test]
fn cosim_figure_base_config_matches_serial() {
    let cfg = SimConfig {
        num_attackers: 1,
        duration: 3 * MS,
        warmup: 300 * US,
        ..SimConfig::default()
    };
    let (serial, serial_events) = Simulator::new(cfg.clone()).run_counted();
    for threads in [1, 4] {
        let mut par = ParSimulator::with_threads(cfg.clone(), threads);
        let preport = par.run();
        assert_eq!(
            serial.to_json().to_string(),
            preport.to_json().to_string(),
            "cosim base config diverged at {threads} threads"
        );
        assert_eq!(serial_events, par.events_processed());
    }
}

#[derive(Debug, Clone)]
struct PartCase {
    topo: TopoSpec,
    mesh_dim: usize,
    cap: usize,
}

#[test]
fn partition_covers_switches_and_reports_true_cross_delay() {
    check::run(
        "topology_partition",
        64,
        |g| PartCase {
            topo: gen_topo(g),
            mesh_dim: g.usize_in(2..7),
            cap: if g.bool() {
                usize::MAX
            } else {
                g.usize_in(1..9)
            },
        },
        check::no_shrink,
        |case| {
            let cfg = SimConfig {
                topology: case.topo,
                mesh_dim: case.mesh_dim,
                ..SimConfig::default()
            };
            let topo = cfg.build_topology();
            let part = Partition::of(&*topo, case.cap);

            // Every switch assigned exactly once, ids dense in
            // 0..num_domains, and the cap respected.
            assert_eq!(part.domain_of.len(), topo.num_switches());
            assert!(part.num_domains >= 1);
            assert!(part.num_domains <= case.cap.max(1));
            assert!(part.num_domains <= topo.num_switches());
            let mut seen = vec![false; part.num_domains];
            for &d in &part.domain_of {
                assert!(d < part.num_domains, "domain id out of range");
                seen[d] = true;
            }
            assert!(seen.iter().all(|&s| s), "domain ids must be dense");

            // Natural (uncapped) partitions keep locality cuts internal:
            // fat-tree pods keep edge<->agg links.
            if let (usize::MAX, TopoSpec::FatTree { k }) = (case.cap, case.topo) {
                assert_eq!(part.num_domains, k);
                let (internal, _) = part.link_census(&*topo);
                // k pods x (k/2 edge x k/2 agg) bidirectional.
                assert!(internal >= k * (k / 2) * (k / 2) * 2 / 2);
            }

            // min_cross_delay reports the true minimum over crossing
            // links: None iff no link crosses, else the constant delay.
            let delay = ib_sim::config::PROPAGATION_DELAY;
            let reported = part.min_cross_delay(&*topo, &|_, _| delay);
            let (_, cross) = part.link_census(&*topo);
            if cross == 0 {
                assert_eq!(reported, None);
            } else {
                assert_eq!(reported, Some(delay));
            }
        },
    );
}
