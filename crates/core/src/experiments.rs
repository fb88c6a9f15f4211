//! Experiment runners: configured parameter sweeps that regenerate the
//! paper's Figures 1, 5 and 6 on the `ib-sim` testbed.
//!
//! Each figure has one grid function, `figN_rows(seed, smoke)`, returning
//! the row structs its bench binary prints; sweeps run one simulator
//! instance per configuration on scoped threads (`ib_runtime::par`;
//! instances are independent and deterministic, so the sweep is
//! embarrassingly parallel — see the HPC guides' "parallelize across
//! independent work items" idiom).

use ib_mgmt::enforcement::EnforcementKind;
use ib_runtime::{Json, Seed, ToJson};
use ib_sim::config::{AuthMode, SimConfig, TrafficConfig};
use ib_sim::engine::{SimReport, Simulator};
use ib_sim::time::{SimTime, MS, US};

/// How many seeds each experiment point is averaged over (random
/// partition grouping and attacker placement change per seed, exactly the
/// "random groups / random nodes" methodology of §3.1).
const DEFAULT_SEEDS: u64 = 5;

/// How long each cell of a figure simulates and how many seeds it
/// averages. Every figure has a full run and a smoke run (`--smoke`).
#[derive(Debug, Clone, Copy)]
pub struct FigureRun {
    pub(crate) duration: SimTime,
    pub(crate) warmup: SimTime,
    pub seeds: u64,
}

/// Figure 1's full run. Figure 1 is the cheapest sweep, so it affords
/// extra seeds: attacker placement dominates the variance of the middle
/// points.
const FIG1_FULL: FigureRun = FigureRun {
    duration: 10 * MS,
    warmup: MS,
    seeds: DEFAULT_SEEDS + 4,
};
const FIG1_SMOKE: FigureRun = FigureRun {
    duration: 3 * MS,
    warmup: 300 * US,
    seeds: 6,
};
/// The full run of Figures 5 and 6.
const FIG56_FULL: FigureRun = FigureRun {
    duration: 10 * MS,
    warmup: MS,
    seeds: DEFAULT_SEEDS,
};
const FIG56_SMOKE: FigureRun = FigureRun {
    duration: 4 * MS,
    warmup: 400 * US,
    seeds: 2,
};

impl FigureRun {
    /// Figure 1's run, smoke or full.
    pub fn fig1(smoke: bool) -> FigureRun {
        if smoke {
            FIG1_SMOKE
        } else {
            FIG1_FULL
        }
    }

    /// The run of Figures 5 and 6, smoke or full.
    pub fn fig56(smoke: bool) -> FigureRun {
        if smoke {
            FIG56_SMOKE
        } else {
            FIG56_FULL
        }
    }

    /// `cfg` cut to this run's length, seeded from `seed` (the run's
    /// seeds are streams of it, `seed.stream(0..seeds)`).
    pub fn cell(&self, mut cfg: SimConfig, seed: Seed) -> SimConfig {
        cfg.seed = seed;
        cfg.duration = self.duration;
        cfg.warmup = self.warmup;
        cfg
    }

    /// Every base run as a [`cell`](Self::cell), averaged over the run's
    /// seeds, in base order.
    fn average(&self, bases: Vec<SimConfig>, seed: Seed) -> Vec<AveragedPoint> {
        let cells: Vec<SimConfig> = bases.into_iter().map(|c| self.cell(c, seed)).collect();
        run_grid_seed_averaged(&cells, self.seeds)
    }
}

/// Point estimates averaged over seeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct AveragedPoint {
    pub rt_queuing_us: f64,
    pub rt_network_us: f64,
    pub be_queuing_us: f64,
    pub be_network_us: f64,
    pub legit_queuing_us: f64,
    pub legit_network_us: f64,
    pub(crate) legit_queuing_stddev_us: f64,
    pub filter_drops: u64,
    pub hca_blocked: u64,
    pub traps: u64,
    pub lookup_cycles: u64,
    pub generated: u64,
}

/// Average one point's per-seed reports, strictly in seed order. Shared
/// by the single-point and grid runners so the two produce bit-identical
/// floating-point results (same values, same summation order).
fn average_reports(reports: &[SimReport]) -> AveragedPoint {
    let n = reports.len() as f64;
    let mut p = AveragedPoint::default();
    for r in reports {
        p.rt_queuing_us += r.realtime.queuing.mean() / n;
        p.rt_network_us += r.realtime.network.mean() / n;
        p.be_queuing_us += r.best_effort.queuing.mean() / n;
        p.be_network_us += r.best_effort.network.mean() / n;
        p.legit_queuing_us += r.legit_queuing_mean() / n;
        p.legit_network_us += r.legit_network_mean() / n;
        p.legit_queuing_stddev_us += r.legit_queuing_stddev() / n;
        p.filter_drops += r.filter_drops;
        p.hca_blocked += r.hca_blocked;
        p.traps += r.traps;
        p.lookup_cycles += r.lookup_cycles;
        p.generated += r.generated;
    }
    p
}

/// Run `base` under `seeds` different seeds (in parallel) and average the
/// per-run statistics.
pub fn run_seed_averaged(base: &SimConfig, seeds: u64) -> AveragedPoint {
    run_grid_seed_averaged(std::slice::from_ref(base), seeds)
        .pop()
        .expect("one base produces one point")
}

/// Run a whole sweep — every `(grid point × seed)` pair — as **one**
/// flattened parallel work list, then fold each point's shard back down
/// in seed order.
///
/// Sweeping point-by-point wastes a thread-pool barrier per point: the
/// last seed of point *k* gates the first seed of point *k+1* even
/// though every simulation is independent. Flattening keeps all cores
/// busy across the entire grid. Because each run's seed is
/// `base.seed.stream(s)` regardless of where it sits in the work list,
/// and `average_reports` folds shards in seed order, the result is
/// bit-identical to calling [`run_seed_averaged`] per point.
fn run_grid_seed_averaged(bases: &[SimConfig], seeds: u64) -> Vec<AveragedPoint> {
    let seeds = seeds.max(1);
    let configs: Vec<SimConfig> = bases
        .iter()
        .flat_map(|base| {
            (0..seeds).map(move |s| {
                let mut cfg = base.clone();
                // SplitMix-mixed stream derivation: repeat seeds share no
                // state structure even for adjacent indices.
                cfg.seed = base.seed.stream(s);
                cfg
            })
        })
        .collect();
    let reports = run_many(configs);
    reports
        .chunks(seeds as usize)
        .map(average_reports)
        .collect()
}

/// Run every configuration, in parallel, preserving order.
///
/// Dynamically scheduled: workers pull the next grid×seed cell from an
/// atomic cursor, because cell costs are wildly skewed — an attack-active
/// cell generates many times the events of an idle one, so a static chunk
/// assignment (or one OS thread per cell) straggles. Results land in
/// slots indexed by input position, so the output — and every
/// order-sensitive fold over it, like `average_reports` — stays
/// bit-identical no matter which worker ran which cell. Worker count
/// follows [`ib_runtime::par::default_threads`] (overridable via
/// `IB_THREADS`).
pub fn run_many(configs: Vec<SimConfig>) -> Vec<SimReport> {
    let threads = ib_runtime::par::default_threads();
    ib_runtime::par::scope_map_dynamic(configs, threads, |cfg| Simulator::new(cfg).run())
}

// ------------------------------------------------------------------ Figure 1

/// One x-axis point of Figure 1 (a) and (b): delays vs number of attackers.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    pub attackers: usize,
    /// Realtime traffic (Figure 1a), µs.
    pub rt_queuing_us: f64,
    pub rt_network_us: f64,
    /// Best-effort traffic (Figure 1b), µs.
    pub be_queuing_us: f64,
    pub be_network_us: f64,
}

impl Fig1Row {
    /// JSON object form (one BENCH_fig1.json point).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("attackers", (self.attackers as u64).to_json()),
            ("rt_queuing_us", self.rt_queuing_us.to_json()),
            ("rt_network_us", self.rt_network_us.to_json()),
            ("be_queuing_us", self.be_queuing_us.to_json()),
            ("be_network_us", self.be_network_us.to_json()),
        ])
    }
}

/// The Figure 1 configuration: 16-node mesh, four random partitions,
/// victims at a fixed predefined rate, attackers at full 2.5 Gb/s with
/// random destinations, swept over 0–4 attackers.
pub fn fig1_config(attackers: usize) -> SimConfig {
    SimConfig {
        num_attackers: attackers,
        attack_probability: 1.0, // Figure 1 attack runs continuously
        traffic: TrafficConfig {
            // Operating point calibrated so the no-attack baseline sits at
            // the paper's ~2-5 µs queuing / ~20 µs latency, close enough to
            // the fabric's knee that a flood visibly bends the curve.
            realtime_load: 0.25,
            best_effort_load: 0.30,
            realtime_backoff_queue: 8,
        },
        duration: FIG1_FULL.duration,
        warmup: FIG1_FULL.warmup,
        ..SimConfig::default()
    }
}

/// Figure 1's x axis runs over `0..=FIG1_MAX_ATTACKERS` attackers.
pub const FIG1_MAX_ATTACKERS: usize = 4;

/// Regenerate Figure 1: one row per attacker count, each averaged over
/// [`FigureRun::fig1`]'s random partition/attacker placements. The whole
/// (attackers × seed) grid runs as one flattened parallel work list.
pub fn fig1_rows(seed: Seed, smoke: bool) -> Vec<Fig1Row> {
    let bases = (0..=FIG1_MAX_ATTACKERS).map(fig1_config).collect();
    FigureRun::fig1(smoke)
        .average(bases, seed)
        .into_iter()
        .enumerate()
        .map(|(attackers, p)| Fig1Row {
            attackers,
            rt_queuing_us: p.rt_queuing_us,
            rt_network_us: p.rt_network_us,
            be_queuing_us: p.be_queuing_us,
            be_network_us: p.be_network_us,
        })
        .collect()
}

// ------------------------------------------------------------------ Figure 5

/// One bar of Figure 5: an (input load, enforcement) cell.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    pub input_load: f64,
    pub enforcement: EnforcementKind,
    /// Mean network delay of non-attacking traffic, µs.
    pub network_us: f64,
    /// Mean queuing delay of non-attacking traffic, µs.
    pub queuing_us: f64,
    /// Standard deviation of queuing delay (the §6 variance discussion).
    pub stddev_us: f64,
    /// Attack packets stopped in the fabric vs at HCAs.
    pub filter_drops: u64,
    pub hca_blocked: u64,
}

impl Fig5Row {
    /// JSON object form (one BENCH_fig5.json cell).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("input_load", self.input_load.to_json()),
            ("enforcement", self.enforcement.label().to_json()),
            ("network_us", self.network_us.to_json()),
            ("queuing_us", self.queuing_us.to_json()),
            ("stddev_us", self.stddev_us.to_json()),
            ("filter_drops", self.filter_drops.to_json()),
            ("hca_blocked", self.hca_blocked.to_json()),
        ])
    }
}

/// The paper's §6 attack probability for Figure 5.
pub const FIG5_ATTACK_PROBABILITY: f64 = 0.01;

/// Figure 5's configuration: four attackers flooding 1 % of the run,
/// swept over input load × enforcement method.
pub fn fig5_config(load: f64, enforcement: EnforcementKind) -> SimConfig {
    SimConfig {
        num_attackers: 4,
        // Every seed sees exactly one 1 %-of-runtime attack burst — the
        // duty-cycle reading of §6's "probability of DoS attack [set] to
        // 1 %" (a memoryless 1 % would leave most 10 ms runs attack-free).
        attack_probability: FIG5_ATTACK_PROBABILITY,
        enforcement,
        traffic: TrafficConfig {
            realtime_load: load / 2.0,
            best_effort_load: load / 2.0,
            realtime_backoff_queue: 4,
        },
        duration: FIG56_FULL.duration,
        warmup: FIG56_FULL.warmup,
        ..SimConfig::default()
    }
}

/// The four input loads of Figure 5/6.
const FIG5_LOADS: [f64; 4] = [0.4, 0.5, 0.6, 0.7];
/// Figure 5's bar order.
const FIG5_KINDS: [EnforcementKind; 4] = [
    EnforcementKind::NoFiltering,
    EnforcementKind::Dpt,
    EnforcementKind::If,
    EnforcementKind::Sif,
];

/// Every (load × arm) cell of Figures 5 and 6, in row order, each
/// averaged over [`FigureRun::fig56`]'s placements.
fn load_grid<A: Copy>(
    arms: &[A],
    config: fn(f64, A) -> SimConfig,
    seed: Seed,
    smoke: bool,
) -> Vec<(f64, A, AveragedPoint)> {
    let cells: Vec<(f64, A)> = FIG5_LOADS
        .iter()
        .flat_map(|&load| arms.iter().map(move |&arm| (load, arm)))
        .collect();
    let bases = cells.iter().map(|&(load, arm)| config(load, arm)).collect();
    let points = FigureRun::fig56(smoke).average(bases, seed);
    cells
        .into_iter()
        .zip(points)
        .map(|((l, a), p)| (l, a, p))
        .collect()
}

/// Regenerate Figure 5: one row per (load × method) cell. The
/// attack-probability sensitivity sweep is ablation 1 (`ablations`).
pub fn fig5_rows(seed: Seed, smoke: bool) -> Vec<Fig5Row> {
    load_grid(&FIG5_KINDS, fig5_config, seed, smoke)
        .into_iter()
        .map(|(load, kind, p)| Fig5Row {
            input_load: load,
            enforcement: kind,
            network_us: p.legit_network_us,
            queuing_us: p.legit_queuing_us,
            stddev_us: p.legit_queuing_stddev_us,
            filter_drops: p.filter_drops,
            hca_blocked: p.hca_blocked,
        })
        .collect()
}

// ------------------------------------------------------------------ Figure 6

/// One bar pair of Figure 6: queuing and network delay with and without
/// key management + authentication.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    pub input_load: f64,
    pub mode: AuthMode,
    pub queuing_us: f64,
    pub network_us: f64,
    pub queuing_stddev_us: f64,
}

impl Fig6Row {
    /// JSON object form (one BENCH_fig6.json cell).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("input_load", self.input_load.to_json()),
            ("mode", self.mode.label().to_json()),
            ("queuing_us", self.queuing_us.to_json()),
            ("network_us", self.network_us.to_json()),
            ("queuing_stddev_us", self.queuing_stddev_us.to_json()),
        ])
    }
}

/// Figure 6's configuration: no attackers, input load sweep, QP-level key
/// management charged one RTT per new pair plus one cycle per message.
pub fn fig6_config(load: f64, mode: AuthMode) -> SimConfig {
    SimConfig {
        auth: mode,
        traffic: TrafficConfig {
            realtime_load: load / 2.0,
            best_effort_load: load / 2.0,
            realtime_backoff_queue: 4,
        },
        duration: FIG56_FULL.duration,
        warmup: FIG56_FULL.warmup,
        ..SimConfig::default()
    }
}

/// Figure 6's arms per load: the paper's No Key and With Key (QP-level)
/// bars, with the partition-level key scope between them (ablation 8).
const FIG6_MODES: [AuthMode; 3] = [AuthMode::None, AuthMode::PartitionLevel, AuthMode::QpLevel];

/// Regenerate Figure 6: one row per (load × mode) cell.
pub fn fig6_rows(seed: Seed, smoke: bool) -> Vec<Fig6Row> {
    load_grid(&FIG6_MODES, fig6_config, seed, smoke)
        .into_iter()
        .map(|(load, mode, p)| Fig6Row {
            input_load: load,
            mode,
            queuing_us: p.legit_queuing_us,
            network_us: p.legit_network_us,
            queuing_stddev_us: p.legit_queuing_stddev_us,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mut cfg: SimConfig) -> SimConfig {
        cfg.duration = 2 * MS;
        cfg.warmup = 200 * US;
        cfg
    }

    #[test]
    fn run_many_preserves_order_and_determinism() {
        let configs = vec![quick(fig1_config(0)), quick(fig1_config(2))];
        let a = run_many(configs.clone());
        let b = run_many(configs);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].generated, b[0].generated);
        assert_eq!(a[1].generated, b[1].generated);
        // The two configs genuinely differ (second has attackers).
        assert_eq!(a[0].hca_blocked, 0);
        assert!(a[1].hca_blocked > 0);
    }

    /// The flattened grid runner must be *bit-identical* to running each
    /// point serially — same seeds, same fold order, same f64 results —
    /// or sharded sweeps would not reproduce published numbers.
    #[test]
    fn grid_runner_bit_identical_to_per_point() {
        let bases = vec![quick(fig1_config(0)), quick(fig1_config(3))];
        let grid = run_grid_seed_averaged(&bases, 3);
        assert_eq!(grid.len(), 2);
        for (base, got) in bases.iter().zip(&grid) {
            let solo = run_seed_averaged(base, 3);
            assert_eq!(solo.rt_queuing_us.to_bits(), got.rt_queuing_us.to_bits());
            assert_eq!(solo.be_queuing_us.to_bits(), got.be_queuing_us.to_bits());
            assert_eq!(solo.be_network_us.to_bits(), got.be_network_us.to_bits());
            assert_eq!(
                solo.legit_queuing_stddev_us.to_bits(),
                got.legit_queuing_stddev_us.to_bits()
            );
            assert_eq!(solo.filter_drops, got.filter_drops);
            assert_eq!(solo.generated, got.generated);
        }
    }

    #[test]
    fn fig1_shape_queuing_grows_latency_flatter() {
        // Scaled-down fig1: 0 vs 4 attackers. The operating point sits at
        // the fabric's knee, so short runs need several seeds before the
        // attack signal clears placement variance.
        let longer = |mut cfg: SimConfig| {
            cfg.duration = 4 * MS;
            cfg.warmup = 400 * US;
            cfg
        };
        let base = run_seed_averaged(&longer(fig1_config(0)), 6);
        let attacked = run_seed_averaged(&longer(fig1_config(4)), 6);
        assert!(
            attacked.be_queuing_us > base.be_queuing_us * 1.5,
            "BE queuing must grow: {} -> {}",
            base.be_queuing_us,
            attacked.be_queuing_us
        );
        // Network latency grows far less than queuing in relative terms.
        let q_growth = attacked.be_queuing_us / base.be_queuing_us.max(1e-9);
        let n_growth = attacked.be_network_us / base.be_network_us.max(1e-9);
        assert!(
            q_growth > n_growth,
            "queuing amplification {q_growth} should beat latency amplification {n_growth}"
        );
    }

    #[test]
    fn fig5_filtering_beats_no_filtering_under_attack() {
        // Full-probability attack at one load to keep the test fast.
        let mut no_f = fig5_config(0.5, EnforcementKind::NoFiltering);
        no_f.attack_probability = 1.0;
        let mut with_if = fig5_config(0.5, EnforcementKind::If);
        with_if.attack_probability = 1.0;
        let reports = run_many(vec![quick(no_f), quick(with_if)]);
        assert!(
            reports[1].legit_queuing_mean() < reports[0].legit_queuing_mean(),
            "IF {} must beat No-Filtering {}",
            reports[1].legit_queuing_mean(),
            reports[0].legit_queuing_mean()
        );
    }

    #[test]
    fn fig6_overhead_is_marginal() {
        let reports = run_many(vec![
            quick(fig6_config(0.4, AuthMode::None)),
            quick(fig6_config(0.4, AuthMode::QpLevel)),
        ]);
        let no_key = reports[0].legit_queuing_mean();
        let with_key = reports[1].legit_queuing_mean();
        assert!(with_key >= no_key, "{with_key} vs {no_key}");
        assert!(
            with_key - no_key < 5.0,
            "overhead must be marginal: {with_key} vs {no_key}"
        );
    }
}
