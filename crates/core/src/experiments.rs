//! Experiment runners: configured parameter sweeps that regenerate the
//! paper's Figures 1, 5 and 6 on the `ib-sim` testbed.
//!
//! Each `figN_*` function returns row structs the bench binaries print;
//! sweeps run one simulator instance per configuration on scoped threads
//! (`ib_runtime::par`; instances are independent and deterministic, so the
//! sweep is embarrassingly parallel — see the HPC guides' "parallelize
//! across independent work items" idiom).

use ib_mgmt::enforcement::EnforcementKind;
use ib_runtime::{Json, ToJson};
use ib_sim::config::{AuthMode, SimConfig, TrafficConfig};
use ib_sim::engine::{SimReport, Simulator};
use ib_sim::time::{MS, US};

/// How many seeds each experiment point is averaged over (random
/// partition grouping and attacker placement change per seed, exactly the
/// "random groups / random nodes" methodology of §3.1).
pub const DEFAULT_SEEDS: u64 = 5;

/// Point estimates averaged over seeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct AveragedPoint {
    pub rt_queuing_us: f64,
    pub rt_network_us: f64,
    pub be_queuing_us: f64,
    pub be_network_us: f64,
    pub legit_queuing_us: f64,
    pub legit_network_us: f64,
    pub legit_queuing_stddev_us: f64,
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
pub fn run_grid_seed_averaged(bases: &[SimConfig], seeds: u64) -> Vec<AveragedPoint> {
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
        duration: 10 * MS,
        warmup: MS,
        ..SimConfig::default()
    }
}

/// Regenerate Figure 1: one row per attacker count 0..=max, each averaged
/// over `seeds` random partition/attacker placements. The whole
/// (attackers × seed) grid runs as one flattened parallel work list.
pub fn fig1_with_seeds(max_attackers: usize, seeds: u64) -> Vec<Fig1Row> {
    let bases: Vec<SimConfig> = (0..=max_attackers).map(fig1_config).collect();
    run_grid_seed_averaged(&bases, seeds)
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

/// Regenerate Figure 1 with the default seed count.
pub fn fig1(max_attackers: usize) -> Vec<Fig1Row> {
    fig1_with_seeds(max_attackers, DEFAULT_SEEDS)
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

/// Figure 5's configuration: four attackers, attack probability 1 % per
/// epoch, swept over input load × enforcement method.
pub fn fig5_config(load: f64, enforcement: EnforcementKind) -> SimConfig {
    SimConfig {
        num_attackers: 4,
        attack_probability: 0.01,
        attack_epoch: 100 * US,
        // Every seed sees exactly one 1 %-of-runtime attack burst — the
        // duty-cycle reading of §6's "probability of DoS attack [set] to
        // 1 %" (a memoryless 1 % would leave most 10 ms runs attack-free).
        attack_schedule: ib_sim::config::AttackSchedule::DutyCycle,
        enforcement,
        traffic: TrafficConfig {
            realtime_load: load / 2.0,
            best_effort_load: load / 2.0,
            realtime_backoff_queue: 4,
        },
        duration: 10 * MS,
        warmup: MS,
        ..SimConfig::default()
    }
}

/// The four input loads of Figure 5/6.
pub const FIG5_LOADS: [f64; 4] = [0.4, 0.5, 0.6, 0.7];
/// Figure 5's bar order.
pub const FIG5_KINDS: [EnforcementKind; 4] = [
    EnforcementKind::NoFiltering,
    EnforcementKind::Dpt,
    EnforcementKind::If,
    EnforcementKind::Sif,
];

/// Regenerate Figure 5 (optionally with a non-default attack probability
/// for the sensitivity ablation in DESIGN.md), each cell averaged over
/// `seeds` placements.
pub fn fig5_with_attack_probability(attack_probability: f64, seeds: u64) -> Vec<Fig5Row> {
    let mut cells = Vec::new();
    let mut bases = Vec::new();
    for &load in &FIG5_LOADS {
        for &kind in &FIG5_KINDS {
            let mut cfg = fig5_config(load, kind);
            cfg.attack_probability = attack_probability;
            cells.push((load, kind));
            bases.push(cfg);
        }
    }
    run_grid_seed_averaged(&bases, seeds)
        .into_iter()
        .zip(cells)
        .map(|(p, (load, kind))| Fig5Row {
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

/// Regenerate Figure 5 with the paper's 1 % attack probability.
pub fn fig5() -> Vec<Fig5Row> {
    fig5_with_attack_probability(0.01, DEFAULT_SEEDS)
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
        duration: 10 * MS,
        warmup: MS,
        ..SimConfig::default()
    }
}

/// Regenerate Figure 6. `modes` defaults in the bench to
/// `[None, QpLevel]` (the paper's No Key / With Key bars); partition-level
/// is included by the ablation. Each cell averages `seeds` placements.
pub fn fig6_with_seeds(modes: &[AuthMode], seeds: u64) -> Vec<Fig6Row> {
    let mut cells = Vec::new();
    let mut bases = Vec::new();
    for &load in &FIG5_LOADS {
        for &mode in modes {
            cells.push((load, mode));
            bases.push(fig6_config(load, mode));
        }
    }
    run_grid_seed_averaged(&bases, seeds)
        .into_iter()
        .zip(cells)
        .map(|(p, (load, mode))| Fig6Row {
            input_load: load,
            mode,
            queuing_us: p.legit_queuing_us,
            network_us: p.legit_network_us,
            queuing_stddev_us: p.legit_queuing_stddev_us,
        })
        .collect()
}

/// Regenerate Figure 6 with the default seed count.
pub fn fig6(modes: &[AuthMode]) -> Vec<Fig6Row> {
    fig6_with_seeds(modes, DEFAULT_SEEDS)
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
