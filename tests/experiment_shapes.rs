//! Scaled-down versions of the paper's experiments, run as integration
//! tests: each asserts the qualitative *shape* the paper reports (who
//! wins, what explodes, what stays flat) on shortened, seed-averaged
//! simulations so the suite stays fast. The bench binaries run the
//! full-length versions.

use ib_mgmt::enforcement::EnforcementKind;
use ib_security::experiments::{
    fig1_config, fig5_config, fig6_config, run_many, run_seed_averaged,
};
use ib_sim::config::{AuthMode, SimConfig};
use ib_sim::time::{MS, US};

fn quick(mut cfg: SimConfig) -> SimConfig {
    cfg.duration = 3 * MS;
    cfg.warmup = 300 * US;
    cfg
}

/// Figure 1's headline: "even one attacker can decrease network
/// performance significantly" — attack traffic floods through to victims
/// and best-effort queuing grows.
#[test]
fn fig1_attack_reaches_victims_and_hurts() {
    let base = run_seed_averaged(&quick(fig1_config(0)), 2);
    let attacked = run_seed_averaged(&quick(fig1_config(1)), 2);
    // Attack traffic reached the victims (stock IBA blocks only at HCA).
    assert!(attacked.hca_blocked > 0);
    // And queuing did not improve (averaged over placements it grows).
    assert!(
        attacked.be_queuing_us > base.be_queuing_us * 0.9,
        "one attacker: BE queuing {} -> {}",
        base.be_queuing_us,
        attacked.be_queuing_us
    );
}

/// Figure 1's main effect: four attackers multiply best-effort queuing
/// while network latency grows far less.
#[test]
fn fig1_queuing_explodes_latency_does_not() {
    // The fig1 operating point sits at the fabric's knee; short runs need
    // extra seeds before the attack signal clears placement variance.
    let base = run_seed_averaged(&quick(fig1_config(0)), 6);
    let worst = run_seed_averaged(&quick(fig1_config(4)), 6);
    assert!(
        worst.be_queuing_us > base.be_queuing_us * 2.0,
        "4 attackers: {} -> {}",
        base.be_queuing_us,
        worst.be_queuing_us
    );
    let q_growth = worst.be_queuing_us / base.be_queuing_us.max(1e-9);
    let n_growth = worst.be_network_us / base.be_network_us.max(1e-9);
    assert!(
        q_growth > n_growth,
        "queuing x{q_growth:.1} vs latency x{n_growth:.1}"
    );
}

/// Figure 1(a) vs (b): realtime's VL priority shields it relative to
/// best-effort.
#[test]
fn fig1_realtime_shielded_relative_to_best_effort() {
    let r = run_seed_averaged(&quick(fig1_config(4)), 2);
    assert!(
        r.be_queuing_us >= r.rt_queuing_us,
        "BE {} vs RT {}",
        r.be_queuing_us,
        r.rt_queuing_us
    );
    assert!(
        r.be_network_us >= r.rt_network_us,
        "BE latency {} vs RT latency {}",
        r.be_network_us,
        r.rt_network_us
    );
}

/// Figure 5 with a full-probability attack (shape amplified for the short
/// run): every filtering method beats No-Filtering.
#[test]
fn fig5_filtering_ordering_under_sustained_attack() {
    let mk = |kind| {
        let mut cfg = quick(fig5_config(0.5, kind));
        cfg.attack_probability = 1.0;
        cfg
    };
    let points: Vec<_> = [
        EnforcementKind::NoFiltering,
        EnforcementKind::Dpt,
        EnforcementKind::If,
        EnforcementKind::Sif,
    ]
    .into_iter()
    .map(|k| run_seed_averaged(&mk(k), 2))
    .collect();
    let total: Vec<f64> = points
        .iter()
        .map(|p| p.legit_queuing_us + p.legit_network_us)
        .collect();
    let (nf, dpt, iff, sif) = (total[0], total[1], total[2], total[3]);
    assert!(dpt < nf, "DPT {dpt} must beat No-Filtering {nf}");
    assert!(iff < nf, "IF {iff} must beat No-Filtering {nf}");
    assert!(sif < nf, "SIF {sif} must beat No-Filtering {nf}");
    // DPT and IF never let an invalid packet through; SIF leaks until the
    // trap loop closes.
    assert_eq!(points[1].hca_blocked, 0);
    assert_eq!(points[2].hca_blocked, 0);
    assert!(points[3].hca_blocked > 0);
    assert!(points[3].filter_drops > 0);
}

/// §6's SIF observation: with rare attacks (the paper's 1 %), SIF pays
/// (almost) no lookup cycles, unlike DPT and IF which pay on every packet.
#[test]
fn fig5_sif_lookup_economy() {
    let reports = run_many(vec![
        quick(fig5_config(0.5, EnforcementKind::Dpt)),
        quick(fig5_config(0.5, EnforcementKind::If)),
        quick(fig5_config(0.5, EnforcementKind::Sif)),
    ]);
    let per_packet: Vec<f64> = reports
        .iter()
        .map(|r| r.lookup_cycles as f64 / r.generated.max(1) as f64)
        .collect();
    assert!(
        per_packet[0] > per_packet[1],
        "DPT {} > IF {}",
        per_packet[0],
        per_packet[1]
    );
    assert!(
        per_packet[2] < per_packet[1] * 0.5,
        "SIF {} must be well below IF {}",
        per_packet[2],
        per_packet[1]
    );
}

/// Figure 6: With-Key vs No-Key differ only marginally, for both
/// key-management levels, at a moderate load.
#[test]
fn fig6_auth_overhead_marginal() {
    let none = run_seed_averaged(&quick(fig6_config(0.4, AuthMode::None)), 2);
    let part = run_seed_averaged(&quick(fig6_config(0.4, AuthMode::PartitionLevel)), 2);
    let qp = run_seed_averaged(&quick(fig6_config(0.4, AuthMode::QpLevel)), 2);
    let total =
        |p: &ib_security::experiments::AveragedPoint| p.legit_queuing_us + p.legit_network_us;
    // Partition-level: secrets pre-distributed, overhead ~ one cycle/msg.
    assert!(
        (total(&part) - total(&none)).abs() < 1.0,
        "partition-level overhead: {} vs {}",
        total(&part),
        total(&none)
    );
    // QP-level: plus one RTT per pair, still marginal on average.
    assert!(
        total(&qp) - total(&none) < 5.0,
        "QP-level overhead: {} vs {}",
        total(&qp),
        total(&none)
    );
    assert!(
        total(&qp) + 1e-9 >= total(&none),
        "auth cannot speed things up: {} vs {}",
        total(&qp),
        total(&none)
    );
}

/// Determinism across thread-parallel sweeps: the same config in two
/// different batches yields identical statistics.
#[test]
fn sweeps_are_reproducible() {
    let a = run_many(vec![
        quick(fig1_config(2)),
        quick(fig5_config(0.4, EnforcementKind::Sif)),
    ]);
    let b = run_many(vec![
        quick(fig5_config(0.4, EnforcementKind::Sif)),
        quick(fig1_config(2)),
    ]);
    assert_eq!(a[0].generated, b[1].generated);
    assert_eq!(a[1].generated, b[0].generated);
    assert_eq!(a[0].hca_blocked, b[1].hca_blocked);
    assert!((a[1].legit_queuing_mean() - b[0].legit_queuing_mean()).abs() < 1e-12);
}
