//! Per-link fault injection: seeded drop / corrupt / reorder decisions.
//!
//! Each directed link owns a [`FaultInjector`] fed by its own
//! `Seed::stream`, so lossy runs stay bit-reproducible and adding a link
//! never perturbs another link's decision sequence. A zeroed
//! [`FaultConfig`] (the default) disables the layer entirely — the engine
//! then never consults an injector, keeping fault-free runs bit-identical
//! to builds that predate this module.
//!
//! Faults model the physical layer, so they sit *below* every security
//! mechanism: a dropped packet forces the RC transport (`ib-transport`)
//! to retransmit with its original PSN, which is exactly the workload the
//! §7 replay window must distinguish from an attacker's replay.

use ib_runtime::{Json, Rng, Seed, ToJson};

use crate::time::SimTime;

/// Per-link fault probabilities. All-zero (the default) means the fault
/// layer is skipped entirely.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Probability a packet vanishes on the wire.
    pub drop_prob: f64,
    /// Probability a packet arrives with flipped bits (dropped at the
    /// receiver's CRC check rather than on the wire).
    pub corrupt_prob: f64,
    /// Probability a packet is delayed past its successors.
    pub reorder_prob: f64,
    /// Maximum extra delay a reordered packet picks up (uniform in
    /// `0..reorder_delay_ps`).
    pub reorder_delay_ps: SimTime,
}

impl FaultConfig {
    /// Whether any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0 || self.corrupt_prob > 0.0 || self.reorder_prob > 0.0
    }

    /// A profile where every fault kind scales off one loss rate: drops at
    /// `loss`, corruption and reordering each at a quarter of it (the
    /// fig_replay sweep's x-axis).
    pub fn lossy(loss: f64, reorder_delay_ps: SimTime) -> FaultConfig {
        FaultConfig {
            drop_prob: loss,
            corrupt_prob: loss / 4.0,
            reorder_prob: loss / 4.0,
            reorder_delay_ps,
        }
    }

    /// JSON object form.
    pub(crate) fn to_json(self) -> Json {
        Json::obj([
            ("drop_prob", self.drop_prob.to_json()),
            ("corrupt_prob", self.corrupt_prob.to_json()),
            ("reorder_prob", self.reorder_prob.to_json()),
            ("reorder_delay_ps", self.reorder_delay_ps.to_json()),
        ])
    }
}

/// What the fault layer decided for one packet crossing one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultOutcome {
    /// The packet never arrives.
    Drop,
    /// The packet arrives `extra_delay_ps` late, with `corrupt` bit flips.
    Deliver {
        corrupt: bool,
        extra_delay_ps: SimTime,
    },
}

/// One directed link's fault state: the probabilities plus a dedicated RNG
/// stream (decisions on one link never consume another link's draws).
#[derive(Debug)]
pub(crate) struct FaultInjector {
    cfg: FaultConfig,
    rng: Rng,
}

impl FaultInjector {
    /// Build from the link's config and its dedicated seed stream.
    pub(crate) fn new(cfg: FaultConfig, seed: Seed) -> Self {
        FaultInjector {
            cfg,
            rng: seed.rng(),
        }
    }

    /// Decide the fate of one packet. Draw order is fixed
    /// (drop → corrupt → reorder) so traces replay exactly.
    pub(crate) fn decide(&mut self) -> FaultOutcome {
        if self.rng.gen_bool(self.cfg.drop_prob) {
            return FaultOutcome::Drop;
        }
        let corrupt = self.rng.gen_bool(self.cfg.corrupt_prob);
        let extra_delay_ps =
            if self.rng.gen_bool(self.cfg.reorder_prob) && self.cfg.reorder_delay_ps > 0 {
                self.rng.gen_range(0..self.cfg.reorder_delay_ps)
            } else {
                0
            };
        FaultOutcome::Deliver {
            corrupt,
            extra_delay_ps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inactive() {
        assert!(!FaultConfig::default().is_active());
        assert!(FaultConfig::lossy(0.02, 1000).is_active());
        assert!(!FaultConfig::lossy(0.0, 1000).is_active());
    }

    #[test]
    fn zero_probabilities_always_deliver_clean() {
        let mut inj = FaultInjector::new(FaultConfig::default(), Seed(1));
        for _ in 0..1000 {
            assert_eq!(
                inj.decide(),
                FaultOutcome::Deliver {
                    corrupt: false,
                    extra_delay_ps: 0
                }
            );
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let cfg = FaultConfig::lossy(0.1, 50_000);
        let trace = |seed: Seed| {
            let mut inj = FaultInjector::new(cfg, seed);
            (0..256).map(|_| inj.decide()).collect::<Vec<_>>()
        };
        assert_eq!(trace(Seed(7)), trace(Seed(7)));
        assert_ne!(trace(Seed(7)), trace(Seed(8)));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let cfg = FaultConfig {
            drop_prob: 0.25,
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, Seed(42));
        let drops = (0..10_000)
            .filter(|_| inj.decide() == FaultOutcome::Drop)
            .count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn reorder_delay_bounded() {
        let cfg = FaultConfig {
            reorder_prob: 1.0,
            reorder_delay_ps: 500,
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, Seed(3));
        for _ in 0..1000 {
            match inj.decide() {
                FaultOutcome::Deliver { extra_delay_ps, .. } => assert!(extra_delay_ps < 500),
                FaultOutcome::Drop => unreachable!("drop_prob is 0"),
            }
        }
    }

    #[test]
    fn fault_config_json_round_trip() {
        let cfg = FaultConfig::lossy(0.02, 75_000);
        let back = crate::reparsed(&cfg.to_json().to_string());
        assert_eq!(back.get("drop_prob").and_then(Json::as_f64), Some(0.02));
        assert_eq!(back.get("corrupt_prob").and_then(Json::as_f64), Some(0.005));
        assert_eq!(back.get("reorder_prob").and_then(Json::as_f64), Some(0.005));
        assert_eq!(
            back.get("reorder_delay_ps").and_then(Json::as_u64),
            Some(75_000)
        );
    }
}
