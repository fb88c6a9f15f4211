//! Traffic classes and generators (§3.1).

use ib_runtime::rng::Rng;

/// The kinds of traffic in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Continuous rate-limited stream on the high-priority VL.
    Realtime,
    /// Poisson-injected scientific-style traffic on the low-priority VL.
    BestEffort,
    /// DoS flood: full link speed, random destinations, random invalid
    /// P_Keys.
    Attack,
    /// Subnet-management MADs (traps and SM programming) on VL15.
    Management,
}

impl TrafficClass {
    /// Virtual lane this class travels on (realtime gets the
    /// higher-priority data VL; attack traffic mimics best-effort;
    /// management rides the dedicated VL15).
    pub(crate) fn vl(self) -> u8 {
        match self {
            TrafficClass::Realtime => 1,
            TrafficClass::BestEffort | TrafficClass::Attack => 0,
            TrafficClass::Management => 15,
        }
    }
}

/// Sample an exponential inter-arrival gap with the given mean (ps), for
/// Poisson best-effort arrivals. Clamped away from zero so events always
/// advance time.
pub(crate) fn exp_gap(rng: &mut Rng, mean_ps: f64) -> u64 {
    rng.exponential(mean_ps).max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lane_of;
    use ib_runtime::rng::Seed;

    /// Each class's VL, and the lane the engine serves it on: lanes are
    /// served highest first, so realtime outranks best-effort and attack
    /// traffic, and management outranks both.
    #[test]
    fn vls_and_priorities() {
        assert_eq!(TrafficClass::Realtime.vl(), 1);
        assert_eq!(TrafficClass::BestEffort.vl(), 0);
        assert_eq!(TrafficClass::Attack.vl(), 0);
        assert_eq!(TrafficClass::Management.vl(), 15);
        assert_eq!([0, 1, 15].map(lane_of), [0, 1, 2]);
        let lane = |class: TrafficClass| lane_of(class.vl());
        assert!(lane(TrafficClass::Realtime) > lane(TrafficClass::BestEffort));
        assert_eq!(lane(TrafficClass::Attack), lane(TrafficClass::BestEffort));
        assert!(lane(TrafficClass::Management) > lane(TrafficClass::Realtime));
    }

    #[test]
    fn exp_gap_mean_close() {
        let mut rng = Seed(7).rng();
        let mean = 10_000.0;
        let n = 50_000;
        let total: u64 = (0..n).map(|_| exp_gap(&mut rng, mean)).sum();
        let sample_mean = total as f64 / n as f64;
        assert!(
            (sample_mean - mean).abs() / mean < 0.05,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn exp_gap_always_positive() {
        let mut rng = Seed(8).rng();
        for _ in 0..1000 {
            assert!(exp_gap(&mut rng, 5.0) >= 1);
        }
    }
}
