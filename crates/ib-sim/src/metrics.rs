//! Online statistics for the quantities the paper reports: mean and
//! standard deviation of queuing time and network latency, per traffic
//! class (Welford's algorithm, numerically stable, O(1) memory).

use ib_runtime::{Json, ToJson};

use crate::time::{ps_to_us, SimTime};

/// Streaming mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation (0 with < 2 samples).
    pub(crate) fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Largest sample seen.
    #[cfg(test)]
    pub(crate) fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator (parallel sweeps combine shards).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// JSON object form (raw accumulator state).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count.to_json()),
            ("mean", self.mean.to_json()),
            ("m2", self.m2.to_json()),
            ("max", self.max.to_json()),
        ])
    }
}

/// Queuing-time and network-latency stats for one traffic class, sampled
/// in µs (the paper's unit).
#[derive(Debug, Clone, Default)]
pub struct ClassStats {
    /// Wait at the source HCA from generation to first byte on the wire.
    pub queuing: OnlineStats,
    /// Wire entry to delivery at the destination HCA.
    pub network: OnlineStats,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped in the fabric (invalid P_Key filtering).
    pub dropped: u64,
}

impl ClassStats {
    /// Record a delivered packet's two delays (given in ps).
    pub(crate) fn record(&mut self, queuing_ps: SimTime, network_ps: SimTime) {
        self.queuing.push(ps_to_us(queuing_ps));
        self.network.push(ps_to_us(network_ps));
        self.delivered += 1;
    }

    /// Merge another class's accumulators (the sharded engine combines
    /// per-domain stats in domain order; [`OnlineStats::merge`] is a
    /// closed-form Welford combine, so merging in a fixed order is
    /// deterministic).
    pub(crate) fn merge(&mut self, other: &ClassStats) {
        self.queuing.merge(&other.queuing);
        self.network.merge(&other.network);
        self.delivered += other.delivered;
        self.dropped += other.dropped;
    }

    /// JSON object form.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            ("queuing", self.queuing.to_json()),
            ("network", self.network.to_json()),
            ("delivered", self.delivered.to_json()),
            ("dropped", self.dropped.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.count(), 8);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_sample_no_variance() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + 5.0)
            .collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..33] {
            a.push(x);
        }
        for &x in &data[33..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        let b = OnlineStats::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = OnlineStats::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 1.0);
    }

    #[test]
    fn stats_json_round_trip() {
        let mut cs = ClassStats::default();
        cs.record(5_000_000, 20_000_000);
        cs.record(7_000_000, 22_000_000);
        cs.dropped = 3;
        let back = crate::reparsed(&cs.to_json().to_string());
        assert_eq!(back.get("delivered").and_then(Json::as_u64), Some(2));
        assert_eq!(back.get("dropped").and_then(Json::as_u64), Some(3));
        let queuing = back.get("queuing").expect("queuing object");
        assert_eq!(queuing.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(
            queuing.get("mean").and_then(Json::as_f64),
            Some(cs.queuing.mean())
        );
        // The raw second moment is emitted bit-exactly, not a rounded stddev.
        let m2 = back.get("network").and_then(|n| n.get("m2"));
        assert_eq!(m2.and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn class_stats_record_in_us() {
        let mut cs = ClassStats::default();
        cs.record(5_000_000, 20_000_000); // 5 µs queuing, 20 µs network
        assert_eq!(cs.delivered, 1);
        assert!((cs.queuing.mean() - 5.0).abs() < 1e-12);
        assert!((cs.network.mean() - 20.0).abs() < 1e-12);
    }
}
