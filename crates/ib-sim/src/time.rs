//! Simulation time base: unsigned picoseconds.
//!
//! Picosecond resolution keeps byte times exact: one byte on a 2.5 Gbps 1x
//! link takes 8 bits / 2.5 Gb/s = 3.2 ns = 3200 ps, an integer.

/// Simulation timestamp / duration in picoseconds.
pub type SimTime = u64;

/// One picosecond.
#[cfg(test)]
pub(crate) const PS: SimTime = 1;
/// One nanosecond in ps.
pub const NS: SimTime = 1_000;
/// One microsecond in ps.
pub const US: SimTime = 1_000_000;
/// One millisecond in ps.
pub const MS: SimTime = 1_000_000_000;

/// Time to put one byte on a 2.5 Gbps link (Table 1's
/// [`LINK_GBPS`](crate::config::LINK_GBPS)), in ps.
pub(crate) const BYTE_TIME_PS: SimTime = 3_200;

/// Transmission time of `bytes` on a Table 1 link, in ps.
pub fn wire_time_ps(bytes: usize) -> SimTime {
    bytes as SimTime * BYTE_TIME_PS
}

/// Convert ps to fractional microseconds (for reporting).
pub fn ps_to_us(ps: SimTime) -> f64 {
    ps as f64 / US as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_time_matches_formula() {
        // 8 bits at 2.5 Gb/s.
        assert_eq!(
            BYTE_TIME_PS as f64,
            8.0 / crate::config::LINK_GBPS * NS as f64
        );
        assert_eq!(wire_time_ps(1), BYTE_TIME_PS);
        // A 1024-byte MTU takes 3.2768 µs on a 1x link.
        assert_eq!(wire_time_ps(1024), 1024 * BYTE_TIME_PS);
        assert_eq!(ps_to_us(wire_time_ps(1024)), 3.2768);
    }

    #[test]
    fn unit_ratios() {
        assert_eq!(NS, 1_000 * PS);
        assert_eq!(US, 1_000 * NS);
        assert_eq!(MS, 1_000 * US);
    }
}
