//! Deterministic pseudo-randomness: SplitMix64 seeding + xoshiro256\*\*.
//!
//! The simulator's methodology (§3.1: random partition grouping, random
//! attacker placement) rests on runs being exactly reproducible from a
//! printed seed. Both generators here are bit-exact transcriptions of the
//! published reference algorithms (Steele et al. for SplitMix64, Blackman
//! & Vigna for xoshiro256\*\*) and are validated against reference output
//! vectors in the tests below.

use std::fmt;

/// The SplitMix64 additive constant (golden-ratio increment).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Advance a SplitMix64 state and return the next output.
///
/// Used to expand a single `u64` seed into the 256-bit xoshiro state and
/// to derive independent seed streams.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A simulation seed: the single value from which an entire run (or sweep
/// shard) is reproducible. Printed in every experiment binary's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Seed(pub u64);

impl Seed {
    /// Derive the seed of an independent stream `i` (sweep shard, repeat
    /// index). Streams are decorrelated by a SplitMix64 mix rather than a
    /// small additive offset, so nearby indices share no state structure.
    pub fn stream(self, i: u64) -> Seed {
        let mut s = self.0 ^ i.wrapping_mul(GOLDEN_GAMMA);
        Seed(splitmix64(&mut s))
    }

    /// Build the run's random generator.
    pub fn rng(self) -> Rng {
        Rng::from_seed(self)
    }
}

impl fmt::Display for Seed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:016X}", self.0)
    }
}

impl From<u64> for Seed {
    fn from(v: u64) -> Self {
        Seed(v)
    }
}

impl std::ops::BitXor<u64> for Seed {
    type Output = Seed;
    fn bitxor(self, rhs: u64) -> Seed {
        Seed(self.0 ^ rhs)
    }
}

impl std::ops::BitXorAssign<u64> for Seed {
    fn bitxor_assign(&mut self, rhs: u64) {
        self.0 ^= rhs;
    }
}

/// xoshiro256\*\* — the workspace's only general-purpose PRNG. 256 bits of
/// state, period 2²⁵⁶ − 1, passes BigCrush; not cryptographic (key
/// material comes from `ib-crypto`, never from here).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed via SplitMix64 expansion, per the xoshiro authors'
    /// recommendation (never hand the raw seed to the state directly).
    pub fn from_seed(seed: Seed) -> Self {
        let mut sm = seed.0;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Construct from a raw 256-bit state (golden-vector tests only).
    /// The all-zero state is the one fixed point and is rejected.
    #[cfg(test)]
    fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro state must be non-zero");
        Rng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in [0, 1): the top 53 bits scaled by 2⁻⁵³.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample from a half-open range. Panics on an empty range.
    pub fn gen_range<T: UniformSample>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// Exponential sample with the given mean (inverse-CDF on a uniform
    /// bounded away from 0, so the result is always finite).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = self.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }

    /// Fill a byte slice from successive outputs.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Types [`Rng::gen_range`] can sample uniformly.
pub trait UniformSample: Copy {
    fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

/// Uniform integer in [0, span) via 128-bit multiply-shift (Lemire's
/// reduction without the rejection step; the bias is ≤ span/2⁶⁴, far below
/// anything a simulation statistic can resolve).
#[inline]
fn mul_shift(x: u64, span: u64) -> u64 {
    ((x as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi - lo) as u64;
                lo + mul_shift(rng.next_u64(), span) as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

impl UniformSample for f64 {
    fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range: empty range");
        lo + rng.next_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published SplitMix64 reference outputs for seed 0 (the vector from
    /// the algorithm's reference implementation, reproduced in many
    /// engines' test suites).
    #[test]
    fn splitmix64_golden_seed0() {
        let mut s = 0u64;
        let expected = [
            0xE220_A839_7B1D_CDAF,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
            0x1B39_896A_51A8_749B,
            0x53CB_9F0C_747E_A2EA,
            0x2C82_9ABE_1F45_32E1,
            0xC584_133A_C916_AB3C,
        ];
        for e in expected {
            assert_eq!(splitmix64(&mut s), e);
        }
    }

    /// xoshiro256** reference outputs from state [1, 2, 3, 4] — the vector
    /// shipped with the reference implementation's test suite.
    #[test]
    fn xoshiro_golden_state1234() {
        let mut rng = Rng::from_state([1, 2, 3, 4]);
        let expected: [u64; 8] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
            16172922978634559625,
            8476171486693032832,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    /// The composed pipeline: SplitMix64(0) expands the state, xoshiro
    /// runs on it. Pins the exact seeding convention.
    #[test]
    fn seeded_golden_seed0() {
        let mut rng = Seed(0).rng();
        let expected: [u64; 4] = [
            0x99EC_5F36_CB75_F2B4,
            0xBF6E_1F78_4956_452A,
            0x1A5F_849D_4933_E6E0,
            0x6AA5_94F1_262D_2D2C,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..16)
            .map({
                let mut r = Seed(7).rng();
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..16)
            .map({
                let mut r = Seed(7).rng();
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..16)
            .map({
                let mut r = Seed(8).rng();
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn streams_are_decorrelated() {
        let base = Seed(0x1BAD_5EED);
        let s0 = base.stream(0);
        let s1 = base.stream(1);
        assert_ne!(s0, s1);
        assert_ne!(s0, base);
        // Deterministic derivation.
        assert_eq!(base.stream(1), base.stream(1));
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = Seed(42).rng();
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(0usize..10);
            seen[v] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "1000 draws must hit all 10 buckets"
        );
        for _ in 0..1000 {
            let v = rng.gen_range(100u64..200);
            assert!((100..200).contains(&v));
        }
        for _ in 0..1000 {
            let v = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        Seed(0).rng().gen_range(5u64..5);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Seed(9).rng();
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "30% ± 3%: {hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Seed(3).rng();
        let mut v: Vec<u32> = (0..64).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        // With 64 elements, identity survival is a ~1/64! event.
        assert_ne!(v, sorted);
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = Seed(7).rng();
        let mean = 10_000.0;
        let n = 50_000;
        let total: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = total / n as f64;
        assert!(
            (sample_mean - mean).abs() / mean < 0.05,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn fill_bytes_deterministic() {
        let mut a = [0u8; 19];
        let mut b = [0u8; 19];
        Seed(5).rng().fill_bytes(&mut a);
        Seed(5).rng().fill_bytes(&mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0));
    }

    #[test]
    fn seed_display_and_ops() {
        let mut s = Seed(0x1BAD_5EED);
        assert_eq!(s.to_string(), "0x000000001BAD5EED");
        s ^= 0xFFFF;
        assert_eq!(s, Seed(0x1BAD_5EED ^ 0xFFFF));
        assert_eq!(Seed::from(5u64), Seed(5));
    }
}
