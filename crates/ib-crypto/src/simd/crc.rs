//! PCLMULQDQ carry-less CRC folding — one kernel for both IBA CRCs.
//!
//! The kernel follows the Intel "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction" white paper in its
//! bit-reflected form: four independent 128-bit folding chains consume
//! 64 bytes per iteration (hiding the carry-less multiply latency),
//! then fold to one chain, 16 bytes at a time, and a Barrett reduction
//! collapses the final 128-bit remainder to the 32-bit CRC register.
//! Everything is linear algebra over GF(2), so the result is
//! bit-identical to the slice-by-8 table kernels on every input —
//! enforced by the tests below and the `simd_equivalence` corpus test.
//!
//! ## One kernel, two widths
//!
//! The kernel is written for a degree-32 generator. The 16-bit VCRC
//! rides it through the embedding `Q(x) = P(x)·x^16`: for any message
//! `M`, `M·x^32 mod Q = x^16 · (M·x^16 mod P)`, so the 32-bit register
//! of the reflected CRC with polynomial `Q` *is* the reflected CRC-16
//! register of `P`, sitting in its low 16 bits with the high 16 bits
//! zero. In the reflected encoding `Q` is simply the 16-bit reflected
//! polynomial zero-extended to `u32`, and seeding the register with a
//! zero-extended 16-bit state XORs it into the first two message bytes
//! exactly as the table kernel does.
//!
//! ## Constants
//!
//! [`FoldConsts::for_reflected_poly`] derives everything the kernel
//! needs from the polynomial at compile time. With `P` the 33-bit
//! generator in normal bit order, the fold multipliers are
//! `reflect32(x^N mod P) << 1` for the fold distances N = 4·128+32,
//! 4·128−32, 128+32, 128−32 and 64 (the shift accounts for the
//! carry-less product of two reflected operands landing one bit low),
//! and the Barrett pair is the 33-bit reflections of `P` itself and of
//! `µ = ⌊x^64 / P⌋`. A unit test pins the derivation to the white
//! paper's published IEEE 802.3 values.

use crate::crc::{CRC16_POLY_REFLECTED, CRC32_POLY_REFLECTED};

/// Buffers shorter than this stay on the table kernel: below one full
/// fold-by-4 block the setup/reduction cost dominates.
pub(crate) const PCLMUL_MIN_LEN: usize = 64;

/// Fold multipliers and Barrett pair of one degree-32 generator, in the
/// reflected-domain encoding the white paper derives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FoldConsts {
    k1: u64,  // x^(4·128+32) mod P
    k2: u64,  // x^(4·128−32) mod P
    k3: u64,  // x^(128+32) mod P
    k4: u64,  // x^(128−32) mod P
    k5: u64,  // x^64 mod P
    p_x: u64, // P'(x), the bit-reversed polynomial
    mu: u64,  // µ = ⌊x^64 / P⌋, bit-reversed
}

/// Constants for the ICRC (reflected IEEE 802.3).
pub(crate) const CRC32_IEEE_FOLD: FoldConsts = FoldConsts::for_reflected_poly(CRC32_POLY_REFLECTED);
/// Constants for the VCRC: the IBA CRC-16 polynomial embedded as
/// `P·x^16` (module docs).
pub(crate) const CRC16_IBA_FOLD: FoldConsts =
    FoldConsts::for_reflected_poly(CRC16_POLY_REFLECTED as u32);

impl FoldConsts {
    /// Derive the constants for the reflected CRC whose 32-bit register
    /// steps `crc = (crc >> 1) ^ (poly if lsb)`.
    pub(crate) const fn for_reflected_poly(poly: u32) -> Self {
        // The generator in normal bit order, x^32 term explicit.
        let p = (1u64 << 32) | poly.reverse_bits() as u64;
        // Long division of x^n by P, one bit per step: x^i = q·P + r
        // with deg r < 32 holds before and after every iteration.
        const fn div_xn(n: u32, p: u64) -> (u64, u64) {
            let (mut q, mut r) = (0u64, 1u64);
            let mut i = 0;
            while i < n {
                r <<= 1;
                q <<= 1;
                if r >> 32 != 0 {
                    r ^= p;
                    q |= 1;
                }
                i += 1;
            }
            (q, r)
        }
        const fn fold_key(n: u32, p: u64) -> u64 {
            ((div_xn(n, p).1 as u32).reverse_bits() as u64) << 1
        }
        const fn reflect33(v: u64) -> u64 {
            v.reverse_bits() >> 31
        }
        FoldConsts {
            k1: fold_key(4 * 128 + 32, p),
            k2: fold_key(4 * 128 - 32, p),
            k3: fold_key(128 + 32, p),
            k4: fold_key(128 - 32, p),
            k5: fold_key(64, p),
            p_x: reflect33(p),
            mu: reflect33(div_xn(64, p).0),
        }
    }
}

/// Advance a (non-inverted, reflected) CRC register over the leading
/// whole 16-byte blocks of `data` with the carry-less folding kernel and
/// return the new register with the unconsumed tail (< 16 bytes), which
/// the caller finishes on its table kernel. When the dispatch rule says
/// no — `data` shorter than [`PCLMUL_MIN_LEN`], no PCLMULQDQ, or
/// `IB_SIMD=off` — nothing is consumed and `(state, data)` comes back
/// unchanged, so call sites need no rule of their own.
///
/// `state` follows [`crate::crc::Crc32`] (seeded all-ones, complement
/// only at finalize) or, zero-extended, [`crate::crc::Crc16`].
#[inline]
pub(crate) fn fold_blocks<'a>(state: u32, data: &'a [u8], k: &FoldConsts) -> (u32, &'a [u8]) {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= PCLMUL_MIN_LEN && crate::simd::caps().pclmul {
        let (blocks, tail) = data.split_at(data.len() & !15);
        // SAFETY: `caps().pclmul` is only true when CPUID reported
        // PCLMULQDQ (sse2 is the x86_64 baseline), and `blocks` is a
        // whole number of 16-byte blocks, at least four of them.
        return (unsafe { fold_update(state, blocks, k) }, tail);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = k;
    (state, data)
}

/// # Safety
///
/// The CPU must support SSE2 and PCLMULQDQ, and `data.len()` must be a
/// multiple of 16 and at least 64: the kernel reads `data` in unchecked
/// 16-byte loads and consumes all of it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2", enable = "pclmulqdq")]
unsafe fn fold_update(state: u32, data: &[u8], k: &FoldConsts) -> u32 {
    use core::arch::x86_64::*;
    debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
    // SAFETY: every load reads 16 bytes at `ptr + i` with
    // `i + 16 <= len`, where `ptr`/`len` always describe the not yet
    // consumed suffix of `data`: the head takes 64 of the ≥ 64 bytes the
    // caller guarantees, and each loop checks `len` before it loads.
    // `_mm_loadu_si128` has no alignment requirement. The intrinsics
    // themselves need only the target features the caller guarantees.
    unsafe {
        let mut ptr = data.as_ptr();
        let mut len = data.len();

        // Load the first 64 bytes into four folding chains and inject
        // the incoming register into the lowest-order lane.
        let mut x3 = _mm_loadu_si128(ptr as *const __m128i);
        let mut x2 = _mm_loadu_si128(ptr.add(16) as *const __m128i);
        let mut x1 = _mm_loadu_si128(ptr.add(32) as *const __m128i);
        let mut x0 = _mm_loadu_si128(ptr.add(48) as *const __m128i);
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));
        ptr = ptr.add(64);
        len -= 64;

        // Fold by 4: each chain folds itself 512 bits forward into the
        // next 16 bytes of input.
        let k1k2 = _mm_set_epi64x(k.k2 as i64, k.k1 as i64);
        while len >= 64 {
            x3 = fold16(x3, _mm_loadu_si128(ptr as *const __m128i), k1k2);
            x2 = fold16(x2, _mm_loadu_si128(ptr.add(16) as *const __m128i), k1k2);
            x1 = fold16(x1, _mm_loadu_si128(ptr.add(32) as *const __m128i), k1k2);
            x0 = fold16(x0, _mm_loadu_si128(ptr.add(48) as *const __m128i), k1k2);
            ptr = ptr.add(64);
            len -= 64;
        }

        // Fold the four chains into one, then fold by 1 while whole
        // 16-byte blocks remain.
        let k3k4 = _mm_set_epi64x(k.k4 as i64, k.k3 as i64);
        let mut x = fold16(x3, x2, k3k4);
        x = fold16(x, x1, k3k4);
        x = fold16(x, x0, k3k4);
        while len >= 16 {
            x = fold16(x, _mm_loadu_si128(ptr as *const __m128i), k3k4);
            ptr = ptr.add(16);
            len -= 16;
        }

        // Reduce 128 → 64 bits.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let lo32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, lo32), _mm_set_epi64x(0, k.k5 as i64), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction 64 → 32 bits (bit-reversed µ and P').
        let pu = _mm_set_epi64x(k.mu as i64, k.p_x as i64);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, lo32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, lo32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

/// One folding step: `a` carried 128 bits (or 512, per `keys`) forward
/// and XORed into `b`.
///
/// # Safety
///
/// The CPU must support SSE2 and PCLMULQDQ; the function touches no
/// memory.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2", enable = "pclmulqdq")]
unsafe fn fold16(
    a: core::arch::x86_64::__m128i,
    b: core::arch::x86_64::__m128i,
    keys: core::arch::x86_64::__m128i,
) -> core::arch::x86_64::__m128i {
    use core::arch::x86_64::*;
    let lo = _mm_clmulepi64_si128(a, keys, 0x00);
    let hi = _mm_clmulepi64_si128(a, keys, 0x11);
    _mm_xor_si128(_mm_xor_si128(b, lo), hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::{crc16_bitwise, crc32_bitwise, Crc16, Crc32};

    #[test]
    fn derived_crc32_constants_equal_the_published_literals() {
        // The seven hand-entered values this derivation replaced (Intel
        // white paper, reflected IEEE 802.3).
        assert_eq!(
            CRC32_IEEE_FOLD,
            FoldConsts {
                k1: 0x1_5444_2bd4,
                k2: 0x1_c6e4_1596,
                k3: 0x1_7519_97d0,
                k4: 0x0_ccaa_009e,
                k5: 0x1_63cd_6124,
                p_x: 0x1_db71_0641,
                mu: 0x1_f701_1641,
            }
        );
    }

    #[test]
    fn derived_vcrc_constants() {
        assert_eq!(
            CRC16_IBA_FOLD,
            FoldConsts {
                k1: 0x9c2,
                k2: 0x64b0,
                k3: 0x1_f9ea,
                k4: 0x1_e9de,
                k5: 0x1_5864,
                p_x: 0x1_a011,
                mu: 0x1_b4b0_b111,
            }
        );
    }

    #[test]
    fn declines_short_input_and_leaves_a_sub_block_tail() {
        let data = [0x5Au8; 100];
        assert_eq!(
            fold_blocks(7, &data[..63], &CRC32_IEEE_FOLD),
            (7, &data[..63])
        );
        let (_, tail) = fold_blocks(7, &data, &CRC32_IEEE_FOLD);
        if crate::simd::caps().pclmul {
            assert_eq!(tail.len(), 100 % 16);
        } else {
            assert_eq!(tail.len(), 100);
        }
    }

    /// Both widths through `update_auto` (fold + table tail) against the
    /// bitwise definitions; on hosts without PCLMULQDQ this degenerates
    /// to table-vs-bitwise, which is still a valid check.
    #[test]
    fn matches_bitwise_all_small_lengths() {
        let data: Vec<u8> = (0..512u32).map(|i| (i * 131 + 17) as u8).collect();
        for len in 0..=data.len() {
            let d = &data[..len];
            assert_eq!(
                Crc32::new().update_auto(d).finalize(),
                crc32_bitwise(d),
                "crc32 len {len}"
            );
            assert_eq!(
                Crc16::new().update_auto(d).finalize(),
                crc16_bitwise(d),
                "crc16 len {len}"
            );
        }
    }

    #[test]
    fn check_value() {
        // The canonical check string, repeated until it enters the
        // folding path.
        let mut data = b"123456789".repeat(20);
        data.truncate(129);
        assert_eq!(
            Crc32::new().update_auto(&data).finalize(),
            crc32_bitwise(&data)
        );
        assert_eq!(
            Crc16::new().update_auto(&data).finalize(),
            crc16_bitwise(&data)
        );
    }

    #[test]
    fn matches_bitwise_large_and_split() {
        let data: Vec<u8> = (0..9000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        // Incremental: the register chains across arbitrary splits.
        for split in [0, 1, 15, 16, 63, 64, 65, 127, 4096, 8999, 9000] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                Crc32::new().update_auto(a).update_auto(b).finalize(),
                crc32_bitwise(&data),
                "crc32 split {split}"
            );
            assert_eq!(
                Crc16::new().update_auto(a).update_auto(b).finalize(),
                crc16_bitwise(&data),
                "crc16 split {split}"
            );
        }
    }
}
