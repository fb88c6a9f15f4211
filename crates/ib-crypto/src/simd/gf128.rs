//! GF(2¹²⁸) multiplication for GHASH (scalar + PCLMULQDQ).
//!
//! GHASH (NIST SP 800-38D) treats a 16-byte block as a polynomial over
//! GF(2) with the *most significant bit first* — an awkward order for
//! both integer and carry-less-multiply hardware. This module therefore
//! works in the **bit-reflected representation**: a block is loaded as a
//! big-endian `u128` and bit-reversed once ([`from_block`]), after which
//! coefficient *i* of the polynomial sits at plain integer bit *i*.
//! Multiplication is then ordinary carry-less multiplication followed by
//! reduction modulo `g(t) = t¹²⁸ + t⁷ + t² + t + 1` — no shift fix-ups.
//!
//! Three multipliers, all bit-identical:
//!
//! * [`mul_scalar`] — shift-and-XOR over every bit; the definition and
//!   test oracle.
//! * [`GhashKey`]'s table path — Shoup's 4-bit method (one operand, H,
//!   is fixed per key, so 16 precomputed multiples cover it). The
//!   portable fast path.
//! * [`GhashKey`]'s PCLMUL path — Karatsuba over three 64×64 carry-less
//!   multiplies plus the two-step fold reduction.

/// Load a GHASH block into the reflected representation.
#[inline]
pub fn from_block(b: &[u8; 16]) -> u128 {
    u128::from_be_bytes(*b).reverse_bits()
}

/// Store a reflected element back to GHASH block bytes.
#[inline]
pub(crate) fn to_block(x: u128) -> [u8; 16] {
    x.reverse_bits().to_be_bytes()
}

/// Reduce a 256-bit carry-less product (lo = coeffs 0..127, hi = coeffs
/// 128..255) modulo `t¹²⁸ + t⁷ + t² + t + 1`.
#[inline]
fn reduce(lo: u128, hi: u128) -> u128 {
    // t¹²⁸ ≡ t⁷ + t² + t + 1: fold `hi` down, then fold the ≤7 bits
    // that overflowed the first fold (they cannot overflow again).
    let lo2 = lo ^ hi ^ (hi << 1) ^ (hi << 2) ^ (hi << 7);
    let hi2 = (hi >> 127) ^ (hi >> 126) ^ (hi >> 121);
    lo2 ^ hi2 ^ (hi2 << 1) ^ (hi2 << 2) ^ (hi2 << 7)
}

/// Carry-less 64×64 → 128 multiply, one bit at a time (branchless).
fn clmul64_soft(a: u64, b: u64) -> u128 {
    let a = a as u128;
    let mut r = 0u128;
    for i in 0..64 {
        r ^= (a << i) * (((b >> i) & 1) as u128);
    }
    r
}

/// Reference multiplication in the reflected representation: full
/// 128×128 carry-less product via four soft 64-bit multiplies, then
/// reduction. The oracle every fast path is tested against.
pub fn mul_scalar(x: u128, y: u128) -> u128 {
    let (x0, x1) = (x as u64, (x >> 64) as u64);
    let (y0, y1) = (y as u64, (y >> 64) as u64);
    let lo = clmul64_soft(x0, y0);
    let hi = clmul64_soft(x1, y1);
    let mid = clmul64_soft(x0, y1) ^ clmul64_soft(x1, y0);
    reduce(lo ^ (mid << 64), hi ^ (mid >> 64))
}

/// A fixed GHASH key H with its precomputed 4-bit multiple table. All
/// products [`GhashKey::mul`] computes are against this H.
#[derive(Clone)]
pub struct GhashKey {
    /// H in reflected representation (for the PCLMUL path).
    h: u128,
    /// `v·H` for every 4-bit polynomial v (Shoup's method).
    table: [u128; 16],
}

impl GhashKey {
    /// Precompute from the GHASH key block (`H = AES_K(0¹²⁸)` in GCM).
    pub fn new(h_block: &[u8; 16]) -> Self {
        let h = from_block(h_block);
        let mut table = [0u128; 16];
        for v in 1..16u32 {
            // v·H = Σ H·tʲ over the set bits j of v.
            let mut acc = 0u128;
            let mut pow = h; // H·tʲ
            for j in 0..4 {
                if (v >> j) & 1 == 1 {
                    acc ^= pow;
                }
                if j < 3 {
                    pow = mul_by_t(pow);
                }
            }
            table[v as usize] = acc;
        }
        GhashKey { h, table }
    }

    /// `x · H`, fastest available kernel; bit-identical to
    /// [`mul_scalar`]`(x, h)`.
    #[inline]
    pub fn mul(&self, x: u128) -> u128 {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::caps().pclmul {
            // SAFETY: pclmul detected (sse2 is baseline).
            return unsafe { mul_clmul(x, self.h) };
        }
        self.mul_table(x)
    }

    /// Shoup's 4-bit table walk, highest nibble first: multiply the
    /// accumulator by t⁴ (with fold) and add the nibble's multiple.
    pub fn mul_table(&self, x: u128) -> u128 {
        let mut acc = 0u128;
        for j in (0..32).rev() {
            let overflow = acc >> 124;
            acc = (acc << 4) ^ overflow ^ (overflow << 1) ^ (overflow << 2) ^ (overflow << 7);
            acc ^= self.table[((x >> (4 * j)) & 0xF) as usize];
        }
        acc
    }
}

/// Multiply a reflected element by t (degree bump with fold).
#[inline]
fn mul_by_t(x: u128) -> u128 {
    let carry = x >> 127;
    (x << 1) ^ carry ^ (carry << 1) ^ (carry << 2) ^ (carry << 7)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2", enable = "pclmulqdq")]
unsafe fn mul_clmul(x: u128, h: u128) -> u128 {
    use core::arch::x86_64::*;
    // SAFETY: the caller guarantees PCLMULQDQ and SSE2, the only features
    // these intrinsics need. The three stores each write 16 bytes into a
    // local `[u64; 2]`; `storeu` has no alignment requirement.
    unsafe {
        let a = _mm_set_epi64x((x >> 64) as i64, x as i64);
        let b = _mm_set_epi64x((h >> 64) as i64, h as i64);
        let lo = _mm_clmulepi64_si128(a, b, 0x00);
        let hi = _mm_clmulepi64_si128(a, b, 0x11);
        // Karatsuba middle term: (x0 ^ x1)·(h0 ^ h1) ^ lo ^ hi.
        let ax = _mm_xor_si128(a, _mm_srli_si128(a, 8));
        let bx = _mm_xor_si128(b, _mm_srli_si128(b, 8));
        let mid = _mm_xor_si128(_mm_clmulepi64_si128(ax, bx, 0x00), _mm_xor_si128(lo, hi));
        let mut lo_w = [0u64; 2];
        let mut hi_w = [0u64; 2];
        let mut mid_w = [0u64; 2];
        _mm_storeu_si128(lo_w.as_mut_ptr() as *mut __m128i, lo);
        _mm_storeu_si128(hi_w.as_mut_ptr() as *mut __m128i, hi);
        _mm_storeu_si128(mid_w.as_mut_ptr() as *mut __m128i, mid);
        let lo = lo_w[0] as u128 | ((lo_w[1] as u128) << 64);
        let hi = hi_w[0] as u128 | ((hi_w[1] as u128) << 64);
        let mid = mid_w[0] as u128 | ((mid_w[1] as u128) << 64);
        reduce(lo ^ (mid << 64), hi ^ (mid >> 64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> u128 {
        let a = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (a as u128) << 64 | a.rotate_left(17) as u128
    }

    #[test]
    fn block_round_trip() {
        let b: [u8; 16] = *b"0123456789abcdef";
        assert_eq!(to_block(from_block(&b)), b);
    }

    #[test]
    fn mul_is_commutative_and_distributive() {
        for i in 0..8u64 {
            let (a, b, c) = (sample(i), sample(i + 100), sample(i + 200));
            assert_eq!(mul_scalar(a, b), mul_scalar(b, a));
            assert_eq!(mul_scalar(a, b ^ c), mul_scalar(a, b) ^ mul_scalar(a, c));
        }
        // 1 (the polynomial "1", bit 0 in reflected form) is the identity.
        assert_eq!(mul_scalar(sample(3), 1), sample(3));
    }

    #[test]
    fn table_path_matches_oracle() {
        for i in 0..16u64 {
            let h = to_block(sample(i));
            let key = GhashKey::new(&h);
            for j in 0..16u64 {
                let x = sample(j + 500);
                assert_eq!(key.mul_table(x), mul_scalar(x, from_block(&h)), "{i}/{j}");
            }
        }
    }

    #[test]
    fn dispatched_path_matches_oracle() {
        for i in 0..16u64 {
            let h = to_block(sample(i + 31));
            let key = GhashKey::new(&h);
            for j in 0..16u64 {
                let x = sample(j + 77);
                assert_eq!(key.mul(x), mul_scalar(x, from_block(&h)), "{i}/{j}");
            }
        }
    }
}
