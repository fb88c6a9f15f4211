//! Vectorized NH inner loops for UMAC (SSE2 / AVX2, plus a 4-buffer
//! lockstep variant for the short-packet regime).
//!
//! NH is `Σ (m₂ᵢ +₃₂ k₂ᵢ)·(m₂ᵢ₊₁ +₃₂ k₂ᵢ₊₁) mod 2⁶⁴`: the additions are
//! lane-local 32-bit wraps and the accumulation is a wrapping 64-bit
//! sum, so any evaluation order produces the identical value — the
//! vector kernels below are bit-exact drop-ins for the scalar loop in
//! [`crate::umac`].
//!
//! The SSE2 trick: after `a = m +₃₂ k` a lane pair `[a₀, a₁]` sits in
//! one 64-bit lane; `_mm_mul_epu32(a, a >> 32)` multiplies the even
//! 32-bit lanes of both operands, yielding `a₀·a₁` (and `a₂·a₃` in the
//! upper lane) directly — two NH products per `pmuludq`.

/// Scalar reference: whole 8-byte pairs only (`data.len() % 8 == 0`,
/// `keys.len() == data.len() / 4`). Always available; the oracle for
/// the vector paths.
pub fn nh_pairs_scalar(mut sum: u64, keys: &[u32], data: &[u8]) -> u64 {
    debug_assert_eq!(data.len() % 8, 0);
    debug_assert_eq!(keys.len(), data.len() / 4);
    for (pair, k) in data.chunks_exact(8).zip(keys.chunks_exact(2)) {
        let m0 = u32::from_le_bytes(pair[0..4].try_into().unwrap());
        let m1 = u32::from_le_bytes(pair[4..8].try_into().unwrap());
        let a = m0.wrapping_add(k[0]) as u64;
        let b = m1.wrapping_add(k[1]) as u64;
        sum = sum.wrapping_add(a.wrapping_mul(b));
    }
    sum
}

/// NH over whole 8-byte pairs, fastest available kernel. Same contract
/// as [`nh_pairs_scalar`]; bit-identical result.
#[inline]
pub fn nh_pairs(sum: u64, keys: &[u32], data: &[u8]) -> u64 {
    // The vector kernels load keys without a bounds check.
    assert!(keys.len() >= data.len() / 4, "NH key shorter than the data");
    #[cfg(target_arch = "x86_64")]
    {
        let caps = crate::simd::caps();
        if caps.avx2 && data.len() >= 128 {
            // SAFETY: avx2 detected above; key length asserted above.
            return unsafe { nh_pairs_avx2(sum, keys, data) };
        }
        if caps.sse2 && data.len() >= 16 {
            // SAFETY: sse2 detected above; key length asserted above.
            return unsafe { nh_pairs_sse2(sum, keys, data) };
        }
    }
    nh_pairs_scalar(sum, keys, data)
}

/// Four NH accumulators advanced in lockstep over the shared key window:
/// `len` bytes (a multiple of 8, within every buffer) are hashed from
/// each of the four buffers. The shared key vector is loaded once per
/// step and the four multiply chains are independent, so the block
/// cipher ports stay saturated even when each packet alone is too short
/// for wide vectors to win.
#[inline]
pub fn nh_pairs_x4(sums: [u64; 4], keys: &[u32], bufs: [&[u8]; 4], len: usize) -> [u64; 4] {
    debug_assert_eq!(len % 8, 0);
    // The vector kernel loads keys and buffers without a bounds check.
    assert!(bufs.iter().all(|b| b.len() >= len) && keys.len() >= len / 4);
    #[cfg(target_arch = "x86_64")]
    if crate::simd::caps().sse2 && len >= 16 {
        // SAFETY: sse2 detected above; bounds asserted above.
        return unsafe { nh_pairs_x4_sse2(sums, keys, bufs, len) };
    }
    let mut out = sums;
    for (acc, buf) in out.iter_mut().zip(bufs) {
        *acc = nh_pairs_scalar(*acc, &keys[..len / 4], &buf[..len]);
    }
    out
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn nh_pairs_sse2(sum: u64, keys: &[u32], data: &[u8]) -> u64 {
    use core::arch::x86_64::*;
    // SAFETY: the caller guarantees SSE2. Block `i < data.len() / 16`
    // loads `data[16i..16i + 16]` and `keys[4i..4i + 4]`; both are in
    // bounds because `keys.len() >= data.len() / 4` (asserted by
    // `nh_pairs`). `loadu`/`storeu` have no alignment requirement.
    unsafe {
        let mut acc = _mm_setzero_si128();
        let blocks = data.len() / 16;
        let dp = data.as_ptr();
        let kp = keys.as_ptr();
        for i in 0..blocks {
            let m = _mm_loadu_si128(dp.add(i * 16) as *const __m128i);
            let k = _mm_loadu_si128(kp.add(i * 4) as *const __m128i);
            let a = _mm_add_epi32(m, k);
            let prod = _mm_mul_epu32(a, _mm_srli_epi64(a, 32));
            acc = _mm_add_epi64(acc, prod);
        }
        let mut lanes = [0u64; 2];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, acc);
        let vec_sum = lanes[0].wrapping_add(lanes[1]);
        // Odd trailing pair (data length 8 mod 16) stays scalar.
        nh_pairs_scalar(
            sum.wrapping_add(vec_sum),
            &keys[blocks * 4..],
            &data[blocks * 16..],
        )
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn nh_pairs_avx2(sum: u64, keys: &[u32], data: &[u8]) -> u64 {
    use core::arch::x86_64::*;
    // SAFETY: the caller guarantees AVX2 (which implies the SSE2 of the
    // tail call). Every load reads 32 bytes of `data` at an offset `o`
    // with `o + 32 <= data.len()` and 8 keys from `o / 4`, in bounds
    // because `keys.len() >= data.len() / 4` (asserted by `nh_pairs`).
    // `loadu`/`storeu` have no alignment requirement.
    unsafe {
        // Two independent accumulator chains, 64 bytes per iteration:
        // the multiply results land in alternating accumulators so the
        // loop is bound by multiply/load throughput, not by the latency
        // of a single vpaddq chain.
        let mut acc0 = _mm256_setzero_si256();
        let mut acc1 = _mm256_setzero_si256();
        let pairs64 = data.len() / 64;
        let dp = data.as_ptr();
        let kp = keys.as_ptr();
        for i in 0..pairs64 {
            let m0 = _mm256_loadu_si256(dp.add(i * 64) as *const __m256i);
            let k0 = _mm256_loadu_si256(kp.add(i * 16) as *const __m256i);
            let a0 = _mm256_add_epi32(m0, k0);
            acc0 = _mm256_add_epi64(acc0, _mm256_mul_epu32(a0, _mm256_srli_epi64(a0, 32)));
            let m1 = _mm256_loadu_si256(dp.add(i * 64 + 32) as *const __m256i);
            let k1 = _mm256_loadu_si256(kp.add(i * 16 + 8) as *const __m256i);
            let a1 = _mm256_add_epi32(m1, k1);
            acc1 = _mm256_add_epi64(acc1, _mm256_mul_epu32(a1, _mm256_srli_epi64(a1, 32)));
        }
        let mut done = pairs64 * 64;
        if data.len() - done >= 32 {
            let m = _mm256_loadu_si256(dp.add(done) as *const __m256i);
            let k = _mm256_loadu_si256(kp.add(done / 4) as *const __m256i);
            let a = _mm256_add_epi32(m, k);
            acc0 = _mm256_add_epi64(acc0, _mm256_mul_epu32(a, _mm256_srli_epi64(a, 32)));
            done += 32;
        }
        let acc = _mm256_add_epi64(acc0, acc1);
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let vec_sum = lanes[0]
            .wrapping_add(lanes[1])
            .wrapping_add(lanes[2])
            .wrapping_add(lanes[3]);
        // Up to 24 trailing bytes: the SSE2 kernel (or scalar) finishes.
        nh_pairs_sse2(sum.wrapping_add(vec_sum), &keys[done / 4..], &data[done..])
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn nh_pairs_x4_sse2(sums: [u64; 4], keys: &[u32], bufs: [&[u8]; 4], len: usize) -> [u64; 4] {
    use core::arch::x86_64::*;
    // SAFETY: the caller guarantees SSE2. Block `i < len / 16` loads
    // `keys[4i..4i + 4]` and `buf[16i..16i + 16]` of each buffer, in
    // bounds because every buffer holds at least `len` bytes and
    // `keys.len() >= len / 4` (asserted by `nh_pairs_x4`). `loadu`/
    // `storeu` have no alignment requirement.
    unsafe {
        let mut acc = [_mm_setzero_si128(); 4];
        let blocks = len / 16;
        let kp = keys.as_ptr();
        for i in 0..blocks {
            let k = _mm_loadu_si128(kp.add(i * 4) as *const __m128i);
            for (j, buf) in bufs.iter().enumerate() {
                let m = _mm_loadu_si128(buf.as_ptr().add(i * 16) as *const __m128i);
                let a = _mm_add_epi32(m, k);
                acc[j] = _mm_add_epi64(acc[j], _mm_mul_epu32(a, _mm_srli_epi64(a, 32)));
            }
        }
        let mut out = sums;
        for (j, buf) in bufs.iter().enumerate() {
            let mut lanes = [0u64; 2];
            _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, acc[j]);
            out[j] = nh_pairs_scalar(
                out[j].wrapping_add(lanes[0]).wrapping_add(lanes[1]),
                &keys[blocks * 4..len / 4],
                &buf[blocks * 16..len],
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect()
    }

    fn data(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect()
    }

    #[test]
    fn vector_matches_scalar_all_pair_counts() {
        for pairs in 0..64 {
            let d = data(pairs * 8);
            let k = keys(pairs * 2);
            assert_eq!(
                nh_pairs(7, &k, &d),
                nh_pairs_scalar(7, &k, &d),
                "pairs {pairs}"
            );
        }
    }

    #[test]
    fn lockstep_matches_independent() {
        let bufs_owned: Vec<Vec<u8>> = (0..4).map(|j| data(512 + j * 8)).collect();
        let bufs = [
            &bufs_owned[0][..],
            &bufs_owned[1][..],
            &bufs_owned[2][..],
            &bufs_owned[3][..],
        ];
        let k = keys(128);
        for len in [0usize, 8, 16, 24, 256, 512] {
            let got = nh_pairs_x4([1, 2, 3, 4], &k, bufs, len);
            for j in 0..4 {
                let want = nh_pairs_scalar(1 + j as u64, &k[..len / 4], &bufs[j][..len]);
                assert_eq!(got[j], want, "len {len} lane {j}");
            }
        }
    }
}
