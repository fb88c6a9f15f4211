//! AES-NI round-instruction kernels over pre-expanded round keys.
//!
//! The `aesenc`/`aesenclast` instructions perform exactly one FIPS 197
//! round (SubBytes∘ShiftRows∘MixColumns∘AddRoundKey), so driving them
//! with the same expanded key schedule as the table implementation in
//! [`crate::aes`] produces bit-identical ciphertext — AES is a
//! deterministic permutation, there is no reassociation to reason about.
//!
//! The multi-block entry point keeps N independent states in flight
//! through each round: the AES unit is pipelined, so 4–8 parallel
//! blocks (PMAC lanes, CTR keystream, UMAC pads for a packet batch)
//! approach one block per `aesenc` throughput instead of serializing on
//! the ~4-cycle latency.

/// Encrypt `N` independent blocks in place under the expanded schedule.
///
/// # Safety
///
/// Caller must ensure the CPU supports AES-NI and SSE2 (check
/// [`crate::simd::caps`]`().aesni`).
#[target_feature(enable = "sse2", enable = "aes")]
pub(crate) unsafe fn encrypt_blocks<const N: usize>(
    rk: &[[u8; 16]; 11],
    blocks: &mut [[u8; 16]; N],
) {
    use core::arch::x86_64::*;
    // SAFETY: the caller guarantees AES-NI and SSE2, the only features
    // these intrinsics need. Every load and store moves 16 bytes through
    // a `[u8; 16]` of `rk` or `blocks`, so all of them stay in bounds;
    // `loadu`/`storeu` have no alignment requirement.
    unsafe {
        let keys: [__m128i; 11] =
            std::array::from_fn(|r| _mm_loadu_si128(rk[r].as_ptr() as *const __m128i));
        let mut state: [__m128i; N] = std::array::from_fn(|i| {
            _mm_xor_si128(
                _mm_loadu_si128(blocks[i].as_ptr() as *const __m128i),
                keys[0],
            )
        });
        for key in &keys[1..10] {
            for s in state.iter_mut() {
                *s = _mm_aesenc_si128(*s, *key);
            }
        }
        for (i, s) in state.iter_mut().enumerate() {
            *s = _mm_aesenclast_si128(*s, keys[10]);
            _mm_storeu_si128(blocks[i].as_mut_ptr() as *mut __m128i, *s);
        }
    }
}

#[cfg(test)]
mod tests {
    // Equivalence with the table implementation is tested from
    // `crate::aes` (which owns a key schedule to test with) and by the
    // workspace `simd_equivalence` corpus test.
}
