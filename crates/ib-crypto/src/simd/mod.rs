//! Runtime-dispatched SIMD kernels for the authenticated datapath.
//!
//! Every kernel here is an *alternative implementation* of a scalar
//! routine elsewhere in this crate — never a new algorithm. The scalar
//! code stays the portable fallback and the correctness oracle: each
//! vector kernel is mathematically exact (CRC folding is linear algebra
//! over GF(2), the NH sum is commutative mod 2^64, PMAC's Σ is an XOR,
//! AES is a deterministic permutation), so outputs are bit-identical on
//! every input, and the `simd_equivalence` property test enforces it.
//!
//! ## Dispatch policy
//!
//! CPU features are detected **once**, on first use, via
//! [`std::arch::is_x86_feature_detected!`] behind a `OnceLock`
//! ([`caps`]). Hot paths read the cached [`SimdCaps`] — no per-call
//! detection cost. On non-x86_64 targets every capability is `false`
//! and all call sites fall through to the scalar kernels.
//!
//! Setting the environment variable `IB_SIMD=off` (checked at the same
//! single detection point) reports an all-false capability set, forcing
//! every call site onto the scalar path. CI runs the `mac_table4`
//! harness both ways and byte-diffs the structural output, so the
//! dispatch layer cannot silently change results.

// The one module allowed `unsafe` (the workspace lint table denies it):
// the kernels call `core::arch` intrinsics behind `#[target_feature]`,
// and every block states the CPU feature and bounds it relies on.
#![allow(unsafe_code)]

pub(crate) mod crc;
pub mod gf128;
pub mod nh;

#[cfg(target_arch = "x86_64")]
pub(crate) mod aesni;

use std::sync::OnceLock;

/// CPU capabilities the kernels in this module can use, detected once.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdCaps {
    /// SSE2 vector integer ops (x86_64 baseline, but still gated so
    /// `IB_SIMD=off` can force scalar).
    pub sse2: bool,
    /// PCLMULQDQ carry-less multiply (CRC-32 folding, GHASH).
    pub pclmul: bool,
    /// 256-bit integer vectors (wider NH lanes).
    pub avx2: bool,
    /// AES round instructions (block-parallel PMAC, AEAD, pads).
    pub aesni: bool,
}

impl SimdCaps {
    /// True when any vector path is available at all.
    pub fn any(&self) -> bool {
        self.sse2 || self.pclmul || self.avx2 || self.aesni
    }
}

static CAPS: OnceLock<SimdCaps> = OnceLock::new();

/// The process-wide capability set: detected on first call, cached
/// forever. Honors `IB_SIMD=off` (any value other than `off`, including
/// unset, enables detection).
#[inline]
pub fn caps() -> SimdCaps {
    *CAPS.get_or_init(detect)
}

fn detect() -> SimdCaps {
    if std::env::var("IB_SIMD").map(|v| v == "off") == Ok(true) {
        return SimdCaps::default();
    }
    #[cfg(target_arch = "x86_64")]
    {
        SimdCaps {
            sse2: is_x86_feature_detected!("sse2"),
            pclmul: is_x86_feature_detected!("pclmulqdq"),
            avx2: is_x86_feature_detected!("avx2"),
            aesni: is_x86_feature_detected!("aes"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdCaps::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_are_stable_across_calls() {
        let a = caps();
        let b = caps();
        assert_eq!(a.sse2, b.sse2);
        assert_eq!(a.pclmul, b.pclmul);
        assert_eq!(a.avx2, b.avx2);
        assert_eq!(a.aesni, b.aesni);
    }

    #[test]
    fn default_caps_are_all_off() {
        let c = SimdCaps::default();
        assert!(!c.any());
    }
}
