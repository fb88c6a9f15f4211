//! UMAC-style universal-hash message authentication (Black, Halevi,
//! Krawczyk, Krovetz, Rogaway — CRYPTO '99; RFC 4418).
//!
//! This is the MAC the paper selects for the ICRC-as-MAC scheme "due to its
//! speed and proved security" (§5.2): the 32-bit tag gives a provable 2⁻³⁰
//! forgery bound, and the NH inner hash runs at a fraction of a cycle per
//! byte on SIMD hardware.
//!
//! ## Construction (three-level Carter-Wegman, as in UMAC-32)
//!
//! 1. **L1 — NH**: the message is split into 1024-byte chunks; each chunk is
//!    zero-padded to a multiple of 8 bytes and hashed with
//!    `NH(K,M) = Σ (m₂ᵢ +₃₂ k₂ᵢ)·(m₂ᵢ₊₁ +₃₂ k₂ᵢ₊₁) mod 2⁶⁴ + 8·len`,
//!    a 2-universal hash that needs only 32-bit adds and one 32×32→64
//!    multiply per 8 message bytes.
//! 2. **L2 — POLY**: if the message spans several chunks, their NH images
//!    are compressed with a polynomial hash over the prime `p64 = 2⁶⁴ − 59`.
//! 3. **L3 — inner product**: the 64-bit result is mapped to 32 bits with an
//!    inner-product hash over `p36 = 2³⁶ − 5`, then XORed with an AES-derived
//!    one-time pad indexed by the packet nonce (in IBA, the PSN serves as
//!    the nonce — see `ib-security`'s replay module).
//!
//! All hash keys and pads are derived from a single 16-byte AES key, exactly
//! as in RFC 4418's KDF/PDF split.
//!
//! ## Deviation from RFC 4418 (documented substitution)
//!
//! The RFC's bit-exact test vectors depend on a Toeplitz key-shift scheme and
//! endianness conventions tuned for MMX; this implementation keeps the exact
//! NH/POLY/inner-product algebra (so the forgery bound ε ≤ 2⁻³⁰ carries over
//! — the bound depends only on the universal-hash family, Thm. 4.2 of the
//! CRYPTO '99 paper) but uses a straightforward little-endian layout and a
//! single Toeplitz iteration. Property tests verify the universal-hash
//! distribution empirically.

use crate::aes::Aes128;

/// NH chunk size in bytes (RFC 4418 UMAC-32 default, 1024 bytes).
pub const NH_CHUNK_BYTES: usize = 1024;
const NH_WORDS: usize = NH_CHUNK_BYTES / 4;
/// Prime 2^64 - 59, the POLY modulus.
pub const P64: u64 = 0xFFFF_FFFF_FFFF_FFC5;
/// Prime 2^36 - 5, the L3 inner-product modulus.
pub const P36: u64 = (1 << 36) - 5;

/// KDF domain-separation markers (first byte of the AES input block).
const KDF_NH: u8 = 0x01;
const KDF_POLY: u8 = 0x02;
const KDF_L3: u8 = 0x03;
const PDF_PAD: u8 = 0x04;

/// A keyed UMAC instance. Construction derives all subkeys once; tagging a
/// message performs no heap allocation.
#[derive(Clone)]
pub struct Umac {
    aes: Aes128,
    nh_key: [u32; NH_WORDS],
    poly_key: u64,
    l3_key: [u64; 4],
}

impl Umac {
    /// Derive a UMAC instance from a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        let aes = Aes128::new(key);

        let mut nh_bytes = [0u8; NH_CHUNK_BYTES];
        kdf(&aes, KDF_NH, &mut nh_bytes);
        let mut nh_key = [0u32; NH_WORDS];
        for (i, w) in nh_key.iter_mut().enumerate() {
            *w = u32::from_le_bytes(nh_bytes[i * 4..i * 4 + 4].try_into().unwrap());
        }

        let mut poly_bytes = [0u8; 8];
        kdf(&aes, KDF_POLY, &mut poly_bytes);
        // Clamp the poly key below 2^60 so k*y + m cannot overflow u128
        // arithmetic paths and to keep k well inside the field, mirroring
        // RFC 4418's key masking.
        let poly_key = u64::from_le_bytes(poly_bytes) & 0x0FFF_FFFF_FFFF_FFFF;

        let mut l3_bytes = [0u8; 32];
        kdf(&aes, KDF_L3, &mut l3_bytes);
        let mut l3_key = [0u64; 4];
        for (i, k) in l3_key.iter_mut().enumerate() {
            *k = u64::from_le_bytes(l3_bytes[i * 8..i * 8 + 8].try_into().unwrap()) % P36;
        }

        Umac {
            aes,
            nh_key,
            poly_key,
            l3_key,
        }
    }

    /// NH hash of one chunk (`chunk.len() <= NH_CHUNK_BYTES`).
    ///
    /// The chunk is implicitly zero-padded to a multiple of 8 bytes; the
    /// unpadded bit length is folded in, so distinct lengths yield distinct
    /// hash inputs (NH is only universal over equal-length strings).
    fn nh(&self, chunk: &[u8]) -> u64 {
        self.nh_tail(0, 0, chunk)
    }

    /// NH continuation: `sum` already covers `chunk[..done]` (`done` a
    /// multiple of 8); hashes the rest — whole pairs through the
    /// dispatched kernel ([`crate::simd::nh`]), padded remainder and the
    /// length term scalar. The NH sum wraps mod 2⁶⁴, so every
    /// accumulation order yields the identical value.
    fn nh_tail(&self, sum: u64, done: usize, chunk: &[u8]) -> u64 {
        self.nh_tail_with(sum, done, chunk, crate::simd::nh::nh_pairs)
    }

    /// [`Umac::nh_tail`] with an explicit whole-pair kernel, so the
    /// scalar oracle path can bypass dispatch entirely.
    fn nh_tail_with(
        &self,
        sum: u64,
        done: usize,
        chunk: &[u8],
        kernel: fn(u64, &[u32], &[u8]) -> u64,
    ) -> u64 {
        debug_assert!(chunk.len() <= NH_CHUNK_BYTES);
        debug_assert_eq!(done % 8, 0);
        let whole = chunk.len() & !7;
        let mut sum = kernel(sum, &self.nh_key[done / 4..whole / 4], &chunk[done..whole]);
        let rem = &chunk[whole..];
        if !rem.is_empty() {
            let mut padded = [0u8; 8];
            padded[..rem.len()].copy_from_slice(rem);
            let m0 = u32::from_le_bytes(padded[0..4].try_into().unwrap());
            let m1 = u32::from_le_bytes(padded[4..8].try_into().unwrap());
            let i = whole / 4;
            let a = m0.wrapping_add(self.nh_key[i]) as u64;
            let b = m1.wrapping_add(self.nh_key[i + 1]) as u64;
            sum = sum.wrapping_add(a.wrapping_mul(b));
        }
        sum.wrapping_add((chunk.len() as u64).wrapping_mul(8))
    }

    /// L2 polynomial hash over p64 of the NH chunk images.
    fn poly(&self, values: impl Iterator<Item = u64>) -> u64 {
        let mut y: u64 = 1;
        for v in values {
            // Reduce v into the field first (negligible bias: 59/2^64).
            let m = v % P64;
            y = mul_mod_p64(y, self.poly_key);
            y = add_mod_p64(y, m);
        }
        y
    }

    /// L3: 64 → 32 bits via inner product over p36.
    fn l3(&self, y: u64) -> u32 {
        let mut acc: u128 = 0;
        for (i, k) in self.l3_key.iter().enumerate() {
            let chunk = (y >> (48 - 16 * i)) & 0xFFFF;
            acc += (chunk as u128) * (*k as u128);
        }
        ((acc % P36 as u128) as u64 & 0xFFFF_FFFF) as u32
    }

    /// One-time pad for `nonce` (PDF in RFC 4418 terms).
    fn pad32(&self, nonce: u64) -> u32 {
        let mut block = [0u8; 16];
        block[0] = PDF_PAD;
        block[8..16].copy_from_slice(&nonce.to_be_bytes());
        self.aes.encrypt_block(&mut block);
        u32::from_be_bytes([block[0], block[1], block[2], block[3]])
    }

    /// Hash of the message before the pad is applied (the Carter-Wegman
    /// "universal hash" part). Exposed for testing the hash family
    /// independently of the pad.
    pub fn hash64(&self, message: &[u8]) -> u64 {
        if message.len() <= NH_CHUNK_BYTES {
            // Single-chunk fast path: skip POLY entirely (as UMAC does).
            self.nh(message)
        } else {
            self.poly(message.chunks(NH_CHUNK_BYTES).map(|c| self.nh(c)))
        }
    }

    /// [`Umac::hash64`] computed through the portable scalar NH kernel
    /// only, regardless of detected CPU features — the benchmark
    /// baseline and the property-test oracle for the dispatched path.
    pub fn hash64_scalar(&self, message: &[u8]) -> u64 {
        let nh = |c: &[u8]| self.nh_tail_with(0, 0, c, crate::simd::nh::nh_pairs_scalar);
        if message.len() <= NH_CHUNK_BYTES {
            nh(message)
        } else {
            self.poly(message.chunks(NH_CHUNK_BYTES).map(nh))
        }
    }

    /// Compute the 32-bit authentication tag of `message` under `nonce`.
    ///
    /// Nonces must not repeat under the same key (Carter-Wegman requirement);
    /// the IBA integration uses the packet sequence number.
    pub fn tag32(&self, nonce: u64, message: &[u8]) -> u32 {
        self.l3(self.hash64(message)) ^ self.pad32(nonce)
    }

    /// [`Umac::tag32`] through the scalar kernels only (see
    /// [`Umac::hash64_scalar`]). Bit-identical output, always.
    pub fn tag32_scalar(&self, nonce: u64, message: &[u8]) -> u32 {
        self.l3(self.hash64_scalar(message)) ^ self.pad32(nonce)
    }

    /// Verify `tag` over `message`/`nonce` in constant time with respect to
    /// tag contents.
    pub fn verify(&self, nonce: u64, message: &[u8], tag: u32) -> bool {
        // 32-bit XOR-compare then single equality keeps timing independent
        // of which byte differs.
        (self.tag32(nonce, message) ^ tag) == 0
    }

    /// Tag four messages in lockstep — the multi-buffer path for the
    /// short-payload regime where per-buffer SIMD cannot win. When all
    /// four messages are single-chunk (≤ [`NH_CHUNK_BYTES`], the packet
    /// case) the NH inner loops advance four accumulators per shared
    /// key-vector load and the four nonce pads pipeline through AES
    /// together; longer messages fall back per-message. Bit-identical
    /// to four [`Umac::tag32`] calls in every case.
    pub fn tag32_x4(&self, nonces: [u64; 4], msgs: [&[u8]; 4]) -> [u32; 4] {
        let hashes: [u64; 4] = if msgs.iter().all(|m| m.len() <= NH_CHUNK_BYTES) {
            let common = msgs.iter().map(|m| m.len() & !7).min().unwrap_or(0);
            let sums = crate::simd::nh::nh_pairs_x4([0; 4], &self.nh_key, msgs, common);
            std::array::from_fn(|j| self.nh_tail(sums[j], common, msgs[j]))
        } else {
            std::array::from_fn(|j| self.hash64(msgs[j]))
        };
        let mut pads = [[0u8; 16]; 4];
        for (block, nonce) in pads.iter_mut().zip(nonces) {
            block[0] = PDF_PAD;
            block[8..16].copy_from_slice(&nonce.to_be_bytes());
        }
        self.aes.encrypt_blocks(&mut pads);
        std::array::from_fn(|j| {
            let p = u32::from_be_bytes([pads[j][0], pads[j][1], pads[j][2], pads[j][3]]);
            self.l3(hashes[j]) ^ p
        })
    }
}

fn kdf(aes: &Aes128, marker: u8, out: &mut [u8]) {
    for (counter, chunk) in out.chunks_mut(16).enumerate() {
        let mut block = [0u8; 16];
        block[0] = marker;
        block[8..16].copy_from_slice(&(counter as u64).to_be_bytes());
        aes.encrypt_block(&mut block);
        chunk.copy_from_slice(&block[..chunk.len()]);
    }
}

#[inline]
fn add_mod_p64(a: u64, b: u64) -> u64 {
    let (sum, carry) = a.overflowing_add(b);
    let mut s = sum;
    if carry || s >= P64 {
        s = s.wrapping_sub(P64);
    }
    s
}

#[inline]
fn mul_mod_p64(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % P64 as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> [u8; 16] {
        [b; 16]
    }

    #[test]
    fn deterministic() {
        let u = Umac::new(&key(1));
        assert_eq!(u.tag32(42, b"hello"), u.tag32(42, b"hello"));
    }

    #[test]
    fn key_sensitivity() {
        let a = Umac::new(&key(1));
        let b = Umac::new(&key(2));
        assert_ne!(a.tag32(1, b"message"), b.tag32(1, b"message"));
    }

    #[test]
    fn nonce_sensitivity() {
        let u = Umac::new(&key(3));
        assert_ne!(u.tag32(1, b"message"), u.tag32(2, b"message"));
    }

    #[test]
    fn message_sensitivity_across_sizes() {
        let u = Umac::new(&key(4));
        for len in [0usize, 1, 7, 8, 9, 100, 1023, 1024, 1025, 4096] {
            let m1 = vec![0u8; len.max(1)];
            let mut m2 = m1.clone();
            m2[0] ^= 1;
            assert_ne!(u.tag32(9, &m1), u.tag32(9, &m2), "len {len}");
        }
    }

    #[test]
    fn length_extension_distinguished() {
        // NH folds in the true length, so a zero-padded message must not
        // collide with its padded form.
        let u = Umac::new(&key(5));
        let short = [0xAAu8, 0, 0, 0];
        let long = [0xAAu8, 0, 0, 0, 0, 0, 0, 0];
        assert_ne!(u.tag32(1, &short), u.tag32(1, &long));
    }

    #[test]
    fn multi_chunk_poly_path() {
        let u = Umac::new(&key(6));
        let m1 = vec![0x11u8; NH_CHUNK_BYTES * 3 + 17];
        let mut m2 = m1.clone();
        m2[NH_CHUNK_BYTES * 2] ^= 0x80; // flip a bit in the third chunk
        assert_ne!(u.tag32(1, &m1), u.tag32(1, &m2));
        // And determinism on the slow path too.
        assert_eq!(u.tag32(1, &m1), u.tag32(1, &m1));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let u = Umac::new(&key(7));
        let tag = u.tag32(100, b"payload");
        assert!(u.verify(100, b"payload", tag));
        assert!(!u.verify(100, b"payload", tag ^ 1));
        assert!(!u.verify(101, b"payload", tag));
        assert!(!u.verify(100, b"payloae", tag));
    }

    #[test]
    fn tag_distribution_rough_uniformity() {
        // Tags of related messages should spread across the 32-bit space:
        // with 512 samples, expect no more than a couple of collisions in
        // any 16-bit projection bucket count far from uniform. We test that
        // all 512 tags are distinct (collision probability ~ 2^-23).
        let u = Umac::new(&key(8));
        let mut tags: Vec<u32> = (0..512u32).map(|i| u.tag32(7, &i.to_le_bytes())).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 512);
    }

    #[test]
    fn mod_p64_arithmetic() {
        assert_eq!(add_mod_p64(P64 - 1, 1), 0);
        assert_eq!(add_mod_p64(P64 - 1, 2), 1);
        assert_eq!(mul_mod_p64(P64 - 1, P64 - 1), 1); // (-1)^2 = 1 mod p
        assert_eq!(mul_mod_p64(0, 123), 0);
        assert_eq!(mul_mod_p64(1, 123), 123);
    }

    #[test]
    fn tag32_x4_matches_four_singles() {
        let u = Umac::new(&key(11));
        for base in [0usize, 1, 7, 8, 60, 500, 1000, 1024, 1500] {
            let msgs_owned: Vec<Vec<u8>> = (0..4)
                .map(|j| {
                    (0..base + j * 3)
                        .map(|i| (i * 41 + j * 13 + 5) as u8)
                        .collect()
                })
                .collect();
            let msgs = [
                &msgs_owned[0][..],
                &msgs_owned[1][..],
                &msgs_owned[2][..],
                &msgs_owned[3][..],
            ];
            let nonces = [10, 20, 30, 40];
            let got = u.tag32_x4(nonces, msgs);
            for j in 0..4 {
                assert_eq!(got[j], u.tag32(nonces[j], msgs[j]), "base {base} lane {j}");
            }
        }
    }

    #[test]
    fn scalar_oracle_matches_dispatched_tag() {
        let u = Umac::new(&key(12));
        for len in [0usize, 1, 7, 8, 60, 64, 1000, 1023, 1024, 1025, 4096] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 73 + 29) as u8).collect();
            assert_eq!(u.tag32_scalar(5, &msg), u.tag32(5, &msg), "len {len}");
            assert_eq!(u.hash64_scalar(&msg), u.hash64(&msg), "len {len}");
        }
    }

    #[test]
    fn hash64_independent_of_nonce() {
        let u = Umac::new(&key(9));
        // hash64 is the unpadded universal hash; nonce only affects the pad.
        let h = u.hash64(b"some message");
        let t1 = u.tag32(1, b"some message");
        let t2 = u.tag32(2, b"some message");
        assert_eq!(t1 ^ u.pad32(1), t2 ^ u.pad32(2));
        assert_eq!(t1 ^ u.pad32(1), u.l3(h));
    }
}
