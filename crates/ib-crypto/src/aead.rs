//! AES-GCM-style authenticated encryption with a 32-bit tag.
//!
//! The paper's Table 4 compares authentication-only MACs; its
//! discussion (and the AES-RDMA line of follow-up work) also wants the
//! *confidentiality + authentication* combination. This mode supplies
//! that arm: AES-128 in counter mode for confidentiality, GHASH over
//! the ciphertext (carry-less multiply when the CPU has PCLMULQDQ, the
//! Shoup table path otherwise — see [`crate::simd::gf128`]) for
//! authentication, truncated to the 32 bits that fit the ICRC slot.
//!
//! The construction follows NIST SP 800-38D with a 96-bit IV derived
//! from the caller's 64-bit nonce (IBA: `SLID‖PSN`, already unique per
//! key epoch): `J₀ = 0³²‖nonce‖1`, CTR starts at `inc₃₂(J₀)`, and the
//! tag is `MSB₃₂(GHASH(A, C) ⊕ AES_K(J₀))`. Truncating to 32 bits
//! matches the ICRC-as-MAC budget and costs forgery probability
//! accordingly (≈2⁻³² per attempt, the same budget as the other
//! Table-4 arms; the CW bound argument in §6 applies unchanged).
//!
//! [`AesGcm32::open`] verifies **before** decrypting: the ciphertext is
//! authenticated, so a forged packet is rejected without ever running
//! the keystream, and the buffer is untouched on failure. Seal and open
//! work in place on `&mut [u8]` and never heap-allocate.

use crate::aes::Aes128;
use crate::simd::gf128::{self, GhashKey};

/// A keyed AES-GCM-32 instance (key schedule + GHASH key, derived once).
#[derive(Clone)]
pub struct AesGcm32 {
    aes: Aes128,
    ghash: GhashKey,
}

impl AesGcm32 {
    /// Derive from a 16-byte key: `H = AES_K(0¹²⁸)` keys GHASH.
    pub fn new(key: &[u8; 16]) -> Self {
        let aes = Aes128::new(key);
        let mut h = [0u8; 16];
        aes.encrypt_block(&mut h);
        AesGcm32 {
            ghash: GhashKey::new(&h),
            aes,
        }
    }

    /// The pre-counter block J₀ for a 96-bit IV `0³² ‖ nonce`.
    fn j0(nonce: u64) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[4..12].copy_from_slice(&nonce.to_be_bytes());
        block[15] = 1;
        block
    }

    /// CTR-mode transform in place, counters starting at `J₀ + ctr_off`.
    /// Eight keystream blocks run per batch (pipelined under AES-NI).
    fn ctr_xor(&self, j0: &[u8; 16], mut ctr: u32, data: &mut [u8]) {
        for chunk in data.chunks_mut(128) {
            let mut ks = [[0u8; 16]; 8];
            let blocks = chunk.len().div_ceil(16);
            for block in ks.iter_mut().take(blocks) {
                *block = *j0;
                let next = u32::from_be_bytes(block[12..16].try_into().unwrap()).wrapping_add(ctr);
                block[12..16].copy_from_slice(&next.to_be_bytes());
                ctr = ctr.wrapping_add(1);
            }
            self.aes.encrypt_blocks(&mut ks);
            for (b, k) in chunk.iter_mut().zip(ks.as_flattened()) {
                *b ^= k;
            }
        }
    }

    /// GHASH of `aad ‖ pad ‖ ct ‖ pad ‖ len(aad)‖len(ct)` in the
    /// reflected representation.
    fn ghash(&self, aad: &[u8], ct: &[u8]) -> u128 {
        let mut y = 0u128;
        for part in [aad, ct] {
            for chunk in part.chunks(16) {
                let mut block = [0u8; 16];
                block[..chunk.len()].copy_from_slice(chunk);
                y = self.ghash.mul(y ^ gf128::from_block(&block));
            }
        }
        let mut lens = [0u8; 16];
        lens[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        lens[8..].copy_from_slice(&((ct.len() as u64) * 8).to_be_bytes());
        self.ghash.mul(y ^ gf128::from_block(&lens))
    }

    /// The 32-bit tag over an existing ciphertext: `MSB₃₂` of the full
    /// GCM tag block.
    fn tag32(&self, j0: &[u8; 16], aad: &[u8], ct: &[u8]) -> u32 {
        let mut mask = *j0;
        self.aes.encrypt_block(&mut mask);
        let full = gf128::to_block(self.ghash(aad, ct));
        u32::from_be_bytes([
            full[0] ^ mask[0],
            full[1] ^ mask[1],
            full[2] ^ mask[2],
            full[3] ^ mask[3],
        ])
    }

    /// Encrypt `data` in place under `nonce` and return the 32-bit tag
    /// binding ciphertext and `aad`. Nonces must not repeat per key.
    pub fn seal(&self, nonce: u64, aad: &[u8], data: &mut [u8]) -> u32 {
        let j0 = Self::j0(nonce);
        self.ctr_xor(&j0, 1, data);
        self.tag32(&j0, aad, data)
    }

    /// Verify `tag` over the ciphertext in `data` (and `aad`), then —
    /// only on success — decrypt in place. Returns whether the tag
    /// verified; on `false` the buffer is left untouched.
    pub fn open(&self, nonce: u64, aad: &[u8], data: &mut [u8], tag: u32) -> bool {
        let j0 = Self::j0(nonce);
        // XOR-compare keeps timing independent of which bit differs.
        if (self.tag32(&j0, aad, data) ^ tag) != 0 {
            return false;
        }
        self.ctr_xor(&j0, 1, data);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::gf128::mul_scalar;

    /// Independent reference GCM-32: soft AES only, bit-loop GF(2¹²⁸)
    /// multiply only. The dispatched implementation must match this on
    /// every input regardless of which kernels detection picked.
    fn reference_seal(key: &[u8; 16], nonce: u64, aad: &[u8], pt: &[u8]) -> (Vec<u8>, u32) {
        let aes = Aes128::new(key);
        let mut h = [0u8; 16];
        aes.encrypt_block_soft(&mut h);
        let h = gf128::from_block(&h);
        let j0 = AesGcm32::j0(nonce);
        // CTR, one block at a time.
        let mut ct = pt.to_vec();
        for (i, chunk) in ct.chunks_mut(16).enumerate() {
            let mut ks = j0;
            let c = u32::from_be_bytes(ks[12..16].try_into().unwrap()).wrapping_add(1 + i as u32);
            ks[12..16].copy_from_slice(&c.to_be_bytes());
            aes.encrypt_block_soft(&mut ks);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
        // GHASH.
        let mut y = 0u128;
        for part in [aad, &ct[..]] {
            for chunk in part.chunks(16) {
                let mut block = [0u8; 16];
                block[..chunk.len()].copy_from_slice(chunk);
                y = mul_scalar(y ^ gf128::from_block(&block), h);
            }
        }
        let mut lens = [0u8; 16];
        lens[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        lens[8..].copy_from_slice(&((ct.len() as u64) * 8).to_be_bytes());
        y = mul_scalar(y ^ gf128::from_block(&lens), h);
        let full = gf128::to_block(y);
        let mut mask = j0;
        aes.encrypt_block_soft(&mut mask);
        let tag = u32::from_be_bytes([
            full[0] ^ mask[0],
            full[1] ^ mask[1],
            full[2] ^ mask[2],
            full[3] ^ mask[3],
        ]);
        (ct, tag)
    }

    #[test]
    fn seal_matches_reference_across_lengths() {
        let key = b"gcm equivalence!";
        let gcm = AesGcm32::new(key);
        let aad = b"bth+deth header bytes";
        for len in [0usize, 1, 15, 16, 17, 64, 127, 128, 129, 1024, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 89 + 7) as u8).collect();
            let (want_ct, want_tag) = reference_seal(key, 0xABCD_1234, aad, &pt);
            let mut data = pt.clone();
            let tag = gcm.seal(0xABCD_1234, aad, &mut data);
            assert_eq!(data, want_ct, "ct len {len}");
            assert_eq!(tag, want_tag, "tag len {len}");
        }
    }

    #[test]
    fn open_round_trips_and_rejects() {
        let gcm = AesGcm32::new(b"round trip key!!");
        let pt: Vec<u8> = (0..777).map(|i| (i * 31) as u8).collect();
        let mut data = pt.clone();
        let tag = gcm.seal(42, b"aad", &mut data);
        assert_ne!(data, pt, "ciphertext differs from plaintext");

        // Wrong tag, wrong aad, wrong nonce: all rejected, buffer intact.
        let ct = data.clone();
        assert!(!gcm.open(42, b"aad", &mut data, tag ^ 1));
        assert!(!gcm.open(42, b"axd", &mut data, tag));
        assert!(!gcm.open(43, b"aad", &mut data, tag));
        assert_eq!(data, ct, "failed open leaves ciphertext untouched");

        // Flipped ciphertext bit: rejected.
        data[100] ^= 0x40;
        assert!(!gcm.open(42, b"aad", &mut data, tag));
        data[100] ^= 0x40;

        assert!(gcm.open(42, b"aad", &mut data, tag));
        assert_eq!(data, pt, "open recovers the plaintext");
    }

    #[test]
    fn nonce_and_key_separate_streams() {
        let a = AesGcm32::new(b"first gcm key..!");
        let b = AesGcm32::new(b"other gcm key..!");
        let pt = vec![0u8; 64];
        let (mut d1, mut d2, mut d3) = (pt.clone(), pt.clone(), pt.clone());
        let t1 = a.seal(1, b"", &mut d1);
        let t2 = a.seal(2, b"", &mut d2);
        let t3 = b.seal(1, b"", &mut d3);
        assert_ne!(d1, d2, "nonce changes the keystream");
        assert_ne!(d1, d3, "key changes the keystream");
        assert_ne!(t1, t2);
        assert_ne!(t1, t3);
    }
}
