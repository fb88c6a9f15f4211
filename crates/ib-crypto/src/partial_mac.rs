//! Partial-coverage MAC — the paper's §7 "trading-off of security strength
//! and MAC computing speed … digest a small part of the message to make
//! the authentication tag. This will increase forgery probability, but it
//! will be better than CRC" (following Adcock et al.'s ACSA work \[1\]).
//!
//! The sampled byte positions are *keyed and per-nonce*: an attacker who
//! does not hold the key cannot know which bytes are covered, so flipping
//! any single byte is detected with probability ≈ `coverage`. The selected
//! bytes (plus the total length) are then MAC'd with full UMAC, so covered
//! content keeps the 2⁻³⁰ bound.
//!
//! Effective single-modification forgery probability:
//! `P(forge) ≈ (1 − coverage) + coverage·2⁻³⁰` — strictly better than
//! CRC's 1.0 for any coverage > 0, and tunable against throughput.

use crate::aes::Aes128;
use crate::umac::Umac;

/// A MAC that covers a keyed pseudorandom subset of message bytes.
#[derive(Clone)]
pub struct PartialMac {
    umac: Umac,
    sampler: Aes128,
    /// Numerator of coverage out of 256 (e.g. 64 ⇒ 25 % of bytes).
    coverage_u8: u8,
}

impl PartialMac {
    /// A partial MAC covering roughly `coverage` (0, 1] of message bytes.
    pub fn new(key: &[u8; 16], coverage: f64) -> Self {
        assert!(coverage > 0.0 && coverage <= 1.0, "coverage in (0, 1]");
        let mut sampler_key = *key;
        sampler_key[0] ^= 0x99; // domain-separate sampler from MAC keying
        PartialMac {
            umac: Umac::new(key),
            sampler: Aes128::new(&sampler_key),
            coverage_u8: ((coverage * 256.0).round() as u16).clamp(1, 256) as u8,
        }
    }

    /// Fraction of bytes covered.
    pub fn coverage(&self) -> f64 {
        if self.coverage_u8 == 0 {
            // 256/256 wraps to 0 in u8; 0 encodes full coverage.
            1.0
        } else {
            self.coverage_u8 as f64 / 256.0
        }
    }

    /// Approximate probability a single byte modification goes undetected.
    pub fn miss_probability(&self) -> f64 {
        1.0 - self.coverage()
    }

    /// Extract the covered portion of `message` under `nonce`.
    ///
    /// Sampling is *block-granular* (64-byte blocks) so the sampler itself
    /// stays far cheaper than the MAC it feeds: one AES call decides the
    /// fate of 16 blocks (1 KiB of message), and covered blocks are
    /// appended with plain memcpy. Block k is covered iff its keystream
    /// byte is below the coverage threshold — unpredictable without the
    /// key, re-drawn per nonce.
    fn sample(&self, nonce: u64, message: &[u8]) -> Vec<u8> {
        let nblocks = message.len().div_ceil(64);
        let mut selected =
            Vec::with_capacity((message.len() * self.coverage_u8.max(1) as usize) / 200 + 80);
        let mut decisions = [0u8; 16];
        for group in 0..nblocks.div_ceil(16) {
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&(nonce ^ 0xA17).to_be_bytes());
            block[8..].copy_from_slice(&(group as u64).to_be_bytes());
            self.sampler.encrypt_block(&mut block);
            decisions.copy_from_slice(&block);
            for (j, &decision) in decisions.iter().enumerate() {
                let k = group * 16 + j;
                if k >= nblocks {
                    break;
                }
                let covered = self.coverage_u8 == 0 || decision < self.coverage_u8;
                if covered {
                    let start = k * 64;
                    let end = (start + 64).min(message.len());
                    selected.extend_from_slice(&message[start..end]);
                }
            }
        }
        selected
    }

    /// Compute the 32-bit tag over the sampled bytes + length.
    pub fn tag32(&self, nonce: u64, message: &[u8]) -> u32 {
        let mut sampled = self.sample(nonce, message);
        sampled.extend_from_slice(&(message.len() as u64).to_le_bytes());
        self.umac.tag32(nonce, &sampled)
    }

    /// Verify a tag.
    pub fn verify(&self, nonce: u64, message: &[u8], tag: u32) -> bool {
        self.tag32(nonce, message) == tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> [u8; 16] {
        *b"partial mac key!"
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        let a = PartialMac::new(&key(), 0.25);
        assert_eq!(a.tag32(1, b"hello world"), a.tag32(1, b"hello world"));
        let mut k2 = key();
        k2[5] ^= 1;
        let b = PartialMac::new(&k2, 0.25);
        assert_ne!(a.tag32(1, b"hello world"), b.tag32(1, b"hello world"));
    }

    #[test]
    fn full_coverage_catches_everything() {
        let m = PartialMac::new(&key(), 1.0);
        let msg = vec![0x5Au8; 300];
        let tag = m.tag32(7, &msg);
        for i in 0..msg.len() {
            let mut tampered = msg.clone();
            tampered[i] ^= 1;
            assert!(
                !m.verify(7, &tampered, tag),
                "byte {i} missed at full coverage"
            );
        }
    }

    #[test]
    fn partial_coverage_catches_about_the_right_fraction() {
        // Block-granular sampling: use enough 64-byte blocks (128) that
        // the binomial variance of covered-block count is small.
        let m = PartialMac::new(&key(), 0.25);
        let msg = vec![0xC3u8; 8192];
        let tag = m.tag32(9, &msg);
        let mut caught = 0;
        let mut tested = 0;
        for i in (0..msg.len()).step_by(16) {
            let mut tampered = msg.clone();
            tampered[i] ^= 0xFF;
            if !m.verify(9, &tampered, tag) {
                caught += 1;
            }
            tested += 1;
        }
        let rate = caught as f64 / tested as f64;
        assert!(
            (rate - 0.25).abs() < 0.10,
            "detection rate {rate} should be near coverage 0.25"
        );
    }

    #[test]
    fn coverage_positions_change_with_nonce() {
        // The same tamper position caught under one nonce may be missed
        // under another — positions are nonce-keyed (replay of analysis
        // across packets is useless to the attacker). Scan one byte per
        // 64-byte block across 32 blocks.
        let m = PartialMac::new(&key(), 0.25);
        let msg = vec![0u8; 2048];
        let t1 = m.tag32(1, &msg);
        let t2 = m.tag32(2, &msg);
        let mut differs = false;
        for block in 0..32 {
            let mut tampered = msg.clone();
            tampered[block * 64] ^= 1;
            let caught_n1 = !m.verify(1, &tampered, t1);
            let caught_n2 = !m.verify(2, &tampered, t2);
            if caught_n1 != caught_n2 {
                differs = true;
                break;
            }
        }
        assert!(differs, "coverage pattern must vary with the nonce");
    }

    #[test]
    fn length_always_covered() {
        let m = PartialMac::new(&key(), 0.1);
        let tag = m.tag32(3, &[0u8; 100]);
        assert!(!m.verify(3, &[0u8; 99], tag));
        assert!(!m.verify(3, &[0u8; 101], tag));
    }

    #[test]
    fn miss_probability_reporting() {
        assert!((PartialMac::new(&key(), 0.25).miss_probability() - 0.75).abs() < 0.01);
        assert_eq!(PartialMac::new(&key(), 1.0).miss_probability(), 0.0);
    }

    #[test]
    #[should_panic(expected = "coverage in (0, 1]")]
    fn zero_coverage_rejected() {
        let _ = PartialMac::new(&key(), 0.0);
    }
}
