//! A stream-cipher integrity check in the style of Lai-Rueppel-Woollven and
//! Taylor (paper §7: "use a stream cipher MAC where MAC can be made while
//! transferring data").
//!
//! The construction is a polynomial-evaluation MAC over GF(2³²) (the same
//! algebra as GMAC, truncated to the 32-bit ICRC field):
//!
//! ```text
//! state ← 0
//! for each 32-bit word m of the message:  state ← (state ⊕ m) ⊗ h
//! tag = state ⊕ pad(nonce)
//! ```
//!
//! where `h` is a key-derived field point, `⊗` is carry-less multiplication
//! modulo the CRC-32 polynomial `x³² + x²⁶ + ... + 1` (0x04C11DB7), and the
//! pad is an AES-CTR word keyed by the nonce. Because the state update needs
//! only the next word, hardware can compute the tag *while the packet
//! streams through the link layer* — no second pass, which is exactly the
//! property §7 wants for keeping MAC generation off the critical path. The
//! software form here is one-shot, like every MAC in this crate: one pass
//! over a contiguous message, the recurrence above word by word.
//!
//! NOTE: the CRC-32 polynomial is *not irreducible*, so GF arithmetic here
//! is over a ring, not a field; we deliberately keep it to show that the
//! hardware CRC datapath (LFSR + XOR tree) can be reused. The weakened
//! forgery bound relative to UMAC is reported honestly in
//! [`crate::mac::AuthAlgorithm::forgery_log2`].

use crate::aes::Aes128;

/// The CRC-32 generator polynomial (without the x^32 term), the reduction
/// modulus for the ring multiplication.
const POLY: u32 = 0x04C1_1DB7;

/// Carry-less multiply of two 32-bit ring elements modulo the CRC-32
/// polynomial.
#[inline]
pub fn clmul_mod(a: u32, b: u32) -> u32 {
    let mut acc: u64 = 0;
    for i in 0..32 {
        if (b >> i) & 1 != 0 {
            acc ^= (a as u64) << i;
        }
    }
    // Reduce the 63-bit product.
    for bit in (32..64).rev() {
        if (acc >> bit) & 1 != 0 {
            acc ^= ((POLY as u64) | (1 << 32)) << (bit - 32);
        }
    }
    acc as u32
}

/// A keyed stream-cipher MAC. Clone-cheap.
#[derive(Clone)]
pub struct StreamMac {
    aes: Aes128,
    h: u32,
}

impl StreamMac {
    /// Derive the MAC key point `h` from a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        let aes = Aes128::new(key);
        let mut block = [0u8; 16];
        block[0] = 0x05; // domain separation from the UMAC KDF markers
        aes.encrypt_block(&mut block);
        let mut h = u32::from_be_bytes([block[0], block[1], block[2], block[3]]);
        if h == 0 {
            h = 1; // h = 0 would absorb the whole message
        }
        StreamMac { aes, h }
    }

    /// The 32-bit tag of `message` under `nonce`: every little-endian word
    /// through the recurrence (the last one zero-padded), then the byte
    /// length folded in with one more ring multiply, so lengths are
    /// domain-separated.
    pub fn tag32(&self, nonce: u64, message: &[u8]) -> u32 {
        let mut acc = 0u32;
        let mut words = message.chunks_exact(4);
        for w in &mut words {
            acc = clmul_mod(acc ^ u32::from_le_bytes(w.try_into().unwrap()), self.h);
        }
        let rem = words.remainder();
        if !rem.is_empty() {
            let mut padded = [0u8; 4];
            padded[..rem.len()].copy_from_slice(rem);
            acc = clmul_mod(acc ^ u32::from_le_bytes(padded), self.h);
        }
        let len = message.len() as u64;
        acc = clmul_mod(acc ^ (len as u32) ^ ((len >> 32) as u32), self.h);
        let mut block = [0u8; 16];
        block[0] = 0x06;
        block[8..16].copy_from_slice(&nonce.to_be_bytes());
        self.aes.encrypt_block(&mut block);
        acc ^ u32::from_be_bytes([block[0], block[1], block[2], block[3]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clmul_identity_and_zero() {
        for a in [0u32, 1, 0xDEADBEEF, 0xFFFFFFFF] {
            assert_eq!(clmul_mod(a, 1), a);
            assert_eq!(clmul_mod(a, 0), 0);
            assert_eq!(clmul_mod(0, a), 0);
        }
    }

    #[test]
    fn clmul_commutes_and_distributes() {
        let samples = [1u32, 3, 0x8000_0001, 0x04C1_1DB7, 0xFFFF_FFFE];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(clmul_mod(a, b), clmul_mod(b, a));
                for &c in &samples {
                    assert_eq!(clmul_mod(a ^ b, c), clmul_mod(a, c) ^ clmul_mod(b, c));
                }
            }
        }
    }

    #[test]
    fn sensitivity() {
        let mac = StreamMac::new(b"stream mac key!!");
        let t = mac.tag32(1, b"hello world!");
        assert_ne!(t, mac.tag32(2, b"hello world!"));
        assert_ne!(t, mac.tag32(1, b"hello world?"));
        let mac2 = StreamMac::new(b"other  mac key!!");
        assert_ne!(t, mac2.tag32(1, b"hello world!"));
    }

    #[test]
    fn length_domain_separation() {
        let mac = StreamMac::new(b"stream mac key!!");
        assert_ne!(mac.tag32(1, &[0u8; 4]), mac.tag32(1, &[0u8; 8]));
        assert_ne!(mac.tag32(1, &[]), mac.tag32(1, &[0u8]));
    }

    #[test]
    fn word_by_word_streaming() {
        // The property §7 cares about: a receiver holding one word
        // register, fed one byte at a time as bytes arrive off the wire,
        // ends with the one-shot tag — every prefix length, so every
        // partial final word.
        let mac = StreamMac::new(b"0123456789abcdef");
        let data = b"packet flowing through the link layer";
        let mut block = [0u8; 16];
        block[0] = 0x06;
        block[8..].copy_from_slice(&77u64.to_be_bytes());
        mac.aes.encrypt_block_soft(&mut block);
        let pad = u32::from_be_bytes([block[0], block[1], block[2], block[3]]);
        for len in 0..=data.len() {
            let (mut acc, mut word) = (0u32, [0u8; 4]);
            for (i, &b) in data[..len].iter().enumerate() {
                word[i % 4] = b;
                if i % 4 == 3 {
                    acc = clmul_mod(acc ^ u32::from_le_bytes(word), mac.h);
                }
            }
            if len % 4 != 0 {
                word[len % 4..].fill(0);
                acc = clmul_mod(acc ^ u32::from_le_bytes(word), mac.h);
            }
            acc = clmul_mod(acc ^ len as u32, mac.h);
            assert_eq!(acc ^ pad, mac.tag32(77, &data[..len]), "len {len}");
        }
    }
}
