//! AES-128 block cipher (FIPS 197), implemented from the specification.
//!
//! AES serves three roles in this reproduction:
//!
//! 1. PRF/KDF inside [`crate::umac`] (the real UMAC of Black et al. keys its
//!    universal hashes from AES output).
//! 2. The block cipher under [`crate::pmac`], the parallelizable MAC the
//!    paper's §7 proposes for "faster InfiniBand".
//! 3. A stand-in for the "30–70 Gbps AES security processor" the paper cites
//!    (\[39\]) — the `table4` bench reports its software throughput alongside
//!    the MACs.
//!
//! The S-box is *computed* at compile time from the GF(2⁸) inverse and the
//! affine transform rather than transcribed, and the whole cipher is checked
//! against the FIPS 197 Appendix C known-answer vector.

/// GF(2^8) multiplication modulo x^8 + x^4 + x^3 + x + 1 (0x11B).
const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
        i += 1;
    }
    p
}

/// GF(2^8) inverse by exponentiation: a^254 (with 0 ↦ 0).
const fn gf_inv(a: u8) -> u8 {
    // a^254 = product over the binary expansion 0b1111_1110.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

const fn affine(a: u8) -> u8 {
    a ^ a.rotate_left(1) ^ a.rotate_left(2) ^ a.rotate_left(3) ^ a.rotate_left(4) ^ 0x63
}

const fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        sbox[i] = affine(gf_inv(i as u8));
        i += 1;
    }
    sbox
}

/// The AES substitution box, generated at compile time.
pub(crate) static SBOX: [u8; 256] = build_sbox();

/// AES-128: 10 rounds, 11 round keys of 16 bytes each.
const ROUNDS: usize = 10;

/// An expanded AES-128 key, ready for encryption (every keyed
/// construction here — CTR, the GHASH pad, PMAC, the UMAC KDF — runs the
/// cipher forwards only).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; ROUNDS + 1],
    /// AES-NI availability, sampled once at key expansion so the
    /// per-block hot path reads a plain bool (see `crate::simd`).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    use_aesni: bool,
}

impl Aes128 {
    /// Expand a 16-byte cipher key (FIPS 197 §5.2).
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for i in 0..4 {
            w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        let mut rcon = 1u8;
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        Aes128 {
            round_keys,
            use_aesni: crate::simd::caps().aesni,
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State layout: state[c*4 + r] is row r, column c (column-major, as in
    /// FIPS 197's byte ordering of the input block).
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[c * 4 + r] = s[((c + r) % 4) * 4 + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[c * 4],
                state[c * 4 + 1],
                state[c * 4 + 2],
                state[c * 4 + 3],
            ];
            state[c * 4] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
            state[c * 4 + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
            state[c * 4 + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
            state[c * 4 + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
        }
    }

    /// Encrypt one 16-byte block in place (AES-NI when available; the
    /// table implementation otherwise — bit-identical either way).
    #[allow(unsafe_code)] // the AES-NI dispatch below
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if self.use_aesni {
            let mut one = [*block];
            // SAFETY: `use_aesni` is only set when detection succeeded.
            unsafe { crate::simd::aesni::encrypt_blocks(&self.round_keys, &mut one) };
            *block = one[0];
            return;
        }
        self.encrypt_block_soft(block);
    }

    /// The portable FIPS 197 table implementation of one block
    /// encryption: the oracle the AES-NI path is checked against.
    pub fn encrypt_block_soft(&self, block: &mut [u8; 16]) {
        Self::add_round_key(block, &self.round_keys[0]);
        for round in 1..ROUNDS {
            Self::sub_bytes(block);
            Self::shift_rows(block);
            Self::mix_columns(block);
            Self::add_round_key(block, &self.round_keys[round]);
        }
        Self::sub_bytes(block);
        Self::shift_rows(block);
        Self::add_round_key(block, &self.round_keys[ROUNDS]);
    }

    /// Encrypt `N` independent blocks in place. With AES-NI all `N`
    /// states pipeline through the AES unit together (the PMAC-lane /
    /// CTR / packet-batch fast path); otherwise they encrypt
    /// sequentially. Output is bit-identical either way.
    #[allow(unsafe_code)] // the AES-NI dispatch below
    pub fn encrypt_blocks<const N: usize>(&self, blocks: &mut [[u8; 16]; N]) {
        #[cfg(target_arch = "x86_64")]
        if self.use_aesni {
            // SAFETY: `use_aesni` is only set when detection succeeded.
            unsafe { crate::simd::aesni::encrypt_blocks(&self.round_keys, blocks) };
            return;
        }
        for b in blocks.iter_mut() {
            self.encrypt_block_soft(b);
        }
    }

    /// Encrypt a copy of `block` and return it.
    #[cfg(test)]
    pub(crate) fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_known_entries() {
        // Spot values from the FIPS 197 S-box table.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &v in SBOX.iter() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn fips197_appendix_c_vector() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let plaintext: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt(&plaintext), expected);
    }

    #[test]
    fn fips197_appendix_b_vector() {
        let key = *b"\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c";
        let pt = *b"\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34";
        let expected = *b"\x39\x25\x84\x1d\x02\xdc\x09\xfb\xdc\x11\x85\x97\x19\x6a\x0b\x32";
        assert_eq!(Aes128::new(&key).encrypt(&pt), expected);
    }

    #[test]
    fn dispatched_paths_match_soft_implementation() {
        let aes = Aes128::new(b"equivalence key!");
        let mut quad = [[0u8; 16]; 4];
        for seed in 0..64u8 {
            let mut block = [0u8; 16];
            for (i, b) in block.iter_mut().enumerate() {
                *b = seed
                    .wrapping_mul(73)
                    .wrapping_add((i as u8).wrapping_mul(29));
            }
            let mut soft = block;
            aes.encrypt_block_soft(&mut soft);
            let mut fast = block;
            aes.encrypt_block(&mut fast);
            assert_eq!(fast, soft, "seed {seed}");
            quad[(seed % 4) as usize] = block;
            if seed % 4 == 3 {
                let mut batch = quad;
                aes.encrypt_blocks(&mut batch);
                for (lane, b) in quad.iter().enumerate() {
                    let mut want = *b;
                    aes.encrypt_block_soft(&mut want);
                    assert_eq!(batch[lane], want, "seed {seed} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn gf_mul_spot_checks() {
        assert_eq!(gf_mul(0x57, 0x83), 0xc1); // FIPS 197 §4.2 example
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(1, 0xAB), 0xAB);
        assert_eq!(gf_mul(0, 0xAB), 0);
    }
}
