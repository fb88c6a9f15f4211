//! A deliberately tiny RSA used to *simulate* the paper's PKI assumption.
//!
//! §4.2/§4.3 of the paper assume "SM knows public keys of all CAs and each
//! CA can decrypt the secret key encrypted by the SM" — public-key transport
//! is an assumption, never a measured mechanism. This module provides the
//! functional semantics (key pairs, encrypt-to-public, decrypt-with-private)
//! with 64-bit moduli so the simulator can exercise the *exact* key
//! distribution flows (partition-level and QP-level) end to end.
//!
//! **NOT cryptographically secure.** A 64-bit modulus is factorable in
//! milliseconds. Production IBA deployments would use a real PKI; this is a
//! documented substitution (see DESIGN.md "Substitutions").

/// Public half of a key pair: (modulus n, exponent e).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicKey {
    pub(crate) n: u64,
    pub(crate) e: u64,
}

/// Private half of a key pair: (modulus n, exponent d).
#[derive(Debug, Clone, Copy)]
pub struct PrivateKey {
    pub(crate) n: u64,
    pub(crate) d: u64,
}

/// Modular exponentiation base^exp mod m (m < 2^64).
pub(crate) fn mod_pow(mut base: u64, mut exp: u64, m: u64) -> u64 {
    assert!(m > 1);
    let mut result = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 != 0 {
            result = ((result as u128 * base as u128) % m as u128) as u64;
        }
        base = ((base as u128 * base as u128) % m as u128) as u64;
        exp >>= 1;
    }
    result
}

/// Deterministic Miller-Rabin, valid for all n < 2^64 with this base set.
pub(crate) fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = mod_pow(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = ((x as u128 * x as u128) % n as u128) as u64;
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

fn egcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = egcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// Modular inverse of a mod m, if gcd(a, m) == 1.
pub(crate) fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    let (g, x, _) = egcd(a as i128, m as i128);
    if g != 1 {
        return None;
    }
    Some(((x % m as i128 + m as i128) % m as i128) as u64)
}

/// Next prime >= n (n must leave headroom below u64::MAX; callers pass
/// ~31-bit values).
fn next_prime(mut n: u64) -> u64 {
    if n <= 2 {
        return 2;
    }
    if n.is_multiple_of(2) {
        n += 1;
    }
    while !is_prime(n) {
        n += 2;
    }
    n
}

/// A simple deterministic key generator: derives a key pair from a seed via
/// an xorshift walk to two ~31-bit primes. Deterministic so simulations are
/// reproducible.
pub fn generate_keypair(seed: u64) -> (PublicKey, PrivateKey) {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    loop {
        // Two distinct primes in [2^30, 2^31) so n fits comfortably in u64
        // and every 7-byte message block is < n... (2^30)^2 = 2^60 > 2^56. ✓
        let p = next_prime((next() % (1 << 30)) + (1 << 30));
        let mut q = next_prime((next() % (1 << 30)) + (1 << 30));
        if p == q {
            q = next_prime(q + 2);
        }
        let n = p * q;
        let phi = (p - 1) * (q - 1);
        let e = 65537u64;
        if let Some(d) = mod_inverse(e, phi) {
            return (PublicKey { n, e }, PrivateKey { n, d });
        }
    }
}

/// Encrypt an arbitrary byte string to `pk`. Each 7-byte chunk becomes one
/// u64 ciphertext (7 bytes < 2^56 < n always). The length is carried in the
/// first ciphertext block so decryption restores the exact byte string.
pub fn encrypt(pk: &PublicKey, plaintext: &[u8]) -> Vec<u64> {
    let mut out = Vec::with_capacity(1 + plaintext.len().div_ceil(7));
    out.push(mod_pow(plaintext.len() as u64, pk.e, pk.n));
    for chunk in plaintext.chunks(7) {
        let mut block = [0u8; 8];
        block[..chunk.len()].copy_from_slice(chunk);
        let m = u64::from_le_bytes(block);
        debug_assert!(m < pk.n);
        out.push(mod_pow(m, pk.e, pk.n));
    }
    out
}

/// Decrypt a ciphertext produced by [`encrypt`]. Returns `None` on a
/// malformed ciphertext (wrong length framing).
pub fn decrypt(sk: &PrivateKey, ciphertext: &[u64]) -> Option<Vec<u8>> {
    let (&len_block, blocks) = ciphertext.split_first()?;
    let len = mod_pow(len_block, sk.d, sk.n) as usize;
    if blocks.len() != len.div_ceil(7) {
        return None;
    }
    let mut out = Vec::with_capacity(len);
    for (i, &c) in blocks.iter().enumerate() {
        let m = mod_pow(c, sk.d, sk.n);
        let bytes = m.to_le_bytes();
        let take = (len - i * 7).min(7);
        out.extend_from_slice(&bytes[..take]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primality_spot_checks() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(is_prime(1_073_741_827)); // 2^30 + 3
        assert!(!is_prime(1));
        assert!(!is_prime(0));
        assert!(!is_prime(1_073_741_825));
        assert!(is_prime(0xFFFF_FFFF_FFFF_FFC5)); // P64 = 2^64 - 59
        assert!(!is_prime(u64::MAX)); // 2^64-1 = 3·5·17·257·641·65537·6700417
    }

    #[test]
    fn mod_inverse_works() {
        assert_eq!(mod_inverse(3, 10), Some(7));
        assert_eq!(mod_inverse(2, 4), None);
        let m = 1_000_000_007u64;
        for a in [2u64, 12345, 999_999_999] {
            let inv = mod_inverse(a, m).unwrap();
            assert_eq!((a as u128 * inv as u128 % m as u128) as u64, 1);
        }
    }

    #[test]
    fn roundtrip_various_lengths() {
        let (pk, sk) = generate_keypair(42);
        for len in [0usize, 1, 6, 7, 8, 13, 14, 16, 100] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let ct = encrypt(&pk, &msg);
            assert_eq!(decrypt(&sk, &ct).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn different_seeds_different_keys() {
        let (pk1, _) = generate_keypair(1);
        let (pk2, _) = generate_keypair(2);
        assert_ne!(pk1.n, pk2.n);
    }

    #[test]
    fn deterministic_keygen() {
        assert_eq!(generate_keypair(7).0, generate_keypair(7).0);
    }

    #[test]
    fn wrong_key_garbles() {
        let (pk, _) = generate_keypair(5);
        let (_, sk_wrong) = generate_keypair(6);
        let msg = b"secret partition key S_K1";
        let ct = encrypt(&pk, msg);
        // Wrong private key either fails framing or yields different bytes.
        match decrypt(&sk_wrong, &ct) {
            None => {}
            Some(pt) => assert_ne!(pt, msg),
        }
    }

    #[test]
    fn malformed_ciphertext_rejected() {
        let (pk, sk) = generate_keypair(9);
        let mut ct = encrypt(&pk, b"16-byte secretkk");
        ct.pop();
        assert!(decrypt(&sk, &ct).is_none());
        assert!(decrypt(&sk, &[]).is_none());
    }
}
