//! HMAC keyed-hash message authentication (RFC 2104), generic over the
//! `Digest` implementations in this crate.
//!
//! The paper (Table 4) benchmarks HMAC-MD5 and HMAC-SHA1 as the
//! "conventional MACs adopted in IPSec", truncating their tags to the 32-bit
//! ICRC field. [`Hmac::tag32`] performs that truncation (leftmost 4 bytes,
//! per RFC 2104 §5 truncation convention).

use crate::digest::Digest;

/// Streaming HMAC state over digest `D`.
///
/// ```
/// use ib_crypto::{hmac::Hmac, md5::Md5};
/// let mut mac = Hmac::<Md5>::new(b"key");
/// mac.update(b"The quick brown fox jumps over the lazy dog");
/// let tag = mac.finalize();
/// assert_eq!(&tag[..4], &Hmac::<Md5>::tag32(b"key",
///     b"The quick brown fox jumps over the lazy dog").to_be_bytes());
/// ```
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    /// Key XOR opad, retained for the outer pass.
    opad_key: [u8; 64],
}

impl<D: Digest> Hmac<D> {
    /// Create an HMAC instance for `key`. Keys longer than the digest block
    /// are first hashed, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        assert!(D::BLOCK_LEN <= 64, "unsupported block length");
        let mut key_block = [0u8; 64];
        if key.len() > D::BLOCK_LEN {
            let mut h = D::new();
            h.update(key);
            let mut out = [0u8; 64];
            h.finalize_into(&mut out);
            key_block[..D::OUTPUT_LEN].copy_from_slice(&out[..D::OUTPUT_LEN]);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad_key = [0u8; 64];
        let mut opad_key = [0u8; 64];
        for i in 0..D::BLOCK_LEN {
            ipad_key[i] = key_block[i] ^ 0x36;
            opad_key[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = D::new();
        inner.update(&ipad_key[..D::BLOCK_LEN]);
        Hmac { inner, opad_key }
    }

    /// Absorb message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish, returning the full digest in a 64-byte buffer; the valid
    /// prefix is `D::OUTPUT_LEN` bytes.
    pub fn finalize(self) -> [u8; 64] {
        let mut inner_digest = [0u8; 64];
        self.inner.finalize_into(&mut inner_digest);
        let mut outer = D::new();
        outer.update(&self.opad_key[..D::BLOCK_LEN]);
        outer.update(&inner_digest[..D::OUTPUT_LEN]);
        let mut out = [0u8; 64];
        outer.finalize_into(&mut out);
        out
    }

    /// One-shot full-length HMAC.
    pub(crate) fn mac(key: &[u8], message: &[u8]) -> [u8; 64] {
        let mut h = Self::new(key);
        h.update(message);
        h.finalize()
    }

    /// One-shot HMAC truncated to a 32-bit tag (leftmost 4 bytes,
    /// big-endian), the form stored in the ICRC field by the paper's scheme.
    pub fn tag32(key: &[u8], message: &[u8]) -> u32 {
        let out = Self::mac(key, message);
        u32::from_be_bytes([out[0], out[1], out[2], out[3]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::hex;
    use crate::md5::Md5;
    use crate::sha1::Sha1;

    fn hmac_md5_hex(key: &[u8], msg: &[u8]) -> String {
        hex(&Hmac::<Md5>::mac(key, msg)[..16])
    }

    fn hmac_sha1_hex(key: &[u8], msg: &[u8]) -> String {
        hex(&Hmac::<Sha1>::mac(key, msg)[..20])
    }

    // RFC 2202 test cases.
    #[test]
    fn rfc2202_md5() {
        assert_eq!(
            hmac_md5_hex(&[0x0b; 16], b"Hi There"),
            "9294727a3638bb1c13f48ef8158bfc9d"
        );
        assert_eq!(
            hmac_md5_hex(b"Jefe", b"what do ya want for nothing?"),
            "750c783e6ab0b503eaa86e310a5db738"
        );
        assert_eq!(
            hmac_md5_hex(&[0xaa; 16], &[0xdd; 50]),
            "56be34521d144c88dbb8c733f0e8b3f6"
        );
        let key: Vec<u8> = (1..=25).collect();
        assert_eq!(
            hmac_md5_hex(&key, &[0xcd; 50]),
            "697eaf0aca3a3aea3a75164746ffaa79"
        );
        // Key longer than block size.
        assert_eq!(
            hmac_md5_hex(
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            ),
            "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd"
        );
    }

    #[test]
    fn rfc2202_sha1() {
        assert_eq!(
            hmac_sha1_hex(&[0x0b; 20], b"Hi There"),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
        assert_eq!(
            hmac_sha1_hex(b"Jefe", b"what do ya want for nothing?"),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
        assert_eq!(
            hmac_sha1_hex(&[0xaa; 20], &[0xdd; 50]),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
        assert_eq!(
            hmac_sha1_hex(
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            ),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    #[test]
    fn tag32_is_leftmost_truncation() {
        let full = Hmac::<Sha1>::mac(b"k", b"m");
        let tag = Hmac::<Sha1>::tag32(b"k", b"m");
        assert_eq!(tag.to_be_bytes(), full[..4]);
    }

    #[test]
    fn different_keys_different_tags() {
        let m = b"same message";
        assert_ne!(
            Hmac::<Md5>::tag32(b"key-a", m),
            Hmac::<Md5>::tag32(b"key-b", m)
        );
        assert_ne!(
            Hmac::<Sha1>::tag32(b"key-a", m),
            Hmac::<Sha1>::tag32(b"key-b", m)
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let mut h = Hmac::<Sha1>::new(b"stream-key");
        h.update(&data[..100]);
        h.update(&data[100..]);
        assert_eq!(h.finalize(), Hmac::<Sha1>::mac(b"stream-key", &data));
    }

    #[test]
    fn empty_message_and_empty_key() {
        // Just must not panic and must be deterministic.
        assert_eq!(Hmac::<Md5>::tag32(b"", b""), Hmac::<Md5>::tag32(b"", b""));
        assert_ne!(Hmac::<Md5>::tag32(b"", b""), Hmac::<Md5>::tag32(b"x", b""));
    }
}
