//! The keyed 32-bit-tag MAC of any registered algorithm ([`AnyMac`]) and
//! the authentication-algorithm registry for the ICRC-as-MAC scheme.
//!
//! §5.1 of the paper: "we can use \[the\] Reserved field of Base Transport
//! Header (BTH) for identifying which authentication function is used …
//! If the value is zero, the packet is using original ICRC. Non-zero value
//! means an authentication function is in use." [`AuthAlgorithm`] is that
//! registry; its discriminants are the on-wire BTH `Resv8a` selector values.
//!
//! §5.2 / Table 4 of the paper report, per algorithm, the cycles/byte, the
//! Gb/s at 350 MHz, and the forgery probability. The *reference* (paper)
//! numbers are recorded here as constants; the `table4` bench measures this
//! crate's own implementations next to them.

use crate::hmac::Hmac;
use crate::md5::Md5;
use crate::pmac::Pmac;
use crate::sha1::Sha1;
use crate::stream_mac::StreamMac;
use crate::umac::Umac;

/// A 32-bit authentication tag — the exact size of the ICRC field it
/// replaces on the wire.
pub(crate) type Tag32 = u32;

/// Every authentication function the BTH `Resv` selector can name.
///
/// Value 0 (`Icrc`) means "no authentication, original CRC-32 ICRC" — the
/// IBA-compatible default. Values 1–3 are the paper's Table 4 algorithms;
/// 4–5 are the §7 (Discussion) extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum AuthAlgorithm {
    /// Plain CRC-32 error detection (no key, forgeable).
    Icrc = 0,
    /// UMAC with a 32-bit tag — the paper's recommended MAC.
    Umac32 = 1,
    /// HMAC-MD5 truncated to 32 bits (IPSec-compatible).
    HmacMd5 = 2,
    /// HMAC-SHA1 truncated to 32 bits (IPSec-compatible).
    HmacSha1 = 3,
    /// Stream-cipher MAC computed while the packet streams (§7).
    StreamMac = 4,
    /// Parallelizable MAC over AES (§7).
    Pmac = 5,
}

impl AuthAlgorithm {
    /// All algorithms, in BTH-selector order.
    pub const ALL: [AuthAlgorithm; 6] = [
        AuthAlgorithm::Icrc,
        AuthAlgorithm::Umac32,
        AuthAlgorithm::HmacMd5,
        AuthAlgorithm::HmacSha1,
        AuthAlgorithm::StreamMac,
        AuthAlgorithm::Pmac,
    ];

    /// The BTH `Resv8a` selector byte for this algorithm.
    pub fn selector(self) -> u8 {
        self as u8
    }

    /// Human-readable name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            AuthAlgorithm::Icrc => "CRC",
            AuthAlgorithm::Umac32 => "UMAC-2/4",
            AuthAlgorithm::HmacMd5 => "HMAC-MD5",
            AuthAlgorithm::HmacSha1 => "HMAC-SHA1",
            AuthAlgorithm::StreamMac => "StreamMAC",
            AuthAlgorithm::Pmac => "PMAC-AES",
        }
    }

    /// log2 of the forgery probability with a 32-bit tag, as the paper's
    /// Table 4 reports it (0 ⇒ probability 1, i.e. no authenticity at all).
    pub fn forgery_log2(self) -> i32 {
        match self {
            AuthAlgorithm::Icrc => 0,
            AuthAlgorithm::Umac32 => -30,
            AuthAlgorithm::HmacMd5 => -32,
            AuthAlgorithm::HmacSha1 => -32,
            // Ring (not field) algebra weakens the bound; see stream_mac docs.
            AuthAlgorithm::StreamMac => -20,
            AuthAlgorithm::Pmac => -32,
        }
    }

    /// Reference cycles/byte from the paper's Table 4 (350 MHz-normalized
    /// literature numbers; `None` for the §7 extensions it does not tabulate).
    pub fn paper_cycles_per_byte(self) -> Option<f64> {
        match self {
            AuthAlgorithm::Icrc => Some(0.25),
            AuthAlgorithm::Umac32 => Some(0.7),
            AuthAlgorithm::HmacMd5 => Some(5.3),
            AuthAlgorithm::HmacSha1 => Some(12.6),
            _ => None,
        }
    }

    /// Whether this algorithm provides message authenticity (vs. only error
    /// detection).
    pub fn is_authenticating(self) -> bool {
        self != AuthAlgorithm::Icrc
    }
}

/// A keyed MAC of any registered algorithm — the concrete object a key
/// table stores per partition / per QP. Everything the authentication
/// layer needs of it is "32-bit tag from (nonce, message)".
// Umac's ~1 KiB of cached NH key material stays inline on purpose: key
// tables hold few entries and the per-packet tag path avoids a pointer
// chase.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum AnyMac {
    /// CRC-32 "MAC": ignores key and nonce (compatibility mode; forgeable).
    Icrc,
    Umac32(Umac),
    HmacMd5([u8; 16]),
    HmacSha1([u8; 16]),
    StreamMac(StreamMac),
    Pmac(Pmac),
}

impl AnyMac {
    /// Instantiate `alg` with a 16-byte secret key (ignored for `Icrc`).
    pub fn new(alg: AuthAlgorithm, key: &[u8; 16]) -> Self {
        match alg {
            AuthAlgorithm::Icrc => AnyMac::Icrc,
            AuthAlgorithm::Umac32 => AnyMac::Umac32(Umac::new(key)),
            AuthAlgorithm::HmacMd5 => AnyMac::HmacMd5(*key),
            AuthAlgorithm::HmacSha1 => AnyMac::HmacSha1(*key),
            AuthAlgorithm::StreamMac => AnyMac::StreamMac(StreamMac::new(key)),
            AuthAlgorithm::Pmac => AnyMac::Pmac(Pmac::new(key)),
        }
    }

    /// Compute the 32-bit tag of `message` under `nonce`.
    pub fn tag32(&self, nonce: u64, message: &[u8]) -> Tag32 {
        match self {
            AnyMac::Icrc => crate::crc::crc32_ieee(message),
            AnyMac::Umac32(u) => u.tag32(nonce, message),
            // HMAC has no nonce input; prepend it so replayed PSNs still
            // produce distinct tags (the replay module relies on this).
            AnyMac::HmacMd5(key) => {
                let mut h = Hmac::<Md5>::new(key);
                h.update(&nonce.to_be_bytes());
                h.update(message);
                let out = h.finalize();
                u32::from_be_bytes([out[0], out[1], out[2], out[3]])
            }
            AnyMac::HmacSha1(key) => {
                let mut h = Hmac::<Sha1>::new(key);
                h.update(&nonce.to_be_bytes());
                h.update(message);
                let out = h.finalize();
                u32::from_be_bytes([out[0], out[1], out[2], out[3]])
            }
            AnyMac::StreamMac(s) => s.tag32(nonce, message),
            AnyMac::Pmac(p) => p.tag32(nonce, message),
        }
    }

    /// Recompute the tag and XOR-compare it with `tag`, so timing does not
    /// depend on which bit differs.
    pub fn verify(&self, nonce: u64, message: &[u8], tag: Tag32) -> bool {
        (self.tag32(nonce, message) ^ tag) == 0
    }

    /// Which registry entry this keyed instance implements.
    #[cfg(test)]
    pub(crate) fn algorithm(&self) -> AuthAlgorithm {
        match self {
            AnyMac::Icrc => AuthAlgorithm::Icrc,
            AnyMac::Umac32(_) => AuthAlgorithm::Umac32,
            AnyMac::HmacMd5(_) => AuthAlgorithm::HmacMd5,
            AnyMac::HmacSha1(_) => AuthAlgorithm::HmacSha1,
            AnyMac::StreamMac(_) => AuthAlgorithm::StreamMac,
            AnyMac::Pmac(_) => AuthAlgorithm::Pmac,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_roundtrip() {
        for (i, alg) in AuthAlgorithm::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(alg.selector()), i);
        }
    }

    #[test]
    fn icrc_is_selector_zero() {
        // The compatibility-critical invariant: 0 means plain ICRC.
        assert_eq!(AuthAlgorithm::Icrc.selector(), 0);
        assert!(!AuthAlgorithm::Icrc.is_authenticating());
        for alg in &AuthAlgorithm::ALL[1..] {
            assert!(alg.is_authenticating());
        }
    }

    #[test]
    fn table4_reference_values() {
        assert_eq!(AuthAlgorithm::Umac32.paper_cycles_per_byte(), Some(0.7));
        assert_eq!(AuthAlgorithm::HmacSha1.paper_cycles_per_byte(), Some(12.6));
        assert_eq!(AuthAlgorithm::Icrc.forgery_log2(), 0);
        assert_eq!(AuthAlgorithm::Umac32.forgery_log2(), -30);
    }

    #[test]
    fn all_keyed_macs_differ_between_keys() {
        let msg = b"authenticated payload";
        for alg in &AuthAlgorithm::ALL[1..] {
            let a = AnyMac::new(*alg, &[1u8; 16]);
            let b = AnyMac::new(*alg, &[2u8; 16]);
            assert_ne!(a.tag32(1, msg), b.tag32(1, msg), "{alg:?}");
        }
    }

    #[test]
    fn all_macs_nonce_sensitive_except_icrc() {
        let msg = b"payload";
        let icrc = AnyMac::new(AuthAlgorithm::Icrc, &[0u8; 16]);
        assert_eq!(icrc.tag32(1, msg), icrc.tag32(2, msg));
        for alg in &AuthAlgorithm::ALL[1..] {
            let m = AnyMac::new(*alg, &[7u8; 16]);
            assert_ne!(m.tag32(1, msg), m.tag32(2, msg), "{alg:?}");
        }
    }

    #[test]
    fn verify_default_impl() {
        let m = AnyMac::new(AuthAlgorithm::Umac32, &[9u8; 16]);
        let t = m.tag32(10, b"data");
        assert!(m.verify(10, b"data", t));
        assert!(!m.verify(10, b"data", t.wrapping_add(1)));
    }

    #[test]
    fn icrc_mode_matches_plain_crc32() {
        let m = AnyMac::new(AuthAlgorithm::Icrc, &[0u8; 16]);
        assert_eq!(m.tag32(0, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn algorithm_reported_correctly() {
        for alg in AuthAlgorithm::ALL {
            let m = AnyMac::new(alg, &[3u8; 16]);
            assert_eq!(m.algorithm(), alg);
        }
    }
}
