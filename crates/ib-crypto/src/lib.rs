//! # ib-crypto
//!
//! From-scratch implementations of every cryptographic and error-detection
//! primitive that *Security Enhancement in InfiniBand Architecture*
//! (IPPS 2005) touches:
//!
//! * [`crc`] — CRC-32 (IEEE 802.3 polynomial, used by the IBA Invariant CRC)
//!   and CRC-16 (polynomial 0x100B, used by the IBA Variant CRC), each as a
//!   bitwise reference, a slice-by-8 portable kernel and the dispatched
//!   `update_auto`.
//! * [`md5`] / [`sha1`] — the hash functions underlying HMAC-MD5 and
//!   HMAC-SHA1 (Table 4 of the paper).
//! * [`hmac`] — RFC 2104 keyed-hash message authentication, generic over any
//!   `digest::Digest`.
//! * [`aes`] — AES-128 block cipher (FIPS 197), the PRF inside our UMAC and
//!   PMAC and the cipher the paper's §7 "30–70 Gbps AES processor" remark
//!   refers to.
//! * [`umac`] — NH + Carter-Wegman universal-hash MAC in the style of
//!   UMAC (Black et al., CRYPTO '99 / RFC 4418); the paper's fast MAC of
//!   choice for the 32-bit authentication tag.
//! * [`stream_mac`] — a stream-cipher integrity check in the style of
//!   Lai-Rueppel/Taylor (§7 discussion: MAC computed while transferring).
//! * [`pmac`] — a parallelizable block-cipher MAC (§7 discussion: PMAC).
//! * [`partial_mac`] — the §7/ACSA strength-for-speed trade-off: MAC a
//!   keyed pseudorandom subset of message blocks.
//! * [`toyrsa`] — a deliberately tiny mod-exp RSA envelope used to *simulate*
//!   the paper's PKI assumption ("SM knows public keys of all CAs").
//!   **Not cryptographically secure**; see crate docs there.
//! * [`mac`] — [`mac::AnyMac`], the keyed 32-bit-tag MAC of any
//!   algorithm in the [`mac::AuthAlgorithm`] registry that maps to the BTH
//!   `Resv` selector values used by the ICRC-as-MAC scheme, with the
//!   forgery-probability table the paper reports (Table 4).
//! * [`simd`] — runtime-dispatched vector kernels (PCLMULQDQ CRC-32
//!   folding, SSE2/AVX2 NH, AES-NI, carry-less GHASH) with the scalar
//!   implementations above as always-available fallback and oracle.
//! * `aead` — an AES-GCM-style authenticated encryption mode with a
//!   32-bit tag, the Table-4 arm for the paper's confidentiality +
//!   authentication combination.
//!
//! Every MAC is called one way: one-shot, over one contiguous message
//! (`tag32(nonce, message)`). Everything is `no_std`-style pure
//! computation over byte slices (we still link `std` for convenience);
//! nothing allocates on the hot path except where explicitly noted.

pub(crate) mod aead;
pub mod aes;
pub mod crc;
pub(crate) mod digest;
pub mod hmac;
pub mod mac;
pub mod md5;
pub mod partial_mac;
pub mod pmac;
pub mod sha1;
pub mod simd;
pub mod stream_mac;
pub mod toyrsa;
pub mod umac;

pub use aead::AesGcm32;
pub use crc::{crc16_iba, crc32_ieee, Crc16, Crc32};
pub use umac::Umac;
