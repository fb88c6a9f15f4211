//! A minimal digest abstraction so [`crate::hmac::Hmac`] can wrap any of the
//! hash functions in this crate without dynamic dispatch.

/// A cryptographic hash function with a fixed output size and an internal
/// block size (the block size is what HMAC pads keys to).
pub trait Digest: Clone {
    /// Digest output length in bytes (16 for MD5, 20 for SHA-1).
    const OUTPUT_LEN: usize;
    /// Internal compression-function block size in bytes (64 for both).
    const BLOCK_LEN: usize;
    /// Maximum output length across implementors, for stack buffers.
    const MAX_OUTPUT_LEN: usize = 64;

    /// Fresh hash state.
    fn new() -> Self;
    /// Absorb `data`.
    fn update(&mut self, data: &[u8]);
    /// Finish and write the digest into `out[..Self::OUTPUT_LEN]`.
    /// `out` must be at least `OUTPUT_LEN` bytes.
    fn finalize_into(self, out: &mut [u8]);

    /// Convenience: one-shot digest into a fixed 64-byte buffer, returning
    /// the valid prefix length.
    fn digest(data: &[u8]) -> ([u8; 64], usize) {
        let mut h = Self::new();
        h.update(data);
        let mut out = [0u8; 64];
        h.finalize_into(&mut out);
        (out, Self::OUTPUT_LEN)
    }
}

/// Hex-encode a byte slice (test helper).
#[cfg(test)]
pub(crate) fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::hex;

    #[test]
    fn hex_encodes() {
        assert_eq!(hex(&[0x00, 0xff, 0x0a]), "00ff0a");
        assert_eq!(hex(&[]), "");
    }
}
