//! Cyclic redundancy checks used by the InfiniBand Architecture.
//!
//! IBA defines two data-packet CRCs (spec §7.8):
//!
//! * **ICRC** — a 32-bit CRC over the *invariant* fields of the packet,
//!   using the same generator polynomial as Ethernet (IEEE 802.3),
//!   `0x04C11DB7`, bit-reflected, seeded with `0xFFFF_FFFF` and inverted on
//!   output. This is the field the paper repurposes as a 32-bit
//!   authentication tag.
//! * **VCRC** — a 16-bit CRC over the whole packet, generator polynomial
//!   `x^16 + x^12 + x^3 + x + 1` (`0x100B`), seeded with `0xFFFF`.
//!
//! Both widths have the same three implementations: a bitwise reference
//! (the definition), slice-by-8 tables as the portable kernel (`update`,
//! 8 bytes per step — the recurrence a 10 Gbps "multistage" hardware
//! generator like the one cited in the paper's Table 4 parallelizes
//! further), and `update_auto`, which hands buffers of at least
//! [`crate::simd::crc::PCLMUL_MIN_LEN`] bytes to the PCLMULQDQ carry-less
//! folding kernel when the CPU has it. Both widths share that one kernel
//! (the VCRC rides it as `P·x^16`, see [`crate::simd::crc`]), and both
//! one-shot forms ([`crc32_ieee`], [`crc16_iba`]) dispatch. The kernels
//! are cross-checked against the bitwise reference by unit and property
//! tests.

use crate::simd::crc::{fold_blocks, CRC16_IBA_FOLD, CRC32_IEEE_FOLD};

/// Reflected IEEE 802.3 polynomial (0x04C11DB7 bit-reversed).
pub const CRC32_POLY_REFLECTED: u32 = 0xEDB8_8320;
/// Reflected IBA VCRC polynomial (0x100B bit-reversed).
pub const CRC16_POLY_REFLECTED: u16 = 0xD008;

/// Bitwise reference CRC-32 (IEEE 802.3, reflected, init/xorout all-ones).
///
/// `crc32_bitwise(b"123456789") == 0xCBF4_3926`.
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= CRC32_POLY_REFLECTED;
            }
        }
    }
    !crc
}

/// Bitwise reference CRC-16 with the IBA VCRC polynomial (reflected form),
/// init `0xFFFF`, no output inversion (per IBA spec §7.8.2 the VCRC is the
/// register contents, not its complement).
pub fn crc16_bitwise(data: &[u8]) -> u16 {
    let mut crc = 0xFFFFu16;
    for &byte in data {
        crc ^= byte as u16;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= CRC16_POLY_REFLECTED;
            }
        }
    }
    crc
}

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= CRC32_POLY_REFLECTED;
            }
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const fn build_crc16_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u16;
        let mut bit = 0;
        while bit < 8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= CRC16_POLY_REFLECTED;
            }
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const fn build_crc32_slice8() -> [[u32; 256]; 8] {
    let t0 = build_crc32_table();
    let mut tables = [[0u32; 256]; 8];
    tables[0] = t0;
    let mut i = 0;
    while i < 256 {
        let mut crc = t0[i];
        let mut k = 1;
        while k < 8 {
            crc = t0[(crc & 0xFF) as usize] ^ (crc >> 8);
            tables[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    tables
}

/// `[0]` is the byte-at-a-time table; `[k]` advances it over `k` zero bytes.
static CRC32_SLICE8: [[u32; 256]; 8] = build_crc32_slice8();

const fn build_crc16_slice8() -> [[u16; 256]; 8] {
    let t0 = build_crc16_table();
    let mut tables = [[0u16; 256]; 8];
    tables[0] = t0;
    let mut i = 0;
    while i < 256 {
        let mut crc = t0[i];
        let mut k = 1;
        while k < 8 {
            crc = t0[(crc & 0xFF) as usize] ^ (crc >> 8);
            tables[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    tables
}

/// `[0]` is the byte-at-a-time table; `[k]` advances it over `k` zero bytes.
static CRC16_SLICE8: [[u16; 256]; 8] = build_crc16_slice8();

/// Incremental CRC-32 engine (reflected IEEE 802.3).
///
/// Feed data in pieces through [`Crc32::update_auto`] (or the portable
/// [`Crc32::update`]) — `Packet::compute_icrc` feeds masked header bytes
/// followed by the payload without materializing a contiguous masked copy.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh engine seeded with all-ones.
    #[inline]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed `data` through the slice-by-8 implementation (8 bytes per
    /// step, byte table for the tail) — the portable kernel. A multistage
    /// hardware generator (Table 4's 10 Gbps CRC) parallelizes the same
    /// recurrence further.
    #[inline]
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            crc = CRC32_SLICE8[7][(lo & 0xFF) as usize]
                ^ CRC32_SLICE8[6][((lo >> 8) & 0xFF) as usize]
                ^ CRC32_SLICE8[5][((lo >> 16) & 0xFF) as usize]
                ^ CRC32_SLICE8[4][((lo >> 24) & 0xFF) as usize]
                ^ CRC32_SLICE8[3][(hi & 0xFF) as usize]
                ^ CRC32_SLICE8[2][((hi >> 8) & 0xFF) as usize]
                ^ CRC32_SLICE8[1][((hi >> 16) & 0xFF) as usize]
                ^ CRC32_SLICE8[0][((hi >> 24) & 0xFF) as usize];
        }
        for &b in chunks.remainder() {
            crc = CRC32_SLICE8[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
        self
    }

    /// Feed `data` through the fastest kernel available at runtime:
    /// PCLMULQDQ carry-less folding over the whole 16-byte blocks of
    /// buffers of at least [`crate::simd::crc::PCLMUL_MIN_LEN`] bytes
    /// when the CPU supports it (and `IB_SIMD=off` is not set),
    /// slice-by-8 for the tail and otherwise. CRC is linear over GF(2),
    /// so the result is bit-identical to [`Crc32::update`] on every input
    /// and split.
    #[inline]
    pub fn update_auto(&mut self, data: &[u8]) -> &mut Self {
        let (state, tail) = fold_blocks(self.state, data, &CRC32_IEEE_FOLD);
        self.state = state;
        self.update(tail)
    }

    /// Final CRC value (state complemented). Does not consume the engine, so
    /// intermediate CRCs of a growing message can be observed.
    #[inline]
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// Incremental CRC-16 engine with the IBA VCRC polynomial.
#[derive(Debug, Clone, Copy)]
pub struct Crc16 {
    state: u16,
}

impl Default for Crc16 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc16 {
    /// Fresh engine seeded with all-ones.
    #[inline]
    pub fn new() -> Self {
        Crc16 { state: 0xFFFF }
    }

    /// Feed `data` through the slice-by-8 implementation (8 bytes per
    /// step, byte table for the tail) — the portable kernel.
    #[inline]
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            // Only the first two bytes meet the 16-bit register; the
            // other six enter the recurrence as plain table lookups.
            crc = CRC16_SLICE8[7][(c[0] ^ crc as u8) as usize]
                ^ CRC16_SLICE8[6][(c[1] ^ (crc >> 8) as u8) as usize]
                ^ CRC16_SLICE8[5][c[2] as usize]
                ^ CRC16_SLICE8[4][c[3] as usize]
                ^ CRC16_SLICE8[3][c[4] as usize]
                ^ CRC16_SLICE8[2][c[5] as usize]
                ^ CRC16_SLICE8[1][c[6] as usize]
                ^ CRC16_SLICE8[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = CRC16_SLICE8[0][((crc ^ b as u16) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
        self
    }

    /// Feed `data` through the fastest kernel available at runtime, by
    /// the same rule as [`Crc32::update_auto`]: carry-less folding for
    /// the whole 16-byte blocks of a long enough buffer, slice-by-8 for
    /// the rest. Bit-identical to [`Crc16::update`] on every input and
    /// split.
    #[inline]
    pub fn update_auto(&mut self, data: &[u8]) -> &mut Self {
        let (state, tail) = fold_blocks(self.state as u32, data, &CRC16_IBA_FOLD);
        // The P·x^16 embedding keeps the register in the low 16 bits.
        debug_assert!(state <= 0xFFFF);
        self.state = state as u16;
        self.update(tail)
    }

    /// Final VCRC value (no complement, per IBA spec).
    #[inline]
    pub fn finalize(&self) -> u16 {
        self.state
    }
}

/// One-shot ICRC CRC-32 over `data` (fastest kernel available).
#[inline]
pub fn crc32_ieee(data: &[u8]) -> u32 {
    Crc32::new().update_auto(data).finalize()
}

/// One-shot IBA VCRC CRC-16 over `data` (fastest kernel available).
#[inline]
pub fn crc16_iba(data: &[u8]) -> u16 {
    Crc16::new().update_auto(data).finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The portable slice-by-8 kernel alone, never dispatched.
    fn slice8(data: &[u8]) -> u32 {
        Crc32::new().update(data).finalize()
    }

    #[test]
    fn crc32_check_value() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_ieee(b"123456789"), 0xCBF4_3926);
        assert_eq!(slice8(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_slice8_matches_bitwise_all_lengths() {
        // Every length 0..64 exercises each remainder class of the 8-byte
        // main loop plus the byte-table tail.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 131 + 17) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                slice8(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn crc32_slice8_incremental_split_points() {
        let data: Vec<u8> = (0..2048u32).map(|i| (i * 29 + 5) as u8).collect();
        let expect = crc32_bitwise(&data);
        for split in [0, 1, 3, 7, 8, 9, 511, 1024, 2047, 2048] {
            let mut c = Crc32::new();
            c.update(&data[..split]).update(&data[split..]);
            assert_eq!(c.finalize(), expect, "split {split}");
        }
    }

    #[test]
    fn crc32_update_auto_matches_slice8() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 197 + 3) as u8).collect();
        for len in [0, 1, 8, 63, 64, 65, 127, 128, 1024, 4096, 4999, 5000] {
            assert_eq!(
                Crc32::new().update_auto(&data[..len]).finalize(),
                slice8(&data[..len]),
                "len {len}"
            );
        }
        for split in [0, 1, 63, 64, 100, 2500, 5000] {
            let mut c = Crc32::new();
            c.update_auto(&data[..split]).update_auto(&data[split..]);
            assert_eq!(c.finalize(), slice8(&data), "split {split}");
        }
    }

    #[test]
    fn crc32_empty() {
        assert_eq!(crc32_bitwise(b""), 0);
        assert_eq!(crc32_ieee(b""), 0);
    }

    #[test]
    fn crc32_single_bytes() {
        for b in 0..=255u8 {
            assert_eq!(crc32_bitwise(&[b]), crc32_ieee(&[b]), "byte {b}");
            assert_eq!(crc32_bitwise(&[b]), slice8(&[b]), "byte {b}");
        }
    }

    #[test]
    fn crc16_table_matches_bitwise() {
        for b in 0..=255u8 {
            assert_eq!(crc16_bitwise(&[b]), crc16_iba(&[b]), "byte {b}");
        }
        assert_eq!(crc16_bitwise(b"123456789"), crc16_iba(b"123456789"));
    }

    #[test]
    fn crc16_slice8_matches_bitwise_all_lengths_and_splits() {
        // Every length 0..64 exercises each remainder class of the 8-byte
        // main loop plus the byte-table tail; every split re-enters the
        // main loop with a live register.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 131 + 17) as u8).collect();
        for len in 0..=data.len() {
            let want = crc16_bitwise(&data[..len]);
            for split in 0..=len {
                let mut c = Crc16::new();
                c.update(&data[..split]).update(&data[split..len]);
                assert_eq!(c.finalize(), want, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn crc32_incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut c = Crc32::new();
        c.update(&data[..100])
            .update(&data[100..517])
            .update(&data[517..]);
        assert_eq!(c.finalize(), crc32_ieee(&data));
    }

    #[test]
    fn crc16_incremental_equals_oneshot() {
        let data: Vec<u8> = (0..777u32).map(|i| (i * 31 + 1) as u8).collect();
        let mut c = Crc16::new();
        c.update(&data[..3])
            .update(&data[3..700])
            .update(&data[700..]);
        assert_eq!(c.finalize(), crc16_iba(&data));
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = vec![0xA5u8; 256];
        let orig = crc32_ieee(&data);
        for byte in 0..256 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32_ieee(&data), orig, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn crc16_detects_single_bit_flip() {
        let mut data = vec![0x3Cu8; 64];
        let orig = crc16_iba(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc16_iba(&data), orig, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn crc32_is_stateless_function() {
        // Same input twice -> same output (no hidden state in statics).
        let d = b"infiniband";
        assert_eq!(crc32_ieee(d), crc32_ieee(d));
    }
}
