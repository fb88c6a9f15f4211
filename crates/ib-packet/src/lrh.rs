//! Local Route Header (IBA spec §7.7) — 8 bytes.
//!
//! ```text
//! byte 0: VL (4) | LVer (4)
//! byte 1: SL (4) | rsvd (2) | LNH (2)
//! bytes 2-3: DLID
//! byte 4-5: rsvd (5) | PktLen (11)      (length in 4-byte words)
//! bytes 6-7: SLID
//! ```
//!
//! The VL field is *variant* — switches may move a packet to a different
//! virtual lane — so ICRC computation masks it to 1s (spec §7.8.1). That
//! masking is implemented in [`crate::packet`].

use crate::error::ParseError;
use crate::types::{Lid, VirtualLane};

/// LRH next-header code. The raw codes (0b00 EtherType, 0b01 IPv6) carry
/// no IBA transport header and are rejected by [`Lrh::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Lnh {
    /// IBA local: BTH follows directly.
    IbaLocal = 0b10,
    /// IBA global: GRH then BTH.
    IbaGlobal = 0b11,
}

/// Local Route Header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lrh {
    /// Virtual lane the packet currently travels on (variant field).
    pub vl: VirtualLane,
    /// Link version (must be 0).
    pub(crate) lver: u8,
    /// Service level — the QoS class; the simulator's VL arbitration maps
    /// SL 0 (best-effort) and SL 1+ (realtime) onto VLs.
    pub(crate) sl: u8,
    /// Next-header indicator.
    pub(crate) lnh: Lnh,
    /// Destination LID.
    pub(crate) dlid: Lid,
    /// Packet length in 4-byte words, LRH through ICRC inclusive (VCRC
    /// excluded, per spec §7.7.6).
    pub(crate) pkt_len: u16,
    /// Source LID.
    pub slid: Lid,
}

/// Serialized LRH size in bytes.
pub(crate) const LRH_LEN: usize = 8;

impl Lrh {
    /// Serialize into an 8-byte array.
    pub(crate) fn to_bytes(self) -> [u8; LRH_LEN] {
        let mut b = [0u8; LRH_LEN];
        b[0] = (self.vl.0 << 4) | (self.lver & 0x0F);
        b[1] = (self.sl << 4) | (self.lnh as u8);
        b[2..4].copy_from_slice(&self.dlid.0.to_be_bytes());
        b[4..6].copy_from_slice(&(self.pkt_len & 0x07FF).to_be_bytes());
        b[6..8].copy_from_slice(&self.slid.0.to_be_bytes());
        b
    }

    /// Parse from the first 8 bytes of `buf`.
    pub(crate) fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < LRH_LEN {
            return Err(ParseError::Truncated {
                needed: LRH_LEN,
                got: buf.len(),
            });
        }
        let lver = buf[0] & 0x0F;
        if lver != 0 {
            return Err(ParseError::BadLinkVersion(lver));
        }
        let lnh = match buf[1] & 0b11 {
            0b10 => Lnh::IbaLocal,
            0b11 => Lnh::IbaGlobal,
            other => return Err(ParseError::UnsupportedLnh(other)),
        };
        Ok(Lrh {
            vl: VirtualLane::new(buf[0] >> 4),
            lver,
            sl: buf[1] >> 4,
            lnh,
            dlid: Lid(u16::from_be_bytes([buf[2], buf[3]])),
            pkt_len: u16::from_be_bytes([buf[4], buf[5]]) & 0x07FF,
            slid: Lid(u16::from_be_bytes([buf[6], buf[7]])),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Lrh {
        Lrh {
            vl: VirtualLane(3),
            lver: 0,
            sl: 1,
            lnh: Lnh::IbaLocal,
            dlid: Lid(0x1234),
            pkt_len: 0x155,
            slid: Lid(0xBEEF),
        }
    }

    #[test]
    fn roundtrip() {
        let lrh = sample();
        assert_eq!(Lrh::parse(&lrh.to_bytes()).unwrap(), lrh);
    }

    #[test]
    fn roundtrip_global() {
        let mut lrh = sample();
        lrh.lnh = Lnh::IbaGlobal;
        assert_eq!(Lrh::parse(&lrh.to_bytes()).unwrap(), lrh);
    }

    #[test]
    fn field_packing() {
        let b = sample().to_bytes();
        assert_eq!(b[0], 0x30); // VL 3, LVer 0
        assert_eq!(b[1], 0x12); // SL 1, LNH IbaLocal
        assert_eq!(&b[2..4], &[0x12, 0x34]);
        assert_eq!(&b[6..8], &[0xBE, 0xEF]);
    }

    #[test]
    fn pkt_len_masked_to_11_bits() {
        let mut lrh = sample();
        lrh.pkt_len = 0xFFFF;
        let parsed = Lrh::parse(&lrh.to_bytes()).unwrap();
        assert_eq!(parsed.pkt_len, 0x07FF);
    }

    #[test]
    fn rejects_bad_link_version() {
        let mut b = sample().to_bytes();
        b[0] |= 0x01;
        assert_eq!(Lrh::parse(&b), Err(ParseError::BadLinkVersion(1)));
    }

    #[test]
    fn rejects_raw_lnh() {
        let mut b = sample().to_bytes();
        b[1] &= 0xF0; // LNH = raw EtherType
        assert_eq!(Lrh::parse(&b), Err(ParseError::UnsupportedLnh(0)));
    }

    #[test]
    fn rejects_truncated() {
        assert!(matches!(
            Lrh::parse(&[0u8; 7]),
            Err(ParseError::Truncated { needed: 8, got: 7 })
        ));
    }
}
