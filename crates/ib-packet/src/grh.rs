//! Global Route Header (IBA spec §8.3) — 40 bytes, present when LRH.LNH is
//! `IbaGlobal` (inter-subnet traffic through routers).
//!
//! Three GRH fields are *variant* (routers rewrite them): Traffic Class,
//! Flow Label, and Hop Limit; ICRC masks them to 1s (spec §7.8.1).

use crate::error::ParseError;

/// 128-bit Global Identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gid(pub u128);

/// Global Route Header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grh {
    /// IP version field (6 for IBA's IPv6-compatible GRH).
    pub ip_ver: u8,
    /// Traffic class (variant).
    pub traffic_class: u8,
    /// Flow label, 20 bits (variant).
    pub flow_label: u32,
    /// Payload length in bytes: everything after the GRH, incl. ICRC.
    pub pay_len: u16,
    /// Next header (0x1B = IBA BTH).
    pub next_header: u8,
    /// Hop limit (variant; routers decrement).
    pub hop_limit: u8,
    /// Source GID.
    pub sgid: Gid,
    /// Destination GID.
    pub dgid: Gid,
}

/// Serialized GRH size in bytes.
pub(crate) const GRH_LEN: usize = 40;
/// The IBA "next header" code for BTH.
pub(crate) const NXT_HDR_IBA: u8 = 0x1B;

impl Default for Grh {
    fn default() -> Self {
        Grh {
            ip_ver: 6,
            traffic_class: 0,
            flow_label: 0,
            pay_len: 0,
            next_header: NXT_HDR_IBA,
            hop_limit: 64,
            sgid: Gid(0),
            dgid: Gid(0),
        }
    }
}

impl Grh {
    /// Serialize into a 40-byte array.
    pub(crate) fn to_bytes(self) -> [u8; GRH_LEN] {
        let mut b = [0u8; GRH_LEN];
        let word0: u32 = ((self.ip_ver as u32 & 0xF) << 28)
            | ((self.traffic_class as u32) << 20)
            | (self.flow_label & 0x000F_FFFF);
        b[0..4].copy_from_slice(&word0.to_be_bytes());
        b[4..6].copy_from_slice(&self.pay_len.to_be_bytes());
        b[6] = self.next_header;
        b[7] = self.hop_limit;
        b[8..24].copy_from_slice(&self.sgid.0.to_be_bytes());
        b[24..40].copy_from_slice(&self.dgid.0.to_be_bytes());
        b
    }

    /// Parse from the first 40 bytes of `buf`.
    pub(crate) fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < GRH_LEN {
            return Err(ParseError::Truncated {
                needed: GRH_LEN,
                got: buf.len(),
            });
        }
        let word0 = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        Ok(Grh {
            ip_ver: (word0 >> 28) as u8,
            traffic_class: ((word0 >> 20) & 0xFF) as u8,
            flow_label: word0 & 0x000F_FFFF,
            pay_len: u16::from_be_bytes([buf[4], buf[5]]),
            next_header: buf[6],
            hop_limit: buf[7],
            sgid: Gid(u128::from_be_bytes(buf[8..24].try_into().unwrap())),
            dgid: Gid(u128::from_be_bytes(buf[24..40].try_into().unwrap())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Grh {
        Grh {
            ip_ver: 6,
            traffic_class: 0xAB,
            flow_label: 0x000F_F00D,
            pay_len: 1040,
            next_header: NXT_HDR_IBA,
            hop_limit: 63,
            sgid: Gid(0x0123_4567_89AB_CDEF_0011_2233_4455_6677),
            dgid: Gid(0xFEDC_BA98_7654_3210_8899_AABB_CCDD_EEFF),
        }
    }

    #[test]
    fn roundtrip() {
        let grh = sample();
        assert_eq!(Grh::parse(&grh.to_bytes()).unwrap(), grh);
    }

    #[test]
    fn flow_label_masked_to_20_bits() {
        let mut grh = sample();
        grh.flow_label = 0xFFFF_FFFF;
        let parsed = Grh::parse(&grh.to_bytes()).unwrap();
        assert_eq!(parsed.flow_label, 0x000F_FFFF);
    }

    #[test]
    fn word0_packing() {
        let b = sample().to_bytes();
        // 6 | 0xAB | 0xFF00D -> 0x6A_BF_F0_0D
        assert_eq!(&b[0..4], &[0x6A, 0xBF, 0xF0, 0x0D]);
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            Grh::parse(&[0u8; 39]),
            Err(ParseError::Truncated {
                needed: 40,
                got: 39
            })
        ));
    }

    #[test]
    fn default_is_iba_next_header() {
        assert_eq!(Grh::default().next_header, NXT_HDR_IBA);
        assert_eq!(Grh::default().ip_ver, 6);
    }
}
