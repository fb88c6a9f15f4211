//! Management Datagram (MAD) wire format — IBA spec §13.4.
//!
//! MADs are fixed 256-byte payloads carried in UD packets to QP0 (subnet
//! management, on VL15) or QP1 (general services). The paper's SIF control
//! loop rides on MADs twice: the P_Key-violation **trap** (a SubnTrap MAD
//! from the detecting port to the SM) and the SM's **SubnSet** programming
//! the switch's Invalid_P_Key_Table.
//!
//! Layout of the common header (24 bytes):
//!
//! ```text
//! byte 0:      BaseVersion (1)
//! byte 1:      MgmtClass
//! byte 2:      ClassVersion (1)
//! byte 3:      R (1) | Method (7)
//! bytes 4-5:   Status
//! bytes 6-7:   ClassSpecific
//! bytes 8-15:  TransactionID
//! bytes 16-17: AttributeID
//! bytes 18-19: reserved
//! bytes 20-23: AttributeModifier
//! ```

use crate::error::ParseError;
use crate::types::{Lid, PKey};

/// Total MAD size on the wire (spec-mandated).
pub const MAD_LEN: usize = 256;
/// Common MAD header size.
pub const MAD_HEADER_LEN: usize = 24;

/// Management classes this reproduction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MgmtClass {
    /// LID-routed subnet management (SMPs to QP0).
    SubnLid = 0x01,
    /// Subnet administration (via QP1).
    SubnAdm = 0x03,
}

/// MAD methods (spec table 97 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Method {
    Get = 0x01,
    Set = 0x02,
    GetResp = 0x81,
    Trap = 0x05,
    TrapRepress = 0x07,
}

impl Method {
    fn from_byte(b: u8) -> Option<Method> {
        Some(match b {
            0x01 => Method::Get,
            0x02 => Method::Set,
            0x81 => Method::GetResp,
            0x05 => Method::Trap,
            0x07 => Method::TrapRepress,
            _ => return None,
        })
    }
}

/// Notice trap number of a bad M_Key (spec §14.2.5.1).
pub const TRAP_BAD_MKEY: u16 = 256;
/// Notice trap number of a bad P_Key (spec §14.2.5.1).
pub const TRAP_BAD_PKEY: u16 = 257;

/// Attribute IDs (spec table 99 subset + one vendor attribute for the
/// paper's extension).
pub mod attr {
    /// Notice (traps carry a Notice attribute).
    pub(crate) const NOTICE: u16 = 0x0002;
    /// Vendor-range attribute for programming the Invalid_P_Key_Table —
    /// the paper's SIF needs a new SMP, which the spec's vendor space
    /// (0xFF00-0xFFFF) accommodates without protocol changes.
    pub(crate) const INVALID_P_KEY_TABLE: u16 = 0xFF10;

    // 0xFF20-0xFF2F: the replicated-SM key plane (`ib-sm`). Like SIF's
    // programming SMP these live in the vendor space, so the protocol is
    // pure MADs — no new wire formats.

    /// Leader → replicas liveness beacon, carrying `(term, leader id)`.
    pub const SM_HEARTBEAT: u16 = 0xFF20;
    /// Replica → replicas leadership claim for a term (deterministic
    /// ranked election).
    pub const SM_LEADER_CLAIM: u16 = 0xFF21;
    /// Leader → follower replica: mirror an `(epoch, partition key)`
    /// version (Set) / follower ack (GetResp).
    pub const SM_KEY_REPLICATE: u16 = 0xFF22;
    /// Leader → CA: install a new key epoch, secret sealed in a toy-RSA
    /// key envelope (Set) / CA ack (GetResp).
    pub const SM_KEY_UPDATE: u16 = 0xFF23;
}

/// A parsed MAD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mad {
    pub mgmt_class: MgmtClass,
    pub method: Method,
    pub status: u16,
    pub transaction_id: u64,
    pub attribute_id: u16,
    pub attribute_modifier: u32,
    /// 232 bytes of class-specific payload.
    pub data: [u8; MAD_LEN - MAD_HEADER_LEN],
}

impl Default for Mad {
    fn default() -> Self {
        Mad {
            mgmt_class: MgmtClass::SubnLid,
            method: Method::Get,
            status: 0,
            transaction_id: 0,
            attribute_id: 0,
            attribute_modifier: 0,
            data: [0u8; MAD_LEN - MAD_HEADER_LEN],
        }
    }
}

impl Mad {
    /// Serialize to the 256-byte wire form.
    pub fn to_bytes(&self) -> [u8; MAD_LEN] {
        let mut b = [0u8; MAD_LEN];
        b[0] = 1; // BaseVersion
        b[1] = self.mgmt_class as u8;
        b[2] = 1; // ClassVersion
        b[3] = self.method as u8;
        b[4..6].copy_from_slice(&self.status.to_be_bytes());
        b[8..16].copy_from_slice(&self.transaction_id.to_be_bytes());
        b[16..18].copy_from_slice(&self.attribute_id.to_be_bytes());
        b[20..24].copy_from_slice(&self.attribute_modifier.to_be_bytes());
        b[MAD_HEADER_LEN..].copy_from_slice(&self.data);
        b
    }

    /// Parse from wire bytes.
    pub fn parse(buf: &[u8]) -> Result<Mad, ParseError> {
        if buf.len() < MAD_LEN {
            return Err(ParseError::Truncated {
                needed: MAD_LEN,
                got: buf.len(),
            });
        }
        let mgmt_class = match buf[1] {
            0x01 => MgmtClass::SubnLid,
            0x03 => MgmtClass::SubnAdm,
            other => return Err(ParseError::UnknownOpCode(other)),
        };
        let method = Method::from_byte(buf[3]).ok_or(ParseError::UnknownOpCode(buf[3]))?;
        let mut data = [0u8; MAD_LEN - MAD_HEADER_LEN];
        data.copy_from_slice(&buf[MAD_HEADER_LEN..MAD_LEN]);
        Ok(Mad {
            mgmt_class,
            method,
            status: u16::from_be_bytes([buf[4], buf[5]]),
            transaction_id: u64::from_be_bytes(buf[8..16].try_into().unwrap()),
            attribute_id: u16::from_be_bytes([buf[16], buf[17]]),
            attribute_modifier: u32::from_be_bytes(buf[20..24].try_into().unwrap()),
            data,
        })
    }

    /// Build a key-violation trap MAD (Notice attribute): the trap number
    /// ([`TRAP_BAD_MKEY`] or [`TRAP_BAD_PKEY`]), reporter LID, offending
    /// P_Key (0 for an M_Key violation), and the violator's source LID
    /// packed into the data area in the style of the spec's Notice
    /// DataDetails.
    pub fn violation_trap(
        trap_number: u16,
        reporter: Lid,
        bad_pkey: PKey,
        violator: Lid,
        transaction_id: u64,
    ) -> Mad {
        let mut mad = Mad {
            mgmt_class: MgmtClass::SubnLid,
            method: Method::Trap,
            attribute_id: attr::NOTICE,
            transaction_id,
            ..Mad::default()
        };
        // Notice DataDetails: trap number, then LID1, LID2, Key.
        mad.data[0..2].copy_from_slice(&trap_number.to_be_bytes());
        mad.data[2..4].copy_from_slice(&reporter.0.to_be_bytes());
        mad.data[4..6].copy_from_slice(&violator.0.to_be_bytes());
        mad.data[6..8].copy_from_slice(&bad_pkey.0.to_be_bytes());
        mad
    }

    /// Decode a trap built by [`Mad::violation_trap`]:
    /// `(trap_number, reporter, violator, bad_pkey)`.
    pub fn decode_violation(&self) -> Option<(u16, Lid, Lid, PKey)> {
        if self.method != Method::Trap || self.attribute_id != attr::NOTICE {
            return None;
        }
        Some((
            u16::from_be_bytes([self.data[0], self.data[1]]),
            Lid(u16::from_be_bytes([self.data[2], self.data[3]])),
            Lid(u16::from_be_bytes([self.data[4], self.data[5]])),
            PKey(u16::from_be_bytes([self.data[6], self.data[7]])),
        ))
    }

    /// Build the SM→switch SubnSet MAD programming one Invalid_P_Key_Table
    /// entry on `port` (the paper's SIF activation message).
    pub fn program_invalid_pkey(port: u8, pkey: PKey, transaction_id: u64) -> Mad {
        let mut mad = Mad {
            mgmt_class: MgmtClass::SubnLid,
            method: Method::Set,
            attribute_id: attr::INVALID_P_KEY_TABLE,
            attribute_modifier: port as u32,
            transaction_id,
            ..Mad::default()
        };
        mad.data[0..2].copy_from_slice(&pkey.0.to_be_bytes());
        mad
    }

    /// Decode a SIF programming MAD: `(port, pkey)`.
    #[cfg(test)]
    pub(crate) fn decode_program_invalid_pkey(&self) -> Option<(u8, PKey)> {
        if self.method != Method::Set || self.attribute_id != attr::INVALID_P_KEY_TABLE {
            return None;
        }
        Some((
            self.attribute_modifier as u8,
            PKey(u16::from_be_bytes([self.data[0], self.data[1]])),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_default() {
        let mad = Mad::default();
        let parsed = Mad::parse(&mad.to_bytes()).unwrap();
        assert_eq!(parsed, mad);
    }

    #[test]
    fn trap_roundtrip_and_decode() {
        let mad = Mad::violation_trap(TRAP_BAD_PKEY, Lid(5), PKey(0x8666), Lid(9), 42);
        let wire = mad.to_bytes();
        assert_eq!(wire.len(), MAD_LEN);
        let parsed = Mad::parse(&wire).unwrap();
        assert_eq!(parsed.method, Method::Trap);
        assert_eq!(parsed.transaction_id, 42);
        let (number, reporter, violator, pkey) = parsed.decode_violation().unwrap();
        assert_eq!(number, TRAP_BAD_PKEY);
        assert_eq!(reporter, Lid(5));
        assert_eq!(violator, Lid(9));
        assert_eq!(pkey, PKey(0x8666));
    }

    #[test]
    fn program_roundtrip_and_decode() {
        let mad = Mad::program_invalid_pkey(4, PKey(0x8666), 7);
        let parsed = Mad::parse(&mad.to_bytes()).unwrap();
        let (port, pkey) = parsed.decode_program_invalid_pkey().unwrap();
        assert_eq!(port, 4);
        assert_eq!(pkey, PKey(0x8666));
        assert!(parsed.decode_violation().is_none(), "not a trap");
    }

    #[test]
    fn decode_rejects_wrong_kinds() {
        let trap = Mad::violation_trap(TRAP_BAD_PKEY, Lid(1), PKey(2), Lid(3), 4);
        assert!(trap.decode_program_invalid_pkey().is_none());
        let get = Mad::default();
        assert!(get.decode_violation().is_none());
    }

    #[test]
    fn parse_rejects_truncated_and_unknown() {
        assert!(matches!(
            Mad::parse(&[0u8; 255]),
            Err(ParseError::Truncated {
                needed: 256,
                got: 255
            })
        ));
        let mut bytes = Mad::default().to_bytes();
        bytes[1] = 0x42; // bogus class
        assert!(Mad::parse(&bytes).is_err());
        let mut bytes = Mad::default().to_bytes();
        bytes[3] = 0x7F; // bogus method
        assert!(Mad::parse(&bytes).is_err());
    }

    #[test]
    fn header_field_packing() {
        let mad = Mad {
            status: 0x1234,
            transaction_id: 0x0102_0304_0506_0708,
            attribute_id: 0xFF10,
            attribute_modifier: 0xAABB_CCDD,
            ..Mad::default()
        };
        let b = mad.to_bytes();
        assert_eq!(b[0], 1);
        assert_eq!(&b[4..6], &[0x12, 0x34]);
        assert_eq!(&b[8..16], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(&b[16..18], &[0xFF, 0x10]);
        assert_eq!(&b[20..24], &[0xAA, 0xBB, 0xCC, 0xDD]);
    }
}
