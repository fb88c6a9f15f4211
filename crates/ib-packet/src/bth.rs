//! Base Transport Header (IBA spec §9.2) — 12 bytes, present in every IBA
//! transport packet.
//!
//! ```text
//! byte 0:     OpCode
//! byte 1:     SE (1) | M (1) | PadCnt (2) | TVer (4)
//! bytes 2-3:  P_Key
//! byte 4:     Resv8a    ←  the paper's authentication-function selector
//! bytes 5-7:  DestQP (24)
//! byte 8:     A (1) | Resv7b (7)  ←  Resv7b carries the key-epoch id
//! bytes 9-11: PSN (24)
//! ```
//!
//! `Resv8a` is a *variant* field per the spec (masked in the ICRC
//! computation) — which is exactly why §5.1 of the paper can repurpose it as
//! the selector without perturbing the ICRC/AT itself: the selector travels
//! outside the authenticated coverage, while tampering with it merely makes
//! verification fail.
//!
//! `Resv7b` (the low 7 bits of byte 8) is an *invariant* field — covered by
//! the ICRC/MAC — so the key-management plane uses it as the **key-epoch
//! id**: the low 7 bits of the epoch the sender's MAC key belongs to. The
//! receiver reconstructs the full epoch against its own current one and
//! picks the matching key; tampering with the epoch in flight changes the
//! authenticated message and fails verification. Epoch 0 keeps the byte
//! bit-identical to pre-epoch traffic.

use crate::error::ParseError;
use crate::opcode::OpCode;
use crate::types::{PKey, Psn, Qpn};

/// Base Transport Header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bth {
    /// Operation: service class + operation code.
    pub opcode: OpCode,
    /// Solicited event.
    pub(crate) se: bool,
    /// MigReq state.
    pub(crate) migreq: bool,
    /// Payload pad count (0–3 bytes) so payload+pad is 4-byte aligned.
    pub(crate) pad_count: u8,
    /// Transport header version (must be 0).
    pub(crate) tver: u8,
    /// Partition key.
    pub pkey: PKey,
    /// Reserved byte 8a — used by the authentication scheme as the
    /// algorithm selector (0 = plain ICRC).
    pub resv8a: u8,
    /// Destination queue pair.
    pub dest_qp: Qpn,
    /// Acknowledge-request bit.
    pub(crate) ack_req: bool,
    /// Key-epoch id (7 bits, spec `Resv7b`): low bits of the epoch the
    /// sender's MAC key belongs to. Invariant — covered by the ICRC/MAC.
    pub key_epoch: u8,
    /// Packet sequence number.
    pub psn: Psn,
}

/// Mask for the 7-bit on-wire key-epoch id in BTH byte 8.
pub(crate) const KEY_EPOCH_WIRE_MASK: u8 = 0x7F;

/// Serialized BTH size in bytes.
pub(crate) const BTH_LEN: usize = 12;
/// Offset of the Resv8a byte within the BTH (for ICRC masking).
pub(crate) const BTH_RESV8A_OFFSET: usize = 4;

impl Bth {
    /// Serialize into a 12-byte array.
    pub(crate) fn to_bytes(self) -> [u8; BTH_LEN] {
        let mut b = [0u8; BTH_LEN];
        b[0] = self.opcode.to_byte();
        b[1] = ((self.se as u8) << 7)
            | ((self.migreq as u8) << 6)
            | ((self.pad_count & 0b11) << 4)
            | (self.tver & 0x0F);
        b[2..4].copy_from_slice(&self.pkey.0.to_be_bytes());
        b[4] = self.resv8a;
        let dqp = self.dest_qp.0.to_be_bytes();
        b[5..8].copy_from_slice(&dqp[1..4]);
        b[8] = ((self.ack_req as u8) << 7) | (self.key_epoch & KEY_EPOCH_WIRE_MASK);
        let psn = self.psn.0.to_be_bytes();
        b[9..12].copy_from_slice(&psn[1..4]);
        b
    }

    /// Parse from the first 12 bytes of `buf`.
    pub(crate) fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < BTH_LEN {
            return Err(ParseError::Truncated {
                needed: BTH_LEN,
                got: buf.len(),
            });
        }
        let opcode = OpCode::from_byte(buf[0]).ok_or(ParseError::UnknownOpCode(buf[0]))?;
        let tver = buf[1] & 0x0F;
        if tver != 0 {
            return Err(ParseError::BadTransportVersion(tver));
        }
        Ok(Bth {
            opcode,
            se: buf[1] & 0x80 != 0,
            migreq: buf[1] & 0x40 != 0,
            pad_count: (buf[1] >> 4) & 0b11,
            tver,
            pkey: PKey(u16::from_be_bytes([buf[2], buf[3]])),
            resv8a: buf[4],
            dest_qp: Qpn(u32::from_be_bytes([0, buf[5], buf[6], buf[7]])),
            ack_req: buf[8] & 0x80 != 0,
            key_epoch: buf[8] & KEY_EPOCH_WIRE_MASK,
            psn: Psn(u32::from_be_bytes([0, buf[9], buf[10], buf[11]])),
        })
    }
}

impl Default for Bth {
    fn default() -> Self {
        Bth {
            opcode: OpCode::RC_SEND_ONLY,
            se: false,
            migreq: false,
            pad_count: 0,
            tver: 0,
            pkey: PKey::DEFAULT,
            resv8a: 0,
            dest_qp: Qpn(0),
            ack_req: false,
            key_epoch: 0,
            psn: Psn(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bth {
        Bth {
            opcode: OpCode::UD_SEND_ONLY,
            se: true,
            migreq: false,
            pad_count: 3,
            tver: 0,
            pkey: PKey(0x8001),
            resv8a: 1, // UMAC selector
            dest_qp: Qpn(0x00AB_CDEF),
            ack_req: true,
            key_epoch: 0,
            psn: Psn(0x123456),
        }
    }

    #[test]
    fn roundtrip() {
        let bth = sample();
        assert_eq!(Bth::parse(&bth.to_bytes()).unwrap(), bth);
    }

    #[test]
    fn resv8a_is_byte_4() {
        let b = sample().to_bytes();
        assert_eq!(b[BTH_RESV8A_OFFSET], 1);
    }

    #[test]
    fn field_packing() {
        let b = sample().to_bytes();
        assert_eq!(b[0], 0x64); // UD SendOnly
        assert_eq!(b[1], 0xB0); // SE=1, M=0, Pad=3, TVer=0
        assert_eq!(&b[2..4], &[0x80, 0x01]);
        assert_eq!(&b[5..8], &[0xAB, 0xCD, 0xEF]);
        assert_eq!(b[8], 0x80);
        assert_eq!(&b[9..12], &[0x12, 0x34, 0x56]);
    }

    #[test]
    fn rejects_unknown_opcode() {
        let mut b = sample().to_bytes();
        b[0] = 0xFF;
        assert_eq!(Bth::parse(&b), Err(ParseError::UnknownOpCode(0xFF)));
    }

    #[test]
    fn rejects_bad_tver() {
        let mut b = sample().to_bytes();
        b[1] |= 0x01;
        assert_eq!(Bth::parse(&b), Err(ParseError::BadTransportVersion(1)));
    }

    #[test]
    fn default_is_icrc_mode() {
        assert_eq!(Bth::default().resv8a, 0);
        assert_eq!(Bth::default().key_epoch, 0, "epoch 0 = pre-epoch wire");
    }

    #[test]
    fn key_epoch_shares_byte8_with_ack_bit() {
        let mut bth = sample();
        bth.key_epoch = 0x55;
        let b = bth.to_bytes();
        assert_eq!(b[8], 0x80 | 0x55, "A bit high, epoch in Resv7b");
        let parsed = Bth::parse(&b).unwrap();
        assert!(parsed.ack_req);
        assert_eq!(parsed.key_epoch, 0x55);

        bth.ack_req = false;
        bth.key_epoch = 0x7F;
        let parsed = Bth::parse(&bth.to_bytes()).unwrap();
        assert!(!parsed.ack_req);
        assert_eq!(parsed.key_epoch, 0x7F);
    }

    #[test]
    fn key_epoch_truncated_to_seven_bits() {
        let mut bth = sample();
        bth.ack_req = false;
        bth.key_epoch = 0xFF; // bit 7 must not leak into the A bit
        let b = bth.to_bytes();
        assert_eq!(b[8], 0x7F);
        assert!(!Bth::parse(&b).unwrap().ack_req);
    }
}
