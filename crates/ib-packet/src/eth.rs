//! Extended Transport Headers (IBA spec §9.3): DETH, RETH, AETH, and
//! immediate data.
//!
//! The DETH carries the plaintext **Q_Key** and the RETH the plaintext
//! **R_Key** — the two extended-header keys whose exposure the paper's
//! Table 3 analyzes. Both travel inside ICRC coverage, so under the
//! ICRC-as-MAC scheme they become *authenticated* fields: knowing a leaked
//! key is no longer enough to forge a packet that verifies.

use crate::error::ParseError;
use crate::types::{QKey, Qpn, RKey};

/// Datagram Extended Transport Header (8 bytes): Q_Key, source QP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deth {
    /// Queue key authorizing access to the destination QP.
    pub qkey: QKey,
    /// Source queue pair number.
    pub src_qp: Qpn,
}

/// Serialized DETH size in bytes.
pub(crate) const DETH_LEN: usize = 8;

impl Deth {
    /// Serialize into an 8-byte array.
    pub(crate) fn to_bytes(self) -> [u8; DETH_LEN] {
        let mut b = [0u8; DETH_LEN];
        b[0..4].copy_from_slice(&self.qkey.0.to_be_bytes());
        let sqp = self.src_qp.0.to_be_bytes();
        b[5..8].copy_from_slice(&sqp[1..4]);
        b
    }

    /// Parse from the first 8 bytes of `buf`.
    pub(crate) fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < DETH_LEN {
            return Err(ParseError::Truncated {
                needed: DETH_LEN,
                got: buf.len(),
            });
        }
        Ok(Deth {
            qkey: QKey(u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]])),
            src_qp: Qpn(u32::from_be_bytes([0, buf[5], buf[6], buf[7]])),
        })
    }
}

/// RDMA Extended Transport Header (16 bytes): virtual address, R_Key,
/// DMA length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Reth {
    /// Remote virtual address the RDMA targets.
    pub virt_addr: u64,
    /// Remote memory key.
    pub rkey: RKey,
    /// DMA length in bytes.
    pub dma_len: u32,
}

/// Serialized RETH size in bytes.
pub(crate) const RETH_LEN: usize = 16;

impl Reth {
    /// Serialize into a 16-byte array.
    pub(crate) fn to_bytes(self) -> [u8; RETH_LEN] {
        let mut b = [0u8; RETH_LEN];
        b[0..8].copy_from_slice(&self.virt_addr.to_be_bytes());
        b[8..12].copy_from_slice(&self.rkey.0.to_be_bytes());
        b[12..16].copy_from_slice(&self.dma_len.to_be_bytes());
        b
    }

    /// Parse from the first 16 bytes of `buf`.
    pub(crate) fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < RETH_LEN {
            return Err(ParseError::Truncated {
                needed: RETH_LEN,
                got: buf.len(),
            });
        }
        Ok(Reth {
            virt_addr: u64::from_be_bytes(buf[0..8].try_into().unwrap()),
            rkey: RKey(u32::from_be_bytes(buf[8..12].try_into().unwrap())),
            dma_len: u32::from_be_bytes(buf[12..16].try_into().unwrap()),
        })
    }
}

/// ACK Extended Transport Header (4 bytes): syndrome + message sequence
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Aeth {
    /// ACK/NAK syndrome.
    pub(crate) syndrome: u8,
    /// Message sequence number (24 bits).
    pub(crate) msn: u32,
}

/// NAK codes carried in the low 5 syndrome bits when bits \[6:5\] = `11`
/// (IBA spec §9.7.5.2.4 — table 58). The RC transport emits
/// [`NakCode::PsnSequenceError`] for an out-of-sequence PSN; the rest are
/// defined for completeness of the wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NakCode {
    /// PSN outside the receiver's expected sequence — the go-back-N
    /// retransmission trigger.
    PsnSequenceError,
    /// Unsupported or malformed request.
    InvalidRequest,
    /// R_Key / access-rights violation.
    RemoteAccessError,
    /// Responder could not complete the operation.
    RemoteOperationalError,
    /// Invalid RD request (reliable-datagram only).
    InvalidRdRequest,
}

impl NakCode {
    const ALL: [NakCode; 5] = [
        NakCode::PsnSequenceError,
        NakCode::InvalidRequest,
        NakCode::RemoteAccessError,
        NakCode::RemoteOperationalError,
        NakCode::InvalidRdRequest,
    ];

    /// Low-5-bit wire value.
    pub(crate) fn value(self) -> u8 {
        match self {
            NakCode::PsnSequenceError => 0,
            NakCode::InvalidRequest => 1,
            NakCode::RemoteAccessError => 2,
            NakCode::RemoteOperationalError => 3,
            NakCode::InvalidRdRequest => 4,
        }
    }

    /// Inverse of [`value`](Self::value); `None` for reserved codes.
    pub(crate) fn from_value(v: u8) -> Option<NakCode> {
        Self::ALL.into_iter().find(|c| c.value() == v)
    }
}

/// Decoded meaning of an AETH syndrome byte (IBA spec §9.7.5.2.4: bit 7
/// reserved, bits \[6:5\] select ACK `00` / RNR NAK `01` / NAK `11`, low 5
/// bits carry the credit count, RNR timer, or NAK code respectively).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AethKind {
    /// Positive acknowledgment; `credits` is the encoded end-to-end credit
    /// count (opaque to this crate).
    Ack { credits: u8 },
    /// Receiver-not-ready NAK; `timer` encodes the minimum retry delay.
    Rnr { timer: u8 },
    /// Negative acknowledgment with a [`NakCode`].
    Nak(NakCode),
}

/// Serialized AETH size in bytes.
pub(crate) const AETH_LEN: usize = 4;

impl Aeth {
    /// Positive ACK syndrome (bits \[6:5\] = `00`, zero credits).
    pub fn ack(msn: u32) -> Aeth {
        Aeth {
            syndrome: 0x00,
            msn: msn & 0x00FF_FFFF,
        }
    }

    /// RNR NAK syndrome (bits \[6:5\] = `01`) with a 5-bit timer field.
    pub fn rnr(timer: u8, msn: u32) -> Aeth {
        Aeth {
            syndrome: 0x20 | (timer & 0x1F),
            msn: msn & 0x00FF_FFFF,
        }
    }

    /// NAK syndrome (bits \[6:5\] = `11`) carrying `code`.
    pub fn nak(code: NakCode, msn: u32) -> Aeth {
        Aeth {
            syndrome: 0x60 | code.value(),
            msn: msn & 0x00FF_FFFF,
        }
    }

    /// Decode the syndrome; `None` for reserved encodings (bit 7 set,
    /// the reserved `10` class, or a reserved NAK code).
    pub fn kind(&self) -> Option<AethKind> {
        if self.syndrome & 0x80 != 0 {
            return None;
        }
        let low = self.syndrome & 0x1F;
        match (self.syndrome >> 5) & 0x3 {
            0b00 => Some(AethKind::Ack { credits: low }),
            0b01 => Some(AethKind::Rnr { timer: low }),
            0b11 => NakCode::from_value(low).map(AethKind::Nak),
            _ => None,
        }
    }
    /// Serialize into a 4-byte array.
    pub(crate) fn to_bytes(self) -> [u8; AETH_LEN] {
        let msn = self.msn.to_be_bytes();
        [self.syndrome, msn[1], msn[2], msn[3]]
    }

    /// Parse from the first 4 bytes of `buf`.
    pub(crate) fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < AETH_LEN {
            return Err(ParseError::Truncated {
                needed: AETH_LEN,
                got: buf.len(),
            });
        }
        Ok(Aeth {
            syndrome: buf[0],
            msn: u32::from_be_bytes([0, buf[1], buf[2], buf[3]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deth_roundtrip() {
        let deth = Deth {
            qkey: QKey(0xDEAD_BEEF),
            src_qp: Qpn(0x00012345),
        };
        assert_eq!(Deth::parse(&deth.to_bytes()).unwrap(), deth);
    }

    #[test]
    fn deth_reserved_byte_zero() {
        let deth = Deth {
            qkey: QKey(1),
            src_qp: Qpn(2),
        };
        assert_eq!(deth.to_bytes()[4], 0);
    }

    #[test]
    fn reth_roundtrip() {
        let reth = Reth {
            virt_addr: 0x0000_7FFF_DEAD_0000,
            rkey: RKey(0xCAFE_BABE),
            dma_len: 4096,
        };
        assert_eq!(Reth::parse(&reth.to_bytes()).unwrap(), reth);
    }

    #[test]
    fn aeth_roundtrip() {
        let aeth = Aeth {
            syndrome: 0x1F,
            msn: 0x00ABCDEF,
        };
        assert_eq!(Aeth::parse(&aeth.to_bytes()).unwrap(), aeth);
    }

    #[test]
    fn aeth_msn_masked() {
        let aeth = Aeth {
            syndrome: 0,
            msn: 0xFF123456,
        };
        let parsed = Aeth::parse(&aeth.to_bytes()).unwrap();
        assert_eq!(parsed.msn, 0x00123456);
    }

    #[test]
    fn aeth_kind_roundtrip() {
        let ack = Aeth::ack(7);
        assert_eq!(ack.kind(), Some(AethKind::Ack { credits: 0 }));
        assert_eq!(ack.msn, 7);

        let rnr = Aeth::rnr(0x15, 9);
        assert_eq!(rnr.kind(), Some(AethKind::Rnr { timer: 0x15 }));
        assert_eq!(rnr.syndrome, 0x35);

        let nak = Aeth::nak(NakCode::PsnSequenceError, 3);
        assert_eq!(nak.kind(), Some(AethKind::Nak(NakCode::PsnSequenceError)));
        assert_eq!(nak.syndrome, 0x60);
        // Survives serialization.
        let parsed = Aeth::parse(&nak.to_bytes()).unwrap();
        assert_eq!(parsed.kind(), nak.kind());
    }

    #[test]
    fn aeth_kind_rejects_reserved() {
        // Bit 7 set: reserved.
        assert_eq!(
            Aeth {
                syndrome: 0x80,
                msn: 0
            }
            .kind(),
            None
        );
        // Class `10`: reserved.
        assert_eq!(
            Aeth {
                syndrome: 0x40,
                msn: 0
            }
            .kind(),
            None
        );
        // NAK with a reserved code (5..=31).
        assert_eq!(
            Aeth {
                syndrome: 0x60 | 5,
                msn: 0
            }
            .kind(),
            None
        );
        assert_eq!(
            Aeth {
                syndrome: 0x7F,
                msn: 0
            }
            .kind(),
            None
        );
    }

    #[test]
    fn nak_code_values() {
        for code in [
            NakCode::PsnSequenceError,
            NakCode::InvalidRequest,
            NakCode::RemoteAccessError,
            NakCode::RemoteOperationalError,
            NakCode::InvalidRdRequest,
        ] {
            assert_eq!(NakCode::from_value(code.value()), Some(code));
        }
        assert_eq!(NakCode::from_value(5), None);
        assert_eq!(NakCode::from_value(31), None);
    }

    #[test]
    fn truncation_errors() {
        assert!(Deth::parse(&[0; 7]).is_err());
        assert!(Reth::parse(&[0; 15]).is_err());
        assert!(Aeth::parse(&[0; 3]).is_err());
    }
}
