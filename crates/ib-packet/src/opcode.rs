//! BTH opcodes (IBA spec §9.2, table 35 subset).
//!
//! The high 3 bits select the transport service class; the low 5 bits the
//! operation. We model the services the paper's key-management section
//! distinguishes: Reliable Connection (connection-oriented, no Q_Key) and
//! Unreliable Datagram (Q_Key in a DETH), plus the acknowledgement packets
//! RC generates.

/// IBA transport service classes (BTH opcode bits 7-5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TransportService {
    /// Reliable Connection — two QPs bound to each other; packets carry
    /// only a P_Key (paper §4.3: "no Q_Key is included here").
    ReliableConnection = 0b000,
    /// Unreliable Connection.
    UnreliableConnection = 0b101,
    /// Reliable Datagram.
    ReliableDatagram = 0b010,
    /// Unreliable Datagram — packets carry Q_Key + source QP in a DETH.
    UnreliableDatagram = 0b011,
}

impl TransportService {
    /// Whether packets of this service carry a DETH (and therefore a Q_Key).
    pub fn has_deth(self) -> bool {
        matches!(
            self,
            TransportService::UnreliableDatagram | TransportService::ReliableDatagram
        )
    }

    /// Whether this service is connection-oriented (QPs exclusively bound).
    pub fn is_connected(self) -> bool {
        matches!(
            self,
            TransportService::ReliableConnection | TransportService::UnreliableConnection
        )
    }
}

/// Operations within a service (BTH opcode bits 4-0, subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Operation {
    SendFirst = 0x00,
    SendMiddle = 0x01,
    SendLast = 0x02,
    SendOnly = 0x04,
    RdmaWriteFirst = 0x06,
    RdmaWriteMiddle = 0x07,
    RdmaWriteLast = 0x08,
    RdmaWriteOnly = 0x0A,
    RdmaReadRequest = 0x0C,
    RdmaReadResponseFirst = 0x0D,
    RdmaReadResponseMiddle = 0x0E,
    RdmaReadResponseLast = 0x0F,
    RdmaReadResponseOnly = 0x10,
    Acknowledge = 0x11,
}

impl Operation {
    fn from_bits(v: u8) -> Option<Self> {
        Some(match v {
            0x00 => Operation::SendFirst,
            0x01 => Operation::SendMiddle,
            0x02 => Operation::SendLast,
            0x04 => Operation::SendOnly,
            0x06 => Operation::RdmaWriteFirst,
            0x07 => Operation::RdmaWriteMiddle,
            0x08 => Operation::RdmaWriteLast,
            0x0A => Operation::RdmaWriteOnly,
            0x0C => Operation::RdmaReadRequest,
            0x0D => Operation::RdmaReadResponseFirst,
            0x0E => Operation::RdmaReadResponseMiddle,
            0x0F => Operation::RdmaReadResponseLast,
            0x10 => Operation::RdmaReadResponseOnly,
            0x11 => Operation::Acknowledge,
            _ => return None,
        })
    }

    /// Whether packets with this operation carry a RETH (RDMA address +
    /// R_Key).
    pub fn has_reth(self) -> bool {
        matches!(
            self,
            Operation::RdmaWriteFirst | Operation::RdmaWriteOnly | Operation::RdmaReadRequest
        )
    }

    /// Whether packets with this operation carry an AETH (ack syndrome).
    /// Per spec table 35 a read-response *Middle* carries none — only the
    /// First/Last/Only response packets acknowledge.
    pub fn has_aeth(self) -> bool {
        matches!(
            self,
            Operation::Acknowledge
                | Operation::RdmaReadResponseFirst
                | Operation::RdmaReadResponseLast
                | Operation::RdmaReadResponseOnly
        )
    }

    /// Whether this operation carries a data payload.
    pub fn has_payload(self) -> bool {
        !matches!(self, Operation::Acknowledge | Operation::RdmaReadRequest)
    }
}

/// A combined (service, operation) opcode as carried in BTH byte 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpCode {
    pub service: TransportService,
    pub operation: Operation,
}

impl OpCode {
    /// Reliable-connection send-only — the workhorse of the simulations.
    pub const RC_SEND_ONLY: OpCode = OpCode {
        service: TransportService::ReliableConnection,
        operation: Operation::SendOnly,
    };
    /// Unreliable-datagram send-only (carries DETH with Q_Key).
    pub const UD_SEND_ONLY: OpCode = OpCode {
        service: TransportService::UnreliableDatagram,
        operation: Operation::SendOnly,
    };
    /// RC RDMA write-only (carries RETH with R_Key).
    pub const RC_RDMA_WRITE_ONLY: OpCode = OpCode {
        service: TransportService::ReliableConnection,
        operation: Operation::RdmaWriteOnly,
    };
    /// RC RDMA read request.
    pub const RC_RDMA_READ_REQUEST: OpCode = OpCode {
        service: TransportService::ReliableConnection,
        operation: Operation::RdmaReadRequest,
    };
    /// RC acknowledge.
    pub const RC_ACKNOWLEDGE: OpCode = OpCode {
        service: TransportService::ReliableConnection,
        operation: Operation::Acknowledge,
    };

    /// Encode to the BTH opcode byte.
    pub(crate) fn to_byte(self) -> u8 {
        ((self.service as u8) << 5) | (self.operation as u8)
    }

    /// Decode from the BTH opcode byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        let service = match b >> 5 {
            0b000 => TransportService::ReliableConnection,
            0b101 => TransportService::UnreliableConnection,
            0b010 => TransportService::ReliableDatagram,
            0b011 => TransportService::UnreliableDatagram,
            _ => return None,
        };
        let operation = Operation::from_bits(b & 0x1F)?;
        // UD supports only sends (spec table 38).
        if service == TransportService::UnreliableDatagram
            && !matches!(
                operation,
                Operation::SendFirst
                    | Operation::SendOnly
                    | Operation::SendMiddle
                    | Operation::SendLast
            )
        {
            return None;
        }
        Some(OpCode { service, operation })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_common_opcodes() {
        for op in [
            OpCode::RC_SEND_ONLY,
            OpCode::UD_SEND_ONLY,
            OpCode::RC_RDMA_WRITE_ONLY,
            OpCode::RC_RDMA_READ_REQUEST,
            OpCode::RC_ACKNOWLEDGE,
        ] {
            assert_eq!(OpCode::from_byte(op.to_byte()), Some(op));
        }
    }

    #[test]
    fn rc_send_only_is_0x04() {
        assert_eq!(OpCode::RC_SEND_ONLY.to_byte(), 0x04);
        assert_eq!(OpCode::UD_SEND_ONLY.to_byte(), 0x64);
    }

    #[test]
    fn ud_rdma_rejected() {
        // 0b011_01010 = UD RdmaWriteOnly: not a legal IBA opcode.
        assert_eq!(OpCode::from_byte(0b0110_1010), None);
    }

    #[test]
    fn unknown_service_rejected() {
        assert_eq!(OpCode::from_byte(0b1110_0100), None);
    }

    #[test]
    fn roundtrip_all_opcode_bytes() {
        // Every byte either decodes to an opcode that re-encodes to the
        // same byte, or is rejected — no aliasing, no lossy decode.
        let mut decoded = 0;
        for b in 0u8..=255 {
            if let Some(op) = OpCode::from_byte(b) {
                assert_eq!(op.to_byte(), b, "byte {b:#04x} must re-encode");
                assert_eq!(OpCode::from_byte(op.to_byte()), Some(op));
                decoded += 1;
            }
        }
        // RC + UC + RD carry all 14 operations; UD only the 4 sends.
        assert_eq!(decoded, 3 * 14 + 4);
    }

    #[test]
    fn read_response_middle_header_flags() {
        let op = Operation::RdmaReadResponseMiddle;
        assert_eq!(op as u8, 0x0E);
        assert!(op.has_payload(), "middle response carries data");
        assert!(!op.has_aeth(), "only First/Last/Only responses carry AETH");
        assert!(!op.has_reth());
    }

    #[test]
    fn header_presence_flags() {
        assert!(TransportService::UnreliableDatagram.has_deth());
        assert!(!TransportService::ReliableConnection.has_deth());
        assert!(TransportService::ReliableConnection.is_connected());
        assert!(Operation::RdmaWriteOnly.has_reth());
        assert!(Operation::Acknowledge.has_aeth());
        assert!(!Operation::Acknowledge.has_payload());
        assert!(!Operation::RdmaReadRequest.has_payload());
        assert!(Operation::SendOnly.has_payload());
    }
}
