//! # ib-packet
//!
//! InfiniBand Architecture (IBA spec vol. 1, rel. 1.1) data-packet wire
//! formats, faithful to the field layouts the paper's ICRC-as-MAC scheme is
//! defined over:
//!
//! ```text
//! | LRH | [GRH] | BTH | [ETHs] | payload | ICRC (4B) | VCRC (2B) |
//! ```
//!
//! * `lrh::Lrh` — Local Route Header (8 bytes): VL, service level,
//!   source/destination LIDs, packet length.
//! * [`grh::Grh`] — Global Route Header (40 bytes), optional, for
//!   inter-subnet traffic.
//! * [`bth::Bth`] — Base Transport Header (12 bytes): opcode, **P_Key**,
//!   **Resv8a** (the byte §5.1 of the paper repurposes as the
//!   authentication-function selector), destination QP, PSN.
//! * `eth` — Extended Transport Headers: DETH (carries **Q_Key** and
//!   source QP for datagrams), RETH (**R_Key** for RDMA), AETH (acks),
//!   immediate data.
//! * [`packet::Packet`] — a parsed/composable packet with
//!   serialization, parsing, and ICRC/VCRC compute/verify that honours the
//!   spec's invariant-field masking (so the ICRC — and therefore the
//!   authentication tag that replaces it — survives switch traversal).
//!   [`packet::WireView`] is the receive side's borrowed form: built only
//!   by [`Packet::parse_view`], after the VCRC check over the bytes it
//!   borrows.
//!
//! The crate is pure data-plane: no I/O, no simulation. `ib-sim` moves these
//! packets through a fabric; `ib-security` swaps the ICRC for a MAC tag.

pub(crate) mod bth;
pub(crate) mod error;
pub(crate) mod eth;
pub mod grh;
pub(crate) mod lrh;
pub mod mad;
pub(crate) mod opcode;
pub(crate) mod packet;
pub mod types;

pub use bth::Bth;
pub use error::ParseError;
pub use eth::{Aeth, AethKind, Deth, NakCode, Reth};
pub use grh::Grh;
pub use opcode::{OpCode, Operation, TransportService};
pub use packet::{Packet, PacketBuilder, WireView};
pub use types::{Lid, PKey, Psn, QKey, Qpn, RKey, VirtualLane};
