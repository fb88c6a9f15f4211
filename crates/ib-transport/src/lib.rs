//! # ib-transport
//!
//! An IBA Reliable Connection (RC) transport layered on the paper's
//! secure receive path, closing the loop the §7 replay defense opens:
//! a reliable transport *legitimately* retransmits packets under their
//! **original PSN** (IBA §9.7.5.1.1), so a genuine retransmit is
//! byte-identical — nonce, MAC tag and all — to an attacker's replay.
//! This crate builds the sender/receiver machinery that makes the
//! distinction operational:
//!
//! * `qp` — the RC queue-pair state machine: PSN assignment, a bounded
//!   in-flight window, cumulative ACKs with coalescing, NAK(PSN sequence
//!   error) triggering go-back-N, and retransmission on timeout with
//!   exponential back-off up to a retry-exhausted dead state.
//! * `endpoint` — [`endpoint::SecureRcEndpoint`] marries an
//!   `qp::RcQp` to an [`ib_security::SecureChannel`]: data packets are
//!   sealed (tagged) once per PSN so retransmits reproduce identical
//!   bytes, and inbound packets pass transport-order classification
//!   *before* the replay window so the window's bitmap stays strictly
//!   in delivery order.
//! * [`cosim`] — the one co-simulation driver: N flows of these
//!   endpoints attached to HCAs of a full [`ib_sim::Simulator`] fabric,
//!   so wire buffers ride real VL arbitration, credits, per-link faults
//!   and Figure-5 attack traffic; it owns the wake-set scheduling, the
//!   exactly-once ledger, the capture-and-re-inject attacker tap and the
//!   exit rule, and takes non-RC hosts (`ib-sm`'s key plane) through one
//!   small trait.
//! * `fabric` — `cosim` configured as one flow with a replay attacker
//!   at the destination HCA: the fig_rdma experiment (SEND / RDMA WRITE /
//!   RDMA READ under congestion and loss) and the fig_replay sweep
//!   (goodput, latency, retransmits and replays admitted per security
//!   arm).
//! * `config` — [`config::RcConfig`] knobs and their JSON form.
//!
//! The invariant that keeps retransmission and replay defense compatible:
//! the transport's in-flight window never exceeds the replay window
//! depth, so a retransmit of an undelivered PSN is always still
//! judgeable ([`ib_security::ReplayVerdict::Fresh`]) when it lands.

pub(crate) mod config;
pub mod cosim;
pub(crate) mod endpoint;
pub(crate) mod fabric;
pub(crate) mod qp;

pub use config::{RcConfig, RetransmitMode};
pub use cosim::RdmaOp;
pub use endpoint::{EndpointStats, SecureRcEndpoint};
pub use fabric::{run_fabric_sim, FabricReport, FabricSimConfig};
