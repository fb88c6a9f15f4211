//! # ib-security
//!
//! A from-scratch reproduction of *Security Enhancement in InfiniBand
//! Architecture* (Lee, Kim, Yousif — IPPS 2005): the ICRC-as-MAC
//! authentication scheme, the two key-management granularities, stateful
//! ingress filtering against P_Key-flood DoS, and every analytic model and
//! simulated experiment in the paper's evaluation.
//!
//! ## The idea in one paragraph
//!
//! Stock IBA "authenticates" packets by the mere presence of plaintext keys
//! (P_Key, Q_Key, R_Key…) that any on-path observer can copy. The paper
//! keeps the wire format bit-identical but reinterprets the 32-bit
//! Invariant CRC field as a **Message Authentication Code** whenever the
//! (variant, ICRC-masked) BTH `Resv8a` byte carries a non-zero algorithm
//! selector. Keys come from the Subnet Manager per partition (§4.2) or per
//! queue pair (§4.3). A 32-bit UMAC tag bounds forgery at 2⁻³⁰ while
//! running at multi-Gb/s — fast enough for the 2.5 Gb/s 1x links of the
//! evaluation (§5.2, Table 4).
//!
//! ## Crate layout
//!
//! * [`auth`] — sealing real [`ib_packet::Packet`]s and verifying received
//!   wire views, keyed from [`ib_mgmt::keymgmt`] tables, and the one
//!   admission rule every receiver applies: a receiver verifies under its
//!   own algorithm only, and takes selector 0 (plain ICRC) only where it
//!   requires no tag.
//! * [`replay`] — §7's nonce/sliding-window replay defense (PSN as nonce).
//! * [`channel`] — the admission rule + replay window composed into one
//!   receive path, reconciled with reliable-transport retransmission (the
//!   delivered-vs-lost duplicate distinction `ib-transport` builds on).
//! * [`ondemand`] — §5.1's per-partition / per-QP on-demand enablement:
//!   which scopes require a tag.
//! * [`fabric`] — an in-memory secure fabric tying SM, key distribution,
//!   sealing and the admission rule together; what the examples drive.
//! * [`analysis`] — the closed-form models: Table 2 (enforcement overhead)
//!   and Table 4 (MAC time & forgery complexity).
//! * [`experiments`] — configured parameter sweeps that regenerate
//!   Figures 1, 5 and 6 on the [`ib_sim`] testbed, parallelized across
//!   configurations with `ib_runtime::par` scoped threads.

pub mod analysis;
pub mod auth;
pub mod channel;
pub mod experiments;
pub mod fabric;
pub mod ondemand;
pub mod replay;

pub use auth::{AuthError, Authenticator, KeyScope};
pub use channel::{Admit, ChannelError, ChannelSecurity, SecureChannel};
pub use replay::{ReplayVerdict, ReplayWindow};
