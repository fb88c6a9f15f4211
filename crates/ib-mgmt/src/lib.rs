//! # ib-mgmt
//!
//! The InfiniBand management plane as the paper's defenses need it:
//!
//! * [`partition`] — partitions and per-port P_Key tables (IBA spec §10.9),
//!   including the P_Key Violation Counter HCAs keep.
//! * [`trap`] — the trap MAD a port raises toward the Subnet Manager on a
//!   P_Key violation (spec §14.2.5), the signal §3.3 of the paper uses to
//!   switch on Stateful Ingress Filtering at exactly the right moment.
//! * [`enforcement`] — the three switch-side partition-enforcement designs
//!   of §3.3: Duplicate Partition Tables (DPT), Ingress Filtering (IF), and
//!   the paper's Stateful Ingress Filtering (SIF) with its
//!   `Invalid_P_Key_Table` and Ingress P_Key Violation Counter.
//! * [`keys`] — the five IBA key classes and the Table 3 vulnerability
//!   matrix as machine-checkable metadata.
//! * [`keymgmt`] — §4's two authentication-key management schemes:
//!   partition-level (one secret per partition, distributed by the SM under
//!   each CA's public key) and QP-level (per-connection secrets, indexed by
//!   `(Q_Key, source QP)` exactly as Figure 3 shows).
//! * [`sm`] — a Subnet Manager that assigns LIDs, owns partition
//!   membership, receives traps, and programs switch filters.
//!
//! Everything here is pure protocol logic — `ib-sim` drives these state
//! machines inside the discrete-event simulation, and `ib-security` uses
//! the key tables for real MAC tagging.

pub mod enforcement;
pub mod keymgmt;
pub mod keys;
pub mod partition;
pub mod sm;
pub mod trap;

pub use keymgmt::{KeyEpoch, PartitionKeyManager, SecretKey};
pub use sm::SubnetManager;
