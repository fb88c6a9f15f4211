//! Replicated subnet-manager key plane.
//!
//! The paper's §4.2 key-distribution story assumes a single subnet
//! manager that mints partition keys once at fabric bring-up. This crate
//! grows that into an operational key plane:
//!
//! * **Replica group** (`replica`) — 3–5 SM replicas living on real
//!   HCAs of the simulated mesh, exchanging heartbeat / leader-claim /
//!   key-replication MADs (management datagrams on VL 15 to QP0) through
//!   the same fabric the data plane uses. Leadership is a deterministic
//!   ranked election: the lowest-rank live replica claims the next term
//!   when the current leader's heartbeats stop.
//! * **Epoch rotation** — the leader periodically rotates the partition
//!   secret to the next [`ib_mgmt::KeyEpoch`], mirrors the new version to
//!   its follower replicas (sealed to each replica's public key), and
//!   lazily re-keys every member CA with `SM_KEY_UPDATE` MADs carrying a
//!   [`ib_mgmt::keymgmt::KeyEnvelope`]. Send sides switch epochs
//!   immediately; receive sides keep verifying the previous epoch for a
//!   configurable grace window (see `ib_security::SecureChannel`).
//! * **Disruption experiment** (`rekey`) — many concurrent RC flows
//!   ride the mesh while the key plane rotates underneath them and a
//!   fault injector kills the leader mid-rotation; the harness measures
//!   goodput dip, rejected packets by cause, and time-to-recover, and is
//!   bit-deterministic in the seed (the fig_rekey experiment).

pub(crate) mod rekey;
pub(crate) mod replica;
pub mod wire;

pub use rekey::{run_rekey_sim, RekeyConfig, RekeyReport};
pub use wire::SmMessage;
