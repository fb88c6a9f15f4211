//! # ib-sim
//!
//! A packet-level discrete-event simulator of an InfiniBand fabric, built
//! to the paper's testbed description (§3.1, Table 1):
//!
//! * 16-node mesh of 5-port switches (4 mesh directions + 1 host port),
//!   one HCA per switch;
//! * 1x links at 2.5 Gbps, 1024-byte MTU;
//! * 16 virtual lanes per physical link with credit-based flow control —
//!   "the IBA network accepts a new packet only when there is available
//!   buffer", which is why DoS pressure shows up as *queuing time* at the
//!   source HCA rather than in-network latency;
//! * VL arbitration giving realtime traffic priority over best-effort;
//! * dimension-order routing (deadlock-free on the mesh);
//! * pluggable switch-side partition enforcement
//!   ([`ib_mgmt::enforcement`]: No-Filtering / DPT / IF / SIF) with
//!   table-lookup cycles charged to the switch pipeline, and the
//!   trap → SM → program-filter control loop modeled with latencies;
//! * traffic generators (§3.1): rate-limited realtime with back-off,
//!   Poisson best-effort, and full-speed DoS attackers using random
//!   invalid P_Keys;
//! * an authentication cost model (§6, Figure 6): per-message MAC cycles
//!   at the end nodes and a one-RTT key exchange per new QP pair under
//!   QP-level key management.
//!
//! The simulator measures what the paper measures: **queuing time** (HCA
//! wait before first byte hits the wire) and **network latency** (wire
//! entry to delivery), split by traffic class, with mean and standard
//! deviation.

pub(crate) mod arena;
pub mod config;
pub mod engine;
pub mod event;
pub(crate) mod fattree;
pub(crate) mod fault;
pub(crate) mod metrics;
pub(crate) mod parallel;
pub mod time;
pub mod topology;
pub(crate) mod traffic;

pub use config::{AttackKeys, SimConfig, TopoSpec};
pub use engine::{HostDelivery, SimReport, Simulator};
pub use fattree::FatTree;
pub use fault::FaultConfig;
pub use metrics::OnlineStats;
pub use parallel::ParSimulator;
pub use time::SimTime;
pub use topology::{flow_hash, MeshTopology, Partition, Peer, Topology};

/// What every `*_json_round_trip` test in this crate means by a round
/// trip: the emitted text parses, and the parsed value re-emits the same
/// text (configs and reports are write-only, so there is no reader to
/// compare against).
#[cfg(test)]
pub(crate) fn reparsed(text: &str) -> ib_runtime::Json {
    let parsed = ib_runtime::Json::parse(text).expect("emitted JSON parses");
    assert_eq!(parsed.to_string(), text, "writer/parser agree");
    parsed
}
