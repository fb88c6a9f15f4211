//! Simulation configuration — Table 1 and the model's fixed delays as
//! constants, plus the knobs each experiment sweeps.

use ib_mgmt::enforcement::EnforcementKind;
use ib_runtime::{Json, Seed, ToJson};

use crate::fattree::FatTree;
use crate::fault::FaultConfig;
use crate::time::{SimTime, MS, NS, US};
use crate::topology::{MeshTopology, Topology};

// ---- Table 1 (the MTU is `SimConfig::mtu_bytes`) ----
/// Physical link bandwidth in Gb/s.
pub const LINK_GBPS: f64 = 2.5;
/// Ports per switch (4 mesh + 1 host).
pub const PORTS_PER_SWITCH: usize = 5;
/// Virtual lanes per physical link.
pub const NUM_VLS: usize = 16;

// ---- fabric ----
/// Input-buffer capacity per (port, VL), in packets; the credit pool.
pub(crate) const VL_BUFFER_PACKETS: u32 = 4;
/// Fixed switch pipeline latency per hop.
pub const SWITCH_LATENCY: SimTime = 100 * NS;
/// Wire propagation delay per link.
pub const PROPAGATION_DELAY: SimTime = 10 * NS;
/// One table-lookup pipeline cycle (the paper's CACTI-derived cost;
/// charged per `lookup_cycles` the enforcer reports).
pub(crate) const CYCLE_TIME: SimTime = 5 * NS;

// ---- partitioning / attack ----
/// Length of one attack on/off epoch.
pub(crate) const ATTACK_EPOCH: SimTime = 100 * US;
/// HCA → SM trap delivery latency (MAD through the fabric + SM wakeup)
/// when `trap_transport` is out-of-band.
pub(crate) const TRAP_LATENCY: SimTime = 5 * US;
/// Which node hosts the Subnet Manager (in-band trap destination).
pub(crate) const SM_NODE: usize = 0;
/// SM → switch filter-programming latency.
pub(crate) const PROGRAM_LATENCY: SimTime = 5 * US;
/// SIF idle timeout before a port disables its own filtering.
pub(crate) const SIF_IDLE_TIMEOUT: SimTime = 200 * US;

// ---- authentication cost model ----
/// Per-message MAC cycles charged at each end node (§6: one cycle).
pub(crate) const AUTH_CYCLES_PER_MESSAGE: u64 = 1;
/// Round-trip estimate charged for a QP-level key exchange.
pub(crate) const KEY_EXCHANGE_RTT: SimTime = 40 * US;

/// Which fabric the simulation builds (see [`crate::topology`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpec {
    /// The paper's §3.1 mesh; side length comes from
    /// [`SimConfig::mesh_dim`].
    Mesh,
    /// k-ary fat-tree ([`crate::fattree::FatTree`]).
    FatTree { k: usize },
}

impl TopoSpec {
    /// JSON form: `"mesh"` or `{"fat-tree": k}`.
    pub fn to_json(self) -> Json {
        match self {
            TopoSpec::Mesh => Json::Str("mesh".into()),
            TopoSpec::FatTree { k } => Json::obj([("fat-tree", k.to_json())]),
        }
    }
}

/// Which P_Keys the attackers stamp on their flood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKeys {
    /// Random invalid P_Keys (the §3 attack SIF defeats).
    RandomInvalid,
    /// The attacker's own *valid* partition key — §7's residual attack:
    /// "Dumping traffic only with a valid P_Key. Since this attack uses a
    /// valid P_Key, any ingress filtering is useless."
    Valid,
    /// §7's third residual attack: "DoS attack on the SM by dumping
    /// management messages and trap messages. Since a management packet
    /// can reach SM regardless of its partition…" — the flood rides VL15
    /// straight at the SM node.
    SmFlood,
}

impl AttackKeys {
    /// Stable string form used in JSON configs and reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AttackKeys::RandomInvalid => "random-invalid",
            AttackKeys::Valid => "valid",
            AttackKeys::SmFlood => "sm-flood",
        }
    }
}

/// How trap MADs travel from a detecting port to the Subnet Manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapTransport {
    /// Fixed-latency side channel (`TRAP_LATENCY`), the common simulator
    /// simplification.
    OutOfBand,
    /// Real 256-byte MADs routed through the fabric on VL15 to the SM's
    /// node — trap delivery then contends with (and can be delayed by)
    /// data traffic, and the SM can itself be flooded (§7).
    InBand,
}

impl TrapTransport {
    /// Stable string form used in JSON configs and reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            TrapTransport::OutOfBand => "out-of-band",
            TrapTransport::InBand => "in-band",
        }
    }
}

/// How attack activity is scheduled over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackSchedule {
    /// Each `ATTACK_EPOCH`, attackers are active with
    /// `attack_probability` (memoryless on/off).
    Probabilistic,
    /// Exactly one active window of `attack_probability × duration`,
    /// placed after warmup — every seed sees the same attack duty cycle,
    /// which is how §6's "probability of DoS attack \[set\] to 1 %" enters
    /// the time-averaged delays.
    DutyCycle,
}

impl AttackSchedule {
    /// Stable string form used in JSON configs and reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AttackSchedule::Probabilistic => "probabilistic",
            AttackSchedule::DutyCycle => "duty-cycle",
        }
    }
}

/// How output-port arbitration weighs the data VLs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbitrationPolicy {
    /// Realtime VL always wins (the isolation upper bound).
    StrictPriority,
    /// IBA-style weighted tables: up to `high_limit` consecutive
    /// high-priority grants before a pending low-priority packet is served.
    Weighted { high_limit: u32 },
}

impl ArbitrationPolicy {
    /// JSON form: `"strict-priority"` or `{"weighted": high_limit}`.
    pub(crate) fn to_json(self) -> Json {
        match self {
            ArbitrationPolicy::StrictPriority => Json::Str("strict-priority".into()),
            ArbitrationPolicy::Weighted { high_limit } => {
                Json::obj([("weighted", high_limit.to_json())])
            }
        }
    }
}

/// Which authentication cost model the end nodes run (§6, Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthMode {
    /// No authentication ("No Key").
    None,
    /// Key management per partition: secrets pre-distributed by the SM,
    /// so only the per-message MAC cycles are charged.
    PartitionLevel,
    /// QP-level key management: additionally one round-trip key exchange
    /// the first time a (source, destination) pair communicates.
    QpLevel,
}

impl AuthMode {
    /// Label for result tables (also the JSON form).
    pub fn label(self) -> &'static str {
        match self {
            AuthMode::None => "No Key",
            AuthMode::PartitionLevel => "With Key (partition)",
            AuthMode::QpLevel => "With Key (QP)",
        }
    }
}

/// Traffic generation parameters (§3.1 workloads).
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Realtime (CBR, higher-priority VL) offered load as a fraction of
    /// link bandwidth per node.
    pub realtime_load: f64,
    /// Best-effort (Poisson) offered load as a fraction of link bandwidth
    /// per node.
    pub best_effort_load: f64,
    /// Realtime back-off threshold: a realtime source skips its slot when
    /// its HCA send queue is at least this deep ("does not send any packet
    /// when the current network status cannot support the application's
    /// bandwidth requirement").
    pub realtime_backoff_queue: usize,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            realtime_load: 0.20,
            best_effort_load: 0.20,
            realtime_backoff_queue: 4,
        }
    }
}

impl TrafficConfig {
    /// JSON object form.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            ("realtime_load", self.realtime_load.to_json()),
            ("best_effort_load", self.best_effort_load.to_json()),
            (
                "realtime_backoff_queue",
                self.realtime_backoff_queue.to_json(),
            ),
        ])
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    // ---- Table 1 (the rest are the constants above) ----
    /// MTU in bytes for both traffic classes.
    pub mtu_bytes: usize,

    // ---- fabric ----
    /// Which fabric to build (mesh / fat-tree).
    pub topology: TopoSpec,
    /// Mesh side length (mesh_dim² switches and nodes; 4 ⇒ the paper's 16).
    /// Only read when `topology` is [`TopoSpec::Mesh`].
    pub mesh_dim: usize,

    // ---- partitioning / attack ----
    /// Number of partitions nodes are randomly grouped into (§3.1: four).
    pub num_partitions: usize,
    /// Number of attacker nodes (flooding at full speed, random
    /// destinations).
    pub num_attackers: usize,
    /// Which P_Keys the flood carries (invalid vs the §7 valid-key attack).
    pub attack_keys: AttackKeys,
    /// Probabilistic epochs or a deterministic duty-cycle window.
    pub attack_schedule: AttackSchedule,
    /// Output-port VL arbitration policy.
    pub arbitration: ArbitrationPolicy,
    /// Probability that any given attack epoch is active (§6: 1 %).
    pub attack_probability: f64,
    /// Which switch-side enforcement runs.
    pub enforcement: EnforcementKind,
    /// Whether traps ride a fixed-latency side channel or real VL15 MADs.
    pub trap_transport: TrapTransport,

    // ---- authentication cost model ----
    /// Authentication mode for Figure 6.
    pub auth: AuthMode,

    // ---- faults ----
    /// Per-link drop/corrupt/reorder probabilities (all-zero default keeps
    /// the fault layer fully disabled).
    pub fault: FaultConfig,

    // ---- run control ----
    /// Traffic profile.
    pub traffic: TrafficConfig,
    /// Simulated duration.
    pub duration: SimTime,
    /// Warm-up prefix excluded from statistics.
    pub warmup: SimTime,
    /// RNG seed (simulations are deterministic given a seed; printed in
    /// every experiment binary's header).
    pub seed: Seed,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mtu_bytes: 1024,
            topology: TopoSpec::Mesh,
            mesh_dim: 4,
            num_partitions: 4,
            num_attackers: 0,
            attack_keys: AttackKeys::RandomInvalid,
            attack_schedule: AttackSchedule::Probabilistic,
            arbitration: ArbitrationPolicy::StrictPriority,
            attack_probability: 1.0,
            enforcement: EnforcementKind::NoFiltering,
            trap_transport: TrapTransport::OutOfBand,
            auth: AuthMode::None,
            fault: FaultConfig::default(),
            traffic: TrafficConfig::default(),
            duration: 10 * MS,
            warmup: MS,
            seed: Seed(0x1BAD_5EED),
        }
    }
}

impl SimConfig {
    /// Build the configured fabric.
    pub fn build_topology(&self) -> Box<dyn Topology> {
        match self.topology {
            TopoSpec::Mesh => Box::new(MeshTopology::new(self.mesh_dim)),
            TopoSpec::FatTree { k } => Box::new(FatTree::new(k)),
        }
    }

    /// Number of end nodes (HCAs) in the configured fabric.
    pub fn num_nodes(&self) -> usize {
        match self.topology {
            TopoSpec::Mesh => self.mesh_dim * self.mesh_dim,
            TopoSpec::FatTree { k } => k * k * k / 4,
        }
    }

    /// Mean packet inter-generation time for a given offered load fraction,
    /// in ps (MTU-sized packets).
    pub(crate) fn interarrival_ps(&self, load: f64) -> f64 {
        let tx = crate::time::wire_time_ps(self.mtu_bytes) as f64;
        tx / load.max(1e-9)
    }

    /// Serialize every field, and every fixed value from the constants
    /// above, to a JSON object (stored alongside results so a report is
    /// reproducible from its own file). The `topology` key is
    /// omitted for the default mesh, keeping mesh result files (and their
    /// byte-identity gates) identical to the pre-topology-subsystem form.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj([
            ("link_gbps", LINK_GBPS.to_json()),
            ("ports_per_switch", PORTS_PER_SWITCH.to_json()),
            ("num_vls", NUM_VLS.to_json()),
            ("mtu_bytes", self.mtu_bytes.to_json()),
            ("topology", self.topology.to_json()),
            ("mesh_dim", self.mesh_dim.to_json()),
            ("vl_buffer_packets", VL_BUFFER_PACKETS.to_json()),
            ("switch_latency", SWITCH_LATENCY.to_json()),
            ("propagation_delay", PROPAGATION_DELAY.to_json()),
            ("cycle_time", CYCLE_TIME.to_json()),
            ("num_partitions", self.num_partitions.to_json()),
            ("num_attackers", self.num_attackers.to_json()),
            ("attack_keys", self.attack_keys.label().to_json()),
            ("attack_schedule", self.attack_schedule.label().to_json()),
            ("arbitration", self.arbitration.to_json()),
            ("attack_probability", self.attack_probability.to_json()),
            ("attack_epoch", ATTACK_EPOCH.to_json()),
            ("enforcement", self.enforcement.label().to_json()),
            ("trap_latency", TRAP_LATENCY.to_json()),
            ("trap_transport", self.trap_transport.label().to_json()),
            ("sm_node", SM_NODE.to_json()),
            ("program_latency", PROGRAM_LATENCY.to_json()),
            ("sif_idle_timeout", SIF_IDLE_TIMEOUT.to_json()),
            ("auth", self.auth.label().to_json()),
            ("auth_cycles_per_message", AUTH_CYCLES_PER_MESSAGE.to_json()),
            ("key_exchange_rtt", KEY_EXCHANGE_RTT.to_json()),
            ("fault", self.fault.to_json()),
            ("traffic", self.traffic.to_json()),
            ("duration", self.duration.to_json()),
            ("warmup", self.warmup.to_json()),
            ("seed", self.seed.0.to_json()),
        ]);
        if self.topology == TopoSpec::Mesh {
            if let Json::Obj(pairs) = &mut obj {
                pairs.retain(|(k, _)| k != "topology");
            }
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reparsed;

    #[test]
    fn default_matches_table1() {
        let c = SimConfig::default();
        assert_eq!(LINK_GBPS, 2.5);
        assert_eq!(PORTS_PER_SWITCH, 5);
        assert_eq!(NUM_VLS, 16);
        assert_eq!(c.mtu_bytes, 1024);
        assert_eq!(c.num_nodes(), 16);
        assert_eq!(c.num_partitions, 4);
    }

    #[test]
    fn interarrival_scales_inversely_with_load() {
        let c = SimConfig::default();
        let at_half = c.interarrival_ps(0.5);
        let at_full = c.interarrival_ps(1.0);
        assert!((at_half / at_full - 2.0).abs() < 1e-9);
        // Full load = back-to-back MTUs.
        assert!((at_full - 1024.0 * 3200.0).abs() < 1.0);
    }

    #[test]
    fn auth_labels() {
        assert_eq!(AuthMode::None.label(), "No Key");
        assert!(AuthMode::QpLevel.label().contains("QP"));
    }

    #[test]
    fn default_seed_is_fixed() {
        // Reproducibility: two default configs must be identical.
        assert_eq!(SimConfig::default().seed, SimConfig::default().seed);
    }

    #[test]
    fn enum_labels_round_trip() {
        let labels = [
            AttackKeys::RandomInvalid.label(),
            AttackKeys::Valid.label(),
            AttackKeys::SmFlood.label(),
            TrapTransport::OutOfBand.label(),
            TrapTransport::InBand.label(),
            AttackSchedule::Probabilistic.label(),
            AttackSchedule::DutyCycle.label(),
            AuthMode::None.label(),
            AuthMode::PartitionLevel.label(),
            AuthMode::QpLevel.label(),
        ];
        for (i, label) in labels.iter().enumerate() {
            let parsed = reparsed(&label.to_json().to_string());
            assert_eq!(parsed.as_str(), Some(*label));
            // A report names its variant by label alone, so no two may share one.
            assert!(!labels[..i].contains(label), "duplicate label {label}");
        }
    }

    #[test]
    fn arbitration_json_round_trip() {
        let strict = reparsed(&ArbitrationPolicy::StrictPriority.to_json().to_string());
        assert_eq!(strict.as_str(), Some("strict-priority"));
        let weighted = ArbitrationPolicy::Weighted { high_limit: 7 };
        let weighted = reparsed(&weighted.to_json().to_string());
        assert_eq!(weighted.get("weighted").and_then(Json::as_u64), Some(7));
    }

    /// Serialize a non-default config to JSON text and parse it back —
    /// including a seed above 2⁵³ that would corrupt under f64-only JSON
    /// numbers.
    #[test]
    fn sim_config_json_round_trip() {
        let mut cfg = SimConfig {
            num_attackers: 4,
            attack_keys: AttackKeys::Valid,
            attack_schedule: AttackSchedule::DutyCycle,
            arbitration: ArbitrationPolicy::Weighted { high_limit: 10 },
            enforcement: EnforcementKind::Sif,
            trap_transport: TrapTransport::InBand,
            auth: AuthMode::QpLevel,
            fault: FaultConfig::lossy(0.02, 50_000),
            seed: Seed(0xDEAD_BEEF_CAFE_F00D),
            ..SimConfig::default()
        };
        cfg.traffic.realtime_load = 0.55;

        let back = reparsed(&cfg.to_json().to_string());
        let str_at = |key: &str| back.get(key).and_then(Json::as_str);
        assert_eq!(
            back.get("seed").and_then(Json::as_u64),
            Some(0xDEAD_BEEF_CAFE_F00D)
        );
        assert_eq!(back.get("num_attackers").and_then(Json::as_u64), Some(4));
        assert_eq!(back.get("link_gbps").and_then(Json::as_f64), Some(2.5));
        assert_eq!(str_at("attack_keys"), Some("valid"));
        assert_eq!(str_at("attack_schedule"), Some("duty-cycle"));
        assert_eq!(str_at("enforcement"), Some("SIF"));
        assert_eq!(str_at("trap_transport"), Some("in-band"));
        assert_eq!(str_at("auth"), Some("With Key (QP)"));
        for (key, nested) in [
            ("arbitration", cfg.arbitration.to_json()),
            ("fault", cfg.fault.to_json()),
            ("traffic", cfg.traffic.to_json()),
        ] {
            assert_eq!(back.get(key), Some(&nested), "{key}");
        }
    }

    #[test]
    fn topo_spec_json_round_trip() {
        assert_eq!(
            reparsed(&TopoSpec::Mesh.to_json().to_string()).as_str(),
            Some("mesh")
        );
        let fat = reparsed(&TopoSpec::FatTree { k: 8 }.to_json().to_string());
        assert_eq!(fat.get("fat-tree").and_then(Json::as_u64), Some(8));

        // A non-mesh config carries its spec; node count follows the spec,
        // not mesh_dim.
        let cfg = SimConfig {
            topology: TopoSpec::FatTree { k: 4 },
            ..SimConfig::default()
        };
        assert_eq!(cfg.num_nodes(), 16);
        assert_eq!(cfg.build_topology().name(), "fat-tree");
        let back = reparsed(&cfg.to_json().to_string());
        assert_eq!(back.get("topology"), Some(&cfg.topology.to_json()));

        // The default mesh omits the key (the mesh goldens predate it).
        let mesh = reparsed(&SimConfig::default().to_json().to_string());
        assert!(mesh.get("topology").is_none());
    }
}
