//! Simulation configuration — Table 1 plus the knobs each experiment
//! sweeps.

use ib_mgmt::enforcement::EnforcementKind;
use ib_runtime::{Json, Seed, ToJson};

use crate::dragonfly::Dragonfly;
use crate::fattree::FatTree;
use crate::fault::FaultConfig;
use crate::time::{SimTime, MS, NS, US};
use crate::topology::{MeshTopology, Topology};

/// Which fabric the simulation builds (see [`crate::topology`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpec {
    /// The paper's §3.1 mesh; side length comes from
    /// [`SimConfig::mesh_dim`].
    Mesh,
    /// k-ary fat-tree ([`crate::fattree::FatTree`]).
    FatTree { k: usize },
    /// Balanced dragonfly ([`crate::dragonfly::Dragonfly`]); `valiant`
    /// selects non-minimal routing.
    Dragonfly {
        a: usize,
        p: usize,
        h: usize,
        valiant: bool,
    },
}

impl TopoSpec {
    /// JSON form: `"mesh"`, `{"fat-tree": k}`, or
    /// `{"dragonfly": {"a":…,"p":…,"h":…,"valiant":…}}`.
    pub fn to_json(self) -> Json {
        match self {
            TopoSpec::Mesh => Json::Str("mesh".into()),
            TopoSpec::FatTree { k } => Json::obj([("fat-tree", k.to_json())]),
            TopoSpec::Dragonfly { a, p, h, valiant } => Json::obj([(
                "dragonfly",
                Json::obj([
                    ("a", a.to_json()),
                    ("p", p.to_json()),
                    ("h", h.to_json()),
                    ("valiant", valiant.to_json()),
                ]),
            )]),
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
    pub fn label(self) -> &'static str {
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
    /// Fixed-latency side channel (`trap_latency`), the common simulator
    /// simplification.
    OutOfBand,
    /// Real 256-byte MADs routed through the fabric on VL15 to the SM's
    /// node — trap delivery then contends with (and can be delayed by)
    /// data traffic, and the SM can itself be flooded (§7).
    InBand,
}

impl TrapTransport {
    /// Stable string form used in JSON configs and reports.
    pub fn label(self) -> &'static str {
        match self {
            TrapTransport::OutOfBand => "out-of-band",
            TrapTransport::InBand => "in-band",
        }
    }
}

/// How attack activity is scheduled over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackSchedule {
    /// Each `attack_epoch`, attackers are active with
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
    pub fn label(self) -> &'static str {
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
    pub fn to_json(self) -> Json {
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
    /// Partition-level key management: secrets pre-distributed by the SM,
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
    pub fn to_json(&self) -> Json {
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
    // ---- Table 1 ----
    /// Physical link bandwidth in Gb/s.
    pub link_gbps: f64,
    /// Ports per switch (4 mesh + 1 host).
    pub ports_per_switch: usize,
    /// Virtual lanes per physical link.
    pub num_vls: usize,
    /// MTU in bytes for both traffic classes.
    pub mtu_bytes: usize,

    // ---- fabric ----
    /// Which fabric to build (mesh / fat-tree / dragonfly).
    pub topology: TopoSpec,
    /// Mesh side length (mesh_dim² switches and nodes; 4 ⇒ the paper's 16).
    /// Only read when `topology` is [`TopoSpec::Mesh`].
    pub mesh_dim: usize,
    /// Input-buffer capacity per (port, VL), in packets; the credit pool.
    pub vl_buffer_packets: u32,
    /// Fixed switch pipeline latency per hop.
    pub switch_latency: SimTime,
    /// Wire propagation delay per link.
    pub propagation_delay: SimTime,
    /// One table-lookup pipeline cycle (the paper's CACTI-derived cost;
    /// charged per `lookup_cycles` the enforcer reports).
    pub cycle_time: SimTime,

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
    /// Length of one attack on/off epoch.
    pub attack_epoch: SimTime,
    /// Which switch-side enforcement runs.
    pub enforcement: EnforcementKind,
    /// HCA → SM trap delivery latency (MAD through the fabric + SM wakeup)
    /// when `trap_transport` is out-of-band.
    pub trap_latency: SimTime,
    /// Whether traps ride a fixed-latency side channel or real VL15 MADs.
    pub trap_transport: TrapTransport,
    /// Which node hosts the Subnet Manager (in-band trap destination).
    pub sm_node: usize,
    /// SM → switch filter-programming latency.
    pub program_latency: SimTime,
    /// SIF idle timeout before a port disables its own filtering.
    pub sif_idle_timeout: SimTime,

    // ---- authentication cost model ----
    /// Authentication mode for Figure 6.
    pub auth: AuthMode,
    /// Per-message MAC cycles charged at each end node (§6: one cycle).
    pub auth_cycles_per_message: u64,
    /// Round-trip estimate charged for a QP-level key exchange.
    pub key_exchange_rtt: SimTime,

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
            link_gbps: 2.5,
            ports_per_switch: 5,
            num_vls: 16,
            mtu_bytes: 1024,
            topology: TopoSpec::Mesh,
            mesh_dim: 4,
            vl_buffer_packets: 4,
            switch_latency: 100 * NS,
            propagation_delay: 10 * NS,
            cycle_time: 5 * NS,
            num_partitions: 4,
            num_attackers: 0,
            attack_keys: AttackKeys::RandomInvalid,
            attack_schedule: AttackSchedule::Probabilistic,
            arbitration: ArbitrationPolicy::StrictPriority,
            attack_probability: 1.0,
            attack_epoch: 100 * US,
            enforcement: EnforcementKind::NoFiltering,
            trap_latency: 5 * US,
            trap_transport: TrapTransport::OutOfBand,
            sm_node: 0,
            program_latency: 5 * US,
            sif_idle_timeout: 200 * US,
            auth: AuthMode::None,
            auth_cycles_per_message: 1,
            key_exchange_rtt: 40 * US,
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
            TopoSpec::Dragonfly { a, p, h, valiant } => Box::new(Dragonfly::new(a, p, h, valiant)),
        }
    }

    /// Number of end nodes (HCAs) in the configured fabric.
    pub fn num_nodes(&self) -> usize {
        match self.topology {
            TopoSpec::Mesh => self.mesh_dim * self.mesh_dim,
            TopoSpec::FatTree { k } => k * k * k / 4,
            TopoSpec::Dragonfly { a, p, h, .. } => (a * h + 1) * a * p,
        }
    }

    /// Mean packet inter-generation time for a given offered load fraction,
    /// in ps (MTU-sized packets).
    pub fn interarrival_ps(&self, load: f64) -> f64 {
        let tx = crate::time::tx_time_ps(self.mtu_bytes, self.link_gbps) as f64;
        tx / load.max(1e-9)
    }

    /// Serialize every field to a JSON object (stored alongside results so
    /// a report is reproducible from its own file). The `topology` key is
    /// omitted for the default mesh, keeping mesh result files (and their
    /// byte-identity gates) identical to the pre-topology-subsystem form.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj([
            ("link_gbps", self.link_gbps.to_json()),
            ("ports_per_switch", self.ports_per_switch.to_json()),
            ("num_vls", self.num_vls.to_json()),
            ("mtu_bytes", self.mtu_bytes.to_json()),
            ("topology", self.topology.to_json()),
            ("mesh_dim", self.mesh_dim.to_json()),
            ("vl_buffer_packets", self.vl_buffer_packets.to_json()),
            ("switch_latency", self.switch_latency.to_json()),
            ("propagation_delay", self.propagation_delay.to_json()),
            ("cycle_time", self.cycle_time.to_json()),
            ("num_partitions", self.num_partitions.to_json()),
            ("num_attackers", self.num_attackers.to_json()),
            ("attack_keys", self.attack_keys.label().to_json()),
            ("attack_schedule", self.attack_schedule.label().to_json()),
            ("arbitration", self.arbitration.to_json()),
            ("attack_probability", self.attack_probability.to_json()),
            ("attack_epoch", self.attack_epoch.to_json()),
            ("enforcement", self.enforcement.label().to_json()),
            ("trap_latency", self.trap_latency.to_json()),
            ("trap_transport", self.trap_transport.label().to_json()),
            ("sm_node", self.sm_node.to_json()),
            ("program_latency", self.program_latency.to_json()),
            ("sif_idle_timeout", self.sif_idle_timeout.to_json()),
            ("auth", self.auth.label().to_json()),
            (
                "auth_cycles_per_message",
                self.auth_cycles_per_message.to_json(),
            ),
            ("key_exchange_rtt", self.key_exchange_rtt.to_json()),
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
        assert_eq!(c.link_gbps, 2.5);
        assert_eq!(c.ports_per_switch, 5);
        assert_eq!(c.num_vls, 16);
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
        let fly = TopoSpec::Dragonfly {
            a: 4,
            p: 2,
            h: 2,
            valiant: true,
        };
        let fly = reparsed(&fly.to_json().to_string());
        let d = fly.get("dragonfly").expect("dragonfly object");
        assert_eq!(d.get("a").and_then(Json::as_u64), Some(4));
        assert_eq!(d.get("valiant").and_then(Json::as_bool), Some(true));

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
