//! The discrete-event simulation engine.
//!
//! The simulation state is sharded into **event domains** — one calendar
//! queue's worth of switches and HCAs per topology partition (fat-tree
//! pod, dragonfly group, mesh 2×2 tile; see [`Topology::partition`]).
//! Handlers (`Ctx`) mutate exactly one `Domain` and stage every
//! scheduled event into `Domain::out`; a *driver* routes those messages.
//! Two drivers share the core:
//!
//! * [`Simulator`] — the serial oracle: one merged event queue, events
//!   popped in global `(time, seq)` key order.
//! * [`crate::ParSimulator`] — conservative parallel execution: one queue
//!   per domain, synchronized in lookahead windows `[T, T+W)` where `W`
//!   is the minimum cross-domain latency (propagation delay, trap
//!   latency, filter-program latency) and `T` is the global minimum
//!   pending-event time. Any event a domain emits at `now` lands at
//!   `≥ now + W` when it crosses a domain boundary, so processing each
//!   window independently per domain is exact, not approximate.
//!
//! Determinism is engine-independent: every event carries an *intrinsic*
//! key `(time, origin_entity_id << 32 | per-origin seq)` and every RNG
//! draw comes from a per-node stream, so the two drivers produce
//! bit-identical reports at any thread count — the contract the
//! `ci.sh` byte-diff gates and `tests/parallel_equivalence.rs` enforce.
//!
//! ## Model summary
//!
//! * **HCA injection** — packets wait in per-VL send queues until the host
//!   link is idle *and* a credit for their VL is available at the switch's
//!   host port. The wait is the paper's *queuing time*.
//! * **Switches** — input-queued, per-(port, VL) buffers backed by credits;
//!   output ports arbitrate by VL priority (realtime over best-effort),
//!   round-robin across input ports; store-and-forward with a fixed
//!   pipeline latency plus any enforcement lookup cycles charged to the
//!   packet (this is how DPT's per-hop lookups show up as extra delay).
//! * **Enforcement** — each switch owns a [`PartitionEnforcer`]; drops
//!   release the buffer credit immediately.
//! * **Trap loop** — a destination HCA seeing an invalid P_Key bumps its
//!   violation counter and (rate-limited) raises a trap; after
//!   `trap_latency` the SM maps the violator to its edge switch and after
//!   `program_latency` the switch's SIF registers the key.
//! * **Authentication cost model** — `auth_cycles_per_message` is charged
//!   at both end nodes; QP-level mode additionally holds the *first* packet
//!   of each (src, dst) pair for `key_exchange_rtt` (the Q_Key/secret
//!   request round trip of §4.3).
//! * **Attack schedule** — precomputed at construction into half-open
//!   `[start, end)` windows from a dedicated seed stream; attacker
//!   `Generate` chains start at each window's opening and die at its
//!   close. No global toggle event exists, so domains never need to
//!   agree on shared mutable attack state.

use std::collections::{HashMap, VecDeque};

use ib_crypto::crc32_ieee;
use ib_runtime::{Json, Rng, ToJson};

use ib_mgmt::enforcement::{
    DptEnforcer, EnforcementKind, FilterCheck, FilterDecision, IfEnforcer, NoEnforcer,
    PartitionEnforcer, SifEnforcer,
};
use ib_mgmt::partition::{PartitionConfig, PartitionTable};
use ib_mgmt::sm::SubnetManager;
use ib_mgmt::trap::{Trap, TrapThrottle};
use ib_packet::types::PKey;

use crate::arena::{PacketArena, PacketRef};
use crate::config::{
    ArbitrationPolicy, AttackKeys, AttackSchedule, AuthMode, SimConfig, TrapTransport,
};
use crate::event::{Event, EventKey, EventQueue, SimPacket};
use crate::fault::{FaultInjector, FaultOutcome};
use crate::metrics::ClassStats;
use crate::time::{tx_time_ps, SimTime};
use crate::topology::{flow_hash, Partition, Peer, Topology};
use crate::traffic::{exp_gap, TrafficClass};

/// Seed-stream index for the attack-window schedule. Node streams use
/// indices `0..n` and `n ≤ 0xFFFE` (16-bit LIDs), so this never collides.
const ATTACK_WINDOW_STREAM: u64 = 0x0002_0000;

/// Per-switch runtime state. The per-(port, VL) tables are flat,
/// indexed `[port * num_vls + vl]`.
pub(crate) struct SwitchState {
    /// Input buffers, by input port and VL.
    in_q: Vec<VecDeque<QueuedPacket>>,
    /// Packets waiting in `in_q` (at any depth) for each *output* port,
    /// by the VL they wait on — arbitration skips every VL whose count is
    /// zero without touching an input queue.
    queued_for: Vec<u32>,
    /// When each output port finishes its current transmission.
    out_busy_until: Vec<SimTime>,
    /// Credits available toward the downstream peer, by output port and
    /// (post-dateline) VL.
    out_credits: Vec<u32>,
    /// Whether a TryForward event is already pending per output port.
    forward_pending: Vec<bool>,
    /// Round-robin cursor over input ports, per output port.
    rr: Vec<usize>,
    /// Consecutive high-priority grants per output port (weighted
    /// arbitration state).
    high_grants: Vec<u32>,
    /// The partition-enforcement engine this switch runs (`Send` so whole
    /// domains can migrate onto worker threads).
    enforcement: Box<dyn PartitionEnforcer + Send>,
    /// Per-origin event sequence counter (intrinsic-key tie-break).
    oseq: u32,
}

/// A packet in an input buffer, the output port it was routed to on
/// arrival, and the lookup cycles its admission cost (charged when the
/// output port serves it).
struct QueuedPacket {
    packet: PacketRef,
    out_port: u32,
    lookup_cycles: u64,
}

/// Per-HCA runtime state.
pub(crate) struct HcaState {
    /// Per-VL send queues (paired with each packet's earliest-ready time,
    /// which models the QP-level key-exchange hold).
    send_q: Vec<VecDeque<(PacketRef, SimTime)>>,
    tx_busy_until: SimTime,
    inject_pending: bool,
    /// Credits toward the attached switch's host port, per VL.
    credits: Vec<u32>,
    /// Receive-side partition table (always enforced, per spec).
    table: PartitionTable,
    throttle: TrapThrottle,
    /// (src → dst) pairs that have completed a QP-level key exchange.
    keyed_peers: Vec<bool>,
    /// Realtime generations skipped due to back-off.
    backoff_skips: u64,
    /// This node's private RNG stream (`seed.stream(node)`): jitter,
    /// inter-arrival gaps, peer choice, attack targeting. Node-local
    /// streams make every draw independent of cross-domain event order.
    rng: Rng,
    /// Per-origin event sequence counter (intrinsic-key tie-break).
    oseq: u32,
    /// Per-node packet-id counter; ids are `src << 32 | counter` so they
    /// are globally unique without any cross-domain coordination.
    next_pkt: u32,
}

/// Results of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    pub realtime: ClassStats,
    pub best_effort: ClassStats,
    pub attack: ClassStats,
    /// Management (VL15) MADs delivered, including traps and SM floods.
    pub mgmt_delivered: u64,
    /// Attack packets dropped by switch-side enforcement.
    pub filter_drops: u64,
    /// Attack packets that crossed the fabric and were blocked at the
    /// destination HCA (the stock-IBA outcome the paper criticizes).
    pub hca_blocked: u64,
    /// Traps delivered to the SM.
    pub traps: u64,
    /// Realtime generations suppressed by back-off.
    pub backoff_skips: u64,
    /// Total packets generated (all classes).
    pub generated: u64,
    /// Total enforcement lookup cycles spent (Table 2 cross-check).
    pub lookup_cycles: u64,
    /// Fraction of the configured duration the attack schedule was active.
    pub attack_active_fraction: f64,
    /// Packets the fault layer dropped on the wire.
    pub link_drops: u64,
    /// Packets the fault layer corrupted (discarded by the receiver's CRC).
    pub corrupt_drops: u64,
}

impl SimReport {
    /// Mean queuing time over both legitimate classes, µs.
    pub fn legit_queuing_mean(&self) -> f64 {
        let mut s = self.realtime.queuing.clone();
        s.merge(&self.best_effort.queuing);
        s.mean()
    }

    /// Mean network latency over both legitimate classes, µs.
    pub fn legit_network_mean(&self) -> f64 {
        let mut s = self.realtime.network.clone();
        s.merge(&self.best_effort.network);
        s.mean()
    }

    /// Std-dev of total (queuing is the dominant term) delay proxy: merged
    /// queuing standard deviation, µs (what the paper's §6 discussion of
    /// SIF variance refers to).
    pub fn legit_queuing_stddev(&self) -> f64 {
        let mut s = self.realtime.queuing.clone();
        s.merge(&self.best_effort.queuing);
        s.stddev()
    }

    /// Merge another report's accumulators into this one (domain-order
    /// merge of per-domain stats; `attack_active_fraction` is derived by
    /// the caller, not summed).
    pub fn merge(&mut self, other: &SimReport) {
        self.realtime.merge(&other.realtime);
        self.best_effort.merge(&other.best_effort);
        self.attack.merge(&other.attack);
        self.mgmt_delivered += other.mgmt_delivered;
        self.filter_drops += other.filter_drops;
        self.hca_blocked += other.hca_blocked;
        self.traps += other.traps;
        self.backoff_skips += other.backoff_skips;
        self.generated += other.generated;
        self.lookup_cycles += other.lookup_cycles;
        self.link_drops += other.link_drops;
        self.corrupt_drops += other.corrupt_drops;
    }

    /// JSON object form (for `BENCH_*.json`-style result files).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("realtime", self.realtime.to_json()),
            ("best_effort", self.best_effort.to_json()),
            ("attack", self.attack.to_json()),
            ("mgmt_delivered", self.mgmt_delivered.to_json()),
            ("filter_drops", self.filter_drops.to_json()),
            ("hca_blocked", self.hca_blocked.to_json()),
            ("traps", self.traps.to_json()),
            ("backoff_skips", self.backoff_skips.to_json()),
            ("generated", self.generated.to_json()),
            ("lookup_cycles", self.lookup_cycles.to_json()),
            (
                "attack_active_fraction",
                self.attack_active_fraction.to_json(),
            ),
            ("link_drops", self.link_drops.to_json()),
            ("corrupt_drops", self.corrupt_drops.to_json()),
        ])
    }
}

/// One finite transfer posted via [`Simulator::post_flow`]: segmented
/// into MTU packets that ride the best-effort VL through the full
/// packet-level machinery (credits, arbitration, enforcement). The flow
/// completes when its last packet is delivered — the packet engine's
/// ground-truth counterpart to `ib-flow`'s analytic completion times.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Transfer size in bytes (segmented into MTU-sized packets).
    pub bytes: u64,
    /// When the flow was posted at the source HCA.
    pub posted_at: SimTime,
    /// Delivery time of the flow's last packet; `None` while in flight
    /// (or forever, if a fault dropped one of its packets).
    pub completed_at: Option<SimTime>,
}

/// A host-injected packet delivered at its destination HCA: the wire
/// image posted via [`Simulator::post_host`], after per-hop delays, VL
/// arbitration, credit stalls and fault exposure. Corruption in transit
/// flips a byte in `bytes` rather than dropping the packet — the host
/// transport's own CRC/MAC verification is the judge, exactly as on a
/// real fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostDelivery {
    /// Fabric delivery time at the destination HCA.
    pub at: SimTime,
    /// Destination node index.
    pub node: usize,
    /// The (possibly fault-corrupted) wire image.
    pub bytes: Vec<u8>,
}

/// Deterministic stand-in wire image for a [`SimPacket`]: the covered
/// header fields, then an id-derived fill byte out to the wire size. The
/// abstract packet carries no real payload, so a reproducible image is
/// what lets the emitting HCA and the receiving HCA agree on the bytes
/// the ICRC protects without hauling `mtu_bytes` of state through the
/// event queue.
fn render_wire_image(out: &mut Vec<u8>, packet: &SimPacket) {
    out.clear();
    out.extend_from_slice(&packet.id.to_be_bytes());
    out.extend_from_slice(&(packet.src as u32).to_be_bytes());
    out.extend_from_slice(&(packet.dst as u32).to_be_bytes());
    out.extend_from_slice(&packet.pkey.0.to_be_bytes());
    out.push(packet.vl);
    let fill = (packet.id as u8) ^ (packet.id >> 8) as u8;
    let len = packet.bytes.max(out.len());
    out.resize(len, fill);
}

/// CRC-32 over the packet's rendered wire image (the dispatched kernel the
/// datapath runs — the emission cost the simulator actually pays, not an
/// abstraction of it). Computed once per packet at emission; the receive
/// side trusts the cached tag unless the fault layer touched the packet in
/// transit, since an untouched packet re-renders bit-identically by
/// construction.
fn wire_icrc(scratch: &mut Vec<u8>, packet: &SimPacket) -> u32 {
    render_wire_image(scratch, packet);
    crc32_ieee(scratch)
}

// --------------------------------------------------------------- sharded core

/// Immutable state every domain reads: config, topology, layout tables,
/// the partition/attacker assignment, the domain decomposition and the
/// precomputed attack schedule. Shared by reference across worker threads.
pub(crate) struct Shared {
    pub(crate) cfg: SimConfig,
    pub(crate) topo: Box<dyn Topology>,
    pub(crate) n_nodes: usize,
    pub(crate) n_switches: usize,
    pub(crate) radix: usize,
    /// node → its `(switch, port)` attachment.
    pub(crate) attach: Vec<(usize, usize)>,
    /// Flattened `[switch * radix + port]` — true where an HCA hangs off
    /// the port (the enforcement layer's edge/ingress distinction).
    pub(crate) is_host_port: Vec<bool>,
    /// Flattened `[switch * radix + port]` — true where the output link
    /// crosses the topology's deadlock dateline.
    pub(crate) is_dateline: Vec<bool>,
    pub(crate) attackers: Vec<usize>,
    /// Per-attacker invalid P_Key(s).
    pub(crate) attacker_pkey: Vec<PKey>,
    /// partition id → member nodes.
    pub(crate) partitions: Vec<Vec<usize>>,
    /// node → partition id.
    pub(crate) node_partition: Vec<usize>,
    pub(crate) mtu_tx: SimTime,
    pub(crate) auth_delay: SimTime,
    /// Number of event domains (the topology's *natural* partition —
    /// both engines always use it, so thread count never changes the
    /// decomposition or any result derived from it).
    pub(crate) num_domains: usize,
    pub(crate) dom_of_switch: Vec<usize>,
    pub(crate) dom_of_node: Vec<usize>,
    /// switch → index within its domain's `switches`.
    pub(crate) local_switch: Vec<u32>,
    /// node → index within its domain's `hcas`.
    pub(crate) local_node: Vec<u32>,
    /// The domain hosting the SM (the `sm_node`'s domain).
    pub(crate) sm_domain: usize,
    /// Conservative lookahead window `W`: every cross-domain emission is
    /// due at least `W` after the emitting domain's clock. `None` when a
    /// single domain exists (or `W` would be zero) — drivers then run a
    /// plain merge.
    pub(crate) lookahead: Option<SimTime>,
    /// Precomputed half-open attack windows, sorted and disjoint.
    pub(crate) attack_windows: Vec<(SimTime, SimTime)>,
    /// Directed-link index → index into its owning domain's fault
    /// injectors (empty when the fault layer is off). Global stream
    /// indices are preserved, so fault decisions are partition-invariant.
    pub(crate) fault_local: Vec<u32>,
}

impl Shared {
    /// Injector index for the output `port` of `switch` (HCA uplinks own
    /// indices `0..n_nodes`).
    fn switch_link(&self, switch: usize, port: usize) -> usize {
        self.n_nodes + switch * self.radix + port
    }
}

/// One event domain's mutable state: its switches and HCAs (dense local
/// indexing), its own packet arena, stats shard, and the staging buffer
/// handlers push scheduled events into.
pub(crate) struct Domain {
    pub(crate) idx: usize,
    /// This domain's clock: the time of the event currently being handled.
    pub(crate) now: SimTime,
    pub(crate) switches: Vec<SwitchState>,
    pub(crate) hcas: Vec<HcaState>,
    /// The subnet manager lives in exactly one domain (`sm_domain`).
    pub(crate) sm: Option<SubnetManager>,
    pub(crate) arena: PacketArena,
    /// Fault injectors owned by this domain (`None` ⇔ fault layer off).
    pub(crate) faults: Option<Vec<FaultInjector>>,
    pub(crate) stats: SimReport,
    wire_scratch: Vec<u8>,
    /// Events staged by handlers; the driver routes them (serial: one
    /// merged queue; parallel: own queue or a peer domain's mailbox).
    pub(crate) out: Vec<OutMsg>,
    /// Events handled in this domain.
    pub(crate) events: u64,
    /// SM-origin event sequence counter.
    sm_oseq: u32,
    /// flow id → packets still undelivered (registered at the
    /// *destination's* domain, where every packet of the flow terminates).
    flow_progress: HashMap<u32, usize>,
    /// Flows that completed here, with their delivery times; drivers
    /// drain this into [`FlowRecord::completed_at`].
    pub(crate) flow_done: Vec<(u32, SimTime)>,
    /// Host deliveries landed in this domain; the serial driver drains
    /// them into its global inbox.
    pub(crate) host_inbox: VecDeque<HostDelivery>,
}

/// A staged event: absolute due time, intrinsic tie-break key, target
/// domain. `ev` is already in cross-domain form (packet payload inlined)
/// when `target` differs from the staging domain.
pub(crate) struct OutMsg {
    pub(crate) target: usize,
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) ev: Event,
}

/// Who schedules an event — determines the intrinsic key's origin id
/// (`node`, `n_nodes + switch`, or `n_nodes + n_switches` for the SM).
#[derive(Clone, Copy)]
pub(crate) enum Origin {
    Node(usize),
    Switch(usize),
    Sm,
}

/// The domain an event must be handled in (the domain owning the entity
/// it mutates).
pub(crate) fn target_domain(sh: &Shared, ev: &Event) -> usize {
    match *ev {
        Event::Generate { node, .. }
        | Event::TryInject { node }
        | Event::HcaReceive { node, .. }
        | Event::HcaReceiveRemote { node, .. }
        | Event::HcaCredit { node, .. } => sh.dom_of_node[node],
        Event::SwitchArrive { switch, .. }
        | Event::SwitchArriveRemote { switch, .. }
        | Event::TryForward { switch, .. }
        | Event::SwitchCredit { switch, .. }
        | Event::FilterProgram { switch, .. } => sh.dom_of_switch[switch],
        Event::TrapDeliver { .. } => sh.sm_domain,
    }
}

/// Stage one event: compose its intrinsic key from the origin's counter,
/// convert packet-carrying events to their `*Remote` form when they cross
/// a domain boundary (releasing the packet from the source arena — the
/// target inserts it into *its* arena at handling time, keeping per-domain
/// arena high-water marks engine-independent), and push onto `dom.out`.
pub(crate) fn push_ev(sh: &Shared, dom: &mut Domain, origin: Origin, at: SimTime, ev: Event) {
    let seq = match origin {
        Origin::Node(node) => {
            let h = &mut dom.hcas[sh.local_node[node] as usize];
            h.oseq += 1;
            ((node as u64) << 32) | h.oseq as u64
        }
        Origin::Switch(s) => {
            let sw = &mut dom.switches[sh.local_switch[s] as usize];
            sw.oseq += 1;
            (((sh.n_nodes + s) as u64) << 32) | sw.oseq as u64
        }
        Origin::Sm => {
            dom.sm_oseq += 1;
            (((sh.n_nodes + sh.n_switches) as u64) << 32) | dom.sm_oseq as u64
        }
    };
    let target = target_domain(sh, &ev);
    let ev = if target == dom.idx {
        ev
    } else {
        debug_assert!(
            sh.lookahead.is_none_or(|w| at >= dom.now + w),
            "cross-domain event due inside the lookahead window"
        );
        match ev {
            Event::SwitchArrive {
                switch,
                port,
                packet,
            } => Event::SwitchArriveRemote {
                switch,
                port,
                packet: Box::new(dom.arena.release(packet)),
            },
            Event::HcaReceive { node, packet } => Event::HcaReceiveRemote {
                node,
                packet: Box::new(dom.arena.release(packet)),
            },
            other => other,
        }
    };
    dom.out.push(OutMsg {
        target,
        at,
        seq,
        ev,
    });
}

/// Whether the attack schedule is active at `t` (binary search over the
/// sorted, disjoint half-open windows).
pub(crate) fn attack_active(sh: &Shared, t: SimTime) -> bool {
    match sh.attack_windows.binary_search_by(|w| w.0.cmp(&t)) {
        Ok(_) => true,
        Err(i) => i > 0 && t < sh.attack_windows[i - 1].1,
    }
}

/// Precompute the attack schedule as sorted disjoint half-open windows.
/// `DutyCycle` is one closed-form window; `Probabilistic` rolls each
/// epoch on a dedicated seed stream and merges consecutive hits.
fn compute_attack_windows(cfg: &SimConfig) -> Vec<(SimTime, SimTime)> {
    match cfg.attack_schedule {
        AttackSchedule::DutyCycle => {
            let len = (cfg.attack_probability.clamp(0.0, 1.0) * cfg.duration as f64) as SimTime;
            if len == 0 {
                return Vec::new();
            }
            let start = (cfg.warmup * 2).min(cfg.duration.saturating_sub(len));
            vec![(start, start + len)]
        }
        AttackSchedule::Probabilistic => {
            let mut rng = cfg.seed.stream(ATTACK_WINDOW_STREAM).rng();
            let p = cfg.attack_probability.clamp(0.0, 1.0);
            let epoch = cfg.attack_epoch.max(1);
            let mut windows: Vec<(SimTime, SimTime)> = Vec::new();
            let mut t: SimTime = 0;
            while t <= cfg.duration {
                if rng.gen_bool(p) {
                    match windows.last_mut() {
                        Some(w) if w.1 == t => w.1 = t + epoch,
                        _ => windows.push((t, t + epoch)),
                    }
                }
                t += epoch;
            }
            windows
        }
    }
}

/// The engine-agnostic simulation core: immutable [`Shared`] state plus
/// one [`Domain`] per topology partition. Both drivers are thin loops
/// over this — the serial one merges every domain into a single queue,
/// the parallel one gives each domain its own and synchronizes on
/// lookahead windows.
pub(crate) struct SimCore {
    pub(crate) shared: Shared,
    pub(crate) domains: Vec<Domain>,
    pub(crate) flows: Vec<FlowRecord>,
}

impl SimCore {
    pub(crate) fn new(cfg: SimConfig) -> SimCore {
        let topo = cfg.build_topology();
        let n = topo.num_nodes();
        let n_sw = topo.num_switches();
        let radix = topo.radix();
        let attach: Vec<(usize, usize)> = (0..n).map(|node| topo.host_attachment(node)).collect();
        let mut is_host_port = vec![false; n_sw * radix];
        for &(s, p) in &attach {
            is_host_port[s * radix + p] = true;
        }
        let mut is_dateline = vec![false; n_sw * radix];
        for s in 0..n_sw {
            for p in 0..radix {
                is_dateline[s * radix + p] = topo.is_dateline(s, p);
            }
        }
        // The master RNG is construction-only (partition layout, attacker
        // placement, attacker keys); every runtime draw comes from a
        // per-node stream so results can't depend on event order.
        let mut rng = cfg.seed.rng();

        // ---- random partitioning into num_partitions groups ----
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let per = n.div_ceil(cfg.num_partitions.max(1));
        let mut partitions: Vec<Vec<usize>> = Vec::new();
        let mut node_partition = vec![0usize; n];
        for (pid, chunk) in order.chunks(per).enumerate() {
            for &node in chunk {
                node_partition[node] = pid;
            }
            partitions.push(chunk.to_vec());
        }
        let pkey_of = |pid: usize| PKey(0x8000 | (pid as u16 + 1));

        // ---- subnet manager ----
        let mut sm = SubnetManager::new(n, (cfg.seed ^ 0x5151).0);
        for (node, &(s, p)) in attach.iter().enumerate() {
            sm.attach(topo.lid_of(node), s, p);
        }
        for (pid, members) in partitions.iter().enumerate() {
            // Key distribution itself is exercised in ib-mgmt; the sim only
            // needs membership, so no public keys are registered here.
            let _ = sm.create_partition(PartitionConfig {
                pkey: pkey_of(pid),
                members: members.clone(),
            });
        }

        // ---- attackers: random distinct nodes ----
        let mut pool: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut pool);
        let attackers: Vec<usize> = pool.into_iter().take(cfg.num_attackers).collect();
        // Each attacker floods with one invalid key — invalid means no
        // legitimate partition uses it (base outside 1..=num_partitions).
        let attacker_pkey: Vec<PKey> = attackers
            .iter()
            .map(|_| PKey(0x8000 | rng.gen_range(0x100..0x7FFF)))
            .collect();

        // ---- event domains: the topology's NATURAL partition, always ----
        // Thread count only chooses how domains map onto workers; the
        // decomposition itself is fixed, so every derived quantity (event
        // keys, arena high-waters, stat merge order) is identical at any
        // parallelism — including 1.
        let part = Partition::of(&*topo, usize::MAX);
        let nd = part.num_domains;
        let dom_of_switch = part.domain_of;
        let mut local_switch = vec![0u32; n_sw];
        let mut sw_count = vec![0u32; nd];
        for s in 0..n_sw {
            let d = dom_of_switch[s];
            local_switch[s] = sw_count[d];
            sw_count[d] += 1;
        }
        let dom_of_node: Vec<usize> = (0..n).map(|node| dom_of_switch[attach[node].0]).collect();
        let mut local_node = vec![0u32; n];
        let mut node_count = vec![0u32; nd];
        for node in 0..n {
            let d = dom_of_node[node];
            local_node[node] = node_count[d];
            node_count[d] += 1;
        }
        let sm_domain = dom_of_node[cfg.sm_node];
        // Conservative lookahead: the smallest latency any cross-domain
        // event class can carry. Propagation bounds SwitchArrive and the
        // credit returns; the trap and program latencies bound the SM loop.
        let w = cfg
            .propagation_delay
            .min(cfg.trap_latency)
            .min(cfg.program_latency);
        let lookahead = if nd <= 1 || w == 0 { None } else { Some(w) };

        // ---- switches, grouped into their domains ----
        let all_pkeys: Vec<PKey> = (0..partitions.len()).map(pkey_of).collect();
        // Ingress filtering is configured per host port: each attachment
        // admits only its node's partition key.
        let mut if_ports: Vec<Vec<Option<Vec<PKey>>>> = vec![vec![None; radix]; n_sw];
        for (node, &(s, p)) in attach.iter().enumerate() {
            if_ports[s][p] = Some(vec![pkey_of(node_partition[node])]);
        }
        let mut dom_switches: Vec<Vec<SwitchState>> = (0..nd).map(|_| Vec::new()).collect();
        for (s, ports) in if_ports.iter_mut().enumerate() {
            let ports = std::mem::take(ports);
            let enforcement: Box<dyn PartitionEnforcer + Send> = match cfg.enforcement {
                EnforcementKind::NoFiltering => Box::new(NoEnforcer),
                EnforcementKind::Dpt => Box::new(DptEnforcer::new(all_pkeys.iter().copied())),
                EnforcementKind::If => Box::new(IfEnforcer::new(ports)),
                EnforcementKind::Sif => Box::new(SifEnforcer::new(
                    radix,
                    cfg.sif_idle_timeout,
                    // Cap the invalid table at a small multiple of the host
                    // partition table (paper: stop growing once it would
                    // exceed the partition table; with 1 membership we allow
                    // a few entries so multi-key attackers are still caught).
                    8,
                )),
            };
            dom_switches[dom_of_switch[s]].push(SwitchState {
                in_q: (0..radix * cfg.num_vls).map(|_| VecDeque::new()).collect(),
                queued_for: vec![0; radix * cfg.num_vls],
                out_busy_until: vec![0; radix],
                out_credits: vec![cfg.vl_buffer_packets; radix * cfg.num_vls],
                forward_pending: vec![false; radix],
                rr: vec![0; radix],
                high_grants: vec![0; radix],
                enforcement,
                oseq: 0,
            });
        }

        // ---- HCAs, grouped into their attachment switch's domain ----
        let mut dom_hcas: Vec<Vec<HcaState>> = (0..nd).map(|_| Vec::new()).collect();
        for node in 0..n {
            dom_hcas[dom_of_node[node]].push(HcaState {
                send_q: (0..cfg.num_vls).map(|_| VecDeque::new()).collect(),
                tx_busy_until: 0,
                inject_pending: false,
                credits: vec![cfg.vl_buffer_packets; cfg.num_vls],
                table: PartitionTable::from_keys([pkey_of(node_partition[node])]),
                throttle: TrapThrottle::new(50 * crate::time::US),
                keyed_peers: vec![false; n],
                backoff_skips: 0,
                rng: cfg.seed.stream(node as u64).rng(),
                oseq: 0,
                next_pkt: 0,
            });
        }

        let mtu_tx = tx_time_ps(cfg.mtu_bytes, cfg.link_gbps);
        let auth_delay = match cfg.auth {
            AuthMode::None => 0,
            _ => cfg.auth_cycles_per_message * cfg.cycle_time,
        };
        // Each directed link keeps its *global* seed stream regardless of
        // which domain owns it, so fault decisions are partition-invariant.
        let mut fault_local = Vec::new();
        let mut dom_faults: Vec<Vec<FaultInjector>> = (0..nd).map(|_| Vec::new()).collect();
        let faults_active = cfg.fault.is_active();
        if faults_active {
            let fseed = cfg.seed ^ 0xFA17_FA17;
            let links = n + n_sw * radix;
            fault_local = vec![0u32; links];
            for i in 0..links {
                let d = if i < n {
                    dom_of_node[i]
                } else {
                    dom_of_switch[(i - n) / radix]
                };
                fault_local[i] = dom_faults[d].len() as u32;
                dom_faults[d].push(FaultInjector::new(cfg.fault, fseed.stream(i as u64)));
            }
        }

        let attack_windows = if attackers.is_empty() {
            Vec::new()
        } else {
            compute_attack_windows(&cfg)
        };

        let shared = Shared {
            topo,
            n_nodes: n,
            n_switches: n_sw,
            radix,
            attach,
            is_host_port,
            is_dateline,
            attackers,
            attacker_pkey,
            partitions,
            node_partition,
            mtu_tx,
            auth_delay,
            num_domains: nd,
            dom_of_switch,
            dom_of_node,
            local_switch,
            local_node,
            sm_domain,
            lookahead,
            attack_windows,
            fault_local,
            cfg,
        };
        let mut sm_opt = Some(sm);
        let domains: Vec<Domain> = dom_switches
            .into_iter()
            .zip(dom_hcas)
            .zip(dom_faults)
            .enumerate()
            .map(|(d, ((switches, hcas), faults))| Domain {
                idx: d,
                now: 0,
                switches,
                hcas,
                sm: if d == sm_domain { sm_opt.take() } else { None },
                arena: PacketArena::new(),
                faults: faults_active.then_some(faults),
                stats: SimReport::default(),
                wire_scratch: Vec::new(),
                out: Vec::new(),
                events: 0,
                sm_oseq: 0,
                flow_progress: HashMap::new(),
                flow_done: Vec::new(),
                host_inbox: VecDeque::new(),
            })
            .collect();
        let mut core = SimCore {
            shared,
            domains,
            flows: Vec::new(),
        };
        core.prime();
        core
    }

    /// Schedule the initial traffic and the attack-window openers. The
    /// staged events stay in each domain's `out` buffer for the driver to
    /// route into its queue structure.
    fn prime(&mut self) {
        let sh = &self.shared;
        for node in 0..sh.n_nodes {
            if sh.attackers.contains(&node) {
                continue; // attacker nodes send only attack traffic (§3.1)
            }
            let dom = &mut self.domains[sh.dom_of_node[node]];
            let ln = sh.local_node[node] as usize;
            if sh.cfg.traffic.realtime_load > 0.0 {
                let gap = sh.cfg.interarrival_ps(sh.cfg.traffic.realtime_load) as SimTime;
                let jitter = dom.hcas[ln].rng.gen_range(0..gap.max(1));
                push_ev(
                    sh,
                    dom,
                    Origin::Node(node),
                    jitter,
                    Event::Generate {
                        node,
                        class: TrafficClass::Realtime,
                    },
                );
            }
            if sh.cfg.traffic.best_effort_load > 0.0 {
                let mean = sh.cfg.interarrival_ps(sh.cfg.traffic.best_effort_load);
                let gap = exp_gap(&mut dom.hcas[ln].rng, mean);
                push_ev(
                    sh,
                    dom,
                    Origin::Node(node),
                    gap,
                    Event::Generate {
                        node,
                        class: TrafficClass::BestEffort,
                    },
                );
            }
        }
        // One opener per attacker per window; the per-MTU Generate chain
        // each opener starts dies at the window's close.
        for &(start, _) in &sh.attack_windows {
            for &a in &sh.attackers {
                let dom = &mut self.domains[sh.dom_of_node[a]];
                push_ev(
                    sh,
                    dom,
                    Origin::Node(a),
                    start,
                    Event::Generate {
                        node: a,
                        class: TrafficClass::Attack,
                    },
                );
            }
        }
    }

    /// Merge every domain's report shard (fixed domain order, so the
    /// closed-form Welford combines are deterministic) and fill in the
    /// derived whole-run fields.
    pub(crate) fn merged_report(&self) -> SimReport {
        let mut report = SimReport::default();
        for dom in &self.domains {
            report.merge(&dom.stats);
        }
        report.backoff_skips = self
            .domains
            .iter()
            .flat_map(|d| d.hcas.iter())
            .map(|h| h.backoff_skips)
            .sum();
        report.attack_active_fraction = if self.shared.cfg.duration > 0 {
            let active: SimTime = self
                .shared
                .attack_windows
                .iter()
                .map(|&(s, e)| e.min(self.shared.cfg.duration).saturating_sub(s))
                .sum();
            active as f64 / self.shared.cfg.duration as f64
        } else {
            0.0
        };
        report
    }

    /// Events handled across all domains.
    pub(crate) fn events_processed(&self) -> u64 {
        self.domains.iter().map(|d| d.events).sum()
    }

    /// Sum of the per-domain arena high-water marks (deterministic: the
    /// deferred-insertion rule keeps every domain's arena history
    /// identical under both drivers).
    pub(crate) fn peak_packets(&self) -> usize {
        self.domains.iter().map(|d| d.arena.capacity()).sum()
    }

    /// Queue a host wire image at `src`'s HCA (see [`Simulator::post_host`]).
    pub(crate) fn post_host_at(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        vl: u8,
        bytes: Vec<u8>,
    ) {
        let sh = &self.shared;
        let dom = &mut self.domains[sh.dom_of_node[src]];
        let ln = sh.local_node[src] as usize;
        let hca = &mut dom.hcas[ln];
        hca.next_pkt += 1;
        let id = ((src as u64) << 32) | hca.next_pkt as u64;
        dom.stats.generated += 1;
        let pkey = PKey(0x8000 | (sh.node_partition[src] as u16 + 1));
        let class = if vl == 15 {
            TrafficClass::Management
        } else {
            TrafficClass::BestEffort
        };
        let packet = SimPacket {
            id,
            src,
            dst,
            class,
            pkey,
            vl,
            bytes: bytes.len(),
            gen_time: now,
            inject_time: 0,
            trap: None,
            icrc: 0,
            corrupted: false,
            wire: Some(bytes),
            flow: None,
        };
        let qvl = vl as usize;
        let pref = dom.arena.insert(packet);
        dom.hcas[ln].send_q[qvl].push_back((pref, now));
        Ctx { sh, dom }.schedule_inject(src, now);
    }

    /// Queue a finite transfer (see [`Simulator::post_flow`]). The flow's
    /// outstanding-packet count registers in the *destination's* domain —
    /// where every packet of the flow terminates — before any packet is
    /// created, so same-domain flows can't race their own completion.
    pub(crate) fn post_flow_at(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> usize {
        let sh = &self.shared;
        assert!(src < sh.n_nodes && dst < sh.n_nodes && src != dst);
        let flow = self.flows.len() as u32;
        let mtu = sh.cfg.mtu_bytes as u64;
        let npkts = bytes.div_ceil(mtu).max(1) as usize;
        let pkey = PKey(0x8000 | (sh.node_partition[src] as u16 + 1));
        self.domains[sh.dom_of_node[dst]]
            .flow_progress
            .insert(flow, npkts);
        let dom = &mut self.domains[sh.dom_of_node[src]];
        let ln = sh.local_node[src] as usize;
        let qvl = TrafficClass::BestEffort.vl() as usize;
        let mut left = bytes;
        for _ in 0..npkts {
            let size = left.min(mtu).max(1) as usize;
            left = left.saturating_sub(mtu);
            let hca = &mut dom.hcas[ln];
            hca.next_pkt += 1;
            let id = ((src as u64) << 32) | hca.next_pkt as u64;
            dom.stats.generated += 1;
            let mut packet = SimPacket {
                id,
                src,
                dst,
                class: TrafficClass::BestEffort,
                pkey,
                vl: TrafficClass::BestEffort.vl(),
                bytes: size,
                gen_time: now,
                inject_time: 0,
                trap: None,
                icrc: 0,
                corrupted: false,
                wire: None,
                flow: Some(flow),
            };
            if dom.faults.is_some() {
                packet.icrc = wire_icrc(&mut dom.wire_scratch, &packet);
            }
            let pref = dom.arena.insert(packet);
            dom.hcas[ln].send_q[qvl].push_back((pref, now));
        }
        Ctx { sh, dom }.schedule_inject(src, now);
        self.flows.push(FlowRecord {
            src,
            dst,
            bytes,
            posted_at: now,
            completed_at: None,
        });
        flow as usize
    }

    /// The switch-state conservation laws, checked by both drivers in
    /// debug/test builds once a run has drained its queue (no credit event
    /// is then in flight): every `queued_for` count equals a recount of the
    /// input queues, and each link's sender-side credits plus the
    /// receiving input queue's occupancy equal `vl_buffer_packets`.
    pub(crate) fn assert_quiescent(&self) {
        let sh = &self.shared;
        let nvls = sh.cfg.num_vls;
        let full = sh.cfg.vl_buffer_packets as usize;
        let switch =
            |s: usize| &self.domains[sh.dom_of_switch[s]].switches[sh.local_switch[s] as usize];
        for s in 0..sh.n_switches {
            let sw = switch(s);
            let mut recount = vec![0u32; sw.queued_for.len()];
            for (i, q) in sw.in_q.iter().enumerate() {
                for qp in q {
                    recount[qp.out_port as usize * nvls + i % nvls] += 1;
                }
            }
            assert_eq!(
                sw.queued_for, recount,
                "switch {s}: occupancy counts drifted"
            );
            for port in 0..sh.radix {
                let Peer::Switch {
                    switch: next,
                    port: next_port,
                } = sh.topo.peer(s, port)
                else {
                    continue;
                };
                for vl in 0..nvls {
                    assert_eq!(
                        sw.out_credits[port * nvls + vl] as usize
                            + switch(next).in_q[next_port * nvls + vl].len(),
                        full,
                        "switch {s} port {port} VL {vl}: credits leaked or duplicated"
                    );
                }
            }
        }
        for (node, &(s, port)) in sh.attach.iter().enumerate() {
            let hca = &self.domains[sh.dom_of_node[node]].hcas[sh.local_node[node] as usize];
            for vl in 0..nvls {
                assert_eq!(
                    hca.credits[vl] as usize + switch(s).in_q[port * nvls + vl].len(),
                    full,
                    "node {node} VL {vl}: host-link credits leaked or duplicated"
                );
            }
        }
    }

    /// Drain every domain's completion log into the flow records (the
    /// parallel driver calls this once after the run; the serial driver
    /// drains incrementally and finds nothing left here).
    pub(crate) fn finalize_flows(&mut self) {
        let flows = &mut self.flows;
        for dom in &mut self.domains {
            for (f, at) in dom.flow_done.drain(..) {
                flows[f as usize].completed_at = Some(at);
            }
        }
    }
}

/// A handler's view: the shared tables plus exactly one domain. Every
/// event mutates only its target domain; anything bound for another
/// domain goes through [`push_ev`] and stays staged until the driver
/// routes it.
pub(crate) struct Ctx<'a> {
    pub(crate) sh: &'a Shared,
    pub(crate) dom: &'a mut Domain,
}

impl Ctx<'_> {
    fn push(&mut self, origin: Origin, at: SimTime, ev: Event) {
        push_ev(self.sh, self.dom, origin, at, ev);
    }

    /// Fate of one packet crossing directed link `link` (clean delivery
    /// when the fault layer is disabled).
    fn link_fault(&mut self, link: usize) -> FaultOutcome {
        match &mut self.dom.faults {
            Some(inj) => inj[self.sh.fault_local[link] as usize].decide(),
            None => FaultOutcome::Deliver {
                corrupt: false,
                extra_delay_ps: 0,
            },
        }
    }

    /// The output port the topology routes the referenced packet to at
    /// `switch`, derived afresh — the grant-time cross-check of the port
    /// `on_switch_arrive` stored with the queued packet.
    fn route_of(&self, switch: usize, pref: PacketRef) -> usize {
        let p = self.dom.arena.get(pref);
        self.sh
            .topo
            .route_flow(switch, p.dst, flow_hash(p.src, p.dst))
    }

    fn class_stats(&mut self, class: TrafficClass) -> &mut ClassStats {
        match class {
            TrafficClass::Realtime => &mut self.dom.stats.realtime,
            // Management shares the attack bucket for drop accounting; its
            // deliveries are tracked separately in `mgmt_delivered`.
            TrafficClass::BestEffort => &mut self.dom.stats.best_effort,
            TrafficClass::Attack | TrafficClass::Management => &mut self.dom.stats.attack,
        }
    }

    pub(crate) fn handle(&mut self, ev: Event) {
        match ev {
            Event::Generate { node, class } => self.on_generate(node, class),
            Event::TryInject { node } => self.on_try_inject(node),
            Event::SwitchArrive {
                switch,
                port,
                packet,
            } => self.on_switch_arrive(switch, port, packet),
            Event::SwitchArriveRemote {
                switch,
                port,
                packet,
            } => {
                // A packet handed over from another domain: it enters this
                // domain's arena at the same instant it would have entered
                // a global one, so high-water marks stay engine-independent.
                let pref = self.dom.arena.insert(*packet);
                self.on_switch_arrive(switch, port, pref);
            }
            Event::TryForward { switch, port } => self.on_try_forward(switch, port),
            Event::HcaReceive { node, packet } => self.on_hca_receive(node, packet),
            Event::HcaReceiveRemote { node, packet } => {
                let pref = self.dom.arena.insert(*packet);
                self.on_hca_receive(node, pref);
            }
            Event::SwitchCredit { switch, port, vl } => {
                let ls = self.sh.local_switch[switch] as usize;
                self.dom.switches[ls].out_credits[port * self.sh.cfg.num_vls + vl as usize] += 1;
                let now = self.dom.now;
                self.schedule_forward(switch, port, now);
            }
            Event::HcaCredit { node, vl } => {
                let ln = self.sh.local_node[node] as usize;
                self.dom.hcas[ln].credits[vl as usize] += 1;
                let now = self.dom.now;
                self.schedule_inject(node, now);
            }
            Event::TrapDeliver { trap } => self.on_trap_deliver(trap),
            Event::FilterProgram { switch, port, pkey } => {
                let ls = self.sh.local_switch[switch] as usize;
                let now = self.dom.now;
                self.dom.switches[ls]
                    .enforcement
                    .register_invalid(now, port, pkey);
            }
        }
    }

    fn on_trap_deliver(&mut self, trap: Trap) {
        self.dom.stats.traps += 1;
        let sm = self
            .dom
            .sm
            .as_mut()
            .expect("TrapDeliver routed to the SM's domain");
        if let Some(action) = sm.handle_trap(&trap) {
            let at = self.dom.now + self.sh.cfg.program_latency;
            self.push(
                Origin::Sm,
                at,
                Event::FilterProgram {
                    switch: action.switch,
                    port: action.port,
                    pkey: action.pkey,
                },
            );
        }
    }

    // ---------------------------------------------------------------- traffic

    fn on_generate(&mut self, node: usize, class: TrafficClass) {
        let sh = self.sh;
        let now = self.dom.now;
        let ln = sh.local_node[node] as usize;
        match class {
            // Management traffic is event-driven (traps), never a source.
            TrafficClass::Management => {}
            TrafficClass::Realtime => {
                let gap = sh.cfg.interarrival_ps(sh.cfg.traffic.realtime_load) as SimTime;
                if now + gap <= sh.cfg.duration {
                    self.push(
                        Origin::Node(node),
                        now + gap,
                        Event::Generate { node, class },
                    );
                }
                // Back-off: a realtime source checks network headroom via
                // its local queue depth before emitting.
                let vl = class.vl() as usize;
                if self.dom.hcas[ln].send_q[vl].len() >= sh.cfg.traffic.realtime_backoff_queue {
                    self.dom.hcas[ln].backoff_skips += 1;
                    return;
                }
                if let Some(dst) = self.pick_partition_peer(node) {
                    self.emit(node, dst, class);
                }
            }
            TrafficClass::BestEffort => {
                let mean = sh.cfg.interarrival_ps(sh.cfg.traffic.best_effort_load);
                let gap = exp_gap(&mut self.dom.hcas[ln].rng, mean);
                if now + gap <= sh.cfg.duration {
                    self.push(
                        Origin::Node(node),
                        now + gap,
                        Event::Generate { node, class },
                    );
                }
                if let Some(dst) = self.pick_partition_peer(node) {
                    self.emit(node, dst, class);
                }
            }
            TrafficClass::Attack => {
                if !attack_active(sh, now) || now > sh.cfg.duration {
                    return; // the window closed: the chain stops
                }
                // Full speed: next generation exactly one MTU time later.
                self.push(
                    Origin::Node(node),
                    now + sh.mtu_tx,
                    Event::Generate { node, class },
                );
                // Bound the attacker's own backlog so an over-driven source
                // doesn't consume unbounded memory (its queue depth is not a
                // measured quantity).
                let backlog: usize = self.dom.hcas[ln].send_q.iter().map(VecDeque::len).sum();
                if backlog >= 32 {
                    return;
                }
                match sh.cfg.attack_keys {
                    AttackKeys::RandomInvalid => {
                        let n = sh.n_nodes;
                        let mut dst = self.dom.hcas[ln].rng.gen_range(0..n);
                        if dst == node {
                            dst = (dst + 1) % n;
                        }
                        let idx = sh.attackers.iter().position(|a| *a == node).unwrap_or(0);
                        let pkey = sh.attacker_pkey[idx];
                        self.emit_with_pkey(node, dst, class, pkey);
                    }
                    // §7's residual attack: flood *within the attacker's own
                    // partition* with its valid key — every check passes, so
                    // "any ingress filtering is useless".
                    AttackKeys::Valid => {
                        if let Some(dst) = self.pick_partition_peer(node) {
                            let pkey = PKey(0x8000 | (sh.node_partition[node] as u16 + 1));
                            self.emit_with_pkey(node, dst, class, pkey);
                        }
                    }
                    // §7's SM DoS: dump MAD-sized management packets at the
                    // SM node on VL15 — they cross every partition check.
                    AttackKeys::SmFlood => {
                        let dst = sh.cfg.sm_node;
                        if dst != node {
                            self.emit_management(node, dst, TrafficClass::Attack, None);
                        }
                    }
                }
            }
        }
    }

    fn pick_partition_peer(&mut self, node: usize) -> Option<usize> {
        let sh = self.sh;
        let members = &sh.partitions[sh.node_partition[node]];
        // Peers exclude only self: victims don't know which partition
        // members are compromised, so attacker nodes still *receive*
        // legitimate traffic (they just don't send any, per §3.1).
        let candidates: Vec<usize> = members.iter().copied().filter(|m| *m != node).collect();
        if candidates.is_empty() {
            None
        } else {
            let rng = &mut self.dom.hcas[sh.local_node[node] as usize].rng;
            Some(candidates[rng.gen_range(0..candidates.len())])
        }
    }

    fn emit(&mut self, src: usize, dst: usize, class: TrafficClass) {
        let pkey = PKey(0x8000 | (self.sh.node_partition[src] as u16 + 1));
        self.emit_with_pkey(src, dst, class, pkey);
    }

    fn emit_with_pkey(&mut self, src: usize, dst: usize, class: TrafficClass, pkey: PKey) {
        let sh = self.sh;
        let now = self.dom.now;
        let ln = sh.local_node[src] as usize;
        let hca = &mut self.dom.hcas[ln];
        hca.next_pkt += 1;
        let id = ((src as u64) << 32) | hca.next_pkt as u64;
        // Attackers spray across both data VLs ("dump tremendous traffic")
        // so realtime and best-effort both feel the flood; legitimate
        // traffic stays on its class VL.
        let vl = if class == TrafficClass::Attack {
            hca.rng.gen_range(0..2)
        } else {
            class.vl()
        };
        self.dom.stats.generated += 1;
        let mut packet = SimPacket {
            id,
            src,
            dst,
            class,
            pkey,
            vl,
            bytes: sh.cfg.mtu_bytes,
            gen_time: now,
            inject_time: 0,
            trap: None,
            icrc: 0,
            corrupted: false,
            wire: None,
            flow: None,
        };
        // Emission-time ICRC — only consulted when the fault layer can
        // corrupt packets in transit, so fault-free runs skip it.
        if self.dom.faults.is_some() {
            packet.icrc = wire_icrc(&mut self.dom.wire_scratch, &packet);
        }
        // QP-level key management: first contact with a peer pays one RTT
        // before the packet may leave (§4.3 / Figure 6).
        let keyed = &mut self.dom.hcas[ln].keyed_peers;
        let ready =
            if sh.cfg.auth == AuthMode::QpLevel && class != TrafficClass::Attack && !keyed[dst] {
                keyed[dst] = true;
                now + sh.cfg.key_exchange_rtt
            } else {
                now
            };
        let qvl = packet.vl as usize;
        let pref = self.dom.arena.insert(packet);
        self.dom.hcas[ln].send_q[qvl].push_back((pref, ready));
        self.schedule_inject(src, ready);
    }

    /// Emit a 256-byte MAD (+ headers) on VL15. `class` distinguishes
    /// legitimate management traffic from an SM flood; `trap` carries the
    /// notice for in-band trap delivery.
    fn emit_management(&mut self, src: usize, dst: usize, class: TrafficClass, trap: Option<Trap>) {
        let now = self.dom.now;
        let ln = self.sh.local_node[src] as usize;
        let hca = &mut self.dom.hcas[ln];
        hca.next_pkt += 1;
        let id = ((src as u64) << 32) | hca.next_pkt as u64;
        self.dom.stats.generated += 1;
        let mut packet = SimPacket {
            id,
            src,
            dst,
            class,
            pkey: PKey::DEFAULT,
            vl: 15,
            // MAD payload + LRH/BTH/DETH + ICRC/VCRC.
            bytes: ib_packet::mad::MAD_LEN + 8 + 12 + 8 + 6,
            gen_time: now,
            inject_time: 0,
            trap,
            icrc: 0,
            corrupted: false,
            wire: None,
            flow: None,
        };
        if self.dom.faults.is_some() {
            packet.icrc = wire_icrc(&mut self.dom.wire_scratch, &packet);
        }
        let pref = self.dom.arena.insert(packet);
        self.dom.hcas[ln].send_q[15].push_back((pref, now));
        self.schedule_inject(src, now);
    }

    // ---------------------------------------------------------------- HCA TX

    fn schedule_inject(&mut self, node: usize, at: SimTime) {
        let ln = self.sh.local_node[node] as usize;
        if !self.dom.hcas[ln].inject_pending {
            self.dom.hcas[ln].inject_pending = true;
            let at = at.max(self.dom.now);
            self.push(Origin::Node(node), at, Event::TryInject { node });
        }
    }

    fn on_try_inject(&mut self, node: usize) {
        let sh = self.sh;
        let now = self.dom.now;
        let ln = sh.local_node[node] as usize;
        self.dom.hcas[ln].inject_pending = false;
        if now < self.dom.hcas[ln].tx_busy_until {
            let at = self.dom.hcas[ln].tx_busy_until;
            self.schedule_inject(node, at);
            return;
        }
        // VL priority: scan data VLs from highest to lowest.
        let mut chosen: Option<usize> = None;
        let mut earliest_block: Option<SimTime> = None;
        for vl in (0..sh.cfg.num_vls).rev() {
            let Some(&(_, ready)) = self.dom.hcas[ln].send_q[vl].front() else {
                continue;
            };
            if ready > now {
                earliest_block = Some(earliest_block.map_or(ready, |e: SimTime| e.min(ready)));
                continue;
            }
            if self.dom.hcas[ln].credits[vl] == 0 {
                continue; // blocked on credits; a credit event will retry
            }
            chosen = Some(vl);
            break;
        }
        let Some(vl) = chosen else {
            if let Some(at) = earliest_block {
                self.schedule_inject(node, at);
            }
            return;
        };
        let (pref, _) = self.dom.hcas[ln].send_q[vl].pop_front().unwrap();
        self.dom.hcas[ln].credits[vl] -= 1;
        // MAC generation occupies the sender before the first byte (§6:
        // "one additional stage at each end node per message").
        let start = now + sh.auth_delay;
        let (bytes, class, pvl) = {
            let packet = self.dom.arena.get_mut(pref);
            packet.inject_time = start;
            (packet.bytes, packet.class, packet.vl)
        };
        let tx_end = start + tx_time_ps(bytes, sh.cfg.link_gbps);
        self.dom.hcas[ln].tx_busy_until = tx_end;
        let arrival = tx_end + sh.cfg.propagation_delay;
        match self.link_fault(node) {
            FaultOutcome::Drop => {
                // The switch never sees the packet, so it can't return the
                // buffer credit — model the slot as freeing on arrival.
                self.dom.stats.link_drops += 1;
                self.class_stats(class).dropped += 1;
                self.dom.arena.release(pref);
                self.push(
                    Origin::Node(node),
                    arrival,
                    Event::HcaCredit { node, vl: pvl },
                );
            }
            FaultOutcome::Deliver {
                corrupt,
                extra_delay_ps,
            } => {
                self.dom.arena.get_mut(pref).corrupted |= corrupt;
                let (att_sw, att_port) = sh.attach[node];
                self.push(
                    Origin::Node(node),
                    arrival + extra_delay_ps,
                    Event::SwitchArrive {
                        switch: att_sw,
                        port: att_port,
                        packet: pref,
                    },
                );
            }
        }
        // Re-evaluate once the link frees.
        self.schedule_inject(node, tx_end);
    }

    // ------------------------------------------------------------- switching

    fn on_switch_arrive(&mut self, switch: usize, port: usize, pref: PacketRef) {
        let sh = self.sh;
        let now = self.dom.now;
        let ls = sh.local_switch[switch] as usize;
        let (pvl, src, dst, pkey, class) = {
            let packet = self.dom.arena.get(pref);
            (packet.vl, packet.src, packet.dst, packet.pkey, packet.class)
        };
        let is_edge = sh.is_host_port[switch * sh.radix + port];
        // Management packets cross partition enforcement unchecked — "a
        // management packet can reach SM regardless of its partition" (§7),
        // which is precisely what makes the SM-flood attack possible.
        let check = if pvl == 15 {
            FilterCheck {
                decision: FilterDecision::Pass,
                lookup_cycles: 0,
            }
        } else {
            self.dom.switches[ls]
                .enforcement
                .check(now, port, is_edge, sh.topo.lid_of(src), pkey)
        };
        self.dom.stats.lookup_cycles += check.lookup_cycles;
        if check.decision == FilterDecision::Drop {
            self.dom.stats.filter_drops += 1;
            self.class_stats(class).dropped += 1;
            self.dom.arena.release(pref);
            self.return_credit(switch, port, pvl);
            return;
        }
        let vl = pvl as usize;
        let nvls = sh.cfg.num_vls;
        // Routed once, here: the flow hash keeps every packet of a
        // (src, dst) flow on one path while distinct flows spread across
        // the fabric's path diversity.
        let out_port = sh.topo.route_flow(switch, dst, flow_hash(src, dst));
        let sw = &mut self.dom.switches[ls];
        sw.in_q[port * nvls + vl].push_back(QueuedPacket {
            packet: pref,
            out_port: out_port as u32,
            lookup_cycles: check.lookup_cycles,
        });
        sw.queued_for[out_port * nvls + vl] += 1;
        self.schedule_forward(switch, out_port, now + sh.cfg.switch_latency);
    }

    fn schedule_forward(&mut self, switch: usize, port: usize, at: SimTime) {
        let ls = self.sh.local_switch[switch] as usize;
        if !self.dom.switches[ls].forward_pending[port] {
            self.dom.switches[ls].forward_pending[port] = true;
            let at = at.max(self.dom.now);
            self.push(
                Origin::Switch(switch),
                at,
                Event::TryForward { switch, port },
            );
        }
    }

    fn on_try_forward(&mut self, switch: usize, out_port: usize) {
        let sh = self.sh;
        let now = self.dom.now;
        let ls = sh.local_switch[switch] as usize;
        self.dom.switches[ls].forward_pending[out_port] = false;
        if now < self.dom.switches[ls].out_busy_until[out_port] {
            let at = self.dom.switches[ls].out_busy_until[out_port];
            self.schedule_forward(switch, out_port, at);
            return;
        }
        let peer = sh.topo.peer(switch, out_port);
        // Crossing the topology's dateline escalates data packets to the
        // next VL — the per-(port, VL) buffers double as the virtual
        // channels that break credit-deadlock cycles (dragonfly global
        // links; a no-op on mesh and fat-tree). VL15 management never
        // escalates.
        let dateline = sh.is_dateline[switch * sh.radix + out_port];
        let out_vl = move |vl: usize| if dateline && vl < 8 { vl + 1 } else { vl };
        // Arbitrate: find the best candidate per VL (round-robin over input
        // ports within a VL), then apply the VL arbitration policy.
        let nports = sh.radix;
        let nvls = sh.cfg.num_vls;
        let sw = &self.dom.switches[ls];
        let mut best_high: Option<(usize, usize)> = None; // highest VL > 0
        let mut best_low: Option<(usize, usize)> = None; // VL 0
        for vl in (0..nvls).rev() {
            if vl > 0 && best_high.is_some() {
                continue;
            }
            // No packet on this VL was routed here, at any queue depth.
            if sw.queued_for[out_port * nvls + vl] == 0 {
                continue;
            }
            // Credit check applies to switch-to-switch hops; HCA receive
            // buffers are modeled as ample (the HCA drains at line rate).
            if let Peer::Switch { .. } = peer {
                if sw.out_credits[out_port * nvls + out_vl(vl)] == 0 {
                    continue;
                }
            }
            // A counted packet may still sit behind a head bound elsewhere,
            // so the heads decide.
            let start = sw.rr[out_port];
            let winner = (0..nports).map(|k| (start + k) % nports).find(|&in_port| {
                sw.in_q[in_port * nvls + vl]
                    .front()
                    .is_some_and(|head| head.out_port as usize == out_port)
            });
            if let Some(in_port) = winner {
                if vl > 0 {
                    best_high = Some((in_port, vl));
                } else {
                    best_low = Some((in_port, vl));
                }
            }
        }
        let selected = match (sh.cfg.arbitration, best_high, best_low) {
            (_, None, low) => low,
            (ArbitrationPolicy::StrictPriority, high, _) => high,
            (ArbitrationPolicy::Weighted { high_limit }, high, low) => {
                // IBA-style weighted tables: after `high_limit` consecutive
                // high-priority grants, a pending low-priority packet gets
                // one slot (prevents total starvation of VL0).
                if self.dom.switches[ls].high_grants[out_port] >= high_limit && low.is_some() {
                    low
                } else {
                    high
                }
            }
        };
        let Some((in_port, vl)) = selected else {
            return;
        };
        if vl > 0 {
            self.dom.switches[ls].high_grants[out_port] += 1;
        } else {
            self.dom.switches[ls].high_grants[out_port] = 0;
        }
        self.dom.switches[ls].rr[out_port] = (in_port + 1) % nports;
        let sw = &mut self.dom.switches[ls];
        let qp = sw.in_q[in_port * nvls + vl].pop_front().unwrap();
        sw.queued_for[out_port * nvls + vl] -= 1;
        let pref = qp.packet;
        debug_assert_eq!(
            qp.out_port as usize,
            self.route_of(switch, pref),
            "route stored at arrival diverged from the topology's"
        );
        let (bytes, class) = {
            let packet = self.dom.arena.get(pref);
            (packet.bytes, packet.class)
        };
        // Service time: enforcement lookups + store-and-forward transmit.
        let service = qp.lookup_cycles * sh.cfg.cycle_time + tx_time_ps(bytes, sh.cfg.link_gbps);
        let tx_end = now + service;
        self.dom.switches[ls].out_busy_until[out_port] = tx_end;
        match peer {
            Peer::Switch {
                switch: next,
                port: next_port,
            } => {
                // The downstream buffer class is the (possibly escalated)
                // VL: credits, the arrival queue, and the credit-return on
                // a wire drop must all agree on it.
                let fvl = out_vl(vl);
                self.dom.switches[ls].out_credits[out_port * nvls + fvl] -= 1;
                let arrival = tx_end + sh.cfg.propagation_delay;
                match self.link_fault(sh.switch_link(switch, out_port)) {
                    FaultOutcome::Drop => {
                        // Downstream never sees the packet; its buffer slot
                        // credit comes back as if freed on arrival.
                        self.dom.stats.link_drops += 1;
                        self.class_stats(class).dropped += 1;
                        self.dom.arena.release(pref);
                        self.push(
                            Origin::Switch(switch),
                            arrival,
                            Event::SwitchCredit {
                                switch,
                                port: out_port,
                                vl: fvl as u8,
                            },
                        );
                    }
                    FaultOutcome::Deliver {
                        corrupt,
                        extra_delay_ps,
                    } => {
                        let packet = self.dom.arena.get_mut(pref);
                        packet.corrupted |= corrupt;
                        packet.vl = fvl as u8;
                        self.push(
                            Origin::Switch(switch),
                            arrival + extra_delay_ps,
                            Event::SwitchArrive {
                                switch: next,
                                port: next_port,
                                packet: pref,
                            },
                        );
                    }
                }
            }
            Peer::Hca { node } => {
                let arrival = tx_end + sh.cfg.propagation_delay;
                match self.link_fault(sh.switch_link(switch, out_port)) {
                    FaultOutcome::Drop => {
                        self.dom.stats.link_drops += 1;
                        self.class_stats(class).dropped += 1;
                        self.dom.arena.release(pref);
                    }
                    FaultOutcome::Deliver {
                        corrupt,
                        extra_delay_ps,
                    } => {
                        self.dom.arena.get_mut(pref).corrupted |= corrupt;
                        self.push(
                            Origin::Switch(switch),
                            arrival + extra_delay_ps,
                            Event::HcaReceive { node, packet: pref },
                        );
                    }
                }
            }
            Peer::None => unreachable!("routing never selects an edge port"),
        }
        // The input buffer slot frees now: return a credit upstream.
        self.return_credit(switch, in_port, vl as u8);
        // The queue we popped from has a new head that may want a
        // *different* output port — wake that port, or packets behind a
        // departed head would wait for an unrelated arrival (HOL stall).
        let next_out = self.dom.switches[ls].in_q[in_port * nvls + vl]
            .front()
            .map(|next| next.out_port as usize);
        if let Some(next_out) = next_out {
            if next_out != out_port {
                self.schedule_forward(switch, next_out, now);
            }
        }
        // The port may have more work the instant it frees.
        self.schedule_forward(switch, out_port, tx_end);
    }

    /// Return one credit to whatever feeds `(switch, in_port)`.
    fn return_credit(&mut self, switch: usize, in_port: usize, vl: u8) {
        let at = self.dom.now + self.sh.cfg.propagation_delay;
        match self.sh.topo.peer(switch, in_port) {
            Peer::Hca { node } => {
                self.push(Origin::Switch(switch), at, Event::HcaCredit { node, vl })
            }
            Peer::Switch {
                switch: up,
                port: up_port,
            } => self.push(
                Origin::Switch(switch),
                at,
                Event::SwitchCredit {
                    switch: up,
                    port: up_port,
                    vl,
                },
            ),
            Peer::None => {}
        }
    }

    // ------------------------------------------------------------- receiving

    fn on_hca_receive(&mut self, node: usize, pref: PacketRef) {
        let sh = self.sh;
        let now = self.dom.now;
        let ln = sh.local_node[node] as usize;
        // Host-injected packets skip the abstract receive path entirely:
        // the wire image goes back to the host, with transit corruption
        // applied as a byte flip (mirroring the point-to-point harness),
        // for the host transport's own VCRC/MAC verification to judge.
        if self.dom.arena.get(pref).wire.is_some() {
            let packet = self.dom.arena.release(pref);
            let mut bytes = packet.wire.unwrap();
            if packet.corrupted && !bytes.is_empty() {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF;
            }
            if packet.vl == 15 {
                self.dom.stats.mgmt_delivered += 1;
            }
            self.dom.host_inbox.push_back(HostDelivery {
                at: now,
                node,
                bytes,
            });
            return;
        }
        // CRC check before anything else looks at the packet (VCRC/ICRC
        // precede all header processing). Untouched packets re-render
        // bit-identically by construction, so their cached emission-time
        // ICRC is authoritative and verification is skipped; only packets
        // the fault layer flipped in transit get the full re-render —
        // with the transit bit flip — recompute, and compare against the
        // CRC stamped at emission.
        if self.dom.arena.get(pref).corrupted {
            let dom = &mut *self.dom;
            render_wire_image(&mut dom.wire_scratch, dom.arena.get(pref));
            let mid = dom.wire_scratch.len() / 2;
            dom.wire_scratch[mid] ^= 0xFF;
            if crc32_ieee(&dom.wire_scratch) != dom.arena.get(pref).icrc {
                self.dom.stats.corrupt_drops += 1;
                let class = self.dom.arena.release(pref).class;
                self.class_stats(class).dropped += 1;
                return;
            }
        }
        // The HCA is the packet's terminal point on every path below:
        // take it out of the arena and recycle the slot.
        let packet = self.dom.arena.release(pref);
        // Management datagrams: no partition check, no data statistics.
        if packet.vl == 15 {
            self.dom.stats.mgmt_delivered += 1;
            if node == sh.cfg.sm_node {
                if let Some(trap) = packet.trap {
                    // In-band trap reached the SM: same handling as the
                    // out-of-band TrapDeliver path (the SM node's domain is
                    // the SM's domain, so this stays local).
                    self.on_trap_deliver(trap);
                }
                // Trap-less VL15 packets at the SM are the §7 flood: they
                // consumed fabric + SM capacity and are dropped here.
            }
            return;
        }
        // MAC verification stage at the receiver.
        let delivered_at = now + sh.auth_delay;
        let (ok, _) = self.dom.hcas[ln].table.check(packet.pkey);
        if !ok {
            self.dom.stats.hca_blocked += 1;
            // Receive-side P_Key violation: maybe raise a trap (§3.3).
            let reporter = sh.topo.lid_of(node);
            let violator = sh.topo.lid_of(packet.src);
            if let Some(trap) =
                self.dom.hcas[ln]
                    .throttle
                    .offer(now, reporter, packet.pkey, violator)
            {
                match sh.cfg.trap_transport {
                    TrapTransport::OutOfBand => {
                        self.push(
                            Origin::Node(node),
                            now + sh.cfg.trap_latency,
                            Event::TrapDeliver { trap },
                        );
                    }
                    TrapTransport::InBand => {
                        let sm = sh.cfg.sm_node;
                        if sm == node {
                            self.on_trap_deliver(trap);
                        } else {
                            self.emit_management(node, sm, TrafficClass::Management, Some(trap));
                        }
                    }
                }
            }
            return;
        }
        if packet.class == TrafficClass::Attack {
            // Valid-key floods land here; count them, keep them out of the
            // legitimate-traffic statistics.
            self.dom.stats.attack.delivered += 1;
            return;
        }
        if let Some(flow) = packet.flow {
            let remaining = self
                .dom
                .flow_progress
                .get_mut(&flow)
                .expect("flow registered in the destination's domain");
            *remaining -= 1;
            if *remaining == 0 {
                self.dom.flow_progress.remove(&flow);
                self.dom.flow_done.push((flow, delivered_at));
            }
        }
        if packet.gen_time >= sh.cfg.warmup {
            let queuing = packet.inject_time - packet.gen_time;
            let network = delivered_at - packet.inject_time;
            self.class_stats(packet.class).record(queuing, network);
        }
    }
}

// ------------------------------------------------------------ serial driver

/// The serial driver — the parallel engine's correctness oracle. One
/// merged [`EventQueue`]; events pop in global `(time, seq)` order and
/// dispatch into their target domain's `Ctx`.
pub struct Simulator {
    core: SimCore,
    queue: EventQueue,
    now: SimTime,
    /// Events popped past a `run_hosts_until` horizon, kept in key order.
    held: VecDeque<(EventKey, Event)>,
    host_inbox: VecDeque<HostDelivery>,
}

impl Simulator {
    /// Build the simulation: topology, partition layout, attackers, SM,
    /// and the initial event population.
    pub fn new(cfg: SimConfig) -> Simulator {
        let core = SimCore::new(cfg);
        let mut sim = Simulator {
            core,
            queue: EventQueue::new(),
            now: 0,
            held: VecDeque::new(),
            host_inbox: VecDeque::new(),
        };
        sim.drain_staged();
        sim
    }

    /// Move every staged event (from construction or a `post_*` call)
    /// into the merged queue.
    fn drain_staged(&mut self) {
        let queue = &mut self.queue;
        for dom in &mut self.core.domains {
            for m in dom.out.drain(..) {
                queue.push_keyed(m.at, m.seq, m.ev);
            }
        }
    }

    /// Handle one event in its target domain, then route whatever it
    /// staged back into the merged queue and surface completions.
    fn dispatch(&mut self, key: EventKey, ev: Event) {
        debug_assert!(key.time >= self.now, "time went backwards");
        self.now = key.time;
        let d = target_domain(&self.core.shared, &ev);
        let core = &mut self.core;
        let dom = &mut core.domains[d];
        dom.now = key.time;
        dom.events += 1;
        Ctx {
            sh: &core.shared,
            dom,
        }
        .handle(ev);
        for m in dom.out.drain(..) {
            self.queue.push_keyed(m.at, m.seq, m.ev);
        }
        for (f, at) in dom.flow_done.drain(..) {
            core.flows[f as usize].completed_at = Some(at);
        }
        self.host_inbox.append(&mut dom.host_inbox);
    }

    /// Next event in global key order, merging the queue with the held
    /// buffer (events popped past a previous `run_hosts_until` limit).
    /// Keys are unique, so the merge is a strict total order.
    fn pop_next(&mut self) -> Option<(EventKey, Event)> {
        let popped = self.queue.pop_keyed();
        let held_first = match (self.held.front(), &popped) {
            (Some((hk, _)), Some((pk, _))) => hk < pk,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !held_first {
            return popped;
        }
        if let Some((pk, pev)) = popped {
            let pos = self
                .held
                .iter()
                .position(|(hk, _)| *hk > pk)
                .unwrap_or(self.held.len());
            self.held.insert(pos, (pk, pev));
        }
        self.held.pop_front()
    }

    /// Run to completion and return the report.
    pub fn run(self) -> SimReport {
        self.run_counted().0
    }

    /// Run to completion, also returning the number of events processed
    /// (the `sim_engine` bench divides by wall-clock for events/sec).
    pub fn run_counted(mut self) -> (SimReport, u64) {
        while let Some((key, ev)) = self.pop_next() {
            self.dispatch(key, ev);
        }
        if cfg!(debug_assertions) {
            self.core.assert_quiescent();
        }
        (self.core.merged_report(), self.core.events_processed())
    }

    // ------------------------------------------------------------- host hook

    /// Inject a real wire image at the HCA of `src`, addressed to `dst`'s
    /// HCA on virtual lane `vl`. The packet competes with the simulator's
    /// own traffic for the host link, credits and VL arbitration, crosses
    /// the mesh hop by hop, and is exposed to the fault layer like any
    /// other packet: a link drop counts in `link_drops` (and the
    /// best-effort class drops), corruption flips a byte and the delivery
    /// still happens — the host transport's CRC/MAC decides its fate.
    /// No abstract-path ICRC is rendered and no receive-side P_Key check
    /// runs; the bytes themselves carry those protections.
    ///
    /// Posting on VL 15 marks the packet [`TrafficClass::Management`] —
    /// the subnet-management lane MADs ride on. VL arbitration scans
    /// lanes highest-first, so management datagrams (heartbeats, election
    /// claims, key updates) preempt data traffic at every hop instead of
    /// queueing behind it — the property that keeps failover and
    /// re-keying latency bounded under load.
    pub fn post_host(&mut self, src: usize, dst: usize, vl: u8, bytes: Vec<u8>) {
        let now = self.now;
        self.core.post_host_at(now, src, dst, vl, bytes);
        self.drain_staged();
    }

    /// Advance the simulation until a host delivery is ready, the event
    /// horizon `limit` is reached, or the queue drains — whichever comes
    /// first. Returns the new simulation time, which never exceeds the
    /// first pending delivery's time and never regresses. An event popped
    /// past `limit` is held and re-merged by `pop_next` on the next call.
    pub fn run_hosts_until(&mut self, limit: SimTime) -> SimTime {
        while self.host_inbox.is_empty() {
            let Some((key, ev)) = self.pop_next() else {
                self.now = self.now.max(limit);
                break;
            };
            if key.time > limit {
                // This key is the global minimum right now, so it precedes
                // everything already held.
                self.held.push_front((key, ev));
                self.now = self.now.max(limit);
                break;
            }
            self.dispatch(key, ev);
        }
        self.now
    }

    /// Pop the oldest pending host delivery, if any.
    pub fn take_host_delivery(&mut self) -> Option<HostDelivery> {
        self.host_inbox.pop_front()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events handled so far (the scale experiments' cost denominator).
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed()
    }

    /// The report accumulated so far (final numbers come from
    /// [`run`](Self::run); this view serves co-simulation drivers).
    pub fn stats(&self) -> SimReport {
        self.core.merged_report()
    }

    /// The fabric this simulator runs on.
    pub fn topology(&self) -> &dyn Topology {
        &*self.core.shared.topo
    }

    /// High-water mark of in-flight packets — a deterministic peak-memory
    /// proxy (multiply by `size_of::<SimPacket>()` for bytes; same number
    /// on every same-seed run and at every thread count, unlike RSS).
    pub fn peak_packets(&self) -> usize {
        self.core.peak_packets()
    }

    /// Post a finite `bytes`-sized transfer from `src` to `dst`: the flow
    /// is segmented into MTU packets on the best-effort VL, stamped with
    /// `src`'s partition key, and queued immediately — contending with
    /// everything else for credits, arbitration and link capacity. Returns
    /// the flow's index into [`flows`](Self::flows). The flow completes
    /// (its record gains `completed_at`) when the last packet is delivered
    /// at `dst`'s HCA; cross-partition flows never complete (the receive
    /// P_Key check blocks them), so scale experiments run one partition.
    pub fn post_flow(&mut self, src: usize, dst: usize, bytes: u64) -> usize {
        let now = self.now;
        let flow = self.core.post_flow_at(now, src, dst, bytes);
        self.drain_staged();
        flow
    }

    /// Flow records in posting order (see [`post_flow`](Self::post_flow)).
    pub fn flows(&self) -> &[FlowRecord] {
        &self.core.flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MS, US};

    fn quick_cfg() -> SimConfig {
        SimConfig {
            duration: 2 * MS,
            warmup: 200 * US,
            ..SimConfig::default()
        }
    }
    #[test]
    fn baseline_delivers_traffic() {
        let report = Simulator::new(quick_cfg()).run();
        assert!(
            report.realtime.delivered > 100,
            "rt delivered {}",
            report.realtime.delivered
        );
        assert!(report.best_effort.delivered > 100);
        assert_eq!(report.filter_drops, 0);
        assert_eq!(report.hca_blocked, 0);
        assert_eq!(report.traps, 0);
        // Sanity on magnitudes: queuing under light load is microseconds,
        // network latency tens of microseconds (store-and-forward mesh).
        assert!(report.legit_queuing_mean() < 50.0);
        assert!(report.legit_network_mean() > 3.0);
        assert!(report.legit_network_mean() < 100.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Simulator::new(quick_cfg()).run();
        let b = Simulator::new(quick_cfg()).run();
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.realtime.delivered, b.realtime.delivered);
        assert!((a.legit_queuing_mean() - b.legit_queuing_mean()).abs() < 1e-12);
    }

    #[test]
    fn host_packets_cross_the_mesh_intact() {
        // No background traffic: the host packet is the only load, so it
        // must arrive exactly once, byte-identical, after a positive
        // fabric delay.
        let mut cfg = quick_cfg();
        cfg.traffic.realtime_load = 0.0;
        cfg.traffic.best_effort_load = 0.0;
        let mut sim = Simulator::new(cfg);
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let dst = sim.topology().num_nodes() - 1;
        sim.post_host(0, dst, 1, payload.clone());
        let t = sim.run_hosts_until(SimTime::MAX);
        let d = sim.take_host_delivery().expect("delivery");
        assert_eq!(d.node, dst);
        assert_eq!(d.bytes, payload);
        assert_eq!(d.at, t);
        assert!(t > 0, "fabric transit takes time");
        assert!(sim.take_host_delivery().is_none());
        // Nothing left: the horizon call parks time at the limit.
        assert_eq!(sim.run_hosts_until(t + 1000), t + 1000);
    }

    #[test]
    fn host_hook_interleaves_with_background_traffic() {
        // With sources active, run_hosts_until must keep the background
        // simulation bit-identical to an uninterrupted run of the same
        // seed (the held-event slot preserves global event order).
        let base = Simulator::new(quick_cfg()).run();
        let mut sim = Simulator::new(quick_cfg());
        let mut t = 0;
        while t < 3 * MS {
            t = sim.run_hosts_until(t + 100 * US);
            while sim.take_host_delivery().is_some() {}
            if sim.now() >= 3 * MS {
                break;
            }
        }
        let (report, _) = sim.run_counted();
        assert_eq!(report.generated, base.generated);
        assert_eq!(report.realtime.delivered, base.realtime.delivered);
        assert_eq!(report.best_effort.delivered, base.best_effort.delivered);
        assert!((report.legit_queuing_mean() - base.legit_queuing_mean()).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulator::new(quick_cfg()).run();
        let mut cfg = quick_cfg();
        cfg.seed ^= 0xFFFF;
        let b = Simulator::new(cfg).run();
        assert_ne!(a.generated, b.generated);
    }

    #[test]
    fn attack_raises_queuing_time() {
        // Run near the fabric's knee (where the paper's Figure 1 operates)
        // and average two placements so a single lucky attacker position
        // can't mask the effect.
        let loaded = |attackers: usize, seed_bump: u64| {
            let mut cfg = quick_cfg();
            // Queue buildup under attack needs some simulated time to
            // dominate the warmup transient.
            cfg.duration = 5 * MS;
            cfg.warmup = 500 * US;
            cfg.traffic.realtime_load = 0.25;
            cfg.traffic.best_effort_load = 0.30;
            cfg.num_attackers = attackers;
            cfg.attack_probability = 1.0;
            cfg.seed ^= seed_bump;
            Simulator::new(cfg).run()
        };
        let base: f64 = (0..2)
            .map(|s| loaded(0, s * 0xABCD).best_effort.queuing.mean())
            .sum::<f64>()
            / 2.0;
        let attacked_reports: Vec<SimReport> = (0..2).map(|s| loaded(4, s * 0xABCD)).collect();
        assert!(
            attacked_reports.iter().all(|r| r.hca_blocked > 0),
            "attack packets must reach victims"
        );
        let attacked: f64 = attacked_reports
            .iter()
            .map(|r| r.best_effort.queuing.mean())
            .sum::<f64>()
            / 2.0;
        assert!(attacked > base, "attack {attacked} vs base {base}");
    }

    #[test]
    fn ingress_filtering_blocks_attack() {
        let mut cfg = quick_cfg();
        cfg.num_attackers = 2;
        cfg.attack_probability = 1.0;
        cfg.enforcement = EnforcementKind::If;
        let report = Simulator::new(cfg).run();
        assert!(report.filter_drops > 0, "IF must drop attack packets");
        assert_eq!(
            report.hca_blocked, 0,
            "nothing invalid reaches HCAs under IF"
        );
    }

    #[test]
    fn dpt_blocks_attack_too() {
        let mut cfg = quick_cfg();
        cfg.num_attackers = 2;
        cfg.attack_probability = 1.0;
        cfg.enforcement = EnforcementKind::Dpt;
        let report = Simulator::new(cfg).run();
        assert!(report.filter_drops > 0);
        assert_eq!(report.hca_blocked, 0);
        assert!(report.lookup_cycles > 0, "DPT pays lookups");
    }

    #[test]
    fn sif_engages_after_traps() {
        let mut cfg = quick_cfg();
        cfg.num_attackers = 2;
        cfg.attack_probability = 1.0;
        cfg.enforcement = EnforcementKind::Sif;
        let report = Simulator::new(cfg).run();
        assert!(report.traps > 0, "victims must trap");
        assert!(report.hca_blocked > 0, "attack leaks until SIF engages");
        assert!(report.filter_drops > 0, "then SIF drops at the edge");
        // Once engaged, the vast majority of attack packets die at ingress.
        assert!(
            report.filter_drops > report.hca_blocked,
            "drops {} blocked {}",
            report.filter_drops,
            report.hca_blocked
        );
    }

    #[test]
    fn dpt_costs_more_lookups_than_if() {
        let mut cfg_d = quick_cfg();
        cfg_d.enforcement = EnforcementKind::Dpt;
        let d = Simulator::new(cfg_d).run();
        let mut cfg_i = quick_cfg();
        cfg_i.enforcement = EnforcementKind::If;
        let i = Simulator::new(cfg_i).run();
        assert!(
            d.lookup_cycles > i.lookup_cycles * 2,
            "DPT per-hop lookups {} should dwarf IF ingress-only {}",
            d.lookup_cycles,
            i.lookup_cycles
        );
    }

    #[test]
    fn sif_costs_nothing_without_attack() {
        let mut cfg = quick_cfg();
        cfg.enforcement = EnforcementKind::Sif;
        let report = Simulator::new(cfg).run();
        assert_eq!(report.lookup_cycles, 0, "idle SIF is free");
    }

    #[test]
    fn qp_level_auth_adds_modest_queuing() {
        let base = Simulator::new(quick_cfg()).run();
        let mut cfg = quick_cfg();
        cfg.auth = AuthMode::QpLevel;
        let with = Simulator::new(cfg).run();
        let b = base.legit_queuing_mean();
        let w = with.legit_queuing_mean();
        assert!(w >= b, "auth can't reduce delay: {w} vs {b}");
        assert!(w < b + 10.0, "overhead must stay marginal: {w} vs {b}");
    }

    #[test]
    fn realtime_priority_beats_best_effort_under_attack() {
        let mut cfg = quick_cfg();
        cfg.num_attackers = 3;
        cfg.attack_probability = 1.0;
        let r = Simulator::new(cfg).run();
        assert!(
            r.best_effort.queuing.mean() >= r.realtime.queuing.mean(),
            "BE {} must suffer at least as much as RT {}",
            r.best_effort.queuing.mean(),
            r.realtime.queuing.mean()
        );
    }

    #[test]
    fn valid_pkey_attack_defeats_ingress_filtering() {
        // §7: "Dumping traffic only with a valid P_Key. Since this attack
        // uses a valid P_Key, any ingress filtering is useless."
        let mut cfg = quick_cfg();
        cfg.duration = 4 * MS;
        cfg.traffic.realtime_load = 0.25;
        cfg.traffic.best_effort_load = 0.30;
        cfg.num_attackers = 4;
        cfg.attack_probability = 1.0;
        cfg.attack_keys = AttackKeys::Valid;
        cfg.enforcement = EnforcementKind::Sif;
        let r = Simulator::new(cfg).run();
        assert_eq!(r.filter_drops, 0, "SIF never sees an invalid key");
        assert_eq!(r.traps, 0, "in-partition receivers raise no P_Key traps");
        // The flood still happened (attack packets were delivered to
        // same-partition receivers or blocked at cross-partition ones).
        assert!(r.attack.delivered + r.hca_blocked > 500);
    }

    #[test]
    fn weighted_arbitration_trades_priority_for_fairness() {
        // Under heavy realtime pressure, weighted arbitration serves VL0
        // sooner than strict priority does.
        let run = |arb: crate::config::ArbitrationPolicy| {
            let mut cfg = quick_cfg();
            cfg.duration = 4 * MS;
            cfg.traffic.realtime_load = 0.60;
            cfg.traffic.best_effort_load = 0.25;
            cfg.arbitration = arb;
            Simulator::new(cfg).run()
        };
        let strict = run(crate::config::ArbitrationPolicy::StrictPriority);
        let weighted = run(crate::config::ArbitrationPolicy::Weighted { high_limit: 1 });
        // Both deliver traffic.
        assert!(strict.best_effort.delivered > 100);
        assert!(weighted.best_effort.delivered > 100);
        // Weighted must not *hurt* best-effort relative to strict, and RT
        // must not collapse either (it still gets most slots).
        assert!(
            weighted.best_effort.network.mean() <= strict.best_effort.network.mean() + 1.0,
            "weighted BE {} vs strict BE {}",
            weighted.best_effort.network.mean(),
            strict.best_effort.network.mean()
        );
        assert!(weighted.realtime.delivered > 100);
    }

    #[test]
    fn inband_traps_activate_sif() {
        // Same scenario as sif_engages_after_traps, but traps travel as
        // real VL15 MADs through the fabric instead of a side channel.
        let mut cfg = quick_cfg();
        cfg.num_attackers = 2;
        cfg.attack_probability = 1.0;
        cfg.enforcement = EnforcementKind::Sif;
        cfg.trap_transport = crate::config::TrapTransport::InBand;
        let report = Simulator::new(cfg).run();
        assert!(report.mgmt_delivered > 0, "trap MADs must reach the SM");
        assert!(report.traps > 0, "SM must process in-band traps");
        assert!(report.filter_drops > 0, "SIF engages off in-band traps");
        assert!(report.filter_drops > report.hca_blocked);
    }

    #[test]
    fn sm_flood_reaches_sm_through_every_partition_check() {
        // §7: management packets cross partition boundaries unchecked.
        let mut cfg = quick_cfg();
        cfg.num_attackers = 2;
        cfg.attack_probability = 1.0;
        cfg.attack_keys = AttackKeys::SmFlood;
        cfg.enforcement = EnforcementKind::Dpt; // strongest data filtering
        let report = Simulator::new(cfg).run();
        assert!(
            report.mgmt_delivered > 200,
            "flood MADs delivered: {}",
            report.mgmt_delivered
        );
        assert_eq!(report.filter_drops, 0, "DPT cannot filter VL15 packets");
        assert_eq!(report.hca_blocked, 0, "no P_Key check applies");
        // VL15 isolation: data traffic keeps flowing.
        assert!(report.best_effort.delivered > 100);
    }

    #[test]
    fn fault_free_runs_report_no_fault_drops() {
        let r = Simulator::new(quick_cfg()).run();
        assert_eq!(r.link_drops, 0);
        assert_eq!(r.corrupt_drops, 0);
    }

    #[test]
    fn fault_injection_drops_and_corrupts_deterministically() {
        let run = || {
            let mut cfg = quick_cfg();
            cfg.fault = crate::fault::FaultConfig {
                drop_prob: 0.05,
                corrupt_prob: 0.02,
                reorder_prob: 0.02,
                reorder_delay_ps: 20 * US,
            };
            Simulator::new(cfg).run()
        };
        let a = run();
        assert!(a.link_drops > 0, "5% drop must fire: {}", a.link_drops);
        assert!(a.corrupt_drops > 0, "2% corrupt must fire");
        // Traffic still flows around the losses.
        assert!(a.realtime.delivered > 100);
        assert!(a.best_effort.delivered > 100);
        // Lossy runs replay bit-identically.
        let b = run();
        assert_eq!(a.link_drops, b.link_drops);
        assert_eq!(a.corrupt_drops, b.corrupt_drops);
        assert_eq!(a.realtime.delivered, b.realtime.delivered);
        assert!((a.legit_queuing_mean() - b.legit_queuing_mean()).abs() < 1e-12);
    }

    #[test]
    fn wire_drops_do_not_leak_credits() {
        // Heavy loss + long run: if a drop ate a credit, injection would
        // eventually wedge and deliveries would collapse. Compare against
        // the loss-free run: deliveries must stay the same order of
        // magnitude (only the dropped fraction is missing).
        let mut cfg = quick_cfg();
        cfg.fault.drop_prob = 0.10;
        let lossy = Simulator::new(cfg).run();
        let clean = Simulator::new(quick_cfg()).run();
        let lossy_total = lossy.realtime.delivered + lossy.best_effort.delivered;
        let clean_total = clean.realtime.delivered + clean.best_effort.delivered;
        assert!(
            lossy_total as f64 > clean_total as f64 * 0.5,
            "lossy {lossy_total} vs clean {clean_total}: credits leaked?"
        );
    }

    /// Credits and occupancy counts balance exactly once a run drains, on
    /// every topology (the dragonfly exercises dateline VL escalation) and
    /// under wire loss, on both drivers; debug builds also cross-check
    /// every grant's stored route against the topology.
    #[test]
    fn switch_state_is_conserved_on_every_topology() {
        for topology in [
            crate::config::TopoSpec::Mesh,
            crate::config::TopoSpec::FatTree { k: 4 },
            crate::config::TopoSpec::Dragonfly {
                a: 4,
                p: 2,
                h: 2,
                valiant: false,
            },
        ] {
            let mut cfg = quick_cfg();
            cfg.topology = topology;
            cfg.fault.drop_prob = 0.02;
            let mut sim = Simulator::new(cfg.clone());
            sim.run_hosts_until(SimTime::MAX);
            assert!(sim.stats().best_effort.delivered > 100, "{topology:?}");
            sim.core.assert_quiescent();
            let mut par = crate::ParSimulator::with_threads(cfg, 2);
            par.run();
            assert_eq!(par.events_processed(), sim.events_processed());
        }
    }

    #[test]
    fn no_attackers_means_no_attack_class_traffic() {
        let r = Simulator::new(quick_cfg()).run();
        assert_eq!(r.attack.delivered, 0);
        assert_eq!(r.attack.dropped, 0);
        assert_eq!(r.attack_active_fraction, 0.0);
    }

    #[test]
    fn fat_tree_fabric_delivers_traffic() {
        let mut cfg = quick_cfg();
        cfg.topology = crate::config::TopoSpec::FatTree { k: 4 };
        let report = Simulator::new(cfg).run();
        assert!(report.realtime.delivered > 100);
        assert!(report.best_effort.delivered > 100);
        assert_eq!(report.filter_drops, 0);
        assert_eq!(report.hca_blocked, 0);
    }

    #[test]
    fn sif_engages_on_a_dragonfly() {
        // The trap → SM → program-filter loop must work when the violator's
        // edge switch is a dragonfly router, not a mesh switch.
        let mut cfg = quick_cfg();
        cfg.topology = crate::config::TopoSpec::Dragonfly {
            a: 2,
            p: 2,
            h: 1,
            valiant: false,
        };
        cfg.num_attackers = 2;
        cfg.attack_probability = 1.0;
        cfg.enforcement = EnforcementKind::Sif;
        let report = Simulator::new(cfg).run();
        assert!(report.traps > 0, "victims must trap");
        assert!(
            report.filter_drops > 0,
            "SIF drops at the attacker's router"
        );
        assert!(report.filter_drops > report.hca_blocked);
    }

    #[test]
    fn non_mesh_fabrics_are_deterministic() {
        for topology in [
            crate::config::TopoSpec::FatTree { k: 4 },
            crate::config::TopoSpec::Dragonfly {
                a: 2,
                p: 2,
                h: 1,
                valiant: true,
            },
        ] {
            let run = || {
                let mut cfg = quick_cfg();
                cfg.topology = topology;
                Simulator::new(cfg).run()
            };
            let (a, b) = (run(), run());
            assert_eq!(a.generated, b.generated);
            assert_eq!(a.realtime.delivered, b.realtime.delivered);
            assert!((a.legit_queuing_mean() - b.legit_queuing_mean()).abs() < 1e-12);
        }
    }

    #[test]
    fn flows_complete_on_every_topology() {
        for topology in [
            crate::config::TopoSpec::Mesh,
            crate::config::TopoSpec::FatTree { k: 4 },
            crate::config::TopoSpec::Dragonfly {
                a: 2,
                p: 2,
                h: 1,
                valiant: false,
            },
        ] {
            let mut cfg = quick_cfg();
            cfg.topology = topology;
            cfg.num_partitions = 1; // flows must pass the receive P_Key check
            cfg.traffic.realtime_load = 0.0;
            cfg.traffic.best_effort_load = 0.0;
            let mut sim = Simulator::new(cfg);
            let n = sim.topology().num_nodes();
            for src in 0..n {
                sim.post_flow(src, (src + 1) % n, 10 * 1024);
            }
            assert!(sim.peak_packets() > 0);
            // Drain the event queue in place so the flow records stay
            // readable afterwards.
            sim.run_hosts_until(SimTime::MAX);
            assert!(
                sim.flows().iter().all(|f| f.completed_at.is_some()),
                "every flow must complete on {topology:?}"
            );
            assert!(sim
                .flows()
                .iter()
                .all(|f| f.completed_at.unwrap() > f.posted_at));
        }
    }

    #[test]
    fn flow_completion_times_are_recorded_and_ordered() {
        let mut cfg = quick_cfg();
        cfg.num_partitions = 1;
        cfg.traffic.realtime_load = 0.0;
        cfg.traffic.best_effort_load = 0.0;
        let mut sim = Simulator::new(cfg);
        let small = sim.post_flow(0, 5, 2 * 1024);
        let large = sim.post_flow(3, 9, 64 * 1024);
        sim.run_hosts_until(SimTime::MAX);
        let flows = sim.flows();
        let small_done = flows[small].completed_at.expect("small flow completes");
        let large_done = flows[large].completed_at.expect("large flow completes");
        assert!(small_done > 0);
        // 64 KiB takes longer than 2 KiB from the same start time.
        assert!(large_done > small_done);
        // 32 MTU packets were in flight at peak ≥ the largest single queue.
        assert!(sim.peak_packets() >= 2);
        assert_eq!(sim.flows().len(), 2);
    }

    /// A real report's JSON text parses back and re-emits byte-identically,
    /// with its counters and raw accumulators intact.
    #[test]
    fn sim_report_json_round_trip() {
        let mut cfg = quick_cfg();
        cfg.num_attackers = 2;
        cfg.attack_probability = 1.0;
        let report = Simulator::new(cfg).run();
        let back = crate::reparsed(&report.to_json().to_string());
        let u64_at = |key: &str| back.get(key).and_then(Json::as_u64);
        assert_eq!(u64_at("generated"), Some(report.generated));
        assert_eq!(u64_at("hca_blocked"), Some(report.hca_blocked));
        assert_eq!(u64_at("traps"), Some(report.traps));
        let realtime = back.get("realtime").expect("realtime object");
        assert_eq!(
            realtime.get("delivered").and_then(Json::as_u64),
            Some(report.realtime.delivered)
        );
        let be_queuing = back.get("best_effort").and_then(|c| c.get("queuing"));
        assert_eq!(
            be_queuing
                .and_then(|q| q.get("count"))
                .and_then(Json::as_u64),
            Some(report.best_effort.queuing.count())
        );
        assert_eq!(
            be_queuing
                .and_then(|q| q.get("mean"))
                .and_then(Json::as_f64),
            Some(report.best_effort.queuing.mean())
        );
        assert_eq!(
            back.get("attack_active_fraction").and_then(Json::as_f64),
            Some(report.attack_active_fraction)
        );
    }

    #[test]
    fn attack_fraction_reflects_duty_cycle() {
        // The precomputed DutyCycle window covers attack_probability of the
        // configured duration, and the report's fraction says exactly that.
        let mut cfg = quick_cfg();
        cfg.num_attackers = 1;
        cfg.attack_schedule = AttackSchedule::DutyCycle;
        cfg.attack_probability = 0.5;
        let report = Simulator::new(cfg).run();
        assert!(
            (report.attack_active_fraction - 0.5).abs() < 0.01,
            "fraction {}",
            report.attack_active_fraction
        );
    }
}
