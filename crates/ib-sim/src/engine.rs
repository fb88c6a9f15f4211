//! The discrete-event simulation engine.
//!
//! One core runs every simulation: [`Simulator`] owns one calendar
//! queue, one packet arena, one stats record and the switch and HCA
//! state vectors, indexed by global switch and node id. Handlers (`Ctx`)
//! read the immutable `Shared` tables, mutate the `State`, and push what
//! they schedule straight into the queue through `Ctx::push`.
//!
//! Determinism: every event carries an *intrinsic* key `(time,
//! origin_entity_id << 32 | per-origin seq)`, every runtime RNG draw
//! comes from a per-node stream and every fault decision from a
//! per-link stream, so the same seed replays the same report bit for
//! bit, and no draw depends on how unrelated events interleave.
//! `tests/golden/lock/engine.txt` pins the reports of 1024 random ones.
//!
//! ## Model summary
//!
//! * **HCA injection** — packets wait in per-VL send queues until the host
//!   link is idle *and* a credit for their VL is available at the switch's
//!   host port. The wait is the paper's *queuing time*. A posted flow
//!   waits as one send-queue entry, and each of its MTU packets is cut off
//!   it only when it is injected.
//! * **Switches** — input-queued, per-(port, VL) buffers backed by credits;
//!   output ports arbitrate by VL priority (realtime over best-effort),
//!   round-robin across input ports; store-and-forward with a fixed
//!   pipeline latency plus any enforcement lookup cycles charged to the
//!   packet (this is how DPT's per-hop lookups show up as extra delay).
//! * **Enforcement** — each switch owns a [`PartitionEnforcer`]; drops
//!   release the buffer credit immediately.
//! * **Trap loop** — a destination HCA seeing an invalid P_Key bumps its
//!   violation counter and (rate-limited) raises a trap; after
//!   `TRAP_LATENCY` the SM maps the violator to its edge switch and after
//!   `PROGRAM_LATENCY` the switch's SIF registers the key.
//! * **Authentication cost model** — `AUTH_CYCLES_PER_MESSAGE` is charged
//!   at both end nodes; QP-level mode additionally holds the *first* packet
//!   of each (src, dst) pair for `KEY_EXCHANGE_RTT` (the Q_Key/secret
//!   request round trip of §4.3).
//! * **Attack schedule** — precomputed at construction into half-open
//!   `[start, end)` windows from a dedicated seed stream; attacker
//!   `Generate` chains start at each window's opening and die at its
//!   close. No toggle event exists.

use std::collections::VecDeque;

use ib_runtime::{Json, Rng, ToJson};

use ib_mgmt::enforcement::{
    DptEnforcer, EnforcementKind, FilterCheck, FilterDecision, IfEnforcer, NoEnforcer,
    PartitionEnforcer, SifEnforcer,
};
use ib_mgmt::partition::{PartitionConfig, PartitionTable};
use ib_mgmt::sm::SubnetManager;
use ib_mgmt::trap::{Trap, TrapThrottle};
use ib_packet::types::{Lid, PKey};

use crate::arena::{PacketArena, PacketRef, Slab};
use crate::config::{
    ArbitrationPolicy, AttackKeys, AttackSchedule, AuthMode, SimConfig, TrapTransport,
    ATTACK_EPOCH, AUTH_CYCLES_PER_MESSAGE, CYCLE_TIME, KEY_EXCHANGE_RTT, NUM_VLS, PROGRAM_LATENCY,
    PROPAGATION_DELAY, SIF_IDLE_TIMEOUT, SM_NODE, SWITCH_LATENCY, TRAP_LATENCY, VL_BUFFER_PACKETS,
};
use crate::event::{Event, EventKey, EventQueue, Side, SimPacket, EVENT_KINDS, NONE};
use crate::fault::{FaultInjector, FaultOutcome};
use crate::metrics::ClassStats;
use crate::time::{wire_time_ps, SimTime};
use crate::topology::{flow_hash, Peer, Topology};
use crate::traffic::{exp_gap, TrafficClass};

/// Seed-stream index for the attack-window schedule. Node streams use
/// indices `0..n` and `n ≤ 0xFFFE` (16-bit LIDs), so this never collides.
const ATTACK_WINDOW_STREAM: u64 = 0x0002_0000;

/// Per-switch runtime state. The per-(port, VL) tables are flat and
/// VL-major, indexed by `Shared::pv` as `[vl * radix + port]`: traffic
/// uses few of the 16 VLs, so one VL's entries for every port share a
/// few cache lines instead of one line each.
struct SwitchState {
    /// Input buffers, by input port and VL.
    in_q: Vec<VecDeque<QueuedPacket>>,
    /// By output port and VL: the set of input ports (bit `in_port`)
    /// whose queue on that VL has a head routed to that output — what
    /// arbitration grants from, without touching an input queue.
    heads: Vec<u64>,
    /// Credits available toward the downstream peer, by output port and
    /// VL.
    out_credits: Vec<u32>,
    /// Arbitration state, by output port.
    ports: Vec<OutPort>,
    /// The partition-enforcement engine this switch runs.
    enforcement: Box<dyn PartitionEnforcer>,
    /// Per-origin event sequence counter (intrinsic-key tie-break).
    oseq: u32,
}

/// One output port's arbitration state, in one place: a `TryForward`
/// reads and writes all of it.
#[derive(Clone, Copy, Default)]
struct OutPort {
    /// When the port finishes its current transmission.
    busy_until: SimTime,
    /// Consecutive high-priority grants (weighted arbitration state).
    high_grants: u32,
    /// Round-robin cursor over input ports.
    rr: u32,
    /// Bit `vl` is set exactly when the switch's `heads` entry for this
    /// port and `vl` is non-zero, so arbitration visits only the VLs
    /// with a bidder.
    vl_mask: u16,
    /// Whether a `TryForward` event is already pending.
    forward_pending: bool,
}

/// A packet in an input buffer, the output port it was routed to on
/// arrival, and the lookup cycles its admission cost (charged when the
/// output port serves it).
struct QueuedPacket {
    packet: PacketRef,
    out_port: u32,
    lookup_cycles: u64,
}

/// A send-queue entry: one packet, or a posted flow (its index into
/// `State::flows`), which stays at the head until its last packet is
/// cut off it. A real HCA's send queue also holds work requests, not
/// packets.
#[derive(Clone, Copy)]
enum SendEntry {
    Packet(PacketRef),
    Flow(u32),
}

/// Per-HCA runtime state.
struct HcaState {
    /// Per-VL send queues (paired with each entry's earliest-ready time,
    /// which models the QP-level key-exchange hold).
    send_q: [VecDeque<(SendEntry, SimTime)>; NUM_VLS],
    /// Packets waiting per VL: one per packet entry plus every flow
    /// entry's packets not yet cut. What the realtime back-off and the
    /// attacker's backlog bound read.
    queued: [u32; NUM_VLS],
    /// Bit `vl` is set exactly when `send_q[vl]` is non-empty.
    send_mask: u16,
    tx_busy_until: SimTime,
    inject_pending: bool,
    /// Credits toward the attached switch's host port, per VL.
    credits: [u32; NUM_VLS],
    /// Receive-side partition table (always enforced, per spec).
    table: PartitionTable,
    throttle: TrapThrottle,
    /// (src → dst) pairs that have completed a QP-level key exchange.
    keyed_peers: Vec<bool>,
    /// Realtime generations skipped due to back-off.
    backoff_skips: u64,
    /// This node's private RNG stream (`seed.stream(node)`): jitter,
    /// inter-arrival gaps, peer choice, attack targeting. Node-local
    /// streams make every draw independent of other nodes' event order.
    rng: Rng,
    /// Per-origin event sequence counter (intrinsic-key tie-break).
    oseq: u32,
}

impl HcaState {
    /// Queue `entry`, holding `packets` packets, on `vl`, leaving no
    /// earlier than `ready`.
    fn enqueue(&mut self, vl: usize, entry: SendEntry, packets: u32, ready: SimTime) {
        self.send_q[vl].push_back((entry, ready));
        self.queued[vl] += packets;
        self.send_mask |= 1 << vl;
    }
}

/// The VLs set in `mask`, highest first (VL priority order).
fn vls_high_first(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let vl = (u16::BITS - 1 - mask.leading_zeros()) as usize;
            mask &= !(1 << vl);
            vl
        })
    })
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
    /// Traps delivered to the SM (its `traps_handled`).
    pub traps: u64,
    /// Realtime generations suppressed by back-off.
    pub(crate) backoff_skips: u64,
    /// Total packets generated (all classes).
    pub generated: u64,
    /// Total enforcement lookup cycles spent (Table 2 cross-check).
    pub lookup_cycles: u64,
    /// Fraction of the configured duration the attack schedule was active.
    pub(crate) attack_active_fraction: f64,
    /// Packets the fault layer dropped on the wire.
    pub link_drops: u64,
    /// Packets the fault layer corrupted (discarded by the receiving HCA).
    pub(crate) corrupt_drops: u64,
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
    /// When the flow was posted at the source HCA: the generation time of
    /// every packet cut off it.
    posted_at: SimTime,
    /// Delivery time of the flow's last packet; `None` while in flight
    /// (or forever, if a fault dropped one of its packets).
    pub completed_at: Option<SimTime>,
    /// Packets not yet delivered.
    remaining: u32,
    /// Packets not yet cut off the flow's send-queue entry.
    uncut: u32,
    /// Destination node.
    dst: u32,
    /// Size of the flow's last packet: what the full-MTU packets leave,
    /// and at least one byte (a 0-byte flow still sends one packet).
    last_bytes: u32,
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

// ------------------------------------------------------------------- core

/// Immutable state every handler reads: config, topology, layout tables,
/// the attacker assignment and the precomputed attack schedule. Where
/// nodes attach and who belongs to which partition is the SM's (in
/// `State`).
struct Shared {
    cfg: SimConfig,
    topo: Box<dyn Topology>,
    n_nodes: usize,
    n_switches: usize,
    radix: usize,
    /// Flattened `[switch * radix + port]` — what the port connects to
    /// (the topology's `peer`, looked up once instead of on every hop).
    /// A port facing an HCA is an edge port, where ingress enforcement
    /// applies.
    peers: Vec<Peer>,
    attackers: Vec<usize>,
    /// Per-attacker invalid P_Key(s).
    attacker_pkey: Vec<PKey>,
    mtu_tx: SimTime,
    auth_delay: SimTime,
    /// Precomputed half-open attack windows, sorted and disjoint.
    attack_windows: Vec<(SimTime, SimTime)>,
    /// Each node's index in its home partition's member list, so a peer
    /// draw skips the sender without scanning the list.
    home_pos: Vec<usize>,
}

impl Shared {
    /// Injector index for the output `port` of `switch` (HCA uplinks own
    /// indices `0..n_nodes`).
    fn switch_link(&self, switch: usize, port: usize) -> usize {
        self.n_nodes + switch * self.radix + port
    }

    /// Index of `(port, vl)` in a switch's per-(port, VL) tables.
    fn pv(&self, port: usize, vl: usize) -> usize {
        vl * self.radix + port
    }

    /// What output `port` of `switch` connects to.
    fn peer(&self, switch: usize, port: usize) -> Peer {
        self.peers[switch * self.radix + port]
    }
}

/// The simulation's mutable state: every switch and HCA (indexed by
/// global id), the SM, the packet arena and its side slab, the fault
/// streams, the stats record, the flow records and the host inbox.
struct State {
    /// The time of the event being handled (or, between
    /// [`Simulator::run_hosts_until`] calls, the horizon reached).
    now: SimTime,
    switches: Vec<SwitchState>,
    hcas: Vec<HcaState>,
    sm: SubnetManager,
    arena: PacketArena,
    /// Side data, by slot: a packet's in-band trap or host wire image
    /// (named by its `side`), and traps on their way to the SM out of
    /// band (named by their `TrapDeliver`). Each slot is emptied once, by
    /// [`State::release`] or by the trap's delivery.
    sides: Slab<Side>,
    /// One injector per directed link, indexed as `Shared::switch_link`
    /// counts (`None` ⇔ fault layer off).
    faults: Option<Vec<FaultInjector>>,
    stats: SimReport,
    /// Packets that reached a legitimate receive or the host hook,
    /// warm-up included (a VL15 host delivery counts in
    /// `stats.mgmt_delivered` instead): the delivery term of the packet
    /// ledger [`Simulator::assert_quiescent`] checks. Not reported.
    delivered: u64,
    /// Events handled, by kind (indexed like [`EVENT_KINDS`]).
    events: [u64; EVENT_KINDS.len()],
    /// SM-origin event sequence counter.
    sm_oseq: u32,
    /// Flows in posting order; a handler fills in `completed_at`.
    flows: Vec<FlowRecord>,
    /// Host deliveries not yet taken.
    host_inbox: VecDeque<HostDelivery>,
}

impl State {
    /// A packet's terminal point, on every delivery and drop: take it out
    /// of the arena with its side data, freeing both slots.
    fn release(&mut self, pref: PacketRef) -> (SimPacket, Option<Side>) {
        let packet = self.arena.release(pref);
        let side = (packet.side != NONE).then(|| self.sides.take(packet.side));
        (packet, side)
    }
}

/// Who schedules an event — determines the intrinsic key's origin id
/// (`node`, `n_nodes + switch`, or `n_nodes + n_switches` for the SM).
#[derive(Clone, Copy)]
enum Origin {
    Node(usize),
    Switch(usize),
    Sm,
}

/// Whether the attack schedule is active at `t` (binary search over the
/// sorted, disjoint half-open windows).
fn attack_active(sh: &Shared, t: SimTime) -> bool {
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
            let mut windows: Vec<(SimTime, SimTime)> = Vec::new();
            let mut t: SimTime = 0;
            while t <= cfg.duration {
                if rng.gen_bool(p) {
                    match windows.last_mut() {
                        Some(w) if w.1 == t => w.1 = t + ATTACK_EPOCH,
                        _ => windows.push((t, t + ATTACK_EPOCH)),
                    }
                }
                t += ATTACK_EPOCH;
            }
            windows
        }
    }
}

/// A handler's view: the shared tables, the mutable state, and the queue
/// everything it schedules goes into.
struct Ctx<'a> {
    sh: &'a Shared,
    st: &'a mut State,
    queue: &'a mut EventQueue,
}

impl Ctx<'_> {
    /// Schedule one event under its intrinsic key, composed from the
    /// origin's id and per-origin counter.
    fn push(&mut self, origin: Origin, at: SimTime, ev: Event) {
        let st = &mut *self.st;
        let (id, oseq) = match origin {
            Origin::Node(node) => (node, &mut st.hcas[node].oseq),
            Origin::Switch(s) => (self.sh.n_nodes + s, &mut st.switches[s].oseq),
            Origin::Sm => (self.sh.n_nodes + self.sh.n_switches, &mut st.sm_oseq),
        };
        *oseq += 1;
        self.queue
            .push_keyed(at, ((id as u64) << 32) | u64::from(*oseq), ev);
    }

    /// Send packet `pref` from `from` across directed link `link`, due
    /// at `arrival`; the fault layer, when on, decides its fate. A packet
    /// that crosses arrives as `arrive` (later by any reorder delay,
    /// marked if corrupted). A lost one is dropped here, and `credit`,
    /// if any, is pushed at `arrival`: the receiver never sees the
    /// packet, so its buffer slot frees as if on arrival.
    fn cross_link(
        &mut self,
        from: Origin,
        link: usize,
        pref: PacketRef,
        arrival: SimTime,
        arrive: Event,
        credit: Option<Event>,
    ) {
        let outcome = match &mut self.st.faults {
            Some(inj) => inj[link].decide(),
            None => FaultOutcome::Deliver {
                corrupt: false,
                extra_delay_ps: 0,
            },
        };
        match outcome {
            FaultOutcome::Drop => {
                self.st.stats.link_drops += 1;
                self.drop_packet(pref);
                if let Some(credit) = credit {
                    self.push(from, arrival, credit);
                }
            }
            FaultOutcome::Deliver {
                corrupt,
                extra_delay_ps,
            } => {
                self.st.arena.get_mut(pref).corrupted |= corrupt;
                self.push(from, arrival + extra_delay_ps, arrive);
            }
        }
    }

    /// A packet's drop in the fabric: release it and count its class
    /// drop. The caller counts the reason (`filter_drops`, `link_drops`).
    fn drop_packet(&mut self, pref: PacketRef) {
        let (packet, _) = self.st.release(pref);
        self.class_stats(packet.class).dropped += 1;
    }

    /// The output port the topology routes the referenced packet to at
    /// `switch`, derived afresh — the grant-time cross-check of the port
    /// `on_switch_arrive` stored with the queued packet.
    fn route_of(&self, switch: usize, pref: PacketRef) -> usize {
        let p = self.st.arena.get(pref);
        let (src, dst) = (p.src as usize, p.dst as usize);
        self.sh.topo.route_flow(switch, dst, flow_hash(src, dst))
    }

    fn class_stats(&mut self, class: TrafficClass) -> &mut ClassStats {
        match class {
            TrafficClass::Realtime => &mut self.st.stats.realtime,
            // Management shares the attack bucket for drop accounting; its
            // deliveries are tracked separately in `mgmt_delivered`.
            TrafficClass::BestEffort => &mut self.st.stats.best_effort,
            TrafficClass::Attack | TrafficClass::Management => &mut self.st.stats.attack,
        }
    }

    fn handle(&mut self, ev: Event) {
        // Events carry `u32` ids; the handlers index by `usize`.
        let ix = |id: u32| id as usize;
        match ev {
            Event::Generate { node, class } => self.on_generate(ix(node), class),
            Event::TryInject { node } => self.on_try_inject(ix(node)),
            Event::SwitchArrive {
                switch,
                port,
                packet,
            } => self.on_switch_arrive(ix(switch), ix(port), packet),
            Event::TryForward { switch, port } => self.on_try_forward(ix(switch), ix(port)),
            Event::HcaReceive { node, packet } => self.on_hca_receive(ix(node), packet),
            Event::SwitchCredit { switch, port, vl } => {
                let (switch, port) = (ix(switch), ix(port));
                self.st.switches[switch].out_credits[self.sh.pv(port, vl as usize)] += 1;
                let now = self.st.now;
                self.schedule_forward(switch, port, now);
            }
            Event::HcaCredit { node, vl } => {
                let node = ix(node);
                self.st.hcas[node].credits[vl as usize] += 1;
                let now = self.st.now;
                self.schedule_inject(node, now);
            }
            Event::TrapDeliver { slot } => {
                let Side::Trap(trap) = self.st.sides.take(slot) else {
                    unreachable!("a TrapDeliver slot holds a trap");
                };
                self.on_trap_deliver(trap);
            }
            Event::FilterProgram { switch, port, pkey } => {
                let now = self.st.now;
                self.st.switches[ix(switch)]
                    .enforcement
                    .register_invalid(now, ix(port), pkey);
            }
        }
    }

    fn on_trap_deliver(&mut self, trap: Trap) {
        if let Some(action) = self.st.sm.handle_trap(&trap) {
            let at = self.st.now + PROGRAM_LATENCY;
            self.push(
                Origin::Sm,
                at,
                Event::FilterProgram {
                    switch: action.switch as u32,
                    port: action.port as u32,
                    pkey: action.pkey,
                },
            );
        }
    }

    // ---------------------------------------------------------------- traffic

    fn on_generate(&mut self, node: usize, class: TrafficClass) {
        let sh = self.sh;
        let now = self.st.now;
        match class {
            // Management traffic is event-driven (traps), never a source.
            TrafficClass::Management => {}
            TrafficClass::Realtime => {
                let gap = sh.cfg.interarrival_ps(sh.cfg.traffic.realtime_load) as SimTime;
                if now + gap <= sh.cfg.duration {
                    self.generate_at(node, class, now + gap);
                }
                // Back-off: a realtime source checks network headroom via
                // its local queue depth before emitting.
                let vl = class.vl() as usize;
                if self.st.hcas[node].queued[vl] as usize >= sh.cfg.traffic.realtime_backoff_queue {
                    self.st.hcas[node].backoff_skips += 1;
                    return;
                }
                if let Some(dst) = self.pick_partition_peer(node) {
                    self.emit(node, dst, class);
                }
            }
            TrafficClass::BestEffort => {
                let mean = sh.cfg.interarrival_ps(sh.cfg.traffic.best_effort_load);
                let gap = exp_gap(&mut self.st.hcas[node].rng, mean);
                if now + gap <= sh.cfg.duration {
                    self.generate_at(node, class, now + gap);
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
                self.generate_at(node, class, now + sh.mtu_tx);
                // Bound the attacker's own backlog so an over-driven source
                // doesn't consume unbounded memory (its queue depth is not a
                // measured quantity).
                let backlog: u32 = self.st.hcas[node].queued.iter().sum();
                if backlog >= 32 {
                    return;
                }
                match sh.cfg.attack_keys {
                    AttackKeys::RandomInvalid => {
                        let n = sh.n_nodes;
                        let mut dst = self.st.hcas[node].rng.gen_range(0..n);
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
                            let pkey = self.st.sm.pkey_of(node);
                            self.emit_with_pkey(node, dst, class, pkey);
                        }
                    }
                    // §7's SM DoS: dump MAD-sized management packets at the
                    // SM node on VL15 — they cross every partition check.
                    AttackKeys::SmFlood => {
                        let dst = SM_NODE;
                        if dst != node {
                            self.emit_management(node, dst, TrafficClass::Attack, None);
                        }
                    }
                }
            }
        }
    }

    /// Schedule `node`'s next generation of `class` at `at`.
    fn generate_at(&mut self, node: usize, class: TrafficClass, at: SimTime) {
        let ev = Event::Generate {
            node: node as u32,
            class,
        };
        self.push(Origin::Node(node), at, ev);
    }

    fn pick_partition_peer(&mut self, node: usize) -> Option<usize> {
        let members = self.st.sm.home_members(node);
        // Peers exclude only self: victims don't know which partition
        // members are compromised, so attacker nodes still *receive*
        // legitimate traffic (they just don't send any, per §3.1). The
        // sender is always a member, so it has `len - 1` peers; the draw
        // indexes them in member order, skipping the sender.
        let peers = members.len() - 1;
        if peers == 0 {
            return None;
        }
        let rng = &mut self.st.hcas[node].rng;
        let i = rng.gen_range(0..peers);
        Some(members[i + usize::from(i >= self.sh.home_pos[node])])
    }

    fn emit(&mut self, src: usize, dst: usize, class: TrafficClass) {
        let pkey = self.st.sm.pkey_of(src);
        self.emit_with_pkey(src, dst, class, pkey);
    }

    fn emit_with_pkey(&mut self, src: usize, dst: usize, class: TrafficClass, pkey: PKey) {
        let sh = self.sh;
        let now = self.st.now;
        // Attackers spray across both data VLs ("dump tremendous traffic")
        // so realtime and best-effort both feel the flood; legitimate
        // traffic stays on its class VL.
        let vl = if class == TrafficClass::Attack {
            self.st.hcas[src].rng.gen_range(0..2)
        } else {
            class.vl()
        };
        let packet = SimPacket::new(src, dst, class, pkey, vl, sh.cfg.mtu_bytes as u32, now);
        // QP-level key management: first contact with a peer pays one RTT
        // before the packet may leave (§4.3 / Figure 6).
        let keyed = &mut self.st.hcas[src].keyed_peers;
        let ready =
            if sh.cfg.auth == AuthMode::QpLevel && class != TrafficClass::Attack && !keyed[dst] {
                keyed[dst] = true;
                now + KEY_EXCHANGE_RTT
            } else {
                now
            };
        self.enqueue_new(packet, ready);
    }

    /// Emit a 256-byte MAD (+ headers) on VL15. `class` distinguishes
    /// legitimate management traffic from an SM flood; `trap` carries the
    /// notice for in-band trap delivery.
    fn emit_management(&mut self, src: usize, dst: usize, class: TrafficClass, trap: Option<Trap>) {
        let now = self.st.now;
        // MAD payload + LRH/BTH/DETH + ICRC/VCRC.
        let bytes = (ib_packet::mad::MAD_LEN + 8 + 12 + 8 + 6) as u32;
        let side = trap.map_or(NONE, |trap| self.st.sides.insert(Side::Trap(trap)));
        let packet = SimPacket {
            side,
            ..SimPacket::new(src, dst, class, PKey::DEFAULT, 15, bytes, now)
        };
        self.enqueue_new(packet, now);
    }

    /// A new packet at its source HCA: count it as generated, store it
    /// and queue it on its VL, leaving no earlier than `ready`.
    fn enqueue_new(&mut self, packet: SimPacket, ready: SimTime) {
        let (src, vl) = (packet.src as usize, packet.vl as usize);
        self.st.stats.generated += 1;
        let pref = self.st.arena.insert(packet);
        self.st.hcas[src].enqueue(vl, SendEntry::Packet(pref), 1, ready);
        self.schedule_inject(src, ready);
    }

    // ---------------------------------------------------------------- HCA TX

    fn schedule_inject(&mut self, node: usize, at: SimTime) {
        if !self.st.hcas[node].inject_pending {
            self.st.hcas[node].inject_pending = true;
            let at = at.max(self.st.now);
            self.push(
                Origin::Node(node),
                at,
                Event::TryInject { node: node as u32 },
            );
        }
    }

    /// Take the next packet off `node`'s send queue on `vl`: a packet
    /// entry whole, or the next packet cut off a flow entry, which leaves
    /// the queue with the flow's last packet.
    fn dequeue(&mut self, node: usize, vl: usize) -> PacketRef {
        let st = &mut *self.st;
        let hca = &mut st.hcas[node];
        hca.queued[vl] -= 1;
        let q = &mut hca.send_q[vl];
        let pref = match q.front().expect("a masked VL holds a packet").0 {
            SendEntry::Packet(pref) => {
                q.pop_front();
                pref
            }
            SendEntry::Flow(f) => {
                let flow = &mut st.flows[f as usize];
                flow.uncut -= 1;
                let bytes = if flow.uncut == 0 {
                    q.pop_front();
                    flow.last_bytes
                } else {
                    self.sh.cfg.mtu_bytes as u32
                };
                let class = TrafficClass::BestEffort;
                let pkey = st.sm.pkey_of(node);
                let dst = flow.dst as usize;
                let packet = SimPacket {
                    flow: f,
                    ..SimPacket::new(node, dst, class, pkey, vl as u8, bytes, flow.posted_at)
                };
                st.arena.insert(packet)
            }
        };
        if q.is_empty() {
            hca.send_mask &= !(1 << vl);
        }
        pref
    }

    fn on_try_inject(&mut self, node: usize) {
        let sh = self.sh;
        let now = self.st.now;
        self.st.hcas[node].inject_pending = false;
        if now < self.st.hcas[node].tx_busy_until {
            let at = self.st.hcas[node].tx_busy_until;
            self.schedule_inject(node, at);
            return;
        }
        // VL priority: visit the VLs holding packets, highest first.
        let mut chosen: Option<usize> = None;
        let mut earliest_block: Option<SimTime> = None;
        let hca = &self.st.hcas[node];
        for vl in vls_high_first(hca.send_mask) {
            let (_, ready) = hca.send_q[vl][0];
            if ready > now {
                earliest_block = Some(earliest_block.map_or(ready, |e: SimTime| e.min(ready)));
                continue;
            }
            if hca.credits[vl] == 0 {
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
        let pref = self.dequeue(node, vl);
        self.st.hcas[node].credits[vl] -= 1;
        // MAC generation occupies the sender before the first byte (§6:
        // "one additional stage at each end node per message").
        let start = now + sh.auth_delay;
        let packet = self.st.arena.get_mut(pref);
        packet.inject_time = start;
        let tx_end = start + wire_time_ps(packet.bytes as usize);
        self.st.hcas[node].tx_busy_until = tx_end;
        let (att_sw, att_port) = self.st.sm.attachments()[node];
        let arrive = Event::SwitchArrive {
            switch: att_sw as u32,
            port: att_port as u32,
            packet: pref,
        };
        let credit = Some(Event::HcaCredit {
            node: node as u32,
            vl: vl as u8,
        });
        let arrival = tx_end + PROPAGATION_DELAY;
        self.cross_link(Origin::Node(node), node, pref, arrival, arrive, credit);
        // Re-evaluate once the link frees.
        self.schedule_inject(node, tx_end);
    }

    // ------------------------------------------------------------- switching

    fn on_switch_arrive(&mut self, switch: usize, port: usize, pref: PacketRef) {
        let sh = self.sh;
        let now = self.st.now;
        let (pvl, src, dst, pkey) = {
            let packet = self.st.arena.get(pref);
            let (src, dst) = (packet.src as usize, packet.dst as usize);
            (packet.vl, src, dst, packet.pkey)
        };
        let is_edge = matches!(sh.peer(switch, port), Peer::Hca { .. });
        // Management packets cross partition enforcement unchecked — "a
        // management packet can reach SM regardless of its partition" (§7),
        // which is precisely what makes the SM-flood attack possible.
        let check = if pvl == 15 {
            FilterCheck {
                decision: FilterDecision::Pass,
                lookup_cycles: 0,
            }
        } else {
            self.st.switches[switch]
                .enforcement
                .check(now, port, is_edge, Lid::of_node(src), pkey)
        };
        self.st.stats.lookup_cycles += check.lookup_cycles;
        if check.decision == FilterDecision::Drop {
            self.st.stats.filter_drops += 1;
            self.drop_packet(pref);
            self.return_credit(switch, port, pvl);
            return;
        }
        let vl = pvl as usize;
        // Routed once, here: the flow hash keeps every packet of a
        // (src, dst) flow on one path while distinct flows spread across
        // the fabric's path diversity.
        let out_port = sh.topo.route_flow(switch, dst, flow_hash(src, dst));
        let sw = &mut self.st.switches[switch];
        let q = &mut sw.in_q[sh.pv(port, vl)];
        q.push_back(QueuedPacket {
            packet: pref,
            out_port: out_port as u32,
            lookup_cycles: check.lookup_cycles,
        });
        if q.len() == 1 {
            sw.heads[sh.pv(out_port, vl)] |= 1 << port;
            sw.ports[out_port].vl_mask |= 1 << vl;
        }
        self.schedule_forward(switch, out_port, now + SWITCH_LATENCY);
    }

    fn schedule_forward(&mut self, switch: usize, port: usize, at: SimTime) {
        let pending = &mut self.st.switches[switch].ports[port].forward_pending;
        if !*pending {
            *pending = true;
            let at = at.max(self.st.now);
            self.push(
                Origin::Switch(switch),
                at,
                Event::TryForward {
                    switch: switch as u32,
                    port: port as u32,
                },
            );
        }
    }

    fn on_try_forward(&mut self, switch: usize, out_port: usize) {
        let sh = self.sh;
        let now = self.st.now;
        let port = &mut self.st.switches[switch].ports[out_port];
        port.forward_pending = false;
        if now < port.busy_until {
            let at = port.busy_until;
            self.schedule_forward(switch, out_port, at);
            return;
        }
        let peer = sh.peer(switch, out_port);
        // Arbitrate: find the best candidate per VL (round-robin over input
        // ports within a VL), then apply the VL arbitration policy.
        let nports = sh.radix;
        let sw = &self.st.switches[switch];
        let port = sw.ports[out_port];
        let mut best_high: Option<(usize, usize)> = None; // highest VL > 0
        let mut best_low: Option<(usize, usize)> = None; // VL 0

        // Only the VLs with a head routed here, highest first.
        for vl in vls_high_first(port.vl_mask) {
            if vl > 0 && best_high.is_some() {
                continue;
            }
            let heads = sw.heads[sh.pv(out_port, vl)];
            // Credit check applies to switch-to-switch hops; HCA receive
            // buffers are modeled as ample (the HCA drains at line rate).
            if let Peer::Switch { .. } = peer {
                if sw.out_credits[sh.pv(out_port, vl)] == 0 {
                    continue;
                }
            }
            // Round-robin: the first such input port at or after the
            // cursor, wrapping.
            let from_rr = heads & (!0u64 << port.rr);
            let in_port = if from_rr != 0 { from_rr } else { heads }.trailing_zeros() as usize;
            if vl > 0 {
                best_high = Some((in_port, vl));
            } else {
                best_low = Some((in_port, vl));
            }
        }
        let selected = match (sh.cfg.arbitration, best_high, best_low) {
            (_, None, low) => low,
            (ArbitrationPolicy::StrictPriority, high, _) => high,
            (ArbitrationPolicy::Weighted { high_limit }, high, low) => {
                // IBA-style weighted tables: after `high_limit` consecutive
                // high-priority grants, a pending low-priority packet gets
                // one slot (prevents total starvation of VL0).
                if port.high_grants >= high_limit && low.is_some() {
                    low
                } else {
                    high
                }
            }
        };
        let Some((in_port, vl)) = selected else {
            return;
        };
        let sw = &mut self.st.switches[switch];
        let port = &mut sw.ports[out_port];
        if vl > 0 {
            port.high_grants += 1;
        } else {
            port.high_grants = 0;
        }
        // The cursor moves past the granted port, wrapping (no division).
        port.rr = if in_port + 1 == nports {
            0
        } else {
            in_port as u32 + 1
        };
        let q = &mut sw.in_q[sh.pv(in_port, vl)];
        let qp = q.pop_front().unwrap();
        // The queue's new head, if any, bids for the output it was routed
        // to; the port we popped from no longer bids here.
        let next_out = q.front().map(|next| next.out_port as usize);
        sw.heads[sh.pv(out_port, vl)] &= !(1 << in_port);
        if let Some(next_out) = next_out {
            sw.heads[sh.pv(next_out, vl)] |= 1 << in_port;
            sw.ports[next_out].vl_mask |= 1 << vl;
        }
        if sw.heads[sh.pv(out_port, vl)] == 0 {
            sw.ports[out_port].vl_mask &= !(1 << vl);
        }
        let pref = qp.packet;
        debug_assert_eq!(
            qp.out_port as usize,
            self.route_of(switch, pref),
            "route stored at arrival diverged from the topology's"
        );
        let bytes = self.st.arena.get(pref).bytes;
        // Service time: enforcement lookups + store-and-forward transmit.
        let service = qp.lookup_cycles * CYCLE_TIME + wire_time_ps(bytes as usize);
        let tx_end = now + service;
        self.st.switches[switch].ports[out_port].busy_until = tx_end;
        // A switch downstream holds the packet in a credited buffer; an
        // HCA's receive buffer is modeled as ample, so no credit returns.
        let (arrive, credit) = match peer {
            Peer::Switch {
                switch: next,
                port: next_port,
            } => {
                self.st.switches[switch].out_credits[sh.pv(out_port, vl)] -= 1;
                let arrive = Event::SwitchArrive {
                    switch: next as u32,
                    port: next_port as u32,
                    packet: pref,
                };
                let credit = Event::SwitchCredit {
                    switch: switch as u32,
                    port: out_port as u32,
                    vl: vl as u8,
                };
                (arrive, Some(credit))
            }
            Peer::Hca { node } => {
                let arrive = Event::HcaReceive {
                    node: node as u32,
                    packet: pref,
                };
                (arrive, None)
            }
            Peer::None => unreachable!("routing never selects an edge port"),
        };
        let (link, arrival) = (sh.switch_link(switch, out_port), tx_end + PROPAGATION_DELAY);
        self.cross_link(Origin::Switch(switch), link, pref, arrival, arrive, credit);
        // The input buffer slot frees now: return a credit upstream.
        self.return_credit(switch, in_port, vl as u8);
        // The queue we popped from has a new head that may want a
        // *different* output port — wake that port, or packets behind a
        // departed head would wait for an unrelated arrival (HOL stall).
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
        let at = self.st.now + PROPAGATION_DELAY;
        match self.sh.peer(switch, in_port) {
            Peer::Hca { node } => self.push(
                Origin::Switch(switch),
                at,
                Event::HcaCredit {
                    node: node as u32,
                    vl,
                },
            ),
            Peer::Switch {
                switch: up,
                port: up_port,
            } => self.push(
                Origin::Switch(switch),
                at,
                Event::SwitchCredit {
                    switch: up as u32,
                    port: up_port as u32,
                    vl,
                },
            ),
            Peer::None => {}
        }
    }

    // ------------------------------------------------------------- receiving

    fn on_hca_receive(&mut self, node: usize, pref: PacketRef) {
        let sh = self.sh;
        let now = self.st.now;
        // The HCA is the packet's terminal point on every path below:
        // take it and its side data out and recycle the slots.
        let (packet, side) = self.st.release(pref);
        // Host-injected packets skip the abstract receive path entirely:
        // the wire image goes back to the host, with transit corruption
        // applied as a byte flip (mirroring the point-to-point harness),
        // for the host transport's own VCRC/MAC verification to judge.
        if let Some(Side::Wire(mut bytes)) = side {
            if packet.corrupted && !bytes.is_empty() {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF;
            }
            if packet.vl == 15 {
                self.st.stats.mgmt_delivered += 1;
            } else {
                self.st.delivered += 1;
            }
            self.st.host_inbox.push_back(HostDelivery {
                at: now,
                node,
                bytes,
            });
            return;
        }
        // CRC check before anything else looks at the packet (VCRC/ICRC
        // precede all header processing). The fault layer's corruption is
        // a one-byte flip, which CRC-32 always detects (every burst of
        // ≤ 32 bits), so the flag alone decides.
        if packet.corrupted {
            self.st.stats.corrupt_drops += 1;
            self.class_stats(packet.class).dropped += 1;
            return;
        }
        // Management datagrams: no partition check, no data statistics.
        if packet.vl == 15 {
            self.st.stats.mgmt_delivered += 1;
            if node == SM_NODE {
                if let Some(Side::Trap(trap)) = side {
                    // In-band trap reached the SM: same handling as the
                    // out-of-band TrapDeliver path.
                    self.on_trap_deliver(trap);
                }
                // Trap-less VL15 packets at the SM are the §7 flood: they
                // consumed fabric + SM capacity and are dropped here.
            }
            return;
        }
        // MAC verification stage at the receiver.
        let delivered_at = now + sh.auth_delay;
        let (ok, _) = self.st.hcas[node].table.check(packet.pkey);
        if !ok {
            self.st.stats.hca_blocked += 1;
            // Receive-side P_Key violation: maybe raise a trap (§3.3).
            let reporter = Lid::of_node(node);
            let violator = Lid::of_node(packet.src as usize);
            if let Some(trap) =
                self.st.hcas[node]
                    .throttle
                    .offer(now, reporter, packet.pkey, violator)
            {
                match sh.cfg.trap_transport {
                    TrapTransport::OutOfBand => {
                        let slot = self.st.sides.insert(Side::Trap(trap));
                        self.push(
                            Origin::Node(node),
                            now + TRAP_LATENCY,
                            Event::TrapDeliver { slot },
                        );
                    }
                    TrapTransport::InBand => {
                        let sm = SM_NODE;
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
            self.st.stats.attack.delivered += 1;
            return;
        }
        if packet.flow != NONE {
            let record = &mut self.st.flows[packet.flow as usize];
            record.remaining -= 1;
            if record.remaining == 0 {
                record.completed_at = Some(delivered_at);
            }
        }
        self.st.delivered += 1;
        if packet.gen_time >= sh.cfg.warmup {
            let queuing = packet.inject_time - packet.gen_time;
            let network = delivered_at - packet.inject_time;
            self.class_stats(packet.class).record(queuing, network);
        }
    }
}
// ------------------------------------------------------------------ driver

/// The simulator: one event queue; events pop in `(time, seq)` key order
/// and dispatch into a `Ctx`, whose handlers push what they schedule
/// straight back into it.
pub struct Simulator {
    sh: Shared,
    st: State,
    queue: EventQueue,
}

impl Simulator {
    /// Build the simulation: topology, partition layout, attackers, SM,
    /// and the initial event population.
    pub fn new(cfg: SimConfig) -> Simulator {
        let topo = cfg.build_topology();
        let n = topo.num_nodes();
        let n_sw = topo.num_switches();
        let radix = topo.radix();
        // Arbitration keeps one bit per input port in a `u64`.
        assert!(radix <= 64, "switch radix {radix} exceeds 64 ports");
        let mut sm = SubnetManager::new(
            (0..n).map(|node| topo.host_attachment(node)).collect(),
            (cfg.seed ^ 0x5151).0,
        );
        let peers: Vec<Peer> = (0..n_sw)
            .flat_map(|s| (0..radix).map(move |p| (s, p)))
            .map(|(s, p)| topo.peer(s, p))
            .collect();
        // The master RNG is construction-only (partition layout, attacker
        // placement, attacker keys); every runtime draw comes from a
        // per-node stream so results can't depend on event order.
        let mut rng = cfg.seed.rng();

        // ---- random partitioning into num_partitions groups (base pid + 1) ----
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let per = n.div_ceil(cfg.num_partitions.max(1));
        for (pid, chunk) in order.chunks(per).enumerate() {
            sm.define_partition(PartitionConfig {
                pkey: PKey::full_member(pid as u16 + 1),
                members: chunk.to_vec(),
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
            .map(|_| PKey::full_member(rng.gen_range(0x100..0x7FFF)))
            .collect();

        // ---- switches ----
        let all_pkeys: Vec<PKey> = sm.partitions().iter().map(|p| p.pkey).collect();
        // Ingress filtering is configured per host port: each attachment
        // admits only its node's partition keys.
        let mut if_ports: Vec<Vec<Option<Vec<PKey>>>> = vec![vec![None; radix]; n_sw];
        for (node, &(s, p)) in sm.attachments().iter().enumerate() {
            if_ports[s][p] = Some(sm.pkeys_of(node).collect());
        }
        let switches: Vec<SwitchState> = if_ports
            .into_iter()
            .map(|ports| {
                let enforcement: Box<dyn PartitionEnforcer> = match cfg.enforcement {
                    EnforcementKind::NoFiltering => Box::new(NoEnforcer),
                    EnforcementKind::Dpt => Box::new(DptEnforcer::new(all_pkeys.iter().copied())),
                    EnforcementKind::If => Box::new(IfEnforcer::new(ports)),
                    EnforcementKind::Sif => Box::new(SifEnforcer::new(
                        radix,
                        SIF_IDLE_TIMEOUT,
                        // Cap the invalid table at a small multiple of the
                        // host partition table (paper: stop growing once it
                        // would exceed the partition table; with 1
                        // membership we allow a few entries so multi-key
                        // attackers are still caught).
                        8,
                    )),
                };
                SwitchState {
                    in_q: (0..radix * NUM_VLS).map(|_| VecDeque::new()).collect(),
                    heads: vec![0; radix * NUM_VLS],
                    out_credits: vec![VL_BUFFER_PACKETS; radix * NUM_VLS],
                    ports: vec![OutPort::default(); radix],
                    enforcement,
                    oseq: 0,
                }
            })
            .collect();

        // ---- HCAs ----
        let hcas: Vec<HcaState> = (0..n)
            .map(|node| HcaState {
                send_q: std::array::from_fn(|_| VecDeque::new()),
                queued: [0; NUM_VLS],
                send_mask: 0,
                tx_busy_until: 0,
                inject_pending: false,
                credits: [VL_BUFFER_PACKETS; NUM_VLS],
                table: PartitionTable::from_keys(sm.pkeys_of(node)),
                throttle: TrapThrottle::new(50 * crate::time::US),
                keyed_peers: vec![false; n],
                backoff_skips: 0,
                rng: cfg.seed.stream(node as u64).rng(),
                oseq: 0,
            })
            .collect();

        let mtu_tx = wire_time_ps(cfg.mtu_bytes);
        let auth_delay = match cfg.auth {
            AuthMode::None => 0,
            _ => AUTH_CYCLES_PER_MESSAGE * CYCLE_TIME,
        };
        // One seed stream per directed link, by link index.
        let faults = cfg.fault.is_active().then(|| {
            let fseed = cfg.seed ^ 0xFA17_FA17;
            (0..n + n_sw * radix)
                .map(|i| FaultInjector::new(cfg.fault, fseed.stream(i as u64)))
                .collect()
        });

        let home_pos = (0..n)
            .map(|node| {
                let members = sm.home_members(node);
                members.iter().position(|&m| m == node).unwrap_or(0)
            })
            .collect();
        let attack_windows = if attackers.is_empty() {
            Vec::new()
        } else {
            compute_attack_windows(&cfg)
        };

        let sh = Shared {
            topo,
            n_nodes: n,
            n_switches: n_sw,
            radix,
            peers,
            attackers,
            attacker_pkey,
            mtu_tx,
            auth_delay,
            attack_windows,
            home_pos,
            cfg,
        };
        let st = State {
            now: 0,
            switches,
            hcas,
            sm,
            arena: PacketArena::new(),
            sides: Slab::default(),
            faults,
            stats: SimReport::default(),
            delivered: 0,
            events: [0; EVENT_KINDS.len()],
            sm_oseq: 0,
            flows: Vec::new(),
            host_inbox: VecDeque::new(),
        };
        let mut sim = Simulator {
            sh,
            st,
            queue: EventQueue::new(),
        };
        sim.prime();
        sim
    }

    fn ctx(&mut self) -> Ctx<'_> {
        Ctx {
            sh: &self.sh,
            st: &mut self.st,
            queue: &mut self.queue,
        }
    }

    /// Schedule the initial traffic and the attack-window openers.
    fn prime(&mut self) {
        let mut ctx = self.ctx();
        let sh = ctx.sh;
        for node in 0..sh.n_nodes {
            if sh.attackers.contains(&node) {
                continue; // attacker nodes send only attack traffic (§3.1)
            }
            if sh.cfg.traffic.realtime_load > 0.0 {
                let gap = sh.cfg.interarrival_ps(sh.cfg.traffic.realtime_load) as SimTime;
                let jitter = ctx.st.hcas[node].rng.gen_range(0..gap.max(1));
                ctx.generate_at(node, TrafficClass::Realtime, jitter);
            }
            if sh.cfg.traffic.best_effort_load > 0.0 {
                let mean = sh.cfg.interarrival_ps(sh.cfg.traffic.best_effort_load);
                let gap = exp_gap(&mut ctx.st.hcas[node].rng, mean);
                ctx.generate_at(node, TrafficClass::BestEffort, gap);
            }
        }
        // One opener per attacker per window; the per-MTU Generate chain
        // each opener starts dies at the window's close.
        for &(start, _) in &sh.attack_windows {
            for &a in &sh.attackers {
                ctx.generate_at(a, TrafficClass::Attack, start);
            }
        }
    }

    /// Handle one event, scheduling into the queue directly.
    fn dispatch(&mut self, key: EventKey, ev: Event) {
        debug_assert!(key.time >= self.st.now, "time went backwards");
        self.st.now = key.time;
        self.st.events[ev.kind()] += 1;
        self.ctx().handle(ev);
    }

    /// Run to completion and return the report.
    pub fn run(mut self) -> SimReport {
        self.run_in_place()
    }

    /// Run to completion, also returning the number of events processed
    /// (the `sim_engine` bench divides by wall-clock for events/sec).
    pub fn run_counted(mut self) -> (SimReport, u64) {
        let report = self.run_in_place();
        (report, self.events_processed())
    }

    /// Drain the queue, check the conservation laws (debug builds) and
    /// return the report; the flow records stay readable.
    fn run_in_place(&mut self) -> SimReport {
        while let Some((key, ev)) = self.queue.pop_keyed() {
            self.dispatch(key, ev);
        }
        if cfg!(debug_assertions) {
            self.assert_quiescent();
        }
        self.stats()
    }

    /// The occupancy masks, which hold between any two events: every
    /// head mask equals a recount from the input queues' fronts, every
    /// port's VL mask a recount from its head masks, and every HCA's
    /// send mask and per-VL packet counts a recount from its send queues
    /// (a flow entry counts its packets not yet cut).
    fn assert_masks(&self) {
        let sh = &self.sh;
        for (s, sw) in self.st.switches.iter().enumerate() {
            let mut recount = vec![0u64; sw.heads.len()];
            for (i, q) in sw.in_q.iter().enumerate() {
                if let Some(head) = q.front() {
                    recount[sh.pv(head.out_port as usize, i / sh.radix)] |= 1 << (i % sh.radix);
                }
            }
            assert_eq!(sw.heads, recount, "switch {s}: head masks drifted");
            for (p, port) in sw.ports.iter().enumerate() {
                let vl_recount: u16 = (0..NUM_VLS)
                    .filter(|&vl| recount[sh.pv(p, vl)] != 0)
                    .map(|vl| 1 << vl)
                    .sum();
                assert_eq!(port.vl_mask, vl_recount, "switch {s}: VL masks drifted");
            }
        }
        for (node, hca) in self.st.hcas.iter().enumerate() {
            let recount: u16 = (0..NUM_VLS)
                .filter(|&vl| !hca.send_q[vl].is_empty())
                .map(|vl| 1 << vl)
                .sum();
            assert_eq!(hca.send_mask, recount, "node {node}: send mask drifted");
            let packets = hca.send_q.each_ref().map(|q| {
                q.iter()
                    .map(|&(entry, _)| match entry {
                        SendEntry::Packet(_) => 1,
                        SendEntry::Flow(f) => self.st.flows[f as usize].uncut,
                    })
                    .sum::<u32>()
            });
            assert_eq!(hca.queued, packets, "node {node}: queued counts drifted");
        }
    }

    /// The conservation laws, checked in debug/test builds once a run
    /// has drained its queue (no credit event or packet is then in
    /// flight): the occupancy masks ([`assert_masks`](Self::assert_masks)),
    /// each link's sender-side credits plus the receiving input queue's
    /// occupancy equal `VL_BUFFER_PACKETS`, the arena holds no live
    /// packet and the side slab no trap or wire image, and every
    /// generated packet met
    /// exactly one terminal outcome (a class drop, an attack or
    /// management delivery, an HCA P_Key block, or a legitimate or
    /// host-hook delivery).
    fn assert_quiescent(&self) {
        self.assert_masks();
        let (sh, st) = (&self.sh, &self.st);
        let full = VL_BUFFER_PACKETS as usize;
        for (s, sw) in st.switches.iter().enumerate() {
            for port in 0..sh.radix {
                let Peer::Switch {
                    switch: next,
                    port: next_port,
                } = sh.peer(s, port)
                else {
                    continue;
                };
                for vl in 0..NUM_VLS {
                    assert_eq!(
                        sw.out_credits[sh.pv(port, vl)] as usize
                            + st.switches[next].in_q[sh.pv(next_port, vl)].len(),
                        full,
                        "switch {s} port {port} VL {vl}: credits leaked or duplicated"
                    );
                }
            }
        }
        for (node, &(s, port)) in st.sm.attachments().iter().enumerate() {
            for vl in 0..NUM_VLS {
                assert_eq!(
                    st.hcas[node].credits[vl] as usize + st.switches[s].in_q[sh.pv(port, vl)].len(),
                    full,
                    "node {node} VL {vl}: host-link credits leaked or duplicated"
                );
            }
        }
        assert_eq!(st.arena.live(), 0, "packets left in flight");
        assert_eq!(st.sides.live(), 0, "side slots left filled");
        let r = &st.stats;
        assert_eq!(
            r.generated,
            r.realtime.dropped
                + r.best_effort.dropped
                + r.attack.dropped
                + r.attack.delivered
                + r.mgmt_delivered
                + r.hca_blocked
                + st.delivered,
            "packet ledger: generated vs terminal outcomes"
        );
    }

    // ------------------------------------------------------------- host hook

    /// Inject a real wire image at the HCA of `src`, addressed to `dst`'s
    /// HCA on virtual lane `vl`. The packet competes with the simulator's
    /// own traffic for the host link, credits and VL arbitration, crosses
    /// the mesh hop by hop, and is exposed to the fault layer like any
    /// other packet: a link drop counts in `link_drops` (and the
    /// best-effort class drops), corruption flips a byte and the delivery
    /// still happens — the host transport's CRC/MAC decides its fate.
    /// No receive-side P_Key or corruption check runs on the abstract
    /// path; the bytes themselves carry those protections.
    ///
    /// Posting on VL 15 marks the packet `TrafficClass::Management` —
    /// the subnet-management lane MADs ride on. VL arbitration scans
    /// lanes highest-first, so management datagrams (heartbeats, election
    /// claims, key updates) preempt data traffic at every hop instead of
    /// queueing behind it — the property that keeps failover and
    /// re-keying latency bounded under load.
    pub fn post_host(&mut self, src: usize, dst: usize, vl: u8, bytes: Vec<u8>) {
        let now = self.st.now;
        assert!(src < self.sh.n_nodes && dst < self.sh.n_nodes);
        let pkey = self.st.sm.pkey_of(src);
        let class = if vl == 15 {
            TrafficClass::Management
        } else {
            TrafficClass::BestEffort
        };
        let len = u32::try_from(bytes.len()).expect("a wire image fits u32 bytes");
        let packet = SimPacket {
            side: self.st.sides.insert(Side::Wire(bytes)),
            ..SimPacket::new(src, dst, class, pkey, vl, len, now)
        };
        self.ctx().enqueue_new(packet, now);
    }

    /// Advance the simulation until a host delivery is ready, the event
    /// horizon `limit` is reached, or the queue drains — whichever comes
    /// first. Returns the new simulation time, which never exceeds the
    /// first pending delivery's time and never regresses. The event popped
    /// past `limit` goes back into the queue under its own key.
    pub fn run_hosts_until(&mut self, limit: SimTime) -> SimTime {
        while self.st.host_inbox.is_empty() {
            let Some((key, ev)) = self.queue.pop_keyed() else {
                self.st.now = self.st.now.max(limit);
                break;
            };
            if key.time > limit {
                // The queue files a key behind its cursor exactly and
                // `(time, seq)` is unique, so the next pop returns this
                // event in global order, after anything posted at `limit`.
                self.queue.push_keyed(key.time, key.seq, ev);
                self.st.now = self.st.now.max(limit);
                break;
            }
            self.dispatch(key, ev);
        }
        self.st.now
    }

    /// Pop the oldest pending host delivery, if any.
    pub fn take_host_delivery(&mut self) -> Option<HostDelivery> {
        self.st.host_inbox.pop_front()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.st.now
    }

    /// Events handled so far (the scale experiments' cost denominator).
    pub fn events_processed(&self) -> u64 {
        self.st.events.iter().sum()
    }

    /// Events handled so far, per [`Event`] kind, by kind name (the mix
    /// behind [`events_processed`](Self::events_processed), which is
    /// their sum).
    pub fn events_by_kind(&self) -> [(&'static str, u64); EVENT_KINDS.len()] {
        std::array::from_fn(|k| (EVENT_KINDS[k], self.st.events[k]))
    }

    /// The report accumulated so far (final numbers come from
    /// [`run`](Self::run); this view serves co-simulation drivers).
    pub fn stats(&self) -> SimReport {
        let mut report = self.st.stats.clone();
        report.traps = self.st.sm.traps_handled;
        report.backoff_skips = self.st.hcas.iter().map(|h| h.backoff_skips).sum();
        let duration = self.sh.cfg.duration;
        report.attack_active_fraction = if duration > 0 {
            let active: SimTime = self
                .sh
                .attack_windows
                .iter()
                .map(|&(s, e)| e.min(duration).saturating_sub(s))
                .sum();
            active as f64 / duration as f64
        } else {
            0.0
        };
        report
    }

    /// The fabric this simulator runs on.
    pub fn topology(&self) -> &dyn Topology {
        &*self.sh.topo
    }

    /// The most packets alive at once so far: the packet arena's
    /// high-water mark, a deterministic peak-memory proxy (the same
    /// number on every same-seed run, unlike RSS). A generated packet is
    /// alive from generation, a posted flow's packet only from its
    /// injection: until then the flow is one send-queue entry. Each
    /// packet is a 48-byte arena slot; host wire images and in-band traps
    /// take side-slab slots besides.
    pub fn peak_packets(&self) -> usize {
        self.st.arena.capacity()
    }

    /// Post a finite `bytes`-sized transfer from `src` to `dst`: the flow
    /// joins `src`'s best-effort send queue as one entry, and each MTU
    /// packet (the last one the remainder, a 0-byte flow one 1-byte
    /// packet) is cut off it when injected, stamped with `src`'s
    /// partition key and the post time — contending with everything else
    /// for credits, arbitration and link capacity. All its packets count
    /// as generated now. Returns the flow's index into
    /// [`flows`](Self::flows). The flow completes (its record gains
    /// `completed_at`) when the last packet is delivered at `dst`'s HCA;
    /// cross-partition flows never complete (the receive P_Key check
    /// blocks them), so scale experiments run one partition.
    pub fn post_flow(&mut self, src: usize, dst: usize, bytes: u64) -> usize {
        let now = self.st.now;
        let sh = &self.sh;
        assert!(src < sh.n_nodes && dst < sh.n_nodes && src != dst);
        let flow = self.st.flows.len() as u32;
        let mtu = sh.cfg.mtu_bytes as u64;
        let npkts = bytes.div_ceil(mtu).max(1);
        let packets = u32::try_from(npkts).expect("a flow's packet count fits u32");
        self.st.stats.generated += npkts;
        self.st.flows.push(FlowRecord {
            posted_at: now,
            completed_at: None,
            remaining: packets,
            uncut: packets,
            dst: dst as u32,
            last_bytes: (bytes - (npkts - 1) * mtu).max(1) as u32,
        });
        let vl = TrafficClass::BestEffort.vl() as usize;
        self.st.hcas[src].enqueue(vl, SendEntry::Flow(flow), packets, now);
        self.ctx().schedule_inject(src, now);
        flow as usize
    }

    /// Flow records in posting order (see [`post_flow`](Self::post_flow)).
    pub fn flows(&self) -> &[FlowRecord] {
        &self.st.flows
    }
}

/// The serial engine under the name the frozen benchmark package calls
/// it by; the thread count is unused. ROADMAP item 1 deletes it with
/// that package's last call.
pub struct ParSimulator(Simulator);

impl ParSimulator {
    /// [`Simulator::new`]; `_threads` is ignored.
    pub fn with_threads(cfg: SimConfig, _threads: usize) -> ParSimulator {
        ParSimulator(Simulator::new(cfg))
    }

    /// [`Simulator::post_flow`].
    pub fn post_flow(&mut self, src: usize, dst: usize, bytes: u64) -> usize {
        self.0.post_flow(src, dst, bytes)
    }

    /// [`Simulator::run`], keeping the flow records readable.
    pub fn run(&mut self) -> SimReport {
        self.0.run_in_place()
    }

    /// [`Simulator::events_processed`].
    pub fn events_processed(&self) -> u64 {
        self.0.events_processed()
    }

    /// [`Simulator::peak_packets`].
    pub fn peak_packets(&self) -> usize {
        self.0.peak_packets()
    }

    /// [`Simulator::flows`].
    pub fn flows(&self) -> &[FlowRecord] {
        self.0.flows()
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
        // With sources active, stopping at a horizon and resuming must
        // leave the whole run bit-identical. A host packet posted at a
        // horizon lands behind the event popped past it. The reference
        // stops only at deliveries and at the 100 µs post times; the
        // interrupted run also stops every 7 µs in between, and both post
        // the same packets at the same times.
        let run = |step: SimTime| {
            let mut sim = Simulator::new(quick_cfg());
            let dst = sim.topology().num_nodes() - 1;
            let mut delivered = Vec::new();
            for k in 1..=30u8 {
                let post_at = SimTime::from(k) * 100 * US;
                while sim.now() < post_at {
                    sim.run_hosts_until((sim.now() + step).min(post_at));
                    while let Some(d) = sim.take_host_delivery() {
                        delivered.push((d.at, d.bytes));
                    }
                }
                sim.post_host(0, dst, 1, vec![k; 64]);
            }
            let (report, events) = sim.run_counted();
            (report.to_json().to_string(), events, delivered)
        };
        let reference = run(100 * US);
        assert_eq!(
            reference.2.len(),
            29,
            "every host packet but the last drained"
        );
        assert_eq!(run(7 * US), reference);
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
    /// every topology and under wire loss, and every side slot is free
    /// again, host packets lost on a link included; debug builds also
    /// cross-check every grant's stored route against the topology.
    #[test]
    fn switch_state_is_conserved_on_every_topology() {
        for topology in [
            crate::config::TopoSpec::Mesh,
            crate::config::TopoSpec::FatTree { k: 4 },
        ] {
            let mut cfg = quick_cfg();
            cfg.topology = topology;
            cfg.fault.drop_prob = 0.02;
            let mut sim = Simulator::new(cfg);
            let n = sim.topology().num_nodes();
            for i in 0..400 {
                sim.post_host(i % n, (i + 1 + i / n) % n, [0, 1, 15][i % 3], vec![7; 64]);
            }
            let report = sim.run_in_place();
            assert!(report.best_effort.delivered > 100, "{topology:?}");
            assert!(report.link_drops > 0, "{topology:?}");
            sim.assert_quiescent();
        }
    }

    /// The occupancy masks equal their recounts between events, not only
    /// once a run drains (when every queue is empty): stopped every
    /// microsecond on the mesh and the fat-tree, under attack with
    /// in-band traps, wire loss and flows being cut.
    #[test]
    fn occupancy_masks_hold_mid_run() {
        for topology in [
            crate::config::TopoSpec::Mesh,
            crate::config::TopoSpec::FatTree { k: 4 },
        ] {
            let mut cfg = quick_cfg();
            cfg.topology = topology;
            cfg.duration = MS;
            cfg.traffic.realtime_load = 0.4;
            cfg.traffic.best_effort_load = 0.4;
            cfg.num_attackers = 2;
            cfg.attack_probability = 1.0;
            cfg.enforcement = EnforcementKind::Sif;
            cfg.trap_transport = crate::config::TrapTransport::InBand;
            cfg.fault.drop_prob = 0.01;
            let mut sim = Simulator::new(cfg);
            let n = sim.topology().num_nodes();
            for src in 0..4 {
                sim.post_flow(src, (src + 5) % n, 16 * 1024);
            }
            let mut busy = 0;
            while sim.now() < MS {
                sim.run_hosts_until(sim.now() + US);
                sim.assert_masks();
                busy += usize::from(
                    sim.st
                        .switches
                        .iter()
                        .any(|sw| sw.ports.iter().any(|p| p.vl_mask.count_ones() > 1)),
                );
            }
            assert!(busy > 0, "{topology:?}: no port ever had two VLs bidding");
            sim.run_hosts_until(SimTime::MAX);
            sim.assert_quiescent();
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
    fn non_mesh_fabrics_are_deterministic() {
        let run = || {
            let mut cfg = quick_cfg();
            cfg.topology = crate::config::TopoSpec::FatTree { k: 4 };
            Simulator::new(cfg).run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.realtime.delivered, b.realtime.delivered);
        assert!((a.legit_queuing_mean() - b.legit_queuing_mean()).abs() < 1e-12);
    }

    #[test]
    fn flows_complete_on_every_topology() {
        for topology in [
            crate::config::TopoSpec::Mesh,
            crate::config::TopoSpec::FatTree { k: 4 },
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
            // Drain the event queue in place so the flow records stay
            // readable afterwards.
            sim.run_hosts_until(SimTime::MAX);
            // Packets are cut off their flows at injection, so the peak
            // stays below the 10 packets × n posted.
            assert!(sim.peak_packets() > 0);
            if topology == (crate::config::TopoSpec::FatTree { k: 4 }) {
                assert!(sim.peak_packets() < 10 * n, "peak {}", sim.peak_packets());
            }
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
