//! The fig_rekey disruption experiment: many concurrent RC flows cross
//! the mesh while the replicated key plane rotates the partition secret
//! underneath them.
//!
//! The co-simulation extends `ib_transport::fabric::run_fabric_sim` from
//! one flow to a fleet (see "How the loop is scheduled" below for what
//! that takes at 1024 QPs), and adds three actors:
//!
//! * **SM replicas** ([`SmReplica`]) on the first `replicas` nodes,
//!   heartbeating and rotating over VL-15 MADs posted through the same
//!   [`Simulator::post_host`] path the data plane uses. Key updates reach
//!   each member CA as toy-RSA envelopes; the harness opens them with the
//!   node's private key and installs the epoch into every endpoint
//!   resident on that node ([`SecureRcEndpoint::install_epoch`]).
//! * **A leader-kill fault** — at `kill_leader_at` the current leader
//!   goes silent; the staggered election elects the next rank, whose
//!   healing rotation supersedes any partially distributed epoch.
//!   Recovery is measured from the kill to the instant the new leader's
//!   distribution is fully acked.
//! * **A stale-epoch attacker** — captures data packets at one victim
//!   node and re-injects them after `stale_delay`. Chosen longer than
//!   `rotation_period + grace`, every re-injection names a retired epoch
//!   and must be rejected by the epoch layer (counted in
//!   `rejected_stale_epoch`), never admitted fresh.
//!
//! Re-keying is *lazy*: senders stamp the newest installed epoch on each
//! (re)transmission, receivers honour the previous epoch for the grace
//! window, and packets caught mid-rotation heal through ordinary RC
//! retransmission — so 100% eventual delivery holds through rotations
//! and failover. Everything is bit-deterministic in `seed`.
//!
//! ## How the loop is scheduled
//!
//! Each step speaks for the hosts at `now` (kill, attacker, paced posts,
//! replicas, endpoints), picks the next interesting instant, runs the
//! fabric to it or to the first host delivery, and hands the deliveries
//! to their owners. The work in a step follows what happened in it, not
//! the size of the fleet: a **wake set** (`WakeSet`) names the endpoints
//! to poll, a min-heap of `(post_at, flow)` paces the posting, completion
//! is a count of finished flows and failure a sticky flag, and a delivery
//! finds its flow as `dest_qp - REKEY_QPN0`. An endpoint is woken by
//! exactly three things — a verb posted on it, a wire buffer handed to
//! it, its own cached `next_deadline()` coming due (a lazily invalidated
//! timer heap) — and a pass polls the woken ones in ascending
//! `2 * flow + side` order, the order in which a sweep over every
//! endpoint would post their packets.
//!
//! Polling only the woken endpoints is exact, not approximate — the
//! report is byte-identical to that of a loop polling every endpoint on
//! every step — because:
//!
//! 1. [`SecureRcEndpoint::poll_into`] changes nothing unless a verb was
//!    posted, `handle_wire` ran, or the QP's `next_deadline()` came due
//!    since the last poll: the retransmission timeout (`on_timeout`), the
//!    delayed ACK (`poll_ack`) and `poll_tx`'s RNR back-off are that
//!    deadline; its rewound resend cursor, queued selective-repeat
//!    retransmits and opened window are consequences of an arrival or a
//!    timeout; its pending queue grows only by a post.
//! 2. The only other effect of a poll, `channel.advance_time(now)`, is
//!    also the first statement of `handle_wire` — the only place a
//!    retired epoch is observable — and of `install_epoch`, so key
//!    versions retire before anything can look at them whether or not
//!    the endpoint is ever polled again.
//! 3. A post only enqueues into the QP; the requester's poll in the same
//!    step is what reaches the fabric, so when inside a step (and in
//!    which flow order) the posts happen is invisible to it.
//!
//! Both halves are gated: `tests/golden/rekey/*.json` holds six lossy,
//! RNR-storming, retry-exhausting reports produced by a loop that swept
//! the whole fleet on every step (`tests/rekey_golden.rs` compares byte
//! for byte), and the unit tests bound the private `run_counted`'s poll
//! count by the run's activity.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ib_crypto::toyrsa::{generate_keypair, PrivateKey};
use ib_mgmt::{KeyEpoch, SecretKey};
use ib_packet::mad::Mad;
use ib_packet::types::{Lid, PKey, Qpn};
use ib_packet::{Operation, Packet};
use ib_runtime::{Json, Seed, ToJson};
use ib_security::ChannelSecurity;
use ib_sim::time::{ps_to_us, MS, US};
use ib_sim::{SimConfig, SimTime, Simulator};
use ib_transport::{RcConfig, SecureRcEndpoint};

use crate::replica::{CaMember, PeerReplica, ReplicaConfig, SmReplica};
use crate::wire::{mad_packet, parse_mad_packet, SmMessage, MGMT_VL, SM_QPN};

/// After the last flow completes, keep the fabric running this long so
/// pending stale re-injections still get judged.
const DRAIN_GRACE: SimTime = MS;

/// The single partition every flow lives in.
const REKEY_PKEY: PKey = PKey(0x8001);

/// First data QPN; flow `i` uses `REKEY_QPN0 + i`.
const REKEY_QPN0: u32 = 8;

/// Everything one fig_rekey point needs to reproduce itself.
#[derive(Debug, Clone)]
pub struct RekeyConfig {
    /// Master seed: fabric, secrets, keypairs.
    pub seed: u64,
    /// Security arm of the data channels.
    pub security: ChannelSecurity,
    /// Concurrent RC flows (each one requester + one responder QP).
    pub flows: usize,
    /// Messages each flow posts.
    pub messages: usize,
    /// Payload bytes per message (≥ 8; the first 8 carry the index).
    pub payload_len: usize,
    /// Pacing between a flow's posts (spreads traffic across rotations).
    pub post_interval: SimTime,
    /// SM replica-group size; replicas live on nodes `0..replicas`.
    pub replicas: usize,
    /// Leader rotates the partition secret this often (0 = never).
    pub rotation_period: SimTime,
    /// Receive-side grace window: how long the previous epoch still
    /// verifies after the next one is installed (0 = hard cutover).
    pub grace: SimTime,
    /// Kill the current leader at this instant (0 = no fault).
    pub kill_leader_at: SimTime,
    /// Attacker captures every n-th data packet at the victim (0 = off).
    pub stale_every: u64,
    /// Capture-to-reinjection delay; set beyond `rotation_period +
    /// grace` so replays arrive under a retired epoch.
    pub stale_delay: SimTime,
    /// Virtual lane the data flows ride (MADs always ride VL 15).
    pub vl: u8,
    /// Transport knobs shared by all flows.
    pub rc: RcConfig,
    /// Replay-window depth.
    pub replay_window: u32,
    /// Goodput-timeline bucket width.
    pub bucket: SimTime,
    /// Safety valve: give up past this simulated instant.
    pub max_sim_time: SimTime,
    /// The fabric underneath (mesh size, background load, faults).
    pub sim: SimConfig,
}

impl Default for RekeyConfig {
    fn default() -> Self {
        RekeyConfig {
            seed: 1,
            security: ChannelSecurity::AuthReplay,
            flows: 8,
            messages: 24,
            payload_len: 256,
            post_interval: 25 * US,
            replicas: 3,
            rotation_period: 150 * US,
            grace: 100 * US,
            kill_leader_at: 0,
            stale_every: 4,
            stale_delay: 600 * US,
            vl: 1,
            rc: RcConfig::default(),
            replay_window: 64,
            bucket: 100 * US,
            max_sim_time: 500 * MS,
            sim: SimConfig::default(),
        }
    }
}

impl RekeyConfig {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.to_json()),
            ("security", self.security.label().to_json()),
            ("flows", (self.flows as u64).to_json()),
            ("messages", (self.messages as u64).to_json()),
            ("payload_len", (self.payload_len as u64).to_json()),
            ("post_interval_ps", self.post_interval.to_json()),
            ("replicas", (self.replicas as u64).to_json()),
            ("rotation_period_ps", self.rotation_period.to_json()),
            ("grace_ps", self.grace.to_json()),
            ("kill_leader_at_ps", self.kill_leader_at.to_json()),
            ("stale_every", self.stale_every.to_json()),
            ("stale_delay_ps", self.stale_delay.to_json()),
            ("vl", u64::from(self.vl).to_json()),
            ("rc", self.rc.to_json()),
            ("replay_window", self.replay_window.to_json()),
            ("bucket_ps", self.bucket.to_json()),
            ("max_sim_time_ps", self.max_sim_time.to_json()),
            ("sim", self.sim.to_json()),
        ])
    }
}

/// One fig_rekey data point.
#[derive(Debug, Clone)]
pub struct RekeyReport {
    /// Unique messages completed across all flows.
    pub delivered: u64,
    /// Messages posted across all flows.
    pub expected: u64,
    /// Any endpoint exhausted its retries.
    pub failed: bool,
    /// Run hit `max_sim_time` before completing.
    pub timed_out: bool,
    /// Instant the last flow completed (excludes the drain tail), µs.
    pub completion_us: f64,
    /// Unique completed payload bits over the completion time.
    pub goodput_gbps: f64,
    /// Rotations leaders performed (bring-up leader + successors).
    pub rotations: u64,
    /// Highest epoch any CA node installed.
    pub final_epoch: u64,
    /// Key-update MADs leaders sent (including resends).
    pub key_updates_tx: u64,
    /// Key-update acks leaders received.
    pub key_update_acks_rx: u64,
    /// Replica-mirroring MADs leaders sent.
    pub replicates_tx: u64,
    /// Heartbeat MADs sent.
    pub heartbeats_tx: u64,
    /// Leader-claim MADs sent.
    pub claims_tx: u64,
    /// Elections won (0 unless the leader was killed).
    pub takeovers: u64,
    /// Leaders killed by fault injection.
    pub leader_kills: u64,
    /// Observed changes of the acting leader.
    pub leader_changes: u64,
    /// Kill-to-fully-redistributed time (0 if no kill), µs.
    pub time_to_recover_us: f64,
    /// Unique deliveries per `bucket`-wide time slot.
    pub buckets: Vec<u64>,
    /// Bucket width, µs.
    pub bucket_us: f64,
    /// min/mean delivery rate over interior buckets (1.0 = no dip).
    pub goodput_dip_frac: f64,
    /// Stale packets the attacker re-injected.
    pub stale_injected: u64,
    /// Attacker packets admitted fresh — must stay 0.
    pub stale_admitted: u64,
    /// Packets rejected because their epoch was retired (past grace).
    pub rejected_stale_epoch: u64,
    /// Packets rejected because their epoch was not yet installed
    /// (receiver ahead of sender; healed by retransmission).
    pub rejected_future_epoch: u64,
    /// Packets failing MAC/ICRC outright.
    pub rejected_auth: u64,
    /// Packets behind the PSN replay window.
    pub rejected_stale_psn: u64,
    /// Duplicates the replay windows suppressed.
    pub dup_suppressed: u64,
    /// Requester-side retransmissions across all flows.
    pub retransmits: u64,
    /// Completions whose payload failed verification.
    pub payload_mismatches: u64,
    /// Already-completed messages surfaced again.
    pub duplicates_delivered: u64,
    /// VL-15 management datagrams the fabric delivered.
    pub mgmt_delivered: u64,
    /// Total packets the fabric generated.
    pub fabric_generated: u64,
}

impl RekeyReport {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("delivered", self.delivered.to_json()),
            ("expected", self.expected.to_json()),
            ("failed", self.failed.to_json()),
            ("timed_out", self.timed_out.to_json()),
            ("completion_us", self.completion_us.to_json()),
            ("goodput_gbps", self.goodput_gbps.to_json()),
            ("rotations", self.rotations.to_json()),
            ("final_epoch", self.final_epoch.to_json()),
            ("key_updates_tx", self.key_updates_tx.to_json()),
            ("key_update_acks_rx", self.key_update_acks_rx.to_json()),
            ("replicates_tx", self.replicates_tx.to_json()),
            ("heartbeats_tx", self.heartbeats_tx.to_json()),
            ("claims_tx", self.claims_tx.to_json()),
            ("takeovers", self.takeovers.to_json()),
            ("leader_kills", self.leader_kills.to_json()),
            ("leader_changes", self.leader_changes.to_json()),
            ("time_to_recover_us", self.time_to_recover_us.to_json()),
            (
                "buckets",
                Json::arr(self.buckets.iter().map(|b| b.to_json())),
            ),
            ("bucket_us", self.bucket_us.to_json()),
            ("goodput_dip_frac", self.goodput_dip_frac.to_json()),
            ("stale_injected", self.stale_injected.to_json()),
            ("stale_admitted", self.stale_admitted.to_json()),
            ("rejected_stale_epoch", self.rejected_stale_epoch.to_json()),
            (
                "rejected_future_epoch",
                self.rejected_future_epoch.to_json(),
            ),
            ("rejected_auth", self.rejected_auth.to_json()),
            ("rejected_stale_psn", self.rejected_stale_psn.to_json()),
            ("dup_suppressed", self.dup_suppressed.to_json()),
            ("retransmits", self.retransmits.to_json()),
            ("payload_mismatches", self.payload_mismatches.to_json()),
            ("duplicates_delivered", self.duplicates_delivered.to_json()),
            ("mgmt_delivered", self.mgmt_delivered.to_json()),
            ("fabric_generated", self.fabric_generated.to_json()),
        ])
    }
}

/// Deterministic message payload: 8-byte LE index + patterned fill
/// (mirrors the transport harness's convention).
fn payload_for(i: usize, len: usize) -> Vec<u8> {
    let mut p = vec![0u8; len];
    p[..8].copy_from_slice(&(i as u64).to_le_bytes());
    for (k, byte) in p.iter_mut().enumerate().skip(8) {
        *byte = (i as u8).wrapping_mul(31).wrapping_add(k as u8);
    }
    p
}

/// One RC flow: requester `a` on `src`, responder `b` on `dst`.
struct Flow {
    src: usize,
    dst: usize,
    qpn: Qpn,
    a: SecureRcEndpoint,
    b: SecureRcEndpoint,
    /// Messages posted so far (paced).
    posted: usize,
    /// This flow's pacing phase offset.
    offset: SimTime,
    seen: Vec<bool>,
    delivered: u64,
    duplicates: u64,
    mismatches: u64,
    /// [`Self::complete_flow`] as of the last poll of either endpoint.
    complete: bool,
}

impl Flow {
    fn post_at(&self, k: usize, interval: SimTime) -> SimTime {
        self.offset + interval * k as SimTime
    }

    fn complete_flow(&self, messages: usize) -> bool {
        self.posted == messages && self.delivered == messages as u64 && self.a.tx_idle()
    }
}

/// A min-heap of `(instant, index)`.
type TimeHeap = BinaryHeap<Reverse<(SimTime, usize)>>;

/// The endpoints the next poll pass must visit, and the instant the fleet
/// next needs a timer wake-up. Endpoint id = `2 * flow + side`
/// (0 = requester `a`, 1 = responder `b`).
struct WakeSet {
    /// Each endpoint's exact `next_deadline()` as of its last poll, `None`
    /// once [`Self::take_pass`] has consumed it. An entry of `timers` is
    /// live iff it equals this; stale ones are dropped when met.
    deadline: Vec<Option<SimTime>>,
    timers: TimeHeap,
    /// Endpoints woken since the last pass, de-duplicated by `queued`.
    ready: Vec<usize>,
    queued: Vec<bool>,
}

impl WakeSet {
    fn new(endpoints: usize) -> Self {
        WakeSet {
            deadline: vec![None; endpoints],
            timers: TimeHeap::new(),
            ready: Vec::new(),
            queued: vec![false; endpoints],
        }
    }

    /// Something happened to endpoint `id` (a post, an arrival, a due
    /// timer): the next pass polls it.
    fn wake(&mut self, id: usize) {
        if !std::mem::replace(&mut self.queued[id], true) {
            self.ready.push(id);
        }
    }

    /// The earliest live timer, dropping stale heap tops on the way.
    fn next_timer(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, id))) = self.timers.peek() {
            if self.deadline[id] == Some(t) {
                return Some(t);
            }
            self.timers.pop();
        }
        None
    }

    /// Move into `pass` every endpoint woken since the last pass plus
    /// every one whose timer is due at `now`, in ascending id order —
    /// requester before responder, flows ascending: the `post_host` order
    /// of a sweep over the whole fleet, and with it every intrinsic event
    /// key in `ib-sim`.
    fn take_pass(&mut self, now: SimTime, pass: &mut Vec<usize>) {
        while self.next_timer().is_some_and(|t| t <= now) {
            let Reverse((_, id)) = self.timers.pop().expect("peeked above");
            self.deadline[id] = None;
            self.wake(id);
        }
        pass.clear();
        pass.append(&mut self.ready);
        pass.sort_unstable();
    }

    /// Endpoint `id` was just polled and now reports `deadline`.
    fn polled(&mut self, id: usize, deadline: Option<SimTime>) {
        self.queued[id] = false;
        if self.deadline[id] != deadline {
            self.deadline[id] = deadline;
            if let Some(t) = deadline {
                self.timers.push(Reverse((t, id)));
            }
        }
    }
}

/// Deterministic counters of one run that only the tests read: the
/// cost-follows-activity gate and the keyed-MAC cache bound. Not part of
/// [`RekeyReport`].
#[derive(Debug, Clone, Copy, Default)]
struct LoopCounts {
    /// Co-simulation loop iterations.
    steps: u64,
    /// [`SecureRcEndpoint::poll_into`] calls.
    polls: u64,
    /// Keyed MACs still cached at the end of the run beyond each
    /// channel's live key versions, summed over all channels.
    stale_macs: u64,
}

/// Run one fig_rekey point (see module docs).
pub fn run_rekey_sim(cfg: &RekeyConfig) -> RekeyReport {
    run_counted(cfg).0
}

fn run_counted(cfg: &RekeyConfig) -> (RekeyReport, LoopCounts) {
    assert!(cfg.payload_len >= 8, "payload must hold the 8-byte index");
    assert!(
        (1..=8).contains(&cfg.replicas),
        "replica group must be 1..=8"
    );
    let nodes = cfg.sim.num_nodes();
    let ca_nodes = nodes - cfg.replicas;
    assert!(ca_nodes >= 2, "need at least two CA nodes for flows");
    assert!(cfg.flows >= 1 && cfg.messages >= 1);

    let mut sim_cfg = cfg.sim.clone();
    sim_cfg.seed = Seed(cfg.seed);
    let mut sim = Simulator::new(sim_cfg);

    // --- Key material ------------------------------------------------
    // Epoch-0 partition secret, agreed at bring-up; per-node toy-RSA
    // keypairs the SM seals key updates to.
    let secret0 = SecretKey::from_seed(cfg.seed ^ 0x005E_C2E7);
    let node_keys: Vec<(ib_crypto::toyrsa::PublicKey, PrivateKey)> = (0..nodes)
        .map(|n| generate_keypair(cfg.seed ^ ((n as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))))
        .collect();

    // --- Data-plane flows --------------------------------------------
    let mut flows: Vec<Flow> = (0..cfg.flows)
        .map(|i| {
            let src = cfg.replicas + (i % ca_nodes);
            let mut dst = cfg.replicas + ((i + 1 + i / ca_nodes) % ca_nodes);
            if dst == src {
                dst = cfg.replicas + ((dst - cfg.replicas + 1) % ca_nodes);
            }
            let qpn = Qpn(REKEY_QPN0 + i as u32);
            let make = |lid, peer| {
                let mut ep = SecureRcEndpoint::new(
                    cfg.security,
                    REKEY_PKEY,
                    secret0,
                    cfg.replay_window,
                    cfg.rc,
                    lid,
                    peer,
                    qpn,
                );
                ep.set_epoch_grace(cfg.grace);
                ep
            };
            let (sl, dl) = (Lid(src as u16 + 1), Lid(dst as u16 + 1));
            Flow {
                src,
                dst,
                qpn,
                a: make(sl, dl),
                b: make(dl, sl),
                posted: 0,
                offset: cfg.post_interval * i as SimTime / cfg.flows as SimTime,
                seen: vec![false; cfg.messages],
                delivered: 0,
                duplicates: 0,
                mismatches: 0,
                complete: false,
            }
        })
        .collect();

    // --- SM replica group --------------------------------------------
    let mut member_nodes: Vec<usize> = flows.iter().flat_map(|f| [f.src, f.dst]).collect();
    member_nodes.sort_unstable();
    member_nodes.dedup();
    let members: Vec<CaMember> = member_nodes
        .iter()
        .map(|&n| CaMember {
            node: n,
            pubkey: node_keys[n].0,
        })
        .collect();
    let mut replicas: Vec<SmReplica> = (0..cfg.replicas)
        .map(|id| {
            let peers = (0..cfg.replicas)
                .filter(|&p| p != id)
                .map(|p| PeerReplica {
                    id: p as u8,
                    node: p,
                    pubkey: node_keys[p].0,
                })
                .collect();
            let rcfg = ReplicaConfig {
                id: id as u8,
                node: id,
                key_seed: cfg.seed ^ ((id as u64 + 1) << 40),
                rotation_period: cfg.rotation_period,
                ..ReplicaConfig::default()
            };
            let mut r = SmReplica::new(rcfg, peers, members.clone(), node_keys[id].1);
            r.bootstrap_partition(REKEY_PKEY, secret0);
            r
        })
        .collect();

    // --- Attacker ----------------------------------------------------
    let victim = flows[0].dst;
    let victim_qpn = flows[0].qpn;
    let attack_node = (cfg.replicas..nodes)
        .find(|&n| n != victim && n != flows[0].src)
        .unwrap_or(flows[0].src);

    // --- Co-simulation loop ------------------------------------------
    let mut pending: VecDeque<(SimTime, Vec<u8>)> = VecDeque::new();
    let mut mad_out: Vec<(usize, Mad)> = Vec::new();
    let mut wire: Vec<Vec<u8>> = Vec::new();
    let mut node_epoch: Vec<KeyEpoch> = vec![KeyEpoch::ZERO; nodes];
    let mut buckets: Vec<u64> = Vec::new();
    let mut captured = 0u64;
    let mut stale_injected = 0u64;
    let mut leader_kills = 0u64;
    let mut leader_changes = 0u64;
    let mut last_leader: Option<u8> = None;
    let mut killed_at: Option<SimTime> = None;
    let mut term_at_kill = 0u64;
    let mut recovered_at: Option<SimTime> = None;
    let mut now: SimTime = 0;
    let mut done_at: Option<SimTime> = None;
    let mut timed_out = false;
    // Scheduling state: who to poll, when to post, who is done (see the
    // module docs for why visiting only these is exact).
    let mut wake = WakeSet::new(2 * cfg.flows);
    let mut pass: Vec<usize> = Vec::new();
    let mut post_due: TimeHeap = flows
        .iter()
        .enumerate()
        .map(|(i, f)| Reverse((f.offset, i)))
        .collect();
    let mut complete_flows = 0usize;
    let mut failed = false;
    let mut counts = LoopCounts::default();

    loop {
        counts.steps += 1;
        // Leader-kill fault injection.
        if cfg.kill_leader_at > 0 && killed_at.is_none() && now >= cfg.kill_leader_at {
            if let Some(l) = replicas.iter_mut().find(|r| r.is_leader()) {
                term_at_kill = l.term();
                l.kill();
                leader_kills += 1;
                killed_at = Some(now);
            }
        }
        // Stale re-injections that have come due.
        while pending.front().is_some_and(|(t, _)| *t <= now) {
            let (_, bytes) = pending.pop_front().unwrap();
            stale_injected += 1;
            sim.post_host(attack_node, victim, cfg.vl, bytes);
        }
        // Paced posting: every (flow, message) whose instant has come. A
        // post only enqueues into the QP — the requester's poll below is
        // what puts it on the wire — so the order among flows is free.
        while let Some(&Reverse((at, i))) = post_due.peek() {
            if at > now {
                break;
            }
            post_due.pop();
            let f = &mut flows[i];
            f.a.post(payload_for(f.posted, cfg.payload_len));
            f.posted += 1;
            if f.posted < cfg.messages {
                post_due.push(Reverse((f.post_at(f.posted, cfg.post_interval), i)));
            }
            wake.wake(2 * i);
        }
        // SM plane speaks at `now`.
        for r in replicas.iter_mut() {
            r.poll(now, &mut mad_out);
            let src = r.node();
            for (dst, mad) in mad_out.drain(..) {
                let pkt = mad_packet(Lid(src as u16 + 1), Lid(dst as u16 + 1), &mad);
                sim.post_host(src, dst, MGMT_VL, pkt.to_bytes());
            }
        }
        // Data plane speaks at `now`: the woken endpoints only.
        wake.take_pass(now, &mut pass);
        for &id in &pass {
            let f = &mut flows[id / 2];
            let (ep, from, to) = if id % 2 == 0 {
                (&mut f.a, f.src, f.dst)
            } else {
                (&mut f.b, f.dst, f.src)
            };
            counts.polls += 1;
            ep.poll_into(now, &mut wire);
            for bytes in wire.drain(..) {
                sim.post_host(from, to, cfg.vl, bytes);
            }
            failed |= ep.failed();
            wake.polled(id, ep.next_deadline());
            // Everything `complete_flow` reads changes only with a post,
            // an arrival or a timeout on one of the flow's two endpoints,
            // and each of those wakes it, so judging here misses nothing.
            // Completion is monotone: nothing is posted after the last
            // message.
            if !f.complete && f.complete_flow(cfg.messages) {
                f.complete = true;
                complete_flows += 1;
            }
        }

        // Leadership observation + recovery detection.
        let leader_now = replicas.iter().find(|r| r.is_leader());
        if let Some(l) = leader_now {
            if last_leader != Some(l.id()) {
                if last_leader.is_some() {
                    leader_changes += 1;
                }
                last_leader = Some(l.id());
            }
            if killed_at.is_some()
                && recovered_at.is_none()
                && l.term() > term_at_kill
                && l.rotations() > 0
                && l.distribution_complete()
            {
                recovered_at = Some(now);
            }
        }

        if done_at.is_none() && complete_flows == cfg.flows {
            done_at = Some(now);
        }
        if failed {
            break;
        }
        if now >= cfg.max_sim_time {
            timed_out = done_at.is_none();
            break;
        }
        if let Some(done) = done_at {
            let drain_until = done + cfg.stale_delay + DRAIN_GRACE;
            // For the kill arm, also wait out the election + re-key.
            let recovered = killed_at.is_none() || recovered_at.is_some();
            if now >= drain_until && pending.is_empty() && recovered {
                break;
            }
        }

        // Next interesting instant: endpoint deadlines, pacing, replica
        // timers, attacker due times, the kill, or the drain horizon.
        let mut target = cfg.max_sim_time;
        if let Some(d) = wake.next_timer() {
            target = target.min(d);
        }
        if let Some(&Reverse((at, _))) = post_due.peek() {
            target = target.min(at);
        }
        for r in &replicas {
            if let Some(d) = r.next_deadline() {
                target = target.min(d);
            }
        }
        if let Some((t, _)) = pending.front() {
            target = target.min(*t);
        }
        if cfg.kill_leader_at > now && killed_at.is_none() {
            target = target.min(cfg.kill_leader_at);
        }
        if let Some(done) = done_at {
            let drain_until = done + cfg.stale_delay + DRAIN_GRACE;
            // Only a future horizon is a scheduling target; a past one
            // (waiting on recovery) must not collapse the step to 1 ps.
            if drain_until > now {
                target = target.min(drain_until);
            }
        }
        let target = target.max(now + 1);
        let t = sim.run_hosts_until(target);

        while let Some(d) = sim.take_host_delivery() {
            // Management plane: MADs to QP0.
            if let Some((src_node, mad)) = parse_mad_packet(&d.bytes) {
                if d.node < cfg.replicas {
                    let rep = &mut replicas[d.node];
                    rep.handle(d.at, src_node, &mad, &mut mad_out);
                    let from = rep.node();
                    for (dst, out_mad) in mad_out.drain(..) {
                        let pkt = mad_packet(Lid(from as u16 + 1), Lid(dst as u16 + 1), &out_mad);
                        sim.post_host(from, dst, MGMT_VL, pkt.to_bytes());
                    }
                } else if let Some(SmMessage::KeyUpdate {
                    pkey,
                    epoch,
                    envelope,
                    ..
                }) = SmMessage::decode(&mad)
                {
                    // A member CA: open the envelope and re-key every
                    // endpoint resident on this node, then ack.
                    if let Some(secret) = envelope.open(&node_keys[d.node].1) {
                        for f in flows.iter_mut() {
                            if f.src == d.node {
                                f.a.install_epoch(d.at, epoch, secret);
                            }
                            if f.dst == d.node {
                                f.b.install_epoch(d.at, epoch, secret);
                            }
                        }
                        node_epoch[d.node] = node_epoch[d.node].max(epoch);
                        let ack = SmMessage::KeyUpdateAck {
                            pkey,
                            epoch,
                            node: d.node as u16,
                        };
                        let pkt = mad_packet(
                            Lid(d.node as u16 + 1),
                            Lid(src_node as u16 + 1),
                            &ack.encode(0),
                        );
                        sim.post_host(d.node, src_node, MGMT_VL, pkt.to_bytes());
                    }
                }
                continue;
            }
            // Data plane: dispatch by (node, QPN).
            let Ok(pkt) = Packet::parse(&d.bytes) else {
                // Corrupted in flight; the owning endpoint's parse would
                // also drop it, so account nowhere and move on.
                continue;
            };
            if pkt.bth.dest_qp == SM_QPN {
                continue;
            }
            // Attacker tap at the victim HCA: capture clean data packets.
            if cfg.stale_every > 0
                && d.node == victim
                && pkt.bth.dest_qp == victim_qpn
                && pkt.bth.opcode.operation != Operation::Acknowledge
            {
                captured += 1;
                if captured.is_multiple_of(cfg.stale_every) {
                    pending.push_back((d.at + cfg.stale_delay, d.bytes.clone()));
                }
            }
            // Flow `i` owns QPN `REKEY_QPN0 + i`: index, don't search.
            // (A QPN below the base wraps far out of range.)
            let i = pkt.bth.dest_qp.0.wrapping_sub(REKEY_QPN0) as usize;
            let Some(f) = flows.get_mut(i) else {
                continue;
            };
            debug_assert_eq!(f.qpn, pkt.bth.dest_qp);
            if f.dst == d.node {
                f.b.handle_wire(d.at, &d.bytes);
                wake.wake(2 * i + 1);
                for payload in f.b.take_delivered() {
                    let idx = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
                    if idx >= f.seen.len() || payload != payload_for(idx, cfg.payload_len) {
                        f.mismatches += 1;
                    } else if f.seen[idx] {
                        f.duplicates += 1;
                    } else {
                        f.seen[idx] = true;
                        f.delivered += 1;
                        let slot = (d.at / cfg.bucket) as usize;
                        if buckets.len() <= slot {
                            buckets.resize(slot + 1, 0);
                        }
                        buckets[slot] += 1;
                    }
                }
            } else if f.src == d.node {
                f.a.handle_wire(d.at, &d.bytes);
                wake.wake(2 * i);
            }
        }
        now = t;
    }

    // --- Report ------------------------------------------------------
    let completion_ps = done_at.unwrap_or(now).max(1);
    let delivered: u64 = flows.iter().map(|f| f.delivered).sum();
    let bits = (delivered * cfg.payload_len as u64 * 8) as f64;
    let interior = if buckets.len() >= 4 {
        &buckets[1..buckets.len() - 1]
    } else {
        &buckets[..]
    };
    let goodput_dip_frac = if interior.is_empty() {
        1.0
    } else {
        let mean = interior.iter().sum::<u64>() as f64 / interior.len() as f64;
        if mean > 0.0 {
            *interior.iter().min().unwrap() as f64 / mean
        } else {
            1.0
        }
    };
    let mut ch = ib_security::channel::ChannelStats::default();
    let mut stale_admitted = 0u64;
    let mut retransmits = 0u64;
    let mut dup_delivered = 0u64;
    let mut mismatches = 0u64;
    for f in &flows {
        for c in [f.a.channel(), f.b.channel()] {
            ch.rejected_auth += c.stats.rejected_auth;
            ch.rejected_stale += c.stats.rejected_stale;
            ch.rejected_stale_epoch += c.stats.rejected_stale_epoch;
            ch.rejected_future_epoch += c.stats.rejected_future_epoch;
            counts.stale_macs += c.cached_macs().saturating_sub(c.live_key_versions()) as u64;
        }
        stale_admitted += f.b.stats.dup_admitted_fresh + f.duplicates;
        retransmits += f.a.retransmits();
        dup_delivered += f.duplicates;
        mismatches += f.mismatches;
    }
    let dup_suppressed: u64 = flows
        .iter()
        .map(|f| f.a.stats.dup_suppressed + f.b.stats.dup_suppressed)
        .sum();
    let mut rotations = 0u64;
    let mut key_updates_tx = 0u64;
    let mut key_update_acks_rx = 0u64;
    let mut replicates_tx = 0u64;
    let mut heartbeats_tx = 0u64;
    let mut claims_tx = 0u64;
    let mut takeovers = 0u64;
    for r in &replicas {
        rotations += r.stats.rotations;
        key_updates_tx += r.stats.key_updates_tx;
        key_update_acks_rx += r.stats.key_update_acks_rx;
        replicates_tx += r.stats.replicates_tx;
        heartbeats_tx += r.stats.heartbeats_tx;
        claims_tx += r.stats.claims_tx;
        takeovers += r.stats.takeovers;
    }
    let report = RekeyReport {
        delivered,
        expected: (cfg.flows * cfg.messages) as u64,
        failed,
        timed_out,
        completion_us: ps_to_us(completion_ps),
        goodput_gbps: bits / (completion_ps as f64 * 1e-12) / 1e9,
        rotations,
        final_epoch: u64::from(node_epoch.iter().max().copied().unwrap_or(KeyEpoch::ZERO).0),
        key_updates_tx,
        key_update_acks_rx,
        replicates_tx,
        heartbeats_tx,
        claims_tx,
        takeovers,
        leader_kills,
        leader_changes,
        time_to_recover_us: match (killed_at, recovered_at) {
            (Some(k), Some(r)) => ps_to_us(r.saturating_sub(k)),
            _ => 0.0,
        },
        buckets,
        bucket_us: ps_to_us(cfg.bucket),
        goodput_dip_frac,
        stale_injected,
        stale_admitted,
        rejected_stale_epoch: ch.rejected_stale_epoch,
        rejected_future_epoch: ch.rejected_future_epoch,
        rejected_auth: ch.rejected_auth,
        rejected_stale_psn: ch.rejected_stale,
        dup_suppressed,
        retransmits,
        payload_mismatches: mismatches,
        duplicates_delivered: dup_delivered,
        mgmt_delivered: sim.stats().mgmt_delivered,
        fabric_generated: sim.stats().generated,
    };
    (report, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> RekeyConfig {
        let mut cfg = RekeyConfig {
            flows: 4,
            messages: 16,
            payload_len: 128,
            post_interval: 20 * US,
            rotation_period: 120 * US,
            grace: 80 * US,
            stale_every: 3,
            stale_delay: 400 * US,
            ..RekeyConfig::default()
        };
        cfg.sim.duration = 2 * MS;
        cfg.sim.warmup = 200 * US;
        cfg
    }

    #[test]
    fn rotation_under_load_delivers_everything() {
        let r = run_rekey_sim(&base());
        assert_eq!(r.delivered, r.expected, "100% eventual delivery");
        assert!(!r.failed && !r.timed_out);
        assert_eq!(r.payload_mismatches, 0);
        assert!(r.rotations >= 1, "the leader rotated under load");
        assert!(r.final_epoch >= 1, "CAs installed a rotated epoch");
        assert_eq!(r.stale_admitted, 0, "no stale-epoch admissions");
        assert!(r.mgmt_delivered > 0, "MADs crossed the fabric");
        assert!(r.heartbeats_tx > 0);
    }

    #[test]
    fn stale_attacker_is_rejected_by_the_epoch_layer() {
        let mut cfg = base();
        // Delay far beyond rotation + grace: every replay names a
        // retired epoch by the time it lands.
        cfg.stale_delay = 600 * US;
        cfg.stale_every = 2;
        let r = run_rekey_sim(&cfg);
        assert_eq!(r.delivered, r.expected);
        assert!(r.stale_injected > 0, "attacker was active");
        assert_eq!(r.stale_admitted, 0);
        assert!(
            r.rejected_stale_epoch > 0,
            "replays died at the epoch check, not just the PSN window"
        );
    }

    #[test]
    fn leader_kill_elects_successor_and_recovers() {
        let mut cfg = base();
        cfg.messages = 32;
        cfg.kill_leader_at = 200 * US;
        let r = run_rekey_sim(&cfg);
        assert_eq!(r.delivered, r.expected, "failover never loses messages");
        assert!(!r.failed && !r.timed_out);
        assert_eq!(r.leader_kills, 1);
        assert!(r.takeovers >= 1, "a successor claimed the term");
        assert!(r.leader_changes >= 1);
        assert!(
            r.time_to_recover_us > 0.0,
            "re-key completed after the kill"
        );
        assert_eq!(r.stale_admitted, 0);
    }

    #[test]
    fn zero_grace_hard_cutover_still_delivers() {
        let mut cfg = base();
        cfg.grace = 0;
        let r = run_rekey_sim(&cfg);
        assert_eq!(r.delivered, r.expected, "retransmission heals cutover");
        assert!(!r.failed && !r.timed_out);
    }

    #[test]
    fn same_seed_same_report_and_json_round_trips() {
        let mut cfg = base();
        cfg.seed = 42;
        let text = cfg.to_json().to_string();
        let parsed = Json::parse(&text).expect("config JSON parses");
        assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(parsed.to_string(), text, "writer/parser agree");

        let a = run_rekey_sim(&cfg).to_json().to_string();
        let b = run_rekey_sim(&cfg).to_json().to_string();
        assert_eq!(a, b, "bit-identical across same-seed runs");
        let parsed = Json::parse(&a).expect("report JSON parses");
        assert_eq!(parsed.to_string(), a);

        cfg.seed = 43;
        let c = run_rekey_sim(&cfg).to_json().to_string();
        assert_ne!(a, c, "seed steers everything");
    }

    /// The complexity gate: the loop's work follows what happened in the
    /// run, not the size of the fleet. A lossless message costs about four
    /// polls (the post, the data arrival, the ACK arrival, one timer);
    /// a sweep over every endpoint on every step costs `2 * flows * steps`
    /// (30 M at 512 flows). Counts are deterministic, so no host drift
    /// can flake this.
    #[test]
    fn polls_follow_activity_not_fleet_size() {
        for flows in [128, 512] {
            let mut cfg = RekeyConfig {
                flows,
                messages: 12,
                post_interval: 800 * US,
                replicas: 5,
                rotation_period: 2 * MS,
                grace: 2 * MS,
                kill_leader_at: 3 * MS,
                stale_every: 2,
                stale_delay: 12 * MS,
                ..RekeyConfig::default()
            };
            cfg.sim.duration = 2 * MS;
            cfg.sim.warmup = 200 * US;
            let (r, n) = run_counted(&cfg);
            assert_eq!(r.delivered, r.expected, "{flows} flows");
            assert!(!r.failed && !r.timed_out, "{flows} flows");
            assert!(
                n.polls <= 4 * n.steps,
                "{flows} flows: {} polls in {} steps",
                n.polls,
                n.steps
            );
            assert!(
                n.polls <= 8 * r.expected,
                "{flows} flows: {} polls for {} messages",
                n.polls,
                r.expected
            );
            assert!(r.rotations >= 20, "{flows} flows: the key plane rotated");
            assert_eq!(n.stale_macs, 0, "{flows} flows: retired keys' MACs evicted");
        }
    }
}
