//! The co-simulation driver: RC endpoints on HCAs of an
//! [`ib_sim::Simulator`] fabric, talking across simulated time. Every
//! experiment that needs that — `fig_rdma` and `fig_replay` through
//! [`crate::fabric::run_fabric_sim`], `fig_rekey` through
//! `ib_sm::rekey::run_rekey_sim` — is a configuration of this one loop.
//!
//! A [`Cosim`] owns the fabric, one key table per node (an
//! [`Authenticator`] every endpoint on the node's HCA shares), the
//! [`Flow`]s (flow `i` owns QPN `qpn0 + i`, so a delivery finds its flow
//! by index), one [`Ledger`], one [`Tap`]
//! (the §7 replay attacker and the stale-epoch attacker are the same code
//! with different delays) and the rule for when a run is over. Hosts that
//! are not RC endpoints — the SM replicas and the CAs' key-update handler
//! — enter through [`Host`]; the trait exists because this crate cannot
//! depend on `ib-sm`, not as an extension point.
//!
//! ## The step
//!
//! Each iteration speaks for the hosts at `now`, in this order, and the
//! order is part of the contract: [`Simulator::post_host`] order is what
//! pins every intrinsic event key in `ib-sim`, so reordering two of these
//! changes reports.
//!
//! 1. Tap re-injections that have come due are posted.
//! 2. Every `(flow, message)` whose posting instant has come is posted on
//!    its requester (a post only enqueues into the QP; step 4 is what
//!    reaches the fabric, so the order among flows is free).
//! 3. The [`Host`] speaks.
//! 4. The woken endpoints are polled in ascending `2 * flow + side` order
//!    (requester before responder, flows ascending) and their wire
//!    buffers posted.
//! 5. Exit tests: a dead QP; the time limit; or every flow complete, the
//!    drain horizon (`done + tap.delay + 1 ms`, so captured replays still
//!    get judged) passed, no re-injection pending and the host settled.
//! 6. The fabric runs to the first host delivery or to the earliest of:
//!    the endpoint timer heap's top, the next paced post, the host's
//!    deadline, the tap's next re-injection, the drain horizon while it
//!    is still ahead — and never less than 1 ps. A horizon already passed
//!    (waiting on the host or a pending replay) is not a target: it would
//!    collapse every following step to 1 ps.
//! 7. Deliveries are parsed once, offered to the host, shown to the tap
//!    and handed to the owning endpoint, whose completions the ledger
//!    drains at the arrival instant.
//!
//! ## Why polling only the woken endpoints is exact
//!
//! The work in a step follows what happened in it, not the size of the
//! fleet. An endpoint is woken by exactly three things — a verb posted on
//! it, a wire buffer handed to it, its own cached `next_deadline()`
//! coming due (a lazily invalidated timer heap, `WakeSet`) — completion
//! is a count of finished flows and failure a sticky flag. The reports
//! are byte-identical to those of a loop polling every endpoint on every
//! step, because:
//!
//! 1. [`SecureRcEndpoint::poll_into`] changes nothing unless a verb was
//!    posted, `handle_wire` ran, or the QP's `next_deadline()` came due
//!    since the last poll: the retransmission timeout (`on_timeout`) and
//!    the delayed ACK (`poll_ack`) are that deadline; its rewound resend
//!    cursor, queued selective-repeat retransmits and opened window are
//!    consequences of an arrival or a timeout; its pending queue grows
//!    only by a post.
//! 2. The only other effect of a poll, `channel.advance_time(now)`, is
//!    also the first statement of `handle_view` — the only place a
//!    retired epoch is observable — and of
//!    [`Authenticator::install_epoch`], so key versions retire before
//!    anything can look at them whether or not the endpoint is ever
//!    polled again. The schedule is its node's, shared by every endpoint
//!    on the node, and simulated time only moves forward, so whichever
//!    endpoint advances it retires exactly what each would have.
//! 3. Everything a flow's completion reads changes only with a post, an
//!    arrival or a timeout on one of its two endpoints, and each of those
//!    wakes it, so judging completion at the poll misses nothing.
//!
//! All of it is gated byte for byte: the heads of
//! `tests/golden/lock/{fabric,rekey}.txt` digest reports of loops that
//! swept every endpoint on every step, and the frozen `benchmark/`
//! package carries a call-for-call copy of the old two-endpoint loop
//! that `ib-benchmark trace` compares with this one.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use ib_packet::types::{Lid, Qpn, RKey};
use ib_packet::{Operation, Packet, WireView};
use ib_security::Authenticator;
use ib_sim::time::{ps_to_us, MS};
use ib_sim::{HostDelivery, OnlineStats, SimTime, Simulator};

use crate::endpoint::SecureRcEndpoint;

/// After the last flow completes, keep the fabric running this long past
/// the tap's delay so already-captured replays still get judged.
const DRAIN_GRACE: SimTime = MS;

/// R_Key registered for the RDMA verbs.
const COSIM_RKEY: RKey = RKey(0x0DA7_A001);

/// Which verb a flow exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaOp {
    /// SEND: messages land in the peer's receive queue.
    Send,
    /// RDMA WRITE: message `i` lands at offset `i × payload_len` of the
    /// responder's memory region.
    Write,
    /// RDMA READ: the requester pulls message `i` from offset
    /// `i × payload_len` of the responder's pre-filled region.
    Read,
}

impl RdmaOp {
    /// All ops, sweep order.
    pub const ALL: [RdmaOp; 3] = [RdmaOp::Send, RdmaOp::Write, RdmaOp::Read];

    /// Stable label for JSON / tables.
    pub fn label(self) -> &'static str {
        match self {
            RdmaOp::Send => "send",
            RdmaOp::Write => "write",
            RdmaOp::Read => "read",
        }
    }
}

/// Deterministic message payload: 8-byte LE index + patterned fill.
fn payload_for(i: usize, len: usize) -> Vec<u8> {
    let mut p = vec![0u8; len];
    p[..8].copy_from_slice(&(i as u64).to_le_bytes());
    for (k, byte) in p.iter_mut().enumerate().skip(8) {
        *byte = (i as u8).wrapping_mul(31).wrapping_add(k as u8);
    }
    p
}

/// What every flow of a run has in common.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Flow `i`'s endpoints were built on QPN `qpn0 + i`.
    pub qpn0: u32,
    /// Virtual lane the flows and the tap's re-injections ride: 0, 1 or
    /// 15, the VLs the engine provisions.
    pub vl: u8,
    /// Messages (or RDMA ops) each requester posts.
    pub messages: usize,
    /// Payload bytes per message (≥ 8; the first 8 carry the index).
    pub payload_len: usize,
    /// Pacing between one flow's posts (0 = everything at its first
    /// instant).
    pub post_interval: SimTime,
    /// Width of a [`Ledger::buckets`] slot.
    pub bucket: SimTime,
    /// Safety valve: give up past this simulated instant.
    pub max_sim_time: SimTime,
}

/// One RC flow: requester `a` on node `src`, responder `b` on `dst`.
pub struct Flow {
    pub src: usize,
    pub dst: usize,
    pub a: SecureRcEndpoint,
    pub b: SecureRcEndpoint,
    op: RdmaOp,
    /// Instant of the first post; message `k` follows `k` intervals later.
    first_post: SimTime,
    posted: usize,
    seen: Vec<bool>,
    delivered: usize,
    /// READ completions FIFO-match requests: index of the next expected.
    next_read: usize,
    /// Everything posted and delivered and the requester idle, as of the
    /// last poll of either endpoint. Monotone: nothing is posted after
    /// the last message.
    complete: bool,
}

impl Flow {
    fn post_at(&self, k: usize, interval: SimTime) -> SimTime {
        self.first_post + interval * k as SimTime
    }

    /// Post message `self.posted` on the requester.
    fn post_next(&mut self, len: usize) {
        let i = self.posted;
        let addr = (i * len) as u64;
        match self.op {
            RdmaOp::Send => self.a.post(payload_for(i, len)),
            RdmaOp::Write => self.a.post_write(addr, COSIM_RKEY, payload_for(i, len)),
            RdmaOp::Read => self.a.post_read(addr, COSIM_RKEY, len as u32),
        }
        self.posted += 1;
    }
}

/// Completion accounting over all flows.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Unique messages/ops completed at the application.
    pub delivered: u64,
    /// Already-completed messages surfaced to the application again.
    pub duplicates: u64,
    /// Completions whose payload or addressing failed verification.
    pub mismatches: u64,
    /// Scheduled-post-to-completion latency per unique message, µs.
    pub(crate) latency_us: OnlineStats,
    /// Unique completions per [`Workload::bucket`]-wide time slot.
    pub buckets: Vec<u64>,
    /// Host arrivals that failed to parse (fault-layer corruption) and
    /// so reached no endpoint.
    pub(crate) unparseable: u64,
}

impl Ledger {
    /// Message `idx` of `f` completed at `at`, or something claiming to
    /// be it did (`intact` false).
    fn complete(&mut self, f: &mut Flow, load: &Workload, idx: usize, intact: bool, at: SimTime) {
        if !intact {
            self.mismatches += 1;
        } else if std::mem::replace(&mut f.seen[idx], true) {
            self.duplicates += 1;
        } else {
            f.delivered += 1;
            self.delivered += 1;
            self.latency_us
                .push(ps_to_us(at - f.post_at(idx, load.post_interval)));
            let slot = (at / load.bucket) as usize;
            if self.buckets.len() <= slot {
                self.buckets.resize(slot + 1, 0);
            }
            self.buckets[slot] += 1;
        }
    }

    /// Drain responder-side completions (SEND deliveries, WRITE events).
    fn drain_responder(&mut self, f: &mut Flow, load: &Workload, at: SimTime) {
        let len = load.payload_len;
        match f.op {
            RdmaOp::Send => {
                for payload in f.b.take_delivered() {
                    let idx = payload.get(..8).map_or(usize::MAX, |b| {
                        u64::from_le_bytes(b.try_into().expect("8 bytes")) as usize
                    });
                    let intact = idx < load.messages && payload == payload_for(idx, len);
                    self.complete(f, load, idx, intact, at);
                }
            }
            RdmaOp::Write => {
                for (addr, wlen) in f.b.take_write_events() {
                    let (idx, lo) = ((addr / len as u64) as usize, addr as usize);
                    let intact = addr % len as u64 == 0
                        && wlen as usize == len
                        && idx < load.messages
                        && f.b.memory()[lo..lo + len] == payload_for(idx, len);
                    self.complete(f, load, idx, intact, at);
                }
            }
            RdmaOp::Read => {}
        }
    }

    /// Drain requester-side completions (READ payloads, request order).
    fn drain_requester(&mut self, f: &mut Flow, load: &Workload, at: SimTime) {
        if f.op != RdmaOp::Read {
            return;
        }
        for payload in f.a.take_read_completions() {
            let idx = f.next_read;
            f.next_read += 1;
            let intact = idx < load.messages && payload == payload_for(idx, load.payload_len);
            self.complete(f, load, idx, intact, at);
        }
    }
}

/// The capture-and-re-inject attacker: taps one (node, QPN), captures
/// every clean non-ACK arrival (ACKs are idempotent — replaying them
/// proves nothing) and re-posts every `every`-th one verbatim from
/// `inject_from` after `delay`. The bytes are perfectly valid, so only
/// delivery state (the replay window, a retired epoch) can reject them.
#[derive(Debug, Clone, Copy)]
pub struct Tap {
    pub node: usize,
    pub qpn: Qpn,
    /// 0 = off.
    pub every: u64,
    pub delay: SimTime,
    pub inject_from: usize,
}

/// A host on the fabric that is not an RC endpoint. The defaults are the
/// absence of one, which is what `()` is.
pub trait Host {
    /// Step 3: act at `now`, posting whatever it sends.
    fn speak(&mut self, _now: SimTime, _sim: &mut Simulator) {}
    /// The next instant it needs the loop to stop at, seen from `now`.
    fn next_deadline(&self, _now: SimTime) -> Option<SimTime> {
        None
    }
    /// A parsed arrival, before the tap and the flows see it, with every
    /// node's key table (a CA's key-update handler installs into its
    /// node's). `true` claims it.
    fn offer(
        &mut self,
        _d: &HostDelivery,
        _pkt: &WireView,
        _sim: &mut Simulator,
        _nodes: &[Rc<RefCell<Authenticator>>],
    ) -> bool {
        false
    }
    /// `false` holds the drain exit open.
    fn settled(&self) -> bool {
        true
    }
}

impl Host for () {}

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
    /// every one whose timer is due at `now`, in ascending id order: the
    /// `post_host` order of a sweep over the whole fleet.
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

/// One co-simulation: build it, [`run`](Self::run) it, read the results
/// off it.
pub struct Cosim {
    pub sim: Simulator,
    pub flows: Vec<Flow>,
    pub ledger: Ledger,
    tap: Tap,
    /// Captured-and-due-later re-injections: (instant, bytes).
    replays: VecDeque<(SimTime, Vec<u8>)>,
    captured: u64,
    /// Packets the tap re-posted into the fabric.
    pub replays_injected: u64,
    load: Workload,
    wake: WakeSet,
    /// `(instant, flow)` of each flow's next post.
    post_due: TimeHeap,
    now: SimTime,
    done_at: Option<SimTime>,
    /// An endpoint exhausted its retries (QP error state).
    pub failed: bool,
    /// The run hit `max_sim_time` before every flow completed. A run the
    /// limit stops after every flow completed (a replay still pending at
    /// the tap, say) reports `false`.
    pub timed_out: bool,
    /// Loop iterations; deterministic, so tests can bound them.
    pub steps: u64,
    /// [`SecureRcEndpoint::poll_into`] calls.
    pub polls: u64,
    /// One key table per fabric node, shared by every endpoint on that
    /// node's HCA.
    pub nodes: Vec<Rc<RefCell<Authenticator>>>,
}

impl Cosim {
    /// One flow per `(src, dst, op, first_post)` of `specs`; `make(qpn,
    /// lid, peer_lid, node)` builds each endpoint on the QPN the driver
    /// will look its flow up by, on the key table of the node it sits on.
    pub fn new(
        sim: Simulator,
        load: Workload,
        tap: Tap,
        specs: impl IntoIterator<Item = (usize, usize, RdmaOp, SimTime)>,
        make: impl Fn(Qpn, Lid, Lid, &Rc<RefCell<Authenticator>>) -> SecureRcEndpoint,
    ) -> Cosim {
        assert!(load.payload_len >= 8, "payload must hold the 8-byte index");
        assert!(load.messages >= 1);
        let nodes: Vec<Rc<RefCell<Authenticator>>> = (0..sim.topology().num_nodes())
            .map(|_| Rc::default())
            .collect();
        let flows: Vec<Flow> = (load.qpn0..)
            .zip(specs)
            .map(|(qpn, (src, dst, op, first_post))| {
                assert_ne!(src, dst, "a flow needs two distinct HCAs");
                let (sl, dl) = (Lid::of_node(src), Lid::of_node(dst));
                let mut b = make(Qpn(qpn), dl, sl, &nodes[dst]);
                if op != RdmaOp::Send {
                    b.configure_memory(load.messages * load.payload_len, COSIM_RKEY);
                }
                if op == RdmaOp::Read {
                    for (i, chunk) in b.memory_mut().chunks_mut(load.payload_len).enumerate() {
                        chunk.copy_from_slice(&payload_for(i, load.payload_len));
                    }
                }
                Flow {
                    src,
                    dst,
                    a: make(Qpn(qpn), sl, dl, &nodes[src]),
                    b,
                    op,
                    first_post,
                    posted: 0,
                    seen: vec![false; load.messages],
                    delivered: 0,
                    next_read: 0,
                    complete: false,
                }
            })
            .collect();
        assert!(!flows.is_empty());
        Cosim {
            sim,
            ledger: Ledger::default(),
            tap,
            replays: VecDeque::new(),
            captured: 0,
            replays_injected: 0,
            load,
            wake: WakeSet::new(2 * flows.len()),
            post_due: flows
                .iter()
                .enumerate()
                .map(|(i, f)| Reverse((f.first_post, i)))
                .collect(),
            flows,
            now: 0,
            done_at: None,
            failed: false,
            timed_out: false,
            steps: 0,
            polls: 0,
            nodes,
        }
    }

    /// Instant the last flow completed (the drain tail excluded), or where
    /// the run stopped short; never 0, so it can divide.
    pub fn completion_ps(&self) -> SimTime {
        self.done_at.unwrap_or(self.now).max(1)
    }

    /// Unique completed payload bits over the completion time.
    pub fn goodput_gbps(&self) -> f64 {
        let bits = (self.ledger.delivered * self.load.payload_len as u64 * 8) as f64;
        bits / (self.completion_ps() as f64 * 1e-12) / 1e9
    }

    /// Run to one of the three exits (see the module docs for the step).
    pub fn run<H: Host>(&mut self, host: &mut H) {
        let (load, tap) = (self.load, self.tap);
        let mut wire: Vec<Vec<u8>> = Vec::new();
        let mut pass: Vec<usize> = Vec::new();
        let mut complete_flows = 0usize;
        loop {
            self.steps += 1;
            let now = self.now;
            while self.replays.front().is_some_and(|(t, _)| *t <= now) {
                let (_, bytes) = self.replays.pop_front().expect("checked above");
                self.replays_injected += 1;
                self.sim
                    .post_host(tap.inject_from, tap.node, load.vl, bytes);
            }
            while let Some(&Reverse((at, i))) = self.post_due.peek() {
                if at > now {
                    break;
                }
                self.post_due.pop();
                let f = &mut self.flows[i];
                f.post_next(load.payload_len);
                if f.posted < load.messages {
                    let next = f.post_at(f.posted, load.post_interval);
                    self.post_due.push(Reverse((next, i)));
                }
                self.wake.wake(2 * i);
            }
            host.speak(now, &mut self.sim);
            self.wake.take_pass(now, &mut pass);
            for &id in &pass {
                let f = &mut self.flows[id / 2];
                let (ep, from, to) = if id % 2 == 0 {
                    (&mut f.a, f.src, f.dst)
                } else {
                    (&mut f.b, f.dst, f.src)
                };
                self.polls += 1;
                ep.poll_into(now, &mut wire);
                for bytes in wire.drain(..) {
                    self.sim.post_host(from, to, load.vl, bytes);
                }
                self.failed |= ep.failed();
                self.wake.polled(id, ep.next_deadline());
                if !f.complete
                    && f.posted == load.messages
                    && f.delivered == load.messages
                    && f.a.tx_idle()
                {
                    f.complete = true;
                    complete_flows += 1;
                }
            }

            if self.done_at.is_none() && complete_flows == self.flows.len() {
                self.done_at = Some(now);
            }
            if self.failed {
                break;
            }
            if now >= load.max_sim_time {
                self.timed_out = self.done_at.is_none();
                break;
            }
            let drain_until = self.done_at.map(|done| done + tap.delay + DRAIN_GRACE);
            if drain_until.is_some_and(|t| now >= t) && self.replays.is_empty() && host.settled() {
                break;
            }

            let target = [
                self.wake.next_timer(),
                self.post_due.peek().map(|&Reverse((at, _))| at),
                host.next_deadline(now),
                self.replays.front().map(|&(t, _)| t),
                drain_until.filter(|&t| t > now),
            ]
            .into_iter()
            .flatten()
            .fold(load.max_sim_time, SimTime::min)
            .max(now + 1);
            let t = self.sim.run_hosts_until(target);
            while let Some(d) = self.sim.take_host_delivery() {
                self.deliver(&d, host);
            }
            self.now = t;
        }
    }

    /// Step 7 for one arrival.
    fn deliver<H: Host>(&mut self, d: &HostDelivery, host: &mut H) {
        let Ok(view) = Packet::parse_view(&d.bytes) else {
            self.ledger.unparseable += 1;
            return;
        };
        if host.offer(d, &view, &mut self.sim, &self.nodes) {
            return;
        }
        let tap = self.tap;
        if tap.every > 0
            && d.node == tap.node
            && view.bth.dest_qp == tap.qpn
            && view.bth.opcode.operation != Operation::Acknowledge
        {
            self.captured += 1;
            if self.captured.is_multiple_of(tap.every) {
                self.replays.push_back((d.at + tap.delay, d.bytes.clone()));
            }
        }
        // Flow `i` owns QPN `qpn0 + i`: index, don't search. (A QPN below
        // the base wraps far out of range.)
        let i = view.bth.dest_qp.0.wrapping_sub(self.load.qpn0) as usize;
        let Some(f) = self.flows.get_mut(i) else {
            return;
        };
        if f.dst == d.node {
            f.b.handle_view(d.at, &view);
            self.wake.wake(2 * i + 1);
            self.ledger.drain_responder(f, &self.load, d.at);
        } else if f.src == d.node {
            f.a.handle_view(d.at, &view);
            self.wake.wake(2 * i);
            self.ledger.drain_requester(f, &self.load, d.at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RcConfig, RetransmitMode};
    use ib_mgmt::keymgmt::SecretKey;
    use ib_packet::types::PKey;
    use ib_runtime::Seed;
    use ib_security::ChannelSecurity;
    use ib_sim::time::US;
    use ib_sim::{AttackKeys, FaultConfig, SimConfig};

    const MESSAGES: usize = 40;

    /// What the single-flow harness cannot ask: eight concurrent flows,
    /// mixed verbs and retransmit modes, on a lossy attacked mesh, with
    /// the tap on flow 0.
    fn eight_mixed_flows() -> Cosim {
        let sim_cfg = SimConfig {
            seed: Seed(11),
            num_attackers: 1,
            attack_keys: AttackKeys::Valid,
            duration: 2 * MS,
            warmup: 200 * US,
            fault: FaultConfig::lossy(0.02, 50_000),
            ..SimConfig::default()
        };
        let load = Workload {
            qpn0: 20,
            vl: 1,
            messages: MESSAGES,
            payload_len: 200,
            post_interval: 5 * US,
            bucket: 100 * US,
            max_sim_time: 500 * MS,
        };
        let tap = Tap {
            node: 15,
            qpn: Qpn(20),
            every: 2,
            delay: 5 * US,
            inject_from: 5,
        };
        let specs = (0..8).map(|i| (i, 15 - i, RdmaOp::ALL[i % 3], 0));
        let make = |qpn: Qpn, lid, peer, node: &_| {
            let rc = RcConfig {
                retransmit: [RetransmitMode::GoBackN, RetransmitMode::SelectiveRepeat]
                    [qpn.0 as usize % 2],
                ..RcConfig::default()
            };
            SecureRcEndpoint::on_node(
                ChannelSecurity::AuthReplay,
                PKey(0x8001),
                SecretKey::from_seed(11),
                64,
                rc,
                lid,
                peer,
                qpn,
                node,
            )
        };
        let mut cosim = Cosim::new(Simulator::new(sim_cfg), load, tap, specs, make);
        cosim.run(&mut ());
        cosim
    }

    #[test]
    fn eight_mixed_flows_deliver_exactly_once_under_loss_and_attack() {
        let c = eight_mixed_flows();
        let expected = 8 * MESSAGES as u64;
        assert!(!c.failed && !c.timed_out);
        assert_eq!(c.ledger.delivered, expected);
        assert_eq!((c.ledger.duplicates, c.ledger.mismatches), (0, 0));
        assert_eq!(c.ledger.latency_us.count(), expected);
        for (i, f) in c.flows.iter().enumerate() {
            assert!(f.seen.iter().all(|&s| s), "flow {i} ({:?})", f.op);
        }
        assert!(c.replays_injected > 0, "the attacker was active");
        assert_eq!(c.flows[0].b.stats.dup_admitted_fresh, 0, "window holds");
        let retransmits: u64 = c.flows.iter().map(|f| f.a.retransmits()).sum();
        assert!(retransmits > 0, "2% loss forces retransmission");
        assert!(c.ledger.unparseable > 0, "corrupted arrivals were counted");
        assert!(c.polls <= 8 * expected, "{} polls", c.polls);

        let counters = |c: &Cosim| {
            let fabric = c.sim.stats().to_json().to_string();
            let latency = c.ledger.latency_us.to_json().to_string();
            let counts = (c.steps, c.polls, c.completion_ps(), c.replays_injected);
            (
                counts,
                c.ledger.unparseable,
                c.ledger.buckets.clone(),
                latency,
                fabric,
            )
        };
        assert_eq!(
            counters(&c),
            counters(&eight_mixed_flows()),
            "same seed, same run"
        );
    }
}
