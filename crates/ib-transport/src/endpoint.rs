//! [`SecureRcEndpoint`]: one side of a reliable connection, wiring the
//! [`crate::qp::RcQp`] state machine to an [`ib_security::SecureChannel`].
//!
//! ## Verbs
//!
//! The endpoint speaks three verb families, all MTU-segmented by the QP
//! ([`crate::qp`]) and reassembled here:
//!
//! * **SEND** — [`SecureRcEndpoint::post`]: delivered to the peer's receive queue
//!   ([`SecureRcEndpoint::take_delivered`]), one receive-buffer slot per message.
//! * **RDMA WRITE** — [`SecureRcEndpoint::post_write`]: lands directly in the peer's
//!   registered memory region ([`SecureRcEndpoint::configure_memory`]) after an
//!   R_Key + bounds check; completion surfaces via
//!   [`SecureRcEndpoint::take_write_events`]. The RETH rides the First/Only segment
//!   and — because the ICRC mask leaves extended transport headers
//!   untouched — is covered by the MAC: a flipped address or R_Key fails
//!   verification before any memory is touched.
//! * **RDMA READ** — [`SecureRcEndpoint::post_read`]: the responder serves the
//!   request from its memory region as segmented ReadResponse packets
//!   (in this model: sent in the responder's own send PSN space and
//!   acknowledged like data, a simplification of IBA's
//!   responses-consume-request-PSNs rule); the requester matches
//!   completed responses FIFO against its outstanding requests
//!   ([`SecureRcEndpoint::take_read_completions`]) — sound because RC delivery is
//!   in order.
//!
//! ## Ordering discipline (who judges what, and in what order)
//!
//! The replay window's bitmap must stay strictly in **delivery order** or
//! its verdicts stop meaning "was this PSN delivered?". The endpoint
//! therefore classifies every data packet against the transport's
//! expected PSN *before* the channel sees it:
//!
//! * **Ahead** of expected → a gap. Under go-back-N: NAK and drop
//!   *without* touching the replay window. If the window recorded the
//!   packet now, the in-order retransmit that go-back-N is about to
//!   produce would read as a duplicate and the message would never be
//!   delivered. Under selective repeat the sender will *not* resend
//!   what the NAK did not name, so an in-window ahead packet is admitted
//!   through the replay window immediately and buffered; when the gap
//!   heals, buffered segments apply **without** a second admission.
//! * **In order** → check receive-buffer budget first for SEND segments
//!   (an RNR'd packet must not be recorded either — it was not
//!   delivered), then [`SecureChannel::admit`]: `Fresh` applies the
//!   segment, and only then does the window remember the PSN.
//! * **Behind** expected → some already-received PSN. The transport
//!   re-ACKs (cumulative ACKs are idempotent; a sender whose ACK was
//!   lost needs this), but **delivery** is the channel's call. With the
//!   replay window the verdict is `Duplicate` — suppressed. Without it
//!   the packet verifies and walks in as `Fresh`: that admission is the
//!   §7 vulnerability, counted in [`EndpointStats::dup_admitted_fresh`].
//!
//! Why not let the transport's expected-PSN comparison do the
//! suppressing? Because it is not a security boundary: the PSN ring is
//! 24 bits, so over a connection's lifetime a captured packet's PSN
//! comes back around and classifies as Ahead or InOrder again, and the
//! half-ring Behind test cannot distinguish "delivered long ago" from
//! "never existed". The replay window's bounded, delivered-vs-lost
//! bitmap is the sound mechanism; the experiment measures exactly what
//! happens when it is absent.
//!
//! ## ACKs are verified but not windowed
//!
//! Acknowledgment packets pass [`SecureChannel::verify_only`] — MAC
//! checked, replay window untouched. A replayed cumulative ACK is
//! idempotent (it acknowledges a prefix the sender already advanced
//! past), and ACK PSNs live in the *data* sequence space, so feeding
//! them to the data window would poison it. Read *responses* carry an
//! AETH too but are data: dispatch is by opcode, not header presence.
//!
//! ## Zero-allocation send path
//!
//! Data and ACK packets are not rebuilt per send. The endpoint keeps two
//! sealed packet *templates* (`tx_pkt`, `ack_pkt`); each transmission
//! only rewrites the operation, PSN, optional RETH/AETH (all `Copy`) and
//! payload, re-runs [`Packet::seal_lengths`], and hands the template to
//! [`SecureChannel::seal_into`] with a wire buffer drawn from a bounded
//! recycle pool: one serialization, one one-shot MAC over a masked copy
//! of the written bytes, one VCRC over them.
//! Once the template payload capacity and the pool are warm,
//! [`SecureRcEndpoint::poll_into`] performs no heap allocation.
//!
//! ## One pass over the received bytes
//!
//! [`SecureRcEndpoint::handle_wire`] never builds a [`Packet`]: it takes
//! a [`WireView`] of the arrival ([`Packet::parse_view`], the one VCRC
//! check), dispatches on its header fields, and the channel MACs a masked
//! copy of the same bytes ([`SecureChannel::admit_view`] /
//! [`SecureChannel::verify_only`]) without checking the VCRC again. An
//! admitted payload is copied once, straight from the wire buffer into
//! where it ends up: the buffer handed to the application, the SEND or
//! READ-response reassembly buffer, RDMA memory, or a selective-repeat
//! slot. So an ACK costs no allocation and a delivered single-packet SEND
//! costs exactly one — the buffer [`SecureRcEndpoint::take_delivered`]
//! gives away, which nothing hands back (returning it needs a
//! buffer-return API the frozen benchmark loop would have to call).

use std::borrow::Cow;
use std::collections::VecDeque;

use ib_mgmt::keymgmt::{KeyEpoch, SecretKey};
use ib_packet::types::{Lid, PKey, Psn, Qpn, RKey};
use ib_packet::{
    Aeth, AethKind, NakCode, OpCode, Operation, Packet, PacketBuilder, Reth, WireView,
};
use ib_runtime::hash::FxHashMap;
use ib_security::{Admit, ChannelSecurity, SecureChannel};
use ib_sim::SimTime;

use crate::config::{RcConfig, RetransmitMode};
use crate::qp::{psn_sub, RcQp, RxClass, RxReply};

/// RNR timer code placed in the AETH (the 5-bit IBA encoding is a table
/// lookup; both ends of this connection share an [`RcConfig`], so the
/// code is advisory and the sender backs off by `cfg.rnr_timer`).
const RNR_TIMER_CODE: u8 = 0;

/// Upper bound on pooled wire buffers; excess recycles are dropped so a
/// burst cannot pin memory forever.
const POOL_CAP: usize = 64;

/// Per-endpoint transport/security counters (the fig_replay metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// SEND messages delivered to the application for the first time.
    pub delivered: u64,
    /// Behind-expected packets the channel suppressed as duplicates
    /// (lost-ACK retransmits and attacker replays alike).
    pub dup_suppressed: u64,
    /// Behind-expected packets the channel admitted as `Fresh` — already
    /// -received data delivered *again*. Zero whenever the replay window
    /// is on; the replay-attack success count when it is off.
    pub dup_admitted_fresh: u64,
    /// Ahead-of-expected packets dropped (go-back-N gaps).
    pub gap_drops: u64,
    /// Ahead-of-expected packets buffered out of order (selective repeat).
    pub ooo_buffered: u64,
    /// Wire buffers that failed to parse (corruption caught by the VCRC).
    pub parse_drops: u64,
    /// ACK/NAK/RNR packets processed.
    pub acks_rx: u64,
    /// RNR NAKs sent because the receive buffer was full.
    pub rnr_sent: u64,
    /// RDMA ops refused: R_Key mismatch, out-of-bounds address range, or
    /// a Middle/Last segment with no open transaction.
    pub rdma_faults: u64,
    /// RDMA READ requests served from the memory region.
    pub reads_served: u64,
}

/// An in-progress multi-segment RDMA WRITE on the responder side.
#[derive(Debug, Clone, Copy)]
struct WriteProgress {
    addr: u64,
    dma_len: u32,
    written: usize,
}

/// A selective-repeat segment buffered ahead of the expected PSN. It was
/// already admitted through the replay window when it arrived.
#[derive(Debug)]
struct StoredSeg {
    op: Operation,
    reth: Option<Reth>,
    payload: Vec<u8>,
}

/// One side of a secure reliable connection: post messages, shuttle wire
/// buffers, take delivered messages / RDMA completions.
pub struct SecureRcEndpoint {
    channel: SecureChannel,
    qp: RcQp,
    /// Sealed data-packet template: addressing fixed at construction;
    /// operation / PSN / RETH / payload change per send.
    tx_pkt: Packet,
    /// Sealed ACK/NAK/RNR template: only PSN / AETH / seal change.
    ack_pkt: Packet,
    /// Recycled wire buffers (see [`Self::recycle`]).
    pool: Vec<Vec<u8>>,
    outbox: VecDeque<Vec<u8>>,
    delivered: VecDeque<Vec<u8>>,
    /// SEND reassembly buffer (First/Middle accumulate here).
    rx_msg: Vec<u8>,
    /// Open multi-segment WRITE, if any.
    rx_write: Option<WriteProgress>,
    /// READ-response reassembly buffer.
    rx_read_resp: Vec<u8>,
    /// Completed READ payloads, FIFO-matched to outstanding requests.
    completed_reads: VecDeque<Vec<u8>>,
    /// Completed inbound WRITEs as (virt_addr, length) events.
    write_events: VecDeque<(u64, u32)>,
    /// Registered memory region RDMA ops target.
    memory: Vec<u8>,
    /// The R_Key that unlocks `memory`; `None` refuses all RDMA.
    rkey: Option<RKey>,
    /// Selective repeat: segments received ahead of the expected PSN,
    /// keyed by PSN, already past the replay window. Probed once per
    /// in-order arrival, hence the cheap hasher.
    ooo: FxHashMap<u32, StoredSeg>,
    /// Transport/security counters, readable at any time.
    pub stats: EndpointStats,
}

impl SecureRcEndpoint {
    /// Build an endpoint. `replay_window` is the channel's window depth
    /// under [`ChannelSecurity::AuthReplay`].
    ///
    /// # Panics
    ///
    /// If the transport send window exceeds the replay window: a genuine
    /// retransmit could then age out of the window and be rejected as
    /// stale, breaking reliable delivery. (The same bound makes
    /// selective repeat's ahead-of-order admissions safe: an in-window
    /// ahead PSN never pushes the missing PSN out of the replay window.)
    #[allow(clippy::too_many_arguments)] // a connection is genuinely this wide
    pub fn new(
        security: ChannelSecurity,
        pkey: PKey,
        secret: SecretKey,
        replay_window: u32,
        cfg: RcConfig,
        lid: Lid,
        peer_lid: Lid,
        qpn: Qpn,
    ) -> Self {
        let channel = SecureChannel::new(security, pkey, secret, replay_window);
        if let Some(depth) = channel.window_depth() {
            assert!(
                cfg.window <= depth,
                "send window {} exceeds replay window {depth}: retransmits could go stale",
                cfg.window
            );
        }
        let tx_pkt = PacketBuilder::new(OpCode::RC_SEND_ONLY)
            .slid(lid)
            .dlid(peer_lid)
            .pkey(pkey)
            .dest_qp(qpn)
            .psn(Psn(0))
            .build();
        let ack_pkt = PacketBuilder::new(OpCode::RC_ACKNOWLEDGE)
            .slid(lid)
            .dlid(peer_lid)
            .pkey(pkey)
            .dest_qp(qpn)
            .psn(Psn(0))
            .ack(0, 0)
            .build();
        SecureRcEndpoint {
            channel,
            qp: RcQp::new(cfg),
            tx_pkt,
            ack_pkt,
            pool: Vec::new(),
            outbox: VecDeque::new(),
            delivered: VecDeque::new(),
            rx_msg: Vec::new(),
            rx_write: None,
            rx_read_resp: Vec::new(),
            completed_reads: VecDeque::new(),
            write_events: VecDeque::new(),
            memory: Vec::new(),
            rkey: None,
            ooo: FxHashMap::default(),
            stats: EndpointStats::default(),
        }
    }

    /// Register `size` bytes of zeroed memory reachable by RDMA under
    /// `rkey`. Until this is called every inbound RDMA op faults.
    pub fn configure_memory(&mut self, size: usize, rkey: RKey) {
        self.memory = vec![0; size];
        self.rkey = Some(rkey);
    }

    /// The registered memory region (what RDMA WRITEs landed).
    pub fn memory(&self) -> &[u8] {
        &self.memory
    }

    /// Mutable view of the memory region (pre-filling READ sources).
    pub fn memory_mut(&mut self) -> &mut [u8] {
        &mut self.memory
    }

    /// Queue a SEND message for reliable, authenticated delivery to the
    /// peer's receive queue.
    pub fn post(&mut self, payload: Vec<u8>) {
        self.qp.post_send(payload);
    }

    /// Queue an RDMA WRITE of `payload` into the peer's memory at
    /// `virt_addr` under `rkey`.
    pub fn post_write(&mut self, virt_addr: u64, rkey: RKey, payload: Vec<u8>) {
        self.qp.post_write(virt_addr, rkey, payload);
    }

    /// Queue an RDMA READ of `len` bytes from the peer's memory at
    /// `virt_addr` under `rkey`. The completed payload surfaces via
    /// [`Self::take_read_completions`].
    pub fn post_read(&mut self, virt_addr: u64, rkey: RKey, len: u32) {
        self.qp.post_read(virt_addr, rkey, len);
    }

    /// True when every posted message has been sent and acknowledged.
    pub fn tx_idle(&self) -> bool {
        self.qp.tx_idle()
    }

    /// True when the sender exhausted its retries (QP error state).
    pub fn failed(&self) -> bool {
        self.qp.is_dead()
    }

    /// Total retransmissions performed by this endpoint's sender half.
    pub fn retransmits(&self) -> u64 {
        self.qp.retransmits
    }

    /// The security channel (for its admission counters).
    pub fn channel(&self) -> &SecureChannel {
        &self.channel
    }

    /// Configure how long a superseded key epoch keeps verifying after
    /// its successor is installed (see [`SecureChannel::set_epoch_grace`]).
    pub fn set_epoch_grace(&mut self, grace: SimTime) {
        self.channel.set_epoch_grace(grace);
    }

    /// Install a key version learned from the SM's key-update MAD: the
    /// next [`Self::poll_into`] seals (and re-seals retransmits) under the
    /// newest epoch, while inbound traffic under older epochs keeps
    /// verifying until the grace window runs out.
    pub fn install_epoch(&mut self, now: SimTime, epoch: KeyEpoch, secret: SecretKey) {
        self.channel.install_epoch(now, epoch, secret);
    }

    /// Messages fully received in order (the receiver half's MSN).
    pub fn rx_msn(&self) -> u32 {
        self.qp.msn()
    }

    /// Earliest instant this endpoint needs a timer wake-up.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.qp.next_deadline()
    }

    /// Drain SEND messages delivered since the last call, releasing
    /// their receive-buffer slots.
    pub fn take_delivered(&mut self) -> Vec<Vec<u8>> {
        let out: Vec<Vec<u8>> = self.delivered.drain(..).collect();
        for _ in &out {
            self.qp.rx_release();
        }
        out
    }

    /// Drain completed RDMA READ payloads, in request order.
    pub fn take_read_completions(&mut self) -> Vec<Vec<u8>> {
        self.completed_reads.drain(..).collect()
    }

    /// Drain completed inbound RDMA WRITEs as (virt_addr, len) events.
    pub fn take_write_events(&mut self) -> Vec<(u64, u32)> {
        self.write_events.drain(..).collect()
    }

    /// Run timers and collect every wire buffer this endpoint wants to
    /// transmit now: queued ACK traffic first, then window-permitted data.
    ///
    /// Allocating convenience wrapper over [`Self::poll_into`].
    pub fn poll(&mut self, now: SimTime) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// [`Self::poll`], appending into a caller-owned buffer list. Wire
    /// buffers come from the recycle pool when available; with a warm
    /// pool and warm templates this performs no heap allocation.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<Vec<u8>>) {
        // Retire key epochs whose rotation grace window has expired.
        self.channel.advance_time(now);
        // Retransmission timer: a rewind makes poll_tx below re-emit.
        self.qp.on_timeout(now);
        // Delayed-ACK timer.
        if let Some(reply) = self.qp.poll_ack(now) {
            self.queue_reply(reply);
        }
        out.extend(self.outbox.drain(..));
        // Destructure: `poll_tx`'s borrow of `qp` must coexist with the
        // template, channel, and pool.
        let Self {
            qp,
            channel,
            tx_pkt,
            pool,
            ..
        } = self;
        while let Some(item) = qp.poll_tx(now) {
            // Opcode + optional headers move in lockstep so serialization
            // (Option-driven) matches what a parser (opcode-driven) will
            // reconstruct. All header writes are `Copy` — no allocation.
            tx_pkt.bth.opcode.operation = item.op;
            tx_pkt.bth.psn = Psn(item.psn);
            tx_pkt.reth = item.reth;
            // Read responses carry a structurally-required AETH; its
            // syndrome is decorative here (dispatch is by opcode).
            tx_pkt.aeth = if item.op.has_aeth() {
                Some(Aeth::ack(0))
            } else {
                None
            };
            tx_pkt.payload.clear();
            tx_pkt.payload.extend_from_slice(&item.payload);
            tx_pkt.seal_lengths();
            // A retransmit rebuilds byte-identical content under the
            // original PSN, so the seal produces the identical nonce and
            // tag: on the wire it is indistinguishable from an attacker's
            // replay.
            let mut buf = pool.pop().unwrap_or_default();
            channel
                .seal_into(tx_pkt, &mut buf)
                .expect("partition secret installed at construction");
            out.push(buf);
        }
    }

    /// Hand a spent wire buffer back for reuse by a future send. The pool
    /// is bounded by `POOL_CAP`; excess buffers are simply freed.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.pool.len() < POOL_CAP {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// Process one arriving wire buffer: view it (the one VCRC check),
    /// then route to the ACK or data state machine. Dispatch is by opcode,
    /// not AETH presence: read responses carry an AETH yet their PSNs live
    /// in the peer's *data* sequence space.
    pub fn handle_wire(&mut self, now: SimTime, bytes: &[u8]) {
        self.channel.advance_time(now);
        match Packet::parse_view(bytes) {
            Err(_) => self.stats.parse_drops += 1,
            Ok(view) if view.bth.opcode.operation == Operation::Acknowledge => {
                self.handle_ack(now, &view)
            }
            Ok(view) => self.handle_data(now, &view),
        }
    }

    /// [`Self::handle_wire`] per buffer, then [`Self::poll_into`]. Kept
    /// only because the frozen `benchmark/` package probes it by name.
    pub fn poll_batch(&mut self, now: SimTime, inbound: &[&[u8]], out: &mut Vec<Vec<u8>>) {
        for bytes in inbound {
            self.handle_wire(now, bytes);
        }
        self.poll_into(now, out);
    }

    fn handle_ack(&mut self, now: SimTime, packet: &WireView) {
        if self.channel.verify_only(packet).is_err() {
            return; // forged or corrupted ACK: counted in channel stats
        }
        let Some(kind) = packet.aeth.as_ref().and_then(Aeth::kind) else {
            self.stats.parse_drops += 1; // reserved syndrome encoding
            return;
        };
        self.stats.acks_rx += 1;
        let psn = packet.bth.psn.0;
        match kind {
            AethKind::Ack { .. } => self.qp.on_ack(now, psn),
            AethKind::Nak(NakCode::PsnSequenceError) => self.qp.on_nak(now, psn),
            // The fatal NAK classes put a real QP in the error state; this
            // transport never generates them, so treat as unhandled.
            AethKind::Nak(_) => {}
            AethKind::Rnr { .. } => {
                let delay = self.qp.config().rnr_timer;
                self.qp.on_rnr(now, psn, delay);
            }
        }
    }

    fn handle_data(&mut self, now: SimTime, packet: &WireView) {
        let psn = packet.bth.psn.0;
        let op = packet.bth.opcode.operation;
        match self.qp.rx_classify(psn) {
            RxClass::Ahead => {
                let cfg = self.qp.config();
                let in_window = psn_sub(psn, self.qp.expected_psn()) < cfg.window;
                if cfg.retransmit == RetransmitMode::SelectiveRepeat && in_window {
                    // The sender will NOT resend this PSN (the NAK names
                    // only the missing one), so record it in the replay
                    // window now and buffer the segment for the drain.
                    match self.channel.admit_view(packet) {
                        Ok(Admit::Fresh) => {
                            self.stats.ooo_buffered += 1;
                            self.ooo.insert(
                                psn,
                                StoredSeg {
                                    op,
                                    reth: packet.reth,
                                    payload: packet.payload.to_vec(),
                                },
                            );
                        }
                        Ok(Admit::Duplicate) => self.stats.dup_suppressed += 1,
                        Err(_) => {}
                    }
                } else {
                    // Go-back-N gap: never shown to the replay window (see
                    // module docs) — the in-order retransmit must stay
                    // judgeable as Fresh.
                    self.stats.gap_drops += 1;
                }
                if let Some(reply) = self.qp.rx_gap() {
                    self.queue_reply(reply);
                }
            }
            RxClass::InOrder => {
                let is_send = matches!(
                    op,
                    Operation::SendFirst
                        | Operation::SendMiddle
                        | Operation::SendLast
                        | Operation::SendOnly
                );
                if is_send && !self.qp.rx_has_budget() {
                    // Not deliverable, so not recorded: the retransmit
                    // after the RNR back-off must still verdict Fresh.
                    // RDMA ops bypass receive buffers entirely.
                    self.stats.rnr_sent += 1;
                    let reply = self.qp.rx_not_ready();
                    self.queue_reply(reply);
                    return;
                }
                match self.channel.admit_view(packet) {
                    Ok(Admit::Fresh) => {
                        self.accept_and_drain(now, op, packet.reth, packet.payload);
                    }
                    Ok(Admit::Duplicate) => {
                        // The window saw this PSN although the transport
                        // did not: advance past it without re-applying.
                        self.stats.dup_suppressed += 1;
                        if let Some(reply) = self.qp.rx_accept(now, msg_end_of(op)) {
                            self.queue_reply(reply);
                        }
                    }
                    Err(_) => {} // counted in channel stats
                }
            }
            RxClass::Behind => {
                match self.channel.admit_view(packet) {
                    Ok(Admit::Fresh) => {
                        // No replay window to remember the delivery: an
                        // already-received packet is accepted AGAIN. This
                        // is the replay attack succeeding.
                        self.stats.dup_admitted_fresh += 1;
                        if op == Operation::SendOnly {
                            self.qp.rx_reserve();
                            self.delivered.push_back(packet.payload.to_vec());
                        }
                        // Replayed segments of multi-packet messages and
                        // RDMA ops are counted but not re-applied: the
                        // admission itself is the measured failure.
                        let reply = self.qp.rx_duplicate();
                        self.queue_reply(reply);
                    }
                    Ok(Admit::Duplicate) => {
                        // Lost-ACK retransmit or attacker replay — either
                        // way: suppress, re-ACK so the sender moves on.
                        self.stats.dup_suppressed += 1;
                        let reply = self.qp.rx_duplicate();
                        self.queue_reply(reply);
                    }
                    Err(_) => {}
                }
            }
        }
    }

    /// Apply a freshly-admitted in-order segment (its payload still in
    /// the wire buffer), then drain any selective-repeat buffered
    /// successors that are now in order (they were admitted through the
    /// replay window when they arrived — no second admission).
    fn accept_and_drain(
        &mut self,
        now: SimTime,
        op: Operation,
        reth: Option<Reth>,
        payload: &[u8],
    ) {
        if let Some(reply) = self.apply_segment(now, op, reth, Cow::Borrowed(payload)) {
            self.queue_reply(reply);
        }
        while let Some(seg) = self.ooo.remove(&self.qp.expected_psn()) {
            let payload = Cow::Owned(seg.payload);
            if let Some(reply) = self.apply_segment(now, seg.op, seg.reth, payload) {
                self.queue_reply(reply);
            }
        }
        // Segments still buffered beyond a second loss: ask for the new
        // expected PSN right away instead of waiting for the sender's RTO
        // (rx_accept cleared the per-gap NAK latch).
        if !self.ooo.is_empty() {
            if let Some(reply) = self.qp.rx_gap() {
                self.queue_reply(reply);
            }
        }
    }

    /// Verb-specific effect of one in-order segment, then the transport
    /// accept (PSN advance, MSN on message end, ACK coalescing). The
    /// payload is borrowed from the wire buffer, or owned when it comes
    /// out of a selective-repeat slot; either way it is copied at most
    /// once more, into where it lands.
    fn apply_segment(
        &mut self,
        now: SimTime,
        op: Operation,
        reth: Option<Reth>,
        payload: Cow<'_, [u8]>,
    ) -> Option<RxReply> {
        match op {
            Operation::SendOnly => {
                self.qp.rx_reserve();
                self.delivered.push_back(payload.into_owned());
                self.stats.delivered += 1;
            }
            Operation::SendFirst => {
                self.rx_msg.clear();
                self.rx_msg.extend_from_slice(&payload);
            }
            Operation::SendMiddle => {
                self.rx_msg.extend_from_slice(&payload);
            }
            Operation::SendLast => {
                self.rx_msg.extend_from_slice(&payload);
                self.qp.rx_reserve();
                self.delivered.push_back(std::mem::take(&mut self.rx_msg));
                self.stats.delivered += 1;
            }
            Operation::RdmaWriteOnly => {
                if let Some(reth) = reth {
                    self.write_start(reth, &payload, true);
                }
            }
            Operation::RdmaWriteFirst => {
                if let Some(reth) = reth {
                    self.write_start(reth, &payload, false);
                }
            }
            Operation::RdmaWriteMiddle => self.write_continue(&payload, false),
            Operation::RdmaWriteLast => self.write_continue(&payload, true),
            Operation::RdmaReadRequest => {
                if let Some(reth) = reth {
                    self.serve_read(reth);
                }
            }
            Operation::RdmaReadResponseOnly => {
                self.completed_reads.push_back(payload.into_owned());
            }
            Operation::RdmaReadResponseFirst => {
                self.rx_read_resp.clear();
                self.rx_read_resp.extend_from_slice(&payload);
            }
            Operation::RdmaReadResponseMiddle => {
                self.rx_read_resp.extend_from_slice(&payload);
            }
            Operation::RdmaReadResponseLast => {
                self.rx_read_resp.extend_from_slice(&payload);
                self.completed_reads
                    .push_back(std::mem::take(&mut self.rx_read_resp));
            }
            Operation::Acknowledge => unreachable!("dispatched to handle_ack"),
        }
        self.qp.rx_accept(now, msg_end_of(op))
    }

    /// Validate and begin (or complete, for Only) an inbound RDMA WRITE.
    /// The R_Key and bounds are checked against the registered region;
    /// a refused op still advances the PSN — IBA would move the QP to an
    /// error state, here we count the fault and keep the flow alive.
    fn write_start(&mut self, reth: Reth, payload: &[u8], only: bool) {
        let addr = reth.virt_addr as usize;
        let valid = self.rkey == Some(reth.rkey)
            && addr
                .checked_add(reth.dma_len as usize)
                .is_some_and(|end| end <= self.memory.len())
            && payload.len() <= reth.dma_len as usize;
        if !valid {
            self.stats.rdma_faults += 1;
            self.rx_write = None;
            return;
        }
        self.memory[addr..addr + payload.len()].copy_from_slice(payload);
        if only {
            self.write_events.push_back((reth.virt_addr, reth.dma_len));
        } else {
            self.rx_write = Some(WriteProgress {
                addr: reth.virt_addr,
                dma_len: reth.dma_len,
                written: payload.len(),
            });
        }
    }

    /// Continue (Middle) or finish (Last) the open multi-segment WRITE.
    fn write_continue(&mut self, payload: &[u8], last: bool) {
        let Some(w) = self.rx_write else {
            self.stats.rdma_faults += 1; // no transaction open
            return;
        };
        let off = w.addr as usize + w.written;
        if w.written + payload.len() > w.dma_len as usize || off + payload.len() > self.memory.len()
        {
            self.stats.rdma_faults += 1;
            self.rx_write = None;
            return;
        }
        self.memory[off..off + payload.len()].copy_from_slice(payload);
        let written = w.written + payload.len();
        if last {
            self.rx_write = None;
            self.write_events.push_back((w.addr, written as u32));
        } else {
            self.rx_write = Some(WriteProgress { written, ..w });
        }
    }

    /// Serve an RDMA READ request from the memory region: the response
    /// data is posted on our send side as segmented ReadResponse packets.
    fn serve_read(&mut self, reth: Reth) {
        let addr = reth.virt_addr as usize;
        let valid = self.rkey == Some(reth.rkey)
            && addr
                .checked_add(reth.dma_len as usize)
                .is_some_and(|end| end <= self.memory.len());
        if !valid {
            self.stats.rdma_faults += 1;
            return;
        }
        self.stats.reads_served += 1;
        let data = self.memory[addr..addr + reth.dma_len as usize].to_vec();
        self.qp.post_read_response(data);
    }

    fn queue_reply(&mut self, reply: RxReply) {
        let (psn, aeth) = match reply {
            RxReply::Ack { psn, msn } => (psn, Aeth::ack(msn)),
            RxReply::Nak { psn, msn } => (psn, Aeth::nak(NakCode::PsnSequenceError, msn)),
            RxReply::Rnr { psn, msn } => (psn, Aeth::rnr(RNR_TIMER_CODE, msn)),
        };
        self.ack_pkt.bth.psn = Psn(psn);
        *self
            .ack_pkt
            .aeth
            .as_mut()
            .expect("ACK template carries AETH") = aeth;
        let mut buf = self.pool.pop().unwrap_or_default();
        self.channel
            .seal_into(&mut self.ack_pkt, &mut buf)
            .expect("partition secret installed at construction");
        self.outbox.push_back(buf);
    }
}

/// True when `op` completes a message — the segments that advance MSN.
fn msg_end_of(op: Operation) -> bool {
    matches!(
        op,
        Operation::SendOnly
            | Operation::SendLast
            | Operation::RdmaWriteOnly
            | Operation::RdmaWriteLast
            | Operation::RdmaReadRequest
            | Operation::RdmaReadResponseOnly
            | Operation::RdmaReadResponseLast
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_sim::time::US;

    const PKEY: PKey = PKey(0x8001);

    fn pair(security: ChannelSecurity, cfg: RcConfig) -> (SecureRcEndpoint, SecureRcEndpoint) {
        let secret = SecretKey::from_seed(99);
        let a = SecureRcEndpoint::new(security, PKEY, secret, 64, cfg, Lid(1), Lid(2), Qpn(7));
        let b = SecureRcEndpoint::new(security, PKEY, secret, 64, cfg, Lid(2), Lid(1), Qpn(7));
        (a, b)
    }

    /// Shuttle wire buffers both ways until neither side has anything to
    /// say, advancing time to the earliest pending deadline when idle.
    fn pump(a: &mut SecureRcEndpoint, b: &mut SecureRcEndpoint, start: SimTime) -> SimTime {
        let mut now = start;
        for _ in 0..10_000 {
            let a_out = a.poll(now);
            let b_out = b.poll(now);
            if a_out.is_empty() && b_out.is_empty() {
                // Nothing on the wire: jump to the earliest timer, or stop
                // when no timer is armed either.
                match a.next_deadline().into_iter().chain(b.next_deadline()).min() {
                    Some(next) => {
                        now = next;
                        continue;
                    }
                    None => return now,
                }
            }
            for bytes in a_out {
                b.handle_wire(now, &bytes);
            }
            for bytes in b_out {
                a.handle_wire(now, &bytes);
            }
            now += US;
            if a.tx_idle()
                && b.tx_idle()
                && a.next_deadline().is_none()
                && b.next_deadline().is_none()
            {
                return now;
            }
        }
        panic!("pump did not converge");
    }

    #[test]
    fn lossless_delivery_all_arms() {
        for arm in ChannelSecurity::ALL {
            let (mut a, mut b) = pair(arm, RcConfig::default());
            for i in 0..20u8 {
                a.post(vec![i; 32]);
            }
            pump(&mut a, &mut b, 0);
            let got = b.take_delivered();
            assert_eq!(got.len(), 20, "{arm:?}");
            assert!(got.iter().enumerate().all(|(i, m)| m[0] == i as u8));
            assert!(a.tx_idle());
            assert_eq!(b.stats.dup_admitted_fresh, 0);
        }
    }

    #[test]
    fn multi_segment_send_reassembles() {
        let (mut a, mut b) = pair(ChannelSecurity::AuthReplay, RcConfig::default());
        let mtu = RcConfig::default().mtu;
        let msg: Vec<u8> = (0..mtu * 3 + 17).map(|i| (i * 7) as u8).collect();
        a.post(msg.clone());
        pump(&mut a, &mut b, 0);
        assert_eq!(b.take_delivered(), vec![msg]);
        assert_eq!(b.stats.delivered, 1);
        assert_eq!(b.rx_msn(), 1, "four segments, one MSN");
    }

    #[test]
    fn rdma_write_lands_in_peer_memory() {
        let (mut a, mut b) = pair(ChannelSecurity::AuthReplay, RcConfig::default());
        let rkey = RKey(0x5EC0_0001);
        let mtu = RcConfig::default().mtu;
        b.configure_memory(8 * mtu, rkey);
        // Multi-segment write at an offset, then a short Only write.
        let big: Vec<u8> = (0..2 * mtu + 9).map(|i| (i % 251) as u8).collect();
        a.post_write(64, rkey, big.clone());
        a.post_write(0, rkey, vec![0xAB; 8]);
        pump(&mut a, &mut b, 0);
        assert_eq!(&b.memory()[64..64 + big.len()], &big[..]);
        assert_eq!(&b.memory()[..8], &[0xAB; 8]);
        assert_eq!(
            b.take_write_events(),
            vec![(64, big.len() as u32), (0, 8)],
            "completion events in order"
        );
        assert_eq!(b.stats.rdma_faults, 0);
        assert!(
            b.take_delivered().is_empty(),
            "writes bypass the recv queue"
        );
    }

    #[test]
    fn rdma_write_wrong_rkey_faults_without_touching_memory() {
        let (mut a, mut b) = pair(ChannelSecurity::AuthReplay, RcConfig::default());
        b.configure_memory(1024, RKey(1));
        a.post_write(0, RKey(2), vec![0xFF; 100]);
        pump(&mut a, &mut b, 0);
        assert_eq!(b.stats.rdma_faults, 1);
        assert!(b.memory().iter().all(|&x| x == 0), "memory untouched");
        assert!(a.tx_idle(), "flow continues past the refused op");
    }

    #[test]
    fn rdma_read_round_trip() {
        let (mut a, mut b) = pair(ChannelSecurity::AuthReplay, RcConfig::default());
        let rkey = RKey(7);
        let mtu = RcConfig::default().mtu;
        b.configure_memory(4 * mtu, rkey);
        let src: Vec<u8> = (0..3 * mtu).map(|i| (i * 13) as u8).collect();
        b.memory_mut()[..src.len()].copy_from_slice(&src);
        // A segmented read (3 MTUs: First/Middle/Last responses) and a
        // short one (Only).
        a.post_read(0, rkey, src.len() as u32);
        a.post_read(mtu as u64, rkey, 32);
        pump(&mut a, &mut b, 0);
        let got = a.take_read_completions();
        assert_eq!(got.len(), 2, "completions FIFO-match requests");
        assert_eq!(got[0], src);
        assert_eq!(got[1], src[mtu..mtu + 32]);
        assert_eq!(b.stats.reads_served, 2);
        assert_eq!(a.stats.dup_admitted_fresh, 0);
    }

    #[test]
    fn selective_repeat_nak_path_buffers_ahead() {
        let cfg = RcConfig {
            retransmit: RetransmitMode::SelectiveRepeat,
            ack_coalesce: 1,
            ..RcConfig::default()
        };
        let (mut a, mut b) = pair(ChannelSecurity::AuthReplay, cfg);
        for i in 0..4u8 {
            a.post(vec![i]);
        }
        let wire = a.poll(0);
        assert_eq!(wire.len(), 4);
        // Lose PSN 1 on the wire; 0, 2, 3 arrive: 2 and 3 are buffered.
        for (i, bytes) in wire.iter().enumerate() {
            if i != 1 {
                b.handle_wire(0, bytes);
            }
        }
        assert_eq!(b.stats.ooo_buffered, 2);
        assert_eq!(b.stats.gap_drops, 0, "SR buffers instead of dropping");
        pump(&mut a, &mut b, US);
        let got = b.take_delivered();
        assert_eq!(got.len(), 4);
        assert_eq!(got[1], vec![1u8]);
        assert_eq!(a.retransmits(), 1, "only the missing PSN was resent");
        assert_eq!(b.stats.dup_admitted_fresh, 0);
    }

    #[test]
    fn dropped_packet_recovers_via_nak_with_original_psn() {
        let (mut a, mut b) = pair(ChannelSecurity::AuthReplay, RcConfig::default());
        for i in 0..4u8 {
            a.post(vec![i]);
        }
        let wire = a.poll(0);
        assert_eq!(wire.len(), 4);
        // Lose PSN 1 on the wire; 0, 2, 3 arrive.
        for (i, bytes) in wire.iter().enumerate() {
            if i != 1 {
                b.handle_wire(0, bytes);
            }
        }
        // Receiver NAKed for PSN 1; finish the exchange losslessly.
        pump(&mut a, &mut b, US);
        let got = b.take_delivered();
        assert_eq!(got.len(), 4);
        assert_eq!(got[1], vec![1u8], "retransmit delivered in order");
        assert!(a.retransmits() > 0);
        assert_eq!(b.stats.gap_drops, 2, "PSNs 2 and 3 hit the gap");
        assert_eq!(b.stats.dup_admitted_fresh, 0);
    }

    #[test]
    fn replay_of_delivered_suppressed_only_with_window() {
        for arm in ChannelSecurity::ALL {
            let (mut a, mut b) = pair(arm, RcConfig::default());
            a.post(b"secret payment".to_vec());
            let wire = a.poll(0);
            let captured = wire[0].clone();
            b.handle_wire(0, &captured);
            assert_eq!(b.take_delivered().len(), 1);
            // Attacker replays the captured, perfectly-valid bytes.
            b.handle_wire(10 * US, &captured);
            let redelivered = b.take_delivered().len() as u64;
            match arm {
                ChannelSecurity::AuthReplay => {
                    assert_eq!(b.stats.dup_admitted_fresh, 0, "{arm:?}");
                    assert_eq!(redelivered, 0);
                    assert_eq!(b.stats.dup_suppressed, 1);
                }
                ChannelSecurity::NoAuth | ChannelSecurity::Auth => {
                    assert_eq!(b.stats.dup_admitted_fresh, 1, "{arm:?}");
                    assert_eq!(redelivered, 1, "replay delivered twice");
                }
            }
        }
    }

    #[test]
    fn timeout_retransmit_of_undelivered_is_fresh() {
        let (mut a, mut b) = pair(ChannelSecurity::AuthReplay, RcConfig::default());
        a.post(b"only copy".to_vec());
        let wire = a.poll(0);
        assert_eq!(wire.len(), 1);
        // The packet is lost entirely: receiver saw nothing, no NAK comes.
        // The retransmission timer must recover it.
        let deadline = a.next_deadline().unwrap();
        let wire = a.poll(deadline);
        assert_eq!(wire.len(), 1, "timer fired, go-back-N re-emitted");
        b.handle_wire(deadline, &wire[0]);
        assert_eq!(b.take_delivered().len(), 1, "retransmit verdicts Fresh");
        assert_eq!(b.stats.dup_admitted_fresh, 0);
        assert!(a.retransmits() >= 1);
    }

    #[test]
    fn rnr_backpressure_recovers_without_window_pollution() {
        let cfg = RcConfig {
            rx_capacity: 1,
            ack_coalesce: 1,
            ..RcConfig::default()
        };
        let (mut a, mut b) = pair(ChannelSecurity::AuthReplay, cfg);
        a.post(vec![1]);
        a.post(vec![2]);
        for bytes in a.poll(0) {
            b.handle_wire(0, &bytes);
        }
        // Slot 1 took the first message; the second drew an RNR NAK.
        assert_eq!(b.stats.rnr_sent, 1);
        for bytes in b.poll(0) {
            a.handle_wire(0, &bytes);
        }
        // Sender pauses, app drains, retransmit after back-off delivers.
        assert!(a.poll(US).is_empty(), "RNR back-off holds the sender");
        assert_eq!(b.take_delivered(), vec![vec![1u8]]);
        pump(&mut a, &mut b, US);
        assert_eq!(b.take_delivered(), vec![vec![2u8]]);
        assert_eq!(b.stats.dup_admitted_fresh, 0, "RNR'd PSN never recorded");
    }

    #[test]
    fn corrupted_wire_buffer_is_counted_and_dropped() {
        let (mut a, mut b) = pair(ChannelSecurity::Auth, RcConfig::default());
        a.post(vec![9; 64]);
        let mut wire = a.poll(0);
        let mid = wire[0].len() / 2;
        wire[0][mid] ^= 0xFF;
        b.handle_wire(0, &wire[0]);
        assert_eq!(b.stats.parse_drops, 1, "VCRC catches the flip at parse");
        assert!(b.take_delivered().is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds replay window")]
    fn oversized_send_window_rejected() {
        let cfg = RcConfig {
            window: 128,
            ..RcConfig::default()
        };
        let secret = SecretKey::from_seed(1);
        SecureRcEndpoint::new(
            ChannelSecurity::AuthReplay,
            PKEY,
            secret,
            64,
            cfg,
            Lid(1),
            Lid(2),
            Qpn(7),
        );
    }
}
