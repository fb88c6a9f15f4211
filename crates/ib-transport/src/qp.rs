//! The RC queue-pair state machine, both halves.
//!
//! **Sender**: posted verbs (SEND, RDMA WRITE, RDMA READ request, READ
//! response) are segmented at the configured MTU into First/Middle/Last/
//! Only packets, become PSN-numbered transmissions inside a bounded
//! in-flight window, and carry their opcode + optional RETH with them.
//! Cumulative ACKs release the window; recovery from a NAK(PSN sequence
//! error) or a retransmission timeout depends on
//! [`RetransmitMode`]:
//!
//! * **Go-back-N** (IBA native): rewind the cursor to the oldest
//!   unacknowledged packet and resend everything from there.
//! * **Selective repeat** (ablation): a NAK queues only the missing PSN
//!   for retransmission; a timeout — which carries no information about
//!   *which* packets were lost — queues everything outstanding.
//!
//! Timeouts back off exponentially; too many without progress and the QP
//! enters the dead (retry-exhausted) state, IBA's QP error state.
//!
//! **Receiver**: tracks the expected PSN. In-order packets advance it and
//! feed the ACK coalescer; the 24-bit MSN advances only on the packet
//! that *completes a message* (Only/Last — one MSN per message, however
//! many MTU segments carried it). A packet *ahead* of expected signals a
//! gap and draws one NAK per gap; a packet *behind* is a duplicate
//! (lost-ACK retransmit or replay — the transport cannot tell, and
//! [`crate::endpoint`] explains why it does not need to) and draws an
//! immediate re-ACK. The receiver has no buffer budget, so it never
//! answers receiver-not-ready: every in-order message is delivered.
//!
//! Retransmissions reuse the **original PSN** — [`TxItem::psn`] is fixed
//! at first transmission. That single fact is what makes the replay
//! window's delivered-vs-lost distinction (see [`ib_security::channel`])
//! the only sound dedup criterion.

use std::collections::VecDeque;

use ib_packet::types::RKey;
use ib_packet::{Operation, Reth};
use ib_sim::SimTime;

use crate::config::{RcConfig, RetransmitMode, ACK_DELAY, RTO, RTO_MAX};

/// PSNs are 24-bit, wrapping.
pub(crate) const PSN_MASK: u32 = 0x00FF_FFFF;
/// Half the PSN space: the ahead/behind decision threshold.
pub(crate) const PSN_HALF: u32 = 1 << 23;

/// `psn + n` in the 24-bit ring.
pub(crate) fn psn_add(psn: u32, n: u32) -> u32 {
    psn.wrapping_add(n) & PSN_MASK
}

/// Forward distance from `from` to `to` in the 24-bit ring.
pub(crate) fn psn_sub(to: u32, from: u32) -> u32 {
    to.wrapping_sub(from) & PSN_MASK
}

/// True when `a` is strictly ahead of `b` by less than half the ring
/// (the IBA shortest-distance rule, wrap-safe).
pub(crate) fn psn_ahead(a: u32, b: u32) -> bool {
    a != b && psn_sub(a, b) < PSN_HALF
}

/// One transmission the sender half asks the wire layer to carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TxItem {
    /// The packet's PSN — original on retransmit, never renumbered.
    pub(crate) psn: u32,
    /// BTH operation for this segment (fixed at segmentation time so a
    /// retransmit reproduces identical bytes).
    pub(crate) op: Operation,
    /// RETH for RDMA First/Only segments and READ requests.
    pub(crate) reth: Option<Reth>,
    /// Segment payload.
    pub(crate) payload: Vec<u8>,
    /// Selective repeat: queued for retransmission by a NAK or timeout,
    /// cleared when [`RcQp::poll_tx`] serves it.
    retx_queued: bool,
}

/// A segmented packet waiting for a window slot (PSN assigned on admit).
#[derive(Debug)]
struct Seg {
    op: Operation,
    reth: Option<Reth>,
    payload: Vec<u8>,
}

/// Verb family, for mapping segment position to the BTH operation.
#[derive(Debug, Clone, Copy)]
enum SegKind {
    Send,
    Write,
    ReadResponse,
}

impl SegKind {
    fn op(self, first: bool, last: bool) -> Operation {
        match (self, first, last) {
            (SegKind::Send, true, true) => Operation::SendOnly,
            (SegKind::Send, true, false) => Operation::SendFirst,
            (SegKind::Send, false, false) => Operation::SendMiddle,
            (SegKind::Send, false, true) => Operation::SendLast,
            (SegKind::Write, true, true) => Operation::RdmaWriteOnly,
            (SegKind::Write, true, false) => Operation::RdmaWriteFirst,
            (SegKind::Write, false, false) => Operation::RdmaWriteMiddle,
            (SegKind::Write, false, true) => Operation::RdmaWriteLast,
            (SegKind::ReadResponse, true, true) => Operation::RdmaReadResponseOnly,
            (SegKind::ReadResponse, true, false) => Operation::RdmaReadResponseFirst,
            (SegKind::ReadResponse, false, false) => Operation::RdmaReadResponseMiddle,
            (SegKind::ReadResponse, false, true) => Operation::RdmaReadResponseLast,
        }
    }
}

/// Where an arriving data PSN sits relative to the receiver's expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RxClass {
    /// Exactly the expected PSN: deliverable.
    InOrder,
    /// Older than expected: duplicate of something already received.
    Behind,
    /// Newer than expected: a gap — something in between was lost.
    Ahead,
}

/// Acknowledgment traffic the receiver half wants sent back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RxReply {
    /// Cumulative ACK: everything through `psn` has been received.
    Ack { psn: u32, msn: u32 },
    /// NAK(PSN sequence error): resume from `psn` (the expected PSN).
    Nak { psn: u32, msn: u32 },
}

/// Both halves of one RC queue pair.
#[derive(Debug)]
pub(crate) struct RcQp {
    cfg: RcConfig,

    // ---- sender half ----
    pending: VecDeque<Seg>,
    in_flight: VecDeque<TxItem>,
    next_psn: u32,
    /// Go-back-N: index into `in_flight` of the next packet to
    /// (re)transmit. Equal to `in_flight.len()` when everything
    /// outstanding is already on the wire. Unused under selective repeat
    /// (the per-item `retx_queued` flags replace it).
    resend_cursor: usize,
    rto_deadline: Option<SimTime>,
    backoff_exp: u32,
    retries: u32,
    dead: bool,
    /// Total retransmissions performed (fig_replay metric).
    pub(crate) retransmits: u64,

    // ---- receiver half ----
    expected_psn: u32,
    /// Messages received in order (the AETH MSN, 24-bit). One per
    /// *message*, not per packet: only Only/Last segments advance it.
    msn: u32,
    since_ack: u32,
    ack_deadline: Option<SimTime>,
    nak_outstanding: bool,
}

impl RcQp {
    /// A fresh QP; both directions start at `cfg.initial_psn`.
    pub(crate) fn new(cfg: RcConfig) -> Self {
        assert!(cfg.window >= 1, "send window must hold at least one packet");
        assert!(cfg.ack_coalesce >= 1, "ack_coalesce of 0 would never ACK");
        assert!(cfg.mtu >= 1, "zero MTU cannot carry data");
        RcQp {
            pending: VecDeque::new(),
            in_flight: VecDeque::new(),
            next_psn: cfg.initial_psn & PSN_MASK,
            resend_cursor: 0,
            rto_deadline: None,
            backoff_exp: 0,
            retries: 0,
            dead: false,
            retransmits: 0,
            expected_psn: cfg.initial_psn & PSN_MASK,
            msn: 0,
            since_ack: 0,
            ack_deadline: None,
            nak_outstanding: false,
            cfg,
        }
    }

    /// The configuration this QP runs under.
    pub(crate) fn config(&self) -> &RcConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Sender half
    // ------------------------------------------------------------------

    /// Queue a SEND message, segmented at the MTU.
    pub(crate) fn post_send(&mut self, payload: Vec<u8>) {
        self.segment(SegKind::Send, None, payload);
    }

    /// Queue an RDMA WRITE of `payload` to `virt_addr` under `rkey`. The
    /// RETH (address + R_Key + DMA length) rides the First/Only segment
    /// and is covered by the MAC.
    pub(crate) fn post_write(&mut self, virt_addr: u64, rkey: RKey, payload: Vec<u8>) {
        let reth = Reth {
            virt_addr,
            rkey,
            dma_len: payload.len() as u32,
        };
        self.segment(SegKind::Write, Some(reth), payload);
    }

    /// Queue an RDMA READ request for `len` bytes at `virt_addr` under
    /// `rkey` (a single payload-less RETH-carrying packet; the responder
    /// answers with segmented READ responses).
    pub(crate) fn post_read(&mut self, virt_addr: u64, rkey: RKey, len: u32) {
        self.pending.push_back(Seg {
            op: Operation::RdmaReadRequest,
            reth: Some(Reth {
                virt_addr,
                rkey,
                dma_len: len,
            }),
            payload: Vec::new(),
        });
    }

    /// Queue the responder's data for an RDMA READ, segmented at the MTU
    /// into ReadResponse First/Middle/Last/Only packets.
    pub(crate) fn post_read_response(&mut self, payload: Vec<u8>) {
        self.segment(SegKind::ReadResponse, None, payload);
    }

    /// Cut a message into MTU-sized segments sharing one MSN. A message
    /// that fits a single MTU moves the caller's buffer straight into the
    /// queue — no copy, keeping the hot send path allocation-free.
    fn segment(&mut self, kind: SegKind, reth: Option<Reth>, payload: Vec<u8>) {
        let mtu = self.cfg.mtu;
        if payload.len() <= mtu {
            self.pending.push_back(Seg {
                op: kind.op(true, true),
                reth,
                payload,
            });
            return;
        }
        let n = payload.len().div_ceil(mtu);
        for (i, chunk) in payload.chunks(mtu).enumerate() {
            let first = i == 0;
            let last = i == n - 1;
            self.pending.push_back(Seg {
                op: kind.op(first, last),
                reth: if first { reth } else { None },
                payload: chunk.to_vec(),
            });
        }
    }

    /// True when every posted message has been sent *and* acknowledged.
    pub(crate) fn tx_idle(&self) -> bool {
        self.pending.is_empty() && self.in_flight.is_empty()
    }

    /// True when retries were exhausted and the QP is in the error state.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// Current retransmission timeout with exponential back-off applied.
    fn current_rto(&self) -> SimTime {
        RTO.checked_shl(self.backoff_exp)
            .unwrap_or(SimTime::MAX)
            .min(RTO_MAX)
    }

    /// Next packet to put on the wire, if the window and error state
    /// allow one. Retransmissions are served before new admissions. Arms
    /// the retransmission timer.
    ///
    /// Returns a borrow of the window entry — posted payloads move into
    /// the in-flight window and are never cloned, so the steady-state
    /// send path performs no allocation here.
    pub(crate) fn poll_tx(&mut self, now: SimTime) -> Option<&TxItem> {
        if self.dead {
            return None;
        }
        let retx = match self.cfg.retransmit {
            RetransmitMode::GoBackN if self.resend_cursor < self.in_flight.len() => {
                let idx = self.resend_cursor;
                self.resend_cursor += 1;
                Some(idx)
            }
            RetransmitMode::SelectiveRepeat => {
                self.in_flight.iter().position(|item| item.retx_queued)
            }
            RetransmitMode::GoBackN => None,
        };
        let idx = match retx {
            Some(idx) => {
                self.in_flight[idx].retx_queued = false;
                self.retransmits += 1;
                idx
            }
            None if (self.in_flight.len() as u32) < self.cfg.window && !self.pending.is_empty() => {
                let seg = self.pending.pop_front().unwrap();
                self.in_flight.push_back(TxItem {
                    psn: self.next_psn,
                    op: seg.op,
                    reth: seg.reth,
                    payload: seg.payload,
                    retx_queued: false,
                });
                self.next_psn = psn_add(self.next_psn, 1);
                self.resend_cursor = self.in_flight.len();
                self.in_flight.len() - 1
            }
            None => return None,
        };
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.current_rto());
        }
        Some(&self.in_flight[idx])
    }

    /// Cumulative ACK: everything through `psn` is received. Releases the
    /// window, resets back-off on progress, re-arms or clears the timer.
    pub(crate) fn on_ack(&mut self, now: SimTime, psn: u32) {
        let mut released = 0usize;
        while let Some(front) = self.in_flight.front() {
            if psn_ahead(front.psn, psn) {
                break; // front is newer than the ACK: still outstanding
            }
            self.in_flight.pop_front();
            released += 1;
        }
        if released == 0 {
            return; // stale or duplicate ACK: no state change
        }
        self.resend_cursor = self.resend_cursor.saturating_sub(released);
        self.backoff_exp = 0;
        self.retries = 0;
        self.rto_deadline = if self.in_flight.is_empty() {
            None
        } else {
            Some(now + self.current_rto())
        };
    }

    /// NAK(PSN sequence error) asking to resume from `psn`: everything
    /// before it is implicitly acknowledged, then go-back-N rewinds to it
    /// — or, under selective repeat, only `psn` itself is queued for
    /// retransmission (the receiver is buffering everything past the gap).
    pub(crate) fn on_nak(&mut self, now: SimTime, psn: u32) {
        self.on_ack(now, psn_sub(psn, 1));
        self.queue_retx_from(psn);
        if !self.in_flight.is_empty() {
            self.rto_deadline = Some(now + self.current_rto());
        }
    }

    /// Mode-dependent reaction to "the receiver wants `psn` again".
    fn queue_retx_from(&mut self, psn: u32) {
        match self.cfg.retransmit {
            RetransmitMode::GoBackN => self.resend_cursor = 0,
            RetransmitMode::SelectiveRepeat => {
                if let Some(item) = self.in_flight.iter_mut().find(|item| item.psn == psn) {
                    item.retx_queued = true;
                }
            }
        }
    }

    /// Retransmission-timer check. On expiry: count a retry, double the
    /// back-off, queue retransmission (rewind under go-back-N; everything
    /// outstanding under selective repeat, since a timeout says nothing
    /// about *which* packet was lost) — or declare the QP dead once
    /// `max_retries` consecutive timeouts pass without progress.
    pub(crate) fn on_timeout(&mut self, now: SimTime) {
        if self.dead || self.in_flight.is_empty() {
            return;
        }
        match self.rto_deadline {
            Some(deadline) if now >= deadline => {}
            _ => return,
        }
        self.retries += 1;
        if self.retries > self.cfg.max_retries {
            self.dead = true;
            self.rto_deadline = None;
            return;
        }
        // Cap the exponent: current_rto saturates at RTO_MAX anyway.
        self.backoff_exp = (self.backoff_exp + 1).min(32);
        match self.cfg.retransmit {
            RetransmitMode::GoBackN => self.resend_cursor = 0,
            RetransmitMode::SelectiveRepeat => {
                for item in &mut self.in_flight {
                    item.retx_queued = true;
                }
            }
        }
        self.rto_deadline = Some(now + self.current_rto());
    }

    /// Earliest instant the sender half needs waking (the RTO).
    pub(crate) fn tx_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    // ------------------------------------------------------------------
    // Receiver half
    // ------------------------------------------------------------------

    /// Where `psn` sits relative to the expected PSN.
    pub(crate) fn rx_classify(&self, psn: u32) -> RxClass {
        if psn == self.expected_psn {
            RxClass::InOrder
        } else if psn_ahead(psn, self.expected_psn) {
            RxClass::Ahead
        } else {
            RxClass::Behind
        }
    }

    /// The PSN the receiver expects next.
    pub(crate) fn expected_psn(&self) -> u32 {
        self.expected_psn
    }

    /// Messages fully received in order so far (the AETH MSN).
    pub(crate) fn msn(&self) -> u32 {
        self.msn
    }

    /// The cumulative ACK for everything received so far.
    fn cumulative_ack(&self) -> RxReply {
        RxReply::Ack {
            psn: psn_sub(self.expected_psn, 1),
            msn: self.msn,
        }
    }

    /// In-order packet accepted: advance the expectation — and, when the
    /// packet completes a message (`msg_end`), the MSN — then coalesce
    /// the ACK: every `ack_coalesce`-th packet acknowledges immediately,
    /// a straggler is acknowledged after `ACK_DELAY` via
    /// [`RcQp::poll_ack`].
    pub(crate) fn rx_accept(&mut self, now: SimTime, msg_end: bool) -> Option<RxReply> {
        self.expected_psn = psn_add(self.expected_psn, 1);
        if msg_end {
            self.msn = psn_add(self.msn, 1);
        }
        self.nak_outstanding = false;
        self.since_ack += 1;
        if self.since_ack >= self.cfg.ack_coalesce {
            self.since_ack = 0;
            self.ack_deadline = None;
            Some(self.cumulative_ack())
        } else {
            self.ack_deadline = Some(now + ACK_DELAY);
            None
        }
    }

    /// A duplicate (behind-expected) packet: re-ACK immediately so a
    /// sender whose ACK was lost stops retransmitting. Cumulative ACKs
    /// are idempotent, so this is always safe.
    pub(crate) fn rx_duplicate(&mut self) -> RxReply {
        self.cumulative_ack()
    }

    /// A gap (ahead-of-expected packet): emit one NAK per gap asking for
    /// the expected PSN; further ahead packets stay silent until the gap
    /// heals, so one loss burst draws one recovery round, not one per
    /// packet.
    pub(crate) fn rx_gap(&mut self) -> Option<RxReply> {
        if self.nak_outstanding {
            return None;
        }
        self.nak_outstanding = true;
        Some(RxReply::Nak {
            psn: self.expected_psn,
            msn: self.msn,
        })
    }

    /// Fire the delayed-ACK timer: flush a coalesced straggler ACK.
    pub(crate) fn poll_ack(&mut self, now: SimTime) -> Option<RxReply> {
        match self.ack_deadline {
            Some(deadline) if now >= deadline && self.since_ack > 0 => {
                self.since_ack = 0;
                self.ack_deadline = None;
                Some(self.cumulative_ack())
            }
            _ => None,
        }
    }

    /// Earliest instant the receiver half needs waking (delayed ACK).
    pub(crate) fn rx_deadline(&self) -> Option<SimTime> {
        self.ack_deadline
    }

    /// Earliest instant either half needs waking.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        match (self.tx_deadline(), self.rx_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qp(window: u32) -> RcQp {
        RcQp::new(RcConfig {
            window,
            ack_coalesce: 1,
            ..RcConfig::default()
        })
    }

    fn sr_qp(window: u32) -> RcQp {
        RcQp::new(RcConfig {
            window,
            ack_coalesce: 1,
            retransmit: RetransmitMode::SelectiveRepeat,
            ..RcConfig::default()
        })
    }

    #[test]
    fn psn_arithmetic_wraps() {
        assert_eq!(psn_add(PSN_MASK, 1), 0);
        assert_eq!(psn_sub(0, PSN_MASK), 1);
        assert!(psn_ahead(2, PSN_MASK));
        assert!(!psn_ahead(PSN_MASK, 2));
        assert!(!psn_ahead(5, 5));
    }

    #[test]
    fn window_bounds_in_flight() {
        let mut q = qp(4);
        for i in 0..10u8 {
            q.post_send(vec![i]);
        }
        let sent: Vec<u32> = std::iter::from_fn(|| q.poll_tx(0).map(|t| t.psn)).collect();
        assert_eq!(sent, vec![0, 1, 2, 3], "window caps the burst");
        assert_eq!(q.retransmits, 0);
        // Cumulative ACK of PSN 1 opens two slots.
        q.on_ack(10, 1);
        assert_eq!(q.poll_tx(10).unwrap().psn, 4);
        assert_eq!(q.poll_tx(10).unwrap().psn, 5);
        assert!(q.poll_tx(10).is_none());
    }

    #[test]
    fn timeout_rewinds_with_original_psns_and_backs_off() {
        let mut q = qp(3);
        for i in 0..3u8 {
            q.post_send(vec![i]);
        }
        while q.poll_tx(0).is_some() {}
        let rto = q.current_rto();
        q.on_timeout(rto - 1);
        assert_eq!(q.tx_deadline(), Some(rto), "deadline not reached");
        q.on_timeout(rto);
        // Retransmits carry the original PSNs, in order.
        let r0 = q.poll_tx(rto).unwrap().psn;
        let r1 = q.poll_tx(rto).unwrap().psn;
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(q.retransmits, 2);
        // Back-off doubled the deadline.
        assert!(q.current_rto() >= 2 * RTO);
        // Progress resets back-off.
        q.on_ack(rto + 1, 2);
        assert!(q.tx_idle());
        assert_eq!(q.current_rto(), RTO);
    }

    #[test]
    fn retries_exhaust_to_dead_state() {
        let mut q = RcQp::new(RcConfig {
            max_retries: 2,
            ..RcConfig::default()
        });
        q.post_send(vec![1]);
        let mut now = 0;
        q.poll_tx(now);
        for retries in 1..=2 {
            now = q.tx_deadline().unwrap();
            q.on_timeout(now);
            assert!(!q.is_dead());
            assert!(q.poll_tx(now).is_some());
            assert_eq!(q.retransmits, retries);
        }
        now = q.tx_deadline().unwrap();
        q.on_timeout(now);
        assert!(q.is_dead(), "third consecutive timeout kills the QP");
        assert_eq!(q.tx_deadline(), None);
        assert!(q.poll_tx(now).is_none(), "dead QP transmits nothing");
    }

    #[test]
    fn nak_triggers_go_back_n_from_requested_psn() {
        let mut q = qp(5);
        for i in 0..5u8 {
            q.post_send(vec![i]);
        }
        while q.poll_tx(0).is_some() {}
        // Receiver got 0,1 then a gap: NAK asks for 2.
        q.on_nak(10, 2);
        assert_eq!(q.poll_tx(10).unwrap().psn, 2);
        assert_eq!(q.poll_tx(10).unwrap().psn, 3);
        assert_eq!(q.retransmits, 2);
    }

    #[test]
    fn selective_repeat_nak_resends_only_missing_psn() {
        let mut q = sr_qp(5);
        for i in 0..5u8 {
            q.post_send(vec![i]);
        }
        while q.poll_tx(0).is_some() {}
        // Receiver got 0,1 then a gap: NAK asks for 2. Under SR only
        // PSN 2 goes back on the wire; 3 and 4 stay buffered remotely.
        q.on_nak(10, 2);
        assert_eq!(q.poll_tx(10).unwrap().psn, 2);
        assert!(q.poll_tx(10).is_none(), "3 and 4 are not resent");
        assert_eq!(q.retransmits, 1);
        // The cumulative ACK after the gap heals releases everything.
        q.on_ack(20, 4);
        assert!(q.tx_idle());
    }

    #[test]
    fn selective_repeat_timeout_requeues_everything() {
        let mut q = sr_qp(3);
        for i in 0..3u8 {
            q.post_send(vec![i]);
        }
        while q.poll_tx(0).is_some() {}
        let rto = q.current_rto();
        q.on_timeout(rto);
        let psns: Vec<u32> = std::iter::from_fn(|| q.poll_tx(rto).map(|t| t.psn)).collect();
        assert_eq!(psns, vec![0, 1, 2], "timeout blinds SR: resend all");
        assert_eq!(q.retransmits, 3);
    }

    #[test]
    fn segmentation_shares_one_msn() {
        let mtu = RcConfig::default().mtu;
        let mut q = qp(8);
        // 2.5 MTUs -> First, Middle, Last.
        q.post_send(vec![7u8; mtu * 2 + mtu / 2]);
        let items: Vec<TxItem> = std::iter::from_fn(|| q.poll_tx(0).cloned()).collect();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].op, Operation::SendFirst);
        assert_eq!(items[1].op, Operation::SendMiddle);
        assert_eq!(items[2].op, Operation::SendLast);
        assert_eq!(items[0].payload.len(), mtu);
        assert_eq!(items[2].payload.len(), mtu / 2);
        // Receiver: MSN advances once, on the Last segment.
        let mut r = qp(8);
        r.rx_accept(0, false);
        r.rx_accept(0, false);
        assert_eq!(r.msn(), 0, "mid-message: MSN unchanged");
        assert_eq!(r.rx_accept(0, true), Some(RxReply::Ack { psn: 2, msn: 1 }));
    }

    #[test]
    fn write_segments_carry_reth_on_first_only() {
        let mtu = RcConfig::default().mtu;
        let mut q = qp(8);
        let rkey = RKey(0xDEAD_BEEF);
        q.post_write(0x1000, rkey, vec![1u8; mtu * 2]);
        let items: Vec<TxItem> = std::iter::from_fn(|| q.poll_tx(0).cloned()).collect();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].op, Operation::RdmaWriteFirst);
        assert_eq!(items[1].op, Operation::RdmaWriteLast);
        let reth = items[0].reth.expect("First segment carries the RETH");
        assert_eq!(reth.virt_addr, 0x1000);
        assert_eq!(reth.rkey, rkey);
        assert_eq!(reth.dma_len, (mtu * 2) as u32);
        assert!(items[1].reth.is_none(), "Middle/Last carry no RETH");
        // A short write is a RETH-carrying Only.
        q.post_write(0x2000, rkey, vec![2u8; 10]);
        let only = q.poll_tx(0).unwrap();
        assert_eq!(only.op, Operation::RdmaWriteOnly);
        assert!(only.reth.is_some());
    }

    #[test]
    fn read_request_and_response_shapes() {
        let mtu = RcConfig::default().mtu;
        let mut q = qp(8);
        q.post_read(0x3000, RKey(5), (mtu * 3) as u32);
        let req = q.poll_tx(0).unwrap().clone();
        assert_eq!(req.op, Operation::RdmaReadRequest);
        assert!(req.payload.is_empty());
        assert_eq!(req.reth.unwrap().dma_len, (mtu * 3) as u32);
        // Responder side: 3 MTUs of response data -> First, Middle, Last
        // (Middle being the opcode this PR adds).
        let mut r = qp(8);
        r.post_read_response(vec![9u8; mtu * 3]);
        let ops: Vec<Operation> = std::iter::from_fn(|| q_next_op(&mut r)).collect();
        assert_eq!(
            ops,
            vec![
                Operation::RdmaReadResponseFirst,
                Operation::RdmaReadResponseMiddle,
                Operation::RdmaReadResponseLast,
            ]
        );
    }

    fn q_next_op(q: &mut RcQp) -> Option<Operation> {
        q.poll_tx(0).map(|t| t.op)
    }

    #[test]
    fn receiver_classifies_and_coalesces() {
        let mut q = RcQp::new(RcConfig {
            ack_coalesce: 2,
            ..RcConfig::default()
        });
        assert_eq!(q.rx_classify(0), RxClass::InOrder);
        assert_eq!(q.rx_classify(3), RxClass::Ahead);
        assert_eq!(q.rx_classify(PSN_MASK), RxClass::Behind);
        // First in-order packet: coalesced (delayed ACK armed).
        assert_eq!(q.rx_accept(0, true), None);
        assert!(q.rx_deadline().is_some());
        // Second: immediate cumulative ACK of PSN 1.
        assert_eq!(q.rx_accept(1, true), Some(RxReply::Ack { psn: 1, msn: 2 }));
        assert!(q.rx_deadline().is_none());
        // Straggler third: flushed by the timer.
        assert_eq!(q.rx_accept(2, true), None);
        let deadline = q.rx_deadline().unwrap();
        assert_eq!(q.poll_ack(deadline - 1), None);
        assert_eq!(q.poll_ack(deadline), Some(RxReply::Ack { psn: 2, msn: 3 }));
    }

    #[test]
    fn one_nak_per_gap() {
        let mut q = qp(4);
        assert_eq!(q.rx_gap(), Some(RxReply::Nak { psn: 0, msn: 0 }));
        assert_eq!(q.rx_gap(), None, "gap already NAKed");
        // The gap heals (expected packet arrives): NAK state resets.
        q.rx_accept(0, true);
        assert!(q.rx_gap().is_some());
    }

    #[test]
    fn duplicate_reacks_cumulatively() {
        let mut q = qp(4);
        q.rx_accept(0, true);
        q.rx_accept(0, true);
        assert_eq!(q.rx_duplicate(), RxReply::Ack { psn: 1, msn: 2 });
    }

    #[test]
    fn sender_psn_wraps_across_the_ring() {
        let mut q = RcQp::new(RcConfig {
            window: 4,
            ack_coalesce: 1,
            initial_psn: PSN_MASK - 1,
            ..RcConfig::default()
        });
        for i in 0..4u8 {
            q.post_send(vec![i]);
        }
        let psns: Vec<u32> = std::iter::from_fn(|| q.poll_tx(0).map(|t| t.psn)).collect();
        assert_eq!(psns, vec![PSN_MASK - 1, PSN_MASK, 0, 1]);
        // Cumulative ACK across the wrap releases all four.
        q.on_ack(1, 1);
        assert!(q.tx_idle());
    }
}
