//! `rc_stream_1k` and `rc_small_64`: two `SecureRcEndpoint`s joined by a
//! lossless in-memory wire the driver owns.
//!
//! The requester keeps 64 SENDs posted ahead. Each round is
//! `a.poll_into` → `b.handle_wire` per buffer → `b.poll_into` → ACKs into
//! `a.handle_wire` → `take_delivered` → `recycle`, closed loop on one
//! thread. `ib-sim` does no work here: at 1 KiB the per-byte kernels
//! (CRC-16 VCRC, CRC-32/UMAC, copies) dominate, at 64 B the per-packet
//! machinery (parse, QP state machine, replay window, ACKs, pools) does.

use std::time::Instant;

use ib_mgmt::keymgmt::SecretKey;
use ib_packet::types::{Lid, PKey, Qpn};
use ib_security::channel::ChannelStats;
use ib_security::ChannelSecurity;
use ib_sim::time::US;
use ib_sim::SimTime;
use ib_transport::{EndpointStats, RcConfig, SecureRcEndpoint};

use crate::gen::{derive, PayloadPool, StreamLedger};
use crate::span::Tracer;
use crate::workload::Repetition;

/// One RC workload's shape.
pub struct RcSpec {
    pub payload_len: usize,
    /// Messages per repetition at full size.
    pub messages: u64,
}

/// MTU-sized payloads: per-byte cost dominates.
pub const STREAM_1K: RcSpec = RcSpec {
    payload_len: 1024,
    messages: 300_000,
};

/// Minimum-sized payloads: per-packet cost dominates.
pub const SMALL_64: RcSpec = RcSpec {
    payload_len: 64,
    messages: 2_500_000,
};

/// SENDs the requester keeps posted ahead of delivery.
const POSTED_AHEAD: u64 = 64;

/// Replay-window depth of both channels.
pub const REPLAY_WINDOW: u32 = 64;

/// Simulated time one round takes. Far below the 100 µs RTO, so the
/// lossless wire never times out; the 10 µs delayed-ACK timer still
/// flushes the last straggler within a few idle rounds.
const ROUND_TICK: SimTime = US;

/// Rounds without a delivery before the loop gives up (a dead QP or a
/// lost message would otherwise spin forever).
const STALL_ROUNDS: u32 = 1000;

/// Wire images kept for the probe pass.
pub const CAPTURE_IMAGES: usize = 4096;

pub const PKEY: PKey = PKey(0x8001);

/// The secret both endpoints (and the probes replaying their traffic)
/// are keyed with.
pub fn secret_for(seed: u64) -> SecretKey {
    SecretKey::from_seed(derive(seed, 0x005E_C2E7))
}

/// A fresh endpoint of the pair: `requester` picks the LID orientation.
pub fn endpoint(security: ChannelSecurity, seed: u64, requester: bool) -> SecureRcEndpoint {
    let (lid, peer) = if requester {
        (Lid(1), Lid(2))
    } else {
        (Lid(2), Lid(1))
    };
    SecureRcEndpoint::new(
        security,
        PKEY,
        secret_for(seed),
        REPLAY_WINDOW,
        RcConfig::default(),
        lid,
        peer,
        Qpn(7),
    )
}

/// The first data-direction wire images, for replay through the inner
/// layers' public functions.
#[derive(Default)]
pub struct Capture {
    /// Requester → responder data packets, in PSN order from the first.
    pub data: Vec<Vec<u8>>,
}

/// The endpoint pair, its wire and the delivery account.
struct RcLoop {
    a: SecureRcEndpoint,
    b: SecureRcEndpoint,
    pool: PayloadPool,
    /// Delivered message buffers waiting to be refilled and posted again,
    /// so the application side allocates nothing in steady state.
    free: Vec<Vec<u8>>,
    /// Filled payloads on their way into `post`.
    staged: Vec<Vec<u8>>,
    wire_ab: Vec<Vec<u8>>,
    wire_ba: Vec<Vec<u8>>,
    now: SimTime,
    posted: u64,
    ledger: StreamLedger,
    data_pkts: u64,
    ack_pkts: u64,
}

impl RcLoop {
    fn new(security: ChannelSecurity, payload_len: usize, seed: u64) -> RcLoop {
        RcLoop {
            a: endpoint(security, seed, true),
            b: endpoint(security, seed, false),
            pool: PayloadPool::new(seed, payload_len),
            free: Vec::new(),
            staged: Vec::new(),
            wire_ab: Vec::new(),
            wire_ba: Vec::new(),
            now: 0,
            posted: 0,
            ledger: StreamLedger::default(),
            data_pkts: 0,
            ack_pkts: 0,
        }
    }

    /// Run rounds until `target` messages (counted from the loop's
    /// creation) are delivered and acknowledged, or the loop stalls.
    fn pump(&mut self, target: u64, tr: &mut Tracer, mut capture: Option<&mut Capture>) {
        let mut stalled = 0;
        while (self.ledger.received < target || !self.a.tx_idle()) && stalled < STALL_ROUNDS {
            let round = tr.open("harness.round", 1);
            let before = self.ledger.received;

            let ahead = (self.ledger.received + POSTED_AHEAD).min(target);
            let new = ahead.saturating_sub(self.posted) as usize;
            let s = tr.open("harness.fill_payload", new);
            for idx in self.posted..ahead {
                let mut buf = self.free.pop().unwrap_or_default();
                self.pool.fill(idx, &mut buf);
                self.staged.push(buf);
            }
            tr.close(s);
            let s = tr.open("ib_transport.post", new);
            for buf in self.staged.drain(..) {
                self.a.post(buf);
            }
            tr.close(s);
            self.posted = self.posted.max(ahead);

            let s = tr.open("ib_transport.poll_into", 1);
            self.a.poll_into(self.now, &mut self.wire_ab);
            tr.close(s);
            self.data_pkts += self.wire_ab.len() as u64;
            if let Some(c) = capture.as_deref_mut() {
                let room = CAPTURE_IMAGES.saturating_sub(c.data.len());
                c.data.extend(self.wire_ab.iter().take(room).cloned());
            }

            let s = tr.open("ib_transport.handle_wire", self.wire_ab.len());
            for buf in &self.wire_ab {
                self.b.handle_wire(self.now, buf);
            }
            tr.close(s);

            let s = tr.open("ib_transport.poll_into_acks", 1);
            self.b.poll_into(self.now, &mut self.wire_ba);
            tr.close(s);
            self.ack_pkts += self.wire_ba.len() as u64;

            let s = tr.open("ib_transport.handle_wire_acks", self.wire_ba.len());
            for buf in &self.wire_ba {
                self.a.handle_wire(self.now, buf);
            }
            tr.close(s);

            let s = tr.open("ib_transport.take_delivered", 1);
            let delivered = self.b.take_delivered();
            tr.close(s);

            let s = tr.open("harness.verify", delivered.len());
            for payload in delivered {
                self.ledger.deliver(&self.pool, &payload);
                self.free.push(payload);
            }
            tr.close(s);

            let s = tr.open(
                "ib_transport.recycle",
                self.wire_ab.len() + self.wire_ba.len(),
            );
            for buf in self.wire_ab.drain(..) {
                self.a.recycle(buf);
            }
            for buf in self.wire_ba.drain(..) {
                self.b.recycle(buf);
            }
            tr.close(s);

            self.now += ROUND_TICK;
            stalled = if self.ledger.received == before {
                stalled + 1
            } else {
                0
            };
            tr.close(round);
        }
    }
}

/// A repetition plus the packet counts the traced run's ratios need.
pub struct RcRun {
    pub rep: Repetition,
    pub data_pkts: u64,
    /// Heap allocations during the timed stream (counted only when the
    /// tracer is on; 0 otherwise).
    pub allocs: u64,
}

/// One repetition under `AuthReplay` — the workload as timed.
pub fn repetition(spec: &RcSpec, seed: u64, size_divisor: u64, tr: &mut Tracer) -> Repetition {
    run(
        spec,
        ChannelSecurity::AuthReplay,
        seed,
        size_divisor,
        tr,
        None,
    )
    .rep
}

/// One repetition at any security arm. `capture` collects wire images
/// during the (untimed) warm-up.
pub fn run(
    spec: &RcSpec,
    security: ChannelSecurity,
    seed: u64,
    size_divisor: u64,
    tr: &mut Tracer,
    capture: Option<&mut Capture>,
) -> RcRun {
    let start = Instant::now();
    let messages = (spec.messages / size_divisor).max(POSTED_AHEAD);
    // Pools, templates and the allocator are warmed by a tenth of the
    // work on the same pair; the timed stream continues from there.
    let warm = (messages / 10).max(POSTED_AHEAD);
    let mut lp = RcLoop::new(security, spec.payload_len, seed);
    lp.pump(warm, &mut Tracer::off(), capture);
    let warm_ledger = lp.ledger;
    let (warm_data, warm_acks) = (lp.data_pkts, lp.ack_pkts);
    let setup_s = start.elapsed().as_secs_f64();

    if tr.enabled() {
        crate::host::arm_alloc_counter();
    }
    let root = tr.open("harness.workload", 1);
    let timed = Instant::now();
    lp.pump(warm + messages, tr, None);
    let wall_s = timed.elapsed().as_secs_f64();
    tr.close(root);
    let allocs = if tr.enabled() {
        crate::host::disarm_alloc_counter()
    } else {
        0
    };

    let good_bytes = lp.ledger.good_bytes - warm_ledger.good_bytes;
    let timed_ledger = StreamLedger {
        received: lp.ledger.received - warm_ledger.received,
        bad: lp.ledger.bad - warm_ledger.bad,
        good_bytes,
    };
    let mut rep = Repetition {
        setup_s,
        wall_s,
        attempted: messages,
        payload_bits: good_bytes * 8,
        ..Repetition::default()
    };
    let failed = timed_ledger.failed(messages);
    if failed > 0 || lp.a.failed() || lp.b.failed() {
        rep.fail(
            failed.max(1),
            format!(
                "{} of {messages} SENDs not delivered once, in order, byte-equal \
                 ({} bad deliveries, requester dead: {}, responder dead: {})",
                failed,
                timed_ledger.bad,
                lp.a.failed(),
                lp.b.failed()
            ),
        );
    }
    if warm_ledger.failed(warm) > 0 {
        rep.fail(1, "warm-up stream was not delivered intact".into());
    }

    let data_pkts = lp.data_pkts - warm_data;
    let ack_pkts = lp.ack_pkts - warm_acks;
    // The endpoints' own counters run over the connection's life, the
    // warm-up included; on a lossless wire all but `fresh` stay 0.
    rep.layer = layer_counts(
        &lp.a.stats,
        &lp.b.stats,
        &lp.b.channel().stats,
        lp.a.retransmits(),
        data_pkts,
        ack_pkts,
    );
    RcRun {
        rep,
        data_pkts,
        allocs,
    }
}

/// Packets a channel was asked to admit, whatever the verdict.
pub fn offered(c: &ChannelStats) -> u64 {
    c.fresh
        + c.duplicates
        + c.rejected_vcrc
        + c.rejected_auth
        + c.rejected_stale
        + c.rejected_stale_epoch
        + c.rejected_future_epoch
}

fn layer_counts(
    a: &EndpointStats,
    b: &EndpointStats,
    chan: &ChannelStats,
    retransmits: u64,
    data_pkts: u64,
    ack_pkts: u64,
) -> Vec<(&'static str, f64)> {
    let per_data = |n: u64| n as f64 / data_pkts.max(1) as f64;
    vec![
        (
            "ib_packet.parse_drops",
            (a.parse_drops + b.parse_drops) as f64,
        ),
        ("ib_security.rejected_auth", chan.rejected_auth as f64),
        ("ib_security.rejected_stale", chan.rejected_stale as f64),
        (
            "ib_security.rejected_stale_epoch",
            chan.rejected_stale_epoch as f64,
        ),
        ("ib_security.duplicates", chan.duplicates as f64),
        (
            "ib_security.admit_useful_share",
            chan.fresh as f64 / offered(chan).max(1) as f64,
        ),
        ("ib_transport.acks_per_data_pkt", per_data(ack_pkts)),
        ("ib_transport.retx_share", per_data(retransmits)),
        (
            "ib_transport.ooo_buffered",
            (a.ooo_buffered + b.ooo_buffered) as f64,
        ),
        ("ib_transport.gap_drops", (a.gap_drops + b.gap_drops) as f64),
        (
            "ib_transport.dup_suppressed",
            (a.dup_suppressed + b.dup_suppressed) as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: RcSpec = RcSpec {
        payload_len: 96,
        messages: 640,
    };

    #[test]
    fn a_tiny_stream_is_delivered_in_order_and_counted() {
        let mut tr = Tracer::on();
        let mut cap = Capture::default();
        let out = run(
            &TINY,
            ChannelSecurity::AuthReplay,
            5,
            1,
            &mut tr,
            Some(&mut cap),
        );
        assert_eq!(out.rep.attempted, 640);
        assert_eq!(out.rep.failed, 0, "{:?}", out.rep.gate_failures);
        assert_eq!(out.rep.payload_bits, 640 * 96 * 8);
        assert_eq!(out.data_pkts, 640, "lossless wire: one packet per SEND");
        let acks = out
            .rep
            .layer_value("ib_transport.acks_per_data_pkt")
            .unwrap();
        assert!(acks > 0.0 && acks <= 1.0, "coalesced ACKs: {acks}");
        assert_eq!(cap.data.len(), 64, "warm-up is 64 messages");
        crate::span::validate(tr.spans()).unwrap();
        assert_eq!(
            crate::span::layer_self_ns(&tr.totals(), "ib_sim"),
            0,
            "ib-sim does no work on the RC workloads"
        );
        assert!(tr.totals()["ib_transport.handle_wire"].calls >= 640);
    }

    #[test]
    fn no_auth_arm_runs_the_same_stream() {
        let out = run(
            &TINY,
            ChannelSecurity::NoAuth,
            5,
            1,
            &mut Tracer::off(),
            None,
        );
        assert_eq!(out.rep.failed, 0);
        assert_eq!(
            out.rep.layer_value("ib_security.admit_useful_share"),
            Some(1.0)
        );
    }
}
