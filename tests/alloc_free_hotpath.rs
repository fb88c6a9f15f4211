//! The zero-allocation claim, enforced: once caches, scratch buffers, and
//! the endpoint's buffer pool are warm, the steady-state tag / verify /
//! seal (`seal_into` and the `&self` wrapper) / view admission / send /
//! ACK-receive paths perform **no heap allocation at all**, and data
//! receive allocates exactly one buffer per delivered SEND — the one
//! `take_delivered` gives away — counted by a wrapping global
//! allocator, not argued from inspection.
//!
//! Everything lives in a single `#[test]` so no sibling test thread can
//! allocate concurrently and pollute the counter.

// A global allocator is an `unsafe impl`; this counting wrapper is the
// test's only unsafe code, and it forwards every call to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use ib_crypto::mac::AuthAlgorithm;
use ib_mgmt::keymgmt::{KeyEpoch, SecretKey};
use ib_packet::types::{Lid, PKey, Psn, Qpn};
use ib_packet::{OpCode, Packet, PacketBuilder};
use ib_security::{Admit, Authenticator, ChannelSecurity, KeyScope, SecureChannel};
use ib_transport::{RcConfig, SecureRcEndpoint};

/// Counts allocation events (alloc + realloc; frees are irrelevant to
/// the per-packet claim) on top of the system allocator.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards this method's own contract to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`, as in `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// Allocation events across `f`, after `f` already ran once to warm up.
/// Minimum over three measured passes: the claim is that steady state
/// *requires* no allocation, so one clean pass proves it — the min
/// screens out ambient process noise (lazy runtime/TLS initialization
/// outside the code under test) hitting the global counter.
fn steady_state_allocs(mut f: impl FnMut()) -> u64 {
    f(); // warm: caches fill, buffers reach steady capacity
    f();
    (0..3)
        .map(|_| {
            let before = allocs();
            f();
            allocs() - before
        })
        .min()
        .unwrap()
}

const PKEY: PKey = PKey(0x8001);
const ROUNDS: u32 = 8;

fn data_packet(psn: u32, len: usize) -> Packet {
    PacketBuilder::new(OpCode::RC_SEND_ONLY)
        .slid(Lid(1))
        .dlid(Lid(2))
        .pkey(PKEY)
        .dest_qp(Qpn(7))
        .psn(Psn(psn))
        .payload(vec![0x5A; len])
        .build()
}

/// One packet from `tx` to `rx` through the one-pass bodies.
fn seal_admit(tx: &SecureChannel, rx: &mut SecureChannel, pkt: &mut Packet, wire: &mut Vec<u8>) {
    tx.seal_into(pkt, wire).unwrap();
    let view = Packet::parse_view(wire).unwrap();
    assert!(matches!(rx.admit_view(&view), Ok(Admit::Fresh)));
}

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    // --- scratch-buffer serialization -------------------------------
    let pkt = data_packet(42, 512);
    let mut wire = Vec::new();
    let mut msg = Vec::new();
    let n = steady_state_allocs(|| {
        for _ in 0..ROUNDS {
            pkt.write_into(&mut wire);
            pkt.icrc_message_into(&mut msg);
        }
    });
    assert_eq!(n, 0, "write_into/icrc_message_into with warm buffers");

    // --- authenticator tag + verify, every algorithm ----------------
    for alg in &AuthAlgorithm::ALL[1..] {
        let mut auth = Authenticator::new(*alg, KeyScope::Partition);
        auth.keys
            .install_partition_secret(PKEY, SecretKey::from_seed(7));
        let mut pkt = data_packet(100, 512);
        let (mut wire, mut image) = (Vec::new(), Vec::new());
        let n = steady_state_allocs(|| {
            for _ in 0..ROUNDS {
                auth.seal_into(&mut pkt, &mut wire, &mut image).unwrap();
                let view = Packet::parse_view(&wire).unwrap();
                auth.verify_view(&view, &mut image).unwrap();
            }
        });
        assert_eq!(n, 0, "tag+verify steady state for {}", alg.name());
    }

    // --- channel seal + admit ---------------------------------------
    let secret = SecretKey::from_seed(11);
    let tx = SecureChannel::new(ChannelSecurity::AuthReplay, PKEY, secret, 64);
    let mut rx = SecureChannel::new(ChannelSecurity::AuthReplay, PKEY, secret, 64);
    let mut pkt = data_packet(0, 512);
    let mut psn = 0u32;
    let n = steady_state_allocs(|| {
        for _ in 0..ROUNDS {
            pkt.bth.psn = Psn(psn);
            psn += 1;
            tx.seal(&mut pkt).unwrap();
            assert!(matches!(rx.admit(&pkt), Ok(Admit::Fresh)));
        }
    });
    assert_eq!(
        n, 0,
        "channel seal+admit (&Packet entry points) steady state"
    );

    // --- the one-pass bodies: seal_into, parse_view, admit_view ------
    let mut rx = SecureChannel::new(ChannelSecurity::AuthReplay, PKEY, secret, 64);
    let n = steady_state_allocs(|| {
        for _ in 0..ROUNDS {
            pkt.bth.psn = Psn(psn);
            psn += 1;
            tx.seal_into(&mut pkt, &mut wire).unwrap();
            let view = Packet::parse_view(&wire).unwrap();
            assert!(matches!(rx.admit_view(&view), Ok(Admit::Fresh)));
        }
    });
    assert_eq!(
        n, 0,
        "channel seal_into + parse_view + admit_view steady state"
    );

    // --- two channels per node, both directions ---------------------
    // The nodes' key tables are shared: each version's keyed MAC is
    // derived into the version on its first use (here, the first packet
    // after a rotation) and every channel on the node seals and verifies
    // under it, so steady state stays allocation-free.
    let node_a: Rc<RefCell<Authenticator>> = Rc::default();
    let node_b: Rc<RefCell<Authenticator>> = Rc::default();
    let on = |node| SecureChannel::on_node(ChannelSecurity::AuthReplay, PKEY, secret, 64, node);
    let mut a_side = [on(&node_a), on(&node_a)];
    let mut b_side = [on(&node_b), on(&node_b)];
    let mut shared_round = |a_side: &mut [SecureChannel; 2], b_side: &mut [SecureChannel; 2]| {
        for _ in 0..ROUNDS {
            pkt.bth.psn = Psn(psn);
            psn += 1;
            for (a, b) in a_side.iter_mut().zip(b_side.iter_mut()) {
                seal_admit(a, b, &mut pkt, &mut wire);
                seal_admit(b, a, &mut pkt, &mut wire);
            }
        }
    };
    let n = steady_state_allocs(|| shared_round(&mut a_side, &mut b_side));
    assert_eq!(n, 0, "two channels per node: seal + admit steady state");
    let derivations = || (node_a.borrow().derivations(), node_b.borrow().derivations());
    assert_eq!(derivations(), (1, 1));
    let rotated = SecretKey::from_seed(12);
    for node in [&node_a, &node_b] {
        node.borrow_mut()
            .install_epoch(0, 0, PKEY, KeyEpoch(1), rotated);
    }
    let n = steady_state_allocs(|| shared_round(&mut a_side, &mut b_side));
    assert_eq!(n, 0, "two channels per node after a rotation");
    assert_eq!(derivations(), (2, 2));

    // --- AEAD seal + open (in-place, tag-only expansion) ------------
    let aead = ib_crypto::AesGcm32::new(&[0x42; 16]);
    let mut sealed = vec![0x5A; 512];
    let aad = [0u8; 40];
    let mut nonce = 0u64;
    let n = steady_state_allocs(|| {
        for _ in 0..ROUNDS {
            nonce += 1;
            let tag = aead.seal(nonce, &aad, &mut sealed);
            assert!(aead.open(nonce, &aad, &mut sealed, tag));
        }
    });
    assert_eq!(n, 0, "AEAD seal+open steady state");

    // --- endpoint send path (templates + buffer pool) ---------------
    let cfg = RcConfig {
        ack_coalesce: 1,
        ..RcConfig::default()
    };
    let mut a = SecureRcEndpoint::new(
        ChannelSecurity::AuthReplay,
        PKEY,
        secret,
        64,
        cfg,
        Lid(1),
        Lid(2),
        Qpn(3),
    );
    let mut b = SecureRcEndpoint::new(
        ChannelSecurity::AuthReplay,
        PKEY,
        secret,
        64,
        cfg,
        Lid(2),
        Lid(1),
        Qpn(3),
    );
    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut now = 0;
    // Warm cycles: pool fills with recycled wire buffers, the in-flight
    // queue reaches capacity, ACKs clear it again.
    for _ in 0..2 {
        for i in 0..ROUNDS {
            a.post(vec![i as u8; 256]);
        }
        a.poll_into(now, &mut out);
        for bytes in out.drain(..) {
            b.handle_wire(now, &bytes);
            a.recycle(bytes);
        }
        b.take_delivered();
        b.poll_into(now, &mut out);
        for ack in out.drain(..) {
            a.handle_wire(now, &ack);
            b.recycle(ack);
        }
        now += 1000;
    }
    // Payload buffers are the caller's input — they exist before the
    // measured region, like application data would.
    let payloads: Vec<Vec<u8>> = (0..ROUNDS).map(|i| vec![i as u8; 256]).collect();
    let before = allocs();
    for p in payloads {
        a.post(p);
    }
    a.poll_into(now, &mut out);
    let n = allocs() - before;
    assert_eq!(out.len(), ROUNDS as usize, "whole burst fits the window");
    assert_eq!(n, 0, "endpoint post+poll_into steady state");

    // --- endpoint receive path (handle_wire) ------------------------
    // Data direction: the burst from `a` above crosses to `b` one buffer
    // per arrival. Each arrival is viewed in place and its payload copied
    // once, so the only allocation is the delivered buffer handed to the
    // application (by contract a fresh `Vec`, like `post`'s payloads on
    // the way in): exactly one per SEND.
    let before = allocs();
    for bytes in &out {
        b.handle_wire(now, bytes);
    }
    let n = allocs() - before;
    assert_eq!(b.take_delivered().len(), ROUNDS as usize);
    assert_eq!(
        n,
        u64::from(ROUNDS),
        "endpoint handle_wire (data): one allocation per delivered SEND"
    );
    // ACK direction: nothing is handed to the application, so nothing
    // allocates. Cumulative ACKs are idempotent, so replaying the burst
    // walks the same parse/verify/QP path as the first pass.
    let mut acks: Vec<Vec<u8>> = Vec::new();
    b.poll_into(now, &mut acks);
    assert_eq!(acks.len(), ROUNDS as usize, "one ACK per data packet");
    let n = steady_state_allocs(|| {
        for ack in &acks {
            a.handle_wire(now, ack);
        }
    });
    assert!(a.tx_idle(), "the ACK burst cleared the in-flight window");
    assert_eq!(n, 0, "endpoint handle_wire (ACK) steady state");
}
