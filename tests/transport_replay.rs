//! Integration: the §7 replay defense reconciled with reliable-transport
//! retransmission, end to end through real wire bytes.
//!
//! The acceptance scenario from the issue: on one connection, prove that
//! a **replay of a delivered packet is rejected** while a **retransmit of
//! a dropped packet is accepted** — even though the two are byte-identical
//! in every way that matters (same PSN, same MAC tag, same payload
//! encoding), because delivery state is the only thing that tells them
//! apart.

use ib_mgmt::keymgmt::SecretKey;
use ib_packet::types::{Lid, PKey, Psn, Qpn};
use ib_packet::{OpCode, PacketBuilder};
use ib_security::ChannelSecurity;
use ib_sim::time::US;
use ib_sim::{FaultConfig, SimTime};
use ib_transport::{run_fabric_sim, FabricSimConfig, RcConfig, SecureRcEndpoint};

const PKEY: PKey = PKey(0x8001);

fn endpoint_pair(security: ChannelSecurity) -> (SecureRcEndpoint, SecureRcEndpoint) {
    let secret = SecretKey::from_seed(2024);
    let cfg = RcConfig {
        ack_coalesce: 1,
        ..RcConfig::default()
    };
    let a = SecureRcEndpoint::new(security, PKEY, secret, 64, cfg, Lid(1), Lid(2), Qpn(3));
    let b = SecureRcEndpoint::new(security, PKEY, secret, 64, cfg, Lid(2), Lid(1), Qpn(3));
    (a, b)
}

/// Deliver `wire` buffers from one endpoint to the other, returning the
/// replies the receiver produced.
fn deliver(to: &mut SecureRcEndpoint, now: SimTime, wire: &[Vec<u8>]) -> Vec<Vec<u8>> {
    for bytes in wire {
        to.handle_wire(now, bytes);
    }
    to.poll(now)
}

/// The tentpole distinction, at the endpoint level with captured bytes.
#[test]
fn replay_of_delivered_rejected_retransmit_of_dropped_accepted() {
    let (mut a, mut b) = endpoint_pair(ChannelSecurity::AuthReplay);
    for i in 0..4u8 {
        a.post(vec![i; 24]);
    }
    let wire = a.poll(0);
    assert_eq!(wire.len(), 4, "window admits the whole burst");

    // The fault layer eats PSN 2; the attacker captures PSN 1 in flight.
    let captured_psn1 = wire[1].clone();
    let acks = deliver(
        &mut b,
        0,
        &[wire[0].clone(), wire[1].clone(), wire[3].clone()],
    );
    assert_eq!(b.take_delivered().len(), 2, "0 and 1 in order; 3 gapped");

    // Attacker replays the *delivered* PSN 1: byte-identical, MAC valid —
    // suppressed by the replay window, never re-delivered.
    b.handle_wire(2 * US, &captured_psn1);
    assert!(
        b.take_delivered().is_empty(),
        "replay of delivered rejected"
    );
    assert_eq!(b.stats.dup_admitted_fresh, 0);
    assert!(b.stats.dup_suppressed >= 1);

    // The receiver's NAK asks the sender to go back to PSN 2; the
    // retransmit reuses the original PSN and the identical tag...
    for ack in &acks {
        a.handle_wire(3 * US, ack);
    }
    let retrans = a.poll(3 * US);
    assert!(
        !retrans.is_empty(),
        "NAK(PSN-sequence-error) triggered go-back-N"
    );
    assert_eq!(
        retrans[0], wire[2],
        "retransmit is byte-identical to the original"
    );

    // ...and the *undelivered* PSN 2 is accepted, followed by 3.
    deliver(&mut b, 4 * US, &retrans);
    let recovered = b.take_delivered();
    assert_eq!(recovered.len(), 2, "PSNs 2 and 3 complete the sequence");
    assert_eq!(recovered[0], vec![2u8; 24]);
    assert_eq!(recovered[1], vec![3u8; 24]);
    assert_eq!(b.stats.dup_admitted_fresh, 0, "no replay ever walked in");
}

/// Same bytes, no replay window: the attack succeeds. The two tests
/// together are the paper's argument for §7.
#[test]
fn without_window_the_same_replay_is_delivered_twice() {
    for arm in [ChannelSecurity::NoAuth, ChannelSecurity::Auth] {
        let (mut a, mut b) = endpoint_pair(arm);
        a.post(b"wire transfer: $100".to_vec());
        let wire = a.poll(0);
        let captured = wire[0].clone();
        b.handle_wire(0, &captured);
        assert_eq!(b.take_delivered().len(), 1);

        b.handle_wire(10 * US, &captured);
        assert_eq!(
            b.take_delivered().len(),
            1,
            "{arm:?}: replayed payload delivered again"
        );
        assert_eq!(b.stats.dup_admitted_fresh, 1, "{arm:?}");
    }
}

/// A keyless attacker who sniffed the P_Key, the destination QP and the
/// next PSN sends a stock-IBA SEND (selector 0, correct plain ICRC and
/// VCRC): an authenticating endpoint refuses it for carrying no tag.
#[test]
fn keyless_selector_zero_send_is_not_delivered() {
    for arm in [ChannelSecurity::Auth, ChannelSecurity::AuthReplay] {
        let (_, mut b) = endpoint_pair(arm);
        let forged = PacketBuilder::new(OpCode::RC_SEND_ONLY)
            .slid(Lid(1))
            .dlid(Lid(2))
            .pkey(PKEY)
            .dest_qp(Qpn(3))
            .psn(Psn(0))
            .payload(b"wire transfer: $1,000,000".to_vec())
            .build();
        b.handle_wire(0, &forged.to_bytes());
        assert!(b.take_delivered().is_empty(), "{arm:?}: forged payload");
        assert_eq!(b.channel().stats.rejected_auth, 1, "{arm:?}");
        assert_eq!(b.channel().stats.fresh, 0, "{arm:?}");
    }
}

/// Full-system check: the simulated experiment at 2% loss with an active
/// attacker satisfies the acceptance criteria — 100% eventual delivery,
/// zero admitted replays with the window, reproducible to the bit. The
/// fabric is fig_replay's quiet one: a 2×2 mesh with no background load,
/// so loss and the replays are all that happens to the flow.
#[test]
fn lossy_sim_acceptance_point() {
    let mut cfg = FabricSimConfig {
        security: ChannelSecurity::AuthReplay,
        messages: 80,
        payload_len: 128,
        src: 0,
        dst: 1,
        replay_node: 2,
        replay_every: 3,
        seed: 7,
        ..FabricSimConfig::default()
    };
    cfg.sim.mesh_dim = 2;
    cfg.sim.traffic.realtime_load = 0.0;
    cfg.sim.traffic.best_effort_load = 0.0;
    cfg.sim.fault = FaultConfig::lossy(0.02, 50_000);
    let r1 = run_fabric_sim(&cfg);
    assert_eq!(r1.delivered, 80, "100% eventual delivery at 2% loss");
    assert!(!r1.failed && !r1.timed_out);
    assert!(r1.retransmits > 0);
    assert!(r1.replays_injected > 0);
    assert_eq!(r1.replays_admitted, 0, "0 attacker replays accepted");

    let r2 = run_fabric_sim(&cfg);
    assert_eq!(
        r1.to_json().to_string(),
        r2.to_json().to_string(),
        "identical output across two same-seed runs"
    );
}
