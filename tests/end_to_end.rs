//! Cross-crate integration tests: wire bytes produced by `ib-packet`,
//! keyed by `ib-mgmt` flows, tagged/verified by `ib-security`, with the
//! management plane (`SubnetManager`, traps, enforcement) in the loop.

use ib_crypto::mac::AuthAlgorithm;
use ib_crypto::toyrsa;
use ib_mgmt::enforcement::{FilterDecision, PartitionEnforcer, SifEnforcer};
use ib_mgmt::keymgmt::SecretKey;
use ib_mgmt::partition::PartitionConfig;
use ib_mgmt::sm::SubnetManager;
use ib_mgmt::trap::Trap;
use ib_packet::{Lid, OpCode, PKey, Packet, PacketBuilder, Psn, QKey, Qpn};
use ib_security::auth::{AuthError, Authenticator, KeyScope};
use ib_security::fabric::{FabricError, SecureFabric};

/// Seal `pkt` in place (tag, selector, epoch and VCRC land in it).
fn tag(auth: &Authenticator, pkt: &mut Packet) -> Result<(), AuthError> {
    auth.seal_into(pkt, &mut Vec::new(), &mut Vec::new())
}

/// Verify `pkt` as it arrives: serialized, viewed (VCRC checked once),
/// then through the verify door.
fn verify(auth: &Authenticator, pkt: &Packet) -> Result<(), AuthError> {
    let wire = pkt.to_bytes();
    let view = Packet::parse_view(&wire).expect("the VCRC holds");
    auth.verify_view(&view, &mut Vec::new())
}

/// The full §4.2 + §5 pipeline with no shortcuts: SM mints a partition
/// secret, distributes it via real toy-RSA envelopes, members build real
/// wire packets, tag them, ship bytes, parse, verify.
#[test]
fn sm_key_distribution_to_verified_delivery() {
    let mut sm = SubnetManager::new(2, 99);
    let (pk0, sk0) = toyrsa::generate_keypair(1);
    let (pk1, sk1) = toyrsa::generate_keypair(2);
    sm.register_public_key(Lid(1), pk0);
    sm.register_public_key(Lid(2), pk1);
    let pkey = PKey(0x8001);
    let (_, envelopes) = sm.create_partition(PartitionConfig {
        pkey,
        members: vec![0, 1],
    });
    assert_eq!(envelopes.len(), 2);

    let mut alice = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition);
    let mut bob = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition);
    for (member, env) in envelopes {
        let secret = match member {
            0 => env.open(&sk0).unwrap(),
            1 => env.open(&sk1).unwrap(),
            _ => unreachable!(),
        };
        match member {
            0 => alice.keys.install_partition_secret(pkey, secret),
            _ => bob.keys.install_partition_secret(pkey, secret),
        }
    }

    let mut pkt = PacketBuilder::new(OpCode::UD_SEND_ONLY)
        .slid(Lid(1))
        .dlid(Lid(2))
        .pkey(pkey)
        .psn(Psn(7))
        .qkey(QKey(0x42), Qpn(5))
        .payload(b"distributed-key payload".to_vec())
        .build();
    tag(&alice, &mut pkt).unwrap();
    let wire = pkt.to_bytes();

    let arrived = Packet::parse(&wire).unwrap();
    verify(&bob, &arrived).unwrap();
    assert_eq!(arrived.payload, b"distributed-key payload");
}

/// §3.3's full control loop against real state machines: HCA detects a bad
/// P_Key, raises a trap, the SM locates the attacker's edge switch, SIF is
/// programmed, and subsequent attack packets are dropped at ingress while
/// legitimate traffic still passes.
#[test]
fn trap_to_sif_programming_loop() {
    let mut sm = SubnetManager::new(4, 5);
    // Attacker = node 2, attached to switch 2 port 4.
    sm.attach(Lid(3), 2, 4);
    let mut sif = SifEnforcer::new(5, 1_000_000, 8);
    let bad = PKey(0x8666);

    // Before the trap: SIF is dormant, the flood passes the switch.
    let check = sif.check(0, 4, true, Lid(3), bad);
    assert_eq!(check.decision, FilterDecision::Pass);
    assert_eq!(check.lookup_cycles, 0);

    // Victim (node 0) raises a trap; SM maps it to (switch 2, port 4).
    let trap = Trap::pkey_violation(Lid(1), bad, Lid(3), 1);
    let action = sm.handle_trap(&trap).expect("SM locates the violator");
    assert_eq!((action.switch, action.port), (2, 4));

    // Program the filter (the simulator does this after PROGRAM_LATENCY).
    sif.register_invalid(100, action.port, action.pkey);

    // The flood now dies at the attacker's own ingress port…
    let check = sif.check(101, 4, true, Lid(3), bad);
    assert_eq!(check.decision, FilterDecision::Drop);
    // …while a legitimate key from the same port passes (1-cycle lookup).
    let ok = sif.check(102, 4, true, Lid(3), PKey(0x8001));
    assert_eq!(ok.decision, FilterDecision::Pass);
    assert_eq!(ok.lookup_cycles, 1);
}

/// Tags survive what switches legitimately do to packets (VL rewrite) and
/// break under what attackers do (any invariant-field tamper) — across
/// every registered MAC algorithm.
#[test]
fn tags_survive_switch_hops_break_under_tamper_all_algorithms() {
    for alg in &AuthAlgorithm::ALL[1..] {
        let pkey = PKey(0x8001);
        let secret = SecretKey::from_seed(0xD00D);
        let mut auth = Authenticator::new(*alg, KeyScope::Partition);
        auth.keys.install_partition_secret(pkey, secret);

        let mut pkt = PacketBuilder::new(OpCode::UD_SEND_ONLY)
            .slid(Lid(1))
            .dlid(Lid(2))
            .pkey(pkey)
            .psn(Psn(1))
            .qkey(QKey(9), Qpn(4))
            .payload(vec![0xAB; 100])
            .build();
        tag(&auth, &mut pkt).unwrap();

        // Two VL rewrites en route (switch behaviour): tag still verifies.
        pkt.rewrite_vl(ib_packet::VirtualLane(3));
        pkt.rewrite_vl(ib_packet::VirtualLane(9));
        let hop = Packet::parse(&pkt.to_bytes()).unwrap();
        verify(&auth, &hop).unwrap_or_else(|e| panic!("{alg:?} after VL rewrite: {e}"));

        // Tampers an attacker would try: each must break verification.
        let mut payload_tamper = hop.clone();
        payload_tamper.payload[50] ^= 0x01;
        payload_tamper.vcrc = payload_tamper.compute_vcrc();
        assert!(verify(&auth, &payload_tamper).is_err(), "{alg:?} payload");

        let mut qkey_tamper = hop.clone();
        qkey_tamper.deth.as_mut().unwrap().qkey = QKey(0xFFFF);
        qkey_tamper.vcrc = qkey_tamper.compute_vcrc();
        assert!(verify(&auth, &qkey_tamper).is_err(), "{alg:?} Q_Key");

        let mut psn_tamper = hop.clone();
        psn_tamper.bth.psn = Psn(2);
        psn_tamper.vcrc = psn_tamper.compute_vcrc();
        assert!(verify(&auth, &psn_tamper).is_err(), "{alg:?} PSN/nonce");
    }
}

/// The compatibility story: a fabric where one side upgraded and the other
/// didn't. Legacy packets (selector 0) flow as before until policy forbids
/// them, and upgraded packets look like CRC-failed packets to legacy gear.
#[test]
fn mixed_legacy_and_upgraded_nodes() {
    let pkey = PKey(0x8001);
    let mut fabric = SecureFabric::new(3, AuthAlgorithm::Umac32, KeyScope::Partition, 31);
    fabric.create_partition(pkey, &[0, 1, 2]);

    // Legacy sender (plain ICRC) to an upgraded receiver with no policy:
    let wire = fabric
        .send_unauthenticated(0, 1, pkey, QKey(1), b"legacy")
        .unwrap();
    assert!(fabric.deliver(1, &wire).is_ok());

    // Upgraded sender to a "legacy" receiver: the packet parses fine at
    // the link layer and its ICRC field simply fails a plain CRC check —
    // exactly the paper's graceful-degradation story.
    let wire = fabric
        .send_datagram(0, 1, pkey, QKey(1), b"tagged")
        .unwrap();
    let parsed = Packet::parse(&wire).unwrap();
    assert!(parsed.vcrc_ok());
    assert!(!parsed.icrc_ok(), "tag is not a CRC");
    assert_eq!(parsed.bth.resv8a, AuthAlgorithm::Umac32.selector());

    // Once policy requires tags, the legacy path closes.
    fabric.require_auth_for_partition(pkey);
    let wire = fabric
        .send_unauthenticated(0, 1, pkey, QKey(1), b"legacy")
        .unwrap();
    assert_eq!(
        fabric.deliver(1, &wire),
        Err(FabricError::Auth(AuthError::AuthRequired))
    );
}

/// A keyed MAC instance agrees with itself across crate boundaries: the
/// secret from `ib-mgmt` keying drives `ib-crypto` MACs over `ib-packet`
/// invariant bytes identically whether called via the Authenticator or
/// directly.
#[test]
fn authenticator_matches_direct_mac_composition() {
    let pkey = PKey(0x8003);
    let secret = SecretKey::from_seed(777);
    let mut auth = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition);
    auth.keys.install_partition_secret(pkey, secret);

    let pkt = PacketBuilder::new(OpCode::UD_SEND_ONLY)
        .slid(Lid(4))
        .dlid(Lid(5))
        .pkey(pkey)
        .psn(Psn(1234))
        .qkey(QKey(8), Qpn(2))
        .payload(b"cross-crate agreement".to_vec())
        .build();

    let mut tagged = pkt.clone();
    tag(&auth, &mut tagged).unwrap();
    let direct = ib_crypto::umac::Umac::new(&secret.0)
        .tag32(Authenticator::nonce(&pkt), &pkt.icrc_message());
    assert_eq!(tagged.icrc, direct);

    // And AnyMac's dispatch agrees too.
    let any = ib_crypto::mac::AnyMac::new(AuthAlgorithm::Umac32, &secret.0);
    assert_eq!(
        any.tag32(Authenticator::nonce(&pkt), &pkt.icrc_message()),
        direct
    );
}
