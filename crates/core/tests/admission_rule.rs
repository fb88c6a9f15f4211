//! The admission rule against the selector-0 downgrade and the
//! sender-chosen MAC.
//!
//! A keyless attacker who has sniffed a connection's P_Key, destination
//! QP and next PSN can build a stock-IBA packet: selector 0 in BTH
//! `Resv8a`, a correct plain CRC-32 in the ICRC slot, a correct VCRC. A
//! receiver that requires a tag (an authenticating [`SecureChannel`] arm,
//! or a [`SecureFabric`] node whose on-demand policy enrolled the
//! partition) must refuse it as [`AuthError::AuthRequired`]; a receiver
//! that requires none still takes it as plain ICRC. A packet whose
//! selector names another algorithm than the receiver's is refused
//! without the receiver keying that algorithm.

use std::cell::RefCell;
use std::rc::Rc;

use ib_crypto::mac::AuthAlgorithm;
use ib_mgmt::keymgmt::SecretKey;
use ib_packet::{Lid, OpCode, PKey, Packet, PacketBuilder, Psn, QKey, Qpn};
use ib_security::fabric::{FabricError, SecureFabric};
use ib_security::{
    Admit, AuthError, Authenticator, ChannelError, ChannelSecurity, KeyScope, SecureChannel,
};

const PKEY: PKey = PKey(0x8001);

/// What the attacker sniffed off the wire is all it needs: no secret.
fn keyless_send_only(psn: u32) -> Packet {
    PacketBuilder::new(OpCode::RC_SEND_ONLY)
        .slid(Lid(1))
        .dlid(Lid(2))
        .pkey(PKEY)
        .dest_qp(Qpn(9))
        .psn(Psn(psn))
        .payload(b"forged without a key".to_vec())
        .build()
}

#[test]
fn keyed_channel_arms_reject_a_keyless_selector_zero_send() {
    let secret = SecretKey::from_seed(77);
    let forged = keyless_send_only(0);
    assert_eq!(forged.bth.resv8a, 0);
    assert!(
        forged.icrc_ok() && forged.vcrc_ok(),
        "a valid stock-IBA packet"
    );
    for arm in [ChannelSecurity::Auth, ChannelSecurity::AuthReplay] {
        let mut rx = SecureChannel::new(arm, PKEY, secret, 64);
        assert_eq!(
            rx.admit(&forged),
            Err(ChannelError::Auth(AuthError::AuthRequired)),
            "{arm:?}"
        );
        assert_eq!(rx.stats.rejected_auth, 1, "{arm:?}");
        assert_eq!(rx.stats.fresh, 0, "{arm:?}");
    }
    // A channel that authenticates nothing takes it as a legacy packet.
    let mut rx = SecureChannel::new(ChannelSecurity::NoAuth, PKEY, secret, 64);
    assert_eq!(rx.admit(&forged), Ok(Admit::Fresh));
}

#[test]
fn fabric_requires_a_tag_only_where_the_policy_enrolled_the_partition() {
    let mut f = SecureFabric::new(4, AuthAlgorithm::Umac32, KeyScope::Partition, 77);
    f.create_partition(PKEY, &[0, 1]);

    // Default allow-all policy: a legacy packet is checked as plain ICRC.
    let legacy = f
        .send_unauthenticated(0, 1, PKEY, QKey(1), b"legacy")
        .unwrap();
    assert_eq!(f.deliver(1, &legacy).unwrap(), b"legacy");
    let mut corrupted = Packet::parse(
        &f.send_unauthenticated(0, 1, PKEY, QKey(1), b"legacy")
            .unwrap(),
    )
    .unwrap();
    corrupted.payload[0] ^= 1;
    corrupted.vcrc = corrupted.compute_vcrc();
    assert_eq!(
        f.deliver(1, &corrupted.to_bytes()),
        Err(FabricError::Auth(AuthError::BadIcrc))
    );

    // Enrolled: the same legacy packet is refused for carrying no tag.
    f.require_auth_for_partition(PKEY);
    let forged = f
        .send_unauthenticated(3, 1, PKEY, QKey(1), b"forged")
        .unwrap();
    assert_eq!(
        f.deliver(1, &forged),
        Err(FabricError::Auth(AuthError::AuthRequired))
    );
    let tagged = f.send_datagram(0, 1, PKEY, QKey(1), b"tagged").unwrap();
    assert_eq!(f.deliver(1, &tagged).unwrap(), b"tagged");
}

/// The receive-side P_Key check matches by key base (`PKey::matches`), so
/// a limited-member P_Key names the enrolled partition too: a keyless
/// non-member that clears the membership bit still needs a tag.
#[test]
fn clearing_the_membership_bit_does_not_step_around_the_policy() {
    let mut f = SecureFabric::new(4, AuthAlgorithm::Umac32, KeyScope::Partition, 77);
    f.create_partition(PKEY, &[0, 1]);
    f.require_auth_for_partition(PKEY);
    for pkey in [PKEY, PKey(PKEY.0 & 0x7FFF)] {
        let forged = f
            .send_unauthenticated(3, 1, pkey, QKey(1), b"forged")
            .unwrap();
        assert_eq!(
            f.deliver(1, &forged),
            Err(FabricError::Auth(AuthError::AuthRequired)),
            "{pkey}"
        );
    }
}

#[test]
fn a_tag_under_another_algorithm_is_rejected_without_keying_it() {
    let secret = SecretKey::from_seed(77);
    let node: Rc<RefCell<Authenticator>> = Rc::default();
    let mut rx = SecureChannel::on_node(ChannelSecurity::Auth, PKEY, secret, 64, &node);
    let umac = SecureChannel::new(ChannelSecurity::Auth, PKEY, secret, 64);
    let mut genuine = keyless_send_only(0);
    umac.seal(&mut genuine).unwrap();
    assert_eq!(rx.admit(&genuine), Ok(Admit::Fresh));
    assert_eq!(node.borrow().derivations(), 1);

    // The receiver's own secret, but HMAC-MD5 under its selector.
    let mut md5 = Authenticator::new(AuthAlgorithm::HmacMd5, KeyScope::Partition);
    md5.keys.install_partition_secret(PKEY, secret);
    let mut other = keyless_send_only(1);
    md5.seal_into(&mut other, &mut Vec::new(), &mut Vec::new())
        .unwrap();
    assert_eq!(other.bth.resv8a, AuthAlgorithm::HmacMd5.selector());
    assert!(matches!(rx.admit(&other), Err(ChannelError::Auth(_))));
    assert_eq!(rx.stats.rejected_auth, 1);
    assert_eq!(rx.stats.fresh, 1);
    assert_eq!(
        node.borrow().derivations(),
        1,
        "the receiver keyed no second MAC"
    );
}
