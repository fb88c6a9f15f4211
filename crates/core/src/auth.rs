//! The ICRC-as-MAC authentication layer (§5 of the paper) and the one
//! admission rule every receiver applies.
//!
//! Tagging: compute a 32-bit MAC over exactly the bytes the ICRC covers
//! (invariant fields, variant fields masked), store it in the ICRC slot,
//! and put the algorithm selector in BTH `Resv8a`. The MAC runs one-shot
//! over one contiguous masked image, never streamed slice by slice: a
//! masked copy of the freshly written wire bytes on send
//! ([`Authenticator::seal_into`], through [`Packet::write_sealed`]), of
//! the checked received bytes on receive ([`WireView::masked_image_into`]).
//!
//! Receiving: one function, `admission`, reads the selector and decides
//! which check an arrival gets. An authenticator verifies only under its
//! **own** algorithm; any other selector is rejected, so the sender never
//! picks the MAC. Selector 0 is checked as plain CRC-32 — what keeps the
//! scheme wire-compatible with non-upgraded IBA gear — only where the
//! receiver requires no tag; where it requires one (an authenticating
//! channel, or a scope the on-demand policy enrolled) a selector-0
//! arrival is [`AuthError::AuthRequired`].
//!
//! One seal door, [`Authenticator::seal_into`], and one receive door,
//! `admission` (MAC arm: the private `Authenticator::verify_tag`), which
//! `SecureChannel::check` and `SecureFabric::deliver` both call.
//! [`Authenticator::verify_view`] is only its public wrapper (tag
//! required) for standalone authenticators in tests and examples.
//!
//! The MAC nonce is `(SLID << 24) | PSN`: the PSN gives per-flow
//! freshness, the SLID disambiguates senders sharing a partition secret
//! (partition-level keys are shared by every QP in the partition — §4.2).

use std::cell::Cell;
use std::fmt;

use ib_crypto::mac::{AnyMac, AuthAlgorithm};
use ib_mgmt::keymgmt::{KeyEpoch, KeyVersion, NodeKeyTable, SecretKey};
use ib_packet::types::{Lid, PKey, Psn};
use ib_packet::{Bth, Deth, Packet, WireView};

/// Which key-management granularity an [`Authenticator`] uses to find the
/// per-packet secret (§4.2 vs §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyScope {
    /// One secret per partition, looked up by the BTH P_Key (Figure 2).
    Partition,
    /// Per-QP secrets: datagrams by `(Q_Key, source QP)` from the DETH
    /// (Figure 3), connected service by the destination QP.
    QpLevel,
}

/// Why tagging or verification failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// BTH selector byte names an algorithm the receiver does not verify
    /// under: an unregistered one, or a registered one other than its own.
    UnknownSelector(u8),
    /// No secret key on file for this packet's scope index — for a
    /// receiver this is indistinguishable from a forgery by an outsider.
    NoKey,
    /// Tag mismatch: forged, corrupted, or keyed differently.
    BadTag,
    /// Packet uses plain ICRC (selector 0) and the CRC check failed.
    BadIcrc,
    /// The receiver requires a tag (an authenticating channel, or a scope
    /// the on-demand policy enrolled) and the packet carries plain ICRC.
    AuthRequired,
    /// QP-level scope needs a DETH (datagram) or a connection entry and
    /// the packet offers neither.
    NoScopeIndex,
    /// The packet's BTH key-epoch id names a key version older than every
    /// live one — the rotation grace window has expired for it.
    StaleEpoch(u8),
    /// The packet's BTH key-epoch id names a key version newer than any
    /// installed — the receiver's key-update MAD is still in flight
    /// (recovered by retransmission once it lands).
    FutureEpoch(u8),
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::UnknownSelector(s) => write!(f, "auth selector {s} is not the receiver's"),
            AuthError::NoKey => write!(f, "no secret key for this packet's scope"),
            AuthError::BadTag => write!(f, "authentication tag mismatch"),
            AuthError::BadIcrc => write!(f, "ICRC check failed"),
            AuthError::AuthRequired => write!(f, "the receiver requires an authenticated packet"),
            AuthError::NoScopeIndex => write!(f, "packet carries no usable key index"),
            AuthError::StaleEpoch(e) => write!(f, "key epoch {e} is past its grace window"),
            AuthError::FutureEpoch(e) => write!(f, "key epoch {e} is not yet installed"),
        }
    }
}

impl std::error::Error for AuthError {}

/// The admission rule: the integrity check a received view gets at a
/// receiver holding `auth` (none for a channel that does not
/// authenticate) that does or does not require a tag. The view's VCRC was
/// checked when it was parsed; `image` is the caller's scratch for the
/// masked image.
///
/// * Selector 0 where a tag is required → [`AuthError::AuthRequired`].
/// * Selector 0 elsewhere → the plain CRC-32 check (legacy IBA).
/// * The authenticator's own selector → its MAC under the packet-indexed
///   secret.
/// * Any other selector → [`AuthError::UnknownSelector`]: the receiver
///   picks the MAC, never the sender.
/// * Without an authenticator a tag cannot be judged, and is let through:
///   such a receiver has no protection against an adversary.
pub(crate) fn admission(
    auth: Option<&Authenticator>,
    tag_required: bool,
    view: &WireView,
    image: &mut Vec<u8>,
) -> Result<(), AuthError> {
    match (view.bth.resv8a, auth) {
        (0, _) if tag_required => Err(AuthError::AuthRequired),
        (0, _) => {
            view.masked_image_into(image);
            if AnyMac::Icrc.tag32(0, image) == view.icrc {
                Ok(())
            } else {
                Err(AuthError::BadIcrc)
            }
        }
        (selector, Some(auth)) if selector == auth.algorithm.selector() => {
            auth.verify_tag(view, image)
        }
        (selector, Some(_)) => Err(AuthError::UnknownSelector(selector)),
        (_, None) => Ok(()),
    }
}

/// One CA node's authentication engine: its key table, the configured
/// algorithm and scope, and the retirement schedule of the partition key
/// versions the key plane rotates. The paper keys a whole CA with one
/// partition secret (§4.2), so every channel on a node shares the node's
/// authenticator (`Rc<RefCell<Authenticator>>`; a fabric node owns one
/// outright): each version's keyed MAC is derived once per node, on the
/// first seal or verify that needs it ([`KeyVersion::mac`]), and every
/// channel sees the same versions retire at the same instant.
///
/// [`Default`] is what a [`crate::SecureChannel`] authenticates with:
/// UMAC-32 (§5.2) under partition scope (§4.2).
pub struct Authenticator {
    /// This node's secrets (installed by the key-management flows), each
    /// version carrying its keyed MAC once derived.
    pub keys: NodeKeyTable,
    algorithm: AuthAlgorithm,
    scope: KeyScope,
    /// Scheduled retirements: at `.0`, drop every version of partition
    /// `.1` below epoch `.2`.
    pub(crate) pending_retire: Vec<(u64, PKey, KeyEpoch)>,
    /// `AnyMac::new` calls made for this node's key versions.
    derivations: Cell<u64>,
}

impl Default for Authenticator {
    fn default() -> Self {
        Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition)
    }
}

impl Authenticator {
    /// An authenticator using `algorithm` and `scope` with an empty key
    /// table.
    pub fn new(algorithm: AuthAlgorithm, scope: KeyScope) -> Self {
        assert!(
            algorithm.is_authenticating(),
            "selector 0 (plain ICRC) is the absence of authentication"
        );
        Authenticator {
            keys: NodeKeyTable::new(),
            algorithm,
            scope,
            pending_retire: Vec::new(),
            derivations: Cell::new(0),
        }
    }

    /// Install a partition key version learned from a key-update MAD at
    /// `now`. Retirements already due at `now` run first; the send side
    /// switches to the newest epoch at once (the next seal stamps it);
    /// when `epoch` is newer than the current one, every older version
    /// is scheduled to retire once `grace` has elapsed from `now` (0 = a
    /// hard cutover). A node that carries no traffic while the SM keeps
    /// rotating thus holds a bounded ring and schedule, and ends in the
    /// state of a node polled at every instant.
    pub fn install_epoch(
        &mut self,
        now: u64,
        grace: u64,
        pkey: PKey,
        epoch: KeyEpoch,
        secret: SecretKey,
    ) {
        self.advance_time(now);
        let newer = self
            .keys
            .partition_current(pkey)
            .is_none_or(|(cur, _)| epoch > cur);
        self.keys.install_partition_epoch(pkey, epoch, secret);
        if newer {
            self.pending_retire
                .push((now.saturating_add(grace), pkey, epoch));
        }
    }

    /// Retire the key versions whose grace window has expired by `now`,
    /// keyed MACs and all. Every endpoint entry point calls this (through
    /// its channel) before it uses a key; after it runs, traffic under a
    /// retired epoch is rejected as [`AuthError::StaleEpoch`].
    pub(crate) fn advance_time(&mut self, now: u64) {
        if self.pending_retire.is_empty() {
            return;
        }
        let keys = &mut self.keys;
        self.pending_retire.retain(|&(at, pkey, below)| {
            if at <= now {
                keys.retire_partition_below(pkey, below);
                false
            } else {
                true
            }
        });
    }

    /// Keyed MACs derived for this node so far.
    pub fn derivations(&self) -> u64 {
        self.derivations.get()
    }

    /// The keyed MAC of `version` under this authenticator's algorithm,
    /// derived (and counted) on first use.
    fn mac<'a>(&self, version: &'a KeyVersion) -> &'a AnyMac {
        version.mac(|secret| {
            self.derivations.set(self.derivations.get() + 1);
            AnyMac::new(self.algorithm, &secret.0)
        })
    }

    /// The MAC nonce for a packet (see module docs).
    pub fn nonce(packet: &Packet) -> u64 {
        Self::nonce_of(packet.lrh.slid, packet.bth.psn)
    }

    /// The MAC nonce from the two fields it is built of.
    fn nonce_of(slid: Lid, psn: Psn) -> u64 {
        ((slid.0 as u64) << 24) | psn.0 as u64
    }

    /// Send side, one key-table lookup: the *current* `(epoch, version)`
    /// for the packet's scope index. The index is derived purely from
    /// header fields, so sender and receiver agree. Datagram secrets are
    /// minted fresh per Q_Key request, so they stay at epoch 0.
    fn send_key(
        &self,
        bth: &Bth,
        deth: Option<&Deth>,
    ) -> Result<(KeyEpoch, &KeyVersion), AuthError> {
        match self.scope {
            KeyScope::Partition => self.keys.partition_current(bth.pkey),
            KeyScope::QpLevel => match deth {
                Some(d) => self
                    .keys
                    .datagram_key(d.qkey, d.src_qp)
                    .map(|v| (KeyEpoch::ZERO, v)),
                None if bth.opcode.service.is_connected() => {
                    self.keys.connection_current(bth.dest_qp)
                }
                None => return Err(AuthError::NoScopeIndex),
            },
        }
        .ok_or(AuthError::NoKey)
    }

    /// Classify a wire epoch id that matched no live key version.
    fn epoch_miss(wire: u8, current: Option<(KeyEpoch, &KeyVersion)>) -> AuthError {
        let Some((current, _)) = current else {
            return AuthError::NoKey;
        };
        match KeyEpoch::resolve_wire(wire, current) {
            Some(e) if e > current => AuthError::FutureEpoch(wire),
            _ => AuthError::StaleEpoch(wire),
        }
    }

    /// Receive-side lookup: resolve the packet's BTH key-epoch id against
    /// the live key versions for its scope index — one lookup on a hit.
    /// Misses split into [`AuthError::StaleEpoch`] (version graced out —
    /// reject for good) and [`AuthError::FutureEpoch`] (version not yet
    /// installed — recoverable once the key-update MAD lands).
    fn receive_key(&self, bth: &Bth, deth: Option<&Deth>) -> Result<&KeyVersion, AuthError> {
        let wire = bth.key_epoch;
        match self.scope {
            KeyScope::Partition => {
                let pkey = bth.pkey;
                match self.keys.partition_by_wire(pkey, wire) {
                    Some((_, v)) => Ok(v),
                    None => Err(Self::epoch_miss(wire, self.keys.partition_current(pkey))),
                }
            }
            KeyScope::QpLevel => match deth {
                Some(d) => self
                    .keys
                    .datagram_key(d.qkey, d.src_qp)
                    .ok_or(AuthError::NoKey),
                None if bth.opcode.service.is_connected() => {
                    let qp = bth.dest_qp;
                    match self.keys.connection_by_wire(qp, wire) {
                        Some((_, v)) => Ok(v),
                        None => Err(Self::epoch_miss(wire, self.keys.connection_current(qp))),
                    }
                }
                None => Err(AuthError::NoScopeIndex),
            },
        }
    }

    /// Tag a packet while serializing it into `wire`: current key epoch
    /// into BTH `Resv7b` (under MAC coverage), selector into BTH `Resv8a`,
    /// then [`Packet::write_sealed`] — the one-shot MAC over a masked copy
    /// in `image` into the ICRC slot, the VCRC once over the written
    /// bytes. The packet's length fields must be consistent. A retransmit
    /// after a rotation re-runs this and goes out under the *new* epoch's
    /// key — the lazy re-keying recovery path.
    pub fn seal_into(
        &self,
        packet: &mut Packet,
        wire: &mut Vec<u8>,
        image: &mut Vec<u8>,
    ) -> Result<(), AuthError> {
        let (epoch, version) = self.send_key(&packet.bth, packet.deth.as_ref())?;
        let mac = self.mac(version);
        packet.bth.key_epoch = epoch.wire_id();
        packet.bth.resv8a = self.algorithm.selector();
        let nonce = Self::nonce(packet);
        packet.write_sealed(wire, image, |masked| mac.tag32(nonce, masked));
        Ok(())
    }

    /// Verify a received view whose receiver requires a tag: the
    /// admission rule (module docs) with this authenticator. `image` is the
    /// caller's scratch for the masked image.
    pub fn verify_view(&self, view: &WireView, image: &mut Vec<u8>) -> Result<(), AuthError> {
        admission(Some(self), true, view, image)
    }

    /// The MAC half of admission, for a view carrying this
    /// authenticator's selector: recompute the MAC under the
    /// packet-indexed secret over the masked image built in `image` and
    /// compare it with the stored tag.
    fn verify_tag(&self, view: &WireView, image: &mut Vec<u8>) -> Result<(), AuthError> {
        let version = self.receive_key(&view.bth, view.deth.as_ref())?;
        view.masked_image_into(image);
        let nonce = Self::nonce_of(view.lrh.slid, view.bth.psn);
        if self.mac(version).verify(nonce, image, view.icrc) {
            Ok(())
        } else {
            Err(AuthError::BadTag)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_mgmt::keymgmt::SecretKey;
    use ib_packet::{Lid, OpCode, PKey, PacketBuilder, Psn, QKey, Qpn};

    fn ud_packet(pkey: PKey, qkey: QKey, src_qp: Qpn, psn: u32, payload: &[u8]) -> Packet {
        PacketBuilder::new(OpCode::UD_SEND_ONLY)
            .slid(Lid(1))
            .dlid(Lid(2))
            .pkey(pkey)
            .psn(Psn(psn))
            .qkey(qkey, src_qp)
            .payload(payload.to_vec())
            .build()
    }

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

    fn partition_pair() -> (Authenticator, Authenticator, PKey, SecretKey) {
        let pkey = PKey(0x8001);
        let secret = SecretKey::from_seed(42);
        let mut sender = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition);
        sender.keys.install_partition_secret(pkey, secret);
        let mut receiver = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition);
        receiver.keys.install_partition_secret(pkey, secret);
        (sender, receiver, pkey, secret)
    }

    #[test]
    fn partition_level_roundtrip() {
        let (sender, receiver, pkey, _) = partition_pair();
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 100, b"authenticated payload");
        tag(&sender, &mut pkt).unwrap();
        assert_eq!(pkt.bth.resv8a, AuthAlgorithm::Umac32.selector());
        assert!(pkt.vcrc_ok(), "tagging refreshes the VCRC");
        verify(&receiver, &pkt).unwrap();
    }

    #[test]
    fn wire_roundtrip_preserves_tag() {
        let (sender, receiver, pkey, _) = partition_pair();
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 5, b"over the wire");
        tag(&sender, &mut pkt).unwrap();
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        verify(&receiver, &parsed).unwrap();
    }

    #[test]
    fn payload_tamper_detected() {
        let (sender, receiver, pkey, _) = partition_pair();
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 5, b"original payload");
        tag(&sender, &mut pkt).unwrap();
        pkt.payload[0] ^= 1;
        pkt.vcrc = pkt.compute_vcrc(); // attacker can fix the plain CRC…
        assert_eq!(verify(&receiver, &pkt), Err(AuthError::BadTag));
    }

    #[test]
    fn stolen_pkey_without_secret_fails() {
        // Table 3's P_Key row: the attacker captured the P_Key and forges a
        // packet. Without the partition secret, tagging is impossible and a
        // plain-ICRC packet is rejected once policy requires auth — here we
        // check the receiver simply cannot verify an unkeyed forgery.
        let (_, receiver, pkey, _) = partition_pair();
        let mut attacker = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition);
        let forged_secret = SecretKey::from_seed(999); // guess
        attacker.keys.install_partition_secret(pkey, forged_secret);
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 8, b"forged with stolen P_Key");
        tag(&attacker, &mut pkt).unwrap();
        assert_eq!(verify(&receiver, &pkt), Err(AuthError::BadTag));
    }

    #[test]
    fn pkey_swap_detected_because_covered() {
        let (sender, receiver, pkey, secret) = partition_pair();
        let other = PKey(0x8002);
        // Receiver also belongs to the other partition with the same secret
        // (worst case for detection).
        let mut receiver = receiver;
        receiver.keys.install_partition_secret(other, secret);
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 5, b"partition I data");
        tag(&sender, &mut pkt).unwrap();
        pkt.bth.pkey = other; // in-flight partition swap
        pkt.vcrc = pkt.compute_vcrc();
        assert_eq!(verify(&receiver, &pkt), Err(AuthError::BadTag));
    }

    #[test]
    fn replayed_psn_changes_tag() {
        let (sender, _, pkey, _) = partition_pair();
        let mut p1 = ud_packet(pkey, QKey(7), Qpn(3), 5, b"same bytes");
        let mut p2 = ud_packet(pkey, QKey(7), Qpn(3), 6, b"same bytes");
        tag(&sender, &mut p1).unwrap();
        tag(&sender, &mut p2).unwrap();
        assert_ne!(p1.icrc, p2.icrc, "PSN is the nonce: tags must differ");
    }

    /// Selector 0 is plain ICRC where no tag is required and refused where
    /// one is; the verify door always requires one.
    #[test]
    fn selector_zero_is_plain_icrc() {
        let (_, receiver, pkey, _) = partition_pair();
        let pkt = ud_packet(pkey, QKey(7), Qpn(3), 5, b"legacy packet");
        let mut corrupted = pkt.clone();
        corrupted.payload[2] ^= 4;
        corrupted.vcrc = corrupted.compute_vcrc();
        let rule = |p: &Packet, tag_required: bool| {
            let wire = p.to_bytes();
            let view = Packet::parse_view(&wire).unwrap();
            admission(Some(&receiver), tag_required, &view, &mut Vec::new())
        };
        assert_eq!(rule(&pkt, false), Ok(()));
        assert_eq!(rule(&corrupted, false), Err(AuthError::BadIcrc));
        assert_eq!(rule(&pkt, true), Err(AuthError::AuthRequired));
        assert_eq!(verify(&receiver, &pkt), Err(AuthError::AuthRequired));
    }

    #[test]
    fn unknown_selector_rejected() {
        let (_, receiver, pkey, secret) = partition_pair();
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 5, b"x");
        pkt.set_auth_tag(0x77, 0);
        assert_eq!(
            verify(&receiver, &pkt),
            Err(AuthError::UnknownSelector(0x77))
        );
        // A registered algorithm other than the receiver's, under the
        // receiver's own secret: the sender does not pick the MAC.
        let mut md5 = Authenticator::new(AuthAlgorithm::HmacMd5, KeyScope::Partition);
        md5.keys.install_partition_secret(pkey, secret);
        tag(&md5, &mut pkt).unwrap();
        let selector = AuthAlgorithm::HmacMd5.selector();
        assert_eq!(
            verify(&receiver, &pkt),
            Err(AuthError::UnknownSelector(selector))
        );
        assert_eq!(receiver.keys.keyed_macs(), 0, "nothing keyed for it");
        assert_eq!(receiver.derivations(), 0);
    }

    #[test]
    fn missing_key_is_nokey() {
        let (sender, _, pkey, _) = partition_pair();
        let receiver = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition);
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 5, b"x");
        tag(&sender, &mut pkt).unwrap();
        assert_eq!(verify(&receiver, &pkt), Err(AuthError::NoKey));
    }

    #[test]
    fn qp_level_datagram_scope() {
        let secret = SecretKey::from_seed(7);
        let qkey = QKey(0x2000);
        let src_qp = Qpn(4);
        let mut sender = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::QpLevel);
        sender.keys.install_datagram_secret(qkey, src_qp, secret);
        let mut receiver = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::QpLevel);
        receiver.keys.install_datagram_secret(qkey, src_qp, secret);

        let mut pkt = ud_packet(PKey(0x8001), qkey, src_qp, 9, b"qp-scoped");
        tag(&sender, &mut pkt).unwrap();
        verify(&receiver, &pkt).unwrap();

        // A different source QP using the same Q_Key doesn't verify —
        // that's the Figure 3 (Q_Key, src QP) index working.
        let mut other = ud_packet(PKey(0x8001), qkey, Qpn(5), 9, b"qp-scoped");
        assert_eq!(tag(&sender, &mut other), Err(AuthError::NoKey));
    }

    #[test]
    fn qp_level_connected_scope() {
        let secret = SecretKey::from_seed(8);
        let mut sender = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::QpLevel);
        let mut receiver = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::QpLevel);
        // Both sides index by the wire-visible destination QP.
        sender.keys.install_connection_secret(Qpn(9), secret);
        receiver.keys.install_connection_secret(Qpn(9), secret);
        let mut pkt = PacketBuilder::new(OpCode::RC_SEND_ONLY)
            .slid(Lid(1))
            .dlid(Lid(2))
            .pkey(PKey(0x8001))
            .dest_qp(Qpn(9))
            .psn(Psn(33))
            .payload(b"connected".to_vec())
            .build();
        tag(&sender, &mut pkt).unwrap();
        verify(&receiver, &pkt).unwrap();
    }

    #[test]
    fn all_algorithms_roundtrip() {
        for alg in &AuthAlgorithm::ALL[1..] {
            let pkey = PKey(0x8001);
            let secret = SecretKey::from_seed(1234);
            let mut sender = Authenticator::new(*alg, KeyScope::Partition);
            sender.keys.install_partition_secret(pkey, secret);
            let mut receiver = Authenticator::new(*alg, KeyScope::Partition);
            receiver.keys.install_partition_secret(pkey, secret);
            let mut pkt = ud_packet(pkey, QKey(1), Qpn(1), 77, b"alg sweep");
            tag(&sender, &mut pkt).unwrap();
            verify(&receiver, &pkt).unwrap_or_else(|e| panic!("{alg:?}: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "absence of authentication")]
    fn icrc_is_not_an_authenticator() {
        let _ = Authenticator::new(AuthAlgorithm::Icrc, KeyScope::Partition);
    }

    #[test]
    fn epoch_lifecycle_future_grace_stale() {
        use ib_mgmt::keymgmt::KeyEpoch;
        let (old_sender, mut receiver, pkey, _) = partition_pair();
        let (mut new_sender, _, _, _) = partition_pair();

        // A packet tagged under epoch 0 before the rotation.
        let mut old_pkt = ud_packet(pkey, QKey(7), Qpn(3), 10, b"epoch 0 traffic");
        tag(&old_sender, &mut old_pkt).unwrap();
        assert_eq!(old_pkt.bth.key_epoch, 0);

        // Rotation: the sender learns epoch 1 first (lazy re-keying order
        // is per-CA) and stamps it immediately.
        let s1 = SecretKey::from_seed(4242);
        new_sender
            .keys
            .install_partition_epoch(pkey, KeyEpoch(1), s1);
        let mut new_pkt = ud_packet(pkey, QKey(7), Qpn(3), 11, b"epoch 1 traffic");
        tag(&new_sender, &mut new_pkt).unwrap();
        assert_eq!(new_pkt.bth.key_epoch, 1, "send side switches immediately");

        // Receiver hasn't installed epoch 1 yet: a *recoverable* miss.
        assert_eq!(verify(&receiver, &new_pkt), Err(AuthError::FutureEpoch(1)));

        // Key-update MAD lands: both epochs verify during the grace window.
        receiver.keys.install_partition_epoch(pkey, KeyEpoch(1), s1);
        verify(&receiver, &new_pkt).unwrap();
        verify(&receiver, &old_pkt).unwrap();

        // Grace expires: the old version is retired and its traffic is
        // rejected for good — the zero-stale-admissions property.
        receiver.keys.retire_partition_below(pkey, KeyEpoch(1));
        assert_eq!(verify(&receiver, &old_pkt), Err(AuthError::StaleEpoch(0)));
        verify(&receiver, &new_pkt).unwrap();
    }

    #[test]
    fn epoch_id_is_authenticated() {
        use ib_mgmt::keymgmt::KeyEpoch;
        let (mut sender, mut receiver, pkey, _) = partition_pair();
        let s1 = SecretKey::from_seed(777);
        sender.keys.install_partition_epoch(pkey, KeyEpoch(1), s1);
        receiver.keys.install_partition_epoch(pkey, KeyEpoch(1), s1);
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 3, b"swap my epoch");
        tag(&sender, &mut pkt).unwrap();
        // In-flight epoch downgrade: both versions are live at the
        // receiver, so the lookup succeeds — but the MAC covered the
        // original epoch id, so verification still fails.
        pkt.bth.key_epoch = 0;
        pkt.vcrc = pkt.compute_vcrc();
        assert_eq!(verify(&receiver, &pkt), Err(AuthError::BadTag));
    }

    #[test]
    fn connection_scope_epochs_rotate_too() {
        use ib_mgmt::keymgmt::KeyEpoch;
        let s0 = SecretKey::from_seed(8);
        let s1 = SecretKey::from_seed(9);
        let mut sender = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::QpLevel);
        let mut receiver = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::QpLevel);
        sender.keys.install_connection_secret(Qpn(9), s0);
        receiver.keys.install_connection_secret(Qpn(9), s0);
        sender
            .keys
            .install_connection_epoch(Qpn(9), KeyEpoch(1), s1);
        let mut pkt = PacketBuilder::new(OpCode::RC_SEND_ONLY)
            .slid(Lid(1))
            .dlid(Lid(2))
            .pkey(PKey(0x8001))
            .dest_qp(Qpn(9))
            .psn(Psn(33))
            .payload(b"connected rotation".to_vec())
            .build();
        tag(&sender, &mut pkt).unwrap();
        assert_eq!(pkt.bth.key_epoch, 1);
        assert_eq!(verify(&receiver, &pkt), Err(AuthError::FutureEpoch(1)));
        receiver
            .keys
            .install_connection_epoch(Qpn(9), KeyEpoch(1), s1);
        verify(&receiver, &pkt).unwrap();
    }
}
