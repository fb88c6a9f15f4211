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

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use ib_crypto::mac::{AnyMac, AuthAlgorithm};
use ib_mgmt::keymgmt::{KeyEpoch, NodeKeyTable, SecretKey};
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

/// A keyed MAC's identity: the same pair always derives the same MAC.
type MacKey = (AuthAlgorithm, SecretKey);

/// One CA node's keyed MACs, shared through an `Rc` by every
/// [`Authenticator`] on the node. Deriving an [`AnyMac`] runs the AES key
/// schedule (and, for UMAC, the ~1 KiB KDF, ≈ 3 µs); the paper keys a
/// whole CA with one partition secret (§4.2), so every channel on a node
/// needs the same MAC and the node derives it once. The store is a memo
/// of a deterministic function: sharing changes no tag and no key's
/// lifetime, which stays with each channel's own key table. It holds a
/// MAC only while some authenticator's cache does: entries nobody else
/// references are dropped when a channel retires a key version and before
/// the store grows.
#[derive(Default)]
pub struct MacStore {
    macs: RefCell<Vec<(MacKey, Rc<AnyMac>)>>,
    /// `AnyMac::new` calls made through this store.
    derivations: Cell<u64>,
}

impl MacStore {
    /// The keyed MAC for `key`, derived on its first request.
    fn mac(&self, key: MacKey) -> Rc<AnyMac> {
        let mut macs = self.macs.borrow_mut();
        if let Some((_, mac)) = macs.iter().find(|(k, _)| *k == key) {
            return Rc::clone(mac);
        }
        Self::drop_unheld(&mut macs);
        self.derivations.set(self.derivations.get() + 1);
        let mac = Rc::new(AnyMac::new(key.0, &key.1 .0));
        macs.push((key, Rc::clone(&mac)));
        mac
    }

    /// Drop every MAC no authenticator's cache holds any more.
    fn release(&self) {
        Self::drop_unheld(&mut self.macs.borrow_mut());
    }

    fn drop_unheld(macs: &mut Vec<(MacKey, Rc<AnyMac>)>) {
        macs.retain(|(_, mac)| Rc::strong_count(mac) > 1);
    }

    /// Keyed MACs derived through this store so far.
    pub fn derivations(&self) -> u64 {
        self.derivations.get()
    }

    /// Whether the store holds the keyed MAC for `(algorithm, secret)`.
    #[cfg(test)]
    pub(crate) fn holds(&self, algorithm: AuthAlgorithm, secret: SecretKey) -> bool {
        self.macs
            .borrow()
            .iter()
            .any(|(k, _)| *k == (algorithm, secret))
    }
}

/// One channel's authentication engine: a key table, the configured
/// algorithm and scope, and the keyed MACs its live key versions need,
/// drawn from its node's [`MacStore`].
pub struct Authenticator {
    /// This channel's secrets (installed by the key-management flows).
    pub keys: NodeKeyTable,
    algorithm: AuthAlgorithm,
    scope: KeyScope,
    /// This channel's keyed MACs, searched per packet without touching the
    /// node's store. Keyed by `(algorithm, secret)` so secret rotation
    /// naturally misses; a miss asks `node`, which derives only
    /// if no other authenticator on the node has. Entries are only ever
    /// added for secrets in `keys`, and [`Self::retire_partition_below`]
    /// drops those whose secret has left it, so the cache is bounded by
    /// the *live* key versions, not by how many rotations the channel has
    /// seen. A `RefCell` keeps tagging and verification callable through
    /// `&self` (nothing here is shared across threads).
    mac_cache: RefCell<Vec<(MacKey, Rc<AnyMac>)>>,
    /// The node's shared keyed MACs.
    node: Rc<MacStore>,
}

impl Authenticator {
    /// An authenticator using `algorithm` and `scope` with an empty key
    /// table, alone on a node of its own.
    pub fn new(algorithm: AuthAlgorithm, scope: KeyScope) -> Self {
        Self::on_node(algorithm, scope, &Rc::default())
    }

    /// [`Self::new`] on the node whose keyed MACs `node` holds.
    pub(crate) fn on_node(algorithm: AuthAlgorithm, scope: KeyScope, node: &Rc<MacStore>) -> Self {
        assert!(
            algorithm.is_authenticating(),
            "selector 0 (plain ICRC) is the absence of authentication"
        );
        Authenticator {
            keys: NodeKeyTable::new(),
            algorithm,
            scope,
            mac_cache: RefCell::new(Vec::new()),
            node: Rc::clone(node),
        }
    }

    /// Retire partition key versions older than `epoch` (grace expiry)
    /// and evict every cached keyed MAC whose secret is no longer in the
    /// key table; the node's store then drops those no other channel
    /// holds, so a ~1.2 KiB keyed UMAC per rotation does not stay behind.
    /// Runs on the (rare) retirement path so tagging and verification pay
    /// nothing.
    pub(crate) fn retire_partition_below(&mut self, pkey: PKey, epoch: KeyEpoch) {
        self.keys.retire_partition_below(pkey, epoch);
        let keys = &self.keys;
        self.mac_cache
            .get_mut()
            .retain(|((_, secret), _)| keys.holds_secret(secret));
        self.node.release();
    }

    /// Keyed MACs currently cached (memory accounting).
    pub(crate) fn cached_macs(&self) -> usize {
        self.mac_cache.borrow().len()
    }

    /// The MAC nonce for a packet (see module docs).
    pub fn nonce(packet: &Packet) -> u64 {
        Self::nonce_of(packet.lrh.slid, packet.bth.psn)
    }

    /// The MAC nonce from the two fields it is built of.
    fn nonce_of(slid: Lid, psn: Psn) -> u64 {
        ((slid.0 as u64) << 24) | psn.0 as u64
    }

    /// Send side, one key-table lookup: the *current* `(epoch, secret)`
    /// for the packet's scope index. The index is derived purely from
    /// header fields, so sender and receiver agree. Datagram secrets are
    /// minted fresh per Q_Key request, so they stay at epoch 0.
    fn send_key(&self, bth: &Bth, deth: Option<&Deth>) -> Result<(KeyEpoch, SecretKey), AuthError> {
        match self.scope {
            KeyScope::Partition => self.keys.partition_current(bth.pkey),
            KeyScope::QpLevel => match deth {
                Some(d) => self
                    .keys
                    .datagram_secret(d.qkey, d.src_qp)
                    .map(|s| (KeyEpoch::ZERO, s)),
                None if bth.opcode.service.is_connected() => {
                    self.keys.connection_current(bth.dest_qp)
                }
                None => return Err(AuthError::NoScopeIndex),
            },
        }
        .ok_or(AuthError::NoKey)
    }

    /// Classify a wire epoch id that matched no live key version.
    fn epoch_miss(wire: u8, current: Option<(KeyEpoch, SecretKey)>) -> AuthError {
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
    fn receive_key(&self, bth: &Bth, deth: Option<&Deth>) -> Result<SecretKey, AuthError> {
        let wire = bth.key_epoch;
        match self.scope {
            KeyScope::Partition => {
                let pkey = bth.pkey;
                match self.keys.partition_secret_by_wire(pkey, wire) {
                    Some((_, s)) => Ok(s),
                    None => Err(Self::epoch_miss(wire, self.keys.partition_current(pkey))),
                }
            }
            KeyScope::QpLevel => match deth {
                Some(d) => self
                    .keys
                    .datagram_secret(d.qkey, d.src_qp)
                    .ok_or(AuthError::NoKey),
                None if bth.opcode.service.is_connected() => {
                    let qp = bth.dest_qp;
                    match self.keys.connection_secret_by_wire(qp, wire) {
                        Some((_, s)) => Ok(s),
                        None => Err(Self::epoch_miss(wire, self.keys.connection_current(qp))),
                    }
                }
                None => Err(AuthError::NoScopeIndex),
            },
        }
    }

    /// Run `f` with the cached keyed MAC of this authenticator's
    /// algorithm under `secret`, fetching it from the node's store on
    /// first use.
    fn with_mac<R>(&self, secret: SecretKey, f: impl FnOnce(&AnyMac) -> R) -> R {
        let key = (self.algorithm, secret);
        let mut cache = self.mac_cache.borrow_mut();
        let idx = match cache.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                cache.push((key, self.node.mac(key)));
                cache.len() - 1
            }
        };
        f(&cache[idx].1)
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
        let (epoch, secret) = self.send_key(&packet.bth, packet.deth.as_ref())?;
        packet.bth.key_epoch = epoch.wire_id();
        packet.bth.resv8a = self.algorithm.selector();
        let nonce = Self::nonce(packet);
        self.with_mac(secret, |mac| {
            packet.write_sealed(wire, image, |masked| mac.tag32(nonce, masked));
        });
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
        let secret = self.receive_key(&view.bth, view.deth.as_ref())?;
        view.masked_image_into(image);
        let nonce = Self::nonce_of(view.lrh.slid, view.bth.psn);
        if self.with_mac(secret, |mac| mac.verify(nonce, image, view.icrc)) {
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
        assert_eq!(receiver.cached_macs(), 0, "nothing keyed for it");
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
