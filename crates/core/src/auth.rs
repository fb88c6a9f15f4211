//! The ICRC-as-MAC authentication layer (§5 of the paper), operating on
//! real [`ib_packet::Packet`]s.
//!
//! Tagging: compute a 32-bit MAC over exactly the bytes the ICRC covers
//! (invariant fields, variant fields masked), store it in the ICRC slot,
//! and put the algorithm selector in BTH `Resv8a`. The MAC runs one-shot
//! over one contiguous masked image, never streamed slice by slice: a
//! masked copy of the freshly written wire bytes on send
//! ([`Packet::write_sealed`]), of the checked received bytes on receive
//! ([`WireView::masked_image_into`]).
//! Verification reverses this. Selector 0 falls back to the plain CRC-32
//! check, which is what makes the scheme wire-compatible with
//! non-upgraded IBA gear.
//!
//! The MAC nonce is `(SLID << 24) | PSN`: the PSN gives per-flow
//! freshness, the SLID disambiguates senders sharing a partition secret
//! (partition-level keys are shared by every QP in the partition — §4.2).

use std::cell::RefCell;
use std::fmt;

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
    /// BTH selector byte names no registered algorithm.
    UnknownSelector(u8),
    /// No secret key on file for this packet's scope index — for a
    /// receiver this is indistinguishable from a forgery by an outsider.
    NoKey,
    /// Tag mismatch: forged, corrupted, or keyed differently.
    BadTag,
    /// Packet uses plain ICRC (selector 0) and the CRC check failed.
    BadIcrc,
    /// Policy demands authentication for this packet but it carries plain
    /// ICRC.
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
            AuthError::UnknownSelector(s) => write!(f, "unknown auth selector {s}"),
            AuthError::NoKey => write!(f, "no secret key for this packet's scope"),
            AuthError::BadTag => write!(f, "authentication tag mismatch"),
            AuthError::BadIcrc => write!(f, "ICRC check failed"),
            AuthError::AuthRequired => write!(f, "policy requires an authenticated packet"),
            AuthError::NoScopeIndex => write!(f, "packet carries no usable key index"),
            AuthError::StaleEpoch(e) => write!(f, "key epoch {e} is past its grace window"),
            AuthError::FutureEpoch(e) => write!(f, "key epoch {e} is not yet installed"),
        }
    }
}

impl std::error::Error for AuthError {}

/// The plain-ICRC check over a masked image (selector 0, and every packet
/// of a channel that does not authenticate).
pub(crate) fn check_icrc(image: &[u8], icrc: u32) -> Result<(), AuthError> {
    if AnyMac::Icrc.tag32(0, image) == icrc {
        Ok(())
    } else {
        Err(AuthError::BadIcrc)
    }
}

/// Per-node authentication engine: a key table plus the configured
/// algorithm and scope.
pub struct Authenticator {
    /// This node's secrets (installed by the key-management flows).
    pub keys: NodeKeyTable,
    algorithm: AuthAlgorithm,
    scope: KeyScope,
    /// Keyed-MAC cache: constructing an [`AnyMac`] runs the AES key
    /// schedule (and, for UMAC, the ~1 KiB KDF) — far too expensive to
    /// redo per packet. Keyed by `(algorithm, secret)` so secret rotation
    /// naturally misses. Entries are only ever built for secrets in
    /// `keys`, and [`Self::retire_partition_below`] drops those whose
    /// secret has left it, so growth is bounded by the *live* key
    /// versions, not by how many rotations the node has seen. A
    /// `RefCell` keeps tagging and verification callable through `&self`
    /// (the engine is per-node, never shared across threads).
    mac_cache: RefCell<Vec<((AuthAlgorithm, SecretKey), AnyMac)>>,
    /// Wire and masked-image buffers of the `&Packet` entry points
    /// ([`Self::tag_packet`], [`Self::verify_packet`]); capacity retained.
    /// A channel passes its own.
    wire: RefCell<Vec<u8>>,
    image: RefCell<Vec<u8>>,
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
            mac_cache: RefCell::new(Vec::new()),
            wire: RefCell::new(Vec::new()),
            image: RefCell::new(Vec::new()),
        }
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> AuthAlgorithm {
        self.algorithm
    }

    /// The configured key scope.
    pub fn scope(&self) -> KeyScope {
        self.scope
    }

    /// Retire partition key versions older than `epoch` (grace expiry)
    /// and evict every cached keyed MAC whose secret is no longer in the
    /// key table — a ~1.2 KiB keyed UMAC per rotation otherwise stays
    /// behind forever and lengthens the cache search. Runs on
    /// the (rare) retirement path so tagging and verification pay nothing.
    pub fn retire_partition_below(&mut self, pkey: PKey, epoch: KeyEpoch) {
        self.keys.retire_partition_below(pkey, epoch);
        let keys = &self.keys;
        self.mac_cache
            .get_mut()
            .retain(|((_, secret), _)| keys.holds_secret(secret));
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

    /// Run `f` with the cached keyed MAC for `(algorithm, secret)`,
    /// constructing and caching it on first use.
    fn with_mac<R>(
        &self,
        algorithm: AuthAlgorithm,
        secret: SecretKey,
        f: impl FnOnce(&AnyMac) -> R,
    ) -> R {
        let mut cache = self.mac_cache.borrow_mut();
        let idx = match cache.iter().position(|(k, _)| *k == (algorithm, secret)) {
            Some(i) => i,
            None => {
                cache.push(((algorithm, secret), AnyMac::new(algorithm, &secret.0)));
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
        self.with_mac(self.algorithm, secret, |mac| {
            packet.write_sealed(wire, image, |masked| mac.tag32(nonce, masked));
        });
        Ok(())
    }

    /// [`Self::seal_into`] on the authenticator's own buffers: the packet
    /// comes back tagged, VCRC refreshed.
    pub fn tag_packet(&self, packet: &mut Packet) -> Result<(), AuthError> {
        self.seal_into(
            packet,
            &mut self.wire.borrow_mut(),
            &mut self.image.borrow_mut(),
        )
    }

    /// Verify `tag` over a contiguous masked `image` whose header fields
    /// are `bth` / `deth` — the MAC half of every admission.
    ///
    /// * Selector 0 → plain ICRC check (compatibility mode).
    /// * Known selector → recompute the MAC under the packet-indexed secret
    ///   and compare with the stored tag.
    fn verify_image(
        &self,
        bth: &Bth,
        deth: Option<&Deth>,
        nonce: u64,
        image: &[u8],
        tag: u32,
    ) -> Result<(), AuthError> {
        let selector = bth.resv8a;
        let algorithm =
            AuthAlgorithm::from_selector(selector).ok_or(AuthError::UnknownSelector(selector))?;
        if algorithm == AuthAlgorithm::Icrc {
            return check_icrc(image, tag);
        }
        let secret = self.receive_key(bth, deth)?;
        if self.with_mac(algorithm, secret, |mac| mac.verify(nonce, image, tag)) {
            Ok(())
        } else {
            Err(AuthError::BadTag)
        }
    }

    /// Verify a received view: the MAC (or, under selector 0, the plain
    /// CRC-32) over its masked image, built in `image` (the caller's
    /// scratch). The view's VCRC was checked when it was parsed.
    pub fn verify_view(&self, view: &WireView, image: &mut Vec<u8>) -> Result<(), AuthError> {
        view.masked_image_into(image);
        let nonce = Self::nonce_of(view.lrh.slid, view.bth.psn);
        self.verify_image(&view.bth, view.deth.as_ref(), nonce, image, view.icrc)
    }

    /// Verify an in-memory packet the same way, over its masked image.
    /// The VCRC is not this layer's concern.
    pub fn verify_packet(&self, packet: &Packet) -> Result<(), AuthError> {
        let mut image = self.image.borrow_mut();
        packet.icrc_message_into(&mut image);
        self.verify_image(
            &packet.bth,
            packet.deth.as_ref(),
            Self::nonce(packet),
            &image,
            packet.icrc,
        )
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
        sender.tag_packet(&mut pkt).unwrap();
        assert_eq!(pkt.bth.resv8a, AuthAlgorithm::Umac32.selector());
        assert!(pkt.vcrc_ok(), "tagging refreshes the VCRC");
        receiver.verify_packet(&pkt).unwrap();
    }

    #[test]
    fn wire_roundtrip_preserves_tag() {
        let (sender, receiver, pkey, _) = partition_pair();
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 5, b"over the wire");
        sender.tag_packet(&mut pkt).unwrap();
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        receiver.verify_packet(&parsed).unwrap();
    }

    #[test]
    fn payload_tamper_detected() {
        let (sender, receiver, pkey, _) = partition_pair();
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 5, b"original payload");
        sender.tag_packet(&mut pkt).unwrap();
        pkt.payload[0] ^= 1;
        pkt.vcrc = pkt.compute_vcrc(); // attacker can fix the plain CRC…
        assert_eq!(receiver.verify_packet(&pkt), Err(AuthError::BadTag));
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
        attacker.tag_packet(&mut pkt).unwrap();
        assert_eq!(receiver.verify_packet(&pkt), Err(AuthError::BadTag));
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
        sender.tag_packet(&mut pkt).unwrap();
        pkt.bth.pkey = other; // in-flight partition swap
        pkt.vcrc = pkt.compute_vcrc();
        assert_eq!(receiver.verify_packet(&pkt), Err(AuthError::BadTag));
    }

    #[test]
    fn replayed_psn_changes_tag() {
        let (sender, _, pkey, _) = partition_pair();
        let mut p1 = ud_packet(pkey, QKey(7), Qpn(3), 5, b"same bytes");
        let mut p2 = ud_packet(pkey, QKey(7), Qpn(3), 6, b"same bytes");
        sender.tag_packet(&mut p1).unwrap();
        sender.tag_packet(&mut p2).unwrap();
        assert_ne!(p1.icrc, p2.icrc, "PSN is the nonce: tags must differ");
    }

    #[test]
    fn selector_zero_is_plain_icrc() {
        let (_, receiver, pkey, _) = partition_pair();
        let pkt = ud_packet(pkey, QKey(7), Qpn(3), 5, b"legacy packet");
        // Built by the builder in plain-ICRC mode: verifies as legacy.
        receiver.verify_packet(&pkt).unwrap();
        let mut corrupted = pkt.clone();
        corrupted.payload[2] ^= 4;
        corrupted.vcrc = corrupted.compute_vcrc();
        assert_eq!(receiver.verify_packet(&corrupted), Err(AuthError::BadIcrc));
    }

    #[test]
    fn unknown_selector_rejected() {
        let (_, receiver, pkey, _) = partition_pair();
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 5, b"x");
        pkt.set_auth_tag(0x77, 0);
        assert_eq!(
            receiver.verify_packet(&pkt),
            Err(AuthError::UnknownSelector(0x77))
        );
    }

    #[test]
    fn missing_key_is_nokey() {
        let (sender, _, pkey, _) = partition_pair();
        let receiver = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition);
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 5, b"x");
        sender.tag_packet(&mut pkt).unwrap();
        assert_eq!(receiver.verify_packet(&pkt), Err(AuthError::NoKey));
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
        sender.tag_packet(&mut pkt).unwrap();
        receiver.verify_packet(&pkt).unwrap();

        // A different source QP using the same Q_Key doesn't verify —
        // that's the Figure 3 (Q_Key, src QP) index working.
        let mut other = ud_packet(PKey(0x8001), qkey, Qpn(5), 9, b"qp-scoped");
        assert_eq!(sender.tag_packet(&mut other), Err(AuthError::NoKey));
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
        sender.tag_packet(&mut pkt).unwrap();
        receiver.verify_packet(&pkt).unwrap();
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
            sender.tag_packet(&mut pkt).unwrap();
            receiver
                .verify_packet(&pkt)
                .unwrap_or_else(|e| panic!("{alg:?}: {e}"));
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
        old_sender.tag_packet(&mut old_pkt).unwrap();
        assert_eq!(old_pkt.bth.key_epoch, 0);

        // Rotation: the sender learns epoch 1 first (lazy re-keying order
        // is per-CA) and stamps it immediately.
        let s1 = SecretKey::from_seed(4242);
        new_sender
            .keys
            .install_partition_epoch(pkey, KeyEpoch(1), s1);
        let mut new_pkt = ud_packet(pkey, QKey(7), Qpn(3), 11, b"epoch 1 traffic");
        new_sender.tag_packet(&mut new_pkt).unwrap();
        assert_eq!(new_pkt.bth.key_epoch, 1, "send side switches immediately");

        // Receiver hasn't installed epoch 1 yet: a *recoverable* miss.
        assert_eq!(
            receiver.verify_packet(&new_pkt),
            Err(AuthError::FutureEpoch(1))
        );

        // Key-update MAD lands: both epochs verify during the grace window.
        receiver.keys.install_partition_epoch(pkey, KeyEpoch(1), s1);
        receiver.verify_packet(&new_pkt).unwrap();
        receiver.verify_packet(&old_pkt).unwrap();

        // Grace expires: the old version is retired and its traffic is
        // rejected for good — the zero-stale-admissions property.
        receiver.keys.retire_partition_below(pkey, KeyEpoch(1));
        assert_eq!(
            receiver.verify_packet(&old_pkt),
            Err(AuthError::StaleEpoch(0))
        );
        receiver.verify_packet(&new_pkt).unwrap();
    }

    #[test]
    fn epoch_id_is_authenticated() {
        use ib_mgmt::keymgmt::KeyEpoch;
        let (mut sender, mut receiver, pkey, _) = partition_pair();
        let s1 = SecretKey::from_seed(777);
        sender.keys.install_partition_epoch(pkey, KeyEpoch(1), s1);
        receiver.keys.install_partition_epoch(pkey, KeyEpoch(1), s1);
        let mut pkt = ud_packet(pkey, QKey(7), Qpn(3), 3, b"swap my epoch");
        sender.tag_packet(&mut pkt).unwrap();
        // In-flight epoch downgrade: both versions are live at the
        // receiver, so the lookup succeeds — but the MAC covered the
        // original epoch id, so verification still fails.
        pkt.bth.key_epoch = 0;
        pkt.vcrc = pkt.compute_vcrc();
        assert_eq!(receiver.verify_packet(&pkt), Err(AuthError::BadTag));
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
        sender.tag_packet(&mut pkt).unwrap();
        assert_eq!(pkt.bth.key_epoch, 1);
        assert_eq!(receiver.verify_packet(&pkt), Err(AuthError::FutureEpoch(1)));
        receiver
            .keys
            .install_connection_epoch(Qpn(9), KeyEpoch(1), s1);
        receiver.verify_packet(&pkt).unwrap();
    }
}
