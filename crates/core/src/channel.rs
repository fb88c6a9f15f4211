//! A secure receive channel: authentication + replay defense in front of
//! a *reliable* transport.
//!
//! ## The §7 subtlety, made explicit
//!
//! The paper's replay defense says "the replayed packets will be found
//! illegal" — but a reliable transport *legitimately* re-sends packets.
//! A retransmitted packet carries its **original PSN** (IBA §9.7.5.1.1),
//! so it is byte-identical — same nonce, same MAC tag — to an attacker's
//! replay of a captured packet. No content check can tell them apart.
//! What *can* tell them apart is delivery state:
//!
//! * retransmit of a **lost** packet → that PSN was never delivered →
//!   the window says [`ReplayVerdict::Fresh`] → deliver it;
//! * retransmit whose **ACK was lost** → the PSN *was* delivered → the
//!   window says [`ReplayVerdict::Duplicate`] → don't deliver again, but
//!   the transport may re-ACK (ACKs are cumulative and idempotent);
//! * attacker replay of a delivered packet → indistinguishable from the
//!   previous case, and handled identically: suppressed, harmless.
//!
//! The replay window therefore gates **application delivery**, not
//! transport bookkeeping. The one obligation this places on the transport
//! is window sizing: its in-flight window must not exceed the replay
//! window ([`SecureChannel::window_depth`]), or a genuine retransmit could
//! age out and be rejected as [`ReplayVerdict::Stale`].

use std::cell::RefCell;
use std::fmt;

use ib_crypto::mac::{AnyMac, AuthAlgorithm};
use ib_mgmt::keymgmt::{KeyEpoch, SecretKey};
use ib_packet::types::PKey;
use ib_packet::{Packet, WireView};

use crate::auth::{check_icrc, AuthError, Authenticator, KeyScope};
use crate::replay::{ReplayVerdict, ReplayWindow};

/// Security posture of a channel — the three arms of the fig_replay
/// experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelSecurity {
    /// Plain ICRC only: integrity against line noise, nothing against an
    /// adversary.
    NoAuth,
    /// ICRC-as-MAC (§5): forgery is out, but a captured packet replays
    /// verbatim — tag, nonce and all.
    Auth,
    /// MAC plus the §7 sliding replay window: replays of delivered PSNs
    /// are suppressed.
    AuthReplay,
}

impl ChannelSecurity {
    /// All arms, in experiment order.
    pub const ALL: [ChannelSecurity; 3] = [
        ChannelSecurity::NoAuth,
        ChannelSecurity::Auth,
        ChannelSecurity::AuthReplay,
    ];

    /// Stable string form used in JSON configs and result tables.
    pub fn label(self) -> &'static str {
        match self {
            ChannelSecurity::NoAuth => "no-auth",
            ChannelSecurity::Auth => "auth",
            ChannelSecurity::AuthReplay => "auth+replay-window",
        }
    }
}

/// Why [`SecureChannel::admit`] refused a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// VCRC failure: wire corruption (fault layer or tampering). Raised by
    /// the `&Packet` entry points, whose serialization did not parse; a
    /// [`WireView`] has passed this check already.
    BadVcrc,
    /// Authentication failure (forged, unkeyed, or corrupted inside the
    /// VCRC's blind spot).
    Auth(AuthError),
    /// The PSN fell off the replay window — too old to judge, rejected
    /// conservatively.
    StalePsn,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::BadVcrc => write!(f, "VCRC check failed"),
            ChannelError::Auth(e) => write!(f, "authentication failed: {e}"),
            ChannelError::StalePsn => write!(f, "PSN older than the replay window"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// What an admitted packet is allowed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Never delivered: hand the payload to the application.
    Fresh,
    /// Already delivered (lost-ACK retransmit or attacker replay — the
    /// receiver cannot and need not distinguish): suppress delivery, but
    /// re-ACKing is safe.
    Duplicate,
}

/// Admission counters (the fig_replay per-arm metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Packets admitted for first-time delivery.
    pub fresh: u64,
    /// Already-delivered PSNs suppressed (replays and lost-ACK retransmits).
    pub duplicates: u64,
    /// Packets failing VCRC (wire corruption).
    pub rejected_vcrc: u64,
    /// Packets failing MAC/ICRC verification.
    pub rejected_auth: u64,
    /// Packets older than the replay window.
    pub rejected_stale: u64,
    /// Packets tagged under a key epoch whose grace window has expired —
    /// the key-rotation analogue of `rejected_stale`.
    pub rejected_stale_epoch: u64,
    /// Packets tagged under a key epoch not yet installed here (the
    /// key-update MAD is still in flight; retransmission recovers these).
    pub rejected_future_epoch: u64,
}

/// One receive direction's security state: optional authenticator,
/// optional replay window, and counters.
pub struct SecureChannel {
    security: ChannelSecurity,
    auth: Option<Authenticator>,
    window: Option<ReplayWindow>,
    /// The partition this channel authenticates under (its epoch ring's
    /// scope index).
    pkey: PKey,
    /// How long a superseded key epoch keeps verifying after the next one
    /// is installed, in the caller's clock units. 0 = hard cutover.
    epoch_grace: u64,
    /// Scheduled retirements: at `.0`, drop every version below `.1`.
    pending_retire: Vec<(u64, KeyEpoch)>,
    /// Wire buffer of the `&Packet` entry points ([`Self::seal`],
    /// [`Self::admit`]). Capacity retained, like `image`'s.
    wire: RefCell<Vec<u8>>,
    /// The masked copy of a packet's image the MAC runs over, on send and
    /// on receive. `RefCell`s because sealing goes through `&self`.
    image: RefCell<Vec<u8>>,
    /// Admission counters, readable at any time.
    pub stats: ChannelStats,
}

impl SecureChannel {
    /// A channel at `security` level for partition `pkey`, keyed with
    /// `secret` (ignored under [`ChannelSecurity::NoAuth`]); `window` is
    /// the replay-window depth for [`ChannelSecurity::AuthReplay`].
    pub fn new(security: ChannelSecurity, pkey: PKey, secret: SecretKey, window: u32) -> Self {
        let auth = match security {
            ChannelSecurity::NoAuth => None,
            ChannelSecurity::Auth | ChannelSecurity::AuthReplay => {
                let mut a = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition);
                a.keys.install_partition_secret(pkey, secret);
                Some(a)
            }
        };
        let window = match security {
            ChannelSecurity::AuthReplay => Some(ReplayWindow::new(window)),
            _ => None,
        };
        SecureChannel {
            security,
            auth,
            window,
            pkey,
            epoch_grace: 0,
            pending_retire: Vec::new(),
            wire: RefCell::new(Vec::new()),
            image: RefCell::new(Vec::new()),
            stats: ChannelStats::default(),
        }
    }

    /// The configured security arm.
    pub fn security(&self) -> ChannelSecurity {
        self.security
    }

    /// Configure the rotation grace window: after a newer epoch is
    /// installed, superseded versions keep verifying for this long (in
    /// whatever clock units the caller feeds [`Self::install_epoch`] and
    /// [`Self::advance_time`]). The default, 0, is a hard cutover.
    pub fn set_epoch_grace(&mut self, grace: u64) {
        self.epoch_grace = grace;
    }

    /// The epoch the send side currently seals under.
    pub fn send_epoch(&self) -> KeyEpoch {
        self.auth
            .as_ref()
            .and_then(|a| a.keys.partition_current(self.pkey))
            .map_or(KeyEpoch::ZERO, |(epoch, _)| epoch)
    }

    /// Install a key version learned from a key-update MAD. The send side
    /// switches to the newest epoch immediately (the next [`Self::seal`]
    /// stamps it); every older version is scheduled to retire once the
    /// grace window elapses from `now`. Retirements already due at `now`
    /// run first, so a channel that carries no traffic — and is therefore
    /// never polled — while the SM keeps rotating holds a bounded ring and
    /// schedule, and ends in the state a channel polled at every instant
    /// would. No-op under [`ChannelSecurity::NoAuth`].
    pub fn install_epoch(&mut self, now: u64, epoch: KeyEpoch, secret: SecretKey) {
        self.advance_time(now);
        let Some(auth) = &mut self.auth else { return };
        let newer = auth
            .keys
            .partition_current(self.pkey)
            .is_none_or(|(cur, _)| epoch > cur);
        auth.keys.install_partition_epoch(self.pkey, epoch, secret);
        if newer {
            self.pending_retire
                .push((now.saturating_add(self.epoch_grace), epoch));
        }
    }

    /// Retire key versions whose grace window has expired by `now`,
    /// together with their cached keyed MACs. Endpoints call this from
    /// their time-advancing entry points; after it runs, traffic under a
    /// retired epoch is rejected as [`AuthError::StaleEpoch`].
    pub fn advance_time(&mut self, now: u64) {
        if self.pending_retire.is_empty() {
            return;
        }
        let Some(auth) = &mut self.auth else { return };
        self.pending_retire.retain(|&(at, below)| {
            if at <= now {
                auth.retire_partition_below(self.pkey, below);
                false
            } else {
                true
            }
        });
    }

    /// Keyed MACs this channel's authenticator has cached.
    pub fn cached_macs(&self) -> usize {
        self.auth.as_ref().map_or(0, Authenticator::cached_macs)
    }

    /// Key versions currently live (current plus any inside the grace
    /// window) — the bound [`Self::cached_macs`] must respect.
    pub fn live_key_versions(&self) -> usize {
        self.auth.as_ref().map_or(0, |a| a.keys.len())
    }

    /// Replay-window depth, if one is active. A transport stacked on this
    /// channel must keep its in-flight window within this bound so genuine
    /// retransmits never go [`ReplayVerdict::Stale`].
    pub fn window_depth(&self) -> Option<u32> {
        self.window.as_ref().map(|w| w.window())
    }

    /// Outbound side, the one seal body: serialize `packet` into `wire`
    /// and seal it ([`Packet::write_sealed`]) — the one-shot MAC under the
    /// current epoch over a masked copy of the written bytes when
    /// authenticating, the plain CRC-32 ICRC otherwise, then the VCRC once
    /// over the written bytes.
    /// The packet's length fields must be consistent (the builder's
    /// `seal()` or a template's [`Packet::seal_lengths`] both suffice).
    /// Retransmits rebuild identical bytes under the original PSN, so the
    /// tag — nonce and all — comes out identical too.
    pub fn seal_into(&self, packet: &mut Packet, wire: &mut Vec<u8>) -> Result<(), AuthError> {
        let image = &mut self.image.borrow_mut();
        match &self.auth {
            Some(auth) => auth.seal_into(packet, wire, image),
            None => {
                packet.write_sealed(wire, image, |masked| AnyMac::Icrc.tag32(0, masked));
                Ok(())
            }
        }
    }

    /// [`Self::seal_into`] with the channel's own wire buffer, for callers
    /// that want the sealed packet rather than its bytes.
    pub fn seal(&self, packet: &mut Packet) -> Result<(), AuthError> {
        self.seal_into(packet, &mut self.wire.borrow_mut())
    }

    /// The uncounted integrity check of an arrival whose VCRC
    /// [`Packet::parse_view`] already checked: the one-shot MAC (or plain
    /// ICRC) over a masked copy of the received bytes.
    fn check(&mut self, view: &WireView) -> Result<(), ChannelError> {
        let image = self.image.get_mut();
        match &self.auth {
            Some(auth) => auth.verify_view(view, image),
            // No adversarial protection, but line noise still fails the
            // plain CRC when no tag replaced it.
            None if view.bth.resv8a == 0 => {
                view.masked_image_into(image);
                check_icrc(image, view.icrc)
            }
            None => Ok(()),
        }
        .map_err(ChannelError::Auth)
    }

    /// Bump the stats counter matching an integrity rejection.
    fn count_integrity_reject(&mut self, e: ChannelError) {
        match e {
            ChannelError::BadVcrc => self.stats.rejected_vcrc += 1,
            ChannelError::Auth(AuthError::StaleEpoch(_)) => self.stats.rejected_stale_epoch += 1,
            ChannelError::Auth(AuthError::FutureEpoch(_)) => self.stats.rejected_future_epoch += 1,
            ChannelError::Auth(_) => self.stats.rejected_auth += 1,
            ChannelError::StalePsn => self.stats.rejected_stale += 1,
        }
    }

    /// Integrity/authenticity check alone, never touching the replay
    /// window. This is the ACK-path check: acknowledgments are cumulative
    /// and idempotent, so replaying an old one is harmless and they carry
    /// data-sequence PSNs that must not pollute the data window.
    pub fn verify_only(&mut self, view: &WireView) -> Result<(), ChannelError> {
        let r = self.check(view);
        if let Err(e) = r {
            self.count_integrity_reject(e);
        }
        r
    }

    /// The replay-window half of admission (the packet's integrity must
    /// already be established). Counts the delivery verdict.
    fn offer_window(&mut self, psn: u32) -> Result<Admit, ChannelError> {
        match &mut self.window {
            Some(window) => match window.offer_psn(psn) {
                ReplayVerdict::Fresh => {
                    self.stats.fresh += 1;
                    Ok(Admit::Fresh)
                }
                ReplayVerdict::Duplicate => {
                    self.stats.duplicates += 1;
                    Ok(Admit::Duplicate)
                }
                ReplayVerdict::Stale => {
                    self.stats.rejected_stale += 1;
                    Err(ChannelError::StalePsn)
                }
            },
            // Without a window every verifying packet looks first-time —
            // this is precisely how the no-window arms admit replays.
            None => {
                self.stats.fresh += 1;
                Ok(Admit::Fresh)
            }
        }
    }

    /// Inbound side, the one admission body: MAC (or plain ICRC) over the
    /// view's masked image, then the replay window. The view's VCRC was
    /// checked when it was parsed and is not checked again. Counts every
    /// outcome in [`Self::stats`].
    pub fn admit_view(&mut self, view: &WireView) -> Result<Admit, ChannelError> {
        self.verify_only(view)?;
        self.offer_window(view.bth.psn.0)
    }

    /// [`Self::admit_view`] for an in-memory packet: serialized into the
    /// channel's wire buffer and parsed back through
    /// [`Packet::parse_view`], so its VCRC is checked exactly once, like
    /// an arrival's. A serialization that does not parse counts as
    /// [`ChannelError::BadVcrc`].
    pub fn admit(&mut self, packet: &Packet) -> Result<Admit, ChannelError> {
        let mut wire = std::mem::take(self.wire.get_mut());
        packet.write_into(&mut wire);
        let r = match Packet::parse_view(&wire) {
            Ok(view) => self.admit_view(&view),
            Err(_) => {
                self.count_integrity_reject(ChannelError::BadVcrc);
                Err(ChannelError::BadVcrc)
            }
        };
        *self.wire.get_mut() = wire;
        r
    }

    /// [`Self::admit`] on each packet in order, verdicts positional in
    /// `out` (cleared first). Kept only because the frozen `benchmark/`
    /// package probes it by name; new code calls [`Self::admit`].
    pub fn admit_many<P: std::borrow::Borrow<Packet>>(
        &mut self,
        packets: &[P],
        out: &mut Vec<Result<Admit, ChannelError>>,
    ) {
        out.clear();
        out.extend(packets.iter().map(|p| self.admit(p.borrow())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_packet::types::{Lid, Psn, Qpn};
    use ib_packet::{OpCode, PacketBuilder};

    const PKEY: PKey = PKey(0x8001);

    fn rc_packet(psn: u32, payload: &[u8]) -> Packet {
        PacketBuilder::new(OpCode::RC_SEND_ONLY)
            .slid(Lid(1))
            .dlid(Lid(2))
            .pkey(PKEY)
            .dest_qp(Qpn(9))
            .psn(Psn(psn))
            .payload(payload.to_vec())
            .build()
    }

    fn pair(security: ChannelSecurity) -> (SecureChannel, SecureChannel) {
        let secret = SecretKey::from_seed(77);
        (
            SecureChannel::new(security, PKEY, secret, 64),
            SecureChannel::new(security, PKEY, secret, 64),
        )
    }

    #[test]
    fn seal_admit_roundtrip_all_arms() {
        for arm in ChannelSecurity::ALL {
            let (tx, mut rx) = pair(arm);
            let mut pkt = rc_packet(5, b"hello");
            tx.seal(&mut pkt).unwrap();
            // Admit the in-memory packet directly — no serialize/reparse
            // round trip on the verification path.
            assert_eq!(rx.admit(&pkt).unwrap(), Admit::Fresh, "{arm:?}");
            assert_eq!(rx.stats.fresh, 1);
        }
    }

    /// Regression for the old serialize-reparse round trip: a packet that
    /// crossed the wire must admit exactly like the in-memory original
    /// (same verdict, same stats), so verifying in memory loses nothing.
    #[test]
    fn parsed_from_wire_admits_identically_to_in_memory() {
        for arm in ChannelSecurity::ALL {
            let (tx, mut rx_mem) = pair(arm);
            let (_, mut rx_wire) = pair(arm);
            for psn in [0u32, 1, 2, 1] {
                let mut pkt = rc_packet(psn, b"regression");
                tx.seal(&mut pkt).unwrap();
                let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
                assert_eq!(
                    parsed, pkt,
                    "{arm:?} psn {psn}: wire round trip is lossless"
                );
                assert_eq!(
                    rx_mem.admit(&pkt),
                    rx_wire.admit(&parsed),
                    "{arm:?} psn {psn}"
                );
            }
            assert_eq!(rx_mem.stats.fresh, rx_wire.stats.fresh, "{arm:?}");
            assert_eq!(rx_mem.stats.duplicates, rx_wire.stats.duplicates, "{arm:?}");
        }
    }

    /// The tentpole distinction: replay-of-delivered suppressed, while a
    /// retransmit of a never-delivered PSN goes through.
    #[test]
    fn delivered_replay_suppressed_lost_retransmit_accepted() {
        let (tx, mut rx) = pair(ChannelSecurity::AuthReplay);
        let build = |psn: u32| {
            let mut p = rc_packet(psn, b"data");
            tx.seal(&mut p).unwrap();
            p
        };
        // PSNs 0,1,3 arrive; 2 was dropped by the fault layer.
        for psn in [0, 1, 3] {
            assert_eq!(rx.admit(&build(psn)).unwrap(), Admit::Fresh);
        }
        // Attacker replays the captured PSN-1 packet: byte-identical, MAC
        // verifies — but delivery is suppressed.
        assert_eq!(rx.admit(&build(1)).unwrap(), Admit::Duplicate);
        // Sender's go-back-N retransmits PSN 2 (original PSN, identical
        // tag): never delivered, so it is fresh.
        assert_eq!(rx.admit(&build(2)).unwrap(), Admit::Fresh);
        // And the retransmit of 3 that rides behind it: duplicate, safe to
        // re-ACK, not delivered twice.
        assert_eq!(rx.admit(&build(3)).unwrap(), Admit::Duplicate);
        assert_eq!(rx.stats.fresh, 4);
        assert_eq!(rx.stats.duplicates, 2);
    }

    /// Without a window, the same replay sails through as Fresh — the
    /// vulnerability the fig_replay no-window arms quantify.
    #[test]
    fn no_window_arms_admit_replays() {
        for arm in [ChannelSecurity::NoAuth, ChannelSecurity::Auth] {
            let (tx, mut rx) = pair(arm);
            let mut pkt = rc_packet(4, b"capture me");
            tx.seal(&mut pkt).unwrap();
            assert_eq!(rx.admit(&pkt).unwrap(), Admit::Fresh);
            assert_eq!(rx.admit(&pkt).unwrap(), Admit::Fresh, "{arm:?} replay");
            assert_eq!(rx.stats.fresh, 2);
        }
    }

    #[test]
    fn auth_arm_rejects_forgery_noauth_does_not() {
        let (tx, mut rx) = pair(ChannelSecurity::Auth);
        let mut pkt = rc_packet(1, b"legit");
        tx.seal(&mut pkt).unwrap();
        pkt.payload[0] ^= 1;
        pkt.vcrc = pkt.compute_vcrc(); // attacker repairs the variant CRC
        assert!(matches!(
            rx.admit(&pkt),
            Err(ChannelError::Auth(AuthError::BadTag))
        ));
        assert_eq!(rx.stats.rejected_auth, 1);

        // NoAuth: the attacker also repairs the plain ICRC and walks in.
        let (tx0, mut rx0) = pair(ChannelSecurity::NoAuth);
        let mut pkt = rc_packet(1, b"legit");
        tx0.seal(&mut pkt).unwrap();
        pkt.payload[0] ^= 1;
        pkt.icrc = pkt.compute_icrc();
        pkt.vcrc = pkt.compute_vcrc();
        assert_eq!(rx0.admit(&pkt).unwrap(), Admit::Fresh);
    }

    #[test]
    fn corrupted_wire_fails_vcrc() {
        let (tx, mut rx) = pair(ChannelSecurity::AuthReplay);
        let mut pkt = rc_packet(1, b"bits");
        tx.seal(&mut pkt).unwrap();
        pkt.payload[0] ^= 0x40; // VCRC not recomputed: line noise
        assert_eq!(rx.admit(&pkt), Err(ChannelError::BadVcrc));
        assert_eq!(rx.stats.rejected_vcrc, 1);
    }

    #[test]
    fn stale_psn_rejected() {
        let (tx, mut rx) = pair(ChannelSecurity::AuthReplay);
        let build = |psn: u32| {
            let mut p = rc_packet(psn, b"x");
            tx.seal(&mut p).unwrap();
            p
        };
        assert_eq!(rx.admit(&build(0)).unwrap(), Admit::Fresh);
        assert_eq!(rx.admit(&build(100)).unwrap(), Admit::Fresh);
        // PSN 0 is now 100 behind: unjudgeable.
        assert_eq!(rx.admit(&build(0)), Err(ChannelError::StalePsn));
        assert_eq!(rx.stats.rejected_stale, 1);
    }

    /// The lazy re-keying lifecycle at channel level: send side switches
    /// on install, old epoch verifies through the grace window, then is
    /// rejected — counted separately from forgeries.
    #[test]
    fn epoch_rotation_grace_window_lifecycle() {
        use ib_mgmt::keymgmt::KeyEpoch;
        let (tx, mut rx) = pair(ChannelSecurity::AuthReplay);
        let mut tx = tx;
        rx.set_epoch_grace(100);

        let mut old_pkt = rc_packet(0, b"sealed pre-rotation");
        tx.seal(&mut old_pkt).unwrap();
        assert_eq!(old_pkt.bth.key_epoch, 0);

        // Rotation at t=50: sender first (stamps epoch 1 immediately).
        let s1 = SecretKey::from_seed(1234);
        tx.install_epoch(50, KeyEpoch(1), s1);
        assert_eq!(tx.send_epoch(), KeyEpoch(1));
        let mut new_pkt = rc_packet(1, b"sealed post-rotation");
        tx.seal(&mut new_pkt).unwrap();
        assert_eq!(new_pkt.bth.key_epoch, 1);

        // Receiver still at epoch 0: future-epoch miss, recoverable.
        assert!(matches!(
            rx.admit(&new_pkt),
            Err(ChannelError::Auth(AuthError::FutureEpoch(1)))
        ));
        assert_eq!(rx.stats.rejected_future_epoch, 1);

        // Key-update lands at t=60; both epochs verify until t=160.
        rx.install_epoch(60, KeyEpoch(1), s1);
        rx.advance_time(70);
        assert_eq!(rx.admit(&new_pkt).unwrap(), Admit::Fresh);
        assert_eq!(rx.admit(&old_pkt).unwrap(), Admit::Fresh);

        // Grace expires: a held-back epoch-0 capture is dead for good.
        rx.advance_time(160);
        let mut held = rc_packet(2, b"attacker held this");
        // (sealed under epoch 0 by a pre-rotation sender)
        let (old_tx, _) = pair(ChannelSecurity::AuthReplay);
        old_tx.seal(&mut held).unwrap();
        assert!(matches!(
            rx.admit(&held),
            Err(ChannelError::Auth(AuthError::StaleEpoch(0)))
        ));
        assert_eq!(rx.stats.rejected_stale_epoch, 1);
        assert_eq!(rx.stats.rejected_auth, 0, "epoch misses counted apart");
    }

    /// Grace 0 is a hard cutover: the old epoch dies the moment time
    /// advances past the install.
    #[test]
    fn zero_grace_hard_cutover() {
        use ib_mgmt::keymgmt::KeyEpoch;
        let (tx, mut rx) = pair(ChannelSecurity::Auth);
        let mut old_pkt = rc_packet(0, b"in flight");
        tx.seal(&mut old_pkt).unwrap();
        let s1 = SecretKey::from_seed(9);
        rx.install_epoch(10, KeyEpoch(1), s1);
        rx.advance_time(10);
        assert!(matches!(
            rx.admit(&old_pkt),
            Err(ChannelError::Auth(AuthError::StaleEpoch(0)))
        ));
    }

    /// A channel that only ever hears from the SM (its flow finished; the
    /// key plane keeps rotating) is never polled: `install_epoch` alone
    /// must keep the key ring, the retirement schedule and the keyed-MAC
    /// cache bounded by the live versions, not by the rotation count.
    #[test]
    fn rotations_leave_no_keyed_macs_or_schedule_behind() {
        use ib_mgmt::keymgmt::KeyEpoch;
        let (mut tx, mut rx) = pair(ChannelSecurity::AuthReplay);
        tx.set_epoch_grace(30);
        rx.set_epoch_grace(30);
        for round in 1..=200u32 {
            let now = u64::from(round) * 100;
            let secret = SecretKey::from_seed(5000 + u64::from(round));
            tx.install_epoch(now, KeyEpoch(round), secret);
            rx.install_epoch(now, KeyEpoch(round), secret);
            // Traffic on the polled half of the rounds only; `rx` is
            // advanced explicitly, `tx` never is.
            if round % 2 == 0 {
                let mut pkt = rc_packet(round, b"keeps both caches warm");
                tx.seal(&mut pkt).unwrap();
                rx.advance_time(now + 50);
                assert_eq!(rx.admit(&pkt).unwrap(), Admit::Fresh, "round {round}");
            }
            for ch in [&tx, &rx] {
                assert!(ch.live_key_versions() <= 2, "round {round}");
                assert!(ch.cached_macs() <= ch.live_key_versions(), "round {round}");
                assert!(ch.pending_retire.len() <= 1, "round {round}");
            }
        }
        assert!(rx.cached_macs() >= 1, "the cache is still doing its job");
    }

    /// NoAuth channels ignore the whole epoch plane.
    #[test]
    fn noauth_ignores_epochs() {
        use ib_mgmt::keymgmt::KeyEpoch;
        let (tx, mut rx) = pair(ChannelSecurity::NoAuth);
        let mut pkt = rc_packet(0, b"plain");
        tx.seal(&mut pkt).unwrap();
        rx.install_epoch(0, KeyEpoch(5), SecretKey::from_seed(1));
        rx.advance_time(1_000_000);
        assert_eq!(rx.admit(&pkt).unwrap(), Admit::Fresh);
        assert_eq!(rx.send_epoch(), KeyEpoch::ZERO);
    }

    #[test]
    fn labels_round_trip_and_window_depth() {
        let labels = ChannelSecurity::ALL.map(ChannelSecurity::label);
        assert_eq!(labels, ["no-auth", "auth", "auth+replay-window"]);
        let (_, rx) = pair(ChannelSecurity::AuthReplay);
        assert_eq!(rx.window_depth(), Some(64));
        let (_, rx) = pair(ChannelSecurity::Auth);
        assert_eq!(rx.window_depth(), None);
    }
}
