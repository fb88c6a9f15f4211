//! Replay defense (§7 "More DoS Attacks … Replay attack"): "This can be
//! avoided by using timestamps or sequence numbers, referred to as nonce.
//! Consecutive packets use different nonce, so the replayed packets will be
//! found illegal."
//!
//! The PSN already serves as the MAC nonce, so a replayed packet carries a
//! *valid* tag for an *old* PSN. [`ReplayWindow`] is the receiver-side
//! anti-replay bookkeeping — an IPSec-style sliding bitmap window (RFC
//! 2401 appendix C style), sized for out-of-order arrival in a multipath
//! fabric.

/// Sliding-window replay tracker over 24-bit PSNs (tracked internally as
/// monotonically increasing u64 to sidestep wrap ambiguity; callers feed
/// [`ReplayWindow::accept`] the unwrapped sequence — see
/// `ReplayWindow::accept_psn` for the wrap-aware convenience).
#[derive(Debug, Clone)]
pub struct ReplayWindow {
    /// Highest sequence accepted so far (None until the first packet).
    top: Option<u64>,
    /// Bitmap of the `window` sequences at and below `top`:
    /// bit k set ⇒ (top - k) seen.
    bitmap: u64,
    window: u32,
    /// Count of rejected (replayed or too-old) packets.
    pub(crate) rejected: u64,
}

/// 24-bit PSN modulus.
const PSN_MOD: u64 = 1 << 24;

/// What the window knows about an offered sequence number.
///
/// The three-way split is what lets a *reliable* transport coexist with
/// the replay defense: a retransmitted packet is byte-identical to an
/// attacker's replay, so content can never distinguish them — delivery
/// state can. [`Fresh`](ReplayVerdict::Fresh) means the PSN was never
/// delivered (genuine first arrival **or** a retransmit of a lost packet —
/// deliver it). [`Duplicate`](ReplayVerdict::Duplicate) means the PSN was
/// already delivered (an attacker replay **or** a retransmit whose ACK was
/// lost — never deliver again, but the transport may safely re-ACK).
/// [`Stale`](ReplayVerdict::Stale) means the PSN fell off the window and
/// the receiver can no longer judge it — reject outright; transports must
/// keep their in-flight window within the replay window so genuine
/// retransmits never age out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// Never seen: record and deliver.
    Fresh,
    /// Within the window and already seen: do not deliver (re-ACK is safe).
    Duplicate,
    /// Older than the window: unjudgeable, reject.
    Stale,
}

impl ReplayWindow {
    /// A window accepting up to `window` (≤ 64) out-of-order sequences.
    pub fn new(window: u32) -> Self {
        ReplayWindow {
            top: None,
            bitmap: 0,
            window: window.clamp(1, 64),
            rejected: 0,
        }
    }

    /// Offer an unwrapped sequence number and learn its delivery status:
    /// [`ReplayVerdict::Fresh`] records it, the other verdicts count a
    /// rejection.
    pub(crate) fn offer(&mut self, seq: u64) -> ReplayVerdict {
        match self.top {
            None => {
                self.top = Some(seq);
                self.bitmap = 1;
                ReplayVerdict::Fresh
            }
            Some(top) if seq > top => {
                let shift = seq - top;
                self.bitmap = if shift >= 64 { 0 } else { self.bitmap << shift };
                self.bitmap |= 1;
                self.top = Some(seq);
                ReplayVerdict::Fresh
            }
            Some(top) => {
                let age = top - seq;
                if age >= self.window as u64 {
                    self.rejected += 1;
                    return ReplayVerdict::Stale; // too old to judge
                }
                let bit = 1u64 << age;
                if self.bitmap & bit != 0 {
                    self.rejected += 1;
                    ReplayVerdict::Duplicate
                } else {
                    self.bitmap |= bit;
                    ReplayVerdict::Fresh
                }
            }
        }
    }

    /// Offer an unwrapped sequence number. Returns true if fresh (and
    /// records it); false if a replay or older than the window.
    pub fn accept(&mut self, seq: u64) -> bool {
        self.offer(seq) == ReplayVerdict::Fresh
    }

    /// Wrap-aware `offer` over a raw 24-bit PSN: the window
    /// unwraps it against the current top using shortest-distance logic (a
    /// PSN less than half the space ahead counts as forward progress,
    /// otherwise as a late/replayed packet from just behind). The first
    /// PSN is unwrapped one modulus up, so "behind" never reaches below 0.
    pub fn offer_psn(&mut self, psn: u32) -> ReplayVerdict {
        let psn = psn as u64 & (PSN_MOD - 1);
        let seq = match self.top {
            None => PSN_MOD + psn,
            Some(top) => {
                let top_phase = top % PSN_MOD;
                // Forward distance from top's phase to this PSN, 0..2^24.
                let d = (psn + PSN_MOD - top_phase) % PSN_MOD;
                if d == 0 {
                    top // same phase as top: a replay of top itself
                } else if d <= PSN_MOD / 2 {
                    top + d // forward progress (possibly across a wrap)
                } else {
                    top - (PSN_MOD - d) // nearer behind top: a late arrival
                }
            }
        };
        self.offer(seq)
    }

    /// Boolean form of [`offer_psn`](Self::offer_psn).
    pub(crate) fn accept_psn(&mut self, psn: u32) -> bool {
        self.offer_psn(psn) == ReplayVerdict::Fresh
    }

    /// The out-of-order depth this window tolerates.
    pub(crate) fn window(&self) -> u32 {
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_accepted_once() {
        let mut w = ReplayWindow::new(64);
        for s in 0..100 {
            assert!(w.accept(s), "fresh {s}");
        }
        for s in 90..100 {
            assert!(!w.accept(s), "replay {s}");
        }
        assert_eq!(w.rejected, 10);
    }

    #[test]
    fn out_of_order_within_window() {
        let mut w = ReplayWindow::new(16);
        assert!(w.accept(10));
        assert!(w.accept(12));
        assert!(w.accept(11), "late but fresh");
        assert!(!w.accept(11), "now a replay");
        assert!(!w.accept(12));
        assert!(!w.accept(10));
    }

    #[test]
    fn too_old_rejected() {
        let mut w = ReplayWindow::new(8);
        assert!(w.accept(100));
        assert!(!w.accept(92), "exactly window-old is out");
        assert!(w.accept(93), "window-1 old is in");
    }

    #[test]
    fn large_jump_clears_bitmap() {
        let mut w = ReplayWindow::new(64);
        assert!(w.accept(5));
        assert!(w.accept(5 + 100));
        assert!(!w.accept(5 + 100));
        // 5 is far below the window now.
        assert!(!w.accept(5));
    }

    #[test]
    fn first_packet_any_sequence() {
        let mut w = ReplayWindow::new(32);
        assert!(w.accept(123_456));
        assert!(!w.accept(123_456));
    }

    #[test]
    fn psn_wrap_forward() {
        let mut w = ReplayWindow::new(32);
        assert!(w.accept_psn(0xFF_FFFE));
        assert!(w.accept_psn(0xFF_FFFF));
        assert!(w.accept_psn(0x00_0000), "wraps forward");
        assert!(w.accept_psn(0x00_0001));
        assert!(!w.accept_psn(0x00_0000), "replay after wrap");
        assert!(!w.accept_psn(0xFF_FFFF), "pre-wrap replay still caught");
    }

    #[test]
    fn psn_slightly_behind_is_late_not_wrap() {
        let mut w = ReplayWindow::new(32);
        assert!(w.accept_psn(100));
        assert!(w.accept_psn(102));
        assert!(w.accept_psn(101), "late delivery");
        assert!(!w.accept_psn(101));
    }

    #[test]
    fn rejected_counter() {
        let mut w = ReplayWindow::new(8);
        w.accept(1);
        w.accept(1);
        w.accept(1);
        assert_eq!(w.rejected, 2);
    }

    #[test]
    fn verdicts_distinguish_duplicate_from_stale() {
        let mut w = ReplayWindow::new(8);
        assert_eq!(w.offer(100), ReplayVerdict::Fresh);
        assert_eq!(w.offer(100), ReplayVerdict::Duplicate);
        // Window-old (age ≥ 8) is unjudgeable regardless of history.
        assert_eq!(w.offer(92), ReplayVerdict::Stale);
        // Inside the window but never delivered: fresh.
        assert_eq!(w.offer(95), ReplayVerdict::Fresh);
        assert_eq!(w.rejected, 2);
    }

    /// The §7 subtlety: a retransmit of a *lost* (never-delivered) PSN and
    /// an attacker replay of a *delivered* one are byte-identical — the
    /// window tells them apart by delivery state alone.
    #[test]
    fn retransmit_of_lost_fresh_replay_of_delivered_duplicate() {
        let mut w = ReplayWindow::new(64);
        // PSNs 0,1,3,4 delivered; 2 was lost on the wire.
        for s in [0u64, 1, 3, 4] {
            assert_eq!(w.offer(s), ReplayVerdict::Fresh);
        }
        // Sender times out and goes back: retransmits of 2,3,4 arrive.
        assert_eq!(w.offer(2), ReplayVerdict::Fresh, "retransmit of lost PSN");
        assert_eq!(w.offer(3), ReplayVerdict::Duplicate, "already delivered");
        assert_eq!(w.offer(4), ReplayVerdict::Duplicate);
        // An attacker replaying a delivered PSN gets the same duplicate
        // verdict — not delivered twice.
        assert_eq!(w.offer(1), ReplayVerdict::Duplicate);
    }

    /// A window-straddling arrival: top advances far enough that an
    /// in-flight PSN lands exactly on the trailing edge.
    #[test]
    fn window_straddling_psn() {
        let mut w = ReplayWindow::new(16);
        assert_eq!(w.offer(50), ReplayVerdict::Fresh);
        assert_eq!(w.offer(65), ReplayVerdict::Fresh); // top = 65
                                                       // Age 15 = window-1: still judgeable.
        assert_eq!(w.offer(50), ReplayVerdict::Duplicate);
        assert_eq!(w.offer(51), ReplayVerdict::Fresh, "straddles, inside");
        // One more step of top pushes 50 past the edge while 51 sits
        // exactly on it.
        assert_eq!(w.offer(66), ReplayVerdict::Fresh);
        assert_eq!(w.offer(50), ReplayVerdict::Stale);
        assert_eq!(w.offer(51), ReplayVerdict::Duplicate, "trailing edge");
        // And another step ages 51 out too — delivered or not.
        assert_eq!(w.offer(67), ReplayVerdict::Fresh);
        assert_eq!(w.offer(51), ReplayVerdict::Stale, "even though delivered");
    }

    /// Full wraparound at 2^24 with the verdict API: retransmits across
    /// the wrap keep their delivery state.
    #[test]
    fn psn_wraparound_preserves_verdicts() {
        let mut w = ReplayWindow::new(32);
        assert_eq!(w.offer_psn(0xFF_FFFC), ReplayVerdict::Fresh);
        assert_eq!(w.offer_psn(0xFF_FFFD), ReplayVerdict::Fresh);
        // 0xFF_FFFE lost; delivery continues across the wrap.
        assert_eq!(w.offer_psn(0xFF_FFFF), ReplayVerdict::Fresh);
        assert_eq!(w.offer_psn(0x00_0000), ReplayVerdict::Fresh);
        assert_eq!(w.offer_psn(0x00_0001), ReplayVerdict::Fresh);
        // Retransmit of the lost pre-wrap PSN: fresh.
        assert_eq!(
            w.offer_psn(0xFF_FFFE),
            ReplayVerdict::Fresh,
            "lost PSN behind the wrap still deliverable"
        );
        // Replays of delivered PSNs on both sides of the wrap: duplicates.
        assert_eq!(w.offer_psn(0xFF_FFFF), ReplayVerdict::Duplicate);
        assert_eq!(w.offer_psn(0x00_0000), ReplayVerdict::Duplicate);
        // Far behind the window after the wrap: stale.
        let mut w2 = ReplayWindow::new(16);
        assert_eq!(w2.offer_psn(0xFF_FFF0), ReplayVerdict::Fresh);
        assert_eq!(w2.offer_psn(0x00_0010), ReplayVerdict::Fresh);
        assert_eq!(w2.offer_psn(0xFF_FFF0), ReplayVerdict::Stale);
    }

    #[test]
    fn pre_wrap_psn_after_a_post_wrap_first_arrival_keeps_the_bitmap() {
        let mut w = ReplayWindow::new(64);
        assert_eq!(w.offer_psn(1), ReplayVerdict::Fresh);
        assert_eq!(w.offer_psn(0xFF_FFFF), ReplayVerdict::Fresh);
        assert_eq!(w.offer_psn(1), ReplayVerdict::Duplicate);
    }

    #[test]
    fn window_accessor_reports_clamped_size() {
        assert_eq!(ReplayWindow::new(16).window(), 16);
        assert_eq!(ReplayWindow::new(0).window(), 1);
        assert_eq!(ReplayWindow::new(1000).window(), 64);
    }
}
