//! Trap MADs — the notification channel from ports to the Subnet Manager
//! (IBA spec §14.2.5, Notice/Trap).
//!
//! The paper's SIF mechanism (§3.3) is trap-driven: "when an incoming
//! packet's P_Key does not match with the receiver's P_Key, the receiver
//! may send a trap message to the Subnet Manager … we suggest to use this
//! trap message to find the right timing for ingress filtering."
//!
//! Traps travel as management datagrams on VL15 to QP0/QP1; the simulator
//! models them as small high-priority packets with a configurable delivery
//! latency.

use ib_packet::mad::{Mad, TRAP_BAD_MKEY, TRAP_BAD_PKEY};
use ib_packet::types::{Lid, PKey};

/// The trap conditions this reproduction models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapKind {
    /// Spec trap 257/258 analogue: a packet arrived with a P_Key that does
    /// not match any entry of the receiving port's table.
    PKeyViolation {
        /// Offending key as carried in the packet.
        bad_pkey: PKey,
        /// LID the offending packet claimed as its source.
        violator_slid: Lid,
    },
    /// M_Key violation (wrong or missing M_Key on a management op).
    MKeyViolation { violator_slid: Lid },
}

/// A trap notice in flight toward the SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// Port that detected the condition and raised the trap.
    pub reporter: Lid,
    /// What happened.
    pub kind: TrapKind,
    /// Repress-style dedup token: reporters rate-limit identical traps;
    /// the sequence number lets the SM spot gaps.
    pub sequence: u64,
}

impl Trap {
    /// Convenience constructor for the P_Key-violation trap.
    pub fn pkey_violation(
        reporter: Lid,
        bad_pkey: PKey,
        violator_slid: Lid,
        sequence: u64,
    ) -> Self {
        Trap {
            reporter,
            kind: TrapKind::PKeyViolation {
                bad_pkey,
                violator_slid,
            },
            sequence,
        }
    }

    /// Serialize as a real SubnTrap MAD (256-byte wire form, spec §13.4) —
    /// what actually travels to the SM on VL15.
    pub fn to_mad(&self) -> Mad {
        let (number, bad_pkey, violator_slid) = match self.kind {
            TrapKind::PKeyViolation {
                bad_pkey,
                violator_slid,
            } => (TRAP_BAD_PKEY, bad_pkey, violator_slid),
            // Same Notice layout with no key: trap 256 is never routed to
            // SIF programming.
            TrapKind::MKeyViolation { violator_slid } => (TRAP_BAD_MKEY, PKey(0), violator_slid),
        };
        Mad::violation_trap(
            number,
            self.reporter,
            bad_pkey,
            violator_slid,
            self.sequence,
        )
    }

    /// Parse a trap back out of a MAD.
    pub fn from_mad(mad: &Mad) -> Option<Trap> {
        let (number, reporter, violator_slid, bad_pkey) = mad.decode_violation()?;
        let kind = match number {
            TRAP_BAD_PKEY => TrapKind::PKeyViolation {
                bad_pkey,
                violator_slid,
            },
            TRAP_BAD_MKEY => TrapKind::MKeyViolation { violator_slid },
            _ => return None,
        };
        Some(Trap {
            reporter,
            kind,
            sequence: mad.transaction_id,
        })
    }
}

/// Per-port trap rate limiter: a port should not flood the SM with
/// identical traps (that would itself be a DoS vector on the SM, one of the
/// §7 "more DoS attacks" the paper flags). Emits at most one trap per
/// (kind-specific key) per `min_interval` of time.
#[derive(Debug, Clone)]
pub struct TrapThrottle {
    min_interval: u64,
    last_sent: Vec<(PKey, u64)>,
    sequence: u64,
}

impl TrapThrottle {
    /// A throttle emitting at most one trap per `min_interval` time units
    /// per offending P_Key.
    pub fn new(min_interval: u64) -> Self {
        TrapThrottle {
            min_interval,
            last_sent: Vec::new(),
            sequence: 0,
        }
    }

    /// Ask to emit a P_Key-violation trap at time `now`; returns the trap
    /// if the throttle admits it.
    pub fn offer(
        &mut self,
        now: u64,
        reporter: Lid,
        bad_pkey: PKey,
        violator_slid: Lid,
    ) -> Option<Trap> {
        if let Some(entry) = self.last_sent.iter_mut().find(|(k, _)| *k == bad_pkey) {
            if now.saturating_sub(entry.1) < self.min_interval {
                return None;
            }
            entry.1 = now;
        } else {
            self.last_sent.push((bad_pkey, now));
        }
        self.sequence += 1;
        Some(Trap::pkey_violation(
            reporter,
            bad_pkey,
            violator_slid,
            self.sequence,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttle_admits_first_and_spaced() {
        let mut th = TrapThrottle::new(100);
        let t0 = th.offer(0, Lid(1), PKey(0x9), Lid(2));
        assert!(t0.is_some());
        assert!(
            th.offer(50, Lid(1), PKey(0x9), Lid(2)).is_none(),
            "too soon"
        );
        assert!(th.offer(100, Lid(1), PKey(0x9), Lid(2)).is_some());
    }

    #[test]
    fn throttle_is_per_pkey() {
        let mut th = TrapThrottle::new(100);
        assert!(th.offer(0, Lid(1), PKey(0x9), Lid(2)).is_some());
        assert!(
            th.offer(1, Lid(1), PKey(0xA), Lid(2)).is_some(),
            "different key"
        );
    }

    #[test]
    fn sequence_increments() {
        let mut th = TrapThrottle::new(1);
        let a = th.offer(0, Lid(1), PKey(1), Lid(2)).unwrap();
        let b = th.offer(10, Lid(1), PKey(1), Lid(2)).unwrap();
        assert_eq!(b.sequence, a.sequence + 1);
    }

    #[test]
    fn trap_mad_roundtrip() {
        let mkey = Trap {
            reporter: Lid(3),
            kind: TrapKind::MKeyViolation {
                violator_slid: Lid(8),
            },
            sequence: 100,
        };
        for t in [Trap::pkey_violation(Lid(3), PKey(0x8777), Lid(8), 99), mkey] {
            let mad = t.to_mad();
            assert_eq!(mad.to_bytes().len(), ib_packet::mad::MAD_LEN);
            let back = Trap::from_mad(&mad).unwrap();
            assert_eq!(back, t);
        }
    }

    #[test]
    fn trap_carries_violator() {
        let t = Trap::pkey_violation(Lid(5), PKey(0x77), Lid(9), 1);
        match t.kind {
            TrapKind::PKeyViolation {
                bad_pkey,
                violator_slid,
            } => {
                assert_eq!(bad_pkey, PKey(0x77));
                assert_eq!(violator_slid, Lid(9));
            }
            _ => panic!("wrong kind"),
        }
        assert_eq!(t.reporter, Lid(5));
    }
}
