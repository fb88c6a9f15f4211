//! Boundary-value tests across the trap → SM → SIF pipeline: the exact
//! instants where the trap throttle re-admits, where an idle SIF port
//! self-disables, where the Invalid_P_Key_Table starts evicting, and
//! which traps the SM refuses.

use ib_mgmt::enforcement::{FilterDecision, PartitionEnforcer, SifEnforcer};
use ib_mgmt::partition::PartitionConfig;
use ib_mgmt::sm::ProgramFilter;
use ib_mgmt::trap::{Trap, TrapThrottle};
use ib_mgmt::SubnetManager;
use ib_packet::types::{Lid, PKey};

const EDGE: bool = true;

/// One tick under `min_interval` stays muted; exactly `min_interval`
/// re-admits. The spacing is measured from the last *admitted* trap.
#[test]
fn throttle_boundary_is_min_interval_exactly() {
    let mut th = TrapThrottle::new(100);
    assert!(th.offer(0, Lid(1), PKey(0x9), Lid(2)).is_some());
    assert!(th.offer(99, Lid(1), PKey(0x9), Lid(2)).is_none(), "t-1");
    assert!(th.offer(100, Lid(1), PKey(0x9), Lid(2)).is_some(), "t");
    // The admission at 100 resets the clock: 199 is again one short.
    assert!(th.offer(199, Lid(1), PKey(0x9), Lid(2)).is_none());
    assert!(th.offer(200, Lid(1), PKey(0x9), Lid(2)).is_some());
}

/// A muted offer must not bump the sequence counter — gaps in sequence
/// numbers are how the SM spots genuinely lost traps.
#[test]
fn muted_offers_do_not_consume_sequence_numbers() {
    let mut th = TrapThrottle::new(100);
    let a = th.offer(0, Lid(1), PKey(0x9), Lid(2)).unwrap();
    assert!(th.offer(1, Lid(1), PKey(0x9), Lid(2)).is_none());
    assert!(th.offer(2, Lid(1), PKey(0x9), Lid(2)).is_none());
    let b = th.offer(100, Lid(1), PKey(0x9), Lid(2)).unwrap();
    assert_eq!(b.sequence, a.sequence + 1, "mutes left no gap");
}

/// The idle self-disable fires at exactly `idle_timeout` after the last
/// violation — one tick earlier the filter still drops.
#[test]
fn sif_self_disables_at_exactly_idle_timeout() {
    let mut sif = SifEnforcer::new(4, 1000, 8);
    sif.register_invalid(0, 2, PKey(0x6666));
    assert!(sif.is_enabled(2));

    // A hit at t=0 refreshes last_violation.
    let c = sif.check(0, 2, EDGE, Lid(9), PKey(0x6666));
    assert_eq!(c.decision, FilterDecision::Drop);

    // t = idle_timeout - 1: still armed, still dropping.
    let c = sif.check(999, 2, EDGE, Lid(9), PKey(0x6666));
    assert_eq!(c.decision, FilterDecision::Drop, "one tick early");

    // That drop itself refreshed the clock; go quiet from t=999.
    let c = sif.check(999 + 999, 2, EDGE, Lid(9), PKey(0x6666));
    assert_eq!(c.decision, FilterDecision::Drop, "quiet window not over");
    // Last violation now at 1998; 1998 + 1000 is the first quiet instant.
    let c = sif.check(1998 + 1000, 2, EDGE, Lid(9), PKey(0x6666));
    assert_eq!(
        c.decision,
        FilterDecision::Pass,
        "exactly idle_timeout of quiet disables the port"
    );
    assert!(!sif.is_enabled(2));
    assert_eq!(sif.table_entries(), 0, "disable clears the invalid table");
}

/// The passing check after self-disable costs no lookup; subsequent
/// traffic on the disabled port is free until re-enabled by a trap.
#[test]
fn disabled_port_passes_free_until_reprogrammed() {
    let mut sif = SifEnforcer::new(2, 10, 4);
    sif.register_invalid(0, 0, PKey(0x7777));
    assert_eq!(
        sif.check(10, 0, EDGE, Lid(3), PKey(0x7777)).decision,
        FilterDecision::Pass
    );
    let c = sif.check(11, 0, EDGE, Lid(3), PKey(0x7777));
    assert_eq!(c.decision, FilterDecision::Pass);
    assert_eq!(c.lookup_cycles, 0, "disabled ports pay nothing");
    // A new trap re-arms the same port and dropping resumes.
    sif.register_invalid(12, 0, PKey(0x7777));
    assert_eq!(
        sif.check(13, 0, EDGE, Lid(3), PKey(0x7777)).decision,
        FilterDecision::Drop
    );
}

/// The table holds exactly `max_invalid_entries`; the entry that tips it
/// over evicts the oldest (FIFO), never grows past the cap.
#[test]
fn invalid_table_evicts_oldest_at_exactly_the_cap() {
    let mut sif = SifEnforcer::new(1, 1_000_000, 3);
    for (i, k) in [0x8001u16, 0x8002, 0x8003].into_iter().enumerate() {
        sif.register_invalid(i as u64, 0, PKey(k));
    }
    assert_eq!(sif.table_entries(), 3, "at the cap, nothing evicted");
    // Re-registering a resident key is idempotent.
    sif.register_invalid(3, 0, PKey(0x8002));
    assert_eq!(sif.table_entries(), 3);
    // One past the cap: 0x8001 (oldest) leaves, 0x8004 enters.
    sif.register_invalid(4, 0, PKey(0x8004));
    assert_eq!(sif.table_entries(), 3);
    assert_eq!(
        sif.check(5, 0, EDGE, Lid(2), PKey(0x8001)).decision,
        FilterDecision::Pass,
        "evicted key no longer drops"
    );
    assert_eq!(
        sif.check(6, 0, EDGE, Lid(2), PKey(0x8004)).decision,
        FilterDecision::Drop,
        "newest key drops"
    );
}

/// A zero-entry cap is clamped to one usable slot.
#[test]
fn zero_capacity_clamps_to_one_entry() {
    let mut sif = SifEnforcer::new(1, 100, 0);
    sif.register_invalid(0, 0, PKey(0x9001));
    assert_eq!(sif.table_entries(), 1);
    sif.register_invalid(1, 0, PKey(0x9002));
    assert_eq!(sif.table_entries(), 1, "still one; oldest evicted");
    assert_eq!(
        sif.check(2, 0, EDGE, Lid(2), PKey(0x9002)).decision,
        FilterDecision::Drop
    );
}

/// End to end across the boundary: a throttled trap at the reporter
/// becomes a `ProgramFilter` at the SM becomes a dropping SIF port —
/// and the throttle's mute window never reaches the SM at all.
#[test]
fn trap_to_sm_to_sif_programs_the_right_port() {
    let mut attachments = vec![(0, 0); 8];
    attachments[4] = (2, 3); // violator node 4 (LID 5) hangs off switch 2 port 3
    let mut sm = SubnetManager::new(attachments, 7);
    let mut th = TrapThrottle::new(50);
    let mut sif = SifEnforcer::new(8, 10_000, 4);

    let trap = th.offer(0, Lid(1), PKey(0x6666), Lid(5)).unwrap();
    let ProgramFilter { switch, port, pkey } = sm.handle_trap(&trap).unwrap();
    assert_eq!((switch, port, pkey), (2, 3, PKey(0x6666)));
    sif.register_invalid(0, port, pkey);

    assert!(th.offer(49, Lid(1), PKey(0x6666), Lid(5)).is_none());
    assert_eq!(sm.traps_handled, 1, "muted repeat never reached the SM");
    assert_eq!(
        sif.check(1, 3, EDGE, Lid(5), PKey(0x6666)).decision,
        FilterDecision::Drop
    );
    assert_eq!(
        sif.check(2, 4, EDGE, Lid(5), PKey(0x6666)).decision,
        FilterDecision::Pass,
        "only the programmed port filters"
    );
}

/// A trap that names a partition member and that member's own P_Key —
/// one any node can forge when traps travel in band. Were the SM to
/// program it, SIF would drop the member's valid packets, and each drop
/// refreshes the idle clock, so a member sending faster than the idle
/// timeout stays blocked for good. The SM holds the membership, so it
/// refuses the trap and counts the refusal.
#[test]
fn trap_naming_a_members_own_pkey_is_refused() {
    const IDLE: u64 = 1_000_000;
    let member_key = PKey(0x8001);
    let mut attachments = vec![(0, 0); 4];
    attachments[2] = (1, 3); // the member, node 2 (LID 3), on switch 1 port 3
    let mut sm = SubnetManager::new(attachments, 7);
    sm.define_partition(PartitionConfig {
        pkey: member_key,
        members: vec![0, 2],
    });
    let mut sif = SifEnforcer::new(4, IDLE, 8);

    let forged = Trap::pkey_violation(Lid(2), member_key, Lid(3), 1);
    if let Some(ProgramFilter { port, pkey, .. }) = sm.handle_trap(&forged) {
        sif.register_invalid(0, port, pkey);
    }
    let dropped = (1..=10_000u64)
        .filter(|i| {
            let at = i * (IDLE / 50);
            sif.check(at, 3, EDGE, Lid(3), member_key).decision == FilterDecision::Drop
        })
        .count();
    assert_eq!(dropped, 0, "the member's valid packets were blocked");
    assert_eq!((sm.traps_handled, sm.traps_rejected), (1, 1));
    assert!(!sif.is_enabled(3));
}
