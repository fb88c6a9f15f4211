//! Switch-side partition enforcement — §3.3 of the paper.
//!
//! Three designs, same interface:
//!
//! * **DPT** (Duplicate Partition Table): every switch holds the union of
//!   all P_Keys it might see and checks *every packet at every hop*.
//!   Memory `n·p` per switch, lookup `f(n·p)` per packet per hop.
//! * **IF** (Ingress Filtering): only the edge port a node hangs off checks,
//!   against that node's own keys. Memory `p`, lookup `f(p)` per packet —
//!   but paid even when no attack is happening.
//! * **SIF** (Stateful Ingress Filtering, the paper's contribution): edge
//!   ports filter only while an attack is in progress. A P_Key-violation
//!   trap makes the SM program the offender's edge switch with an
//!   `Invalid_P_Key_Table` entry; an *Ingress P_Key Violation Counter*
//!   that stops increasing for an idle period lets the switch disable
//!   itself. Lookup cost `Pr(attack)·f(min(Avg(p̄), p))`.
//!
//! Lookup costs are *reported*, not simulated here: each check returns the
//! number of table-lookup pipeline cycles it consumed, and `ib-sim` turns
//! cycles into time (the paper charges one clock per lookup, citing CACTI).

use crate::partition::PartitionTable;
use ib_packet::types::{Lid, PKey};

/// What the filter decided about a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterDecision {
    /// Forward normally.
    Pass,
    /// Discard: invalid P_Key.
    Drop,
}

/// Result of one enforcement check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterCheck {
    pub decision: FilterDecision,
    /// Pipeline cycles consumed by table lookups for this packet at this
    /// switch (the paper's `f(·)` cost, with f ≡ 1 cycle per table probed).
    pub lookup_cycles: u64,
}

impl FilterCheck {
    const PASS_FREE: FilterCheck = FilterCheck {
        decision: FilterDecision::Pass,
        lookup_cycles: 0,
    };
}

/// Which enforcement design a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnforcementKind {
    /// No switch enforcement (stock IBA behaviour; HCAs still check).
    NoFiltering,
    Dpt,
    If,
    Sif,
}

impl EnforcementKind {
    /// Display label matching the paper's Figure 5 x-axis.
    pub fn label(self) -> &'static str {
        match self {
            EnforcementKind::NoFiltering => "No Filtering",
            EnforcementKind::Dpt => "DPT",
            EnforcementKind::If => "IF",
            EnforcementKind::Sif => "SIF",
        }
    }
}

/// Common interface the simulator's switches drive.
pub trait PartitionEnforcer {
    /// Inspect a data packet at a switch.
    ///
    /// * `now` — simulation time (arbitrary units, used by SIF idle logic).
    /// * `port` — switch port the packet entered on.
    /// * `is_edge_port` — whether that port connects directly to an end
    ///   node (ingress position for IF/SIF).
    /// * `slid`/`pkey` — from the packet's LRH/BTH.
    fn check(
        &mut self,
        now: u64,
        port: usize,
        is_edge_port: bool,
        slid: Lid,
        pkey: PKey,
    ) -> FilterCheck;

    /// Which design this is.
    fn kind(&self) -> EnforcementKind;

    /// Memory footprint in table entries (for the Table 2 cross-check).
    fn table_entries(&self) -> usize;

    /// SM programming hook: register an invalid P_Key seen from the node on
    /// `port`. Only SIF reacts; others ignore it.
    fn register_invalid(&mut self, _now: u64, _port: usize, _pkey: PKey) {}
}

/// No-op enforcer: stock IBA switches.
#[derive(Debug, Default)]
pub struct NoEnforcer;

impl PartitionEnforcer for NoEnforcer {
    fn check(&mut self, _: u64, _: usize, _: bool, _: Lid, _: PKey) -> FilterCheck {
        FilterCheck::PASS_FREE
    }
    fn kind(&self) -> EnforcementKind {
        EnforcementKind::NoFiltering
    }
    fn table_entries(&self) -> usize {
        0
    }
}

/// DPT: one big table, consulted for every packet at every hop.
#[derive(Debug)]
pub struct DptEnforcer {
    table: PartitionTable,
}

impl DptEnforcer {
    /// Build with the union of every P_Key this switch might legitimately
    /// carry (in the paper's model: all `n·p` memberships).
    pub fn new(all_pkeys: impl IntoIterator<Item = PKey>) -> Self {
        DptEnforcer {
            table: PartitionTable::from_keys(all_pkeys),
        }
    }
}

impl PartitionEnforcer for DptEnforcer {
    fn check(
        &mut self,
        _now: u64,
        _port: usize,
        _is_edge: bool,
        _slid: Lid,
        pkey: PKey,
    ) -> FilterCheck {
        // Every packet, every hop: one table probe (1 cycle per the paper's
        // CACTI-based estimate).
        let (ok, _) = self.table.check(pkey);
        FilterCheck {
            decision: if ok {
                FilterDecision::Pass
            } else {
                FilterDecision::Drop
            },
            lookup_cycles: 1,
        }
    }
    fn kind(&self) -> EnforcementKind {
        EnforcementKind::Dpt
    }
    fn table_entries(&self) -> usize {
        self.table.len()
    }
}

/// IF: per-edge-port tables holding exactly the attached node's P_Keys.
#[derive(Debug)]
pub struct IfEnforcer {
    /// Indexed by switch port; `None` for fabric-facing ports.
    port_tables: Vec<Option<PartitionTable>>,
}

impl IfEnforcer {
    /// `port_keys[p]` is `Some(keys of the node on port p)` for edge ports.
    pub fn new(port_keys: Vec<Option<Vec<PKey>>>) -> Self {
        IfEnforcer {
            port_tables: port_keys
                .into_iter()
                .map(|opt| opt.map(PartitionTable::from_keys))
                .collect(),
        }
    }
}

impl PartitionEnforcer for IfEnforcer {
    fn check(
        &mut self,
        _now: u64,
        port: usize,
        is_edge: bool,
        _slid: Lid,
        pkey: PKey,
    ) -> FilterCheck {
        if !is_edge {
            return FilterCheck::PASS_FREE;
        }
        match self.port_tables.get_mut(port).and_then(Option::as_mut) {
            Some(table) => {
                let (ok, _) = table.check(pkey);
                FilterCheck {
                    decision: if ok {
                        FilterDecision::Pass
                    } else {
                        FilterDecision::Drop
                    },
                    lookup_cycles: 1,
                }
            }
            None => FilterCheck::PASS_FREE,
        }
    }
    fn kind(&self) -> EnforcementKind {
        EnforcementKind::If
    }
    fn table_entries(&self) -> usize {
        self.port_tables
            .iter()
            .filter_map(|t| t.as_ref().map(PartitionTable::len))
            .sum()
    }
}

/// Per-edge-port SIF state.
#[derive(Debug, Clone, Default)]
struct SifPortState {
    /// The Invalid_P_Key_Table the SM programs.
    invalid_table: Vec<PKey>,
    /// Ingress P_Key Violation Counter: invalid-P_Key packets *sent from*
    /// the attached node (paper §3.3 — note the direction is the mirror of
    /// the HCA's receive-side counter).
    violation_counter: u64,
    /// Whether ingress filtering is currently active on this port.
    enabled: bool,
    /// Last time the violation counter increased.
    last_violation: u64,
}

/// SIF: trap-activated, self-deactivating ingress filtering.
#[derive(Debug)]
pub struct SifEnforcer {
    ports: Vec<SifPortState>,
    /// If the violation counter is quiet this long, the port disables
    /// itself ("If this counter does not increase for some time, the switch
    /// disables ingress filtering by itself").
    idle_timeout: u64,
    /// Cap on Invalid_P_Key_Table size — "the Invalid_P_Key_Table should be
    /// used as long as the number of entries is smaller than the partition
    /// table", so the cap is the attached node's partition-table size.
    max_invalid_entries: usize,
    /// Lifetime count of packets dropped by this switch's SIF.
    pub(crate) dropped: u64,
}

impl SifEnforcer {
    /// A SIF engine for a switch with `num_ports` ports.
    pub fn new(num_ports: usize, idle_timeout: u64, max_invalid_entries: usize) -> Self {
        SifEnforcer {
            ports: vec![SifPortState::default(); num_ports],
            idle_timeout,
            max_invalid_entries: max_invalid_entries.max(1),
            dropped: 0,
        }
    }

    /// Whether filtering is currently enabled on `port` (test/metric hook).
    pub fn is_enabled(&self, port: usize) -> bool {
        self.ports.get(port).is_some_and(|p| p.enabled)
    }

    /// The violation counter for `port`.
    #[cfg(test)]
    pub(crate) fn violation_counter(&self, port: usize) -> u64 {
        self.ports.get(port).map_or(0, |p| p.violation_counter)
    }
}

impl PartitionEnforcer for SifEnforcer {
    fn check(
        &mut self,
        now: u64,
        port: usize,
        is_edge: bool,
        _slid: Lid,
        pkey: PKey,
    ) -> FilterCheck {
        if !is_edge {
            return FilterCheck::PASS_FREE;
        }
        let Some(state) = self.ports.get_mut(port) else {
            return FilterCheck::PASS_FREE;
        };
        if !state.enabled {
            return FilterCheck::PASS_FREE;
        }
        // Self-disable on idleness before doing work.
        if now.saturating_sub(state.last_violation) >= self.idle_timeout {
            state.enabled = false;
            state.invalid_table.clear();
            return FilterCheck::PASS_FREE;
        }
        let hit = state.invalid_table.contains(&pkey);
        if hit {
            state.violation_counter += 1;
            state.last_violation = now;
            self.dropped += 1;
            FilterCheck {
                decision: FilterDecision::Drop,
                lookup_cycles: 1,
            }
        } else {
            FilterCheck {
                decision: FilterDecision::Pass,
                lookup_cycles: 1,
            }
        }
    }

    fn kind(&self) -> EnforcementKind {
        EnforcementKind::Sif
    }

    fn table_entries(&self) -> usize {
        self.ports.iter().map(|p| p.invalid_table.len()).sum()
    }

    fn register_invalid(&mut self, now: u64, port: usize, pkey: PKey) {
        let Some(state) = self.ports.get_mut(port) else {
            return;
        };
        if !state.invalid_table.contains(&pkey) {
            if state.invalid_table.len() >= self.max_invalid_entries {
                // Table exhausted: fall back to evicting the oldest entry —
                // beyond this point plain IF would be cheaper (paper §3.3).
                state.invalid_table.remove(0);
            }
            state.invalid_table.push(pkey);
        }
        state.enabled = true;
        state.last_violation = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGE: bool = true;
    const FABRIC: bool = false;

    #[test]
    fn no_enforcer_passes_everything_free() {
        let mut e = NoEnforcer;
        let c = e.check(0, 0, EDGE, Lid(1), PKey(0x1234));
        assert_eq!(c.decision, FilterDecision::Pass);
        assert_eq!(c.lookup_cycles, 0);
    }

    #[test]
    fn dpt_checks_every_packet() {
        let mut e = DptEnforcer::new([PKey(0x8001), PKey(0x8002)]);
        let ok = e.check(0, 3, FABRIC, Lid(1), PKey(0x8001));
        assert_eq!(ok.decision, FilterDecision::Pass);
        assert_eq!(ok.lookup_cycles, 1, "DPT pays even on fabric ports");
        let bad = e.check(0, 3, FABRIC, Lid(1), PKey(0x8009));
        assert_eq!(bad.decision, FilterDecision::Drop);
    }

    #[test]
    fn if_only_checks_edge_ports() {
        let mut e = IfEnforcer::new(vec![
            Some(vec![PKey(0x8001)]), // port 0: edge
            None,                     // port 1: fabric
        ]);
        let fabric = e.check(0, 1, FABRIC, Lid(1), PKey(0x9999));
        assert_eq!(fabric.decision, FilterDecision::Pass);
        assert_eq!(fabric.lookup_cycles, 0);
        let edge_ok = e.check(0, 0, EDGE, Lid(1), PKey(0x8001));
        assert_eq!(edge_ok.decision, FilterDecision::Pass);
        assert_eq!(edge_ok.lookup_cycles, 1);
        let edge_bad = e.check(0, 0, EDGE, Lid(1), PKey(0x9999));
        assert_eq!(edge_bad.decision, FilterDecision::Drop);
    }

    #[test]
    fn sif_free_until_activated() {
        let mut e = SifEnforcer::new(5, 1000, 16);
        let c = e.check(0, 0, EDGE, Lid(1), PKey(0x6666));
        assert_eq!(c.decision, FilterDecision::Pass);
        assert_eq!(c.lookup_cycles, 0, "disabled SIF costs nothing");
    }

    #[test]
    fn sif_drops_registered_key_and_passes_others() {
        let mut e = SifEnforcer::new(5, 1000, 16);
        e.register_invalid(10, 0, PKey(0x6666));
        assert!(e.is_enabled(0));
        let bad = e.check(11, 0, EDGE, Lid(1), PKey(0x6666));
        assert_eq!(bad.decision, FilterDecision::Drop);
        assert_eq!(bad.lookup_cycles, 1);
        let good = e.check(12, 0, EDGE, Lid(1), PKey(0x8001));
        assert_eq!(good.decision, FilterDecision::Pass);
        assert_eq!(good.lookup_cycles, 1, "enabled SIF pays the lookup");
        assert_eq!(e.violation_counter(0), 1);
        assert_eq!(e.dropped, 1);
    }

    #[test]
    fn sif_self_disables_when_idle() {
        let mut e = SifEnforcer::new(5, 100, 16);
        e.register_invalid(0, 2, PKey(0x6666));
        assert_eq!(
            e.check(50, 2, EDGE, Lid(1), PKey(0x6666)).decision,
            FilterDecision::Drop
        );
        // Quiet period ≥ idle_timeout: next check disables and passes.
        let c = e.check(151, 2, EDGE, Lid(1), PKey(0x6666));
        assert_eq!(c.decision, FilterDecision::Pass);
        assert!(!e.is_enabled(2));
        assert_eq!(e.table_entries(), 0, "invalid table cleared on disable");
    }

    #[test]
    fn sif_violations_keep_it_enabled() {
        let mut e = SifEnforcer::new(5, 100, 16);
        e.register_invalid(0, 0, PKey(0x6666));
        for t in (10..500).step_by(50) {
            assert_eq!(
                e.check(t, 0, EDGE, Lid(1), PKey(0x6666)).decision,
                FilterDecision::Drop,
                "t={t}"
            );
        }
        assert!(e.is_enabled(0));
    }

    #[test]
    fn sif_per_port_isolation() {
        let mut e = SifEnforcer::new(5, 1000, 16);
        e.register_invalid(0, 0, PKey(0x6666));
        let other_port = e.check(1, 1, EDGE, Lid(1), PKey(0x6666));
        assert_eq!(other_port.decision, FilterDecision::Pass);
        assert_eq!(other_port.lookup_cycles, 0, "port 1 never activated");
    }

    #[test]
    fn sif_invalid_table_capped() {
        let mut e = SifEnforcer::new(5, 1000, 4);
        for i in 0..10u16 {
            e.register_invalid(0, 0, PKey(0x4000 | i));
        }
        assert!(e.table_entries() <= 4);
        // Most recent keys retained.
        assert_eq!(
            e.check(1, 0, EDGE, Lid(1), PKey(0x4009)).decision,
            FilterDecision::Drop
        );
    }

    #[test]
    fn fabric_ports_never_pay_for_sif() {
        let mut e = SifEnforcer::new(5, 1000, 16);
        e.register_invalid(0, 0, PKey(0x6666));
        let c = e.check(1, 0, FABRIC, Lid(1), PKey(0x6666));
        assert_eq!(c.decision, FilterDecision::Pass);
        assert_eq!(c.lookup_cycles, 0);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(EnforcementKind::Sif.label(), "SIF");
        assert_eq!(EnforcementKind::NoFiltering.label(), "No Filtering");
    }
}
