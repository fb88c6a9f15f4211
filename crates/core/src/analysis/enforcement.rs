//! Table 2 — partition-enforcement overhead model.
//!
//! Parameters (paper §3.3): the network has `n` nodes and `s` switches;
//! every node joins `p` partitions; `f(i)` is the lookup cost over a table
//! of `i` entries; `Pr(n)` is the probability a node participates in a
//! P_Key attack; `Avg(p̄)` the average Invalid_P_Key_Table population.
//!
//! | — | DPT | IF | SIF |
//! |---|-----|----|----|
//! | memory, one switch | n·p | p | p + Pr(n)·min(Avg, p) |
//! | memory, all switches | n·p·s | p·n | p·n + Pr(n)·min(Avg, p)·n |
//! | lookups/packet | f(n·p) | f(p) | Pr(n)·f(min(Avg, p)) |

use ib_mgmt::enforcement::EnforcementKind;

/// Model inputs.
#[derive(Debug, Clone, Copy)]
pub struct EnforcementModel {
    /// n — number of end nodes.
    pub(crate) nodes: usize,
    /// s — number of switches.
    pub(crate) switches: usize,
    /// p — partitions each node joins.
    pub(crate) partitions_per_node: usize,
    /// Pr(n) — probability a node joins a P_Key attack.
    pub(crate) attack_probability: f64,
    /// Avg(p̄) — average number of Invalid_P_Key_Table entries.
    pub(crate) avg_invalid_entries: f64,
}

/// One evaluated Table 2 column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadRow {
    pub kind: EnforcementKind,
    /// Table entries held by one switch.
    pub memory_per_switch: f64,
    /// Table entries across the whole fabric.
    pub memory_total: f64,
    /// Expected table lookups per data packet (with f(i) supplied by the
    /// caller — the paper's own instantiation is f ≡ 1 cycle).
    pub lookups_per_packet: f64,
}

impl EnforcementModel {
    /// The paper's testbed instantiation: 16 nodes, 16 switches, p
    /// partitions each, 1 % attack probability.
    pub fn paper_testbed(partitions_per_node: usize) -> Self {
        EnforcementModel {
            nodes: 16,
            switches: 16,
            partitions_per_node,
            attack_probability: 0.01,
            avg_invalid_entries: 1.0,
        }
    }

    fn min_avg_p(&self) -> f64 {
        self.avg_invalid_entries
            .min(self.partitions_per_node as f64)
    }

    /// Memory (table entries) in one switch.
    pub(crate) fn memory_per_switch(&self, kind: EnforcementKind) -> f64 {
        let n = self.nodes as f64;
        let p = self.partitions_per_node as f64;
        match kind {
            EnforcementKind::NoFiltering => 0.0,
            EnforcementKind::Dpt => n * p,
            EnforcementKind::If => p,
            EnforcementKind::Sif => p + self.attack_probability * self.min_avg_p(),
        }
    }

    /// Memory (table entries) across all switches.
    pub(crate) fn memory_total(&self, kind: EnforcementKind) -> f64 {
        let n = self.nodes as f64;
        let p = self.partitions_per_node as f64;
        let s = self.switches as f64;
        match kind {
            EnforcementKind::NoFiltering => 0.0,
            EnforcementKind::Dpt => n * p * s,
            EnforcementKind::If => p * n,
            EnforcementKind::Sif => p * n + self.attack_probability * self.min_avg_p() * n,
        }
    }

    /// Expected lookups per packet, with the caller's lookup-cost function
    /// `f(table_entries) → cost`.
    pub(crate) fn lookups_per_packet(&self, kind: EnforcementKind, f: impl Fn(f64) -> f64) -> f64 {
        let n = self.nodes as f64;
        let p = self.partitions_per_node as f64;
        match kind {
            EnforcementKind::NoFiltering => 0.0,
            EnforcementKind::Dpt => f(n * p),
            EnforcementKind::If => f(p),
            EnforcementKind::Sif => self.attack_probability * f(self.min_avg_p()),
        }
    }

    /// Evaluate the whole Table 2 with the paper's f ≡ 1-cycle lookup (so
    /// "lookups per packet" counts table probes).
    pub fn table2(&self) -> Vec<OverheadRow> {
        [
            EnforcementKind::Dpt,
            EnforcementKind::If,
            EnforcementKind::Sif,
        ]
        .into_iter()
        .map(|kind| OverheadRow {
            kind,
            memory_per_switch: self.memory_per_switch(kind),
            memory_total: self.memory_total(kind),
            lookups_per_packet: self.lookups_per_packet(kind, |i| if i > 0.0 { 1.0 } else { 0.0 }),
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnforcementModel {
        EnforcementModel {
            nodes: 16,
            switches: 16,
            partitions_per_node: 4,
            attack_probability: 0.01,
            avg_invalid_entries: 2.0,
        }
    }

    #[test]
    fn dpt_memory_dominates() {
        let m = model();
        assert_eq!(m.memory_per_switch(EnforcementKind::Dpt), 64.0); // n·p
        assert_eq!(m.memory_total(EnforcementKind::Dpt), 1024.0); // n·p·s
        assert!(m.memory_total(EnforcementKind::Dpt) > m.memory_total(EnforcementKind::If));
        assert!(m.memory_total(EnforcementKind::If) <= m.memory_total(EnforcementKind::Sif));
    }

    #[test]
    fn if_memory_is_p_per_switch() {
        let m = model();
        assert_eq!(m.memory_per_switch(EnforcementKind::If), 4.0);
        assert_eq!(m.memory_total(EnforcementKind::If), 64.0); // p·n
    }

    #[test]
    fn sif_memory_close_to_if() {
        let m = model();
        let sif = m.memory_per_switch(EnforcementKind::Sif);
        let ifm = m.memory_per_switch(EnforcementKind::If);
        // p + Pr·min(Avg,p) = 4 + 0.01·2 = 4.02
        assert!((sif - 4.02).abs() < 1e-12);
        assert!(sif - ifm < 0.1, "SIF ≈ IF in memory (paper's point)");
    }

    #[test]
    fn sif_lookups_practically_zero() {
        let m = model();
        let unit = |i: f64| if i > 0.0 { 1.0 } else { 0.0 };
        assert_eq!(m.lookups_per_packet(EnforcementKind::Dpt, unit), 1.0);
        assert_eq!(m.lookups_per_packet(EnforcementKind::If, unit), 1.0);
        let sif = m.lookups_per_packet(EnforcementKind::Sif, unit);
        assert!((sif - 0.01).abs() < 1e-12, "Pr(n)·f(...) = 0.01");
        assert!(sif < 0.05, "SIF incurs practically no lookup overhead");
    }

    #[test]
    fn min_clamps_avg_to_p() {
        let mut m = model();
        m.avg_invalid_entries = 100.0; // attacker sprayed many keys
                                       // min(Avg, p) = p = 4 ⇒ SIF never worse than IF per lookup table.
        let sif_mem = m.memory_per_switch(EnforcementKind::Sif);
        assert!((sif_mem - (4.0 + 0.01 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn table2_rows_complete() {
        let rows = model().table2();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].kind, EnforcementKind::Dpt);
        assert!(rows[0].lookups_per_packet > rows[2].lookups_per_packet);
    }

    #[test]
    fn lookup_cost_function_is_pluggable() {
        // With a linear-scan f(i) = i, DPT costs n·p comparisons.
        let m = model();
        assert_eq!(m.lookups_per_packet(EnforcementKind::Dpt, |i| i), 64.0);
        assert_eq!(m.lookups_per_packet(EnforcementKind::If, |i| i), 4.0);
    }
}
