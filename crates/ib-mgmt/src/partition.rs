//! Partitions and P_Key tables (IBA spec §10.9).
//!
//! A partition is a set of ports allowed to talk to each other; membership
//! is proven by carrying a matching P_Key in the BTH. The HCA *must* check
//! arriving P_Keys against its partition table; a switch *may* (that
//! optionality is the gap the paper's DoS attack drives through).

use ib_packet::types::PKey;

/// Per-spec limit: a port's partition table holds at most 32768 entries
/// (the paper's §6 uses this bound for its 64 KB memory estimate).
pub(crate) const MAX_PKEYS_PER_PORT: usize = 32_768;

/// Static description of one partition for subnet configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionConfig {
    /// The partition key (15-bit base; full-membership bit set by the SM
    /// per member).
    pub pkey: PKey,
    /// Member node indices (simulator-level node ids).
    pub members: Vec<usize>,
}

/// A port's partition table plus the violation counter the spec mandates.
#[derive(Debug, Clone, Default)]
pub struct PartitionTable {
    entries: Vec<PKey>,
    /// P_Key Violation Counter (spec §14.2.5.9): incremented on every
    /// arriving packet whose P_Key fails to match.
    pub(crate) violation_counter: u64,
}

impl PartitionTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a list of keys (deduplicated).
    pub fn from_keys(keys: impl IntoIterator<Item = PKey>) -> Self {
        let mut t = Self::new();
        for k in keys {
            t.insert(k);
        }
        t
    }

    /// Add a P_Key. Returns false (and does nothing) if the table is full
    /// or the key is already present.
    pub fn insert(&mut self, pkey: PKey) -> bool {
        if self.entries.len() >= MAX_PKEYS_PER_PORT || self.entries.contains(&pkey) {
            return false;
        }
        self.entries.push(pkey);
        true
    }

    /// Remove a P_Key; returns whether it was present.
    #[cfg(test)]
    pub(crate) fn remove(&mut self, pkey: PKey) -> bool {
        let before = self.entries.len();
        self.entries.retain(|k| *k != pkey);
        self.entries.len() != before
    }

    /// Number of entries — the `p` of the paper's Table 2 overhead model.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The spec's matching rule over the whole table: linear scan, applying
    /// [`PKey::matches`]. Returns the matching table entry if any.
    ///
    /// The number of comparisons performed models the paper's `f(p)` table
    /// lookup cost; [`PartitionTable::check`] reports it.
    #[cfg(test)]
    pub(crate) fn find_match(&self, incoming: PKey) -> Option<PKey> {
        self.entries.iter().copied().find(|k| k.matches(incoming))
    }

    /// Check an arriving packet's P_Key; bumps the violation counter on a
    /// mismatch. Returns `(accepted, comparisons_performed)` — the latter
    /// feeds the Table 2 lookup-cost accounting.
    pub fn check(&mut self, incoming: PKey) -> (bool, usize) {
        for (i, k) in self.entries.iter().enumerate() {
            if k.matches(incoming) {
                return (true, i + 1);
            }
        }
        self.violation_counter += 1;
        (false, self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_match() {
        let mut t = PartitionTable::new();
        assert!(t.insert(PKey(0x8001)));
        assert!(t.insert(PKey(0x8002)));
        assert!(!t.insert(PKey(0x8001)), "duplicate rejected");
        assert_eq!(t.len(), 2);
        assert_eq!(t.find_match(PKey(0x0001)), Some(PKey(0x8001)));
        assert_eq!(t.find_match(PKey(0x8003)), None);
    }

    #[test]
    fn check_counts_violations() {
        let mut t = PartitionTable::from_keys([PKey(0x8001)]);
        let (ok, _) = t.check(PKey(0x8001));
        assert!(ok);
        assert_eq!(t.violation_counter, 0);
        let (ok, cmp) = t.check(PKey(0x8999));
        assert!(!ok);
        assert_eq!(cmp, 1, "scanned whole table");
        assert_eq!(t.violation_counter, 1);
        t.check(PKey(0x8999));
        assert_eq!(t.violation_counter, 2);
    }

    #[test]
    fn limited_members_cannot_talk_to_each_other() {
        // Receiver holds a limited-member key; a limited-member packet must
        // be rejected (spec §10.9.3), and the violation recorded.
        let mut t = PartitionTable::from_keys([PKey(0x0005)]);
        let (ok, _) = t.check(PKey(0x0005));
        assert!(!ok);
        let (ok, _) = t.check(PKey(0x8005));
        assert!(ok, "full-member packet accepted by limited-member port");
    }

    #[test]
    fn comparisons_reflect_scan_depth() {
        let mut t = PartitionTable::from_keys((1..=10).map(|i| PKey(0x8000 | i)));
        let (ok, cmp) = t.check(PKey(0x8000 | 7));
        assert!(ok);
        assert_eq!(cmp, 7);
        let (_, cmp) = t.check(PKey(0x8000 | 99));
        assert_eq!(cmp, 10);
    }

    #[test]
    fn remove_works() {
        let mut t = PartitionTable::from_keys([PKey(0x8001), PKey(0x8002)]);
        assert!(t.remove(PKey(0x8001)));
        assert!(!t.remove(PKey(0x8001)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.find_match(PKey(0x8001)), None);
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut t = PartitionTable::new();
        for i in 0..MAX_PKEYS_PER_PORT {
            assert!(t.insert(PKey(i as u16 | 0x8000)) || i >= 32768);
        }
        // Table is full of the 32768 distinct full-member keys; next insert fails.
        assert_eq!(t.len(), MAX_PKEYS_PER_PORT);
        // All 16-bit patterns with the high bit are taken, so use a limited one.
        assert!(!t.insert(PKey(0x0001)) || t.len() < MAX_PKEYS_PER_PORT);
    }
}
