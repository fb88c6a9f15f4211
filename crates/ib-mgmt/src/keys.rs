//! The five IBA key classes and the paper's Table 3 vulnerability matrix,
//! encoded as data so examples and tests can demonstrate each exposure.
//!
//! §4.1: "Plaintext Keys in the packet might be exposed causing \[the\]
//! following vulnerabilities" — the point of the ICRC-as-MAC scheme is that
//! *capturing* any of these keys stops being sufficient to *use* them.

/// The key classes IBA defines (spec §3.5.3 and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyClass {
    /// Management Key — guards SMP configuration of a port. "Controls
    /// almost everything in a subnet."
    MKey,
    /// Baseboard Management Key — guards baseboard/hardware management.
    BKey,
    /// Partition Key — proves partition membership; in every data packet.
    PKey,
    /// Queue Key — authorizes datagram delivery to a QP.
    QKey,
    /// Memory keys (L_Key local, R_Key remote) — authorize (RDMA) memory
    /// access.
    MemoryKey,
}

/// What an attacker gains from capturing a key of this class, and what
/// other keys the attack additionally requires — Table 3, row by row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vulnerability {
    pub class: KeyClass,
    /// Table 3's description, abridged.
    pub impact: &'static str,
    /// Keys the attacker must hold *in addition* for the exploit to work
    /// (e.g. R_Key abuse on a datagram QP also needs P_Key and Q_Key).
    pub also_requires: &'static [KeyClass],
    /// Whether the paper's per-packet MAC closes this hole (all of them —
    /// that is the Q.5/A.5 claim — but via different key-management levels).
    pub closed_by_mac: bool,
}

/// The Table 3 matrix.
pub const VULNERABILITIES: &[Vulnerability] = &[
    Vulnerability {
        class: KeyClass::MKey,
        impact: "reconfigure the subnet: reassign LIDs, change forwarding, \
                 disconnect communicating nodes",
        also_requires: &[],
        closed_by_mac: true,
    },
    Vulnerability {
        class: KeyClass::BKey,
        impact: "change hardware/baseboard configuration of nodes and switches",
        also_requires: &[],
        closed_by_mac: true,
    },
    Vulnerability {
        class: KeyClass::PKey,
        impact: "break partition membership restriction; partition existence \
                 itself may be classified",
        also_requires: &[],
        closed_by_mac: true,
    },
    Vulnerability {
        class: KeyClass::QKey,
        impact: "disrupt or corrupt a datagram QP's communication (packet is \
                 accepted solely because the Q_Key matches)",
        also_requires: &[KeyClass::PKey],
        closed_by_mac: true,
    },
    Vulnerability {
        class: KeyClass::MemoryKey,
        impact: "read or write remote memory via RDMA with no destination-QP \
                 intervention",
        // Datagram service: needs P_Key and Q_Key too; connected service:
        // only P_Key. We record the datagram (worst-documented) row.
        also_requires: &[KeyClass::PKey, KeyClass::QKey],
        closed_by_mac: true,
    },
];

impl KeyClass {
    /// Spec name of the key class.
    pub fn name(self) -> &'static str {
        match self {
            KeyClass::MKey => "M_Key",
            KeyClass::BKey => "B_Key",
            KeyClass::PKey => "P_Key",
            KeyClass::QKey => "Q_Key",
            KeyClass::MemoryKey => "L_Key/R_Key",
        }
    }

    /// Table 3 row for this class.
    pub fn vulnerability(self) -> &'static Vulnerability {
        VULNERABILITIES
            .iter()
            .find(|v| v.class == self)
            .expect("every class has a Table 3 row")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_has_a_row() {
        for class in [
            KeyClass::MKey,
            KeyClass::BKey,
            KeyClass::PKey,
            KeyClass::QKey,
            KeyClass::MemoryKey,
        ] {
            let v = class.vulnerability();
            assert_eq!(v.class, class);
            assert!(!v.impact.is_empty());
        }
    }

    #[test]
    fn mac_closes_all_rows() {
        // The paper's A.5 claim, recorded as an invariant of the matrix.
        assert!(VULNERABILITIES.iter().all(|v| v.closed_by_mac));
    }

    #[test]
    fn qkey_attack_requires_pkey() {
        let v = KeyClass::QKey.vulnerability();
        assert!(v.also_requires.contains(&KeyClass::PKey));
    }

    #[test]
    fn rdma_attack_requires_pkey_and_qkey() {
        let v = KeyClass::MemoryKey.vulnerability();
        assert!(v.also_requires.contains(&KeyClass::PKey));
        assert!(v.also_requires.contains(&KeyClass::QKey));
    }

    #[test]
    fn names() {
        assert_eq!(KeyClass::MKey.name(), "M_Key");
        assert_eq!(KeyClass::MemoryKey.name(), "L_Key/R_Key");
    }
}
