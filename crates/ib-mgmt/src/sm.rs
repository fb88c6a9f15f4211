//! A Subnet Manager model: LID assignment, partition creation with
//! secret-key distribution, M_Key checks on management operations, and the
//! trap-driven SIF programming loop of §3.3.

use std::collections::HashMap;

use crate::keymgmt::{KeyEnvelope, PartitionKeyManager, SecretKey};
use crate::partition::PartitionConfig;
use crate::trap::{Trap, TrapKind};
use ib_crypto::toyrsa::PublicKey;
use ib_packet::types::{Lid, PKey};

/// A 64-bit management key guarding SMP writes to a port (spec §14.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MKey(pub u64);

/// An action the SM wants applied to the fabric: program an ingress
/// filter. The simulator applies it after the SM→switch MAD latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramFilter {
    /// Switch to program.
    pub switch: usize,
    /// Edge port on that switch (where the violator is attached).
    pub port: usize,
    /// The invalid P_Key to register.
    pub pkey: PKey,
}

/// The Subnet Manager.
#[derive(Debug)]
pub struct SubnetManager {
    /// node id → assigned LID (LIDs are 1-based; 0 is reserved).
    lids: Vec<Lid>,
    /// Where each LID's node hangs off the fabric: LID → (switch, port).
    attachments: HashMap<Lid, (usize, usize)>,
    /// CA public-key directory ("we assume SM knows public keys of all CAs").
    directory: HashMap<Lid, PublicKey>,
    /// Per-port M_Keys.
    mkeys: HashMap<Lid, MKey>,
    /// Partition definitions.
    partitions: Vec<PartitionConfig>,
    /// Partition-level secret keys.
    pub(crate) keymgr: PartitionKeyManager,
    /// Count of traps processed (metrics).
    pub traps_handled: u64,
}

impl SubnetManager {
    /// A subnet with `num_nodes` end nodes. LIDs are assigned 1..=n.
    pub fn new(num_nodes: usize, seed: u64) -> Self {
        SubnetManager {
            lids: (0..num_nodes).map(|i| Lid(i as u16 + 1)).collect(),
            attachments: HashMap::new(),
            directory: HashMap::new(),
            mkeys: HashMap::new(),
            partitions: Vec::new(),
            keymgr: PartitionKeyManager::new(seed),
            traps_handled: 0,
        }
    }

    /// LID of node `i`.
    pub(crate) fn lid_of(&self, node: usize) -> Lid {
        self.lids[node]
    }

    /// Node index for a LID, if assigned.
    #[cfg(test)]
    pub(crate) fn node_of(&self, lid: Lid) -> Option<usize> {
        (lid.0 as usize)
            .checked_sub(1)
            .filter(|i| *i < self.lids.len())
    }

    /// Record where a node is attached (done during subnet sweep).
    pub fn attach(&mut self, lid: Lid, switch: usize, port: usize) {
        self.attachments.insert(lid, (switch, port));
    }

    /// Register a CA's public key.
    pub fn register_public_key(&mut self, lid: Lid, key: PublicKey) {
        self.directory.insert(lid, key);
    }

    /// Assign an M_Key to a port; returns it.
    pub fn assign_mkey(&mut self, lid: Lid, mkey: MKey) -> MKey {
        self.mkeys.insert(lid, mkey);
        mkey
    }

    /// Check an SMP write against the port's M_Key (spec: mismatch is
    /// rejected and may raise an M_Key-violation trap).
    pub fn check_mkey(&self, lid: Lid, presented: MKey) -> bool {
        self.mkeys.get(&lid).is_none_or(|k| *k == presented)
    }

    /// Create a partition: records membership, mints the partition secret,
    /// and returns the secret plus one envelope per member whose public key
    /// is on file.
    pub fn create_partition(
        &mut self,
        config: PartitionConfig,
    ) -> (SecretKey, Vec<(usize, KeyEnvelope)>) {
        let secret = self.keymgr.create_partition(config.pkey);
        let mut envelopes = Vec::new();
        for &member in &config.members {
            let lid = self.lid_of(member);
            if let Some(pk) = self.directory.get(&lid) {
                envelopes.push((member, KeyEnvelope::seal(&secret, pk)));
            }
        }
        self.partitions.push(config);
        (secret, envelopes)
    }

    /// All partitions containing `node`.
    #[cfg(test)]
    pub(crate) fn partitions_of(&self, node: usize) -> Vec<PKey> {
        self.partitions
            .iter()
            .filter(|p| p.members.contains(&node))
            .map(|p| p.pkey)
            .collect()
    }

    /// §3.3's SM step: "When the SM receives a trap message, it knows who
    /// sent the invalid P_Key packets and locates the switch it is
    /// connected to. SM can register the invalid P_Key to the
    /// Invalid_P_Key_Table of the switch, and then enable the switch's
    /// filtering function."
    pub fn handle_trap(&mut self, trap: &Trap) -> Option<ProgramFilter> {
        self.traps_handled += 1;
        match trap.kind {
            TrapKind::PKeyViolation {
                bad_pkey,
                violator_slid,
            } => {
                let &(switch, port) = self.attachments.get(&violator_slid)?;
                Some(ProgramFilter {
                    switch,
                    port,
                    pkey: bad_pkey,
                })
            }
            TrapKind::MKeyViolation { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_crypto::toyrsa::generate_keypair;

    #[test]
    fn lid_assignment() {
        let sm = SubnetManager::new(4, 1);
        assert_eq!(sm.lid_of(0), Lid(1));
        assert_eq!(sm.lid_of(3), Lid(4));
        assert_eq!(sm.node_of(Lid(1)), Some(0));
        assert_eq!(sm.node_of(Lid(5)), None);
        assert_eq!(sm.node_of(Lid(0)), None);
    }

    #[test]
    fn partition_creation_with_envelopes() {
        let mut sm = SubnetManager::new(3, 9);
        let (pk0, sk0) = generate_keypair(100);
        let (pk1, _sk1) = generate_keypair(101);
        sm.register_public_key(Lid(1), pk0);
        sm.register_public_key(Lid(2), pk1);
        let (secret, envs) = sm.create_partition(PartitionConfig {
            pkey: PKey(0x8001),
            members: vec![0, 1, 2], // node 2 has no registered key
        });
        assert_eq!(envs.len(), 2, "only nodes with keys on file get envelopes");
        let (member, env) = &envs[0];
        assert_eq!(*member, 0);
        assert_eq!(env.open(&sk0), Some(secret));
        assert_eq!(sm.partitions_of(1), vec![PKey(0x8001)]);
        assert!(sm.partitions_of(1).contains(&PKey(0x8001)));
    }

    #[test]
    fn trap_maps_violator_to_edge_switch() {
        let mut sm = SubnetManager::new(4, 9);
        sm.attach(Lid(3), 7, 4);
        let trap = Trap::pkey_violation(Lid(1), PKey(0x6666), Lid(3), 1);
        let action = sm.handle_trap(&trap).unwrap();
        assert_eq!(
            action,
            ProgramFilter {
                switch: 7,
                port: 4,
                pkey: PKey(0x6666)
            }
        );
        assert_eq!(sm.traps_handled, 1);
    }

    #[test]
    fn trap_for_unknown_violator_is_dropped() {
        let mut sm = SubnetManager::new(4, 9);
        let trap = Trap::pkey_violation(Lid(1), PKey(0x6666), Lid(99), 1);
        assert_eq!(sm.handle_trap(&trap), None);
        assert_eq!(sm.traps_handled, 1, "still counted");
    }

    #[test]
    fn mkey_checks() {
        let mut sm = SubnetManager::new(2, 9);
        assert!(sm.check_mkey(Lid(1), MKey(0)), "no M_Key set: open access");
        sm.assign_mkey(Lid(1), MKey(0xDEAD));
        assert!(sm.check_mkey(Lid(1), MKey(0xDEAD)));
        assert!(!sm.check_mkey(Lid(1), MKey(0xBEEF)));
    }
}
