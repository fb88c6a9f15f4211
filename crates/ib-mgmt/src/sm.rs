//! The Subnet Manager: the one owner of the subnet's static facts (where
//! each node is attached, its LID, the partitions and who belongs to
//! them, the CA public-key directory, M_Keys and the partition secrets)
//! and of §3.3's trap-driven SIF programming loop.

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

/// The Subnet Manager. Node `i` holds LID [`Lid::of_node`]`(i)`; every
/// per-node fact is a `Vec` indexed by node, read on the packet path.
#[derive(Debug)]
pub struct SubnetManager {
    /// node → the `(switch, port)` its HCA hangs off (the sweep's result).
    attachments: Vec<(usize, usize)>,
    /// node → its CA public key ("we assume SM knows public keys of all CAs").
    directory: Vec<Option<PublicKey>>,
    /// Per-port M_Keys.
    mkeys: HashMap<Lid, MKey>,
    /// Partition definitions, in definition order.
    partitions: Vec<PartitionConfig>,
    /// node → indices into `partitions` naming it; the first is its home.
    member_of: Vec<Vec<usize>>,
    /// Partition-level secrets (minted, rotated or mirrored versions).
    pub keys: PartitionKeyManager,
    /// Traps processed (metrics).
    pub traps_handled: u64,
    /// Traps refused because the violator belongs to the partition named:
    /// the filter would block its own valid traffic.
    pub traps_rejected: u64,
}

impl SubnetManager {
    /// A subnet whose sweep found node `i` at `attachments[i]`, minting
    /// partition secrets from `seed`.
    pub fn new(attachments: Vec<(usize, usize)>, seed: u64) -> Self {
        let n = attachments.len();
        SubnetManager {
            attachments,
            directory: vec![None; n],
            mkeys: HashMap::new(),
            partitions: Vec::new(),
            member_of: vec![Vec::new(); n],
            keys: PartitionKeyManager::new(seed),
            traps_handled: 0,
            traps_rejected: 0,
        }
    }

    /// LID of node `node`.
    pub fn lid_of(&self, node: usize) -> Lid {
        Lid::of_node(node)
    }

    /// Node holding `lid`, if it is one of this subnet's.
    pub fn node_of(&self, lid: Lid) -> Option<usize> {
        lid.node().filter(|&n| n < self.attachments.len())
    }

    /// Every node's `(switch, port)`, indexed by node.
    pub fn attachments(&self) -> &[(usize, usize)] {
        &self.attachments
    }

    /// Register node `node`'s CA public key.
    pub fn register_public_key(&mut self, node: usize, key: PublicKey) {
        self.directory[node] = Some(key);
    }

    /// Node `node`'s CA public key, if on file.
    pub fn public_key(&self, node: usize) -> Option<PublicKey> {
        *self.directory.get(node)?
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

    /// Record a partition's membership; no secret is minted (the key plane
    /// installs its agreed one, [`PartitionKeyManager::install_version`]).
    pub fn define_partition(&mut self, config: PartitionConfig) {
        let index = self.partitions.len();
        for &member in &config.members {
            self.member_of[member].push(index);
        }
        self.partitions.push(config);
    }

    /// Create a partition: records membership, mints the partition secret,
    /// and returns the secret plus one envelope per member whose public key
    /// is on file.
    pub fn create_partition(
        &mut self,
        config: PartitionConfig,
    ) -> (SecretKey, Vec<(usize, KeyEnvelope)>) {
        let secret = self.keys.create_partition(config.pkey);
        let envelopes = config
            .members
            .iter()
            .filter_map(|&m| Some((m, KeyEnvelope::seal(&secret, &self.public_key(m)?))))
            .collect();
        self.define_partition(config);
        (secret, envelopes)
    }

    /// Every partition, in definition order.
    pub fn partitions(&self) -> &[PartitionConfig] {
        &self.partitions
    }

    /// The P_Keys of every partition naming `node`: its partition table.
    pub fn pkeys_of(&self, node: usize) -> impl Iterator<Item = PKey> + '_ {
        self.member_of[node]
            .iter()
            .map(|&p| self.partitions[p].pkey)
    }

    /// The P_Key `node` stamps on its traffic: its home partition's, or
    /// the default partition's if no partition names it.
    pub fn pkey_of(&self, node: usize) -> PKey {
        self.pkeys_of(node).next().unwrap_or(PKey::DEFAULT)
    }

    /// Members of `node`'s home partition (`node` among them), in
    /// definition order; empty if no partition names it.
    pub fn home_members(&self, node: usize) -> &[usize] {
        self.member_of[node]
            .first()
            .map_or(&[], |&p| &self.partitions[p].members)
    }

    /// §3.3's SM step: "When the SM receives a trap message, it knows who
    /// sent the invalid P_Key packets and locates the switch it is
    /// connected to. SM can register the invalid P_Key to the
    /// Invalid_P_Key_Table of the switch, and then enable the switch's
    /// filtering function."
    ///
    /// A trap whose `bad_pkey` names a partition of the violator's own is
    /// refused and counted: `==` beside [`PKey::matches`], which never
    /// pairs two limited-member keys.
    pub fn handle_trap(&mut self, trap: &Trap) -> Option<ProgramFilter> {
        self.traps_handled += 1;
        match trap.kind {
            TrapKind::PKeyViolation {
                bad_pkey,
                violator_slid,
            } => {
                let node = self.node_of(violator_slid)?;
                let own = |k: PKey| k == bad_pkey || k.matches(bad_pkey);
                if self.pkeys_of(node).any(own) {
                    self.traps_rejected += 1;
                    return None;
                }
                let (switch, port) = self.attachments[node];
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

    /// `n` nodes, node `i` on port `i` of switch 0.
    fn one_switch(n: usize, seed: u64) -> SubnetManager {
        SubnetManager::new((0..n).map(|i| (0, i)).collect(), seed)
    }

    #[test]
    fn lid_assignment() {
        let sm = one_switch(4, 1);
        assert_eq!(sm.lid_of(0), Lid(1));
        assert_eq!(sm.lid_of(3), Lid(4));
        assert_eq!(sm.node_of(Lid(1)), Some(0));
        assert_eq!(sm.node_of(Lid(5)), None);
        assert_eq!(sm.node_of(Lid(0)), None);
    }

    #[test]
    fn partition_creation_with_envelopes() {
        let mut sm = one_switch(3, 9);
        let (pk0, sk0) = generate_keypair(100);
        let (pk1, _sk1) = generate_keypair(101);
        sm.register_public_key(0, pk0);
        sm.register_public_key(1, pk1);
        let (secret, envs) = sm.create_partition(PartitionConfig {
            pkey: PKey(0x8001),
            members: vec![0, 1, 2], // node 2 has no registered key
        });
        assert_eq!(envs.len(), 2, "only nodes with keys on file get envelopes");
        let (member, env) = &envs[0];
        assert_eq!(*member, 0);
        assert_eq!(env.open(&sk0), Some(secret));
        assert_eq!(sm.pkeys_of(1).collect::<Vec<_>>(), vec![PKey(0x8001)]);
        assert_eq!(sm.pkey_of(2), PKey(0x8001));
        assert_eq!(sm.home_members(0), &[0, 1, 2]);
    }

    #[test]
    fn defining_membership_mints_no_secret() {
        let mut sm = one_switch(3, 9);
        sm.define_partition(PartitionConfig {
            pkey: PKey(0x8002),
            members: vec![2, 0],
        });
        assert_eq!(sm.keys.current(PKey(0x8002)), None);
        assert_eq!(sm.home_members(0), &[2, 0]);
        assert_eq!(sm.pkey_of(1), PKey::DEFAULT, "no partition names node 1");
        assert!(sm.home_members(1).is_empty());
    }

    #[test]
    fn trap_maps_violator_to_edge_switch() {
        let mut sm = SubnetManager::new(vec![(0, 0), (0, 1), (7, 4), (0, 3)], 9);
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
        let mut sm = one_switch(4, 9);
        let trap = Trap::pkey_violation(Lid(1), PKey(0x6666), Lid(99), 1);
        assert_eq!(sm.handle_trap(&trap), None);
        assert_eq!(sm.traps_handled, 1, "still counted");
    }

    /// Two limited-member keys never match, yet a limited member's own
    /// key is still its own: the trap naming it is refused too.
    #[test]
    fn trap_naming_a_limited_members_own_key_is_refused() {
        let mut sm = one_switch(2, 9);
        sm.define_partition(PartitionConfig {
            pkey: PKey(0x0005),
            members: vec![1],
        });
        let trap = Trap::pkey_violation(Lid(1), PKey(0x0005), Lid(2), 1);
        assert_eq!(sm.handle_trap(&trap), None);
        assert_eq!(sm.traps_rejected, 1);
        let other = Trap::pkey_violation(Lid(1), PKey(0x0006), Lid(2), 2);
        assert!(
            sm.handle_trap(&other).is_some(),
            "a foreign key is filtered"
        );
    }

    #[test]
    fn mkey_checks() {
        let mut sm = one_switch(2, 9);
        assert!(sm.check_mkey(Lid(1), MKey(0)), "no M_Key set: open access");
        sm.assign_mkey(Lid(1), MKey(0xDEAD));
        assert!(sm.check_mkey(Lid(1), MKey(0xDEAD)));
        assert!(!sm.check_mkey(Lid(1), MKey(0xBEEF)));
    }
}
