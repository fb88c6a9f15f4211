//! Authentication-key management — §4.2 (partition-level) and §4.3
//! (QP-level) of the paper.
//!
//! Both schemes produce 16-byte MAC secrets and differ only in granularity
//! and exchange cost:
//!
//! * **Partition-level** (Figure 2): the SM generates one secret per
//!   partition at creation time and ships it to every member CA under that
//!   CA's public key. Lookup: `P_Key → secret`. Zero per-connection
//!   exchange cost (the Figure 6 "No Key ≈ With Key" result for this mode),
//!   but every QP in the partition shares the secret.
//! * **QP-level** (Figure 3): connection-oriented QPs exchange a secret at
//!   connect time; datagram QPs mint a fresh secret on every Q_Key request.
//!   Lookup needs `(Q_Key, source QP)` because one QP may issue many
//!   secrets — exactly the Node A table of Figure 3. Costs one RTT per new
//!   peer, which the simulator charges.
//!
//! Public-key transport uses [`ib_crypto::toyrsa`] (a documented
//! simulation of the paper's PKI assumption).

use std::collections::HashMap;

use ib_crypto::toyrsa::{self, PrivateKey, PublicKey};
use ib_packet::types::{PKey, QKey, Qpn};
use ib_runtime::hash::FxHashMap;

/// A 16-byte MAC secret (the key for UMAC/HMAC/PMAC instances).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecretKey(pub [u8; 16]);

impl SecretKey {
    /// Derive deterministically from a seed (simulation reproducibility).
    pub fn from_seed(seed: u64) -> Self {
        let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).max(1);
        let mut out = [0u8; 16];
        for chunk in out.chunks_mut(8) {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            chunk.copy_from_slice(&s.to_le_bytes());
        }
        SecretKey(out)
    }
}

/// A monotonically increasing key-epoch number (the key plane's version
/// counter for one scope index).
///
/// The wire carries only the low 7 bits (BTH `Resv7b` — see
/// `ib_packet::bth`); [`KeyEpoch::wire_id`] produces them and
/// [`KeyEpoch::resolve_wire`] reconstructs the full epoch at the receiver
/// using a half-ring rule against its own current epoch, exactly like PSN
/// windows disambiguate 24-bit sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KeyEpoch(pub u32);

impl KeyEpoch {
    /// The pre-rotation epoch every scope starts in. Its wire id is 0, so
    /// epoch-less traffic and epoch-0 traffic are byte-identical.
    pub const ZERO: KeyEpoch = KeyEpoch(0);

    /// The successor epoch.
    pub fn next(self) -> KeyEpoch {
        KeyEpoch(self.0 + 1)
    }

    /// The 7-bit on-wire id (BTH `Resv7b`).
    pub fn wire_id(self) -> u8 {
        (self.0 & 0x7F) as u8
    }

    /// Reconstruct the full epoch a wire id names, relative to `current`:
    /// ids up to 63 steps ahead of `current` (mod 128) resolve forward,
    /// the rest resolve backward (`None` if that would precede epoch 0).
    /// Sound as long as fewer than 64 rotations happen within one
    /// end-to-end delivery window — rotation periods are many RTTs.
    pub fn resolve_wire(wire: u8, current: KeyEpoch) -> Option<KeyEpoch> {
        let diff = wire.wrapping_sub(current.wire_id()) & 0x7F;
        if diff < 64 {
            Some(KeyEpoch(current.0 + diff as u32))
        } else {
            current.0.checked_sub(128 - diff as u32).map(KeyEpoch)
        }
    }
}

/// A small ordered set of live `(epoch, key)` versions for one scope index
/// — the receive side holds epoch N and (inside the grace window) N−1; the
/// send side always uses the newest.
#[derive(Debug, Clone, Default)]
pub struct EpochRing {
    /// Sorted ascending by epoch; the last entry is current. Never empty
    /// once a key is installed.
    entries: Vec<(KeyEpoch, SecretKey)>,
}

impl EpochRing {
    /// A ring holding `secret` at [`KeyEpoch::ZERO`].
    pub fn new(secret: SecretKey) -> Self {
        EpochRing {
            entries: vec![(KeyEpoch::ZERO, secret)],
        }
    }

    /// The newest `(epoch, key)` version, if any key is installed.
    pub fn current(&self) -> Option<(KeyEpoch, SecretKey)> {
        self.entries.last().copied()
    }

    /// Install (or replace) the key for `epoch`, keeping the ring sorted.
    pub fn install(&mut self, epoch: KeyEpoch, secret: SecretKey) {
        match self.entries.binary_search_by_key(&epoch, |e| e.0) {
            Ok(i) => self.entries[i].1 = secret,
            Err(i) => self.entries.insert(i, (epoch, secret)),
        }
    }

    /// Drop every version strictly below `epoch` (grace-window expiry).
    pub fn retire_below(&mut self, epoch: KeyEpoch) {
        self.entries.retain(|e| e.0 >= epoch);
    }

    /// The key installed for exactly `epoch`.
    pub fn secret_at(&self, epoch: KeyEpoch) -> Option<SecretKey> {
        self.entries
            .binary_search_by_key(&epoch, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Find the live version matching a 7-bit wire id, newest first (the
    /// verify path: current epoch matches instantly, graced ones next).
    pub fn secret_by_wire(&self, wire: u8) -> Option<(KeyEpoch, SecretKey)> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.0.wire_id() == wire)
            .copied()
    }

    /// Whether any live version carries exactly `secret`.
    fn holds_secret(&self, secret: &SecretKey) -> bool {
        self.entries.iter().any(|e| e.1 == *secret)
    }

    /// Number of live versions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no version is installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An encrypted secret key in flight (the toy-RSA envelope).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyEnvelope {
    pub ciphertext: Vec<u64>,
}

impl KeyEnvelope {
    /// Seal `secret` to `recipient`.
    pub fn seal(secret: &SecretKey, recipient: &PublicKey) -> Self {
        KeyEnvelope {
            ciphertext: toyrsa::encrypt(recipient, &secret.0),
        }
    }

    /// Open with the recipient's private key.
    pub fn open(&self, key: &PrivateKey) -> Option<SecretKey> {
        let bytes = toyrsa::decrypt(key, &self.ciphertext)?;
        let arr: [u8; 16] = bytes.try_into().ok()?;
        Some(SecretKey(arr))
    }
}

/// SM-side partition-level key manager (§4.2), extended with
/// epoch-numbered key versions for the replicated key plane: every
/// partition holds an [`EpochRing`], [`Self::rotate`] mints the next
/// epoch's secret, and a follower replica mirrors the leader's versions
/// through [`Self::install_version`].
#[derive(Debug, Default)]
pub struct PartitionKeyManager {
    secrets: HashMap<PKey, EpochRing>,
    counter: u64,
    seed: u64,
}

impl PartitionKeyManager {
    /// Deterministic manager for a simulation seed.
    pub fn new(seed: u64) -> Self {
        PartitionKeyManager {
            secrets: HashMap::new(),
            counter: 0,
            seed,
        }
    }

    fn mint(&mut self, pkey: PKey) -> SecretKey {
        self.counter += 1;
        SecretKey::from_seed(self.seed ^ (self.counter << 17) ^ pkey.0 as u64)
    }

    /// Create (or look up) the secret for a partition. "When the SM creates
    /// a partition, it generates a secret key for that partition." Returns
    /// the partition's *current* secret.
    pub fn create_partition(&mut self, pkey: PKey) -> SecretKey {
        if let Some((_, s)) = self.secrets.get(&pkey).and_then(EpochRing::current) {
            return s;
        }
        let s = self.mint(pkey);
        self.secrets.insert(pkey, EpochRing::new(s));
        s
    }

    /// The current secret for `pkey`, if the partition exists.
    pub fn secret(&self, pkey: PKey) -> Option<SecretKey> {
        Some(self.secrets.get(&pkey)?.current()?.1)
    }

    /// The current `(epoch, secret)` version for `pkey`.
    pub fn current(&self, pkey: PKey) -> Option<(KeyEpoch, SecretKey)> {
        self.secrets.get(&pkey)?.current()
    }

    /// The secret `pkey` had at exactly `epoch`, if still retained.
    pub fn secret_at(&self, pkey: PKey, epoch: KeyEpoch) -> Option<SecretKey> {
        self.secrets.get(&pkey)?.secret_at(epoch)
    }

    /// Mint the next epoch's secret for `pkey` — the leader's rotation
    /// step. Returns the new `(epoch, secret)` version.
    pub fn rotate(&mut self, pkey: PKey) -> Option<(KeyEpoch, SecretKey)> {
        let epoch = self.secrets.get(&pkey)?.current()?.0.next();
        let s = self.mint(pkey);
        self.secrets.get_mut(&pkey)?.install(epoch, s);
        Some((epoch, s))
    }

    /// Mirror a key version minted elsewhere (follower replicas applying
    /// the leader's replicate-key MADs; also how a new leader adopts
    /// versions it never minted).
    pub fn install_version(&mut self, pkey: PKey, epoch: KeyEpoch, secret: SecretKey) {
        self.secrets.entry(pkey).or_default().install(epoch, secret);
    }

    /// Envelope the current partition secret for one member CA.
    pub fn distribute(&self, pkey: PKey, member: &PublicKey) -> Option<KeyEnvelope> {
        Some(KeyEnvelope::seal(&self.secret(pkey)?, member))
    }
}

/// CA-side key tables — the per-node tables of Figures 2 and 3 combined.
/// Partition and connection scopes hold epoch-versioned rings (the lazy
/// re-keying state); datagram secrets stay single-version — they are
/// already minted fresh per Q_Key request. Every seal and verify looks a
/// key up here, so the maps hash with [`FxHashMap`]'s one multiply, not
/// SipHash; a lookup returns epoch and secret together.
#[derive(Debug, Default)]
pub struct NodeKeyTable {
    /// Figure 2: P_Key → epoch-versioned partition secrets.
    partition: FxHashMap<PKey, EpochRing>,
    /// Figure 3 (datagram): (my Q_Key, peer source QP) → secret.
    datagram: FxHashMap<(QKey, Qpn), SecretKey>,
    /// Connected service: local QP → epoch-versioned secrets shared with
    /// its bound peer.
    connection: FxHashMap<Qpn, EpochRing>,
}

impl NodeKeyTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a partition secret received from the SM (at
    /// [`KeyEpoch::ZERO`] — the pre-rotation install path).
    pub fn install_partition_secret(&mut self, pkey: PKey, secret: SecretKey) {
        self.install_partition_epoch(pkey, KeyEpoch::ZERO, secret);
    }

    /// Install a partition secret for a specific epoch (key-update MADs).
    pub fn install_partition_epoch(&mut self, pkey: PKey, epoch: KeyEpoch, secret: SecretKey) {
        self.partition
            .entry(pkey)
            .or_default()
            .install(epoch, secret);
    }

    /// Look up by P_Key (partition-level authentication): the *current*
    /// `(epoch, secret)` version — what the send side stamps and keys.
    pub fn partition_current(&self, pkey: PKey) -> Option<(KeyEpoch, SecretKey)> {
        self.partition.get(&pkey)?.current()
    }

    /// Resolve a 7-bit wire epoch id to a live partition key version.
    pub fn partition_secret_by_wire(&self, pkey: PKey, wire: u8) -> Option<(KeyEpoch, SecretKey)> {
        self.partition.get(&pkey)?.secret_by_wire(wire)
    }

    /// Drop partition key versions older than `epoch` (grace expiry).
    pub fn retire_partition_below(&mut self, pkey: PKey, epoch: KeyEpoch) {
        if let Some(ring) = self.partition.get_mut(&pkey) {
            ring.retire_below(epoch);
        }
    }

    /// Install a per-(Q_Key, source QP) datagram secret.
    pub fn install_datagram_secret(&mut self, qkey: QKey, src_qp: Qpn, secret: SecretKey) {
        self.datagram.insert((qkey, src_qp), secret);
    }

    /// Figure 3 lookup: "to index a secret key, both Q_Key and source QP
    /// are necessary."
    pub fn datagram_secret(&self, qkey: QKey, src_qp: Qpn) -> Option<SecretKey> {
        self.datagram.get(&(qkey, src_qp)).copied()
    }

    /// Install a connection secret for a bound QP (at [`KeyEpoch::ZERO`]).
    pub fn install_connection_secret(&mut self, local_qp: Qpn, secret: SecretKey) {
        self.install_connection_epoch(local_qp, KeyEpoch::ZERO, secret);
    }

    /// Install a connection secret for a specific epoch.
    pub fn install_connection_epoch(&mut self, local_qp: Qpn, epoch: KeyEpoch, secret: SecretKey) {
        self.connection
            .entry(local_qp)
            .or_default()
            .install(epoch, secret);
    }

    /// The current connection `(epoch, secret)` version for a bound QP.
    pub fn connection_current(&self, local_qp: Qpn) -> Option<(KeyEpoch, SecretKey)> {
        self.connection.get(&local_qp)?.current()
    }

    /// Resolve a 7-bit wire epoch id to a live connection key version.
    pub fn connection_secret_by_wire(
        &self,
        local_qp: Qpn,
        wire: u8,
    ) -> Option<(KeyEpoch, SecretKey)> {
        self.connection.get(&local_qp)?.secret_by_wire(wire)
    }

    /// Whether `secret` is still installed under any scope index — what
    /// decides if state derived from it (a keyed MAC) may be dropped.
    pub fn holds_secret(&self, secret: &SecretKey) -> bool {
        self.partition.values().any(|r| r.holds_secret(secret))
            || self.connection.values().any(|r| r.holds_secret(secret))
            || self.datagram.values().any(|s| s == secret)
    }

    /// Total stored secrets across all live epochs (memory accounting).
    pub fn len(&self) -> usize {
        self.partition.values().map(EpochRing::len).sum::<usize>()
            + self.datagram.len()
            + self.connection.values().map(EpochRing::len).sum::<usize>()
    }

    /// Whether no secrets are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// QP-level key manager for one node (§4.3): mints secrets for connection
/// setup and Q_Key requests, sealing them to peer public keys.
#[derive(Debug)]
pub struct QpKeyManager {
    counter: u64,
    seed: u64,
    /// Q_Keys this node has assigned to its datagram QPs.
    qkeys: HashMap<Qpn, QKey>,
    next_qkey: u32,
}

impl QpKeyManager {
    /// Deterministic manager for a node.
    pub fn new(seed: u64) -> Self {
        QpKeyManager {
            counter: 0,
            seed,
            qkeys: HashMap::new(),
            next_qkey: 0x1000,
        }
    }

    fn mint(&mut self) -> SecretKey {
        self.counter += 1;
        SecretKey::from_seed(self.seed ^ (self.counter << 9) ^ 0xA5A5_5A5A)
    }

    /// Connection-oriented setup: "a QP that initiates the connection
    /// creates a secret key and sends it to a destination QP."
    /// Returns the secret (to install locally) and the envelope to send.
    pub fn initiate_connection(&mut self, peer: &PublicKey) -> (SecretKey, KeyEnvelope) {
        let secret = self.mint();
        let env = KeyEnvelope::seal(&secret, peer);
        (secret, env)
    }

    /// Assign (or return) the Q_Key for a local datagram QP.
    pub fn qkey_for(&mut self, qp: Qpn) -> QKey {
        if let Some(k) = self.qkeys.get(&qp) {
            return *k;
        }
        let k = QKey(self.next_qkey);
        self.next_qkey += 1;
        self.qkeys.insert(qp, k);
        k
    }

    /// Handle a Q_Key request from `requester_qp`: "a secret key is
    /// generated at every Q_Key request, which gets encrypted by the
    /// requester's public key before sending it."
    ///
    /// Returns what the responder must remember `(qkey, secret)` and the
    /// reply to send `(qkey, envelope)`.
    pub fn issue_qkey(
        &mut self,
        responder_qp: Qpn,
        requester_pub: &PublicKey,
    ) -> (QKey, SecretKey, KeyEnvelope) {
        let qkey = self.qkey_for(responder_qp);
        let secret = self.mint();
        let env = KeyEnvelope::seal(&secret, requester_pub);
        (qkey, secret, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_crypto::toyrsa::generate_keypair;

    #[test]
    fn secret_from_seed_deterministic_and_distinct() {
        assert_eq!(SecretKey::from_seed(1), SecretKey::from_seed(1));
        assert_ne!(SecretKey::from_seed(1), SecretKey::from_seed(2));
        assert_ne!(SecretKey::from_seed(0), SecretKey::from_seed(1));
    }

    #[test]
    fn envelope_roundtrip() {
        let (pk, sk) = generate_keypair(11);
        let secret = SecretKey::from_seed(99);
        let env = KeyEnvelope::seal(&secret, &pk);
        assert_eq!(env.open(&sk), Some(secret));
    }

    #[test]
    fn envelope_wrong_key_fails_or_garbles() {
        let (pk, _) = generate_keypair(11);
        let (_, sk2) = generate_keypair(12);
        let secret = SecretKey::from_seed(99);
        let env = KeyEnvelope::seal(&secret, &pk);
        assert_ne!(env.open(&sk2), Some(secret));
    }

    /// Negative path: a mismatched private key must never reconstruct the
    /// sealed secret — across many keypairs, either decryption fails
    /// outright (bad length framing) or yields garbage bytes.
    #[test]
    fn envelope_mismatched_private_key_never_recovers_secret() {
        let (pk, sk) = generate_keypair(40);
        let secret = SecretKey::from_seed(123);
        let env = KeyEnvelope::seal(&secret, &pk);
        assert_eq!(env.open(&sk), Some(secret), "sanity: right key works");
        for wrong_seed in 41..61 {
            let (_, wrong_sk) = generate_keypair(wrong_seed);
            assert_ne!(
                env.open(&wrong_sk),
                Some(secret),
                "seed {wrong_seed}: wrong private key recovered the secret"
            );
        }
    }

    /// Negative path: tampered envelopes — flipped ciphertext blocks, a
    /// corrupted length block, truncation, and an empty ciphertext — must
    /// not open to the original secret.
    #[test]
    fn envelope_tampering_detected() {
        let (pk, sk) = generate_keypair(77);
        let secret = SecretKey::from_seed(555);
        let env = KeyEnvelope::seal(&secret, &pk);

        // Flip each ciphertext block in turn (block 0 is the length).
        for i in 0..env.ciphertext.len() {
            let mut bad = env.clone();
            bad.ciphertext[i] ^= 1;
            assert_ne!(
                bad.open(&sk),
                Some(secret),
                "block {i}: tampered envelope opened to the secret"
            );
        }
        // Truncate: drop the last block.
        let mut short = env.clone();
        short.ciphertext.pop();
        assert_eq!(short.open(&sk), None, "truncated envelope must not open");
        // Empty ciphertext.
        let empty = KeyEnvelope { ciphertext: vec![] };
        assert_eq!(empty.open(&sk), None);
        // Length block claiming more bytes than the blocks carry.
        let mut overlong = env.clone();
        overlong.ciphertext.remove(1);
        assert_eq!(overlong.open(&sk), None);
    }

    #[test]
    fn partition_flow_figure2() {
        // SM creates partitions I and II; nodes A, B share I; A, C share II.
        let mut sm = PartitionKeyManager::new(7);
        let (pk_a, sk_a) = generate_keypair(1);
        let (pk_b, sk_b) = generate_keypair(2);
        let (pk_c, sk_c) = generate_keypair(3);
        let p1 = PKey(0x8001);
        let p2 = PKey(0x8002);
        let s_k1 = sm.create_partition(p1);
        let s_k2 = sm.create_partition(p2);
        assert_ne!(s_k1, s_k2);

        let mut node_a = NodeKeyTable::new();
        let mut node_b = NodeKeyTable::new();
        let mut node_c = NodeKeyTable::new();
        node_a.install_partition_secret(p1, sm.distribute(p1, &pk_a).unwrap().open(&sk_a).unwrap());
        node_a.install_partition_secret(p2, sm.distribute(p2, &pk_a).unwrap().open(&sk_a).unwrap());
        node_b.install_partition_secret(p1, sm.distribute(p1, &pk_b).unwrap().open(&sk_b).unwrap());
        node_c.install_partition_secret(p2, sm.distribute(p2, &pk_c).unwrap().open(&sk_c).unwrap());

        // A and B agree on S_K1; A and C on S_K2; B knows nothing of II.
        assert_eq!(node_a.partition_current(p1), Some((KeyEpoch::ZERO, s_k1)));
        assert_eq!(node_b.partition_current(p1), Some((KeyEpoch::ZERO, s_k1)));
        assert_eq!(node_a.partition_current(p2), Some((KeyEpoch::ZERO, s_k2)));
        assert_eq!(node_c.partition_current(p2), Some((KeyEpoch::ZERO, s_k2)));
        assert_eq!(node_b.partition_current(p2), None);
    }

    #[test]
    fn create_partition_idempotent() {
        let mut sm = PartitionKeyManager::new(7);
        let a = sm.create_partition(PKey(0x8001));
        let b = sm.create_partition(PKey(0x8001));
        assert_eq!(a, b, "re-creating returns the existing secret");
    }

    #[test]
    fn connection_flow() {
        let (pk_b, sk_b) = generate_keypair(21);
        let mut mgr_a = QpKeyManager::new(100);
        let (secret, env) = mgr_a.initiate_connection(&pk_b);
        let received = env.open(&sk_b).unwrap();
        assert_eq!(received, secret);

        let mut table_a = NodeKeyTable::new();
        let mut table_b = NodeKeyTable::new();
        table_a.install_connection_secret(Qpn(1), secret);
        table_b.install_connection_secret(Qpn(9), received);
        assert_eq!(
            table_a.connection_current(Qpn(1)),
            table_b.connection_current(Qpn(9))
        );
    }

    #[test]
    fn datagram_flow_figure3() {
        // Node A's QP2 issues distinct secrets to QP4 (node B) and QP5
        // (node C); A's table needs (Q_Key, src QP) to disambiguate.
        let (pk_b, sk_b) = generate_keypair(31);
        let (pk_c, sk_c) = generate_keypair(32);
        let mut mgr_a = QpKeyManager::new(500);
        let mut table_a = NodeKeyTable::new();

        let (qk2, s_k2, env_b) = mgr_a.issue_qkey(Qpn(2), &pk_b);
        table_a.install_datagram_secret(qk2, Qpn(4), s_k2);
        let (qk2_again, s_k3, env_c) = mgr_a.issue_qkey(Qpn(2), &pk_c);
        table_a.install_datagram_secret(qk2_again, Qpn(5), s_k3);

        assert_eq!(qk2, qk2_again, "same QP keeps its Q_Key");
        assert_ne!(s_k2, s_k3, "fresh secret per request");
        assert_eq!(table_a.datagram_secret(qk2, Qpn(4)), Some(s_k2));
        assert_eq!(table_a.datagram_secret(qk2, Qpn(5)), Some(s_k3));
        assert_eq!(table_a.datagram_secret(qk2, Qpn(6)), None);

        // Requesters decrypt their copies.
        assert_eq!(env_b.open(&sk_b), Some(s_k2));
        assert_eq!(env_c.open(&sk_c), Some(s_k3));
        // And cross-decryption fails.
        assert_ne!(env_b.open(&sk_c), Some(s_k2));
    }

    #[test]
    fn distinct_qps_get_distinct_qkeys() {
        let mut mgr = QpKeyManager::new(1);
        let k1 = mgr.qkey_for(Qpn(1));
        let k2 = mgr.qkey_for(Qpn(2));
        assert_ne!(k1, k2);
        assert_eq!(mgr.qkey_for(Qpn(1)), k1);
    }

    #[test]
    fn node_table_len() {
        let mut t = NodeKeyTable::new();
        assert!(t.is_empty());
        t.install_partition_secret(PKey(1), SecretKey::from_seed(1));
        t.install_datagram_secret(QKey(2), Qpn(3), SecretKey::from_seed(2));
        t.install_connection_secret(Qpn(4), SecretKey::from_seed(3));
        assert_eq!(t.len(), 3);
        // A second epoch is a second live secret until retired.
        t.install_partition_epoch(PKey(1), KeyEpoch(1), SecretKey::from_seed(4));
        assert_eq!(t.len(), 4);
        t.retire_partition_below(PKey(1), KeyEpoch(1));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn wire_id_resolution_half_ring() {
        // Forward within 63 steps.
        assert_eq!(
            KeyEpoch::resolve_wire(5, KeyEpoch(3)),
            Some(KeyEpoch(5)),
            "small forward step"
        );
        // Backward: wire 126 seen by a receiver at epoch 128 (wire 0).
        assert_eq!(
            KeyEpoch::resolve_wire(126, KeyEpoch(128)),
            Some(KeyEpoch(126))
        );
        // Forward across the 7-bit wrap: receiver at 126, wire 2 → 130.
        assert_eq!(
            KeyEpoch::resolve_wire(2, KeyEpoch(126)),
            Some(KeyEpoch(130))
        );
        // Backward below zero is unrepresentable.
        assert_eq!(KeyEpoch::resolve_wire(127, KeyEpoch(0)), None);
        // Identity.
        for cur in [0u32, 1, 64, 127, 128, 1000] {
            let cur = KeyEpoch(cur);
            assert_eq!(KeyEpoch::resolve_wire(cur.wire_id(), cur), Some(cur));
        }
    }

    #[test]
    fn epoch_ring_install_retire_lookup() {
        let (s0, s1, s2) = (
            SecretKey::from_seed(1),
            SecretKey::from_seed(2),
            SecretKey::from_seed(3),
        );
        let mut ring = EpochRing::new(s0);
        assert_eq!(ring.current(), Some((KeyEpoch::ZERO, s0)));
        // Out-of-order install keeps the ring sorted.
        ring.install(KeyEpoch(2), s2);
        ring.install(KeyEpoch(1), s1);
        assert_eq!(ring.current(), Some((KeyEpoch(2), s2)));
        assert_eq!(ring.secret_at(KeyEpoch(1)), Some(s1));
        assert_eq!(ring.secret_by_wire(0), Some((KeyEpoch::ZERO, s0)));
        assert_eq!(ring.secret_by_wire(2), Some((KeyEpoch(2), s2)));
        assert_eq!(ring.secret_by_wire(3), None);
        ring.retire_below(KeyEpoch(2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.secret_by_wire(0), None, "graced-out version is gone");
        // Re-install replaces in place.
        ring.install(KeyEpoch(2), s0);
        assert_eq!(ring.current(), Some((KeyEpoch(2), s0)));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn manager_rotation_and_follower_mirroring() {
        let mut leader = PartitionKeyManager::new(9);
        let pkey = PKey(0x8001);
        let s0 = leader.create_partition(pkey);
        assert_eq!(leader.current(pkey), Some((KeyEpoch::ZERO, s0)));

        let (e1, s1) = leader.rotate(pkey).unwrap();
        assert_eq!(e1, KeyEpoch(1));
        assert_ne!(s1, s0, "rotation mints a fresh secret");
        assert_eq!(leader.secret(pkey), Some(s1), "secret() tracks current");
        assert_eq!(leader.secret_at(pkey, KeyEpoch::ZERO), Some(s0));
        assert_eq!(
            leader.create_partition(pkey),
            s1,
            "re-create returns the current version, not a reset"
        );

        // A follower mirrors versions it never minted and can take over.
        let mut follower = PartitionKeyManager::new(9999);
        follower.install_version(pkey, KeyEpoch::ZERO, s0);
        follower.install_version(pkey, e1, s1);
        assert_eq!(follower.current(pkey), Some((e1, s1)));
        let (e2, s2) = follower.rotate(pkey).unwrap();
        assert_eq!(e2, KeyEpoch(2));
        assert_ne!(s2, s1);

        // rotate() on an unknown partition is a no-op.
        assert_eq!(leader.rotate(PKey(0x4444)), None);
    }
}
