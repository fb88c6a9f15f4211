//! An in-memory secure fabric: the whole stack wired together.
//!
//! [`SecureFabric`] owns a Subnet Manager and N nodes. The SM holds each
//! node's LID and public key; partitions are created through it, and it
//! mints partition secrets and distributes them under each member's
//! (toy-RSA) public key — §4.2's flow, for real, over real envelopes.
//! Datagram sends build genuine IBA wire packets (`ib-packet`) and seal
//! them with [`Authenticator::seal_into`]; delivery views the raw bytes
//! ([`Packet::parse_view`]), checks the P_Key table, applies the
//! admission rule with a tag required where the node's on-demand policy
//! enrolled the scope, offers tagged PSNs to the flow's replay window,
//! and copies the payload out once, at the end.
//!
//! This is the crate's quickstart API; the examples and the cross-crate
//! integration tests drive it.

use std::collections::HashMap;

use ib_crypto::mac::AuthAlgorithm;
use ib_crypto::toyrsa::{self, PrivateKey};
use ib_mgmt::keymgmt::QpKeyManager;
use ib_mgmt::partition::{PartitionConfig, PartitionTable};
use ib_mgmt::sm::SubnetManager;
use ib_packet::{Lid, OpCode, PKey, Packet, PacketBuilder, ParseError, Psn, QKey, Qpn};

use crate::auth::{admission, AuthError, Authenticator, KeyScope};
use crate::ondemand::OnDemandPolicy;
use crate::replay::{ReplayVerdict, ReplayWindow};

/// Why a delivery was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The raw bytes are not a valid IBA packet.
    Parse(ParseError),
    /// The admission rule refused the packet: a bad tag or ICRC, or
    /// ([`AuthError::AuthRequired`]) plain ICRC where the on-demand policy
    /// requires a tag.
    Auth(AuthError),
    /// Valid tag but stale nonce — a replay.
    Replay,
    /// The destination's partition table rejects the P_Key.
    PKeyViolation,
    /// Unknown destination node.
    NoSuchNode,
}

impl From<ParseError> for FabricError {
    fn from(e: ParseError) -> Self {
        FabricError::Parse(e)
    }
}

impl From<AuthError> for FabricError {
    fn from(e: AuthError) -> Self {
        FabricError::Auth(e)
    }
}

struct FabricNode {
    private: PrivateKey,
    auth: Authenticator,
    qp_mgr: QpKeyManager,
    policy: OnDemandPolicy,
    table: PartitionTable,
    /// Per-source replay windows ((slid, src_qp) → window).
    replay: HashMap<(Lid, Qpn), ReplayWindow>,
    /// Next PSN per destination.
    psn: HashMap<usize, u32>,
    /// This node's datagram QP number.
    dg_qp: Qpn,
}

/// The assembled fabric.
pub struct SecureFabric {
    sm: SubnetManager,
    nodes: Vec<FabricNode>,
}

impl SecureFabric {
    /// Build a fabric of `n` nodes using `algorithm`/`scope` for
    /// authentication. Delivery is direct, as through one switch: node `i`
    /// hangs off its port `i`, holds the SM's LID for it and datagram QP
    /// `10·i + 1`.
    pub fn new(n: usize, algorithm: AuthAlgorithm, scope: KeyScope, seed: u64) -> Self {
        let mut sm = SubnetManager::new((0..n).map(|i| (0, i)).collect(), seed);
        let nodes = (0..n)
            .map(|i| {
                let (public, private) = toyrsa::generate_keypair(seed ^ (i as u64 + 1) << 8);
                sm.register_public_key(i, public);
                FabricNode {
                    private,
                    auth: Authenticator::new(algorithm, scope),
                    qp_mgr: QpKeyManager::new(seed ^ qp_seed(i)),
                    policy: OnDemandPolicy::allow_all(),
                    table: PartitionTable::new(),
                    replay: HashMap::new(),
                    psn: HashMap::new(),
                    dg_qp: Qpn(10 * i as u32 + 1),
                }
            })
            .collect();
        SecureFabric { sm, nodes }
    }

    /// Create a partition: the SM mints the secret and each member opens
    /// its envelope with its own private key and installs the result —
    /// the full Figure 2 flow.
    pub fn create_partition(&mut self, pkey: PKey, members: &[usize]) {
        let (_, envelopes) = self.sm.create_partition(PartitionConfig {
            pkey,
            members: members.to_vec(),
        });
        for (member, envelope) in envelopes {
            let node = &mut self.nodes[member];
            let secret = envelope
                .open(&node.private)
                .expect("member decrypts its own envelope");
            node.auth.keys.install_partition_secret(pkey, secret);
            node.table.insert(pkey);
        }
    }

    /// §4.3 datagram key exchange: `requester` asks `responder` for its
    /// Q_Key; the responder mints a fresh secret sealed to the requester's
    /// public key. Both sides install under (Q_Key, requester's QP).
    pub fn request_qkey(&mut self, requester: usize, responder: usize) -> QKey {
        let requester_qp = self.nodes[requester].dg_qp;
        let requester_pub = self.sm.public_key(requester).expect("every key is on file");
        let responder_qp = self.nodes[responder].dg_qp;
        let (qkey, secret, envelope) = self.nodes[responder]
            .qp_mgr
            .issue_qkey(responder_qp, &requester_pub);
        self.nodes[responder]
            .auth
            .keys
            .install_datagram_secret(qkey, requester_qp, secret);
        let opened = envelope
            .open(&self.nodes[requester].private)
            .expect("requester decrypts its own envelope");
        self.nodes[requester]
            .auth
            .keys
            .install_datagram_secret(qkey, requester_qp, opened);
        qkey
    }

    /// Require authentication for a partition on every node (§5.1
    /// on-demand enablement, administrator action).
    pub fn require_auth_for_partition(&mut self, pkey: PKey) {
        for node in &mut self.nodes {
            node.policy.require_partition(pkey);
        }
    }

    fn next_psn(&mut self, src: usize, dst: usize) -> Psn {
        let counter = self.nodes[src].psn.entry(dst).or_insert(0);
        let psn = Psn::new(*counter);
        *counter = (*counter + 1) & 0x00FF_FFFF;
        psn
    }

    /// The UD SEND both send paths start from: next PSN of the flow,
    /// addressed to `dst`'s datagram QP, ICRC still plain.
    fn build_datagram(
        &mut self,
        src: usize,
        dst: usize,
        pkey: PKey,
        qkey: QKey,
        payload: &[u8],
    ) -> Result<Packet, FabricError> {
        if src >= self.nodes.len() || dst >= self.nodes.len() {
            return Err(FabricError::NoSuchNode);
        }
        let psn = self.next_psn(src, dst);
        let src_node = &self.nodes[src];
        Ok(PacketBuilder::new(OpCode::UD_SEND_ONLY)
            .slid(self.sm.lid_of(src))
            .dlid(self.sm.lid_of(dst))
            .pkey(pkey)
            .psn(psn)
            .dest_qp(self.nodes[dst].dg_qp)
            .qkey(qkey, src_node.dg_qp)
            .payload(payload.to_vec())
            .build())
    }

    /// Build, tag, and serialize a datagram from `src` to `dst` in
    /// partition `pkey` carrying `qkey` (from [`SecureFabric::request_qkey`]
    /// under QP scope; any agreed value under partition scope).
    pub fn send_datagram(
        &mut self,
        src: usize,
        dst: usize,
        pkey: PKey,
        qkey: QKey,
        payload: &[u8],
    ) -> Result<Vec<u8>, FabricError> {
        let mut packet = self.build_datagram(src, dst, pkey, qkey, payload)?;
        let mut wire = Vec::new();
        self.nodes[src]
            .auth
            .seal_into(&mut packet, &mut wire, &mut Vec::new())?;
        Ok(wire)
    }

    /// Send *without* authentication (plain ICRC) — what a legacy or
    /// malicious sender produces.
    pub fn send_unauthenticated(
        &mut self,
        src: usize,
        dst: usize,
        pkey: PKey,
        qkey: QKey,
        payload: &[u8],
    ) -> Result<Vec<u8>, FabricError> {
        let packet = self.build_datagram(src, dst, pkey, qkey, payload)?;
        Ok(packet.to_bytes())
    }

    /// Receive raw wire bytes at node `dst`: view them (the VCRC check),
    /// P_Key table, the admission rule, replay check. Returns the payload.
    pub fn deliver(&mut self, dst: usize, bytes: &[u8]) -> Result<Vec<u8>, FabricError> {
        let node = self.nodes.get_mut(dst).ok_or(FabricError::NoSuchNode)?;
        let view = Packet::parse_view(bytes)?;
        // Stock-IBA receive checks first: P_Key table.
        let (pkey_ok, _) = node.table.check(view.bth.pkey);
        if !pkey_ok {
            return Err(FabricError::PKeyViolation);
        }
        let tag_required = node.policy.requires_auth(&view.bth);
        admission(Some(&node.auth), tag_required, &view, &mut Vec::new())?;
        // Replay freshness per (sender LID, sender QP) flow, for verified
        // tags only: a plain-ICRC packet's PSN vouches for nothing, and
        // must not move an authenticated flow's window.
        if view.bth.resv8a != 0 {
            let flow = (view.lrh.slid, view.deth.map_or(Qpn(0), |d| d.src_qp));
            let window = node
                .replay
                .entry(flow)
                .or_insert_with(|| ReplayWindow::new(64));
            if window.offer_psn(view.bth.psn.0) != ReplayVerdict::Fresh {
                return Err(FabricError::Replay);
            }
        }
        Ok(view.payload.to_vec())
    }

    /// The number of secrets node `i` holds (observability for examples).
    pub fn key_count(&self, node: usize) -> usize {
        self.nodes[node].auth.keys.len()
    }
}

// Helper giving each node's QP manager a distinct seed without colliding
// with the RSA seed-space.
fn qp_seed(i: usize) -> u64 {
    0x5EED_0000_0000 + i as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    const P1: PKey = PKey(0x8001);
    const P2: PKey = PKey(0x8002);

    fn fabric() -> SecureFabric {
        let mut f = SecureFabric::new(4, AuthAlgorithm::Umac32, KeyScope::Partition, 77);
        f.create_partition(P1, &[0, 1]);
        f.create_partition(P2, &[0, 2]);
        f
    }

    #[test]
    fn partition_members_communicate() {
        let mut f = fabric();
        let wire = f
            .send_datagram(0, 1, P1, QKey(1), b"hello from node 0")
            .unwrap();
        let payload = f.deliver(1, &wire).unwrap();
        assert_eq!(payload, b"hello from node 0");
    }

    #[test]
    fn cross_partition_rejected_at_pkey_check() {
        let mut f = fabric();
        // Node 2 is not in partition I: its table lacks P1.
        let wire = f.send_datagram(0, 1, P1, QKey(1), b"secret").unwrap();
        assert_eq!(f.deliver(2, &wire), Err(FabricError::PKeyViolation));
    }

    #[test]
    fn non_member_cannot_forge_even_with_stolen_pkey() {
        let mut f = fabric();
        // Node 3 is in no partition; it "captures" P1 off the wire and
        // tries to inject. It has no secret, so tagging fails...
        assert_eq!(
            f.send_datagram(3, 1, P1, QKey(1), b"forged"),
            Err(FabricError::Auth(AuthError::NoKey))
        );
        // ...and an unauthenticated packet bounces off on-demand policy.
        f.require_auth_for_partition(P1);
        let wire = f
            .send_unauthenticated(3, 1, P1, QKey(1), b"forged")
            .unwrap();
        assert_eq!(
            f.deliver(1, &wire),
            Err(FabricError::Auth(AuthError::AuthRequired))
        );
    }

    #[test]
    fn policy_toggles_at_runtime() {
        let mut f = fabric();
        let wire = f.send_unauthenticated(0, 1, P1, QKey(1), b"plain").unwrap();
        assert!(
            f.deliver(1, &wire).is_ok(),
            "no policy: legacy packets fine"
        );
        f.require_auth_for_partition(P1);
        let wire = f.send_unauthenticated(0, 1, P1, QKey(1), b"plain").unwrap();
        assert_eq!(
            f.deliver(1, &wire),
            Err(FabricError::Auth(AuthError::AuthRequired))
        );
    }

    #[test]
    fn bitflip_on_the_wire_detected() {
        let mut f = fabric();
        let mut wire = f
            .send_datagram(0, 1, P1, QKey(1), b"integrity matters")
            .unwrap();
        // Flip a payload bit and repair the VCRC like an in-path attacker.
        let payload_off = 8 + 12 + 8; // LRH + BTH + DETH
        wire[payload_off] ^= 0x01;
        let n = wire.len();
        let v = ib_crypto::crc16_iba(&wire[..n - 2]);
        wire[n - 2..].copy_from_slice(&v.to_be_bytes());
        assert_eq!(
            f.deliver(1, &wire),
            Err(FabricError::Auth(AuthError::BadTag))
        );
    }

    #[test]
    fn replay_rejected() {
        let mut f = fabric();
        let wire = f.send_datagram(0, 1, P1, QKey(1), b"pay me once").unwrap();
        assert!(f.deliver(1, &wire).is_ok());
        assert_eq!(f.deliver(1, &wire), Err(FabricError::Replay));
    }

    #[test]
    fn multiple_messages_flow() {
        let mut f = fabric();
        for i in 0..50u32 {
            let msg = format!("message {i}");
            let wire = f.send_datagram(0, 1, P1, QKey(1), msg.as_bytes()).unwrap();
            assert_eq!(f.deliver(1, &wire).unwrap(), msg.as_bytes());
        }
    }

    #[test]
    fn qp_scope_end_to_end() {
        let mut f = SecureFabric::new(3, AuthAlgorithm::Umac32, KeyScope::QpLevel, 99);
        f.create_partition(P1, &[0, 1, 2]);
        let qkey = f.request_qkey(0, 1);
        let wire = f
            .send_datagram(0, 1, P1, qkey, b"qp-scoped payload")
            .unwrap();
        assert_eq!(f.deliver(1, &wire).unwrap(), b"qp-scoped payload");
        // Node 2 shares the partition but not the QP secret: the packet is
        // not forgeable by it (NoKey on send) — the paper's argument that
        // QP-level closes the shared-partition-secret hole.
        assert_eq!(
            f.send_datagram(2, 1, P1, qkey, b"forged"),
            Err(FabricError::Auth(AuthError::NoKey))
        );
    }

    #[test]
    fn distinct_partitions_distinct_secrets() {
        let f = fabric();
        // Node 0 belongs to both partitions: it holds 2 secrets.
        assert_eq!(f.key_count(0), 2);
        assert_eq!(f.key_count(1), 1);
        assert_eq!(f.key_count(3), 0);
    }

    #[test]
    fn algorithms_other_than_umac_work_end_to_end() {
        for alg in [
            AuthAlgorithm::HmacMd5,
            AuthAlgorithm::HmacSha1,
            AuthAlgorithm::Pmac,
        ] {
            let mut f = SecureFabric::new(2, alg, KeyScope::Partition, 123);
            f.create_partition(P1, &[0, 1]);
            let wire = f.send_datagram(0, 1, P1, QKey(5), b"alg matrix").unwrap();
            assert_eq!(f.deliver(1, &wire).unwrap(), b"alg matrix", "{alg:?}");
        }
    }
}
