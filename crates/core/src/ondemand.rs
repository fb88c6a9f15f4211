//! On-demand authentication policy (§5.1): "let us assume that in some
//! partition a very important job is running. The administrator can enable
//! authentication only for that partition. Since the authentication can be
//! disabled and enabled anytime, our mechanism provides very flexible
//! authentication service."

use std::collections::HashSet;

use ib_packet::types::{PKey, Qpn};
use ib_packet::Packet;

/// Which packets must arrive authenticated. A packet is *required* to be
/// authenticated if its partition or its destination QP is enrolled (or
/// `default_required` is on). Unauthenticated packets for enrolled scopes
/// are policy violations even when their plain ICRC is fine.
#[derive(Debug, Clone, Default)]
pub struct OnDemandPolicy {
    partitions: HashSet<PKey>,
    qps: HashSet<Qpn>,
    /// Require authentication for everything (subnet-wide lockdown).
    pub default_required: bool,
}

impl OnDemandPolicy {
    /// A policy requiring nothing (stock IBA behaviour).
    pub fn allow_all() -> Self {
        Self::default()
    }

    /// Enable authentication for a partition ("only for that partition").
    pub fn require_partition(&mut self, pkey: PKey) -> &mut Self {
        self.partitions.insert(pkey);
        self
    }

    /// Disable authentication for a partition (can happen "anytime").
    pub fn release_partition(&mut self, pkey: PKey) -> &mut Self {
        self.partitions.remove(&pkey);
        self
    }

    /// Enable authentication for one destination QP.
    pub fn require_qp(&mut self, qp: Qpn) -> &mut Self {
        self.qps.insert(qp);
        self
    }

    /// Does policy demand that this packet carry an authentication tag?
    pub fn requires_auth(&self, packet: &Packet) -> bool {
        self.default_required
            || self.partitions.contains(&packet.bth.pkey)
            || self.qps.contains(&packet.bth.dest_qp)
    }

    /// Is this packet acceptable? (Either policy doesn't care, or the
    /// packet carries a non-zero selector — tag *validity* is the
    /// authenticator's job, separation of concerns.)
    pub fn admits(&self, packet: &Packet) -> bool {
        !self.requires_auth(packet) || packet.bth.resv8a != 0
    }

    /// Number of enrolled scopes (metrics).
    pub fn enrolled(&self) -> usize {
        self.partitions.len() + self.qps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_packet::{Lid, OpCode, PacketBuilder, Psn};

    fn packet(pkey: PKey, dest_qp: Qpn, selector: u8) -> Packet {
        let mut p = PacketBuilder::new(OpCode::RC_SEND_ONLY)
            .slid(Lid(1))
            .dlid(Lid(2))
            .pkey(pkey)
            .dest_qp(dest_qp)
            .psn(Psn(1))
            .payload(vec![1, 2, 3])
            .build();
        if selector != 0 {
            p.set_auth_tag(selector, 0xDEAD_BEEF);
        }
        p
    }

    #[test]
    fn allow_all_admits_everything() {
        let policy = OnDemandPolicy::allow_all();
        assert!(policy.admits(&packet(PKey(0x8001), Qpn(1), 0)));
        assert!(policy.admits(&packet(PKey(0x8001), Qpn(1), 1)));
        assert_eq!(policy.enrolled(), 0);
    }

    #[test]
    fn partition_enrollment() {
        let mut policy = OnDemandPolicy::allow_all();
        policy.require_partition(PKey(0x8001));
        assert!(
            !policy.admits(&packet(PKey(0x8001), Qpn(1), 0)),
            "needs a tag"
        );
        assert!(policy.admits(&packet(PKey(0x8001), Qpn(1), 1)), "tagged ok");
        assert!(
            policy.admits(&packet(PKey(0x8002), Qpn(1), 0)),
            "other partition free"
        );
    }

    #[test]
    fn enable_disable_anytime() {
        let mut policy = OnDemandPolicy::allow_all();
        policy.require_partition(PKey(0x8001));
        assert!(!policy.admits(&packet(PKey(0x8001), Qpn(1), 0)));
        policy.release_partition(PKey(0x8001));
        assert!(policy.admits(&packet(PKey(0x8001), Qpn(1), 0)));
    }

    #[test]
    fn qp_enrollment() {
        let mut policy = OnDemandPolicy::allow_all();
        policy.require_qp(Qpn(42));
        assert!(!policy.admits(&packet(PKey(0x8001), Qpn(42), 0)));
        assert!(policy.admits(&packet(PKey(0x8001), Qpn(43), 0)));
    }

    #[test]
    fn default_required_lockdown() {
        let mut policy = OnDemandPolicy::allow_all();
        policy.default_required = true;
        assert!(!policy.admits(&packet(PKey(0x8009), Qpn(9), 0)));
        assert!(policy.admits(&packet(PKey(0x8009), Qpn(9), 1)));
    }
}
