//! On-demand authentication policy (§5.1): "let us assume that in some
//! partition a very important job is running. The administrator can enable
//! authentication only for that partition. Since the authentication can be
//! disabled and enabled anytime, our mechanism provides very flexible
//! authentication service."
//!
//! The policy only says *whether* a packet must carry a tag; the
//! admission rule ([`crate::auth`]) is what refuses a selector-0 packet
//! for an enrolled scope, as [`crate::AuthError::AuthRequired`], and what
//! verifies the tag of every other.

use std::collections::HashSet;

use ib_packet::types::{PKey, Qpn};
use ib_packet::Bth;

/// Which packets must arrive authenticated. A packet is *required* to be
/// authenticated if its partition or its destination QP is enrolled.
/// Unauthenticated packets for enrolled scopes are refused even when
/// their plain ICRC is fine.
#[derive(Debug, Clone, Default)]
pub struct OnDemandPolicy {
    /// Enrolled partitions by their full-member P_Key: the receive-side
    /// P_Key check matches by key base, so the membership bit must not
    /// decide whether a packet needs a tag.
    partitions: HashSet<PKey>,
    qps: HashSet<Qpn>,
}

impl OnDemandPolicy {
    /// A policy requiring nothing (stock IBA behaviour).
    pub fn allow_all() -> Self {
        Self::default()
    }

    /// Enable authentication for a partition ("only for that partition").
    pub(crate) fn require_partition(&mut self, pkey: PKey) -> &mut Self {
        self.partitions.insert(PKey::full_member(pkey.0));
        self
    }

    /// Disable authentication for a partition (can happen "anytime").
    pub fn release_partition(&mut self, pkey: PKey) -> &mut Self {
        self.partitions.remove(&PKey::full_member(pkey.0));
        self
    }

    /// Enable authentication for one destination QP.
    pub fn require_qp(&mut self, qp: Qpn) -> &mut Self {
        self.qps.insert(qp);
        self
    }

    /// Does policy demand that the packet with this BTH carry an
    /// authentication tag?
    pub(crate) fn requires_auth(&self, bth: &Bth) -> bool {
        self.partitions.contains(&PKey::full_member(bth.pkey.0)) || self.qps.contains(&bth.dest_qp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_packet::{Lid, OpCode, PacketBuilder, Psn};

    fn bth(pkey: PKey, dest_qp: Qpn) -> Bth {
        PacketBuilder::new(OpCode::RC_SEND_ONLY)
            .slid(Lid(1))
            .dlid(Lid(2))
            .pkey(pkey)
            .dest_qp(dest_qp)
            .psn(Psn(1))
            .build()
            .bth
    }

    #[test]
    fn allow_all_admits_everything() {
        let policy = OnDemandPolicy::allow_all();
        assert!(!policy.requires_auth(&bth(PKey(0x8001), Qpn(1))));
    }

    #[test]
    fn partition_enrollment() {
        let mut policy = OnDemandPolicy::allow_all();
        policy.require_partition(PKey(0x8001));
        assert!(
            policy.requires_auth(&bth(PKey(0x8001), Qpn(1))),
            "needs a tag"
        );
        assert!(
            !policy.requires_auth(&bth(PKey(0x8002), Qpn(1))),
            "other partition free"
        );
        assert!(
            policy.requires_auth(&bth(PKey(0x0001), Qpn(1))),
            "a limited member of it needs one too"
        );
    }

    #[test]
    fn enable_disable_anytime() {
        let mut policy = OnDemandPolicy::allow_all();
        policy.require_partition(PKey(0x8001));
        assert!(policy.requires_auth(&bth(PKey(0x8001), Qpn(1))));
        policy.release_partition(PKey(0x8001));
        assert!(!policy.requires_auth(&bth(PKey(0x8001), Qpn(1))));
    }

    #[test]
    fn qp_enrollment() {
        let mut policy = OnDemandPolicy::allow_all();
        policy.require_qp(Qpn(42));
        assert!(policy.requires_auth(&bth(PKey(0x8001), Qpn(42))));
        assert!(!policy.requires_auth(&bth(PKey(0x8001), Qpn(43))));
    }
}
