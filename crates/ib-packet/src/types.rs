//! Strongly-typed identifiers for the IBA fields the security mechanisms
//! key on. Newtypes prevent the classic bug of passing a Q_Key where a
//! P_Key is expected — the exact confusion the paper's Table 3 shows an
//! attacker exploiting.

use std::fmt;

/// Local Identifier — a 16-bit per-port address assigned by the Subnet
/// Manager; the LRH routes on these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Lid(pub u16);

impl fmt::Display for Lid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LID:{:#06x}", self.0)
    }
}

/// Partition Key — 16 bits: a 15-bit key base plus a 1-bit membership type
/// (1 = full member, 0 = limited member), per IBA spec §10.9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PKey(pub u16);

impl PKey {
    /// The default partition key every port starts in (full membership).
    pub const DEFAULT: PKey = PKey(0xFFFF);

    /// 15-bit key base (ignores the membership bit). Two P_Keys *match*
    /// when their bases are equal and at least one is a full member.
    pub(crate) fn base(self) -> u16 {
        self.0 & 0x7FFF
    }

    /// Whether the membership bit marks a full member.
    pub(crate) fn is_full_member(self) -> bool {
        self.0 & 0x8000 != 0
    }

    /// IBA P_Key matching rule (spec §10.9.3): bases equal, and not both
    /// limited members.
    pub fn matches(self, other: PKey) -> bool {
        self.base() == other.base() && (self.is_full_member() || other.is_full_member())
    }
}

impl fmt::Display for PKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P_Key:{:#06x}", self.0)
    }
}

/// Queue Pair Number — 24 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Qpn(pub u32);

impl Qpn {
    /// Construct, masking to 24 bits.
    pub fn new(v: u32) -> Self {
        Qpn(v & 0x00FF_FFFF)
    }
}

impl fmt::Display for Qpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QP{}", self.0)
    }
}

/// Queue Key — 32 bits, carried in the DETH of datagram packets; §4.1 of
/// the paper: its plaintext presence is what "authenticates" UD packets in
/// stock IBA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct QKey(pub u32);

impl fmt::Display for QKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q_Key:{:#010x}", self.0)
    }
}

/// Remote memory key — 32 bits, carried in the RETH; grants RDMA access to
/// a registered memory region with no destination-QP intervention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RKey(pub u32);

impl fmt::Display for RKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R_Key:{:#010x}", self.0)
    }
}

/// Packet Sequence Number — 24 bits, monotonically increasing per
/// connection. Doubles as the MAC nonce in the authentication layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Psn(pub u32);

impl Psn {
    /// Construct, masking to 24 bits.
    pub fn new(v: u32) -> Self {
        Psn(v & 0x00FF_FFFF)
    }

    /// Next PSN, wrapping at 2^24.
    #[cfg(test)]
    pub(crate) fn next(self) -> Psn {
        Psn((self.0 + 1) & 0x00FF_FFFF)
    }
}

/// Virtual lane index, 0–15. VL15 is reserved for subnet management
/// traffic; data VLs are 0–14 (Table 1: 16 VLs per physical link).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VirtualLane(pub u8);

impl VirtualLane {
    /// The management VL (trap MADs travel here; never blocked by data
    /// congestion).
    #[cfg(test)]
    pub(crate) const MANAGEMENT: VirtualLane = VirtualLane(15);

    /// Construct, masking to 4 bits.
    pub(crate) fn new(v: u8) -> Self {
        VirtualLane(v & 0x0F)
    }

    /// Whether this is the dedicated subnet-management lane.
    #[cfg(test)]
    pub(crate) fn is_management(self) -> bool {
        self.0 == 15
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pkey_matching_rules() {
        let full_a = PKey(0x8001);
        let limited_a = PKey(0x0001);
        let full_b = PKey(0x8002);
        // Same base, at least one full: match.
        assert!(full_a.matches(limited_a));
        assert!(limited_a.matches(full_a));
        assert!(full_a.matches(full_a));
        // Both limited: no match even with equal bases.
        assert!(!limited_a.matches(limited_a));
        // Different base: never.
        assert!(!full_a.matches(full_b));
    }

    #[test]
    fn pkey_base_and_membership() {
        assert_eq!(PKey(0x8001).base(), 1);
        assert!(PKey(0x8001).is_full_member());
        assert!(!PKey(0x0001).is_full_member());
        assert_eq!(PKey::DEFAULT.base(), 0x7FFF);
        assert!(PKey::DEFAULT.is_full_member());
    }

    #[test]
    fn psn_wraps_at_24_bits() {
        assert_eq!(Psn::new(0xFFFF_FFFF).0, 0x00FF_FFFF);
        assert_eq!(Psn(0x00FF_FFFF).next(), Psn(0));
        assert_eq!(Psn(5).next(), Psn(6));
    }

    #[test]
    fn qpn_masks_to_24_bits() {
        assert_eq!(Qpn::new(0x0100_0001).0, 1);
    }

    #[test]
    fn vl_constants() {
        assert!(VirtualLane::MANAGEMENT.is_management());
        assert!(!VirtualLane(0).is_management());
        assert_eq!(VirtualLane::new(0x1F).0, 0x0F);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Lid(0x10).to_string(), "LID:0x0010");
        assert_eq!(Qpn(7).to_string(), "QP7");
        assert_eq!(PKey(0xFFFF).to_string(), "P_Key:0xffff");
    }
}
