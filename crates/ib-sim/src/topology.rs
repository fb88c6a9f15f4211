//! Fabric topologies: the [`Topology`] trait abstracting what the engine
//! needs from a fabric (ports, peers, host attachments, per-hop routing;
//! LIDs are the subnet manager's),
//! plus the concrete generators — the paper's §3.1 2-D mesh here, and the
//! scale-out [`crate::fattree::FatTree`] in its own module.
//!
//! Routing is *per-flow deterministic*: [`Topology::route_flow`] takes a
//! flow hash and must return the same output port for the same
//! `(switch, dst, flow_hash)` triple, so a flow's packets stay in order
//! while distinct flows spread across the path diversity (ECMP over
//! fat-tree cores). Single-path topologies ignore the hash.

/// Port roles on a 5-port mesh switch.
pub(crate) const PORT_EAST: usize = 0;
pub(crate) const PORT_WEST: usize = 1;
pub(crate) const PORT_NORTH: usize = 2;
pub(crate) const PORT_SOUTH: usize = 3;
/// The host port the local HCA hangs off (mesh layout).
pub(crate) const PORT_HOST: usize = 4;

/// What sits on the far side of a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// Another switch's port.
    Switch { switch: usize, port: usize },
    /// An attached HCA.
    Hca { node: usize },
    /// Fabric edge — nothing connected.
    None,
}

/// Deterministic per-flow hash steering multi-path route choices
/// (SplitMix64 finalizer over the packed endpoints). Both the packet
/// engine and the flow-level model derive path choices from this one
/// function, so the two always agree on which path a flow takes.
pub fn flow_hash(src: usize, dst: usize) -> u64 {
    let mut z = ((src as u64) << 32) ^ (dst as u64) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the simulation engine (and the flow-level model) need from a
/// fabric: a set of switches with uniform radix, HCAs attached to host
/// ports, SM-style LID assignment, and deterministic per-hop routing
/// with a flow-hash-steered multi-path variant.
///
/// Invariants every implementation must uphold (checked by
/// [`conformance`]):
///
/// * links are symmetric: `peer(peer(s, p)) == (s, p)` for switch peers;
/// * each node's [`host_attachment`](Topology::host_attachment) port has
///   `peer == Hca { node }`, and no two nodes share an attachment;
/// * from any switch, following `route_flow` toward any node reaches its
///   attachment without revisiting a switch, traversing at most
///   [`diameter`](Topology::diameter) switches — for every flow hash.
pub trait Topology {
    /// Short label for reports (`"mesh"`, `"fat-tree"`).
    fn name(&self) -> &'static str;

    /// Number of switches.
    fn num_switches(&self) -> usize;

    /// Number of attached HCAs (end nodes).
    fn num_nodes(&self) -> usize;

    /// Ports per switch (uniform radix).
    fn radix(&self) -> usize;

    /// The `(switch, port)` the HCA of `node` hangs off.
    fn host_attachment(&self, node: usize) -> (usize, usize);

    /// What's connected to `(switch, port)`.
    fn peer(&self, switch: usize, port: usize) -> Peer;

    /// The output port `switch` uses toward the node `dst`, for the flow
    /// identified by `flow_hash` (multi-path topologies pick among equal
    /// candidates by hash; single-path topologies ignore it). At `dst`'s
    /// attachment switch this returns the host port.
    fn route_flow(&self, switch: usize, dst: usize, flow_hash: u64) -> usize;

    /// Upper bound on switches traversed by any route the topology can
    /// produce (the conformance tests' loop-freedom budget).
    fn diameter(&self) -> usize;

    /// Switches traversed by the flow-hash-selected path from node `a` to
    /// node `b` (own edge switch included, so the minimum is 1).
    fn hops_on_path(&self, a: usize, b: usize, flow_hash: u64) -> usize {
        let (mut s, _) = self.host_attachment(a);
        let (dsw, _) = self.host_attachment(b);
        let mut hops = 1;
        while s != dsw {
            let port = self.route_flow(s, b, flow_hash);
            match self.peer(s, port) {
                Peer::Switch { switch, .. } => s = switch,
                other => panic!("route fell off the fabric at {s}:{port}: {other:?}"),
            }
            hops += 1;
            assert!(hops <= self.diameter(), "route {a}->{b} exceeds diameter");
        }
        hops
    }
}

/// A `dim × dim` mesh. Switch `s` sits at `(x, y) = (s % dim, s / dim)`;
/// node `i` is attached to switch `i`'s host port, with LID `i + 1`.
#[derive(Debug, Clone)]
pub struct MeshTopology {
    dim: usize,
}

impl MeshTopology {
    /// A mesh of `dim × dim` switches (dim ≥ 1).
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1);
        assert!(dim * dim <= 0xFFFE, "LIDs are 16-bit");
        MeshTopology { dim }
    }

    /// Number of switches (== nodes).
    pub(crate) fn num_switches(&self) -> usize {
        self.dim * self.dim
    }

    /// Coordinates of switch `s`.
    pub(crate) fn coords(&self, s: usize) -> (usize, usize) {
        (s % self.dim, s / self.dim)
    }

    /// Switch at coordinates.
    pub(crate) fn switch_at(&self, x: usize, y: usize) -> usize {
        y * self.dim + x
    }

    /// What's connected to `(switch, port)`.
    pub(crate) fn peer(&self, switch: usize, port: usize) -> Peer {
        let (x, y) = self.coords(switch);
        match port {
            PORT_HOST => Peer::Hca { node: switch },
            PORT_EAST if x + 1 < self.dim => Peer::Switch {
                switch: self.switch_at(x + 1, y),
                port: PORT_WEST,
            },
            PORT_WEST if x > 0 => Peer::Switch {
                switch: self.switch_at(x - 1, y),
                port: PORT_EAST,
            },
            PORT_NORTH if y + 1 < self.dim => Peer::Switch {
                switch: self.switch_at(x, y + 1),
                port: PORT_SOUTH,
            },
            PORT_SOUTH if y > 0 => Peer::Switch {
                switch: self.switch_at(x, y - 1),
                port: PORT_NORTH,
            },
            _ => Peer::None,
        }
    }

    /// Dimension-order routing: the output port switch `s` uses toward the
    /// node attached to `dest_switch`. X is corrected first, then Y; at the
    /// destination switch the host port is returned.
    pub(crate) fn route(&self, s: usize, dest_switch: usize) -> usize {
        let (x, y) = self.coords(s);
        let (dx, dy) = self.coords(dest_switch);
        if x < dx {
            PORT_EAST
        } else if x > dx {
            PORT_WEST
        } else if y < dy {
            PORT_NORTH
        } else if y > dy {
            PORT_SOUTH
        } else {
            PORT_HOST
        }
    }

    /// Hop count (number of switches traversed) from node `a` to node `b`.
    #[cfg(test)]
    pub(crate) fn hops(&self, a: usize, b: usize) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by) + 1
    }
}

impl Topology for MeshTopology {
    fn name(&self) -> &'static str {
        "mesh"
    }

    fn num_switches(&self) -> usize {
        MeshTopology::num_switches(self)
    }

    fn num_nodes(&self) -> usize {
        MeshTopology::num_switches(self)
    }

    fn radix(&self) -> usize {
        5
    }

    fn host_attachment(&self, node: usize) -> (usize, usize) {
        (node, PORT_HOST)
    }

    fn peer(&self, switch: usize, port: usize) -> Peer {
        MeshTopology::peer(self, switch, port)
    }

    /// Dimension-order routing is single-path: the hash is ignored.
    fn route_flow(&self, switch: usize, dst: usize, _flow_hash: u64) -> usize {
        MeshTopology::route(self, switch, dst)
    }

    fn diameter(&self) -> usize {
        2 * (self.dim - 1) + 1
    }
}

/// Generic invariant checks any [`Topology`] implementation must pass.
/// Unit tests run them against small instances of every generator; the
/// corpus-backed property test (`tests/topology_routing.rs`) samples
/// random instances and endpoint pairs.
pub mod conformance {
    use super::{Peer, Topology};

    /// Every switch-to-switch link is symmetric: the peer's peer is the
    /// original `(switch, port)`.
    pub fn peers_are_symmetric(t: &dyn Topology) {
        for s in 0..t.num_switches() {
            for p in 0..t.radix() {
                if let Peer::Switch { switch, port } = t.peer(s, p) {
                    assert!(switch < t.num_switches(), "peer out of range at {s}:{p}");
                    assert_eq!(
                        t.peer(switch, port),
                        Peer::Switch { switch: s, port: p },
                        "asymmetric link {s}:{p} <-> {switch}:{port} on {}",
                        t.name()
                    );
                }
            }
        }
    }

    /// Each node's attachment port faces exactly that node's HCA, no two
    /// nodes share a `(switch, port)`, and conversely every port facing
    /// an HCA is that node's attachment (the engine tells edge ports from
    /// `peer` alone).
    pub fn hosts_attach_uniquely(t: &dyn Topology) {
        let mut seen = std::collections::BTreeSet::new();
        for node in 0..t.num_nodes() {
            let (s, p) = t.host_attachment(node);
            assert!(s < t.num_switches() && p < t.radix());
            assert_eq!(
                t.peer(s, p),
                Peer::Hca { node },
                "attachment of node {node} disagrees with peer() on {}",
                t.name()
            );
            assert!(seen.insert((s, p)), "shared attachment {s}:{p}");
        }
        for s in 0..t.num_switches() {
            for p in 0..t.radix() {
                if let Peer::Hca { node } = t.peer(s, p) {
                    assert!(node < t.num_nodes(), "port {s}:{p} faces no node");
                    assert_eq!(
                        t.host_attachment(node),
                        (s, p),
                        "port {s}:{p} faces node {node}, which attaches elsewhere on {}",
                        t.name()
                    );
                }
            }
        }
    }

    /// Walk the route from `src` to `dst` under `flow_hash`: it must
    /// reach `dst`'s attachment without revisiting a switch (loop-free)
    /// in at most [`Topology::diameter`] switches. Returns the switches
    /// traversed.
    pub fn route_is_sound(t: &dyn Topology, src: usize, dst: usize, flow_hash: u64) -> usize {
        let (mut s, _) = t.host_attachment(src);
        let (dsw, dport) = t.host_attachment(dst);
        let mut visited = vec![s];
        loop {
            let port = t.route_flow(s, dst, flow_hash);
            assert!(port < t.radix(), "route picked port {port} out of range");
            if s == dsw {
                assert_eq!(port, dport, "at dst switch the host port is returned");
                return visited.len();
            }
            match t.peer(s, port) {
                Peer::Switch { switch, .. } => s = switch,
                other => panic!(
                    "{}: route {src}->{dst} (hash {flow_hash:#x}) fell off at {s}:{port}: {other:?}",
                    t.name()
                ),
            }
            assert!(
                !visited.contains(&s),
                "{}: route {src}->{dst} (hash {flow_hash:#x}) loops back to switch {s}",
                t.name()
            );
            visited.push(s);
            assert!(
                visited.len() <= t.diameter(),
                "{}: route {src}->{dst} (hash {flow_hash:#x}) exceeds diameter {}",
                t.name(),
                t.diameter()
            );
        }
    }

    /// All-pairs routing soundness for a sample of flow hashes.
    pub fn routing_reaches_everyone(t: &dyn Topology, hashes: &[u64]) {
        for src in 0..t.num_nodes() {
            for dst in 0..t.num_nodes() {
                for &h in hashes {
                    route_is_sound(t, src, dst, h);
                }
            }
        }
    }

    /// The full conformance suite (all-pairs routing over `hashes`).
    #[cfg(test)]
    pub(crate) fn check_all(t: &dyn Topology, hashes: &[u64]) {
        peers_are_symmetric(t);
        hosts_attach_uniquely(t);
        routing_reaches_everyone(t, hashes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let t = MeshTopology::new(4);
        for s in 0..16 {
            let (x, y) = t.coords(s);
            assert_eq!(t.switch_at(x, y), s);
        }
    }

    /// Link symmetry, parametric over the side length (satellite fix: the
    /// old test hardcoded dim = 4) and shared with the generator
    /// conformance suite.
    #[test]
    fn peers_are_symmetric() {
        for dim in 1..=6 {
            conformance::peers_are_symmetric(&MeshTopology::new(dim));
        }
    }

    #[test]
    fn edges_have_no_peer() {
        let t = MeshTopology::new(4);
        assert_eq!(t.peer(0, PORT_WEST), Peer::None);
        assert_eq!(t.peer(0, PORT_SOUTH), Peer::None);
        assert_eq!(t.peer(15, PORT_EAST), Peer::None);
        assert_eq!(t.peer(15, PORT_NORTH), Peer::None);
    }

    #[test]
    fn host_port_reaches_hca() {
        let t = MeshTopology::new(4);
        assert_eq!(MeshTopology::peer(&t, 7, PORT_HOST), Peer::Hca { node: 7 });
        assert_eq!(Topology::host_attachment(&t, 7), (7, PORT_HOST));
    }

    /// Routing reaches every destination, parametric over the side length.
    /// The hop bound is the mesh diameter `2·(dim−1)` switch-to-switch
    /// transitions — the satellite fix for the old `hops <= 6`, which was
    /// only valid for dim = 4.
    #[test]
    fn routing_reaches_destination() {
        for dim in 1..=6 {
            let t = MeshTopology::new(dim);
            let n = MeshTopology::num_switches(&t);
            for src in 0..n {
                for dst in 0..n {
                    let mut s = src;
                    let mut hops = 0;
                    loop {
                        let port = t.route(s, dst);
                        if port == PORT_HOST {
                            break;
                        }
                        match MeshTopology::peer(&t, s, port) {
                            Peer::Switch { switch, .. } => s = switch,
                            other => panic!("route fell off the mesh: {other:?}"),
                        }
                        hops += 1;
                        assert!(
                            hops <= 2 * (dim - 1),
                            "route too long {src}->{dst} at dim {dim}"
                        );
                    }
                    assert_eq!(s, dst, "route {src}->{dst} ended at {s}");
                    assert_eq!(
                        hops + 1,
                        t.hops(src, dst),
                        "hop count mismatch {src}->{dst}"
                    );
                }
            }
        }
    }

    /// The same invariants through the trait-level conformance suite —
    /// what the fat-tree generator also runs.
    #[test]
    fn mesh_passes_trait_conformance() {
        for dim in 1..=5 {
            conformance::check_all(&MeshTopology::new(dim), &[0, 1, flow_hash(3, 7)]);
        }
    }

    #[test]
    fn x_is_corrected_before_y() {
        let t = MeshTopology::new(4);
        // From (0,0) to (3,3): first hop must be EAST.
        assert_eq!(t.route(0, 15), PORT_EAST);
        // From (3,0) to (3,3): X equal, go NORTH.
        assert_eq!(t.route(3, 15), PORT_NORTH);
    }

    #[test]
    fn hops_examples() {
        let t = MeshTopology::new(4);
        assert_eq!(t.hops(0, 0), 1, "self traffic still crosses own switch");
        assert_eq!(t.hops(0, 3), 4);
        assert_eq!(t.hops(0, 15), 7);
        // The trait-level walk agrees with the closed form (single path,
        // so the hash is irrelevant).
        assert_eq!(t.hops_on_path(0, 15, 0xDEAD), 7);
    }

    #[test]
    fn flow_hash_is_deterministic_and_spreads() {
        assert_eq!(flow_hash(3, 7), flow_hash(3, 7));
        assert_ne!(flow_hash(3, 7), flow_hash(7, 3));
        // Low bits vary across neighboring flows (they steer ECMP).
        let lows: std::collections::BTreeSet<u64> =
            (0..16).map(|d| flow_hash(0, d) & 0xF).collect();
        assert!(lows.len() > 4, "hash low bits too clustered: {lows:?}");
    }
}
