//! k-ary fat-tree (folded Clos) generator — the canonical scale-out
//! datacenter fabric (Al-Fares et al., SIGCOMM'08 layout): `k` pods, each
//! with `k/2` edge and `k/2` aggregation switches, `(k/2)²` core switches,
//! `k³/4` hosts, every switch radix `k`.
//!
//! Routing is up/down (deadlock-free by construction: a packet climbs
//! toward a core, then only descends): the up-path choice at the edge and
//! aggregation layers is ECMP, selected deterministically from the flow
//! hash so one flow stays on one path while distinct flows spread over
//! all `(k/2)²` cores.

use crate::topology::{Peer, Topology};

/// A k-ary fat-tree. Switch ids: edge `pod·(k/2) + e` for `e` in
/// `0..k/2`, then aggregation at offset `k²/2`, then core at offset `k²`
/// (core `c` sits in "row" `c/(k/2)` — reachable from aggregation index
/// `a = c/(k/2)` of every pod). Host `n` lives in pod `n/(k²/4)` on edge
/// switch `(n/(k/2)) % (k/2)`, port `n % (k/2)`.
#[derive(Debug, Clone)]
pub struct FatTree {
    k: usize,
}

impl FatTree {
    /// A k-ary fat-tree (`k` even, ≥ 2): `k³/4` hosts on `5k²/4` switches.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even");
        assert!(k * k * k / 4 <= 0xFFFE, "LIDs are 16-bit");
        FatTree { k }
    }

    fn half(&self) -> usize {
        self.k / 2
    }

    fn edge(&self, pod: usize, e: usize) -> usize {
        pod * self.half() + e
    }

    fn agg(&self, pod: usize, a: usize) -> usize {
        self.k * self.half() + pod * self.half() + a
    }

    fn core(&self, c: usize) -> usize {
        self.k * self.k + c
    }

    /// `(pod, edge index, host port)` of a node.
    fn locate(&self, node: usize) -> (usize, usize, usize) {
        let half = self.half();
        (node / (half * half), (node / half) % half, node % half)
    }

    /// Which layer a switch id belongs to.
    fn layer(&self, s: usize) -> Layer {
        let half = self.half();
        if s < self.k * half {
            Layer::Edge {
                pod: s / half,
                e: s % half,
            }
        } else if s < self.k * self.k {
            let s = s - self.k * half;
            Layer::Agg {
                pod: s / half,
                a: s % half,
            }
        } else {
            Layer::Core {
                c: s - self.k * self.k,
            }
        }
    }
}

enum Layer {
    Edge { pod: usize, e: usize },
    Agg { pod: usize, a: usize },
    Core { c: usize },
}

impl Topology for FatTree {
    fn name(&self) -> &'static str {
        "fat-tree"
    }

    fn num_switches(&self) -> usize {
        // k²/2 edge + k²/2 agg + (k/2)² core.
        self.k * self.k + self.half() * self.half()
    }

    fn num_nodes(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    fn radix(&self) -> usize {
        self.k
    }

    fn host_attachment(&self, node: usize) -> (usize, usize) {
        let (pod, e, port) = self.locate(node);
        (self.edge(pod, e), port)
    }

    fn peer(&self, switch: usize, port: usize) -> Peer {
        let half = self.half();
        match self.layer(switch) {
            Layer::Edge { pod, e } => {
                if port < half {
                    Peer::Hca {
                        node: (pod * half + e) * half + port,
                    }
                } else {
                    // Up-link `u` to aggregation switch `u`, whose down
                    // port toward us is our edge index.
                    Peer::Switch {
                        switch: self.agg(pod, port - half),
                        port: e,
                    }
                }
            }
            Layer::Agg { pod, a } => {
                if port < half {
                    // Down port `q` to edge `q`; its up port toward us is
                    // `k/2 + a`.
                    Peer::Switch {
                        switch: self.edge(pod, port),
                        port: half + a,
                    }
                } else {
                    // Up-link `u` to core `a·(k/2) + u`, whose port toward
                    // this pod is the pod index.
                    Peer::Switch {
                        switch: self.core(a * half + (port - half)),
                        port: pod,
                    }
                }
            }
            Layer::Core { c } => {
                // Core `c` port `pod` reaches aggregation `c/(k/2)` of
                // that pod on its up port `k/2 + c%(k/2)`.
                Peer::Switch {
                    switch: self.agg(port, c / half),
                    port: half + c % half,
                }
            }
        }
    }

    fn route_flow(&self, switch: usize, dst: usize, flow_hash: u64) -> usize {
        let half = self.half();
        let (dpod, de, dport) = self.locate(dst);
        match self.layer(switch) {
            Layer::Edge { pod, e } => {
                if pod == dpod && e == de {
                    dport
                } else {
                    // ECMP up: the hash picks which aggregation switch.
                    half + (flow_hash as usize % half)
                }
            }
            Layer::Agg { pod, .. } => {
                if pod == dpod {
                    de
                } else {
                    // ECMP up: an independent hash window picks the core.
                    half + ((flow_hash >> 8) as usize % half)
                }
            }
            Layer::Core { .. } => dpod,
        }
    }

    fn diameter(&self) -> usize {
        // edge → agg → core → agg → edge.
        5
    }

    /// One domain per pod; core switch `c` joins pod `c % k`, spreading
    /// the core layer evenly. Every edge↔agg link is internal; only the
    /// agg↔core links cross (and even a core's link to "its" pod stays
    /// internal).
    fn partition(&self, max_domains: usize) -> Vec<usize> {
        let cap = max_domains.max(1);
        (0..self.num_switches())
            .map(|s| {
                let d = match self.layer(s) {
                    Layer::Edge { pod, .. } | Layer::Agg { pod, .. } => pod,
                    Layer::Core { c } => c % self.k,
                };
                d % cap
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{conformance, flow_hash};

    #[test]
    fn size_formulas() {
        for k in [2usize, 4, 8, 16] {
            let t = FatTree::new(k);
            assert_eq!(t.num_nodes(), k * k * k / 4);
            assert_eq!(t.num_switches(), 5 * k * k / 4);
            assert_eq!(t.radix(), k);
        }
        // The ≥1024-HCA acceptance point.
        assert_eq!(FatTree::new(16).num_nodes(), 1024);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_arity_rejected() {
        FatTree::new(3);
    }

    #[test]
    fn passes_trait_conformance() {
        for k in [2usize, 4] {
            conformance::check_all(&FatTree::new(k), &[0, 0x5555_5555, flow_hash(1, 2)]);
        }
        // k = 8 (128 hosts): symmetry + attachments everywhere, routing on
        // a hash sample.
        let t = FatTree::new(8);
        conformance::peers_are_symmetric(&t);
        conformance::hosts_attach_uniquely(&t);
        for (src, dst) in [(0, 127), (17, 99), (64, 63), (5, 5)] {
            conformance::route_is_sound(&t, src, dst, flow_hash(src, dst));
        }
    }

    #[test]
    fn hop_counts_by_locality() {
        let t = FatTree::new(4);
        // Same edge switch: 1 switch.
        assert_eq!(t.hops_on_path(0, 1, 7), 1);
        // Same pod, different edge: edge-agg-edge.
        assert_eq!(t.hops_on_path(0, 2, 7), 3);
        // Different pod: edge-agg-core-agg-edge.
        assert_eq!(t.hops_on_path(0, 15, 7), 5);
    }

    #[test]
    fn ecmp_spreads_across_cores() {
        // Distinct hashes must reach more than one core switch for the
        // same src/dst pair (k=8 ⇒ 16 cores).
        let t = FatTree::new(8);
        let cores: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| flow_hash(i, i + 64))
            .map(|h| {
                let (mut s, _) = t.host_attachment(0);
                // Walk up until we land on a core switch.
                loop {
                    let port = t.route_flow(s, 127, h);
                    match t.peer(s, port) {
                        Peer::Switch { switch, .. } => {
                            s = switch;
                            if s >= 64 {
                                return s; // core layer offset k² = 64
                            }
                        }
                        other => panic!("fell off: {other:?}"),
                    }
                }
            })
            .collect();
        assert!(cores.len() > 8, "ECMP too narrow: {cores:?}");
    }

    #[test]
    fn partition_is_per_pod() {
        use crate::topology::Partition;
        let t = FatTree::new(4);
        let p = Partition::of(&t, usize::MAX);
        assert_eq!(p.num_domains, 4);
        // Edge and agg switches of one pod share a domain; pods differ.
        assert_eq!(p.domain_of[t.edge(2, 0)], p.domain_of[t.agg(2, 1)]);
        assert_ne!(p.domain_of[t.edge(0, 0)], p.domain_of[t.edge(1, 0)]);
        // Core c joins pod c % k, so its home-pod link stays internal.
        assert_eq!(p.domain_of[t.core(1)], p.domain_of[t.edge(1, 0)]);
        let (internal, cross) = p.link_census(&t);
        // All 32 directed edge↔agg links are internal; of the 32 directed
        // agg↔core links each core keeps its home pod's pair.
        assert_eq!(internal, 32 + 8);
        assert_eq!(cross, 24);
        assert_eq!(p.min_cross_delay(&t, &|_, _| 7), Some(7));
    }

    #[test]
    fn same_flow_same_path() {
        let t = FatTree::new(4);
        let h = flow_hash(3, 14);
        let a = conformance::route_is_sound(&t, 3, 14, h);
        let b = conformance::route_is_sound(&t, 3, 14, h);
        assert_eq!(a, b);
    }
}
