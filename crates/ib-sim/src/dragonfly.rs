//! Dragonfly generator (Kim, Dally, Scott, Abts, ISCA'08): `G` groups of
//! `a` routers, each router carrying `p` hosts and `h` global links, with
//! every pair of routers in a group directly connected and every pair of
//! groups joined by exactly one global link (the balanced `G = a·h + 1`
//! configuration).
//!
//! Two routing modes share the generator:
//!
//! * **minimal** — host → local hop to the gateway router → global link →
//!   local hop to the destination router → host (≤ 4 routers);
//! * **Valiant** — a waypoint group is drawn from the flow hash and the
//!   packet routes minimally to the waypoint group, then minimally to the
//!   destination (≤ 6 routers). The rule is stateless per-switch: a
//!   router in neither the waypoint nor the destination group forwards
//!   toward the waypoint; once the packet is in either, it forwards
//!   toward the destination. The group sequence `src → waypoint → dst`
//!   strictly progresses, so routes stay loop-free with no in-packet
//!   state.

use crate::topology::{Peer, Topology};

/// A balanced dragonfly. Router `r` sits in group `r/a` with local index
/// `l = r%a`; its ports are `0..p` hosts, `p..p+a-1` local links (to the
/// other routers of the group in local-index order), then `h` global
/// links. Router `l`'s global link `gp` is the group's global index
/// `q = l·h + gp`, wired to group `(g + q + 1) mod G` — and the matching
/// reverse index is `a·h − 1 − q`, which is what makes the global wiring
/// symmetric.
#[derive(Debug, Clone)]
pub struct Dragonfly {
    a: usize,
    p: usize,
    h: usize,
    valiant: bool,
}

impl Dragonfly {
    /// A balanced dragonfly with `a` routers per group, `p` hosts per
    /// router, `h` global links per router: `G = a·h + 1` groups,
    /// `G·a·p` hosts. `valiant` selects non-minimal routing.
    pub fn new(a: usize, p: usize, h: usize, valiant: bool) -> Self {
        assert!(a >= 1 && p >= 1 && h >= 1);
        let g = a * h + 1;
        assert!(g * a * p <= 0xFFFE, "LIDs are 16-bit");
        Dragonfly { a, p, h, valiant }
    }

    /// Number of groups.
    pub(crate) fn groups(&self) -> usize {
        self.a * self.h + 1
    }

    /// The local port on router-local-index `l` that reaches local index
    /// `m` of the same group (`l != m`).
    fn local_port(&self, l: usize, m: usize) -> usize {
        debug_assert_ne!(l, m);
        self.p + if m < l { m } else { m - 1 }
    }

    /// The `(local index, global port)` owning the group's global index
    /// `q`.
    fn global_owner(&self, q: usize) -> (usize, usize) {
        (q / self.h, self.p + (self.a - 1) + q % self.h)
    }

    /// The group's global index that reaches group `to` from group `from`.
    fn global_index_toward(&self, from: usize, to: usize) -> usize {
        debug_assert_ne!(from, to);
        let g = self.groups();
        (to + g - from - 1) % g
    }

    /// One minimal-routing step from router `(g, l)` toward group `dg`
    /// (`dg != g`): the output port, either the global port if this router
    /// owns the link or the local port toward the owner.
    fn step_toward_group(&self, g: usize, l: usize, dg: usize) -> usize {
        let q = self.global_index_toward(g, dg);
        let (owner, gport) = self.global_owner(q);
        if l == owner {
            gport
        } else {
            self.local_port(l, owner)
        }
    }
}

impl Topology for Dragonfly {
    fn name(&self) -> &'static str {
        if self.valiant {
            "dragonfly-valiant"
        } else {
            "dragonfly"
        }
    }

    fn num_switches(&self) -> usize {
        self.groups() * self.a
    }

    fn num_nodes(&self) -> usize {
        self.groups() * self.a * self.p
    }

    fn radix(&self) -> usize {
        self.p + (self.a - 1) + self.h
    }

    fn host_attachment(&self, node: usize) -> (usize, usize) {
        (node / self.p, node % self.p)
    }

    fn peer(&self, switch: usize, port: usize) -> Peer {
        let (g, l) = (switch / self.a, switch % self.a);
        if port < self.p {
            Peer::Hca {
                node: switch * self.p + port,
            }
        } else if port < self.p + self.a - 1 {
            // Local link j reaches local index j (skipping self).
            let j = port - self.p;
            let m = if j < l { j } else { j + 1 };
            Peer::Switch {
                switch: g * self.a + m,
                port: self.local_port(m, l),
            }
        } else {
            // Global link: group index q = l·h + gp lands in group
            // (g + q + 1) mod G on the owner of the reverse index.
            let q = l * self.h + (port - self.p - (self.a - 1));
            let t = (g + q + 1) % self.groups();
            let (owner, gport) = self.global_owner(self.a * self.h - 1 - q);
            Peer::Switch {
                switch: t * self.a + owner,
                port: gport,
            }
        }
    }

    fn route_flow(&self, switch: usize, dst: usize, flow_hash: u64) -> usize {
        let (g, l) = (switch / self.a, switch % self.a);
        let dr = dst / self.p;
        let (dg, dl) = (dr / self.a, dr % self.a);

        if self.valiant {
            // Waypoint group from the hash; outside the waypoint and
            // destination groups, detour toward the waypoint first.
            let wg = (flow_hash % self.groups() as u64) as usize;
            if g != dg && g != wg {
                return self.step_toward_group(g, l, wg);
            }
        }
        if switch == dr {
            dst % self.p
        } else if g == dg {
            self.local_port(l, dl)
        } else {
            self.step_toward_group(g, l, dg)
        }
    }

    /// Global links close a cycle over the group graph, so they are the
    /// dateline: crossing one escalates the packet's VL, giving minimal
    /// routing its 2 virtual channels and Valiant its 3 (Kim & Dally's
    /// dragonfly deadlock-avoidance scheme).
    fn is_dateline(&self, _switch: usize, port: usize) -> bool {
        port >= self.p + (self.a - 1)
    }

    fn diameter(&self) -> usize {
        // Minimal: router-gateway-entry-router. Valiant adds the waypoint
        // group's entry and gateway.
        if self.valiant {
            6
        } else {
            4
        }
    }

    /// One domain per group: all `a·(a−1)` local links stay internal;
    /// only the global (dateline) links cross domains.
    fn partition(&self, max_domains: usize) -> Vec<usize> {
        let cap = max_domains.max(1);
        (0..self.num_switches())
            .map(|s| (s / self.a) % cap)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{conformance, flow_hash};

    #[test]
    fn size_formulas() {
        for (a, p, h) in [(1usize, 1usize, 1usize), (2, 2, 1), (4, 2, 2), (8, 4, 4)] {
            let t = Dragonfly::new(a, p, h, false);
            assert_eq!(t.groups(), a * h + 1);
            assert_eq!(t.num_switches(), (a * h + 1) * a);
            assert_eq!(t.num_nodes(), (a * h + 1) * a * p);
            assert_eq!(t.radix(), p + a - 1 + h);
        }
        // The fig_scale top arm: 33 groups, 264 routers, 1056 hosts.
        assert_eq!(Dragonfly::new(8, 4, 4, false).num_nodes(), 1056);
    }

    #[test]
    fn passes_trait_conformance_minimal_and_valiant() {
        for valiant in [false, true] {
            for (a, p, h) in [(1usize, 1usize, 1usize), (2, 2, 1), (4, 2, 2)] {
                let t = Dragonfly::new(a, p, h, valiant);
                conformance::check_all(&t, &[0, 1, 0xFFFF_FFFF, flow_hash(0, 5)]);
            }
        }
    }

    #[test]
    fn big_instance_spot_checks() {
        for valiant in [false, true] {
            let t = Dragonfly::new(8, 4, 4, valiant);
            conformance::peers_are_symmetric(&t);
            conformance::hosts_attach_uniquely(&t);
            for (src, dst) in [(0, 1055), (513, 2), (1000, 999), (7, 7)] {
                for h in [0u64, 3, flow_hash(src, dst)] {
                    conformance::route_is_sound(&t, src, dst, h);
                }
            }
        }
    }

    #[test]
    fn partition_is_per_group() {
        use crate::topology::Partition;
        let t = Dragonfly::new(4, 2, 2, false);
        let p = Partition::of(&t, usize::MAX);
        assert_eq!(p.num_domains, t.groups());
        // Routers of one group share a domain; the next group differs.
        assert_eq!(p.domain_of[0], p.domain_of[3]);
        assert_ne!(p.domain_of[3], p.domain_of[4]);
        let (internal, cross) = p.link_census(&t);
        // All local links internal (a·(a−1) directed per group); every
        // global link crosses (h directed per router).
        assert_eq!(internal, t.groups() * 4 * 3);
        assert_eq!(cross, t.num_switches() * 2);
        // Cross-domain links are exactly the dateline links.
        for s in 0..t.num_switches() {
            for port in 0..t.radix() {
                if let Peer::Switch { switch, .. } = t.peer(s, port) {
                    assert_eq!(
                        p.domain_of[s] != p.domain_of[switch],
                        t.is_dateline(s, port)
                    );
                }
            }
        }
    }

    #[test]
    fn minimal_hops_by_locality() {
        let t = Dragonfly::new(4, 2, 2, false);
        // Same router: hosts 0 and 1.
        assert_eq!(t.hops_on_path(0, 1, 9), 1);
        // Same group, different router.
        assert_eq!(t.hops_on_path(0, 2, 9), 2);
        // Different group: at most 4 routers, at least 2.
        let hops = t.hops_on_path(0, t.num_nodes() - 1, 9);
        assert!((2..=4).contains(&hops), "cross-group hops {hops}");
    }

    #[test]
    fn valiant_detours_but_stays_bounded() {
        let t = Dragonfly::new(4, 2, 2, true);
        let min = Dragonfly::new(4, 2, 2, false);
        let (src, dst) = (0, t.num_nodes() - 1);
        let mut detoured = false;
        for hash in 0..32u64 {
            let v = t.hops_on_path(src, dst, hash);
            assert!(v <= 6);
            if v > min.hops_on_path(src, dst, hash) {
                detoured = true;
            }
        }
        assert!(detoured, "no hash ever took a non-minimal path");
    }

    #[test]
    fn valiant_spreads_across_groups() {
        // The waypoint group varies with the hash: count distinct first
        // exit groups from the source.
        let t = Dragonfly::new(4, 2, 2, true);
        let groups: std::collections::BTreeSet<usize> = (0..64u64)
            .map(|hash| {
                let (mut s, _) = t.host_attachment(0);
                let dst = t.num_nodes() - 1;
                loop {
                    let port = t.route_flow(s, dst, hash);
                    match t.peer(s, port) {
                        Peer::Switch { switch, .. } => {
                            s = switch;
                            if s / 4 != 0 {
                                return s / 4; // first group after leaving g0
                            }
                        }
                        other => panic!("fell off: {other:?}"),
                    }
                }
            })
            .collect();
        assert!(groups.len() > 3, "Valiant too narrow: {groups:?}");
    }
}
