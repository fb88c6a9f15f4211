//! Routing soundness property over *randomly generated* fabric
//! instances: for any mesh / fat-tree the generators can
//! produce, and any flow hash, every route must be connected (reaches the
//! destination's host port), loop-free (never revisits a switch), and
//! diameter-bounded — the `ib_sim::topology::conformance` invariants,
//! driven here across the parameter space instead of the handful of
//! fixed instances the unit tests pin.
//!
//! Driven by `ib_runtime::check`: cases generate from a deterministic
//! seed (override with `CHECK_SEED=<u64>` to replay a failure), failing
//! cases shrink toward a minimal instance, and counterexamples persist
//! to `tests/corpus/`.

use ib_runtime::check;
use ib_sim::topology::conformance;
use ib_sim::{FatTree, MeshTopology, Topology};

/// One generated fabric instance plus the flow hashes to probe its
/// multi-path spread with.
#[derive(Debug, Clone)]
struct Case {
    kind: Kind,
    hashes: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Mesh { dim: usize },
    FatTree { k: usize },
}

impl Kind {
    fn build(self) -> Box<dyn Topology> {
        match self {
            Kind::Mesh { dim } => Box::new(MeshTopology::new(dim)),
            Kind::FatTree { k } => Box::new(FatTree::new(k)),
        }
    }
}

fn gen_case(g: &mut check::Gen) -> Case {
    let kind = if g.bool() {
        Kind::Mesh {
            dim: g.usize_in(1..9),
        }
    } else {
        // Even arities only; k = 10 → 250 hosts keeps the full
        // reachability sweep affordable.
        Kind::FatTree {
            k: 2 * g.usize_in(1..6),
        }
    };
    let hashes = (0..g.usize_in(1..9)).map(|_| g.u64()).collect();
    Case { kind, hashes }
}

/// Shrink toward the smallest instance that still fails: step each
/// parameter down, then thin the probe hashes.
fn shrink_case(c: &Case) -> Vec<Case> {
    let smaller = match c.kind {
        Kind::Mesh { dim } if dim > 1 => Some(Kind::Mesh { dim: dim - 1 }),
        Kind::FatTree { k } if k > 2 => Some(Kind::FatTree { k: k - 2 }),
        _ => None,
    };
    let mut out: Vec<Case> = smaller
        .into_iter()
        .map(|kind| Case {
            kind,
            hashes: c.hashes.clone(),
        })
        .collect();
    if c.hashes.len() > 1 {
        out.push(Case {
            kind: c.kind,
            hashes: c.hashes[..c.hashes.len() / 2].to_vec(),
        });
    }
    out
}

#[test]
fn generated_fabrics_route_soundly() {
    check::run(
        "topology_routing::generated_fabrics_route_soundly",
        96,
        gen_case,
        shrink_case,
        |case| {
            let t = case.kind.build();
            let t: &dyn Topology = &*t;
            conformance::peers_are_symmetric(t);
            conformance::hosts_attach_uniquely(t);
            conformance::lids_round_trip(t);
            let n = t.num_nodes();
            if n * n * case.hashes.len() <= 200_000 {
                // Small instance: every (src, dst, hash) triple.
                conformance::routing_reaches_everyone(t, &case.hashes);
            } else {
                // Big instance: a deterministic sample of pairs per hash
                // (stride chosen coprime-ish with n to spread sources).
                for (i, &h) in case.hashes.iter().enumerate() {
                    let stride = (n / 7).max(1) | 1;
                    let mut src = (i * 13) % n;
                    for _ in 0..64 {
                        let dst = (src + stride) % n;
                        if src != dst {
                            let hops = conformance::route_is_sound(t, src, dst, h);
                            assert!(
                                hops <= t.diameter(),
                                "{}: {src}->{dst} took {hops} hops, diameter {}",
                                t.name(),
                                t.diameter()
                            );
                        }
                        src = (src + stride + 1) % n;
                    }
                }
            }
        },
    );
}

/// The ECMP hash steers paths but must never steer them apart
/// for the *same* flow: route choice is a pure function of the hash.
#[test]
fn path_choice_is_hash_deterministic() {
    check::run(
        "topology_routing::path_choice_is_hash_deterministic",
        48,
        gen_case,
        shrink_case,
        |case| {
            let t = case.kind.build();
            let n = t.num_nodes();
            for &h in &case.hashes {
                let (src, dst) = ((h as usize) % n, (h as usize >> 16) % n);
                if src == dst {
                    continue;
                }
                let a = conformance::route_is_sound(&*t, src, dst, h);
                let b = conformance::route_is_sound(&*t, src, dst, h);
                assert_eq!(a, b, "{}: hop count must be stable", t.name());
                assert_eq!(
                    t.hops_on_path(src, dst, h),
                    a,
                    "{}: hops_on_path agrees with the conformance walk",
                    t.name()
                );
            }
        },
    );
}
