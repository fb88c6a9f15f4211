//! # ib-flow
//!
//! A flow-level analytic fast path for the fabric: instead of simulating
//! every packet, credit and arbitration slot, each transfer is a *fluid
//! flow* pushing bytes along its routed path, and link bandwidth is split
//! by **max-min fairness** (progressive filling / water-filling — the
//! dslab `network`/`throughput-model` idiom). Rates are recomputed at
//! every flow-completion epoch, so a run costs `O(epochs · links · flows)`
//! arithmetic rather than millions of discrete events — the regime where
//! "millions of users" experiments become affordable.
//!
//! The model shares everything observable with the packet engine:
//!
//! * the same [`Topology`] object, walked with the same
//!   [`flow_hash`]-steered [`Topology::route_flow`] — so a flow takes the
//!   *identical* path in both engines;
//! * the same directed-link identity convention as the engine's fault
//!   layer (`node` for the HCA uplink, `n_nodes + switch·radix + port`
//!   for switch outputs);
//! * the same [`SimConfig`] capacity and latency constants.
//!
//! ## Assumptions and limits
//!
//! * **Fluid approximation** — no packetization, so MTU-granularity
//!   effects (head-of-line blocking, credit stalls, VL arbitration) are
//!   invisible; accuracy improves as flows grow past a few MTUs.
//! * **All flows start at t = 0** and run until their bytes drain; the
//!   epoch loop advances directly between completion instants.
//! * **Single traffic class** — flows model best-effort bulk transfers;
//!   there is no priority preemption between classes.
//! * **No faults, no enforcement** — drops and P_Key filtering are
//!   packet-level mechanisms; use the packet engine (the ground truth)
//!   when they matter.
//!
//! The `crossval` integration test pins the two engines together:
//! aggregate goodput on small meshes must agree within tolerance.

use ib_sim::config::{LINK_GBPS, PROPAGATION_DELAY, SWITCH_LATENCY};
use ib_sim::{flow_hash, Peer, SimConfig, Topology};

/// One finite transfer for the flow-level model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Source node.
    pub src: usize,
    /// Destination node (≠ `src`).
    pub dst: usize,
    /// Transfer size in bytes.
    pub bytes: u64,
}

/// Results of a flow-level run.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Per-flow completion time in ps, in input order: the max-min
    /// bandwidth term plus the path's store-and-forward latency.
    pub completions_ps: Vec<f64>,
    /// Time the last flow completes, ps.
    pub makespan_ps: f64,
    /// Total bytes delivered per unit makespan, expressed in Gb/s.
    pub aggregate_goodput_gbps: f64,
    /// Mean utilization over links that carried any traffic
    /// (`bytes / (capacity · makespan)`).
    pub mean_link_utilization: f64,
    /// Utilization of the busiest link.
    pub max_link_utilization: f64,
    /// Rate-recomputation epochs the run took (one per distinct
    /// completion instant).
    pub epochs: usize,
}

/// The directed links a flow crosses, under the engine's link-identity
/// convention: the source HCA's uplink is link `src`, and every switch
/// output (including the final switch → HCA hop) is
/// `n_nodes + switch·radix + port`.
fn path_links(topo: &dyn Topology, src: usize, dst: usize) -> Vec<usize> {
    let n_nodes = topo.num_nodes();
    let radix = topo.radix();
    let hash = flow_hash(src, dst);
    let mut links = vec![src];
    let (mut s, _) = topo.host_attachment(src);
    let (dsw, _) = topo.host_attachment(dst);
    loop {
        let port = topo.route_flow(s, dst, hash);
        links.push(n_nodes + s * radix + port);
        if s == dsw {
            return links; // that port was the host port
        }
        match topo.peer(s, port) {
            Peer::Switch { switch, .. } => s = switch,
            other => panic!("route {src}->{dst} fell off the fabric: {other:?}"),
        }
    }
}

/// Max-min fair rates (bytes/ps) for `active` flows over shared links of
/// capacity `cap` bytes/ps each, by progressive filling: repeatedly find
/// the bottleneck link (smallest remaining-capacity-per-unfrozen-flow
/// share, lowest index on ties — deterministic), grant that share to every
/// unfrozen flow crossing it, freeze them, and subtract. Returns rates
/// indexed like `active`.
fn maxmin_rates(paths: &[Vec<usize>], active: &[usize], n_links: usize, cap: f64) -> Vec<f64> {
    let mut load = vec![0u32; n_links];
    let mut cap_left = vec![cap; n_links];
    for &f in active {
        for &l in &paths[f] {
            load[l] += 1;
        }
    }
    let mut rates = vec![0.0; active.len()];
    let mut frozen = vec![false; active.len()];
    let mut unfrozen = active.len();
    while unfrozen > 0 {
        let mut share = f64::INFINITY;
        let mut at = usize::MAX;
        for (l, &n) in load.iter().enumerate() {
            if n > 0 {
                let s = cap_left[l].max(0.0) / n as f64;
                if s < share {
                    share = s;
                    at = l;
                }
            }
        }
        debug_assert!(at != usize::MAX, "unfrozen flows must cross loaded links");
        for (i, &f) in active.iter().enumerate() {
            if !frozen[i] && paths[f].contains(&at) {
                frozen[i] = true;
                rates[i] = share;
                unfrozen -= 1;
                for &l in &paths[f] {
                    load[l] -= 1;
                    cap_left[l] -= share;
                }
            }
        }
    }
    rates
}

/// Run the flow-level model: `flows` all start at t = 0 over `topo`, with
/// the MTU from `cfg` and the link rate and latencies of
/// [`ib_sim::config`]. Deterministic —
/// same inputs, bit-identical report.
pub fn simulate(topo: &dyn Topology, cfg: &SimConfig, flows: &[Flow]) -> FlowReport {
    assert!(
        flows
            .iter()
            .all(|f| f.src != f.dst && f.src < topo.num_nodes() && f.dst < topo.num_nodes()),
        "flows must join distinct in-range nodes"
    );
    let n_links = topo.num_nodes() + topo.num_switches() * topo.radix();
    // Gb/s → bytes per picosecond.
    let cap = LINK_GBPS / 8000.0;
    let paths: Vec<Vec<usize>> = flows
        .iter()
        .map(|f| path_links(topo, f.src, f.dst))
        .collect();

    let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes as f64).collect();
    let mut bw_done = vec![0.0f64; flows.len()];
    let mut link_bytes = vec![0.0f64; n_links];
    let mut t = 0.0f64;
    let mut epochs = 0usize;

    loop {
        let active: Vec<usize> = (0..flows.len()).filter(|&i| remaining[i] > 0.0).collect();
        if active.is_empty() {
            break;
        }
        epochs += 1;
        let rates = maxmin_rates(&paths, &active, n_links, cap);
        // Advance to the next completion instant.
        let dt = active
            .iter()
            .zip(&rates)
            .map(|(&f, &r)| remaining[f] / r)
            .fold(f64::INFINITY, f64::min);
        debug_assert!(dt.is_finite() && dt > 0.0, "an active flow must progress");
        t += dt;
        for (i, &f) in active.iter().enumerate() {
            let moved = (rates[i] * dt).min(remaining[f]);
            remaining[f] -= moved;
            for &l in &paths[f] {
                link_bytes[l] += moved;
            }
            // Anything under half a byte is completion-epoch float noise.
            if remaining[f] < 0.5 {
                remaining[f] = 0.0;
                bw_done[f] = t;
            }
        }
    }

    // Store-and-forward path latency added on top of the bandwidth term:
    // each switch contributes its pipeline latency plus one MTU
    // serialization, each link one propagation delay.
    let mtu_tx = ib_sim::time::wire_time_ps(cfg.mtu_bytes) as f64;
    let completions_ps: Vec<f64> = flows
        .iter()
        .zip(&bw_done)
        .map(|(f, &done)| {
            let switches = topo.hops_on_path(f.src, f.dst, flow_hash(f.src, f.dst)) as f64;
            done + switches * (SWITCH_LATENCY as f64 + mtu_tx)
                + (switches + 1.0) * PROPAGATION_DELAY as f64
        })
        .collect();
    let makespan_ps = completions_ps.iter().fold(0.0f64, |a, &b| a.max(b));
    let total_bytes: f64 = flows.iter().map(|f| f.bytes as f64).sum();
    // bits per ps = Tb/s; ×1000 → Gb/s.
    let aggregate_goodput_gbps = if makespan_ps > 0.0 {
        total_bytes * 8.0 / makespan_ps * 1000.0
    } else {
        0.0
    };
    let used: Vec<f64> = link_bytes
        .iter()
        .filter(|&&b| b > 0.0)
        .map(|&b| b / (cap * makespan_ps))
        .collect();
    FlowReport {
        completions_ps,
        makespan_ps,
        aggregate_goodput_gbps,
        mean_link_utilization: if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<f64>() / used.len() as f64
        },
        max_link_utilization: used.iter().fold(0.0f64, |a, &b| a.max(b)),
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_sim::{MeshTopology, TopoSpec};

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    const CAP: f64 = LINK_GBPS / 8000.0; // bytes/ps

    /// The max-min fair starting rates (bytes/ps) for `flows` over `topo`:
    /// the first epoch's allocation in [`simulate`].
    fn fair_rates(topo: &dyn Topology, flows: &[Flow]) -> Vec<f64> {
        let n_links = topo.num_nodes() + topo.num_switches() * topo.radix();
        let paths: Vec<Vec<usize>> = flows
            .iter()
            .map(|f| path_links(topo, f.src, f.dst))
            .collect();
        let active: Vec<usize> = (0..flows.len()).collect();
        maxmin_rates(&paths, &active, n_links, CAP)
    }

    #[test]
    fn path_matches_engine_link_convention() {
        // Mesh node 0 → node 3 (same row): uplink 0, then east hops from
        // switches 0,1,2, then switch 3's host port.
        let t = MeshTopology::new(4);
        let links = path_links(&t, 0, 3);
        let radix = 5;
        let n = 16;
        assert_eq!(links[0], 0, "source uplink is link `src`");
        assert_eq!(links.len(), 5);
        // Final link is switch 3's host port (port 4).
        assert_eq!(links[4], n + 3 * radix + 4);
    }

    #[test]
    fn single_flow_gets_the_full_link() {
        let t = MeshTopology::new(4);
        let rates = fair_rates(
            &t,
            &[Flow {
                src: 0,
                dst: 3,
                bytes: 1 << 20,
            }],
        );
        assert!((rates[0] - CAP).abs() < 1e-12);
    }

    #[test]
    fn maxmin_is_not_just_equal_split() {
        // f0: 0→2 (crosses s0→s1 and s1→s2), f1: 0→1 (shares 0's uplink
        // and s0→s1), f2/f3: 1→2 (share s1→s2 with f0). The s1→s2 link has
        // 3 flows → bottleneck c/3 freezes f0, f2, f3; f1 then gets the
        // leftover 2c/3 on the shared segment.
        let t = MeshTopology::new(4);
        let flows = [
            Flow {
                src: 0,
                dst: 2,
                bytes: 1,
            },
            Flow {
                src: 0,
                dst: 1,
                bytes: 1,
            },
            Flow {
                src: 1,
                dst: 2,
                bytes: 1,
            },
            Flow {
                src: 1,
                dst: 2,
                bytes: 1,
            },
        ];
        let r = fair_rates(&t, &flows);
        assert!((r[0] - CAP / 3.0).abs() < 1e-15, "{r:?}");
        assert!((r[1] - 2.0 * CAP / 3.0).abs() < 1e-15, "{r:?}");
        assert!((r[2] - CAP / 3.0).abs() < 1e-15);
        assert!((r[3] - CAP / 3.0).abs() < 1e-15);
    }

    #[test]
    fn equal_flows_complete_together_and_fill_the_ring() {
        // A cyclic shift permutation: every flow same size, symmetric load.
        let t = MeshTopology::new(2);
        let flows: Vec<Flow> = (0..4)
            .map(|i| Flow {
                src: i,
                dst: (i + 1) % 4,
                bytes: 64 * 1024,
            })
            .collect();
        let rep = simulate(&t, &cfg(), &flows);
        assert_eq!(rep.completions_ps.len(), 4);
        assert!(rep.makespan_ps > 0.0);
        assert!(rep.max_link_utilization <= 1.0 + 1e-9);
        assert!(rep.epochs >= 1);
        // Bandwidth symmetry: neighbor-shift flows don't share links on a
        // 2×2 mesh, so each runs at full rate and the bandwidth terms are
        // equal; completions differ only by path latency (a 2-switch vs
        // 3-switch route ≈ 3.4 µs/hop), tiny next to the ~210 µs transfer.
        let spread = rep.completions_ps.iter().fold(0.0f64, |a, &b| a.max(b))
            - rep
                .completions_ps
                .iter()
                .fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(
            spread < 4e6,
            "completions within one hop of latency, spread {spread}"
        );
    }

    #[test]
    fn deterministic_bitwise() {
        // Multi-path (ECMP) fabric: every flow's path comes from its hash.
        let c = SimConfig {
            topology: TopoSpec::FatTree { k: 4 },
            ..cfg()
        };
        let t = c.build_topology();
        let flows: Vec<Flow> = (0..16)
            .map(|i| Flow {
                src: i,
                dst: (i + 5) % 16,
                bytes: 100_000 + i as u64,
            })
            .collect();
        let a = simulate(&*t, &c, &flows);
        let b = simulate(&*t, &c, &flows);
        assert_eq!(a.completions_ps, b.completions_ps);
        assert_eq!(a.makespan_ps, b.makespan_ps);
        assert_eq!(a.epochs, b.epochs);
    }

    #[test]
    fn epochs_track_distinct_completions() {
        // Two flows sharing nothing, very different sizes → 2 epochs (the
        // second recomputation happens after the small one drains).
        let t = MeshTopology::new(4);
        let flows = [
            Flow {
                src: 0,
                dst: 1,
                bytes: 1024,
            },
            Flow {
                src: 14,
                dst: 15,
                bytes: 1 << 20,
            },
        ];
        let rep = simulate(&t, &cfg(), &flows);
        assert_eq!(rep.epochs, 2);
        assert!(rep.completions_ps[0] < rep.completions_ps[1]);
    }
}
