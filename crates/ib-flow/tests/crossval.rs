//! Cross-validation: the flow-level analytic model against the packet
//! engine (the ground truth) on small meshes. Both engines route with the
//! same `Topology::route_flow` + `flow_hash`, so a flow takes the same
//! path in both; the fluid approximation should then land within a
//! store-and-forward-shaped tolerance of the packet numbers on bulk
//! transfers. This is the gate that keeps `fig_scale`'s fast-path sweeps
//! honest.

use ib_flow::{simulate, Flow};
use ib_sim::{SimConfig, SimTime, Simulator, TopoSpec};

/// Flows big enough that bandwidth dominates per-packet latency:
/// 128 KiB = 128 MTU-sized packets at the default 1 KiB MTU.
const FLOW_BYTES: u64 = 128 * 1024;

/// Relative disagreement allowed between the engines. The fluid model
/// ignores credit stalls, VL arbitration slots and packet quantization,
/// each worth a few percent on a 4×4 mesh.
const TOLERANCE: f64 = 0.25;

fn crossval_cfg(topology: TopoSpec) -> SimConfig {
    SimConfig {
        topology,
        // One partition so the receive-side P_Key check passes and flows
        // can complete; no background traffic so the flows are the only
        // load in either engine.
        num_partitions: 1,
        ..SimConfig::default()
    }
}

fn ring_flows(n: usize) -> Vec<Flow> {
    (0..n)
        .map(|i| Flow {
            src: i,
            dst: (i + 1) % n,
            bytes: FLOW_BYTES,
        })
        .collect()
}

/// Run the packet engine on the same flow set and return
/// (per-flow completion ps, makespan ps).
fn packet_reference(cfg: &SimConfig, flows: &[Flow]) -> (Vec<f64>, f64) {
    let mut cfg = cfg.clone();
    cfg.traffic.realtime_load = 0.0;
    cfg.traffic.best_effort_load = 0.0;
    let mut sim = Simulator::new(cfg);
    for f in flows {
        sim.post_flow(f.src, f.dst, f.bytes);
    }
    sim.run_hosts_until(SimTime::MAX);
    let completions: Vec<f64> = sim
        .flows()
        .iter()
        .map(|f| {
            f.completed_at
                .expect("crossval flows must complete in the packet engine") as f64
        })
        .collect();
    let makespan = completions.iter().fold(0.0f64, |a, &b| a.max(b));
    (completions, makespan)
}

fn assert_close(label: &str, packet: f64, flow: f64) {
    let rel = (packet - flow).abs() / packet.max(1e-9);
    assert!(
        rel <= TOLERANCE,
        "{label}: packet={packet:.0} flow={flow:.0} rel-err {:.1}% > {:.0}%",
        rel * 100.0,
        TOLERANCE * 100.0
    );
}

fn crossval_on(topology: TopoSpec, n_nodes: usize) {
    let mut cfg = crossval_cfg(topology);
    if matches!(cfg.topology, TopoSpec::Mesh) {
        cfg.mesh_dim = 2;
        assert_eq!(n_nodes, 4);
    }
    let flows = ring_flows(n_nodes);
    let (pkt_fct, pkt_makespan) = packet_reference(&cfg, &flows);
    let topo = cfg.build_topology();
    let rep = simulate(&*topo, &cfg, &flows);

    assert_close(
        &format!("{} makespan", topo.name()),
        pkt_makespan,
        rep.makespan_ps,
    );
    let pkt_mean = pkt_fct.iter().sum::<f64>() / pkt_fct.len() as f64;
    let flow_mean = rep.completions_ps.iter().sum::<f64>() / rep.completions_ps.len() as f64;
    assert_close(&format!("{} mean FCT", topo.name()), pkt_mean, flow_mean);
    // Every individual flow should agree too — same path, same fair
    // share, so disagreement is purely the fluid approximation.
    for (i, (&p, &f)) in pkt_fct.iter().zip(&rep.completions_ps).enumerate() {
        assert_close(&format!("{} flow {i} FCT", topo.name()), p, f);
    }
}

#[test]
fn mesh2_ring_agrees() {
    crossval_on(TopoSpec::Mesh, 4);
}

#[test]
fn mesh4_ring_agrees() {
    let mut cfg = crossval_cfg(TopoSpec::Mesh);
    cfg.mesh_dim = 4;
    let flows = ring_flows(16);
    let (pkt_fct, pkt_makespan) = packet_reference(&cfg, &flows);
    let topo = cfg.build_topology();
    let rep = simulate(&*topo, &cfg, &flows);
    assert_close("mesh4 makespan", pkt_makespan, rep.makespan_ps);
    let pkt_mean = pkt_fct.iter().sum::<f64>() / pkt_fct.len() as f64;
    let flow_mean = rep.completions_ps.iter().sum::<f64>() / rep.completions_ps.len() as f64;
    assert_close("mesh4 mean FCT", pkt_mean, flow_mean);
}

#[test]
fn fat_tree_ring_agrees() {
    crossval_on(TopoSpec::FatTree { k: 4 }, 16);
}
