//! Table 1 — IBA simulation testbed parameters.
//!
//! Prints the configuration every simulated experiment in this repository
//! runs with, next to the paper's values, and asserts they agree.
//!
//! Usage: `table1 [--smoke] [--seed S]` (both are accepted and unused).

use bench::{parse_args, render_table};
use ib_sim::config::{SimConfig, LINK_GBPS, NUM_VLS, PORTS_PER_SWITCH};

fn main() {
    parse_args(std::env::args());
    let cfg = SimConfig::default();
    let rows = vec![
        vec![
            "Physical Link Bandwidth".to_string(),
            "2.5 Gbps".to_string(),
            format!("{LINK_GBPS} Gbps"),
        ],
        vec![
            "Number of Physical Links (switch ports)".to_string(),
            "5".to_string(),
            PORTS_PER_SWITCH.to_string(),
        ],
        vec![
            "Number of VLs/Physical Link".to_string(),
            "16".to_string(),
            NUM_VLS.to_string(),
        ],
        vec![
            "Realtime, Best-effort MTU".to_string(),
            "1024 Bytes".to_string(),
            format!("{} Bytes", cfg.mtu_bytes),
        ],
        vec![
            "Topology".to_string(),
            "16-node mesh".to_string(),
            format!("{0}x{0} mesh ({1} nodes)", cfg.mesh_dim, cfg.num_nodes()),
        ],
        vec![
            "Partitions".to_string(),
            "4 random groups".to_string(),
            cfg.num_partitions.to_string(),
        ],
    ];
    println!("Table 1. IBA simulation testbed parameters");
    println!(
        "{}",
        render_table(&["parameter", "paper", "this repo"], &rows)
    );

    assert_eq!(LINK_GBPS, 2.5);
    assert_eq!(PORTS_PER_SWITCH, 5);
    assert_eq!(NUM_VLS, 16);
    assert_eq!(cfg.mtu_bytes, 1024);
    assert_eq!(cfg.num_nodes(), 16);
    println!("OK: defaults match the paper's Table 1.");
}
