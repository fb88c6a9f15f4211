//! The metric catalogue: every end-to-end and per-layer metric by name,
//! with its unit, its direction and — for end-to-end metrics — the bound
//! by which it may worsen before `compare` calls it a regression.
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test holds the two together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How an end-to-end metric is judged between two results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Host time or memory: noisy, compared through medians and
    /// quartiles against a relative bound. `floor` is an absolute
    /// difference below which a change is never a regression.
    Host { bound: f64, floor: f64 },
    /// Simulated time: any difference is a change of simulated
    /// behaviour, not noise.
    Exact,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

/// End-to-end metrics, in print order. The host-time bounds are the
/// ones `BENCHMARK.json` carries (see README.md, "Bounds").
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        kind: Kind::Host {
            bound: 0.25,
            floor: 0.0,
        },
    },
    EndToEnd {
        name: "goodput_gbps",
        unit: "Gb/s",
        better: Better::Higher,
        kind: Kind::Host {
            bound: 0.25,
            floor: 0.0,
        },
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        kind: Kind::Host {
            bound: 0.25,
            floor: 0.05,
        },
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        // Five of the seven workloads run in 3-5 MiB, most of it the
        // process's own baseline, which moves by half a MiB from run to
        // run on some hosts.
        kind: Kind::Host {
            bound: 0.15,
            floor: 1.0,
        },
    },
    EndToEnd {
        name: "sim_goodput_gbps",
        unit: "Gb/s",
        better: Better::Higher,
        kind: Kind::Exact,
    },
    EndToEnd {
        name: "sim_lat_mean_us",
        unit: "us",
        better: Better::Lower,
        kind: Kind::Exact,
    },
    EndToEnd {
        name: "sim_fct_p50_us",
        unit: "us",
        better: Better::Lower,
        kind: Kind::Exact,
    },
    EndToEnd {
        name: "sim_fct_p99_us",
        unit: "us",
        better: Better::Lower,
        kind: Kind::Exact,
    },
    EndToEnd {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        kind: Kind::Exact,
    },
];

/// The end-to-end metrics the benchmark contract's `--trace 0` line
/// carries: the host-time ones, which every workload has and which are
/// never 0. The simulated ones ride in the `--trace 1` line as `sim.*`,
/// and `peak_rss_mb` as `harness.peak_rss_mb`: the contract holds a
/// metric to one relative bound on every workload, and the resident set
/// of a 3 MiB process spreads wider than any such bound allows.
pub fn contract_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END
        .iter()
        .filter(|m| matches!(m.kind, Kind::Host { .. }) && m.name != "peak_rss_mb")
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, in print order. A workload that does not exercise
/// a metric's layer reports 0 for it.
pub const PER_LAYER: [PerLayer; 64] = [
    layer("ib_crypto.crc16_ns_per_byte", "ns/B", Lower),
    layer("ib_crypto.crc32_ns_per_byte", "ns/B", Lower),
    layer("ib_crypto.umac_tag_ns_per_pkt", "ns", Lower),
    layer("ib_crypto.umac_tag_x4_ns_per_pkt", "ns", Lower),
    layer("ib_packet.write_ns_per_pkt", "ns", Lower),
    layer("ib_packet.parse_ns_per_pkt", "ns", Lower),
    layer("ib_packet.vcrc_ns_per_pkt", "ns", Lower),
    layer("ib_packet.icrc_ns_per_pkt", "ns", Lower),
    layer("ib_packet.parse_drops", "count", Lower),
    layer("ib_security.seal_ns_per_pkt", "ns", Lower),
    layer("ib_security.admit_ns_per_pkt", "ns", Lower),
    layer("ib_security.admit_many_ns_per_pkt", "ns", Lower),
    layer("ib_security.replay_offer_ns", "ns", Lower),
    layer("ib_security.auth_cost_share", "share", Lower),
    layer("ib_security.rejected_auth", "count", Lower),
    layer("ib_security.rejected_stale", "count", Lower),
    layer("ib_security.rejected_stale_epoch", "count", Lower),
    layer("ib_security.duplicates", "count", Lower),
    layer("ib_security.admit_useful_share", "share", Higher),
    layer("ib_transport.post_ns_per_msg", "ns", Lower),
    layer("ib_transport.tx_ns_per_pkt", "ns", Lower),
    layer("ib_transport.rx_ns_per_pkt", "ns", Lower),
    layer("ib_transport.rx_batch_ns_per_pkt", "ns", Lower),
    layer("ib_transport.rx_accounted_share", "share", Higher),
    layer("ib_transport.allocs_per_pkt", "count", Lower),
    layer("ib_transport.acks_per_data_pkt", "count", Lower),
    layer("ib_transport.retx_share", "share", Lower),
    layer("ib_transport.ooo_buffered", "count", Lower),
    layer("ib_transport.gap_drops", "count", Lower),
    layer("ib_transport.dup_suppressed", "count", Lower),
    layer("ib_sim.new_s", "s", Lower),
    layer("ib_sim.run_busy_s", "s", Lower),
    layer("ib_sim.ns_per_event", "ns", Lower),
    layer("ib_sim.events", "count", Lower),
    layer("ib_sim.events_per_pkt", "count", Lower),
    layer("ib_sim.peak_packets", "count", Lower),
    layer("ib_sim.post_host_ns", "ns", Lower),
    layer("ib_sim.take_delivery_ns", "ns", Lower),
    layer("ib_sim.busy_share", "share", Lower),
    layer("ib_sim.par2_speedup", "x", Higher),
    layer("ib_sim.sched_ns_per_op", "ns", Lower),
    layer("ib_mgmt.dpt_check_ns", "ns", Lower),
    layer("ib_mgmt.if_check_ns", "ns", Lower),
    layer("ib_mgmt.sif_check_ns", "ns", Lower),
    layer("ib_mgmt.lookups_per_pkt", "count", Lower),
    layer("ib_mgmt.traps", "count", Lower),
    layer("ib_mgmt.filter_drops", "count", Higher),
    layer("ib_mgmt.attack_leak_share", "share", Lower),
    layer("ib_sm.run_s", "s", Lower),
    layer("ib_sm.rotations", "count", Higher),
    layer("ib_sm.key_updates_tx", "count", Lower),
    layer("ib_sm.takeovers", "count", Lower),
    layer("ib_sm.time_to_recover_us", "us", Lower),
    layer("ib_sm.mad_parse_ns", "ns", Lower),
    layer("ib_sm.envelope_open_ns", "ns", Lower),
    layer("ib_flow.simulate_s", "s", Lower),
    layer("ib_flow.p99_fct_rel_err", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("harness.tap_parse_ns", "ns", Lower),
    layer("harness.peak_rss_mb", "MiB", Lower),
    layer("sim.goodput_gbps", "Gb/s", Higher),
    layer("sim.lat_mean_us", "us", Lower),
    layer("sim.fct_p50_us", "us", Lower),
    layer("sim.fct_p99_us", "us", Lower),
];

/// The per-layer name a simulated end-to-end metric takes in the
/// contract's traced line (`sim_goodput_gbps` → `sim.goodput_gbps`).
pub fn sim_layer_name(end_to_end: &str) -> Option<&'static str> {
    let tail = end_to_end.strip_prefix("sim_")?;
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_prefix("sim.") == Some(tail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_runtime::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for n in names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert_eq!(sim_layer_name("sim_fct_p99_us"), Some("sim.fct_p99_us"));
        assert_eq!(sim_layer_name("ops_per_s"), None);
    }

    /// `BENCHMARK.json` and the catalogue must name the same metrics with
    /// the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
            .expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), contract_end_to_end().count());
        for (m, cat) in e2e.iter().zip(contract_end_to_end()) {
            assert_eq!(field(m, "name"), cat.name);
            assert_eq!(field(m, "unit"), cat.unit);
            assert_eq!(field(m, "better"), cat.better.label());
            let Kind::Host { bound, .. } = cat.kind else {
                unreachable!("filtered to host metrics");
            };
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(bound),
                "{}",
                cat.name
            );
        }

        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, cat) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(m, "name"), cat.name);
            assert_eq!(field(m, "unit"), cat.unit);
            assert_eq!(field(m, "better"), cat.better.label());
        }

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .filter(|w| **w != crate::workload::Workload::Fattree1kPar2)
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}
