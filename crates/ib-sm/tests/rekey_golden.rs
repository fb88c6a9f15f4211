//! Byte-for-byte goldens for `run_rekey_sim` on six hostile points.
//!
//! The 48-flow smoke golden is lossless, so no retransmission timer ever
//! fires in it. These six cross every timer an endpoint owns — RTO, NAK
//! rewind, RNR back-off, delayed ACK, retry exhaustion (the dead-QP exit)
//! and selective repeat's out-of-order buffering — under rotation, a
//! leader kill and the stale-epoch attacker, so a scheduler that wakes an
//! endpoint late, early, or in a different order than a full sweep would
//! changes at least one report. The files under `tests/golden/rekey/`
//! were captured at `1bb2ba7`, before the loop was rewritten; re-capture
//! on purpose with
//! `cargo test -p ib-sm --test rekey_golden -- --ignored regenerate`.

use ib_sim::time::{MS, US};
use ib_sim::FaultConfig;
use ib_sm::{run_rekey_sim, RekeyConfig, RekeyReport};
use ib_transport::{RcConfig, RetransmitMode};

/// (seed, flows, messages, loss, rx_capacity, max_retries, mode, payload).
type Point = (u64, usize, usize, f64, usize, u32, RetransmitMode, usize);

const GBN: RetransmitMode = RetransmitMode::GoBackN;
const SR: RetransmitMode = RetransmitMode::SelectiveRepeat;

const POINTS: [Point; 6] = [
    (21, 64, 20, 0.02, 64, 7, GBN, 256),
    (22, 64, 20, 0.05, 2, 7, SR, 3000),
    (23, 100, 10, 0.3, 64, 2, GBN, 256),
    (24, 200, 8, 0.01, 1, 7, GBN, 256),
    (25, 33, 16, 0.03, 64, 7, SR, 5000),
    (26, 128, 10, 0.0, 1, 7, GBN, 2500),
];

fn config(p: Point) -> RekeyConfig {
    let (seed, flows, messages, loss, rx_capacity, max_retries, retransmit, payload_len) = p;
    let mut cfg = RekeyConfig {
        seed,
        flows,
        messages,
        payload_len,
        post_interval: 40 * US,
        replicas: 3,
        rotation_period: 300 * US,
        grace: 100 * US,
        kill_leader_at: 500 * US,
        stale_every: 2,
        stale_delay: 900 * US,
        rc: RcConfig {
            rx_capacity,
            max_retries,
            retransmit,
            ..RcConfig::default()
        },
        ..RekeyConfig::default()
    };
    cfg.sim.duration = 2 * MS;
    cfg.sim.warmup = 200 * US;
    cfg.sim.fault = FaultConfig::lossy(loss, 50_000);
    cfg
}

fn golden_path(seed: u64) -> String {
    format!(
        "{}/../../tests/golden/rekey/seed{seed}.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn report_text(r: &RekeyReport) -> String {
    format!("{}\n", r.to_json())
}

#[test]
fn hostile_points_match_the_pre_rewrite_reports_byte_for_byte() {
    let (mut dead, mut complete, mut retransmits) = (0, 0, 0);
    for p in POINTS {
        let r = run_rekey_sim(&config(p));
        let path = golden_path(p.0);
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(report_text(&r), want, "seed {} diverged from {path}", p.0);
        dead += u32::from(r.failed);
        complete += u32::from(r.delivered == r.expected);
        retransmits += r.retransmits;
        assert_eq!(r.leader_kills, 1, "seed {}: the leader kill fired", p.0);
    }
    // The points keep exercising what they were chosen for.
    assert!(dead >= 2, "retry exhaustion (dead-QP exit) is covered");
    assert!(complete >= 2, "full delivery under loss / RNR is covered");
    assert!(
        retransmits > 1000,
        "timers fired: {retransmits} retransmits"
    );
}

#[test]
#[ignore = "writes tests/golden/rekey/*.json; run on purpose"]
fn regenerate() {
    for p in POINTS {
        std::fs::write(golden_path(p.0), report_text(&run_rekey_sim(&config(p)))).unwrap();
    }
}
