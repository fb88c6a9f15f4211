//! Byte-for-byte goldens for `run_fabric_sim` on twelve hostile
//! single-flow points.
//!
//! The `fig_rdma` / `fig_replay` smoke documents stop at 2 % loss, one
//! window size and (for `fig_rdma`) the `AuthReplay` arm. These twelve
//! cross every verb with both retransmit modes at 2–5 % loss, segmented
//! messages, an RNR storm, retry exhaustion (the `failed` exit), a replay
//! pending at the time limit, no tap at all, and the two arms whose
//! replays are admitted (the ledger's duplicate branch) — so a driver
//! that wakes an endpoint late, counts a corrupted arrival differently or
//! leaves the loop on another step changes at least one report. The files
//! under `tests/golden/fabric/` were captured at `eecf3ce`, while
//! `run_fabric_sim` was still its own two-endpoint loop; re-capture on
//! purpose with
//! `cargo test -p ib-transport --test fabric_golden -- --ignored regenerate`.

use ib_security::ChannelSecurity;
use ib_sim::time::{MS, US};
use ib_sim::{AttackKeys, FaultConfig};
use ib_transport::{run_fabric_sim, FabricReport, FabricSimConfig, RdmaOp, RetransmitMode};

const GBN: RetransmitMode = RetransmitMode::GoBackN;
const SR: RetransmitMode = RetransmitMode::SelectiveRepeat;

/// The common base: 96 messages of 96 B, the default tap, `loss` on
/// every link.
fn lossy(seed: u64, op: RdmaOp, mode: RetransmitMode, loss: f64) -> FabricSimConfig {
    let mut cfg = FabricSimConfig {
        seed,
        op,
        messages: 96,
        payload_len: 96,
        ..FabricSimConfig::default()
    };
    cfg.rc.retransmit = mode;
    cfg.sim.duration = 2 * MS;
    cfg.sim.warmup = 200 * US;
    cfg.sim.fault = FaultConfig::lossy(loss, 50_000);
    cfg
}

fn points() -> Vec<(&'static str, FabricSimConfig)> {
    let mut segmented = lossy(37, RdmaOp::Send, SR, 0.03);
    segmented.payload_len = 2 * segmented.rc.mtu + segmented.rc.mtu / 2;
    segmented.sim.num_attackers = 4;
    segmented.sim.attack_keys = AttackKeys::Valid;

    let mut rnr = lossy(38, RdmaOp::Send, GBN, 0.02);
    rnr.rc.rx_capacity = 1;
    rnr.rc.ack_coalesce = 1;

    let mut dead = lossy(39, RdmaOp::Write, GBN, 0.3);
    dead.rc.max_retries = 2;

    // Every arrival at the tap is re-captured, replays included, so one is
    // always pending and the run ends at the time limit.
    let mut late = lossy(40, RdmaOp::Send, GBN, 0.0);
    late.replay_every = 1;
    late.replay_delay = 200 * US;
    late.max_sim_time = 4 * MS;

    let mut no_tap = lossy(36, RdmaOp::Read, SR, 0.03);
    no_tap.replay_every = 0;

    let mut no_auth = lossy(41, RdmaOp::Send, GBN, 0.02);
    no_auth.security = ChannelSecurity::NoAuth;
    let mut auth = lossy(42, RdmaOp::Send, SR, 0.03);
    auth.security = ChannelSecurity::Auth;

    vec![
        ("send_gbn", lossy(31, RdmaOp::Send, GBN, 0.02)),
        ("send_sr", lossy(32, RdmaOp::Send, SR, 0.05)),
        ("write_gbn", lossy(33, RdmaOp::Write, GBN, 0.03)),
        ("write_sr", lossy(34, RdmaOp::Write, SR, 0.02)),
        ("read_gbn", lossy(35, RdmaOp::Read, GBN, 0.05)),
        ("read_sr_no_tap", no_tap),
        ("segmented_sr_attacked", segmented),
        ("rnr_storm", rnr),
        ("dead_qp", dead),
        ("late_replay", late),
        ("no_auth", no_auth),
        ("auth", auth),
    ]
}

fn golden_path(name: &str) -> String {
    format!(
        "{}/../../tests/golden/fabric/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn report_text(r: &FabricReport) -> String {
    format!("{}\n", r.to_json())
}

#[test]
fn hostile_points_match_the_two_endpoint_loop_byte_for_byte() {
    let (mut dead, mut complete, mut retransmits, mut corrupted) = (0, 0, 0, 0);
    for (name, cfg) in points() {
        let r = run_fabric_sim(&cfg);
        let path = golden_path(name);
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(report_text(&r), want, "{name} diverged from {path}");
        dead += u32::from(r.failed);
        let lossy = cfg.sim.fault.is_active();
        complete += u32::from(lossy && !r.timed_out && r.delivered == r.expected);
        retransmits += r.retransmits;
        corrupted += u32::from(r.corrupt_drops > 0);
        if cfg.security != ChannelSecurity::AuthReplay {
            // The duplicate branch of the ledger is pinned.
            assert!(
                r.replays_admitted > 0 && r.duplicates_delivered > 0,
                "{name}"
            );
        }
    }
    // The points keep exercising what they were chosen for.
    assert!(dead >= 1, "retry exhaustion (the `failed` exit) is covered");
    assert!(complete >= 1, "full delivery under loss is covered");
    assert!(retransmits > 500, "timers fired: {retransmits} retransmits");
    assert!(
        corrupted >= 2,
        "corrupted arrivals are counted on {corrupted} points"
    );
}

#[test]
#[ignore = "writes tests/golden/fabric/*.json; run on purpose"]
fn regenerate() {
    for (name, cfg) in points() {
        std::fs::write(golden_path(name), report_text(&run_fabric_sim(&cfg))).unwrap();
    }
}
