//! Key-plane disruption experiment — a fleet of RC flows crosses the
//! mesh while the replicated subnet manager rotates the partition secret
//! underneath them, swept over (a) the rotation period and (b) a
//! leader-kill fault injected mid-run.
//!
//! The point of the figure: epoch re-keying is invisible to reliable
//! transport. Every arm reaches 100% eventual delivery (packets sealed
//! under a superseded epoch heal through ordinary retransmission), a
//! stale-epoch attacker who holds captured packets past the grace window
//! is rejected by the epoch layer itself — zero admissions — and killing
//! the leader costs a bounded goodput dip: the staggered election
//! installs a successor whose healing rotation re-keys every member CA.
//!
//! Usage: `fig_rekey [--smoke] [--seed S]`

use bench::{parse_args, render_table, write_bench_json};
use ib_runtime::{bench::bench_doc, Json, ToJson};
use ib_sim::time::{MS, US};
use ib_sim::SimTime;
use ib_sm::{run_rekey_sim, RekeyConfig, RekeyReport};

/// One swept arm of the experiment.
#[derive(Debug, Clone, Copy)]
struct Arm {
    /// Stable label for the table / JSON.
    label: &'static str,
    /// Rotation period (0 = key plane idle, PSN window is the only
    /// replay defence).
    period: SimTime,
    /// Leader-kill instant (0 = no fault).
    kill_at: SimTime,
}

fn arms(smoke: bool) -> Vec<Arm> {
    if smoke {
        vec![
            Arm {
                label: "static",
                period: 0,
                kill_at: 0,
            },
            Arm {
                label: "rot-60us",
                period: 60 * US,
                kill_at: 0,
            },
            Arm {
                label: "rot-120us",
                period: 120 * US,
                kill_at: 0,
            },
            Arm {
                label: "kill-100us",
                period: 60 * US,
                kill_at: 100 * US,
            },
        ]
    } else {
        // At 1024 QPs the mesh runs near capacity, so queueing delay —
        // not RTT — bounds how fast the key plane may cut over: the
        // period + grace must exceed the worst in-flight time, exactly
        // as production rotation periods dwarf delivery delays.
        vec![
            Arm {
                label: "static",
                period: 0,
                kill_at: 0,
            },
            Arm {
                label: "rot-2ms",
                period: 2 * MS,
                kill_at: 0,
            },
            Arm {
                label: "rot-4ms",
                period: 4 * MS,
                kill_at: 0,
            },
            Arm {
                label: "rot-8ms",
                period: 8 * MS,
                kill_at: 0,
            },
            Arm {
                label: "kill-3ms",
                period: 2 * MS,
                kill_at: 3 * MS,
            },
        ]
    }
}

fn config_for(seed: u64, smoke: bool, flows: usize, arm: Arm) -> RekeyConfig {
    let mut cfg = RekeyConfig {
        seed,
        flows,
        messages: if smoke { 8 } else { 12 },
        payload_len: 256,
        // Full mode paces each flow to keep aggregate offered load just
        // under fabric capacity; queueing stays bounded below the grace.
        post_interval: if smoke { 25 * US } else { 800 * US },
        replicas: if smoke { 3 } else { 5 },
        rotation_period: arm.period,
        grace: if smoke { 80 * US } else { 2 * MS },
        kill_leader_at: arm.kill_at,
        stale_every: 2,
        // Longer than every swept rotation period + grace: by the time a
        // captured packet is re-injected its epoch is retired.
        stale_delay: if smoke { 300 * US } else { 12 * MS },
        ..RekeyConfig::default()
    };
    cfg.sim.duration = 2 * MS;
    cfg.sim.warmup = 200 * US;
    cfg
}

fn main() {
    let (smoke, seed) = parse_args(std::env::args());
    // Each flow is a requester/responder QP pair: the full run drives
    // 1024 QPs of RC traffic through the rotating key plane.
    let flows: usize = if smoke { 48 } else { 512 };

    let swept = arms(smoke);
    let mut points: Vec<(Arm, RekeyReport)> = Vec::new();
    for &arm in &swept {
        let cfg = config_for(seed.0, smoke, flows, arm);
        points.push((arm, run_rekey_sim(&cfg)));
    }

    println!(
        "Epoch re-keying under load: rotation sweep + leader failover \
         (seed {seed}, {flows} flows = {} QPs)",
        flows * 2
    );
    let table: Vec<Vec<String>> = points
        .iter()
        .map(|(arm, r)| {
            vec![
                arm.label.to_string(),
                format!("{}/{}", r.delivered, r.expected),
                format!("{:.3}", r.goodput_gbps),
                r.rotations.to_string(),
                r.final_epoch.to_string(),
                r.key_updates_tx.to_string(),
                format!("{}/{}", r.stale_injected, r.stale_admitted),
                r.rejected_stale_epoch.to_string(),
                r.rejected_future_epoch.to_string(),
                r.retransmits.to_string(),
                format!("{:.2}", r.goodput_dip_frac),
                format!("{:.1}", r.time_to_recover_us),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "arm",
                "delivered",
                "goodput (Gb/s)",
                "rotations",
                "epoch",
                "key upd",
                "stale inj/adm",
                "rej stale-ep",
                "rej future-ep",
                "retrans",
                "dip frac",
                "recover (us)"
            ],
            &table
        )
    );

    // ---- acceptance assertions ----
    for (arm, r) in &points {
        let tag = arm.label;
        assert!(
            r.delivered == r.expected && !r.failed && !r.timed_out,
            "{tag}: 100% eventual delivery required, got {}/{}",
            r.delivered,
            r.expected
        );
        assert_eq!(r.payload_mismatches, 0, "{tag}: every byte verified");
        assert!(r.stale_injected > 0, "{tag}: attacker must be active");
        assert_eq!(
            r.stale_admitted, 0,
            "{tag}: zero admissions under a stale epoch"
        );
        assert!(r.mgmt_delivered > 0, "{tag}: SM plane used the fabric");
        if arm.period > 0 {
            assert!(r.rotations >= 1, "{tag}: key plane must rotate");
            assert!(r.final_epoch >= 1, "{tag}: CAs must install new epochs");
            assert!(
                r.rejected_stale_epoch > 0,
                "{tag}: held-back replays must die at the epoch check"
            );
        } else {
            assert_eq!(r.rotations, 0, "{tag}: static arm never rotates");
            assert_eq!(r.rejected_stale_epoch, 0, "{tag}: no epochs to retire");
        }
        if arm.kill_at > 0 {
            assert_eq!(r.leader_kills, 1, "{tag}: the fault fired");
            assert!(r.takeovers >= 1, "{tag}: a successor claimed the term");
            assert!(
                r.time_to_recover_us > 0.0,
                "{tag}: the new leader finished re-keying"
            );
            assert!(
                (0.0..=1.0).contains(&r.goodput_dip_frac),
                "{tag}: goodput dip is a fraction"
            );
        }
    }
    println!(
        "OK: 100% delivery in every arm; zero stale-epoch admissions; \
         failover re-keyed in {:.1} us.",
        points
            .iter()
            .find(|(a, _)| a.kill_at > 0)
            .map(|(_, r)| r.time_to_recover_us)
            .unwrap_or(0.0)
    );

    // Determinism: the same seed reproduces the failover point
    // bit-for-bit.
    let kill_arm = *swept.iter().find(|a| a.kill_at > 0).expect("kill arm");
    let headline = &points.iter().find(|(a, _)| a.kill_at > 0).unwrap().1;
    let again = run_rekey_sim(&config_for(seed.0, smoke, flows, kill_arm));
    assert_eq!(
        headline.to_json().to_string(),
        again.to_json().to_string(),
        "identical output across two same-seed runs"
    );

    let doc = bench_doc(
        "fig_rekey",
        seed,
        Json::obj([
            (
                "arms",
                Json::arr(swept.iter().map(|a| {
                    Json::obj([
                        ("label", a.label.to_json()),
                        ("rotation_period_ps", a.period.to_json()),
                        ("kill_leader_at_ps", a.kill_at.to_json()),
                    ])
                })),
            ),
            ("flows", (flows as u64).to_json()),
            ("qps", (flows as u64 * 2).to_json()),
            ("base", config_for(seed.0, smoke, flows, swept[0]).to_json()),
            ("smoke", smoke.to_json()),
        ]),
        points
            .iter()
            .map(|(arm, r)| {
                Json::obj([
                    ("arm", arm.label.to_json()),
                    ("rotation_period_ps", arm.period.to_json()),
                    ("kill_leader_at_ps", arm.kill_at.to_json()),
                    ("report", r.to_json()),
                ])
            })
            .collect(),
    );
    let path = write_bench_json("fig_rekey", &doc).expect("write BENCH_fig_rekey.json");
    println!("wrote {}", path.display());
}
