//! Engine behaviour lock: `Simulator::run` over a seeded sweep of random
//! configurations, each pinned to one line of
//! `tests/golden/lock/engine.txt`.
//!
//! A fixed master seed draws configuration `i` (topology, mesh size,
//! attackers and their keys, enforcement, trap transport, attack
//! schedule, link faults, partition count) for line `i`. Each line holds:
//!
//! * the configuration seed (`MASTER.stream(i)`; [`gen_case`] draws the
//!   configuration from it);
//! * an FNV-64 digest of the report's JSON with every float rounded to
//!   28 mantissa bits, so the order in which Welford accumulators were
//!   combined — arithmetic, not behaviour — cannot move it;
//! * the number of events the run handled;
//! * `delivered/generated/dropped`: legitimate deliveries, packets
//!   generated, and drops over every class.
//!
//! `cargo test` checks the first [`QUICK_LINES`] lines; the ignored
//! `full` test checks every line (a release leg of `ci.sh` runs it).
//! On a mismatch the failure prints the seed, the configuration and the
//! report document. Re-capture on purpose with
//! `cargo test -p ib-sim --test engine_lock -- --ignored regenerate`.

use std::fmt::Write as _;

use ib_mgmt::enforcement::EnforcementKind;
use ib_runtime::check::Gen;
use ib_runtime::{Json, Seed};
use ib_sim::config::{AttackSchedule, TrapTransport};
use ib_sim::time::{MS, US};
use ib_sim::{AttackKeys, SimConfig, Simulator, TopoSpec};

/// Draws configuration `i` through `MASTER.stream(i)`.
const MASTER: Seed = Seed(0xE9_61_7E_10_C4_00_00_01);
/// Lines the default test run checks.
const QUICK_LINES: usize = 64;
/// Lines `regenerate` writes.
const LOCK_LINES: usize = 1024;

#[derive(Debug, Clone)]
struct Case {
    topo: TopoSpec,
    mesh_dim: usize,
    attackers: usize,
    keys: AttackKeys,
    enforcement: EnforcementKind,
    transport: TrapTransport,
    schedule: AttackSchedule,
    faults: bool,
    partitions: usize,
}

fn gen_case(g: &mut Gen) -> Case {
    Case {
        topo: if g.bool() {
            TopoSpec::Mesh
        } else {
            TopoSpec::FatTree { k: 4 }
        },
        mesh_dim: g.usize_in(2..5),
        attackers: g.usize_in(0..3),
        keys: match g.usize_in(0..3) {
            0 => AttackKeys::RandomInvalid,
            1 => AttackKeys::Valid,
            _ => AttackKeys::SmFlood,
        },
        enforcement: match g.usize_in(0..4) {
            0 => EnforcementKind::NoFiltering,
            1 => EnforcementKind::Dpt,
            2 => EnforcementKind::If,
            _ => EnforcementKind::Sif,
        },
        transport: if g.bool() {
            TrapTransport::OutOfBand
        } else {
            TrapTransport::InBand
        },
        schedule: if g.bool() {
            AttackSchedule::Probabilistic
        } else {
            AttackSchedule::DutyCycle
        },
        faults: g.bool(),
        partitions: g.usize_in(1..5),
    }
}

fn build_cfg(seed: u64, case: &Case) -> SimConfig {
    let mut cfg = SimConfig {
        seed: Seed(seed),
        topology: case.topo,
        mesh_dim: case.mesh_dim,
        num_attackers: case.attackers,
        attack_keys: case.keys,
        attack_schedule: case.schedule,
        attack_probability: 1.0,
        enforcement: case.enforcement,
        trap_transport: case.transport,
        duration: MS,
        warmup: 100 * US,
        ..SimConfig::default()
    };
    // At most half as many partitions as hosts, so no host sits alone
    // in its partition with no one to send legitimate traffic to: the
    // 2×2 mesh takes at most 2, and at most 4 partitions over 9 or 16
    // hosts leave every partition at least 3.
    cfg.num_partitions = case.partitions.min(cfg.num_nodes() / 2);
    if case.faults {
        cfg.fault.drop_prob = 0.02;
        cfg.fault.corrupt_prob = 0.01;
        cfg.fault.reorder_prob = 0.01;
        cfg.fault.reorder_delay_ps = 20 * US;
    }
    cfg
}

/// Low mantissa bits [`round_mantissa`] rounds away: it keeps 28 of
/// f64's 52, about 8 significant decimal digits.
const DROPPED_BITS: u32 = 24;

/// `x` rounded half-up to 28 mantissa bits. Rounding in binary, not to
/// decimal digits: delays are whole picoseconds, so a mean is often
/// exact at ten decimal digits and sits on a decimal rounding tie,
/// where an ulp of summation-order noise flips the rounded digit. A
/// binary tie needs the low 24 bits to read exactly `1000…0`.
fn round_mantissa(x: f64) -> f64 {
    if !x.is_finite() {
        return x;
    }
    let half = 1u64 << (DROPPED_BITS - 1);
    f64::from_bits((x.to_bits() + half) & !((half << 1) - 1))
}

/// `j` as JSON text with every float rounded by [`round_mantissa`].
fn write_rounded(j: &Json, out: &mut String) {
    match j {
        Json::F64(x) => write!(out, "{:e}", round_mantissa(*x)).unwrap(),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_rounded(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (key, value)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "{}:", Json::Str(key.clone())).unwrap();
                write_rounded(value, out);
            }
            out.push('}');
        }
        other => write!(out, "{other}").unwrap(),
    }
}

/// FNV-1a over 64 bits.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One lock line's run: the configuration, the rounded report document
/// and the line itself.
struct Run {
    cfg: SimConfig,
    doc: String,
    line: String,
}

fn run_line(i: usize) -> Run {
    let seed = MASTER.stream(i as u64).0;
    let case = gen_case(&mut Gen::new(Seed(seed)));
    let cfg = build_cfg(seed, &case);
    let (report, events) = Simulator::new(cfg.clone()).run_counted();
    let mut doc = String::new();
    write_rounded(&report.to_json(), &mut doc);
    let delivered = report.realtime.delivered + report.best_effort.delivered;
    let dropped = report.realtime.dropped + report.best_effort.dropped + report.attack.dropped;
    let line = format!(
        "{seed:#018x} {:016x} {events} {delivered}/{}/{dropped}",
        fnv64(doc.as_bytes()),
        report.generated
    );
    Run { cfg, doc, line }
}

fn lock_path() -> String {
    format!(
        "{}/../../tests/golden/lock/engine.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Check the first `n` lines of the lock (all of them if it is shorter).
fn check_lines(n: usize) -> usize {
    let path = lock_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut checked = 0;
    for (i, want) in text.lines().take(n).enumerate() {
        let run = run_line(i);
        assert!(
            run.line == want,
            "line {i} of {path} diverged\n want {want}\n  got {}\nconfig {}\nreport {}",
            run.line,
            run.cfg.to_json(),
            run.doc
        );
        checked += 1;
    }
    checked
}

#[test]
fn first_lines_match_the_lock() {
    assert_eq!(check_lines(QUICK_LINES), QUICK_LINES);
}

#[test]
#[ignore = "every line of the lock; a release leg of ci.sh runs it"]
fn full() {
    assert!(
        check_lines(usize::MAX) >= 1000,
        "the lock holds ≥ 1000 lines"
    );
}

#[test]
#[ignore = "writes tests/golden/lock/engine.txt; run on purpose"]
fn regenerate() {
    let mut text = String::new();
    for i in 0..LOCK_LINES {
        text.push_str(&run_line(i).line);
        text.push('\n');
    }
    std::fs::write(lock_path(), text).unwrap();
}
