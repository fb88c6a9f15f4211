//! Behaviour locks for the three harnesses, `Simulator::run`,
//! `run_fabric_sim` and `run_rekey_sim`, in
//! `tests/golden/lock/{engine,fabric,rekey}.txt`. Line `i` runs the
//! configuration a lock's master seed draws through `stream(i)` (the
//! fabric and rekey locks open with hand-picked hostile points) and holds
//! its seed, an FNV-64 digest of the report and a summary. The engine's
//! digest reads floats rounded to 28 mantissa bits (Welford combine order
//! is arithmetic, not behaviour); fabric's and rekey's the exact
//! `to_json()` text and newline. Their lines, checked or regenerated,
//! must hold the harness's safety claims, so a regeneration cannot pin a
//! security bug. `cargo test` checks each lock's first lines and its
//! coverage floors, the ignored `full` every line (a release `ci.sh`
//! leg); `-- --ignored regenerate` re-captures on purpose.

use std::collections::BTreeMap;

use ib_mgmt::enforcement::EnforcementKind::{Dpt, If, NoFiltering, Sif};
use ib_runtime::check::Gen;
use ib_runtime::{Json, Seed};
use ib_security::ChannelSecurity::{Auth, AuthReplay, NoAuth};
use ib_sim::config::{AttackSchedule, TrapTransport};
use ib_sim::time::{MS, US};
use ib_sim::AttackKeys::{self, RandomInvalid, SmFlood, Valid};
use ib_sim::{FaultConfig, SimConfig, Simulator, TopoSpec};
use ib_sm::{run_rekey_sim, RekeyConfig};
use ib_transport::RdmaOp::{self, Read, Send, Write};
use ib_transport::{run_fabric_sim, FabricSimConfig, RcConfig, RetransmitMode};

/// One harness's lock: its file stem under `tests/golden/lock/`, how
/// line `i` runs, and the behaviours checked lines must each reach.
struct Lock {
    name: &'static str,
    run: fn(usize) -> Run,
    floors: &'static [&'static str],
}

/// One line, what its divergence prints, and the behaviours it reached.
struct Run {
    line: String,
    context: String,
    reached: Vec<&'static str>,
}

/// Lines in every lock; `full` checks and `regenerate` writes them all.
const LOCK_LINES: usize = 1024;

const ENGINE: Lock = Lock {
    name: "engine",
    run: engine_line,
    floors: &[],
};

const FABRIC: Lock = Lock {
    name: "fabric",
    run: fabric_line,
    floors: &[ALL, DEAD, LIMIT, "reordered", "RNR", REJECTED, WRAP],
};

const REKEY: Lock = Lock {
    name: "rekey",
    run: rekey_line,
    floors: &[ALL, DEAD, REJECTED, "stale epoch", "takeover", WRAP],
};

/// The floor half the checked lines must reach, not just one.
const ALL: &str = "every message delivered";
const DEAD: &str = "retry exhaustion";
const LIMIT: &str = "time limit";
const REJECTED: &str = "replay rejected";
const WRAP: &str = "PSN wrap";

/// FNV-1a over 64 bits.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn lock_path(lock: &Lock) -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    format!("{root}/../../tests/golden/lock/{}.txt", lock.name)
}

/// Check the first `n` lines of `lock`, and its floors over them.
fn check(lock: &Lock, n: usize) {
    let path = lock_path(lock);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut reached = BTreeMap::<&str, usize>::new();
    let lines = text.lines().chain(std::iter::repeat("<missing>"));
    for (i, want) in lines.take(n).enumerate() {
        let run = (lock.run)(i);
        assert_eq!(run.line, want, "{path}:{}\n{}", i + 1, run.context);
        for r in run.reached {
            *reached.entry(r).or_default() += 1;
        }
    }
    for &floor in lock.floors {
        let got = reached.get(floor).copied().unwrap_or(0);
        let need = if floor == ALL { n.div_ceil(2) } else { 1 };
        assert!(got >= need, "{path}: {got} of {n} lines reach {floor:?}");
    }
}

#[test]
fn engine_first_lines_match_the_lock() {
    check(&ENGINE, 64);
}

#[test]
fn fabric_first_lines_match_the_lock() {
    check(&FABRIC, 64);
}

#[test]
fn rekey_first_lines_match_the_lock() {
    check(&REKEY, 32);
}

#[test]
#[ignore = "every line of every lock; a release leg of ci.sh runs it"]
fn full() {
    std::thread::scope(|s| {
        for lock in [&ENGINE, &FABRIC, &REKEY] {
            s.spawn(|| check(lock, LOCK_LINES));
        }
    });
}

#[test]
#[ignore = "writes tests/golden/lock/*.txt; run on purpose"]
fn regenerate() {
    for lock in [&ENGINE, &FABRIC, &REKEY] {
        let text: String = (0..LOCK_LINES).map(|i| (lock.run)(i).line + "\n").collect();
        std::fs::write(lock_path(lock), text).unwrap();
    }
}

/// Each lock's master seed.
const ENGINE_MASTER: Seed = Seed(0xE9_61_7E_10_C4_00_00_01);
const FABRIC_MASTER: Seed = Seed(0xFA_B1_2C_10_C4_00_00_01);
const REKEY_MASTER: Seed = Seed(0x8E_1E_70_10_C4_00_00_01);

const ATTACK_KEYS: [AttackKeys; 3] = [RandomInvalid, Valid, SmFlood];
const GBN: RetransmitMode = RetransmitMode::GoBackN;
const SR: RetransmitMode = RetransmitMode::SelectiveRepeat;
const PSN_MAX: u32 = 0xFF_FFFF;

/// `a` or `b`, by a fair coin.
fn either<T: Copy>(g: &mut Gen, a: T, b: T) -> T {
    [b, a][usize::from(g.bool())]
}

/// Topology, mesh size, attackers and their keys, enforcement, trap
/// transport, attack schedule, link faults and partition count, drawn
/// in that order.
fn engine_cfg(seed: u64) -> SimConfig {
    let g = &mut Gen::new(Seed(seed));
    let mut cfg = SimConfig {
        seed: Seed(seed),
        topology: either(g, TopoSpec::Mesh, TopoSpec::FatTree { k: 4 }),
        mesh_dim: g.usize_in(2..5),
        num_attackers: g.usize_in(0..3),
        attack_keys: *g.choose(&ATTACK_KEYS),
        enforcement: *g.choose(&[NoFiltering, Dpt, If, Sif]),
        trap_transport: either(g, TrapTransport::OutOfBand, TrapTransport::InBand),
        attack_schedule: either(g, AttackSchedule::Probabilistic, AttackSchedule::DutyCycle),
        attack_probability: 1.0,
        duration: MS,
        warmup: 100 * US,
        ..SimConfig::default()
    };
    if g.bool() {
        cfg.fault.drop_prob = 0.02;
        cfg.fault.corrupt_prob = 0.01;
        cfg.fault.reorder_prob = 0.01;
        cfg.fault.reorder_delay_ps = 20 * US;
    }
    // At most half as many partitions as hosts, so no host sits alone in
    // its partition with no one to send legitimate traffic to.
    cfg.num_partitions = g.usize_in(1..5).min(cfg.num_nodes() / 2);
    cfg
}

/// `x` rounded half-up to 28 mantissa bits: in binary, as a mean of whole
/// picoseconds often sits on a decimal tie an ulp of noise would flip.
fn round_mantissa(x: f64) -> f64 {
    let half = 1u64 << 23;
    if !x.is_finite() {
        return x;
    }
    f64::from_bits((x.to_bits() + half) & !((half << 1) - 1))
}

/// `j` as JSON text with every float rounded by [`round_mantissa`].
fn rounded(j: &Json) -> String {
    let join = |items: Vec<String>| items.join(",");
    match j {
        Json::F64(x) => format!("{:e}", round_mantissa(*x)),
        Json::Arr(items) => format!("[{}]", join(items.iter().map(rounded).collect())),
        Json::Obj(pairs) => {
            let pair = |(k, v): &(String, Json)| format!("{}:{}", Json::Str(k.clone()), rounded(v));
            format!("{{{}}}", join(pairs.iter().map(pair).collect()))
        }
        other => other.to_string(),
    }
}

fn engine_line(i: usize) -> Run {
    let seed = ENGINE_MASTER.stream(i as u64).0;
    let cfg = engine_cfg(seed);
    let (report, events) = Simulator::new(cfg.clone()).run_counted();
    let doc = rounded(&report.to_json());
    let delivered = report.realtime.delivered + report.best_effort.delivered;
    let dropped = report.realtime.dropped + report.best_effort.dropped + report.attack.dropped;
    let (digest, generated) = (fnv64(doc.as_bytes()), report.generated);
    Run {
        line: format!("{seed:#018x} {digest:016x} {events} {delivered}/{generated}/{dropped}"),
        context: format!("config {}\nreport {doc}", cfg.to_json()),
        reached: Vec::new(),
    }
}

/// The 4×4 mesh under a co-simulation line's flows: 2 ms of background
/// traffic and `loss` on every link.
fn mesh(loss: f64) -> SimConfig {
    SimConfig {
        duration: 2 * MS,
        warmup: 200 * US,
        fault: FaultConfig::lossy(loss, 50_000),
        ..SimConfig::default()
    }
}

/// A generated line's fabric: a 2–4 mesh, up to two attackers, and no,
/// heavy (≤ 30 %) or light (≤ 3 %) loss.
fn mesh_case(g: &mut Gen) -> SimConfig {
    let permille = [0, g.u32_in(0..301), g.u32_in(0..31), g.u32_in(0..31)];
    SimConfig {
        mesh_dim: g.usize_in(2..5),
        num_attackers: g.usize_in(0..3),
        attack_keys: *g.choose(&ATTACK_KEYS),
        ..mesh(f64::from(*g.choose(&permille)) / 1000.0)
    }
}

/// A generated line's transport. The harnesses drain every arrival at
/// once, so only `rx_capacity` 0 answers RNR (to every SEND, forever).
fn rc_case(g: &mut Gen, rx_capacities: &[usize]) -> RcConfig {
    let near_wrap = PSN_MAX - g.u32_in(0..64);
    RcConfig {
        window: g.u32_in(1..65),
        max_retries: g.u32_in(1..11),
        ack_coalesce: g.u32_in(1..9),
        initial_psn: *g.choose(&[0, 0, PSN_MAX, near_wrap]),
        rx_capacity: *g.choose(rx_capacities),
        retransmit: either(g, GBN, SR),
        ..RcConfig::default()
    }
}

/// True when a flow of `messages` × `payload_len` crosses the PSN wrap.
fn crosses_wrap(rc: &RcConfig, messages: usize, payload_len: usize) -> bool {
    let packets = messages * payload_len.div_ceil(rc.mtu);
    rc.initial_psn as usize + packets > PSN_MAX as usize + 1
}

/// Check a fabric or rekey report's safety claims, read off the outcome
/// keys both reports' JSON share, and make its line. `admitted` names the
/// count of replays or stale packets the replay window must hold at 0.
fn cosim_run(
    seed: u64,
    report: &Json,
    context: String,
    admitted: Option<&str>,
    wraps: bool,
    reached: [(bool, &'static str); 3],
) -> Run {
    let doc = format!("{report}\n");
    let context = format!("{context}\nreport {doc}");
    let count = |key: &str| report.get(key).and_then(Json::as_u64).expect(key);
    let flag = |key: &str| report.get(key).and_then(Json::as_bool).expect(key);
    let (delivered, expected) = (count("delivered"), count("expected"));
    let (failed, timed_out, all) = (flag("failed"), flag("timed_out"), delivered == expected);
    for (holds, claim) in [
        (count("payload_mismatches") == 0, "no payload mismatch"),
        (delivered <= expected, "delivered ≤ expected"),
        (all || failed || timed_out, "done ⇒ all delivered"),
        (admitted.map_or(0, count) == 0, "the window admits none"),
    ] {
        assert!(holds, "broken: {claim}\n{context}");
    }
    // Indexed by (failed, timed_out) as two bits: a failure wins.
    let exit = ["done", "timed_out", "failed", "failed"][2 * failed as usize + timed_out as usize];
    let digest = fnv64(doc.as_bytes());
    let wrap = (all && wraps, WRAP);
    let ends = [(all, ALL), (failed, DEAD), (timed_out, LIMIT), wrap];
    let ends = ends.into_iter().chain(reached);
    Run {
        line: format!("{seed:#018x} {digest:016x} {delivered}/{expected} {exit}"),
        context,
        reached: ends.filter_map(|(hit, r)| hit.then_some(r)).collect(),
    }
}

/// The fixed head of the fabric lock, (name, seed, verb, mode, loss):
/// 96 messages of 96 B under the default tap, bent by [`fabric_point`].
const FABRIC_POINTS: [(&str, u64, RdmaOp, RetransmitMode, f64); 12] = [
    ("send_gbn", 31, Send, GBN, 0.02),
    ("send_sr", 32, Send, SR, 0.05),
    ("write_gbn", 33, Write, GBN, 0.03),
    ("write_sr", 34, Write, SR, 0.02),
    ("read_gbn", 35, Read, GBN, 0.05),
    ("read_sr_no_tap", 36, Read, SR, 0.03),
    ("segmented_sr_attacked", 37, Send, SR, 0.03),
    ("rnr_storm", 38, Send, GBN, 0.02),
    ("dead_qp", 39, Write, GBN, 0.3),
    ("late_replay", 40, Send, GBN, 0.0),
    ("no_auth", 41, Send, GBN, 0.02),
    ("auth", 42, Send, SR, 0.03),
];

fn fabric_point(seed: u64, op: RdmaOp, mode: RetransmitMode, loss: f64) -> FabricSimConfig {
    let mut cfg = FabricSimConfig {
        seed,
        op,
        messages: 96,
        payload_len: 96,
        sim: mesh(loss),
        ..FabricSimConfig::default()
    };
    cfg.rc.retransmit = mode;
    match seed {
        36 => cfg.replay_every = 0,
        37 => {
            cfg.payload_len = 2 * cfg.rc.mtu + cfg.rc.mtu / 2;
            (cfg.sim.num_attackers, cfg.sim.attack_keys) = (4, Valid);
        }
        38 => (cfg.rc.rx_capacity, cfg.rc.ack_coalesce) = (1, 1),
        39 => cfg.rc.max_retries = 2,
        // Every arrival at the tap is re-captured, replays included, so
        // one is always pending when the run ends at the time limit.
        40 => (cfg.replay_every, cfg.replay_delay, cfg.max_sim_time) = (1, 200 * US, 4 * MS),
        41 => cfg.security = NoAuth,
        42 => cfg.security = Auth,
        _ => {}
    }
    cfg
}

fn fabric_case(seed: u64) -> FabricSimConfig {
    let g = &mut Gen::new(Seed(seed));
    let sim = mesh_case(g);
    let nodes = sim.num_nodes();
    let src = g.index(nodes);
    let dst = (src + 1 + g.index(nodes - 1)) % nodes;
    let rc = rc_case(g, &[0, 1, 2, 1024, 1024, 1024, 1024, 1024]);
    FabricSimConfig {
        seed,
        security: *g.choose(&[NoAuth, Auth, AuthReplay]),
        op: *g.choose(&[Send, Write, Read]),
        messages: g.usize_in(1..97),
        payload_len: g.usize_in(8..3 * rc.mtu + 1),
        src,
        dst,
        replay_node: (dst + 1 + g.index(nodes - 1)) % nodes,
        // Every 1st re-captures its own replays: the run ends at the limit.
        replay_every: *g.choose(&[0, 1, 2, 3, 4, 5, 6, 8]),
        replay_delay: g.u64_in(1..201) * US,
        rc,
        max_sim_time: 20 * MS,
        sim,
        ..FabricSimConfig::default()
    }
}

fn fabric_line(i: usize) -> Run {
    let (name, cfg) = match FABRIC_POINTS.get(i) {
        Some(&(name, seed, op, mode, loss)) => (name, fabric_point(seed, op, mode, loss)),
        None => ("generated", fabric_case(FABRIC_MASTER.stream(i as u64).0)),
    };
    let r = run_fabric_sim(&cfg);
    let window = cfg.security == AuthReplay;
    let ooo = r.ooo_buffered > 0;
    let rnr = cfg.rc.rx_capacity == 0 && cfg.op == Send && r.retransmits > 0;
    let rejected = window && r.replays_injected > 0 && r.dup_suppressed + r.rejected_stale > 0;
    cosim_run(
        cfg.seed,
        &r.to_json(),
        format!("{name} config {}", cfg.to_json()),
        window.then_some("replays_admitted"),
        crosses_wrap(&cfg.rc, cfg.messages, cfg.payload_len),
        [(ooo, "reordered"), (rnr, "RNR"), (rejected, REJECTED)],
    )
}

/// The fixed head of the rekey lock: lossy, RNR-sized, retry-exhausting
/// fleets under rotation, a leader kill and the stale-epoch attacker.
const REKEY_POINTS: [RekeyPoint; 6] = [
    (21, 64, 20, 0.02, 64, 7, GBN, 256),
    (22, 64, 20, 0.05, 2, 7, SR, 3000),
    (23, 100, 10, 0.3, 64, 2, GBN, 256),
    (24, 200, 8, 0.01, 1, 7, GBN, 256),
    (25, 33, 16, 0.03, 64, 7, SR, 5000),
    (26, 128, 10, 0.0, 1, 7, GBN, 2500),
];

/// (seed, flows, messages, loss, rx_capacity, max_retries, mode, payload).
type RekeyPoint = (u64, usize, usize, f64, usize, u32, RetransmitMode, usize);

fn rekey_point(point: RekeyPoint) -> RekeyConfig {
    let (seed, flows, messages, loss, rx_capacity, max_retries, mode, payload_len) = point;
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
        sim: mesh(loss),
        ..RekeyConfig::default()
    };
    (cfg.rc.rx_capacity, cfg.rc.max_retries, cfg.rc.retransmit) = (rx_capacity, max_retries, mode);
    cfg
}

fn rekey_case(seed: u64) -> RekeyConfig {
    let g = &mut Gen::new(Seed(seed));
    let sim = mesh_case(g);
    let replicas = g.usize_in(1..(sim.num_nodes() - 2).min(4) + 1);
    let rc = rc_case(g, &[1, 2, 1024]);
    RekeyConfig {
        seed,
        security: *g.choose(&[NoAuth, Auth, AuthReplay]),
        flows: g.usize_in(1..65),
        messages: g.usize_in(1..17),
        payload_len: g.usize_in(8..3 * rc.mtu + 1),
        post_interval: g.u64_in(5..51) * US,
        replicas,
        rotation_period: *g.choose(&[0, 1, 1, 1]) * g.u64_in(100..401) * US,
        grace: *g.choose(&[0, 1, 1]) * g.u64_in(20..201) * US,
        kill_leader_at: *g.choose(&[0, 1]) * g.u64_in(200..801) * US,
        // Every 1st would re-capture its own replays without end.
        stale_every: *g.choose(&[0, 2, 3, 4, 6, 8]),
        stale_delay: g.u64_in(10..1001) * US,
        rc,
        sim,
    }
}

fn rekey_line(i: usize) -> Run {
    let cfg = match REKEY_POINTS.get(i) {
        Some(&point) => rekey_point(point),
        None => rekey_case(REKEY_MASTER.stream(i as u64).0),
    };
    let r = run_rekey_sim(&cfg);
    let window = cfg.security == AuthReplay;
    let rejects = r.dup_suppressed + r.rejected_stale_psn + r.rejected_stale_epoch;
    cosim_run(
        cfg.seed,
        &r.to_json(),
        format!("config {}", cfg.to_json()),
        window.then_some("stale_admitted"),
        crosses_wrap(&cfg.rc, cfg.messages, cfg.payload_len),
        [
            (window && r.stale_injected > 0 && rejects > 0, REJECTED),
            (r.rejected_stale_epoch > 0, "stale epoch"),
            (r.leader_kills > 0 && r.takeovers > 0, "takeover"),
        ],
    )
}
