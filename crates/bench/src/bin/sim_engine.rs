//! Event-engine throughput: the scheduler microbenchmark and the whole
//! simulator, measured together.
//!
//! Three groups, the first two over two priority-queue arms — `calendar`,
//! the production [`EventQueue`] (timing wheel of inline entries under
//! packed keys that jumps to the next occupied bucket, heap-ordered
//! cursor bucket, binary-heap overflow), and `heap`, [`HeapQueue`], the
//! same inline entries under a plain binary heap (the property-test
//! oracle):
//!
//! * `scheduler/*` — a deterministic hold-model workload (prefill, then
//!   pop-one/push-one at the popped time plus a drawn delta, then drain):
//!   keys spread thinly over many buckets, the wheel's best case.
//! * `scheduler/burst-B` — B keys inside one bucket window, drained with
//!   a same-window push after every fourth pop, for B = 64 and 1024: the
//!   1024-HCA fabric's injection burst, the wheel's worst case.
//! * `engine/*` — `Simulator::run_counted`, the serial engine every
//!   figure runs on, over figure-sized cells (baseline, attack with no
//!   filtering / DPT / SIF), reporting simulator events per
//!   wall-second; the JSON config records each cell's event mix (events
//!   handled per event kind).
//!
//! Both arms replay the identical op script and must pop the identical
//! `(time, payload)` stream (asserted before anything is timed).
//!
//! The acceptance gates mirror `mac_table4`: arms run interleaved sample
//! by sample so clock throttling cancels in *paired* ratios. The calendar
//! queue must not lose to the reference heap on the hold workload
//! (median paired ratio under the bar, or best paired sample at effective
//! parity) and must reach at least half the heap's rate on every burst.
//!
//! Usage: `sim_engine [--smoke] [--seed S]`

use std::time::Instant;

use bench::{
    bench_doc, paired_ratio, parse_args, sample_arms, write_bench_json, BenchConfig, Summary,
};
use ib_mgmt::enforcement::EnforcementKind;
use ib_runtime::{Json, ToJson};
use ib_sim::config::SimConfig;
use ib_sim::engine::Simulator;
use ib_sim::event::{EventQueue, HeapQueue, BUCKET_WIDTH_PS, HORIZON_PS};
use ib_sim::time::{SimTime, MS, US};

/// Scheduler arms, baseline-last display order (calendar is the product).
const ARMS: [&str; 2] = ["calendar", "heap"];

/// Keys per same-window burst.
const BURSTS: [usize; 2] = [64, 1024];

/// One op script entry: the delta (ps) to add to the popped event's time
/// when re-pushing. The mix matches the simulator's event population:
/// mostly sub-bucket wire/credit deltas, a same-tick burst share, and a
/// far-future tail (attack epochs, key-exchange RTTs) past the wheel
/// horizon.
fn make_deltas(seed: ib_runtime::Seed, steps: usize) -> Vec<SimTime> {
    let mut rng = seed.rng();
    (0..steps)
        .map(|_| match rng.gen_range(0..10u64) {
            0 => 0,                                         // same-tick burst
            1 => HORIZON_PS + rng.gen_range(0..HORIZON_PS), // overflow path
            _ => 1 + rng.gen_range(0..4 * BUCKET_WIDTH_PS), // near future
        })
        .collect()
}

/// The one shape both arms implement, so the workload runners and the
/// equivalence gates are written once.
trait Sched {
    fn push(&mut self, at: SimTime, tag: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

impl Sched for EventQueue<u64> {
    fn push(&mut self, at: SimTime, tag: u64) {
        EventQueue::push(self, at, tag);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
}

impl Sched for HeapQueue<u64> {
    fn push(&mut self, at: SimTime, tag: u64) {
        HeapQueue::push(self, at, tag);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        HeapQueue::pop(self)
    }
}

/// Fresh queues of both arms, in [`ARMS`] order.
const FRESH: [fn() -> Box<dyn Sched>; 2] = [
    || Box::new(EventQueue::<u64>::new()),
    || Box::new(HeapQueue::<u64>::new()),
];

/// One sampler arm per scheduler, each replaying `run` on a fresh queue.
fn sched_arms(run: &dyn Fn(&mut dyn Sched)) -> [impl FnMut() + '_; 2] {
    FRESH.map(|new| move || run(&mut *new()))
}

/// Run the hold-model workload; returns the popped `(time, payload)`
/// stream and the total op count (pushes + pops).
fn run_workload<S: Sched + ?Sized>(
    q: &mut S,
    prefill: &[SimTime],
    deltas: &[SimTime],
) -> (Vec<(SimTime, u64)>, u64) {
    let mut tag: u64 = 0;
    let mut popped = Vec::with_capacity(prefill.len() + deltas.len());
    for &t in prefill {
        q.push(t, tag);
        tag += 1;
    }
    for &dt in deltas {
        let (t, p) = q.pop().expect("hold model keeps the queue non-empty");
        popped.push((t, p));
        q.push(t + dt, tag);
        tag += 1;
    }
    while let Some(item) = q.pop() {
        popped.push(item);
    }
    let ops = 2 * (prefill.len() + deltas.len()) as u64;
    (popped, ops)
}

/// Run the burst workload: per round, `offsets.len()` keys land inside one
/// bucket window, then the window drains with a same-window push after
/// every fourth pop. Returns the popped stream and the op count.
fn run_burst<S: Sched + ?Sized>(
    q: &mut S,
    offsets: &[SimTime],
    rounds: usize,
) -> (Vec<(SimTime, u64)>, u64) {
    let mut tag: u64 = 0;
    let mut popped = Vec::new();
    for round in 0..rounds {
        let window = round as SimTime * 4 * BUCKET_WIDTH_PS;
        for &off in offsets {
            q.push(window + off, tag);
            tag += 1;
        }
        let mut pops = 0usize;
        while let Some((t, p)) = q.pop() {
            popped.push((t, p));
            pops += 1;
            if pops.is_multiple_of(4) {
                q.push(t.max(window + offsets[pops % offsets.len()]), tag);
                tag += 1;
            }
        }
    }
    let ops = 2 * popped.len() as u64;
    (popped, ops)
}

fn engine_cfg(kind: EnforcementKind, attackers: usize, duration_ps: SimTime) -> SimConfig {
    SimConfig {
        enforcement: kind,
        num_attackers: attackers,
        attack_probability: 1.0,
        duration: duration_ps,
        warmup: 100 * US,
        ..SimConfig::default()
    }
}

fn main() {
    let (smoke, seed) = parse_args(std::env::args());
    let config = BenchConfig::new(smoke);
    let (prefill_n, steps, burst_keys, engine_ps, engine_reps) = if smoke {
        (1024, 20_000, 8 * 1024, MS / 2, 2u32)
    } else {
        (4096, 200_000, 64 * 1024, MS, 5u32)
    };

    // Deterministic op script, shared by every arm.
    let mut prefill_rng = seed.stream(1).rng();
    let prefill: Vec<SimTime> = (0..prefill_n)
        .map(|_| prefill_rng.gen_range(0..2 * HORIZON_PS))
        .collect();
    let deltas = make_deltas(seed.stream(2), steps);

    // ---- equivalence gate: both arms pop the identical stream ----
    let streams: Vec<Vec<(SimTime, u64)>> = FRESH
        .iter()
        .map(|new| run_workload(&mut *new(), &prefill, &deltas).0)
        .collect();
    assert_eq!(
        streams[0], streams[1],
        "calendar and compact-key heap must pop the identical (time, payload) stream"
    );
    let total_ops = 2 * (prefill.len() + deltas.len()) as u64;
    println!(
        "OK: both scheduler arms pop the identical {}-event stream ({total_ops} ops).",
        streams[0].len()
    );
    // Burst scripts: a fixed key budget per replay, so every burst size
    // times a comparable amount of work.
    let mut offset_rng = seed.stream(3).rng();
    let bursts: Vec<(Vec<SimTime>, usize, u64)> = BURSTS
        .iter()
        .map(|&b| {
            let offsets: Vec<SimTime> = (0..b)
                .map(|_| offset_rng.gen_range(0..BUCKET_WIDTH_PS))
                .collect();
            let rounds = burst_keys / b;
            let (cal, ops) = run_burst(&mut *FRESH[0](), &offsets, rounds);
            let (heap, _) = run_burst(&mut *FRESH[1](), &offsets, rounds);
            assert_eq!(
                cal, heap,
                "burst-{b}: calendar and heap must pop the identical stream"
            );
            (offsets, rounds, ops)
        })
        .collect();
    println!("OK: both arms pop identical streams on every same-window burst.\n");

    // ---- scheduler timing: arms interleaved sample by sample ----
    // This host's clock throttles by tens of percent over seconds, so a
    // frequency dip lands on both arms of the adjacent sample pair, not
    // on whichever arm happened to run in that window (same idiom as
    // mac_table4). Each replay builds its queue inside the timed closure:
    // microseconds against a replay of milliseconds.
    // Every timed cell, in print order. "Bytes" are scheduler ops or
    // simulator events: the rate reads as operations per second.
    let mut results: Vec<Summary> = Vec::new();
    let mut record = |id: String, sample_ns: &[f64], per_iter: u64| {
        let m = Summary::new(id, sample_ns, per_iter);
        println!("{m}");
        results.push(m);
    };
    let sample_ns = sample_arms(
        &config,
        &mut sched_arms(&|q| {
            std::hint::black_box(run_workload(q, &prefill, &deltas));
        }),
    );
    for (arm, ns) in ARMS.iter().zip(&sample_ns) {
        record(format!("scheduler/{arm}"), ns, total_ops);
    }
    let mut burst_ratios: Vec<f64> = Vec::new();
    for (&b, (offsets, rounds, ops)) in BURSTS.iter().zip(&bursts) {
        let ns = sample_arms(
            &config,
            &mut sched_arms(&|q| {
                std::hint::black_box(run_burst(q, offsets, *rounds));
            }),
        );
        for (arm, arm_ns) in ARMS.iter().zip(&ns) {
            record(format!("scheduler/burst-{b}/{arm}"), arm_ns, *ops);
        }
        burst_ratios.push(paired_ratio(&ns[0], &ns[1]).0);
    }

    // ---- engine timing: whole simulations, events per wall-second ----
    let cells = [
        ("baseline", EnforcementKind::NoFiltering, 0usize),
        ("attack-nofilter", EnforcementKind::NoFiltering, 4),
        ("attack-dpt", EnforcementKind::Dpt, 4),
        ("attack-sif", EnforcementKind::Sif, 4),
    ];
    let mut engine_events: Vec<u64> = Vec::new();
    let mut engine_mix: Vec<Json> = Vec::new();
    for &(label, kind, attackers) in &cells {
        let mut events = 0u64;
        let mut ns: Vec<f64> = Vec::new();
        for _ in 0..engine_reps {
            let sim = Simulator::new(engine_cfg(kind, attackers, engine_ps));
            let start = Instant::now();
            let (report, n) = sim.run_counted();
            ns.push(start.elapsed().as_nanos() as f64);
            std::hint::black_box(report);
            events = n; // identical every rep (determinism)
        }
        // The event mix, from one more untimed run: `run_counted`
        // consumes its simulator, so this one drains through the
        // co-simulation call, which leaves it readable.
        let mut sim = Simulator::new(engine_cfg(kind, attackers, engine_ps));
        sim.run_hosts_until(SimTime::MAX);
        assert_eq!(sim.events_processed(), events, "{label}: event count");
        engine_mix.push(Json::obj(
            sim.events_by_kind().map(|(k, n)| (k, n.to_json())),
        ));
        engine_events.push(events);
        record(format!("engine/{label}"), &ns, events);
    }

    // ---- acceptance gate: calendar ≥ heap on the hold workload ----
    // Median *paired* ratio (calendar / heap within each sample pair),
    // with the smoke bars widened: 5-sample 2 ms windows gate structure,
    // not 5 %-level perf claims. The disjunction covers throttle noise: a
    // genuinely slower calendar queue would both push the median past the
    // bar and never win a pair.
    let (med_bar, best_bar) = if smoke { (1.25, 1.10) } else { (1.05, 1.00) };
    let (med, best) = paired_ratio(&sample_ns[0], &sample_ns[1]);
    assert!(
        med <= med_bar || best <= best_bar,
        "calendar queue must keep pace with the compact-key heap \
         (median paired ratio {med:.3}, best {best:.3})"
    );
    println!(
        "\nOK: calendar queue holds against the heap baseline \
         (median paired ratio {med:.3}, best {best:.3})."
    );
    // ---- acceptance gate: calendar ≥ 0.5× heap on every burst ----
    // The heap is the right tool for one dense window; the wheel must
    // merely stay within 2× of it there (a per-pop bucket scan reads
    // ~16× at 1024 keys).
    for (&b, &ratio) in BURSTS.iter().zip(&burst_ratios) {
        assert!(
            ratio <= 2.0,
            "burst-{b}: calendar queue must reach half the heap's rate \
             (median paired time ratio {ratio:.3})"
        );
    }
    println!(
        "OK: calendar queue within 2x of the heap on same-window bursts \
         (median paired time ratios {}).",
        BURSTS
            .iter()
            .zip(&burst_ratios)
            .map(|(b, r)| format!("burst-{b}: {r:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let doc = bench_doc(
        "sim_engine",
        seed,
        config.to_json([
            ("arms", Json::arr(ARMS.iter().map(|a| a.to_json()))),
            ("prefill", (prefill_n as u64).to_json()),
            ("steps", (steps as u64).to_json()),
            ("scheduler_ops", total_ops.to_json()),
            (
                "bursts",
                Json::arr(BURSTS.iter().map(|&b| (b as u64).to_json())),
            ),
            ("burst_keys", (burst_keys as u64).to_json()),
            (
                "engine_cells",
                Json::arr(cells.iter().map(|&(l, _, _)| l.to_json())),
            ),
            (
                "engine_events",
                Json::arr(engine_events.iter().map(|&e| e.to_json())),
            ),
            ("engine_event_mix", Json::arr(engine_mix)),
            ("engine_duration_ps", engine_ps.to_json()),
            ("smoke", smoke.to_json()),
        ]),
        results.iter().map(Summary::to_json).collect(),
    );
    let path = write_bench_json("sim_engine", &doc).expect("write BENCH_sim_engine.json");
    println!("wrote {}", path.display());
}
