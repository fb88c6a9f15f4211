//! Scheduler-equivalence property: the calendar-queue [`EventQueue`] pops
//! and peeks the exact same `(time, seq, payload)` stream as the reference
//! binary-heap [`HeapQueue`] under randomized interleavings — same-tick
//! bursts (the determinism tie-break), pushes landing exactly on bucket
//! boundaries, gaps of hundreds of empty buckets that the cursor jumps
//! (across bitmap words and round the ring), far-future times that
//! traverse the overflow heap and migrate back onto the wheel, peeks that
//! advance the cursor, pushes that then land *behind* it, scrambled
//! intrinsic keys, and thousands of keys inside one bucket window.
//!
//! Driven by `ib_runtime::check`: cases generate from a deterministic
//! seed (override with `CHECK_SEED=<u64>` to replay a failure), failing
//! cases shrink before being reported, and counterexamples persist to
//! `tests/corpus/`.

use std::sync::atomic::{AtomicUsize, Ordering};

use ib_runtime::{check, Rng, Seed};
use ib_sim::event::{EventQueue, HeapQueue, BUCKET_WIDTH_PS, HORIZON_PS};
use ib_sim::SimTime;

/// One step of an interleaving script. Every push is at or after the
/// floor — the last popped time — so scripts never schedule into the
/// simulated past, exactly like the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Schedule at `floor + delta` under the queue's own insertion counter.
    Push {
        delta: SimTime,
    },
    /// Schedule at `floor + delta` under an intrinsic
    /// `origin << 32 | oseq` key: origins arrive scrambled, so tie-break
    /// order is unrelated to insertion order.
    PushKeyed {
        delta: SimTime,
        origin: u32,
    },
    /// Peek (advancing the cursor to the pending minimum's window, however
    /// far), then schedule at `floor + delta` with `delta` under a bucket
    /// width — below the cursor window whenever the peek moved it on.
    PushBehind {
        delta: SimTime,
    },
    /// `peek_key` must name the oracle's minimum and disturb nothing.
    Peek,
    Pop,
    /// `keys` pushes inside the bucket window after the floor's, then
    /// `keys / 2` pops with a same-window push after every fourth.
    Burst {
        keys: u16,
        salt: u64,
    },
}

/// Buckets on the wheel.
const BUCKETS: u64 = HORIZON_PS / BUCKET_WIDTH_PS;

/// Delta families the wheel must handle: same-tick, sub-bucket, exact
/// bucket boundaries, near-horizon, past-horizon (overflow path), and
/// gaps of many empty buckets for the cursor to jump — whole 64-bucket
/// bitmap words among them, and gaps that wrap the ring.
fn gen_delta(g: &mut check::Gen) -> SimTime {
    match g.u64_in(0..7) {
        0 => 0,
        1 => g.u64_in(1..64),
        2 => BUCKET_WIDTH_PS * g.u64_in(0..3),
        3 => g.u64_in(0..4 * BUCKET_WIDTH_PS),
        4 => HORIZON_PS - g.u64_in(0..2 * BUCKET_WIDTH_PS),
        5 => {
            let buckets = if g.u64_in(0..3) == 0 {
                64 * g.u64_in(1..BUCKETS / 64 + 1)
            } else {
                g.u64_in(5..BUCKETS + 1)
            };
            buckets * BUCKET_WIDTH_PS + g.u64_in(0..BUCKET_WIDTH_PS)
        }
        _ => HORIZON_PS + g.u64_in(0..3 * HORIZON_PS),
    }
}

fn gen_script(g: &mut check::Gen) -> Vec<Op> {
    let len = g.usize_in(1..200);
    (0..len)
        .map(|_| {
            // Push-biased so the queue builds depth worth popping through.
            match g.u64_in(0..48) {
                0..=13 => Op::Pop,
                14..=17 => Op::Peek,
                18..=21 => Op::PushBehind {
                    delta: g.u64_in(0..BUCKET_WIDTH_PS),
                },
                22..=29 => Op::PushKeyed {
                    delta: gen_delta(g),
                    origin: g.u32_in(1..4096),
                },
                30 => Op::Burst {
                    keys: g.u16_in(64..2049),
                    salt: g.u64(),
                },
                _ => Op::Push {
                    delta: gen_delta(g),
                },
            }
        })
        .collect()
}

/// Script shrinking: halves, then drop-one — the standard list shrinker,
/// which preserves op order (the property is order-sensitive).
fn shrink_script(script: &[Op]) -> Vec<Vec<Op>> {
    let mut out = Vec::new();
    let n = script.len();
    if n > 1 {
        out.push(script[..n / 2].to_vec());
        out.push(script[n / 2..].to_vec());
    }
    for i in 0..n.min(32) {
        let mut v = script.to_vec();
        v.remove(i);
        out.push(v);
    }
    out
}

/// Both schedulers, driven in lockstep: every pop and peek is compared as
/// it happens, so a divergence is reported at the operation that caused
/// it. Payloads are the push counter, so the stream exposes tie-break
/// order, not just times.
#[derive(Default)]
struct Lockstep {
    calendar: EventQueue<u64>,
    heap: HeapQueue<u64>,
    /// Last popped time.
    floor: SimTime,
    /// Next payload, and the `oseq` half of the next intrinsic key (unique,
    /// so `(time, seq)` pairs never collide whatever the origin).
    tag: u64,
    /// `PushBehind`s that really landed below the cursor window.
    behind: usize,
}

impl Lockstep {
    fn push(&mut self, at: SimTime) {
        self.calendar.push(at, self.tag);
        self.heap.push(at, self.tag);
        self.tag += 1;
    }

    /// Intrinsic keys start at origin 1, clear of the insertion counter's
    /// range (origin 0).
    fn push_keyed(&mut self, at: SimTime, origin: u32) {
        let seq = (u64::from(origin) << 32) | self.tag;
        self.calendar.push_keyed(at, seq, self.tag);
        self.heap.push_keyed(at, seq, self.tag);
        self.tag += 1;
    }

    fn pop(&mut self) -> bool {
        let got = self.calendar.pop_keyed().map(|(k, p)| (k.time, k.seq, p));
        let want = self.heap.pop_keyed().map(|(k, p)| (k.time, k.seq, p));
        assert_eq!(got, want, "pop diverged from the heap reference");
        if let Some((t, _, _)) = got {
            assert!(t >= self.floor, "time went backwards");
            self.floor = t;
        }
        got.is_some()
    }

    /// The oracle has no peek: pop its minimum and put it back under the
    /// same key.
    fn peek(&mut self) -> Option<SimTime> {
        let got = self.calendar.peek_key().map(|k| (k.time, k.seq));
        let want = self.heap.pop_keyed().map(|(k, p)| {
            self.heap.push_keyed(k.time, k.seq, p);
            (k.time, k.seq)
        });
        assert_eq!(got, want, "peek_key diverged from the heap reference");
        got.map(|(t, _)| t)
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Push { delta } => self.push(self.floor + delta),
            Op::PushKeyed { delta, origin } => self.push_keyed(self.floor + delta, origin),
            Op::PushBehind { delta } => {
                let at = self.floor + delta;
                if let Some(min) = self.peek() {
                    let window_start = min / BUCKET_WIDTH_PS * BUCKET_WIDTH_PS;
                    self.behind += usize::from(at < window_start);
                }
                self.push(at);
            }
            Op::Peek => {
                self.peek();
            }
            Op::Pop => {
                self.pop();
            }
            Op::Burst { keys, salt } => {
                let mut rng: Rng = Seed(salt).rng();
                let window = (self.floor / BUCKET_WIDTH_PS + 1) * BUCKET_WIDTH_PS;
                for _ in 0..keys {
                    self.push(window + rng.gen_range(0..BUCKET_WIDTH_PS));
                }
                // Fewer pops than burst keys, so the floor cannot leave the
                // window and every push below stays inside it.
                for i in 0..keys / 2 {
                    self.pop();
                    if i % 4 == 3 {
                        let at = window + rng.gen_range(0..BUCKET_WIDTH_PS);
                        self.push(at.max(self.floor));
                    }
                }
            }
        }
        assert_eq!(self.calendar.len(), self.heap.len());
    }

    /// Run `script`, then drain. Returns how many `PushBehind`s landed
    /// behind the cursor.
    fn run(script: &[Op]) -> usize {
        let mut pair = Lockstep::default();
        for &op in script {
            pair.apply(op);
        }
        while pair.pop() {}
        assert!(pair.calendar.is_empty() && pair.heap.is_empty());
        pair.behind
    }
}

/// The equivalence property itself — the contract every figure's
/// byte-identity rests on.
#[test]
fn calendar_queue_matches_heap_reference() {
    let behind = AtomicUsize::new(0);
    check::run(
        "calendar_queue_matches_heap_reference",
        256,
        gen_script,
        |script| shrink_script(script),
        |script| {
            behind.fetch_add(Lockstep::run(script), Ordering::Relaxed);
        },
    );
    assert!(
        behind.load(Ordering::Relaxed) >= 32,
        "scripts must keep pushing behind an advanced cursor (saw {})",
        behind.load(Ordering::Relaxed)
    );
}

/// Dense same-tick bursts: every event at one of two adjacent times, so
/// the pop stream is decided almost entirely by the insertion-seq
/// tie-break.
#[test]
fn same_tick_bursts_match_heap_reference() {
    check::run(
        "same_tick_bursts_match_heap_reference",
        128,
        |g| {
            let base = g.u64_in(0..2 * HORIZON_PS);
            let len = g.usize_in(1..100);
            (0..len)
                .map(|_| {
                    if g.u64_in(0..4) == 0 {
                        Op::Pop
                    } else {
                        Op::Push {
                            delta: base % 7, // a couple of clustered values
                        }
                    }
                })
                .collect::<Vec<Op>>()
        },
        |script| shrink_script(script),
        |script| {
            Lockstep::run(script);
        },
    );
}
