//! What the numbers were taken on: the host fingerprint, the process's
//! peak resident set, and the allocation counter of the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use ib_runtime::{Json, ToJson};

/// The system allocator plus a call counter that only runs while armed
/// (the traced run's `ib_transport.allocs_per_pkt`). Disarmed, the cost
/// is one relaxed load per allocation.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting allocations (and growing reallocations) from zero.
pub fn arm_alloc_counter() {
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Stop counting and return the calls seen since [`arm_alloc_counter`].
pub fn disarm_alloc_counter() -> u64 {
    ARMED.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set of this process (`VmHWM`), MiB. 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on (affinity- and cgroup-aware).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Clock estimate in GHz from a dependent-add chain (about three cycles
/// per iteration on every 64-bit core this runs on) — good to a few
/// percent, enough to tell two hosts apart.
pub fn estimate_clock_ghz() -> f64 {
    let iters: u64 = 50_000_000;
    let start = Instant::now();
    let mut acc: u64 = 0;
    for i in 0..iters {
        acc = acc.wrapping_mul(1).wrapping_add(i ^ acc.rotate_left(1));
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    iters as f64 * 3.0 / elapsed / 1e9
}

/// The commit checked out in the current directory, read from `.git`
/// without running git. `unknown` outside a repository (the benchmark
/// driver's checkout is one such place).
pub fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head; // detached HEAD holds the hash itself
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Everything a reader needs to decide whether two results are
/// comparable.
pub fn fingerprint(seed: u64, repetitions: usize, scale_divisor: u64) -> Json {
    let caps = ib_crypto::simd::caps();
    Json::obj([
        ("nproc", (nproc() as u64).to_json()),
        (
            "simd",
            Json::obj([
                ("sse2", caps.sse2.to_json()),
                ("pclmul", caps.pclmul.to_json()),
                ("avx2", caps.avx2.to_json()),
                ("aesni", caps.aesni.to_json()),
            ]),
        ),
        ("clock_ghz_estimate", estimate_clock_ghz().to_json()),
        ("rustc", env!("IB_BENCH_RUSTC").to_json()),
        ("profile", env!("IB_BENCH_PROFILE").to_json()),
        ("git_revision", git_revision().to_json()),
        ("seed", seed.to_json()),
        ("repetitions", (repetitions as u64).to_json()),
        ("scale_divisor", scale_divisor.to_json()),
    ])
}
