//! Scoped parallel sweeps and a persistent worker pool.
//!
//! Simulator instances are independent and deterministic, so sweeps are
//! embarrassingly parallel (the HPC guides' "parallelize across
//! independent work items" idiom). These helpers replace the crossbeam
//! scoped-thread dependency with the standard library's scoped threads.
//!
//! [`scope_map_dynamic`] spawns scoped threads once per sweep: its cells
//! each simulate for milliseconds, so the spawn is noise. [`WorkerPool`]
//! spawns its threads once and runs many broadcast jobs, so the parallel
//! packet engine's thousands of short lookahead windows never pay a
//! per-round spawn.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A persistent pool of parked OS threads that runs broadcast jobs: every
/// call to [`broadcast`](Self::broadcast) wakes all workers, runs the
/// closure once per worker index, and returns when the last worker
/// finishes. Spawning happens once in [`new`](Self::new), so a caller
/// issuing thousands of short rounds (conservative-lookahead windows)
/// pays only a wake/park per round, not a spawn.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    /// Serializes broadcasts: a second caller waits instead of corrupting
    /// the in-flight round's job slot.
    gate: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

struct PoolInner {
    state: Mutex<PoolState>,
    start: Condvar,
    done: Condvar,
}

struct PoolState {
    job: Option<JobPtr>,
    round: u64,
    remaining: usize,
    panicked: usize,
    shutdown: bool,
}

/// A lifetime-erased pointer to the current broadcast's closure.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: workers dereference the pointer only between job publication and
// the final completion notification, and `broadcast` blocks the calling
// thread (which holds the closure) for that entire interval, so the
// referent outlives every use; `Sync` on the referent makes the shared
// cross-thread calls sound.
unsafe impl Send for JobPtr {}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                job: None,
                round: 0,
                remaining: 0,
                panicked: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|idx| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_main(&inner, idx))
            })
            .collect();
        WorkerPool {
            inner,
            gate: Mutex::new(()),
            handles,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Run `f(idx)` once on every worker (`idx` in `0..threads()`),
    /// blocking until all complete. Concurrent broadcasts from other
    /// threads queue behind this one. Panics if any worker's closure
    /// panicked.
    pub fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        // A propagated worker panic poisons the gate; the pool itself is
        // still healthy, so recover the guard rather than wedging every
        // future caller.
        let _gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY (lifetime erasure): see `JobPtr` — we block below until
        // every worker has finished with the pointer.
        let job = JobPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        });
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        st.job = Some(job);
        st.round += 1;
        st.remaining = self.handles.len();
        st.panicked = 0;
        self.inner.start.notify_all();
        while st.remaining > 0 {
            st = self.inner.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
        assert!(
            panicked == 0,
            "WorkerPool::broadcast: {panicked} worker(s) panicked"
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.inner.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_main(inner: &PoolInner, idx: usize) {
    let mut seen = 0u64;
    let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if st.shutdown {
            return;
        }
        if st.round > seen {
            if let Some(job) = st.job {
                seen = st.round;
                drop(st);
                // SAFETY: see `JobPtr` — the broadcaster keeps the closure
                // alive until we report completion below.
                let run = || (unsafe { &*job.0 })(idx);
                let outcome = catch_unwind(AssertUnwindSafe(run));
                st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
                if outcome.is_err() {
                    st.panicked += 1;
                }
                st.remaining -= 1;
                if st.remaining == 0 {
                    inner.done.notify_all();
                }
                continue;
            }
        }
        st = inner.start.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

/// The process-wide pool the parallel packet engine dispatches to,
/// created on first use and sized to the machine (at least the first
/// call's worker count). A later, larger request gets the pool as it is;
/// the caller clamps its worker count to [`WorkerPool::threads`].
pub fn global_pool(workers: usize) -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        WorkerPool::new(avail.max(workers))
    })
}

/// Run `f` over every item on at most `threads` workers, returning
/// results in input order. Scheduling is dynamic: workers pull the next
/// unclaimed index from a shared atomic cursor, so expensive items (an
/// attack-active simulation cell costs many times an idle one) don't
/// straggle behind a static chunk assignment. Each worker writes into the
/// claimed item's pre-sized result slot, so output order — and thus every
/// order-sensitive fold over the results — is bit-identical to the serial
/// map regardless of which worker ran which item.
///
/// Panics propagate: if any worker panics, the panic resurfaces here.
pub fn scope_map_dynamic<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let n = items.len();
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Mutexes are uncontended by construction (the cursor hands each index
    // to exactly one worker); they exist to make the slot handoff safe
    // without unsafe code, and cost nothing next to a work item.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let worker_loop = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = slots[i]
            .lock()
            .unwrap()
            .take()
            .expect("cursor hands each index to exactly one worker");
        *results[i].lock().unwrap() = Some(f(item));
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(worker_loop);
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no worker panicked holding a result slot")
                .expect("scope_map_dynamic: every slot filled")
        })
        .collect()
}

/// A sensible worker count for [`scope_map_dynamic`] sweeps: the
/// `IB_THREADS` env var when set to a positive integer (CI and
/// benchmarking control), otherwise the machine's available parallelism,
/// falling back to 4.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var("IB_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        // One worker per item: the thread-per-item shape.
        let out = scope_map_dynamic(vec![1u64, 2, 3, 4, 5], 5, |x| x * x);
        assert_eq!(out, vec![1, 4, 9, 16, 25]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = scope_map_dynamic(Vec::<u32>::new(), 1, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn threads_actually_run_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        // Two workers that each wait for the other to have started: only
        // completes if both run at once.
        let started = AtomicUsize::new(0);
        let out = scope_map_dynamic(vec![0, 1], 2, |i| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while started.load(Ordering::SeqCst) < 2 {
                assert!(std::time::Instant::now() < deadline, "peer never started");
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn bounded_with_more_threads_than_items() {
        let out = scope_map_dynamic(vec![7u32, 8], 64, |x| x + 1);
        assert_eq!(out, vec![8, 9]);
    }

    /// Serializes every test that reads or writes `IB_THREADS`: env
    /// mutation is process-global and the test harness runs threads in
    /// parallel, so an unlocked set/remove races any concurrent
    /// `default_threads()` call. Lock via `into_inner` on poison — a
    /// panicked holder left no state worse than a stale env var.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn default_threads_positive() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(default_threads() >= 1);
    }

    #[test]
    fn dynamic_matches_serial_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(scope_map_dynamic(items.clone(), 1, |x| x * 3), serial);
        assert_eq!(scope_map_dynamic(items.clone(), 8, |x| x * 3), serial);
        assert_eq!(scope_map_dynamic(items, 200, |x| x * 3), serial);
    }

    #[test]
    fn dynamic_empty_input() {
        let out: Vec<u32> = scope_map_dynamic(Vec::<u32>::new(), 8, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn dynamic_balances_skewed_work() {
        use std::time::Duration;
        // Front-loaded cost: item 0 is ~20x the rest. Static chunking
        // serializes behind the chunk holding it; the dynamic cursor lets
        // the other workers drain the cheap tail meanwhile. We assert
        // correctness (order preserved), not wall-clock — timing asserts
        // flake under CI load.
        let items: Vec<u64> = (0..32).collect();
        let out = scope_map_dynamic(items, 4, |x| {
            std::thread::sleep(Duration::from_millis(if x == 0 { 20 } else { 1 }));
            x + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<u64>>());
    }

    #[test]
    fn pool_runs_many_rounds_without_respawning() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let hits = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.broadcast(&|_w| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(hits.load(Ordering::SeqCst), 800);
    }

    #[test]
    fn pool_propagates_worker_panics_and_survives() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(2);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(&|w| {
                if w == 0 {
                    panic!("worker goes down");
                }
            });
        }));
        assert!(boom.is_err(), "worker panic must resurface at the caller");
        // The pool keeps working after a propagated panic.
        let hits = AtomicUsize::new(0);
        pool.broadcast(&|_w| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn nested_dynamic_inside_pool_jobs_completes() {
        // Every call owns its scope, so a sweep inside a sweep's cell
        // shares nothing it could wait on.
        let items: Vec<u64> = (0..8).collect();
        let out = scope_map_dynamic(items, 4, |x| {
            scope_map_dynamic(vec![x, x + 1], 2, |y| y * 2)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, (0..8).map(|x| 4 * x + 2).collect::<Vec<u64>>());
    }

    #[test]
    fn ib_threads_env_overrides() {
        // Env mutation is process-global: hold ENV_LOCK for the whole
        // set/assert/remove sequence so `default_threads_positive` (or any
        // future reader) can never observe a half-applied value.
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("IB_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("IB_THREADS", "not-a-number");
        assert!(default_threads() >= 1, "garbage falls back to autodetect");
        std::env::set_var("IB_THREADS", "0");
        assert!(default_threads() >= 1, "zero is rejected");
        std::env::remove_var("IB_THREADS");
    }
}
