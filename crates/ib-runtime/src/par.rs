//! Scoped parallel sweeps.
//!
//! Simulator instances are independent and deterministic, so sweeps are
//! embarrassingly parallel (the HPC guides' "parallelize across
//! independent work items" idiom). These helpers replace the crossbeam
//! scoped-thread dependency with the standard library's scoped threads.
//!
//! [`scope_map_dynamic`] spawns scoped threads once per sweep: its cells
//! each simulate for milliseconds, so the spawn is noise. The parallel
//! packet engine (`ib_sim::ParSimulator`) spawns its own scoped workers
//! once per run; every lookahead window of that run executes inside them.

use std::sync::Mutex;

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
/// `IB_THREADS` env var when set to a positive integer (to pin a
/// sweep's worker count), otherwise the machine's available parallelism,
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
