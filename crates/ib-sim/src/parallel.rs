//! Conservative parallel driver for the sharded packet engine.
//!
//! [`ParSimulator`] runs the same `SimCore` the serial [`Simulator`]
//! does, but gives every event domain its own calendar queue and executes
//! domains on the persistent `ib-runtime` worker pool, synchronized in
//! **lookahead windows** (Chandy–Misra–Bryant-style conservative
//! synchronization, specialized to barrier-synchronous rounds):
//!
//! 1. `T` = the global minimum pending-event time (over every domain
//!    queue and in-flight mailbox) — the horizon jump, so idle stretches
//!    cost one round, not one round per tick.
//! 2. Every domain independently processes its events in `[T, T + W)` in
//!    intrinsic key order, where `W` is `Shared::lookahead` — the
//!    minimum latency any cross-domain event carries (link propagation
//!    for packet handoffs and credit returns, trap/program latency for
//!    the SM loop). Events bound for another domain are pushed into that
//!    domain's mailbox under a short lock.
//! 3. A barrier; worker 0 recomputes `T` and opens the next round.
//!
//! Because a cross-domain event emitted at `t` is due no earlier than
//! `t + W ≥ T + W`, nothing a peer does during a window can affect this
//! window — each round is exact, not approximate, and no null messages
//! need to flow: the shared horizon `T` plays that role (and is what
//! makes the scheme deadlock-free; see DESIGN.md).
//!
//! Determinism: thread count selects only the domain→worker assignment.
//! The domain decomposition, every event's intrinsic key, every per-node
//! RNG draw, and the fixed-order report merge are all identical to the
//! serial engine, so `run()` returns bit-identical results at any thread
//! count — a property `tests/parallel_equivalence.rs` and the `ci.sh`
//! byte-diff gates enforce.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::config::SimConfig;
use crate::engine::FlowRecord;
#[cfg(any(doc, test))]
use crate::engine::Simulator;
use crate::engine::{Ctx, Domain, SimCore, SimReport};
use crate::event::{Event, EventQueue};
use crate::time::SimTime;

/// Events in flight toward a domain, staged by peers during a window and
/// drained by the owner at the start of its next one. `next` tracks the
/// earliest due time so the coordinator's horizon scan needn't walk
/// `msgs`.
struct Mailbox {
    msgs: Vec<(SimTime, u64, Event)>,
    next: SimTime,
}

/// Sets the shared stop flag and unblocks both spin loops if its worker
/// unwinds, so a handler panic surfaces at the `broadcast` call instead
/// of deadlocking the sibling workers at the barrier.
struct PanicGuard<'a> {
    done: &'a AtomicBool,
    arrived: &'a AtomicUsize,
    round: &'a AtomicU64,
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.done.store(true, Ordering::SeqCst);
            self.arrived.fetch_add(1_000_000, Ordering::SeqCst);
            self.round.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Spin briefly, then yield — barrier waits are usually a few µs, but
/// over-subscribed machines need the scheduler's help.
fn relax(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// The parallel driver. Construction, posting and reporting mirror
/// [`Simulator`]; only `run` differs — it executes the domains on the
/// process-wide worker pool (or falls back to an in-place D-way merge
/// when parallelism can't help: one thread, one domain, or zero
/// lookahead).
pub struct ParSimulator {
    core: SimCore,
    /// One calendar queue per domain, index-aligned with `core.domains`.
    queues: Vec<EventQueue>,
    threads: usize,
    finished: bool,
}

impl ParSimulator {
    /// Build with as many threads as the machine offers.
    pub fn new(cfg: SimConfig) -> ParSimulator {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ParSimulator::with_threads(cfg, threads)
    }

    /// Build with an explicit thread-count cap. `threads == 1` is the
    /// serial D-way merge — still the sharded core, just no pool.
    pub fn with_threads(cfg: SimConfig, threads: usize) -> ParSimulator {
        let core = SimCore::new(cfg);
        let queues = (0..core.shared.num_domains)
            .map(|_| EventQueue::new())
            .collect();
        let mut sim = ParSimulator {
            core,
            queues,
            threads: threads.max(1),
            finished: false,
        };
        sim.drain_staged();
        sim
    }

    /// Route staged events (construction, `post_flow`) into their target
    /// domains' queues.
    fn drain_staged(&mut self) {
        for dom in &mut self.core.domains {
            for m in dom.out.drain(..) {
                self.queues[m.target].push_keyed(m.at, m.seq, m.ev);
            }
        }
    }

    /// Post a finite transfer before the run (see [`Simulator::post_flow`]).
    pub fn post_flow(&mut self, src: usize, dst: usize, bytes: u64) -> usize {
        assert!(!self.finished, "post_flow after run");
        let flow = self.core.post_flow_at(0, src, dst, bytes);
        self.drain_staged();
        flow
    }

    /// Number of event domains the topology decomposed into.
    pub fn num_domains(&self) -> usize {
        self.core.shared.num_domains
    }

    /// The thread cap this driver was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run to completion and return the report — bit-identical to
    /// [`Simulator::run`] on the same config at any thread count.
    pub fn run(&mut self) -> SimReport {
        assert!(!self.finished, "run called twice");
        self.finished = true;
        let workers = self.threads.min(self.core.shared.num_domains);
        match self.core.shared.lookahead {
            Some(w) if workers > 1 => self.run_windowed(workers, w),
            _ => self.run_merged(),
        }
        self.core.finalize_flows();
        if cfg!(debug_assertions) {
            self.core.assert_quiescent();
        }
        self.core.merged_report()
    }

    /// Events handled across all domains (valid after `run`).
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed()
    }

    /// Sum of per-domain arena high-water marks (valid after `run`).
    pub fn peak_packets(&self) -> usize {
        self.core.peak_packets()
    }

    /// Flow records in posting order (completion times filled by `run`).
    pub fn flows(&self) -> &[FlowRecord] {
        &self.core.flows
    }

    /// Fallback driver: pop the globally minimal key across the per-domain
    /// queues. Exactly the serial engine's order (each event lives in its
    /// target's queue, and per-domain key order is a refinement of the
    /// global one), without threads or windows.
    ///
    /// The per-domain heads are tracked in a lazy min-heap rather than a
    /// linear scan: an entry is pushed whenever a domain's head changes
    /// (after a pop, or when a routed event becomes the new head), and a
    /// popped entry that no longer matches its domain's head is simply
    /// discarded — every current head always has a live entry.
    fn run_merged(&mut self) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heads: BinaryHeap<Reverse<(crate::event::EventKey, usize)>> = self
            .queues
            .iter_mut()
            .enumerate()
            .filter_map(|(d, q)| q.peek_key().map(|k| Reverse((k, d))))
            .collect();
        while let Some(Reverse((key, d))) = heads.pop() {
            match self.queues[d].peek_key() {
                Some(cur) if cur == key => {}
                _ => continue, // stale entry; the real head has its own
            }
            let (key, ev) = self.queues[d].pop_keyed().unwrap();
            let dom = &mut self.core.domains[d];
            dom.now = key.time;
            dom.events += 1;
            Ctx {
                sh: &self.core.shared,
                dom,
            }
            .handle(ev);
            for m in dom.out.drain(..) {
                let t = m.target;
                let prev = self.queues[t].peek_key();
                self.queues[t].push_keyed(m.at, m.seq, m.ev);
                let now_head = self.queues[t].peek_key().unwrap();
                if prev != Some(now_head) {
                    heads.push(Reverse((now_head, t)));
                }
            }
            if let Some(next) = self.queues[d].peek_key() {
                heads.push(Reverse((next, d)));
            }
        }
    }

    /// The windowed parallel protocol described in the module docs.
    fn run_windowed(&mut self, workers: usize, w: SimTime) {
        let nd = self.core.shared.num_domains;
        let mut t0 = SimTime::MAX;
        for q in self.queues.iter_mut() {
            if let Some(k) = q.peek_key() {
                t0 = t0.min(k.time);
            }
        }
        if t0 == SimTime::MAX {
            return; // nothing scheduled
        }
        let pool = ib_runtime::par::global_pool(workers);
        let workers = workers.min(pool.threads());
        if workers <= 1 {
            return self.run_merged();
        }

        let queue_next: Vec<AtomicU64> = self
            .queues
            .iter_mut()
            .map(|q| AtomicU64::new(q.peek_key().map_or(SimTime::MAX, |k| k.time)))
            .collect();
        // Each worker owns a fixed round-robin slice of the domains; the
        // slot Mutex is locked once per run, not per round.
        let slots: Vec<Mutex<Vec<(usize, Domain, EventQueue)>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        for (d, (dom, queue)) in self
            .core
            .domains
            .drain(..)
            .zip(self.queues.drain(..))
            .enumerate()
        {
            let mut slot = slots[d % workers].lock().unwrap_or_else(|p| p.into_inner());
            slot.push((d, dom, queue));
        }
        let mailboxes: Vec<Mutex<Mailbox>> = (0..nd)
            .map(|_| {
                Mutex::new(Mailbox {
                    msgs: Vec::new(),
                    next: SimTime::MAX,
                })
            })
            .collect();
        let round = AtomicU64::new(1);
        let arrived = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let window_end = AtomicU64::new(t0.saturating_add(w));
        let sh = &self.core.shared;

        pool.broadcast(&|widx: usize| {
            if widx >= workers {
                return; // pool may be wider than this run needs
            }
            let _guard = PanicGuard {
                done: &done,
                arrived: &arrived,
                round: &round,
            };
            let mut local = slots[widx].lock().unwrap_or_else(|p| p.into_inner());
            let mut my_round = 1u64;
            loop {
                // Wait for the coordinator to open my round.
                let mut spins = 0u32;
                while round.load(Ordering::Acquire) < my_round {
                    if done.load(Ordering::Acquire) {
                        return;
                    }
                    relax(&mut spins);
                }
                if done.load(Ordering::Acquire) {
                    return;
                }
                let wend = window_end.load(Ordering::Acquire);
                for (d, dom, queue) in local.iter_mut() {
                    let d = *d;
                    {
                        // Everything mailed last round is due ≥ this
                        // window's start: merge it before processing.
                        let mut mb = mailboxes[d].lock().unwrap_or_else(|p| p.into_inner());
                        for (at, seq, ev) in mb.msgs.drain(..) {
                            queue.push_keyed(at, seq, ev);
                        }
                        mb.next = SimTime::MAX;
                    }
                    while let Some(key) = queue.peek_key() {
                        if key.time >= wend {
                            break;
                        }
                        let (key, ev) = queue.pop_keyed().unwrap();
                        dom.now = key.time;
                        dom.events += 1;
                        Ctx { sh, dom }.handle(ev);
                        for m in dom.out.drain(..) {
                            if m.target == d {
                                queue.push_keyed(m.at, m.seq, m.ev);
                            } else {
                                let mut mb = mailboxes[m.target]
                                    .lock()
                                    .unwrap_or_else(|p| p.into_inner());
                                mb.next = mb.next.min(m.at);
                                mb.msgs.push((m.at, m.seq, m.ev));
                            }
                        }
                    }
                    queue_next[d].store(
                        queue.peek_key().map_or(SimTime::MAX, |k| k.time),
                        Ordering::Release,
                    );
                }
                arrived.fetch_add(1, Ordering::AcqRel);
                if widx == 0 {
                    // Coordinator: close the barrier, jump the horizon.
                    let mut spins = 0u32;
                    while arrived.load(Ordering::Acquire) < workers {
                        if done.load(Ordering::Acquire) {
                            return;
                        }
                        relax(&mut spins);
                    }
                    let mut t = SimTime::MAX;
                    for d in 0..nd {
                        t = t.min(queue_next[d].load(Ordering::Acquire));
                        let mb = mailboxes[d].lock().unwrap_or_else(|p| p.into_inner());
                        t = t.min(mb.next);
                    }
                    if t == SimTime::MAX {
                        done.store(true, Ordering::Release);
                        round.fetch_add(1, Ordering::Release);
                        return;
                    }
                    window_end.store(t.saturating_add(w), Ordering::Release);
                    arrived.store(0, Ordering::Release);
                    round.fetch_add(1, Ordering::Release);
                }
                my_round += 1;
            }
        });

        // Move every domain (and its queue) back in index order.
        let mut returned: Vec<Option<(Domain, EventQueue)>> = (0..nd).map(|_| None).collect();
        for slot in slots {
            let inner = slot.into_inner().unwrap_or_else(|p| p.into_inner());
            for (d, dom, queue) in inner {
                returned[d] = Some((dom, queue));
            }
        }
        for pair in returned {
            let (dom, queue) = pair.expect("every domain returns from its worker");
            self.core.domains.push(dom);
            self.queues.push(queue);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{TopoSpec, TrapTransport};
    use crate::time::{MS, US};
    use ib_mgmt::enforcement::EnforcementKind;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            duration: 2 * MS,
            warmup: 200 * US,
            ..SimConfig::default()
        }
    }

    /// Byte-level report equality via the JSON form (covers every counter
    /// and the raw Welford accumulators).
    fn assert_identical(cfg: SimConfig, threads: usize) {
        let serial = Simulator::new(cfg.clone());
        let serial_events = {
            let (report, events) = serial.run_counted();
            let mut par = ParSimulator::with_threads(cfg, threads);
            let preport = par.run();
            assert_eq!(
                report.to_json().to_string(),
                preport.to_json().to_string(),
                "parallel report diverged at {threads} threads"
            );
            (events, par.events_processed(), par.peak_packets())
        };
        let (se, pe, _) = serial_events;
        assert_eq!(se, pe, "event counts diverged");
    }

    #[test]
    fn mesh_matches_serial_at_many_thread_counts() {
        for threads in [1, 2, 4, 7] {
            assert_identical(quick_cfg(), threads);
        }
    }

    #[test]
    fn fat_tree_with_attack_matches_serial() {
        let mut cfg = quick_cfg();
        cfg.topology = TopoSpec::FatTree { k: 4 };
        cfg.num_attackers = 2;
        cfg.attack_probability = 1.0;
        cfg.enforcement = EnforcementKind::Sif;
        assert_identical(cfg, 4);
    }

    #[test]
    fn inband_traps_match_serial() {
        let mut cfg = quick_cfg();
        cfg.topology = TopoSpec::FatTree { k: 4 };
        cfg.num_attackers = 2;
        cfg.attack_probability = 1.0;
        cfg.enforcement = EnforcementKind::Sif;
        cfg.trap_transport = TrapTransport::InBand;
        assert_identical(cfg, 4);
    }

    #[test]
    fn dragonfly_with_faults_matches_serial() {
        let mut cfg = quick_cfg();
        cfg.topology = TopoSpec::Dragonfly {
            a: 2,
            p: 2,
            h: 1,
            valiant: true,
        };
        cfg.fault = crate::fault::FaultConfig {
            drop_prob: 0.02,
            corrupt_prob: 0.01,
            reorder_prob: 0.01,
            reorder_delay_ps: 20 * US,
        };
        assert_identical(cfg, 3);
    }

    #[test]
    fn flows_match_serial_end_to_end() {
        let mut cfg = quick_cfg();
        cfg.topology = TopoSpec::FatTree { k: 4 };
        cfg.num_partitions = 1;
        cfg.traffic.realtime_load = 0.05;
        cfg.traffic.best_effort_load = 0.05;
        let post = |sim: &mut dyn FnMut(usize, usize, u64) -> usize| {
            let n = 16;
            for src in 0..n {
                sim(src, (src + 5) % n, 8 * 1024);
            }
        };
        let mut serial = Simulator::new(cfg.clone());
        post(&mut |s, d, b| serial.post_flow(s, d, b));
        serial.run_hosts_until(SimTime::MAX);
        let mut par = ParSimulator::with_threads(cfg, 4);
        post(&mut |s, d, b| par.post_flow(s, d, b));
        par.run();
        let sf: Vec<_> = serial.flows().iter().map(|f| f.completed_at).collect();
        let pf: Vec<_> = par.flows().iter().map(|f| f.completed_at).collect();
        assert_eq!(sf, pf, "flow completion times diverged");
        assert!(sf.iter().all(|c| c.is_some()));
        assert_eq!(serial.peak_packets(), par.peak_packets());
    }

    #[test]
    fn peak_packets_is_thread_invariant() {
        let run = |threads| {
            let mut par = ParSimulator::with_threads(quick_cfg(), threads);
            par.run();
            par.peak_packets()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(5));
    }
}
