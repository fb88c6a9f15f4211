//! The discrete-event core: event kinds, a free-listed event arena, and a
//! calendar-queue scheduler ordering compact `(time, seq, idx)` keys.
//!
//! ## Why not a plain `BinaryHeap<(SimTime, u64, Event)>`
//!
//! The original queue carried every `Event` — including a full inline
//! [`SimPacket`] with its `Option<Trap>` — *inside* the heap, so each
//! sift-up/sift-down memcpy'd ~100 bytes per level. Under the paper's
//! P_Key-flooding regime (the event-count maximum of every figure), the
//! scheduler was the simulator's single hottest path. The rebuilt queue
//! splits storage from ordering:
//!
//! * events live once in `EventArena`, a free-listed slab that recycles
//!   slots, and
//! * the priority structure orders only 20-byte [`EventKey`]s — a
//!   calendar queue (Brown, CACM 1988): a bucketed timing wheel for the
//!   near future plus a binary-heap overflow for far-future events
//!   (attack-window starts, key-exchange RTTs, end-of-run timers).
//!
//! Keys due inside the cursor's window — the only ones a pop can return
//! — sit in a small binary min-heap, built in O(b) when the cursor
//! reaches a bucket holding b keys. Push is O(1) onto an unsorted future
//! bucket (O(log b) into the cursor window); pop is O(log b) over the
//! *window's* population, not the queue's: a handful of keys on the
//! paper's mesh, and still logarithmic when 1024 HCAs inject inside one
//! 16.4 ns window (a per-pop scan of that bucket would be quadratic per
//! burst).
//!
//! ## Determinism contract
//!
//! Ties in time break by `seq`, so runs with the same seed replay
//! identically — the hard correctness contract behind every
//! `BENCH_fig*.json` byte-identity gate. [`EventKey`] derives its
//! lexicographic `(time, seq, idx)` order (`seq` is unique, so `idx`
//! never decides), and both schedulers — the calendar [`EventQueue`] and
//! the reference [`HeapQueue`] oracle — pop the exact same key stream for
//! the same pushes, a property enforced by `tests/event_scheduler.rs`.
//!
//! `seq` comes in two flavours. The legacy [`EventQueue::push`] assigns a
//! per-queue insertion counter — fine for a single global queue. The
//! sharded engine instead composes an *intrinsic* key via
//! [`EventQueue::push_keyed`]: `seq = origin_entity_id << 32 | oseq`,
//! where `oseq` is a per-origin counter. Intrinsic keys are independent
//! of which queue an event lands in and of arrival order, so the serial
//! engine (one merged queue) and the parallel engine (one queue per event
//! domain) pop identical per-domain `(time, seq)` streams — the
//! foundation of the bit-identical-at-any-thread-count guarantee.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ib_mgmt::trap::Trap;
use ib_packet::types::PKey;

use crate::arena::PacketRef;
use crate::time::SimTime;
use crate::traffic::TrafficClass;

/// A packet moving through the simulation. Header fields mirror the real
/// wire format (`ib-packet` builds/parses the bytes in the functional
/// tests); the simulator carries them unserialized for speed. In-flight
/// packets live in the engine's `crate::arena::PacketArena`; events and
/// queues pass 4-byte `PacketRef` indices instead of this ~100-byte
/// struct.
#[derive(Debug, Clone)]
pub struct SimPacket {
    /// Source node index.
    pub(crate) src: usize,
    /// Destination node index.
    pub(crate) dst: usize,
    /// Traffic class (selects VL and priority).
    pub(crate) class: TrafficClass,
    /// P_Key carried in the BTH.
    pub(crate) pkey: PKey,
    /// Virtual lane the packet travels on. Legitimate traffic uses its
    /// class's VL; attackers spray across data VLs to hit both classes.
    pub(crate) vl: u8,
    /// Wire size in bytes (headers + payload + CRCs).
    pub(crate) bytes: usize,
    /// Generation timestamp (enqueue at the source HCA).
    pub(crate) gen_time: SimTime,
    /// First-byte-on-wire timestamp (set at injection).
    pub(crate) inject_time: SimTime,
    /// For in-band management packets: the trap notice carried in the MAD.
    pub(crate) trap: Option<Trap>,
    /// Set when the fault layer flipped bits in transit. The fault layer
    /// flips one byte, an error burst a CRC-32 always detects, so the
    /// destination HCA discards the packet on this flag alone and counts
    /// it in `corrupt_drops`.
    pub(crate) corrupted: bool,
    /// Host-injected real wire image ([`crate::Simulator::post_host`]).
    /// `None` for the simulator's own abstract traffic. When present, the
    /// fabric carries the bytes opaquely — the destination HCA hands them
    /// back to the host instead of running the abstract receive path, so
    /// an external transport's own CRC/MAC machinery judges them.
    pub(crate) wire: Option<Vec<u8>>,
    /// Index of the [`crate::Simulator::post_flow`] transfer this packet
    /// belongs to; the flow completes when its last packet is delivered.
    pub(crate) flow: Option<u32>,
}

impl SimPacket {
    /// A packet generated at `now`: not yet injected, untouched by the
    /// fault layer, and carrying no trap, host bytes or flow.
    pub(crate) fn new(
        src: usize,
        dst: usize,
        class: TrafficClass,
        pkey: PKey,
        vl: u8,
        bytes: usize,
        now: SimTime,
    ) -> SimPacket {
        SimPacket {
            src,
            dst,
            class,
            pkey,
            vl,
            bytes,
            gen_time: now,
            inject_time: 0,
            trap: None,
            corrupted: false,
            wire: None,
            flow: None,
        }
    }
}

/// Events the engine processes. Packet-carrying variants hold an arena
/// index, keeping the enum small enough that arena slots and the (rare)
/// overflow-heap sifts stay cheap.
#[derive(Debug, Clone)]
pub enum Event {
    /// A traffic source at `node` fires (class decides what happens next).
    Generate { node: usize, class: TrafficClass },
    /// The HCA at `node` re-evaluates its injection opportunity.
    TryInject { node: usize },
    /// A packet finishes arriving at `switch` input `port`.
    SwitchArrive {
        switch: usize,
        port: usize,
        packet: PacketRef,
    },
    /// Output `port` of `switch` re-evaluates its arbitration.
    TryForward { switch: usize, port: usize },
    /// A packet finishes arriving at its destination HCA.
    HcaReceive { node: usize, packet: PacketRef },
    /// A credit returns to `switch`'s output `port` for `vl`.
    SwitchCredit { switch: usize, port: usize, vl: u8 },
    /// A credit returns to the HCA at `node` for `vl`.
    HcaCredit { node: usize, vl: u8 },
    /// A trap MAD reaches the SM.
    TrapDeliver { trap: Trap },
    /// The SM's filter programming lands on `switch`.
    FilterProgram {
        switch: usize,
        port: usize,
        pkey: PKey,
    },
    /// [`SwitchArrive`](Event::SwitchArrive) crossing an event-domain
    /// boundary: the packet left the source domain's arena at emission and
    /// rides in the event itself; the target domain inserts it into *its*
    /// arena when the event is handled. Both engines use this path for
    /// every cross-domain hop, so per-domain arena high-water marks are
    /// identical serial vs parallel.
    SwitchArriveRemote {
        switch: usize,
        port: usize,
        packet: Box<SimPacket>,
    },
    /// [`HcaReceive`](Event::HcaReceive) crossing an event-domain
    /// boundary (see [`SwitchArriveRemote`](Event::SwitchArriveRemote)).
    HcaReceiveRemote { node: usize, packet: Box<SimPacket> },
}

/// Compact scheduling key: the only thing the priority structures move.
/// The derived lexicographic order *is* the scheduling order — time
/// first, then insertion sequence (the determinism tie-break); `seq` is
/// unique per queue so `idx` never participates in a real comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Absolute due time.
    pub time: SimTime,
    /// Insertion sequence number (1-based, unique).
    pub seq: u64,
    /// Arena slot holding the event payload.
    pub(crate) idx: u32,
}

/// Free-listed slab: events are stored exactly once and slots recycle, so
/// steady-state scheduling allocates nothing.
#[derive(Debug)]
struct EventArena<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
}

#[derive(Debug)]
enum Slot<T> {
    Full(T),
    Free { next: u32 },
}

/// Free-list terminator.
const NIL: u32 = u32::MAX;

impl<T> EventArena<T> {
    fn new() -> Self {
        EventArena {
            slots: Vec::new(),
            free_head: NIL,
        }
    }

    fn insert(&mut self, value: T) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            match std::mem::replace(&mut self.slots[idx as usize], Slot::Full(value)) {
                Slot::Free { next } => self.free_head = next,
                Slot::Full(_) => unreachable!("free list points at an occupied slot"),
            }
            idx
        } else {
            self.slots.push(Slot::Full(value));
            (self.slots.len() - 1) as u32
        }
    }

    fn take(&mut self, idx: u32) -> T {
        let slot = std::mem::replace(
            &mut self.slots[idx as usize],
            Slot::Free {
                next: self.free_head,
            },
        );
        self.free_head = idx;
        match slot {
            Slot::Full(value) => value,
            Slot::Free { .. } => unreachable!("scheduled key points at a free slot"),
        }
    }
}

/// Width of one wheel bucket, ps (2^14 ps ≈ 16.4 ns — several byte times
/// at 2.5 Gb/s, so adjacent wire events usually share a bucket).
pub const BUCKET_WIDTH_PS: SimTime = 1 << BUCKET_BITS;
const BUCKET_BITS: u32 = 14;
/// Buckets on the wheel (one rotation covers [`HORIZON_PS`]).
pub(crate) const WHEEL_BUCKETS: usize = 1 << WHEEL_BITS;
const WHEEL_BITS: u32 = 10;
/// The wheel's horizon, ps (≈ 16.8 µs): events due further out than this
/// from the cursor wait in the overflow heap.
pub const HORIZON_PS: SimTime = (WHEEL_BUCKETS as SimTime) << BUCKET_BITS;

/// The wheel slot covering absolute time `t`.
fn bucket_of(t: SimTime) -> usize {
    ((t >> BUCKET_BITS) as usize) & (WHEEL_BUCKETS - 1)
}

/// Deterministic priority queue: ties in time break by insertion
/// sequence, so runs with the same seed replay identically.
///
/// Implemented as a calendar queue: a `WHEEL_BUCKETS`-bucket timing
/// wheel of unsorted [`EventKey`] vectors covering the next
/// [`HORIZON_PS`] picoseconds, a binary min-heap over the keys due in the
/// cursor bucket's window, and a binary-heap fallback for far-future
/// events that migrate onto the wheel as the cursor advances. Event
/// payloads live in the internal arena; only keys move.
#[derive(Debug)]
pub struct EventQueue<T = Event> {
    arena: EventArena<T>,
    /// Future buckets, unsorted. The cursor's own slot stays empty: its
    /// keys live in `due`.
    wheel: Vec<Vec<Reverse<EventKey>>>,
    /// Every key due before the cursor window's end, heap-ordered — the
    /// queue's minimum is always its top once `locate_min` returns.
    due: BinaryHeap<Reverse<EventKey>>,
    /// Keys in `wheel` (so empty-wheel runs can jump the cursor straight
    /// to the overflow minimum).
    in_wheel: usize,
    /// Start of the cursor bucket's window (multiple of the bucket width;
    /// never decreases).
    wheel_start: SimTime,
    /// Far-future keys (due at or past `wheel_start + HORIZON_PS`).
    overflow: BinaryHeap<Reverse<EventKey>>,
    seq: u64,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            arena: EventArena::new(),
            wheel: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            due: BinaryHeap::new(),
            in_wheel: 0,
            wheel_start: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: T) {
        self.seq += 1;
        let seq = self.seq;
        self.push_keyed(at, seq, event);
    }

    /// Schedule `event` at `at` under a caller-composed tie-break `seq`
    /// (the sharded engine's `origin << 32 | oseq` intrinsic keys). The
    /// caller owns uniqueness of `(at, seq)` pairs; the internal
    /// auto-sequence counter is untouched, so mixing `push` and
    /// `push_keyed` on one queue is only sound if the key spaces are
    /// disjoint.
    pub fn push_keyed(&mut self, at: SimTime, seq: u64, event: T) {
        let key = EventKey {
            time: at,
            seq,
            idx: self.arena.insert(event),
        };
        self.len += 1;
        self.place(key);
    }

    /// File a key in the cursor heap, on the wheel or in the overflow
    /// heap. Keys due before the cursor window's end — inside it, or
    /// behind `wheel_start` when a peek or a far jump advanced the cursor
    /// past the caller's clock (the co-simulation's `post_host` and the
    /// parallel driver's mailboxes both do this) — join the heap, whose
    /// full-key order pops them first.
    fn place(&mut self, key: EventKey) {
        if key.time < self.wheel_start + BUCKET_WIDTH_PS {
            self.due.push(Reverse(key));
        } else if key.time < self.wheel_start + HORIZON_PS {
            self.wheel[bucket_of(key.time)].push(Reverse(key));
            self.in_wheel += 1;
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// Pop the earliest event (ties by key order).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_keyed().map(|(key, ev)| (key.time, ev))
    }

    /// Pop the earliest event with its full scheduling key — the sharded
    /// engine needs `(time, seq)` to merge and compare streams across
    /// domain queues.
    pub fn pop_keyed(&mut self) -> Option<(EventKey, T)> {
        self.locate_min()?;
        let Reverse(key) = self.due.pop().expect("locate_min filled the cursor heap");
        self.len -= 1;
        let ev = self.arena.take(key.idx);
        Some((key, ev))
    }

    /// The earliest pending key without removing it (`&mut` because the
    /// search may advance the wheel cursor past empty windows — a
    /// time-monotonic, order-preserving operation). The parallel engine's
    /// coordinator uses this to compute the global horizon each window.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        self.locate_min()
    }

    /// Advance the wheel until the cursor heap holds the minimum pending
    /// key; return it.
    fn locate_min(&mut self) -> Option<EventKey> {
        if self.len == 0 {
            return None;
        }
        while self.due.is_empty() {
            // Nothing due in this window: advance the wheel — bucket by
            // bucket while keys remain on it, else jump the cursor
            // straight to the earliest overflow key's bucket.
            if self.in_wheel == 0 {
                let Reverse(next) = *self
                    .overflow
                    .peek()
                    .expect("len > 0 with an empty wheel implies overflow keys");
                self.wheel_start = (next.time >> BUCKET_BITS) << BUCKET_BITS;
            } else {
                self.wheel_start += BUCKET_WIDTH_PS;
            }
            // Keys now inside the horizon migrate onto the wheel.
            while let Some(&Reverse(key)) = self.overflow.peek() {
                if key.time >= self.wheel_start + HORIZON_PS {
                    break;
                }
                self.overflow.pop();
                self.wheel[bucket_of(key.time)].push(Reverse(key));
                self.in_wheel += 1;
            }
            // Heapify the bucket the cursor reached, in place: its vector
            // becomes the heap's storage and the drained heap's vector
            // becomes the empty bucket, so capacity circulates.
            let cursor = bucket_of(self.wheel_start);
            if !self.wheel[cursor].is_empty() {
                let spare = std::mem::take(&mut self.due).into_vec();
                let bucket = std::mem::replace(&mut self.wheel[cursor], spare);
                self.in_wheel -= bucket.len();
                self.due = BinaryHeap::from(bucket);
            }
        }
        self.due.peek().map(|&Reverse(key)| key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water arena capacity (slots ever allocated) — the recycling
    /// witness: steady-state scheduling reuses freed slots instead of
    /// growing.
    #[cfg(test)]
    fn arena_capacity(&self) -> usize {
        self.arena.slots.len()
    }
}

/// Reference scheduler: a binary heap over the same compact [`EventKey`]s
/// and the same arena. Kept as the oracle for the scheduler-equivalence
/// property test (`tests/event_scheduler.rs`) and as the baseline arm of
/// the `sim_engine` bench gate — the calendar queue must pop the exact
/// same `(time, seq)` stream and must not be slower.
#[derive(Debug)]
pub struct HeapQueue<T = Event> {
    heap: BinaryHeap<Reverse<EventKey>>,
    arena: EventArena<T>,
    seq: u64,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            arena: EventArena::new(),
            seq: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: T) {
        self.seq += 1;
        let seq = self.seq;
        self.push_keyed(at, seq, event);
    }

    /// Schedule `event` under a caller-composed tie-break `seq` (see
    /// [`EventQueue::push_keyed`]).
    pub fn push_keyed(&mut self, at: SimTime, seq: u64, event: T) {
        let key = EventKey {
            time: at,
            seq,
            idx: self.arena.insert(event),
        };
        self.heap.push(Reverse(key));
    }

    /// Pop the earliest event (ties by key order).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_keyed().map(|(key, ev)| (key.time, ev))
    }

    /// Pop the earliest event with its full scheduling key.
    pub fn pop_keyed(&mut self) -> Option<(EventKey, T)> {
        self.heap.pop().map(|Reverse(key)| {
            let ev = self.arena.take(key.idx);
            (key, ev)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::TryInject { node: 3 });
        q.push(10, Event::TryInject { node: 1 });
        q.push(20, Event::TryInject { node: 2 });
        let (t1, _) = q.pop().unwrap();
        let (t2, _) = q.pop().unwrap();
        let (t3, _) = q.pop().unwrap();
        assert_eq!((t1, t2, t3), (10, 20, 30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::TryInject { node: 1 });
        q.push(5, Event::TryInject { node: 2 });
        q.push(5, Event::TryInject { node: 3 });
        let order: Vec<usize> = (0..3)
            .map(|_| match q.pop().unwrap().1 {
                Event::TryInject { node } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, Event::TryInject { node: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn event_key_orders_lexicographically() {
        // The satellite fix for the old degenerate `EventBox` shims: the
        // compact key's derived orderings are *real* — time first, then
        // insertion sequence, then slot index.
        let k = |time, seq, idx| EventKey { time, seq, idx };
        assert!(k(1, 9, 9) < k(2, 0, 0), "time dominates");
        assert!(k(5, 1, 9) < k(5, 2, 0), "seq breaks time ties");
        assert!(k(5, 1, 0) < k(5, 1, 1), "idx is a total-order backstop");
        assert_eq!(k(5, 1, 2), k(5, 1, 2));
        assert_eq!(k(5, 1, 2).cmp(&k(5, 1, 2)), std::cmp::Ordering::Equal);
        let mut v = [k(3, 1, 0), k(1, 2, 1), k(1, 1, 2), k(2, 5, 3)];
        v.sort();
        assert_eq!(
            v.iter().map(|key| (key.time, key.seq)).collect::<Vec<_>>(),
            vec![(1, 1), (1, 2), (2, 5), (3, 1)]
        );
    }

    /// The regression the rewrite must not introduce: equal-time events
    /// pop in insertion order even when the burst times straddle bucket
    /// and horizon boundaries (so some keys sit on the wheel while their
    /// time-twins arrive via the overflow heap).
    #[test]
    fn equal_time_bursts_pop_in_insertion_order_across_bucket_boundaries() {
        let times = [
            0,
            BUCKET_WIDTH_PS - 1,
            BUCKET_WIDTH_PS,
            BUCKET_WIDTH_PS + 1,
            7 * BUCKET_WIDTH_PS,
            HORIZON_PS - 1,
            HORIZON_PS, // first overflow key
            HORIZON_PS + BUCKET_WIDTH_PS,
            3 * HORIZON_PS + 17,
        ];
        let mut q: EventQueue<u64> = EventQueue::new();
        // Interleave insertion across times so each time's burst gets
        // non-adjacent sequence numbers.
        let mut expected: Vec<(SimTime, u64)> = Vec::new();
        let mut payload = 0u64;
        for round in 0..3u64 {
            for &t in &times {
                q.push(t, payload);
                expected.push((t, payload));
                payload += 1;
            }
            // Payloads were pushed in round-robin order; the expected pop
            // order is by (time, insertion order), which `expected`
            // acquires by a stable sort on time.
            let _ = round;
        }
        expected.sort_by_key(|&(t, _)| t);
        let mut popped = Vec::new();
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        assert_eq!(popped, expected);
    }

    #[test]
    fn far_future_events_migrate_through_overflow() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.push(5 * HORIZON_PS, "far");
        q.push(2, "near");
        q.push(5 * HORIZON_PS, "far-too");
        q.push(HORIZON_PS + 3, "middle");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((2, "near")));
        assert_eq!(q.pop(), Some((HORIZON_PS + 3, "middle")));
        assert_eq!(q.pop(), Some((5 * HORIZON_PS, "far")));
        assert_eq!(q.pop(), Some((5 * HORIZON_PS, "far-too")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn arena_slots_recycle() {
        let mut q: EventQueue<u64> = EventQueue::new();
        // A push/pop churn an order of magnitude past the live set: the
        // arena must stop growing once the steady-state size is reached.
        for i in 0..8u64 {
            q.push(i, i);
        }
        for round in 0..100u64 {
            let (t, _) = q.pop().unwrap();
            q.push(t + 100 + round, round);
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.arena_capacity(), 8, "free-listed slots must recycle");
    }

    #[test]
    fn heap_reference_matches_basic_ordering() {
        let mut q: HeapQueue<u32> = HeapQueue::new();
        q.push(30, 0);
        q.push(10, 1);
        q.push(10, 2);
        q.push(20, 3);
        let order: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, 1), (10, 2), (20, 3), (30, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        // Pops interleaved with pushes at earlier-but-still-future times:
        // the cursor must not run past events pushed behind it.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(10 * BUCKET_WIDTH_PS, 0);
        assert_eq!(q.pop(), Some((10 * BUCKET_WIDTH_PS, 0)));
        // Cursor now sits at bucket 10; push into the same window and at
        // the window edge.
        q.push(10 * BUCKET_WIDTH_PS + 1, 1);
        q.push(11 * BUCKET_WIDTH_PS, 2);
        q.push(10 * BUCKET_WIDTH_PS + 2, 3);
        assert_eq!(q.pop(), Some((10 * BUCKET_WIDTH_PS + 1, 1)));
        assert_eq!(q.pop(), Some((10 * BUCKET_WIDTH_PS + 2, 3)));
        assert_eq!(q.pop(), Some((11 * BUCKET_WIDTH_PS, 2)));
    }

    /// A peek may jump the cursor far past the caller's clock (the
    /// co-simulation's `post_host` and the parallel driver's mailboxes
    /// then push behind it): such keys still pop first, in key order.
    #[test]
    fn pushes_behind_an_advanced_cursor_pop_first() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(5 * HORIZON_PS, 0);
        assert_eq!(q.peek_key().map(|k| k.time), Some(5 * HORIZON_PS));
        q.push(3 * BUCKET_WIDTH_PS + 1, 1);
        q.push(7, 2);
        q.push(5 * HORIZON_PS - 1, 3);
        assert_eq!(q.peek_key().map(|k| k.time), Some(7));
        let order: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (7, 2),
                (3 * BUCKET_WIDTH_PS + 1, 1),
                (5 * HORIZON_PS - 1, 3),
                (5 * HORIZON_PS, 0)
            ]
        );
    }

    /// Intrinsic keys pop by `(time, seq)` regardless of insertion order
    /// — the property that makes serial and sharded queues agree.
    #[test]
    fn keyed_pushes_pop_by_key_not_insertion_order() {
        let compose = |origin: u64, oseq: u64| (origin << 32) | oseq;
        let mut cal: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        // Insert in scrambled order, including a time tie decided by the
        // composed origin/oseq key.
        let items = [
            (50, compose(7, 1), 0u32),
            (10, compose(9, 4), 1),
            (50, compose(2, 8), 2),
            (30, compose(0, 1), 3),
            (50, compose(7, 0), 4),
        ];
        for &(t, s, v) in &items {
            cal.push_keyed(t, s, v);
            heap.push_keyed(t, s, v);
        }
        let expect = [
            (10, compose(9, 4), 1u32),
            (30, compose(0, 1), 3),
            (50, compose(2, 8), 2),
            (50, compose(7, 0), 4),
            (50, compose(7, 1), 0),
        ];
        for &(t, s, v) in &expect {
            assert_eq!(cal.peek_key().map(|k| (k.time, k.seq)), Some((t, s)));
            let (ck, cv) = cal.pop_keyed().unwrap();
            let (hk, hv) = heap.pop_keyed().unwrap();
            assert_eq!((ck.time, ck.seq, cv), (t, s, v));
            assert_eq!((hk.time, hk.seq, hv), (t, s, v));
        }
        assert!(cal.pop_keyed().is_none() && heap.pop_keyed().is_none());
    }
}
