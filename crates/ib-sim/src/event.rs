//! The discrete-event core: event kinds and a calendar-queue scheduler
//! that stores each event inline under one packed `(time, seq)` key.
//!
//! ## Why not a plain `BinaryHeap<(SimTime, u64, Event)>`
//!
//! A single heap over every pending event sifts through `log n` levels on
//! each push and pop, and under the paper's P_Key-flooding regime (the
//! event-count maximum of every figure) the scheduler is the simulator's
//! hottest path. The queue here is a calendar queue (Brown, CACM 1988):
//!
//! * each entry is the event itself beside a packed `u128` key
//!   `(time << 64) | seq`, so one integer compare orders two entries and
//!   the event moves with its key — there is no second store to index
//!   into. An [`Event`] is 16 bytes (`u32` ids, a 4-byte `PacketRef`
//!   for a packet, a side-slab slot for a trap), so an entry is 32 bytes;
//! * a bucketed timing wheel holds the near future, with one occupancy
//!   bit per bucket, and a binary-heap overflow holds far-future events
//!   (attack-window starts, key-exchange RTTs, end-of-run timers).
//!
//! Entries due inside the cursor's window — the only ones a pop can
//! return — sit in a small binary min-heap, built in O(b) when the cursor
//! reaches a bucket holding b entries. When that heap empties, the cursor
//! jumps straight to the next occupied bucket (`trailing_zeros` over the
//! bitmap words) instead of stepping one 16.4 ns bucket at a time. Push is
//! O(1) onto an unsorted future bucket (O(log b) into the cursor window);
//! pop is O(log b) over the *window's* population, not the queue's: a
//! handful of entries on the paper's mesh, and still logarithmic when
//! 1024 HCAs inject inside one window (a per-pop scan of that bucket would
//! be quadratic per burst).
//!
//! ## Determinism contract
//!
//! Ties in time break by `seq`, so runs with the same seed replay
//! identically — the hard correctness contract behind every
//! `BENCH_fig*.json` byte-identity gate. The packed key's integer order is
//! the lexicographic `(time, seq)` order [`EventKey`] derives, and both
//! schedulers — the calendar [`EventQueue`] and the reference
//! [`HeapQueue`] oracle — pop the exact same key stream for the same
//! pushes, a property enforced by `tests/event_scheduler.rs`.
//!
//! `seq` comes in two flavours. [`EventQueue::push`] assigns a per-queue
//! insertion counter. The engine instead composes an *intrinsic* key via
//! [`EventQueue::push_keyed`]: `seq = origin_entity_id << 32 | oseq`,
//! where `oseq` is a per-origin counter. An intrinsic key depends only
//! on who scheduled the event and how many events that origin scheduled
//! before it, not on when the push happened relative to other origins'
//! pushes.

use std::cmp::Ordering;
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
/// queues pass 4-byte `PacketRef` indices instead of this 48-byte
/// struct. What few packets carry, an in-band trap or a host's wire
/// image, waits in the engine's side slab under the packet's `side`
/// slot.
#[derive(Debug, Clone)]
pub(crate) struct SimPacket {
    /// Source node index.
    pub(crate) src: u32,
    /// Destination node index.
    pub(crate) dst: u32,
    /// Wire size in bytes (headers + payload + CRCs).
    pub(crate) bytes: u32,
    /// Index of the [`crate::Simulator::post_flow`] transfer this packet
    /// belongs to ([`NONE`] for any other packet); the flow completes
    /// when its last packet is delivered.
    pub(crate) flow: u32,
    /// The engine's side-slab slot holding this packet's [`Side`] data,
    /// or [`NONE`].
    pub(crate) side: u32,
    /// Generation timestamp (enqueue at the source HCA; a flow's post
    /// time for every packet cut off it).
    pub(crate) gen_time: SimTime,
    /// First-byte-on-wire timestamp (set at injection).
    pub(crate) inject_time: SimTime,
    /// Traffic class (selects VL and priority).
    pub(crate) class: TrafficClass,
    /// P_Key carried in the BTH.
    pub(crate) pkey: PKey,
    /// Virtual lane the packet travels on. Legitimate traffic uses its
    /// class's VL; attackers spray across data VLs to hit both classes.
    pub(crate) vl: u8,
    /// Set when the fault layer flipped bits in transit. The fault layer
    /// flips one byte, an error burst a CRC-32 always detects, so the
    /// destination HCA discards the packet on this flag alone and counts
    /// it in `corrupt_drops` (a host packet's bytes are flipped instead).
    pub(crate) corrupted: bool,
}

/// The `flow` and `side` of a [`SimPacket`] that has none.
pub(crate) const NONE: u32 = u32::MAX;

impl SimPacket {
    /// A packet generated at `now`: not yet injected, untouched by the
    /// fault layer, and carrying no side data and no flow. Node ids fit
    /// in `u32` (LIDs are 16-bit) and so do the engine's packet sizes.
    pub(crate) fn new(
        src: usize,
        dst: usize,
        class: TrafficClass,
        pkey: PKey,
        vl: u8,
        bytes: u32,
        now: SimTime,
    ) -> SimPacket {
        SimPacket {
            src: src as u32,
            dst: dst as u32,
            bytes,
            flow: NONE,
            side: NONE,
            gen_time: now,
            inject_time: 0,
            class,
            pkey,
            vl,
            corrupted: false,
        }
    }
}

/// Data too large or too rare to ride in a [`SimPacket`] or an
/// [`Event`]: it waits in the engine's side slab, named by a slot.
#[derive(Debug)]
pub(crate) enum Side {
    /// A trap notice: carried in an in-band management packet, or on
    /// its way to the SM out of band (`Event::TrapDeliver`).
    Trap(Trap),
    /// A host-injected wire image ([`crate::Simulator::post_host`]). The
    /// fabric carries the bytes opaquely: the destination HCA hands them
    /// back to the host instead of running the abstract receive path, so
    /// an external transport's own CRC/MAC machinery judges them.
    Wire(Vec<u8>),
}

/// Events the engine processes. Ids are `u32` (the engine widens them
/// once, in `Ctx::handle`), packet-carrying variants hold an arena index
/// and a trap travels as an index into the engine's side slab, so an
/// event is 16 bytes and a queue entry 32: the queue moves every
/// entry through the wheel and its heaps, so the entry's size is its
/// unit of work.
#[derive(Debug, Clone)]
pub enum Event {
    /// A traffic source at `node` fires (class decides what happens next).
    Generate { node: u32, class: TrafficClass },
    /// The HCA at `node` re-evaluates its injection opportunity.
    TryInject { node: u32 },
    /// A packet finishes arriving at `switch` input `port`.
    SwitchArrive {
        switch: u32,
        port: u32,
        packet: PacketRef,
    },
    /// Output `port` of `switch` re-evaluates its arbitration.
    TryForward { switch: u32, port: u32 },
    /// A packet finishes arriving at its destination HCA.
    HcaReceive { node: u32, packet: PacketRef },
    /// A credit returns to `switch`'s output `port` for `vl`.
    SwitchCredit { switch: u32, port: u32, vl: u8 },
    /// A credit returns to the HCA at `node` for `vl`.
    HcaCredit { node: u32, vl: u8 },
    /// A trap MAD reaches the SM; `slot` names the trap's slot in the
    /// engine's side slab, which the delivery empties.
    TrapDeliver { slot: u32 },
    /// The SM's filter programming lands on `switch`.
    FilterProgram { switch: u32, port: u32, pkey: PKey },
}

/// Names of the [`Event`] kinds, in the order of the engine's per-kind
/// event counters.
pub(crate) const EVENT_KINDS: [&str; 9] = [
    "Generate",
    "TryInject",
    "SwitchArrive",
    "TryForward",
    "HcaReceive",
    "SwitchCredit",
    "HcaCredit",
    "TrapDeliver",
    "FilterProgram",
];

impl Event {
    /// This event's index into [`EVENT_KINDS`].
    pub(crate) fn kind(&self) -> usize {
        match self {
            Event::Generate { .. } => 0,
            Event::TryInject { .. } => 1,
            Event::SwitchArrive { .. } => 2,
            Event::TryForward { .. } => 3,
            Event::HcaReceive { .. } => 4,
            Event::SwitchCredit { .. } => 5,
            Event::HcaCredit { .. } => 6,
            Event::TrapDeliver { .. } => 7,
            Event::FilterProgram { .. } => 8,
        }
    }
}

/// A scheduling key as the queues report it: time first, then the
/// tie-break sequence (the determinism contract), which is also the
/// derived order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Absolute due time.
    pub time: SimTime,
    /// Tie-break sequence number (unique per queue).
    pub seq: u64,
}

impl EventKey {
    /// `(time << 64) | seq`: one integer whose order is the key order.
    fn pack(self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.seq)
    }
}

/// One scheduled event, stored inline beside its packed key. Entries
/// order by key alone and in reverse, so a [`BinaryHeap`] (a max-heap)
/// pops the earliest.
#[derive(Debug)]
struct Entry<T> {
    key: u128,
    ev: T,
}

impl<T> Entry<T> {
    fn new(at: SimTime, seq: u64, ev: T) -> Self {
        Entry {
            key: EventKey { time: at, seq }.pack(),
            ev,
        }
    }

    fn time(&self) -> SimTime {
        (self.key >> 64) as SimTime
    }

    fn event_key(&self) -> EventKey {
        EventKey {
            time: self.time(),
            seq: self.key as u64,
        }
    }
}

// The hot path's sizes, pinned: a field that fattens the event fattens
// every entry the queue moves, and one that fattens the packet fattens
// every arena slot each hop reads.
const _: () = assert!(std::mem::size_of::<Event>() == 16);
const _: () = assert!(std::mem::size_of::<Entry<Event>>() == 32);
const _: () = assert!(std::mem::size_of::<Option<SimPacket>>() == 48);

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
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
/// Words in the wheel's occupancy bitmap, one bit per bucket.
const OCCUPANCY_WORDS: usize = WHEEL_BUCKETS / 64;

/// The wheel slot covering absolute time `t`.
fn bucket_of(t: SimTime) -> usize {
    ((t >> BUCKET_BITS) as usize) & (WHEEL_BUCKETS - 1)
}

/// Deterministic priority queue: ties in time break by insertion
/// sequence, so runs with the same seed replay identically.
///
/// Implemented as a calendar queue: a `WHEEL_BUCKETS`-bucket timing
/// wheel of unsorted entry vectors covering the next [`HORIZON_PS`]
/// picoseconds with an occupancy bit per bucket, a binary min-heap over
/// the entries due in the cursor bucket's window, and a binary-heap
/// fallback for far-future events that migrate onto the wheel as the
/// cursor advances. Each event is stored once, inline with its key.
#[derive(Debug)]
pub struct EventQueue<T = Event> {
    /// Future buckets, unsorted. The cursor's own slot stays empty: its
    /// entries live in `due`.
    wheel: Vec<Vec<Entry<T>>>,
    /// Bit `b % 64` of word `b / 64` is set exactly when bucket `b` of
    /// `wheel` is non-empty.
    occupied: [u64; OCCUPANCY_WORDS],
    /// Every entry due before the cursor window's end, heap-ordered — the
    /// queue's minimum is always its top once `locate_min` returns.
    due: BinaryHeap<Entry<T>>,
    /// Start of the cursor bucket's window (multiple of the bucket width;
    /// never decreases).
    wheel_start: SimTime,
    /// Far-future entries (due at or past `wheel_start + HORIZON_PS`).
    overflow: BinaryHeap<Entry<T>>,
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
            wheel: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; OCCUPANCY_WORDS],
            due: BinaryHeap::new(),
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
    /// (the engine's `origin << 32 | oseq` intrinsic keys). The
    /// caller owns uniqueness of `(at, seq)` pairs; the internal
    /// auto-sequence counter is untouched, so mixing `push` and
    /// `push_keyed` on one queue is only sound if the key spaces are
    /// disjoint.
    #[inline]
    pub fn push_keyed(&mut self, at: SimTime, seq: u64, event: T) {
        self.len += 1;
        let entry = Entry::new(at, seq, event);
        // Entries due before the cursor window's end — inside it, or
        // behind `wheel_start` when a peek or a jump advanced the cursor
        // past the caller's clock (the co-simulation's `post_host` after
        // `run_hosts_until` does this) — join the heap, whose full-key
        // order pops them first.
        if at < self.wheel_start + BUCKET_WIDTH_PS {
            self.due.push(entry);
        } else if at < self.wheel_start + HORIZON_PS {
            self.file(entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Put an entry due inside the horizon on the wheel.
    fn file(&mut self, entry: Entry<T>) {
        let b = bucket_of(entry.time());
        self.wheel[b].push(entry);
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// Pop the earliest event (ties by key order).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_keyed().map(|(key, ev)| (key.time, ev))
    }

    /// Pop the earliest event with its full scheduling key — what
    /// `Simulator::run_hosts_until` needs to put an event popped past its
    /// horizon back under the same key.
    #[inline]
    pub fn pop_keyed(&mut self) -> Option<(EventKey, T)> {
        self.locate_min()?;
        let entry = self.due.pop().expect("locate_min filled the cursor heap");
        self.len -= 1;
        Some((entry.event_key(), entry.ev))
    }

    /// The earliest pending key without removing it (`&mut` because the
    /// search may advance the wheel cursor past empty windows — a
    /// time-monotonic, order-preserving operation).
    pub fn peek_key(&mut self) -> Option<EventKey> {
        self.locate_min()
    }

    /// Make the cursor heap hold the minimum pending entry; return its
    /// key.
    #[inline]
    fn locate_min(&mut self) -> Option<EventKey> {
        if self.len == 0 {
            return None;
        }
        if self.due.is_empty() {
            self.advance();
        }
        self.due.peek().map(Entry::event_key)
    }

    /// Move the cursor to the earliest pending bucket and heapify it.
    /// Only called with nothing due in the cursor window.
    ///
    /// Invariant, true after every advance and kept by every push: each
    /// overflow entry is due at or beyond `wheel_start + HORIZON_PS`, and
    /// each wheel entry before it. So the next occupied wheel bucket
    /// precedes every overflow entry, and the cursor can jump straight
    /// there; the overflow entries the jump brings inside the horizon
    /// then land in the ring slots the jump just passed.
    // Out of line: `pop_keyed` inlines into the driver loops, and the
    // jump, taken on fewer than half of the pops, would bloat each copy.
    #[inline(never)]
    fn advance(&mut self) {
        let cursor = bucket_of(self.wheel_start);
        match self.next_occupied(cursor) {
            Some(b) => {
                let skip = b.wrapping_sub(cursor) & (WHEEL_BUCKETS - 1);
                debug_assert!(
                    (1..skip).all(|k| self.wheel[(cursor + k) % WHEEL_BUCKETS].is_empty()),
                    "the wheel jumped over an occupied bucket"
                );
                self.wheel_start += skip as SimTime * BUCKET_WIDTH_PS;
            }
            // Nothing on the wheel: jump to the earliest overflow entry's
            // bucket.
            None => {
                let next = self
                    .overflow
                    .peek()
                    .expect("pending entries with an empty wheel sit in overflow");
                self.wheel_start = (next.time() >> BUCKET_BITS) << BUCKET_BITS;
            }
        }
        while self
            .overflow
            .peek()
            .is_some_and(|e| e.time() < self.wheel_start + HORIZON_PS)
        {
            let entry = self.overflow.pop().expect("peeked");
            self.file(entry);
        }
        // Heapify the bucket the cursor reached, in place: its vector
        // becomes the heap's storage and the drained heap's vector
        // becomes the empty bucket, so capacity circulates.
        let cursor = bucket_of(self.wheel_start);
        debug_assert!(
            !self.wheel[cursor].is_empty(),
            "the cursor landed on an empty bucket"
        );
        let spare = std::mem::take(&mut self.due).into_vec();
        let bucket = std::mem::replace(&mut self.wheel[cursor], spare);
        self.occupied[cursor / 64] &= !(1 << (cursor % 64));
        self.due = BinaryHeap::from(bucket);
    }

    /// The first occupied bucket after `cursor`, cyclically (the cursor's
    /// own bucket last), by `trailing_zeros` over the bitmap words.
    fn next_occupied(&self, cursor: usize) -> Option<usize> {
        let from = (cursor + 1) % WHEEL_BUCKETS;
        let (w0, bit) = (from / 64, from % 64);
        let head = self.occupied[w0] & (!0u64 << bit);
        if head != 0 {
            return Some(w0 * 64 + head.trailing_zeros() as usize);
        }
        (1..=OCCUPANCY_WORDS).find_map(|k| {
            let w = (w0 + k) % OCCUPANCY_WORDS;
            // Back at the starting word: only the bits before `from`.
            let bits = if k == OCCUPANCY_WORDS {
                self.occupied[w] & !(!0u64 << bit)
            } else {
                self.occupied[w]
            };
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries the queue's vectors can hold without reallocating — the
    /// recycling witness: steady-state scheduling reuses capacity
    /// instead of growing.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.wheel.iter().map(Vec::capacity).sum::<usize>()
            + self.due.capacity()
            + self.overflow.capacity()
    }
}

/// Reference scheduler: a binary heap over the same inline entries. Kept
/// as the oracle for the scheduler-equivalence property test
/// (`tests/event_scheduler.rs`) and as the baseline arm of the
/// `sim_engine` bench gate — the calendar queue must pop the exact same
/// `(time, seq)` stream and must not be slower.
#[derive(Debug)]
pub struct HeapQueue<T = Event> {
    heap: BinaryHeap<Entry<T>>,
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
        self.heap.push(Entry::new(at, seq, event));
    }

    /// Pop the earliest event (ties by key order).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_keyed().map(|(key, ev)| (key.time, ev))
    }

    /// Pop the earliest event with its full scheduling key.
    pub fn pop_keyed(&mut self) -> Option<(EventKey, T)> {
        self.heap.pop().map(|e| (e.event_key(), e.ev))
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
        let order: Vec<u32> = (0..3)
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
        // Time first, then the tie-break sequence — and the packed key
        // the queues compare is the same order as one integer.
        let k = |time, seq| EventKey { time, seq };
        assert!(k(1, 9) < k(2, 0), "time dominates");
        assert!(k(5, 1) < k(5, 2), "seq breaks time ties");
        assert_eq!(k(5, 1).cmp(&k(5, 1)), std::cmp::Ordering::Equal);
        let mut v = [k(3, 1), k(1, 2), k(1, 1), k(2, 5), k(1, u64::MAX)];
        v.sort();
        assert_eq!(
            v.iter().map(|key| (key.time, key.seq)).collect::<Vec<_>>(),
            vec![(1, 1), (1, 2), (1, u64::MAX), (2, 5), (3, 1)]
        );
        for pair in v.windows(2) {
            assert!(pair[0].pack() < pair[1].pack(), "packing keeps the order");
        }
        let e = Entry::new(SimTime::MAX, 7, ());
        assert_eq!(e.event_key(), k(SimTime::MAX, 7));
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
    fn entry_storage_recycles() {
        // 64 entries in every fourth bucket, each re-pushed 16 buckets on
        // when popped: the cursor jumps four buckets at a time and every
        // bucket it reaches holds 16 entries. Once the cursor has been
        // round the ring, the vectors circulating between the wheel and
        // the cursor heap hold every entry without growing.
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..64u64 {
            q.push((i % 4) * 4 * BUCKET_WIDTH_PS + i, i);
        }
        let rotation = WHEEL_BUCKETS / 4 * 16;
        let churn = |q: &mut EventQueue<u64>| {
            for _ in 0..rotation {
                let (t, v) = q.pop().unwrap();
                q.push(t + 16 * BUCKET_WIDTH_PS, v);
            }
        };
        churn(&mut q);
        churn(&mut q);
        let warm = q.capacity();
        churn(&mut q);
        assert_eq!(q.len(), 64);
        assert_eq!(q.capacity(), warm, "entry storage must recycle");
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
    /// co-simulation's `post_host` then pushes behind it): such keys
    /// still pop first, in key order.
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

    /// Intrinsic keys pop by `(time, seq)` regardless of insertion order.
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
