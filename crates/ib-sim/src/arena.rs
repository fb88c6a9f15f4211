//! Recycled storage for in-flight packets and their side data.
//!
//! Hop-by-hop forwarding used to clone ~100-byte [`SimPacket`] structs
//! through every switch `VecDeque` and event. The arena stores each
//! packet exactly once for its wire lifetime, in a 48-byte slot; queues
//! and events pass 4-byte [`PacketRef`] indices instead. Slots recycle
//! through a free list, so steady-state forwarding allocates nothing —
//! the arena's high-water mark is the peak number of packets
//! simultaneously alive. A posted flow's packets are not among them
//! until the sending HCA cuts each one at injection.
//!
//! ## Recycling rules
//!
//! * [`PacketArena::insert`] on generation (or on cutting a flow's next
//!   packet) returns the ref that travels with the packet.
//! * Exactly one [`PacketArena::release`] per ref, at the packet's
//!   terminal point: delivery, drop (credit exhaustion, filter,
//!   corruption discard), or end-of-run queue teardown. The engine
//!   releases through one path that also frees the packet's side slot.
//! * A released ref must never be dereferenced again; debug builds catch
//!   stale refs via the free-slot sentinel.

use crate::event::SimPacket;

/// Index of a live packet in a [`PacketArena`]. Plain data — copying the
/// ref does not copy the packet, and does not confer ownership: the
/// engine releases each ref exactly once at its terminal point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef(u32);

/// A free-listed slab: `insert` fills a recycled slot (or a new one) and
/// returns its index, `take` empties it.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }
}

impl<T> Slab<T> {
    /// Store `value`; its slot stays filled until taken.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            debug_assert!(self.slots[slot as usize].is_none());
            self.slots[slot as usize] = Some(value);
            slot
        } else {
            self.slots.push(Some(value));
            (self.slots.len() - 1) as u32
        }
    }

    fn get(&self, slot: u32) -> &T {
        self.slots[slot as usize]
            .as_ref()
            .expect("stale slot: already taken")
    }

    fn get_mut(&mut self, slot: u32) -> &mut T {
        self.slots[slot as usize]
            .as_mut()
            .expect("stale slot: already taken")
    }

    /// Take the value out and recycle its slot.
    pub(crate) fn take(&mut self, slot: u32) -> T {
        let value = self.slots[slot as usize]
            .take()
            .expect("double release: slot already taken");
        self.free.push(slot);
        self.live -= 1;
        value
    }

    /// Slots filled now.
    pub(crate) fn live(&self) -> usize {
        self.live
    }
}

/// Free-listed slab of in-flight packets, indexed by [`PacketRef`].
#[derive(Debug, Default)]
pub(crate) struct PacketArena(Slab<SimPacket>);

impl PacketArena {
    /// Empty arena.
    pub(crate) fn new() -> Self {
        PacketArena::default()
    }

    /// Store a packet; the returned ref is valid until released.
    pub(crate) fn insert(&mut self, packet: SimPacket) -> PacketRef {
        PacketRef(self.0.insert(packet))
    }

    /// Borrow the packet behind `r`.
    pub(crate) fn get(&self, r: PacketRef) -> &SimPacket {
        self.0.get(r.0)
    }

    /// Mutably borrow the packet behind `r`.
    pub(crate) fn get_mut(&mut self, r: PacketRef) -> &mut SimPacket {
        self.0.get_mut(r.0)
    }

    /// Take the packet out and recycle its slot. Terminal: `r` is dead
    /// after this call.
    pub(crate) fn release(&mut self, r: PacketRef) -> SimPacket {
        self.0.take(r.0)
    }

    /// Packets currently in flight.
    pub(crate) fn live(&self) -> usize {
        self.0.live()
    }

    /// High-water slot count (peak simultaneous in-flight packets).
    pub(crate) fn capacity(&self) -> usize {
        self.0.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficClass;
    use ib_packet::types::PKey;

    /// A packet told apart from its neighbours by its wire size.
    fn packet(bytes: u32) -> SimPacket {
        SimPacket::new(0, 1, TrafficClass::BestEffort, PKey(0x8001), 0, bytes, 0)
    }

    #[test]
    fn insert_get_release_roundtrip() {
        let mut arena = PacketArena::new();
        let a = arena.insert(packet(1));
        let b = arena.insert(packet(2));
        assert_eq!(arena.get(a).bytes, 1);
        assert_eq!(arena.get(b).bytes, 2);
        assert_eq!(arena.live(), 2);
        arena.get_mut(a).corrupted = true;
        assert!(arena.get(a).corrupted);
        assert_eq!(arena.release(a).bytes, 1);
        assert_eq!(arena.live(), 1);
    }

    #[test]
    fn slots_recycle() {
        let mut arena = PacketArena::new();
        // Keep at most 3 live across heavy churn: capacity must not grow
        // past the high-water mark.
        let mut live = Vec::new();
        for i in 0..300 {
            live.push(arena.insert(packet(i)));
            if live.len() > 3 {
                arena.release(live.remove(0));
            }
        }
        assert_eq!(arena.capacity(), 4, "high-water is 4 (push before pop)");
        assert_eq!(arena.live(), 3);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut arena = PacketArena::new();
        let r = arena.insert(packet(1));
        arena.release(r);
        arena.release(r);
    }
}
