//! Recycled storage for in-flight packets.
//!
//! Hop-by-hop forwarding used to clone ~100-byte [`SimPacket`] structs
//! through every switch `VecDeque` and event. The arena stores each
//! packet exactly once for its wire lifetime; queues and events pass
//! 4-byte [`PacketRef`] indices instead. Slots recycle through a free
//! list, so steady-state forwarding allocates nothing — the arena's
//! high-water mark is the peak number of packets simultaneously in
//! flight.
//!
//! ## Recycling rules
//!
//! * [`PacketArena::insert`] on generation (or on fault-layer
//!   duplication) returns the ref that travels with the packet.
//! * Exactly one [`PacketArena::release`] per ref, at the packet's
//!   terminal point: delivery, drop (credit exhaustion, filter,
//!   corruption discard), or end-of-run queue teardown.
//! * A released ref must never be dereferenced again; debug builds catch
//!   stale refs via the free-slot sentinel.

use crate::event::SimPacket;

/// Index of a live packet in a [`PacketArena`]. Plain data — copying the
/// ref does not copy the packet, and does not confer ownership: the
/// engine releases each ref exactly once at its terminal point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef(u32);

/// Free-listed slab of in-flight packets.
#[derive(Debug, Default)]
pub(crate) struct PacketArena {
    slots: Vec<Option<SimPacket>>,
    free: Vec<u32>,
    live: usize,
}

impl PacketArena {
    /// Empty arena.
    pub(crate) fn new() -> Self {
        PacketArena::default()
    }

    /// Store a packet; the returned ref is valid until released.
    pub(crate) fn insert(&mut self, packet: SimPacket) -> PacketRef {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            debug_assert!(self.slots[idx as usize].is_none());
            self.slots[idx as usize] = Some(packet);
            PacketRef(idx)
        } else {
            self.slots.push(Some(packet));
            PacketRef((self.slots.len() - 1) as u32)
        }
    }

    /// Borrow the packet behind `r`.
    pub(crate) fn get(&self, r: PacketRef) -> &SimPacket {
        self.slots[r.0 as usize]
            .as_ref()
            .expect("stale PacketRef: slot already released")
    }

    /// Mutably borrow the packet behind `r`.
    pub(crate) fn get_mut(&mut self, r: PacketRef) -> &mut SimPacket {
        self.slots[r.0 as usize]
            .as_mut()
            .expect("stale PacketRef: slot already released")
    }

    /// Take the packet out and recycle its slot. Terminal: `r` is dead
    /// after this call.
    pub(crate) fn release(&mut self, r: PacketRef) -> SimPacket {
        let packet = self.slots[r.0 as usize]
            .take()
            .expect("double release of PacketRef");
        self.free.push(r.0);
        self.live -= 1;
        packet
    }

    /// Packets currently in flight.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// High-water slot count (peak simultaneous in-flight packets).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficClass;
    use ib_packet::types::PKey;

    /// A packet told apart from its neighbours by its wire size.
    fn packet(bytes: usize) -> SimPacket {
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
