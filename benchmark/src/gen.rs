//! Seeded input generators and the delivery check that reads them back.
//!
//! The seed steers only what the program is fed — payload bytes, the
//! flow permutation, the fabric seed — never which code path a workload
//! takes.

use ib_runtime::{Rng, Seed};

/// Default seed of every experiment binary in the workspace.
pub const DEFAULT_SEED: u64 = 0x1BAD_5EED;

/// Distinct payload bodies a message stream cycles through. A power of
/// two well above the send window, so no two in-flight messages share a
/// body.
const POOL_BODIES: usize = 256;

/// An independent seed for sub-stream `salt` of `seed` (fabric, payloads,
/// permutation, the k-th derived fabric seed, ...).
pub fn derive(seed: u64, salt: u64) -> u64 {
    Seed(seed).stream(salt).0
}

/// Seeded message payloads: message `i` is body `i % 256` with the first
/// eight bytes replaced by `i` (little endian), so every message is
/// distinct and self-describing.
pub struct PayloadPool {
    len: usize,
    bodies: Vec<u8>,
}

impl PayloadPool {
    /// `len`-byte payloads (`len >= 8`) drawn from `seed`.
    pub fn new(seed: u64, len: usize) -> PayloadPool {
        assert!(len >= 8, "payload must hold the 8-byte index");
        let mut bodies = vec![0u8; len * POOL_BODIES];
        Rng::from_seed(Seed(derive(seed, 0x5041_594C))).fill_bytes(&mut bodies);
        PayloadPool { len, bodies }
    }

    /// Overwrite `buf` with message `idx`, reusing its allocation.
    pub fn fill(&self, idx: u64, buf: &mut Vec<u8>) {
        let body = idx as usize % POOL_BODIES * self.len;
        buf.clear();
        buf.extend_from_slice(&self.bodies[body..body + self.len]);
        buf[..8].copy_from_slice(&idx.to_le_bytes());
    }

    /// True when `payload` is exactly message `idx`.
    pub fn matches(&self, idx: u64, payload: &[u8]) -> bool {
        let body = idx as usize % POOL_BODIES * self.len;
        payload.len() == self.len
            && payload[..8] == idx.to_le_bytes()
            && payload[8..] == self.bodies[body + 8..body + self.len]
    }
}

/// Receiver-side account of an in-order SEND stream: message `k` must be
/// the `k`-th delivery and byte-equal to what was posted. Anything else —
/// a duplicate, a reordering, a flipped byte — is one failed operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamLedger {
    /// Deliveries seen, good or bad (the next expected index).
    pub received: u64,
    /// Deliveries that were not the expected message, byte for byte.
    pub bad: u64,
    /// Payload bytes of the good deliveries.
    pub good_bytes: u64,
}

impl StreamLedger {
    /// Account one delivered payload.
    pub fn deliver(&mut self, pool: &PayloadPool, payload: &[u8]) {
        if pool.matches(self.received, payload) {
            self.good_bytes += payload.len() as u64;
        } else {
            self.bad += 1;
        }
        self.received += 1;
    }

    /// Failed operations out of `attempted` posted messages: bad
    /// deliveries plus whatever never arrived.
    pub fn failed(&self, attempted: u64) -> u64 {
        self.bad + attempted.saturating_sub(self.received)
    }
}

/// A seeded random permutation of `0..n` with no fixed point: node `i`
/// sends to `perm[i]` (the `fig_scale` traffic pattern).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    assert!(n >= 2, "a derangement needs two nodes");
    let mut rng = Rng::from_seed(Seed(derive(seed, 0x5045_524D)));
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    // Swapping a fixed point with its cyclic neighbour cannot create a
    // new one: the neighbour's value differs from both positions.
    for i in 0..n {
        if perm[i] == i {
            perm.swap(i, (i + 1) % n);
        }
    }
    perm
}

/// Message `i` of the co-simulation harnesses (`ib_transport::fabric`,
/// `ib_sm::rekey`): 8-byte index then an index-derived pattern. The
/// library keeps its copy private; the traced fabric loop needs the same
/// bytes to reproduce the library's report.
pub fn cosim_payload(i: usize, len: usize) -> Vec<u8> {
    let mut p = vec![0u8; len.max(8)];
    p[..8].copy_from_slice(&(i as u64).to_le_bytes());
    for (k, b) in p.iter_mut().enumerate().skip(8) {
        *b = (i as u8).wrapping_mul(31).wrapping_add(k as u8);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_payloads_different_seed_differs() {
        let (a, b, c) = (
            PayloadPool::new(7, 64),
            PayloadPool::new(7, 64),
            PayloadPool::new(8, 64),
        );
        let (mut pa, mut pb, mut pc) = (Vec::new(), Vec::new(), Vec::new());
        for idx in [0u64, 1, 255, 256, 70_000] {
            a.fill(idx, &mut pa);
            b.fill(idx, &mut pb);
            c.fill(idx, &mut pc);
            assert_eq!(pa, pb, "same seed, message {idx}");
            assert_ne!(pa, pc, "different seed, message {idx}");
            assert!(a.matches(idx, &pa));
            assert!(!a.matches(idx + 1, &pa), "index is part of the message");
        }
        // Same body slot, different index: still distinct messages.
        a.fill(3, &mut pa);
        a.fill(3 + 256, &mut pb);
        assert_ne!(pa, pb);
    }

    #[test]
    fn same_seed_same_permutation_and_no_fixed_points() {
        let p = permutation(1024, 42);
        assert_eq!(p, permutation(1024, 42));
        assert_ne!(p, permutation(1024, 43));
        assert!(p.iter().enumerate().all(|(i, &d)| i != d));
        let mut seen = p.clone();
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &d)| i == d), "a bijection");
        // The smallest case has exactly one derangement.
        assert_eq!(permutation(2, 9), vec![1, 0]);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        assert_eq!(derive(1, 2), derive(1, 2));
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
    }

    #[test]
    fn corrupted_delivery_counts_as_failed_operations() {
        let pool = PayloadPool::new(11, 32);
        let mut ledger = StreamLedger::default();
        let mut msg = Vec::new();
        // 0: good.
        pool.fill(0, &mut msg);
        ledger.deliver(&pool, &msg);
        // 1: one payload byte flipped in flight.
        pool.fill(1, &mut msg);
        msg[20] ^= 0x01;
        ledger.deliver(&pool, &msg);
        // 2: message 0 again (a replay admitted as fresh).
        pool.fill(0, &mut msg);
        ledger.deliver(&pool, &msg);
        // 3: good again — one bad delivery must not poison the rest.
        pool.fill(3, &mut msg);
        ledger.deliver(&pool, &msg);
        assert_eq!(
            ledger,
            StreamLedger {
                received: 4,
                bad: 2,
                good_bytes: 64
            }
        );
        // Five were posted: two bad plus one that never arrived.
        assert_eq!(ledger.failed(5), 3);
        assert_eq!(ledger.failed(4), 2);
    }

    #[test]
    fn cosim_payload_matches_the_library_convention() {
        let p = cosim_payload(5, 12);
        assert_eq!(&p[..8], &5u64.to_le_bytes());
        assert_eq!(p[8], 5u8.wrapping_mul(31).wrapping_add(8));
        assert_eq!(p[11], 5u8.wrapping_mul(31).wrapping_add(11));
    }
}
