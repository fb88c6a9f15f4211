//! A small multiply-rotate hasher (the `FxHash` scheme rustc uses) for
//! integer-keyed tables that sit on per-packet paths. `std`'s default
//! SipHash-1-3 costs ~10 ns per lookup of a `u16` key; this costs one
//! multiply per word. It gives up SipHash's protection against crafted
//! collisions, so use it only for maps whose *entries* the program
//! installs or bounds itself (key tables, a window-bounded reorder
//! buffer): a crafted lookup key can then probe no more than those.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiply-rotate hasher. Deterministic: no per-process seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` on [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        assert_eq!(hash(0x8001u16), hash(0x8001u16));
        assert_ne!(hash(0x8001u16), hash(0x8002u16));
        assert_ne!(hash((1u32, 2u32)), hash((2u32, 1u32)));
        assert_ne!(hash(&b"abcdefghi"[..]), hash(&b"abcdefghj"[..]));
    }

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 3);
        }
        assert!((0..1000).all(|i| m[&i] == i * 3));
        assert_eq!(m.get(&1000), None);
    }
}
