//! # ib-runtime
//!
//! The workspace's from-scratch runtime substrate. DESIGN.md builds every
//! cryptographic primitive from first principles; this crate extends that
//! policy to the runtime services the reproduction needs, so the whole
//! workspace builds and tests **offline** with zero crates.io dependencies:
//!
//! * [`rng`] — deterministic pseudo-randomness: SplitMix64 seeding into a
//!   xoshiro256\*\* core, with uniform ranges, shuffling, Bernoulli and
//!   exponential sampling, and the [`rng::Seed`] type every
//!   experiment threads through so any reported point is reproducible from
//!   its printed seed.
//! * [`par`] — scoped parallel sweeps over `std::thread::scope`
//!   (embarrassingly parallel simulator instances, MAC lanes).
//! * `json` — a minimal JSON value, writer and parser for result
//!   emission and for checking that what was emitted parses back.
//! * [`check`] — a seeded property-test driver with failure-case
//!   shrinking.
//! * [`hash`] — a multiply-rotate hasher for the integer-keyed tables on
//!   per-packet paths (no SipHash per packet).

pub mod check;
pub mod hash;
pub(crate) mod json;
pub mod par;
pub mod rng;

pub use json::{Json, ToJson};
pub use rng::{Rng, Seed};
