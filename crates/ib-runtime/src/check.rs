//! A seeded property-test driver with failure-case shrinking and a
//! persistent failure corpus.
//!
//! Replaces the proptest dependency for the workspace's invariant tests:
//! cases are generated from a deterministic [`Gen`] (so failures
//! reproduce from the printed seed), properties are ordinary closures
//! that panic on violation, and a failing case is greedily shrunk through
//! caller-supplied candidate reductions before being reported.
//!
//! When a property fails, [`run`] records the `(seed, case index)` pair
//! under the workspace's `tests/corpus/` directory and **replays every
//! stored pair first** on subsequent runs — a once-seen counterexample is
//! re-checked forever, before any random generation. Set
//! `CHECK_CORPUS_DIR` to relocate the corpus, or to the empty string to
//! disable persistence.
//!
//! ```
//! use ib_runtime::check;
//!
//! check::run(
//!     "addition commutes",
//!     64,
//!     |g| (g.u64(), g.u64()),
//!     |&(a, b)| check::shrink_pair(a, b),
//!     |&(a, b)| assert_eq!(a.wrapping_add(b), b.wrapping_add(a)),
//! );
//! ```

use crate::rng::{Rng, Seed};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Deterministic case generator handed to the generation closure.
pub struct Gen {
    rng: Rng,
}

impl Gen {
    /// Build from a seed. The driver does this per case; a lock that
    /// replays a fixed list of generated cases does it per line.
    pub fn new(seed: Seed) -> Self {
        Gen { rng: seed.rng() }
    }

    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    pub fn u64_in(&mut self, range: std::ops::Range<u64>) -> u64 {
        self.rng.gen_range(range)
    }

    pub fn u32_in(&mut self, range: std::ops::Range<u32>) -> u32 {
        self.rng.gen_range(range)
    }

    pub fn u16_in(&mut self, range: std::ops::Range<u16>) -> u16 {
        self.rng.gen_range(range)
    }

    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        self.rng.gen_range(range)
    }

    pub fn u8(&mut self) -> u8 {
        (self.rng.next_u64() >> 56) as u8
    }

    #[cfg(test)]
    pub(crate) fn f64(&mut self) -> f64 {
        self.rng.next_f64()
    }

    pub fn bool(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    /// A byte vector whose length is drawn from `len`.
    pub fn bytes(&mut self, len: std::ops::Range<usize>) -> Vec<u8> {
        let n = self.rng.gen_range(len);
        let mut v = vec![0u8; n];
        self.rng.fill_bytes(&mut v);
        v
    }

    /// An index valid for a collection of length `len` (panics on 0).
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index into empty collection");
        self.rng.gen_range(0..len)
    }

    /// A uniformly chosen element of the slice.
    pub fn choose<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[self.index(options.len())]
    }
}

/// Run `cases` random checks of `prop` over values from `gen`.
///
/// * `shrink` proposes simpler variants of a case ([`no_shrink`] opts
///   out); on failure the driver greedily descends through failing
///   candidates (bounded, so cyclic shrinkers still terminate).
/// * `prop` signals violation by panicking (use the std `assert!` family).
///
/// The base seed comes from `CHECK_SEED` (decimal or 0x-hex) when set,
/// else a fixed default; the failure report prints seed and case index so
/// any failure replays exactly. Failures are also appended to the
/// persistent corpus (see the module docs) and stored corpus entries are
/// replayed before the random phase.
pub fn run<T, G, S, P>(name: &str, cases: u32, gen: G, shrink: S, prop: P)
where
    T: std::fmt::Debug,
    G: FnMut(&mut Gen) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T),
{
    run_with_corpus(
        name,
        cases,
        default_corpus_dir().as_deref(),
        gen,
        shrink,
        prop,
    )
}

/// [`run`] with an explicit corpus directory (`None` disables
/// persistence — used by the driver's own failure-path tests, and by
/// anyone who wants purely ephemeral checks).
pub(crate) fn run_with_corpus<T, G, S, P>(
    name: &str,
    cases: u32,
    corpus: Option<&Path>,
    mut gen: G,
    shrink: S,
    prop: P,
) where
    T: std::fmt::Debug,
    G: FnMut(&mut Gen) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T),
{
    let seed = env_seed();
    let corpus_file = corpus.map(|dir| dir.join(format!("{}.seeds", sanitize_name(name))));

    // Replay phase: every counterexample this property has ever produced
    // is regenerated from its recorded (seed, case index) and re-checked
    // before any random exploration.
    if let Some(file) = &corpus_file {
        for (stored_seed, case_index) in read_corpus(file) {
            let mut g = Gen::new(stored_seed.stream(case_index));
            let case = gen(&mut g);
            if let Err(message) = check_one(&prop, &case) {
                let (minimal, min_message, steps) = shrink_failure(&shrink, &prop, case, message);
                panic!(
                    "property '{name}' failed on stored corpus case (seed {stored_seed}, \
                     case {case_index}, {steps} shrink steps)\n  corpus: {}\n  \
                     minimal case: {minimal:?}\n  failure: {min_message}",
                    file.display(),
                );
            }
        }
    }

    // Random phase.
    for case_index in 0..cases {
        let mut g = Gen::new(seed.stream(case_index as u64));
        let case = gen(&mut g);
        if let Err(message) = check_one(&prop, &case) {
            let recorded = corpus_file
                .as_ref()
                .filter(|file| record_failure(file, seed, case_index as u64))
                .map(|file| format!("\n  recorded: {}", file.display()))
                .unwrap_or_default();
            let (minimal, min_message, steps) = shrink_failure(&shrink, &prop, case, message);
            panic!(
                "property '{name}' failed (seed {seed}, case {case_index}/{cases}, \
                 {steps} shrink steps)\n  minimal case: {minimal:?}\n  failure: {min_message}\n  \
                 replay: CHECK_SEED={seed} cargo test{recorded}",
            );
        }
    }
}

/// Corpus file stem: the property name with every non-alphanumeric run
/// collapsed to a single `-`.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// Where failures persist: `CHECK_CORPUS_DIR` when set (empty disables),
/// else the nearest `tests/corpus` directory above the working directory
/// (the workspace root's, for every crate in this repo — a crate's own
/// `tests/` directory has no corpus and is passed over).
fn default_corpus_dir() -> Option<PathBuf> {
    if let Ok(v) = std::env::var("CHECK_CORPUS_DIR") {
        let v = v.trim();
        if v.is_empty() {
            return None;
        }
        return Some(PathBuf::from(v));
    }
    let mut dir = std::env::current_dir().ok()?;
    for _ in 0..5 {
        let corpus = dir.join("tests").join("corpus");
        if corpus.is_dir() {
            return Some(corpus);
        }
        if !dir.pop() {
            break;
        }
    }
    None
}

/// Parse stored `0x<seed-hex> <case-index>` lines; malformed lines and
/// `#` comments are skipped so a hand-edited file never breaks the run.
fn read_corpus(file: &Path) -> Vec<(Seed, u64)> {
    let Ok(text) = std::fs::read_to_string(file) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return None;
            }
            let (seed_part, index_part) = line.split_once(' ')?;
            let seed = u64::from_str_radix(seed_part.strip_prefix("0x")?, 16).ok()?;
            let index = index_part.trim().parse().ok()?;
            Some((Seed(seed), index))
        })
        .collect()
}

/// Append a failing `(seed, case index)` to the corpus, deduplicated.
/// Returns whether the entry is durably in the file (best-effort: a
/// read-only checkout must not turn a test failure into an IO panic).
fn record_failure(file: &Path, seed: Seed, case_index: u64) -> bool {
    let entry = format!("0x{:016X} {case_index}", seed.0);
    if read_corpus(file)
        .iter()
        .any(|&(s, i)| s == seed && i == case_index)
    {
        return true;
    }
    if let Some(parent) = file.parent() {
        if std::fs::create_dir_all(parent).is_err() {
            return false;
        }
    }
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(file)
        .and_then(|mut f| writeln!(f, "{entry}"))
        .is_ok()
}

/// A `shrink` argument for cases with nothing useful to reduce.
pub fn no_shrink<T>(_: &T) -> Vec<T> {
    Vec::new()
}

/// Candidate reductions of an unsigned integer: toward zero by jumps,
/// then by one.
pub(crate) fn shrink_uint(v: u64) -> Vec<u64> {
    if v == 0 {
        return Vec::new();
    }
    let mut out = vec![0, v / 2];
    if v > 1 {
        out.push(v - 1);
    }
    out.dedup();
    out
}

/// Candidate reductions of a byte vector: drop halves, halve the length,
/// zero bytes.
pub fn shrink_bytes(v: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let n = v.len();
    if n == 0 {
        return out;
    }
    out.push(v[..n / 2].to_vec());
    out.push(v[n / 2..].to_vec());
    if n > 1 {
        out.push(v[..n - 1].to_vec());
    }
    if let Some(i) = v.iter().position(|&b| b != 0) {
        let mut zeroed = v.to_vec();
        zeroed[i] = 0;
        out.push(zeroed);
    }
    out
}

/// Shrink a pair by shrinking each side independently (both `u64`).
pub fn shrink_pair(a: u64, b: u64) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = shrink_uint(a).into_iter().map(|x| (x, b)).collect();
    out.extend(shrink_uint(b).into_iter().map(|y| (a, y)));
    out
}

fn env_seed() -> Seed {
    match std::env::var("CHECK_SEED") {
        Ok(v) => {
            let v = v.trim();
            let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16).ok()
            } else {
                v.parse().ok()
            };
            Seed(parsed.unwrap_or_else(|| panic!("CHECK_SEED {v:?} is not a u64")))
        }
        Err(_) => Seed(0xC8EC_C0DE),
    }
}

/// Run the property on one case, capturing panics as failure messages.
fn check_one<T>(prop: impl Fn(&T), case: &T) -> Result<(), String> {
    let result = catch_unwind(AssertUnwindSafe(|| prop(case)));
    match result {
        Ok(()) => Ok(()),
        Err(payload) => Err(panic_message(payload)),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Greedy shrink: repeatedly move to the first candidate that still
/// fails, up to a step bound.
fn shrink_failure<T: std::fmt::Debug>(
    shrink: impl Fn(&T) -> Vec<T>,
    prop: impl Fn(&T),
    mut case: T,
    mut message: String,
) -> (T, String, u32) {
    const MAX_STEPS: u32 = 512;
    let mut steps = 0;
    'outer: while steps < MAX_STEPS {
        for candidate in shrink(&case) {
            if let Err(m) = check_one(&prop, &candidate) {
                case = candidate;
                message = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (case, message, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_completes() {
        run(
            "xor is self-inverse",
            64,
            |g| (g.u64(), g.u64()),
            |&(a, b)| shrink_pair(a, b),
            |&(a, b)| assert_eq!(a ^ b ^ b, a),
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let draw = |i: u64| {
            let mut g = Gen::new(Seed(99).stream(i));
            (g.u64(), g.bytes(0..64), g.u16_in(5..10))
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3).0, draw(4).0);
    }

    #[test]
    fn failing_property_panics_with_context() {
        let result = catch_unwind(|| {
            run_with_corpus(
                "always fails above 10",
                64,
                None,
                |g| g.u64_in(0..1000),
                |&v| shrink_uint(v),
                |&v| assert!(v <= 10, "value {v} exceeds 10"),
            );
        });
        let msg = panic_message(result.expect_err("must fail"));
        assert!(msg.contains("always fails above 10"), "{msg}");
        assert!(msg.contains("CHECK_SEED="), "{msg}");
        // Shrinking drives the counterexample to the boundary.
        assert!(msg.contains("minimal case: 11"), "{msg}");
    }

    #[test]
    fn shrinking_minimizes_byte_vectors() {
        // Fails whenever the vector contains a nonzero byte; minimal
        // failing case is a single nonzero byte (shrunk toward [1]-like).
        let result = catch_unwind(|| {
            run_with_corpus(
                "no nonzero bytes",
                32,
                None,
                |g| g.bytes(1..128),
                |v| shrink_bytes(v),
                |v| assert!(v.iter().all(|&b| b == 0)),
            );
        });
        let msg = panic_message(result.expect_err("must fail"));
        // The minimal case printed must be short (a one-element vec).
        assert!(msg.contains("minimal case: ["), "{msg}");
        let inside = msg.split("minimal case: [").nth(1).unwrap();
        let list = inside.split(']').next().unwrap();
        assert!(list.split(',').count() <= 2, "not minimized: [{list}]");
    }

    #[test]
    fn gen_helpers_in_bounds() {
        let mut g = Gen::new(Seed(1));
        for _ in 0..200 {
            assert!(g.u16_in(3..9) >= 3 && g.u16_in(3..9) < 9);
            let v = g.bytes(4..8);
            assert!((4..8).contains(&v.len()));
            let opts = [10, 20, 30];
            assert!(opts.contains(g.choose(&opts)));
            assert!(g.index(5) < 5);
            assert!(g.f64() < 1.0);
        }
        let _ = (
            g.bool(),
            g.u8(),
            g.u32_in(0..5),
            g.usize_in(0..5),
            g.u64_in(0..5),
        );
    }

    #[test]
    fn corpus_records_replays_and_dedups_failures() {
        let dir = std::env::temp_dir().join(format!("ib-check-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // A failing run records its (seed, case index) before panicking.
        let fail_once = || {
            catch_unwind(|| {
                run_with_corpus(
                    "corpus: demo prop",
                    64,
                    Some(dir.as_path()),
                    |g| g.u64_in(0..1000),
                    |&v| shrink_uint(v),
                    |&v| assert!(v <= 10, "value {v} exceeds 10"),
                )
            })
        };
        let msg = panic_message(fail_once().expect_err("must fail"));
        assert!(msg.contains("recorded: "), "{msg}");
        let file = dir.join("corpus-demo-prop.seeds");
        let entries = read_corpus(&file);
        assert_eq!(entries.len(), 1, "one failure, one corpus line");
        let (stored_seed, stored_index) = entries[0];

        // Replay-first: a later run re-checks the stored case before any
        // random generation, failing with the corpus context...
        let msg = panic_message(fail_once().expect_err("replay must fail"));
        assert!(msg.contains("stored corpus case"), "{msg}");
        assert!(
            read_corpus(&file).len() == 1,
            "replay failures are not re-recorded"
        );

        // ...and regenerates exactly the recorded counterexample.
        let replayed = std::cell::RefCell::new(Vec::new());
        let _ = catch_unwind(AssertUnwindSafe(|| {
            run_with_corpus(
                "corpus: demo prop",
                0, // no random phase: only the corpus is exercised
                Some(dir.as_path()),
                |g| g.u64_in(0..1000),
                no_shrink,
                |&v| replayed.borrow_mut().push(v),
            )
        }));
        let expected = Gen::new(stored_seed.stream(stored_index)).u64_in(0..1000);
        assert_eq!(replayed.into_inner(), vec![expected]);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_name_sanitization_and_parsing() {
        assert_eq!(sanitize_name("MAC tags verify (§6)"), "mac-tags-verify-6");
        assert_eq!(sanitize_name("---"), "");
        let dir = std::env::temp_dir().join(format!("ib-check-parse-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let file = dir.join("p.seeds");
        std::fs::write(
            &file,
            "# comment\n0x00000000000000FF 3\nnot a line\n0x10 2\n0x00000000000000FF 3\n",
        )
        .unwrap();
        assert_eq!(
            read_corpus(&file),
            vec![(Seed(0xFF), 3), (Seed(0x10), 2), (Seed(0xFF), 3)]
        );
        assert!(read_corpus(Path::new("/nonexistent/x.seeds")).is_empty());
        // Recording the same entry twice leaves a single line.
        assert!(record_failure(&file, Seed(0xFF), 3));
        assert_eq!(read_corpus(&file).len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shrink_helpers() {
        assert!(shrink_uint(0).is_empty());
        assert_eq!(shrink_uint(1), vec![0]);
        assert!(shrink_uint(100).contains(&50));
        assert!(shrink_bytes(&[]).is_empty());
        assert!(shrink_bytes(&[5, 6]).iter().any(|v| v.len() == 1));
        assert!(no_shrink(&42u64).is_empty());
    }
}
