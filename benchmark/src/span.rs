//! Driver-side tracing: one span around each call (or tight loop of
//! calls) the benchmark makes into a crate.
//!
//! Spans nest workload → round/point → call. They are kept in memory and
//! written as JSONL when the workload ends. A span's name is
//! `<layer>.<call>`; the layer is the crate it enters (`ib_transport`,
//! `ib_sim`, ...) or `harness` for the driver's own work. Self time is a
//! span's duration minus what its children cover.
//!
//! With the tracer off, [`Tracer::open`] and [`Tracer::close`] are one
//! predictable branch each, so the timed (untraced) run executes the same
//! loop as the traced one.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans a recording tracer makes room for when it is created.
const SPANS_RESERVED: usize = 1 << 20;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position of the parent in the trace (a span's own id is its
    /// position), [`NO_PARENT`] for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls into the crate this span covers (a span around a per-buffer
    /// loop covers one call per buffer).
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Handle returned by [`Tracer::open`]; give it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer; timestamps count from now.
    pub fn on() -> Tracer {
        let mut tracer = Tracer::new(true);
        // Room for the busiest workload's trace up front: growing the
        // vector mid-run would copy tens of megabytes inside timed spans.
        // Untouched capacity costs address space, not memory.
        tracer.spans.reserve(SPANS_RESERVED);
        tracer
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span covering `calls` calls, child of the innermost open
    /// span.
    #[inline]
    pub fn open(&mut self, name: &'static str, calls: usize) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            calls: calls as u32,
        });
        Open(id)
    }

    /// End the span `open` started. Spans close innermost-first.
    #[inline]
    pub fn close(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost-first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, self time included.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals_by_name(&self.spans)
    }

    /// Write one JSON object per span: `id`, `parent` (null for a root),
    /// `name`, `start_ns`, `end_ns`, `calls`, `workload`.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"workload\":\"{}\"}}",
                id, parent, s.name, s.start_ns, s.end_ns, s.calls, workload
            )?;
        }
        out.flush()
    }
}

/// Self time of each span, index-aligned with `spans`: duration minus
/// the children's durations, never below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

/// Check the structure a reader of the trace relies on: every parent
/// exists and was opened earlier, and every parent's interval encloses
/// its children's.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if s.parent == NO_PARENT {
            continue;
        }
        let Some(p) = spans
            .get(s.parent as usize)
            .filter(|_| (s.parent as usize) < i)
        else {
            return Err(format!("span {i} ({}) has no parent {}", s.name, s.parent));
        };
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {i} ({}) is not enclosed by its parent {} ({})",
                s.name, s.parent, p.name
            ));
        }
    }
    Ok(())
}

/// Self time summed over every span name of `layer` (the part of the
/// name before the first `.`).
pub fn layer_self_ns(totals: &BTreeMap<&'static str, NameTotals>, layer: &str) -> u64 {
    totals
        .iter()
        .filter(|(name, _)| name.split('.').next() == Some(layer))
        .map(|(_, t)| t.self_ns)
        .sum()
}

fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.calls += u64::from(s.calls);
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name,
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = [
            span(NO_PARENT, "harness.workload", 0, 100),
            span(0, "harness.round", 10, 90),
            span(1, "ib_transport.poll_into", 20, 50),
            span(1, "ib_transport.handle_wire", 50, 80),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["harness.round"].total_ns, 80);
        assert_eq!(totals["harness.round"].self_ns, 20);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // Children that (through clock granularity) sum past the parent.
        let spans = [
            span(NO_PARENT, "harness.round", 0, 10),
            span(0, "ib_sim.a", 0, 6),
            span(0, "ib_sim.b", 6, 12),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn validate_accepts_a_recorded_trace_and_rejects_broken_ones() {
        let mut tr = Tracer::on();
        let w = tr.open("harness.workload", 1);
        for _ in 0..3 {
            let r = tr.open("harness.round", 1);
            let c = tr.open("ib_transport.poll_into", 4);
            tr.close(c);
            tr.close(r);
        }
        tr.close(w);
        assert_eq!(tr.spans().len(), 7);
        validate(tr.spans()).expect("recorded trace is well formed");
        assert_eq!(tr.totals()["ib_transport.poll_into"].calls, 12);
        assert!(layer_self_ns(&tr.totals(), "ib_transport") <= tr.spans()[2].duration_ns() * 3);

        let orphan = [span(5, "ib_sim.x", 0, 1)];
        assert!(validate(&orphan).is_err(), "parent must exist");
        let escaping = [
            span(NO_PARENT, "harness.round", 10, 20),
            span(0, "ib_sim.x", 5, 15),
        ];
        assert!(validate(&escaping).is_err(), "parent must enclose child");
        let backwards = [span(NO_PARENT, "ib_sim.x", 9, 3)];
        assert!(validate(&backwards).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let s = tr.open("ib_sim.run", 1);
        tr.close(s);
        assert!(tr.spans().is_empty());
        assert_eq!(layer_self_ns(&tr.totals(), "ib_sim"), 0);
    }
}
