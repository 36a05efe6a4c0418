//! In-memory span tracer for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into the
//! program's public functions, on the benchmark's own thread, so they nest
//! strictly.  Each span records its name, start, end, parent span and the
//! id of the point or request it belongs to.  A span's self time is its
//! duration minus the part of it its child spans cover.  Per-name totals
//! are kept for every span; individual records only up to a capacity (the
//! serve loops open millions), and the records are written out when the
//! run ends.  A disabled tracer records nothing, so untraced runs pay one
//! branch per call site.

use crate::stats::Reservoir;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Marker for a span that was opened while tracing was off.
const NONE: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent in [`Tracer::records`], `None` for a root or
    /// when the parent was not retained.
    pub parent: Option<usize>,
    pub self_ns: u64,
}

/// Per-name accumulation over every span, retained or not.
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Sampled per-span durations (ns) for quantiles.
    pub durations: Reservoir,
}

struct Open {
    name: &'static str,
    id: u64,
    start_ns: u64,
    covered_ns: u64,
    record: Option<usize>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    records: Vec<SpanRecord>,
    capacity: usize,
    aggregates: BTreeMap<&'static str, Aggregate>,
}

/// Handle of an open span; close it with [`Tracer::close`].
#[must_use]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(on: bool, capacity: usize) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            records: Vec::new(),
            capacity,
            aggregates: BTreeMap::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside an open span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, id: u64) -> SpanId {
        if !self.on {
            return SpanId(NONE);
        }
        let t = self.now_ns();
        self.open_at(name, id, t)
    }

    pub fn close(&mut self, span: SpanId) {
        if span.0 == NONE {
            return;
        }
        let t = self.now_ns();
        self.close_at(span, t);
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let s = self.open(name, id);
        let r = f();
        self.close(s);
        r
    }

    /// [`Self::open`] at an explicit timestamp (tests drive a fake clock).
    pub fn open_at(&mut self, name: &'static str, id: u64, start_ns: u64) -> SpanId {
        let parent = self.stack.last().and_then(|o| o.record);
        let record = (self.records.len() < self.capacity).then(|| {
            self.records.push(SpanRecord {
                name,
                id,
                start_ns,
                end_ns: start_ns,
                parent,
                self_ns: 0,
            });
            self.records.len() - 1
        });
        self.stack.push(Open {
            name,
            id,
            start_ns,
            covered_ns: 0,
            record,
        });
        SpanId(self.stack.len() - 1)
    }

    /// [`Self::close`] at an explicit timestamp.  Spans close innermost
    /// first; closing an outer span with children still open is a bug in
    /// the caller.
    pub fn close_at(&mut self, span: SpanId, end_ns: u64) {
        assert_eq!(
            span.0 + 1,
            self.stack.len(),
            "spans must close innermost first"
        );
        let open = self.stack.pop().expect("an open span");
        let dur = end_ns.saturating_sub(open.start_ns);
        // Children run one after another on this thread, so the part they
        // cover is the sum of their durations.
        let self_ns = dur.saturating_sub(open.covered_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.covered_ns += dur;
        }
        if let Some(i) = open.record {
            self.records[i].end_ns = end_ns;
            self.records[i].self_ns = self_ns;
        }
        let agg = self
            .aggregates
            .entry(open.name)
            .or_insert_with(|| Aggregate {
                count: 0,
                total_ns: 0,
                self_ns: 0,
                durations: Reservoir::new(1 << 14, 0x5eed ^ open.id),
            });
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += self_ns;
        agg.durations.push(dur as f64);
    }

    pub fn aggregate(&self, name: &str) -> Option<&Aggregate> {
        self.aggregates.get(name)
    }

    pub fn aggregates(&self) -> &BTreeMap<&'static str, Aggregate> {
        &self.aggregates
    }

    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Tab-separated records, one span a line, parents before children.
    pub fn render_records(&self) -> String {
        let mut out = String::from("index\tname\tid\tstart_ns\tend_ns\tparent\tself_ns\n");
        for (i, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{}",
                r.name, r.id, r.start_ns, r.end_ns, r.self_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0, 100) ⊃ a [10, 30) ⊃ leaf [15, 20), and b [50, 90).
        let mut t = Tracer::new(true, 16);
        let root = t.open_at("root", 1, 0);
        let a = t.open_at("a", 1, 10);
        let leaf = t.open_at("leaf", 1, 15);
        t.close_at(leaf, 20);
        t.close_at(a, 30);
        let b = t.open_at("b", 1, 50);
        t.close_at(b, 90);
        t.close_at(root, 100);

        let self_of = |name| t.aggregate(name).unwrap().self_ns;
        assert_eq!(self_of("leaf"), 5);
        assert_eq!(self_of("a"), 15, "a minus its leaf");
        assert_eq!(self_of("b"), 40);
        assert_eq!(
            self_of("root"),
            40,
            "root minus a and b, not minus the leaf twice"
        );
        let total_self: u64 = t.aggregates().values().map(|a| a.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root");

        let recs = t.records();
        assert_eq!(recs[0].parent, None);
        assert_eq!(recs[1].parent, Some(0));
        assert_eq!(recs[2].parent, Some(1));
        assert_eq!(recs[3].parent, Some(0));
        assert_eq!(recs[2].self_ns, 5);
    }

    #[test]
    fn capacity_bounds_records_but_not_totals() {
        let mut t = Tracer::new(true, 2);
        for i in 0..5u64 {
            let s = t.open_at("x", i, 10 * i);
            t.close_at(s, 10 * i + 3);
        }
        assert_eq!(t.records().len(), 2);
        let agg = t.aggregate("x").unwrap();
        assert_eq!((agg.count, agg.total_ns, agg.self_ns), (5, 15, 15));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 16);
        let v = t.span("x", 0, || 42);
        assert_eq!(v, 42);
        assert!(t.records().is_empty() && t.aggregates().is_empty());
    }
}
