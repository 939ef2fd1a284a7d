//! In-memory span recorder for the traced runs.
//!
//! A span is a named `[start, end)` interval in nanoseconds since the
//! tracer's epoch, with the id of its parent and of the op it belongs
//! to. Spans are pushed on close, kept in memory for the whole run and
//! analysed afterwards: a span's *self time* is its length minus the
//! union of its children's intervals (clipped to it), so children that
//! overlap each other — pool jobs running on several workers — are
//! counted once.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// Enclosing span, `None` for an op's root span.
    pub parent: Option<u32>,
    /// The op the span belongs to.
    pub op: u32,
    /// Layer-qualified name, e.g. `core.fit`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
}

impl Span {
    /// Length in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans per storage chunk. Spans go into fixed-capacity chunks so a
/// push never copies the spans recorded before it; a growing single
/// `Vec` would stall whichever span happens to trigger the copy.
const CHUNK: usize = 2048;

/// The run's span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Vec<Span>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), next: AtomicU32::new(0), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        let mut chunks = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        match chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(span),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(span);
                chunks.push(chunk);
            }
        }
    }

    /// Run `f` inside the root span of op `op`.
    pub fn op<R>(&self, name: &'static str, op: u32, f: impl FnOnce(Ctx<'_>) -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(Ctx { tracer: self, id, op });
        self.push(Span { id, parent: None, op, name, start, end: self.now() });
        out
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).concat()
    }
}

/// A handle on an open span: children opened through it name it as
/// their parent. Copy and `Sync`, so pool jobs can open children of a
/// span held by the calling thread.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'t> {
    tracer: &'t Tracer,
    id: u32,
    op: u32,
}

impl<'t> Ctx<'t> {
    /// Run `f` inside a child span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(Ctx<'t>) -> R) -> R {
        let id = self.tracer.next.fetch_add(1, Ordering::Relaxed);
        let start = self.tracer.now();
        let out = f(Ctx { tracer: self.tracer, id, op: self.op });
        self.tracer.push(Span {
            id,
            parent: Some(self.id),
            op: self.op,
            name,
            start,
            end: self.tracer.now(),
        });
        out
    }
}

/// Total length covered by `intervals` (sorted in place), counting
/// overlaps once.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        if e <= s {
            continue;
        }
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((os, oe)) = open {
        total += oe - os;
    }
    total
}

/// Per span (same order as `spans`): the children's intervals, clipped
/// to the span.
fn clipped_children(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = span.parent.and_then(|id| index.get(&id)) {
            let parent = &spans[p];
            let (s, e) = (span.start.max(parent.start), span.end.min(parent.end));
            if s < e {
                children[p].push((s, e));
            }
        }
    }
    children
}

/// Self time of every span, in nanoseconds, in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    clipped_children(spans)
        .iter_mut()
        .zip(spans)
        .map(|(kids, span)| span.nanos() - union_len(kids).min(span.nanos()))
        .collect()
}

/// Least share of an op's wall time its spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// How much of the ops' wall time their direct child spans cover.
#[derive(Debug, Clone, Copy)]
pub struct Coverage {
    /// Ops (root spans) seen.
    pub ops: usize,
    /// Covered time over op time, all ops together.
    pub overall: f64,
    /// The least-covered op's share.
    pub min: f64,
    /// Ops covered less than [`MIN_COVERAGE`].
    pub below: usize,
}

impl Coverage {
    /// The check for a workload. Long ops (grids, scale passes) must
    /// each be covered. Sub-millisecond requests are checked together:
    /// a thread descheduled in the few nanoseconds between two sibling
    /// spans leaves a gap that is a visible share of one request, but
    /// not of the run.
    pub fn check(&self, each_op: bool) -> Result<(), String> {
        let share = if each_op { self.min } else { self.overall };
        if share >= MIN_COVERAGE {
            Ok(())
        } else {
            Err(format!("spans cover too little of the ops' wall time: {}", self.line()))
        }
    }

    /// One report line.
    pub fn line(&self) -> String {
        format!(
            "coverage ops={} overall={:.4} min={:.4} below_{:.0}%={}",
            self.ops,
            self.overall,
            self.min,
            100.0 * MIN_COVERAGE,
            self.below
        )
    }
}

/// Coverage of every root span by its direct children.
pub fn coverage(spans: &[Span]) -> Coverage {
    let mut c = Coverage { ops: 0, overall: 0.0, min: 1.0, below: 0 };
    let (mut covered, mut total) = (0u64, 0u64);
    for (kids, span) in clipped_children(spans).iter_mut().zip(spans) {
        if span.parent.is_some() {
            continue;
        }
        let len = span.nanos().max(1);
        let own = union_len(kids);
        let share = own as f64 / len as f64;
        c.ops += 1;
        c.min = c.min.min(share);
        c.below += usize::from(share < MIN_COVERAGE);
        covered += own;
        total += len;
    }
    c.overall = if total == 0 { 1.0 } else { covered as f64 / total as f64 };
    c
}

/// Summed self time (ns) and count of the spans called `name`, per op.
pub fn self_by_op(spans: &[Span], selfs: &[u64], name: &str) -> HashMap<u32, (u64, usize)> {
    let mut out: HashMap<u32, (u64, usize)> = HashMap::new();
    for (span, &own) in spans.iter().zip(selfs) {
        if span.name == name {
            let entry = out.entry(span.op).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
    }
    out
}

/// Write the spans with their self times as tab-separated lines.
pub fn write_tsv(path: &Path, spans: &[Span], selfs: &[u64]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns\tself_ns")?;
    for (s, own) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(out, "{}\t{parent}\t{}\t{}\t{}\t{}\t{own}", s.id, s.op, s.name, s.start, s.end)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span { id, parent, op: 0, name: "x", start, end }
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&mut [(10, 30), (20, 50), (60, 70)]), 50);
        assert_eq!(union_len(&mut [(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(&mut [(5, 5), (7, 3)]), 0);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        // Root [0, 100) with two overlapping children and one that runs
        // past the root's end (clipped); child 1 has its own child.
        let spans = vec![
            span(3, Some(1), 15, 25),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(4, Some(0), 90, 120),
            span(0, None, 0, 100),
        ];
        let selfs = self_times(&spans);
        // Grandchild: a leaf.
        assert_eq!(selfs[0], 10);
        // Child 1: 20 long, 10 of it inside its child.
        assert_eq!(selfs[1], 10);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 30);
        // Root: children cover [10, 50) ∪ [90, 100) = 50 of 100; the
        // grandchild sits inside child 1 and is not counted again.
        assert_eq!(selfs[4], 50);
        let cover = coverage(&spans);
        assert_eq!((cover.ops, cover.below), (1, 1));
        assert!((cover.min - 0.5).abs() < 1e-12 && (cover.overall - 0.5).abs() < 1e-12);
        assert!(cover.check(true).is_err() && cover.check(false).is_err());
    }

    #[test]
    fn short_ops_are_checked_together() {
        // 200 ops of 100 ns; the first `short` are only half covered.
        let ops = |short: u32| -> Vec<Span> {
            (0..200u32)
                .flat_map(|op| {
                    let (start, id) = (u64::from(op) * 1000, op * 2);
                    let kid_end = if op < short { start + 50 } else { start + 100 };
                    [
                        Span { id: id + 1, parent: Some(id), op, name: "kid", start, end: kid_end },
                        Span { id, parent: None, op, name: "op", start, end: start + 100 },
                    ]
                })
                .collect()
        };
        assert!(coverage(&ops(0)).check(true).is_ok());
        // Two half-covered ops: every-op fails, the run's 99.5% passes.
        let two = coverage(&ops(2));
        assert_eq!((two.ops, two.below), (200, 2));
        assert!((two.overall - 0.995).abs() < 1e-12);
        assert!(two.check(true).is_err());
        assert!(two.check(false).is_ok());
        // Thirty leave 92.5% of the run covered.
        assert!(coverage(&ops(30)).check(false).is_err());
    }

    #[test]
    fn children_from_other_threads_overlap_the_parent() {
        let tracer = Tracer::new();
        tracer.op("op", 7, |op| {
            op.span("outer", |outer| {
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| {
                            outer.span("job", |_| {
                                std::thread::sleep(std::time::Duration::from_millis(5))
                            })
                        });
                    }
                });
            })
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.op == 7));
        let selfs = self_times(&spans);
        let jobs = self_by_op(&spans, &selfs, "job");
        assert_eq!(jobs[&7].1, 2);
        // The two jobs ran side by side: summed busy time exceeds the
        // outer span's own length, yet its self time never goes negative.
        let outer = spans.iter().position(|s| s.name == "outer").unwrap();
        assert!(jobs[&7].0 >= 9_000_000);
        assert!(selfs[outer] < spans[outer].nanos());
        assert!(coverage(&spans).check(true).is_ok());
    }
}
