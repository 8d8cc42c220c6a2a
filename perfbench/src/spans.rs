//! The benchmark's own spans, recorded around its calls into each layer
//! during the traced run and kept in memory until the run ends.
//!
//! A span has a name, start and end (nanoseconds since the recorder was
//! made), the span it was opened under, the operation it belongs to
//! (every span of one operation shares the id) and the item it timed,
//! which is how samples of one item are matched across rounds. A span's
//! self time is its duration minus the durations of its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks a span with no parent.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name, e.g. `validator.tree.validate`.
    pub name: &'static str,
    /// The item timed (a document, a session, a patch, a request).
    pub item: u32,
    /// The operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// Start, in ns since the recorder was made.
    pub start: u64,
    /// End, in ns since the recorder was made (0 while open).
    pub end: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            next_op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Allocates the id of a new operation.
    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, item: usize, op: u64) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            item: item as u32,
            op,
            parent,
            start: 0,
            end: 0,
        });
        self.open.push(index);
        // read the clock last, so the bookkeeping above is not inside
        self.spans[index as usize].start = self.now();
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index as usize].end = end;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        item: usize,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, item, op);
        let out = f();
        self.exit();
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// For each span name, each item's minimum self time over the
    /// rounds, in nanoseconds.
    pub fn item_minima(&self) -> BTreeMap<&'static str, ItemMinima> {
        let mut out: BTreeMap<&'static str, ItemMinima> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let slot = out
                .entry(s.name)
                .or_default()
                .entry(s.item)
                .or_insert(u64::MAX);
            *slot = (*slot).min(own);
        }
        out
    }

    /// Writes every span as a tab-separated line (name, item, op,
    /// parent, start ns, end ns) under a header.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\titem\top\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.item, s.op, parent, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, inside a span of operation `op` when there is a tracer.
#[inline]
pub fn maybe<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    item: usize,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, item, op, f),
        None => f(),
    }
}

/// A new operation id, or 0 when there is no tracer.
pub fn new_op(tracer: &mut Option<&mut Tracer>) -> u64 {
    tracer.as_deref_mut().map_or(0, Tracer::new_op)
}

/// Per-item minima of one span name, in nanoseconds.
pub type ItemMinima = BTreeMap<u32, u64>;

/// Sum over items, in nanoseconds.
pub fn sum_ns(m: Option<&ItemMinima>) -> f64 {
    m.map_or(0.0, |m| m.values().map(|&v| v as f64).sum())
}

/// Median over items, in microseconds (0 when no item was timed).
pub fn median_us(m: Option<&ItemMinima>) -> f64 {
    match m {
        Some(m) if !m.is_empty() => {
            crate::measure::median(m.values().map(|&v| v as f64 / 1e3).collect())
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_minima_span_rounds() {
        let mut t = Tracer::new();
        for _ in 0..2 {
            let op = t.new_op();
            t.span("outer", 0, op, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.enter("outer", 1, op);
            t.span("inner", 1, op, || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            t.exit();
        }
        let m = t.item_minima();
        assert!(m["outer"][&0] >= 2_000_000);
        // item 1's outer span is almost all child time
        assert!(m["outer"][&1] < 1_000_000, "{}", m["outer"][&1]);
        assert!(m["inner"][&1] >= 3_000_000);
        assert_eq!(t.len(), 6);
    }
}
