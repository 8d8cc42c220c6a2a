//! The flight recorder: hierarchical tracing over per-thread ring
//! buffers, per-document wide events with tail sampling, and two
//! exporters — Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`) and a top-down text phase summary.
//!
//! Aggregated metrics ([`crate::metrics()`]) can say *that* validation
//! is slow; the recorder says *which document*, *which phase*, and
//! *which pool worker* made it slow. Every [`crate::span!`] site doubles
//! as a trace span when recording is on: span begin/end records (u64
//! span ids, parent ids, monotonic timestamps) land in a fixed-capacity
//! ring buffer owned by the recording thread, so the hot path never
//! contends on a global lock and an unbounded run can only ever hold
//! `threads × capacity` records — the oldest are overwritten, flight
//! recorder style.
//!
//! Causality across threads is explicit: [`TraceCtx::current`] captures
//! the open span on the submitting thread, travels with the job (it is
//! `Copy + Send`), and [`TraceCtx::attach`] re-parents the worker's
//! spans under it — `pool::ThreadPool` does exactly this, so a worker's
//! queue-wait and run spans link back to the batch span that submitted
//! them.
//!
//! # Quickstart
//!
//! ```
//! obs::trace::start(4096);
//! {
//!     let _phase = obs::span!("demo.phase");
//!     // ... traced work ...
//! }
//! obs::trace::stop();
//! let json = obs::trace::export_chrome_trace();
//! let stats = obs::trace::validate_chrome_trace(&json).unwrap();
//! assert_eq!(stats.begin_end_pairs, 1);
//! println!("{}", obs::trace::summary());
//! ```
//!
//! Recording costs one relaxed atomic load per probe site when off, and
//! one uncontended mutex lock plus a ring write when on; bench B13
//! (`crates/bench/benches/trace_overhead.rs`) measures both.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::json::{self, JsonValue};

/// Whether trace recording is on — the single hot-path check, distinct
/// from the metrics flag ([`crate::enabled`]) so tracing can run with or
/// without the aggregation layer.
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Bumped by every [`start`]; thread-locals compare against it to know
/// their cached ring belongs to the current recorder.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Span ids are process-unique and never reused (0 = "no span").
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// The installed recorder. Kept after [`stop`] so the flight can be
/// exported post-mortem; replaced wholesale by the next [`start`].
static RECORDER: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

/// Default number of slowest wide events kept by the tail sampler.
const DEFAULT_KEEP_SLOWEST: usize = 64;

/// Ceiling on kept errored/limit-tripped wide events, so a hostile
/// error flood cannot grow the sampler without bound.
const MAX_FLAGGED: usize = 1024;

/// What a ring slot records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecKind {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A complete interval recorded after the fact (e.g. queue wait).
    Complete,
}

/// One fixed-size trace record. Records are written whole under the
/// ring's mutex, so a reader can never observe a torn record.
#[derive(Debug, Clone, Copy)]
struct Rec {
    kind: RecKind,
    name: &'static str,
    /// The span this record belongs to.
    span: u64,
    /// The parent span at the time of recording (0 = root).
    parent: u64,
    /// Nanoseconds since the recorder's epoch.
    ts: u64,
    /// Interval length in nanoseconds ([`RecKind::Complete`] only).
    dur: u64,
}

/// A fixed-capacity ring of trace records: when full, the oldest record
/// is dropped (and counted) to admit the newest.
struct Ring {
    buf: VecDeque<Rec>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, rec: Rec) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }
}

/// One recording thread's identity and ring, registered lazily on the
/// thread's first record.
struct ThreadBuf {
    tid: u64,
    name: String,
    ring: Arc<Mutex<Ring>>,
}

/// The flight recorder shared state.
struct Recorder {
    epoch: Instant,
    capacity: usize,
    generation: u64,
    next_tid: AtomicU64,
    threads: Mutex<Vec<ThreadBuf>>,
    wide: Mutex<WideSampler>,
}

struct Local {
    generation: u64,
    epoch: Instant,
    ring: Option<Arc<Mutex<Ring>>>,
    /// The innermost open span on this thread (0 = none).
    parent: u64,
}

thread_local! {
    static LOCAL: std::cell::RefCell<Local> = std::cell::RefCell::new(Local {
        generation: 0,
        epoch: Instant::now(),
        ring: None,
        parent: 0,
    });
}

/// Whether trace recording is on. This is the only cost probe sites pay
/// when it is off: one relaxed atomic load and a branch.
#[inline]
pub fn enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Starts a fresh flight: installs a new recorder whose per-thread ring
/// buffers hold `capacity_per_thread` records each, with the default
/// wide-event tail sampler (always keep errored/limit-tripped documents,
/// plus the 64 slowest), and enables recording. Any previous flight's
/// data is discarded.
pub fn start(capacity_per_thread: usize) {
    start_with_sampling(capacity_per_thread, DEFAULT_KEEP_SLOWEST);
}

/// [`start`] with an explicit tail-sampler width: `keep_slowest` is how
/// many of the slowest non-errored wide events are retained (errored and
/// limit-tripped documents are always kept, up to an internal flood cap).
pub fn start_with_sampling(capacity_per_thread: usize, keep_slowest: usize) {
    let generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
    let recorder = Arc::new(Recorder {
        epoch: Instant::now(),
        capacity: capacity_per_thread.max(2),
        generation,
        next_tid: AtomicU64::new(1),
        threads: Mutex::new(Vec::new()),
        wide: Mutex::new(WideSampler::new(keep_slowest, MAX_FLAGGED)),
    });
    *RECORDER.write().expect("trace recorder lock") = Some(recorder);
    TRACE_ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording. The flight's data stays available to the exporters
/// ([`export_chrome_trace`], [`summary`], [`wide_events`]) until the
/// next [`start`].
pub fn stop() {
    TRACE_ENABLED.store(false, Ordering::Relaxed);
}

/// Runs `f` with this thread's registered ring state, registering with
/// the current recorder first if needed. Returns `None` when no
/// recorder is installed.
fn with_local<T>(f: impl FnOnce(&mut Local) -> T) -> Option<T> {
    LOCAL.with(|cell| {
        let mut local = cell.borrow_mut();
        let generation = GENERATION.load(Ordering::Relaxed);
        if local.generation != generation || local.ring.is_none() {
            let recorder = RECORDER.read().expect("trace recorder lock").clone()?;
            let tid = recorder.next_tid.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(Mutex::new(Ring::new(recorder.capacity)));
            recorder
                .threads
                .lock()
                .expect("trace threads lock")
                .push(ThreadBuf {
                    tid,
                    name: std::thread::current()
                        .name()
                        .unwrap_or("unnamed")
                        .to_string(),
                    ring: ring.clone(),
                });
            local.generation = recorder.generation;
            local.epoch = recorder.epoch;
            local.ring = Some(ring);
            local.parent = 0;
        }
        Some(f(&mut local))
    })
}

fn ns_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

impl Local {
    fn push(&mut self, rec: Rec) {
        if let Some(ring) = &self.ring {
            ring.lock().expect("trace ring lock").push(rec);
        }
    }
}

/// The recorder-side half of an open span, held by
/// [`crate::SpanGuard`]: what it needs to close the span and restore the
/// thread's parent pointer.
#[derive(Debug)]
pub(crate) struct SpanHandle {
    span: u64,
    prev: u64,
}

/// Records a span begin at `at` and makes the new span the thread's
/// current parent. Returns `None` when recording is off.
pub(crate) fn begin_span(name: &'static str, at: Instant) -> Option<SpanHandle> {
    if !enabled() {
        return None;
    }
    with_local(|local| {
        let span = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let prev = local.parent;
        local.parent = span;
        let ts = ns_since(local.epoch, at);
        local.push(Rec {
            kind: RecKind::Begin,
            name,
            span,
            parent: prev,
            ts,
            dur: 0,
        });
        SpanHandle { span, prev }
    })
}

/// Records the span end at `at` and restores the thread's previous
/// parent. The restore happens even if recording stopped mid-span, so
/// the parent chain cannot wedge.
pub(crate) fn end_span(name: &'static str, handle: SpanHandle, at: Instant) {
    LOCAL.with(|cell| {
        let mut local = cell.borrow_mut();
        local.parent = handle.prev;
        if enabled() && local.generation == GENERATION.load(Ordering::Relaxed) {
            let ts = ns_since(local.epoch, at);
            local.push(Rec {
                kind: RecKind::End,
                name,
                span: handle.span,
                parent: handle.prev,
                ts,
                dur: 0,
            });
        }
    });
}

/// Records a completed interval from `start` to now, parented to the
/// thread's current span — how the pool records a job's queue wait,
/// whose begin happened on another thread's clock but the same process
/// monotonic timeline.
pub fn complete_from(name: &'static str, start: Instant) {
    if !enabled() {
        return;
    }
    let end = Instant::now();
    with_local(|local| {
        let span = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let ts0 = ns_since(local.epoch, start);
        let ts1 = ns_since(local.epoch, end);
        local.push(Rec {
            kind: RecKind::Complete,
            name,
            span,
            parent: local.parent,
            ts: ts0,
            dur: ts1.saturating_sub(ts0),
        });
    });
}

/// Total records evicted from ring buffers by wraparound, across all
/// recording threads of the current flight.
pub fn dropped_records() -> u64 {
    let Some(recorder) = RECORDER.read().expect("trace recorder lock").clone() else {
        return 0;
    };
    let threads = recorder.threads.lock().expect("trace threads lock");
    threads
        .iter()
        .map(|t| t.ring.lock().expect("trace ring lock").dropped)
        .sum()
}

/// A captured trace context: the identity of the span that was current
/// on some thread, ready to travel to another thread and re-parent its
/// spans. `Copy + Send`, and inert (all zeros) when captured with
/// recording off.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx {
    parent: u64,
}

impl TraceCtx {
    /// The current thread's innermost open span, as a portable context.
    pub fn current() -> TraceCtx {
        if !enabled() {
            return TraceCtx { parent: 0 };
        }
        let parent = LOCAL.with(|c| {
            let local = c.borrow();
            // a parent left over from an earlier flight is not ours
            if local.generation == GENERATION.load(Ordering::Relaxed) {
                local.parent
            } else {
                0
            }
        });
        TraceCtx { parent }
    }

    /// Makes this context the current parent on *this* thread until the
    /// returned guard drops — every span opened in between is a child of
    /// the captured span, whatever thread it runs on.
    pub fn attach(&self) -> CtxGuard {
        if !enabled() || self.parent == 0 {
            return CtxGuard { prev: None };
        }
        // register with the recorder first: lazy registration resets the
        // thread's parent, so attaching before it would be overwritten
        let prev = with_local(|local| {
            let prev = local.parent;
            local.parent = self.parent;
            prev
        });
        CtxGuard { prev }
    }
}

/// Restores the thread's previous parent span when dropped; returned by
/// [`TraceCtx::attach`].
#[must_use = "the context is only attached while the guard lives"]
pub struct CtxGuard {
    prev: Option<u64>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            LOCAL.with(|c| c.borrow_mut().parent = prev);
        }
    }
}

// ---------------------------------------------------------------------
// Wide events
// ---------------------------------------------------------------------

/// How a document's validation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No violations.
    Valid,
    /// Schema violations, but well-formed and within budget.
    Invalid,
    /// Rejected as not well-formed.
    Malformed,
    /// A resource budget tripped before the document finished.
    ResourceTripped,
}

impl Outcome {
    /// Stable lowercase label (`valid` / `invalid` / `malformed` /
    /// `resource`).
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Valid => "valid",
            Outcome::Invalid => "invalid",
            Outcome::Malformed => "malformed",
            Outcome::ResourceTripped => "resource",
        }
    }
}

/// One per-document wide event: everything the pipeline knew about a
/// document's trip through parse + validate, in a single record —
/// the unit the tail sampler keeps or drops.
#[derive(Debug, Clone)]
pub struct WideEvent {
    /// Which pipeline entry point produced it (`stream`,
    /// `stream.chunks`, `stream.read`).
    pub entry: &'static str,
    /// Source bytes consumed.
    pub bytes: u64,
    /// Parser events produced.
    pub events: u64,
    /// Deepest element nesting.
    pub max_depth: u64,
    /// Events whose strings were all zero-copy slices of the source.
    pub borrowed_events: u64,
    /// Events that needed an owned copy (entity expansion, attribute or
    /// EOL normalization).
    pub owned_events: u64,
    /// Validation errors reported (resource markers included).
    pub error_count: u64,
    /// Resource-budget trips among those errors.
    pub limit_trips: u64,
    /// How the document's validation ended.
    pub outcome: Outcome,
    /// Per-phase wall time, in pipeline order.
    pub phases: Vec<(&'static str, Duration)>,
    /// End-to-end wall time.
    pub total: Duration,
    /// Free-form context attributes beyond the fixed pipeline counters —
    /// an HTTP front end records `method`/`path`/`status`/`tenant` here,
    /// so one record still tells the whole story of a request. Empty for
    /// the library entry points.
    pub attrs: Vec<(&'static str, String)>,
}

impl fmt::Display for WideEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wide event: entry={} outcome={} bytes={} events={} max_depth={} \
             borrowed={} owned={} errors={} limit_trips={} total={}",
            self.entry,
            self.outcome.label(),
            self.bytes,
            self.events,
            self.max_depth,
            self.borrowed_events,
            self.owned_events,
            self.error_count,
            self.limit_trips,
            crate::metrics::fmt_seconds(self.total.as_secs_f64()),
        )?;
        for (name, d) in &self.phases {
            write!(
                f,
                " {}={}",
                name,
                crate::metrics::fmt_seconds(d.as_secs_f64())
            )?;
        }
        for (name, value) in &self.attrs {
            write!(f, " {name}={value}")?;
        }
        Ok(())
    }
}

/// Tail-sampling totals for the current flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideStats {
    /// Wide events offered to the sampler.
    pub seen: u64,
    /// Currently retained (flagged + slowest).
    pub kept: u64,
    /// Discarded by sampling (healthy and not among the slowest, or
    /// flagged beyond the flood cap).
    pub dropped: u64,
}

/// The tail sampler: always keeps errored / limit-tripped / non-valid
/// documents (up to a flood cap), plus the N slowest healthy ones.
struct WideSampler {
    keep_slowest: usize,
    max_flagged: usize,
    slowest: Vec<WideEvent>,
    flagged: Vec<WideEvent>,
    seen: u64,
    dropped: u64,
}

impl WideSampler {
    fn new(keep_slowest: usize, max_flagged: usize) -> WideSampler {
        WideSampler {
            keep_slowest,
            max_flagged,
            slowest: Vec::new(),
            flagged: Vec::new(),
            seen: 0,
            dropped: 0,
        }
    }

    fn offer(&mut self, we: WideEvent) {
        self.seen += 1;
        let flagged =
            we.error_count > 0 || we.limit_trips > 0 || !matches!(we.outcome, Outcome::Valid);
        if flagged {
            if self.flagged.len() < self.max_flagged {
                self.flagged.push(we);
            } else {
                self.dropped += 1;
            }
            return;
        }
        if self.slowest.len() < self.keep_slowest {
            self.slowest.push(we);
            return;
        }
        // full: replace the fastest kept event if this one is slower
        match self
            .slowest
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.total)
            .map(|(i, e)| (i, e.total))
        {
            Some((i, fastest)) if we.total > fastest => {
                self.slowest[i] = we;
                self.dropped += 1; // the evicted one
            }
            _ => self.dropped += 1,
        }
    }
}

/// Offers a per-document wide event to the tail sampler. A no-op when
/// recording is off.
pub fn record_wide_event(we: WideEvent) {
    if !enabled() {
        return;
    }
    let Some(recorder) = RECORDER.read().expect("trace recorder lock").clone() else {
        return;
    };
    recorder.wide.lock().expect("wide sampler lock").offer(we);
}

/// The retained wide events: flagged documents first (arrival order),
/// then the kept slowest, slowest first.
pub fn wide_events() -> Vec<WideEvent> {
    let Some(recorder) = RECORDER.read().expect("trace recorder lock").clone() else {
        return Vec::new();
    };
    let sampler = recorder.wide.lock().expect("wide sampler lock");
    let mut out = sampler.flagged.clone();
    let mut slow = sampler.slowest.clone();
    slow.sort_by_key(|we| std::cmp::Reverse(we.total));
    out.extend(slow);
    out
}

/// Tail-sampling totals for the current flight.
pub fn wide_stats() -> WideStats {
    let Some(recorder) = RECORDER.read().expect("trace recorder lock").clone() else {
        return WideStats {
            seen: 0,
            kept: 0,
            dropped: 0,
        };
    };
    let sampler = recorder.wide.lock().expect("wide sampler lock");
    WideStats {
        seen: sampler.seen,
        kept: (sampler.flagged.len() + sampler.slowest.len()) as u64,
        dropped: sampler.dropped,
    }
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

/// A point-in-time copy of every thread's records.
fn snapshot() -> Vec<(u64, String, Vec<Rec>, u64)> {
    let Some(recorder) = RECORDER.read().expect("trace recorder lock").clone() else {
        return Vec::new();
    };
    let threads = recorder.threads.lock().expect("trace threads lock");
    threads
        .iter()
        .map(|t| {
            let ring = t.ring.lock().expect("trace ring lock");
            (
                t.tid,
                t.name.clone(),
                ring.buf.iter().copied().collect(),
                ring.dropped,
            )
        })
        .collect()
}

/// The span ids of this thread's records whose Begin *and* End both
/// survived the ring — the set whose emission is guaranteed strictly
/// nested (per-thread spans close LIFO, and eviction only ever removes
/// a prefix of the timeline).
fn matched_spans(recs: &[Rec]) -> std::collections::HashSet<u64> {
    let mut stack: Vec<u64> = Vec::new();
    let mut matched = std::collections::HashSet::new();
    for rec in recs {
        match rec.kind {
            RecKind::Begin => stack.push(rec.span),
            RecKind::End => {
                // only the top can match: spans are LIFO per thread, so a
                // mismatch means this End's Begin was evicted — skip it
                if stack.last() == Some(&rec.span) {
                    stack.pop();
                    matched.insert(rec.span);
                }
            }
            RecKind::Complete => {
                matched.insert(rec.span);
            }
        }
    }
    // spans still open at export (Begin without End) are not emitted
    matched
}

/// Microseconds with sub-µs precision, the trace-event `ts`/`dur` unit.
fn micros(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Exports the current flight as Chrome trace-event JSON — an object
/// with a `traceEvents` array of `B`/`E` span pairs, `X` complete
/// intervals, and `M` thread-name metadata, loadable in Perfetto or
/// `chrome://tracing`. Only spans whose begin *and* end survived ring
/// wraparound are emitted, so every thread's `B`/`E` stream is strictly
/// nested; each `B`/`X` event carries its span and parent ids in
/// `args`.
pub fn export_chrome_trace() -> String {
    let threads = snapshot();
    let mut out = String::from("{\"traceEvents\":[");
    for (tid, name, recs, _dropped) in &threads {
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
        );
        json::escape_into(&mut out, name);
        out.push_str("}},");
        let matched = matched_spans(recs);
        for rec in recs.iter().filter(|rec| matched.contains(&rec.span)) {
            let ph = match rec.kind {
                RecKind::Begin => 'B',
                RecKind::End => 'E',
                RecKind::Complete => 'X',
            };
            let _ = write!(
                out,
                "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{}",
                micros(rec.ts)
            );
            if matches!(rec.kind, RecKind::Complete) {
                let _ = write!(out, ",\"dur\":{}", micros(rec.dur));
            }
            out.push_str(",\"name\":");
            json::escape_into(&mut out, rec.name);
            if !matches!(rec.kind, RecKind::End) {
                let _ = write!(
                    out,
                    ",\"args\":{{\"span\":{},\"parent\":{}}}",
                    rec.span, rec.parent
                );
            }
            out.push_str("},");
        }
    }
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("]}");
    out
}

/// A top-down text summary of the flight: span aggregates grouped by
/// name path (parent/child nesting as recorded), merged across threads,
/// followed by quantile estimates derived from the duration histograms
/// in the global metrics registry.
pub fn summary() -> String {
    use std::collections::BTreeMap;
    // path -> (count, total ns)
    let mut agg: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let threads = snapshot();
    let mut dropped_total = 0u64;
    for (_tid, _name, recs, dropped) in &threads {
        dropped_total += dropped;
        let matched = matched_spans(recs);
        // replay: stack of (span, name, begin ts) for nesting paths
        let mut stack: Vec<(u64, &'static str, u64)> = Vec::new();
        let path_of = |stack: &[(u64, &'static str, u64)], name: &str| {
            let mut p = String::new();
            for (_, n, _) in stack {
                p.push_str(n);
                p.push('/');
            }
            p.push_str(name);
            p
        };
        for rec in recs {
            if !matched.contains(&rec.span) {
                continue;
            }
            match rec.kind {
                RecKind::Begin => stack.push((rec.span, rec.name, rec.ts)),
                RecKind::End => {
                    if let Some((span, name, begin)) = stack.pop() {
                        debug_assert_eq!(span, rec.span);
                        let path = path_of(&stack, name);
                        let slot = agg.entry(path).or_insert((0, 0));
                        slot.0 += 1;
                        slot.1 += rec.ts.saturating_sub(begin);
                    }
                }
                RecKind::Complete => {
                    let path = path_of(&stack, rec.name);
                    let slot = agg.entry(path).or_insert((0, 0));
                    slot.0 += 1;
                    slot.1 += rec.dur;
                }
            }
        }
    }
    let mut out = String::from("== trace phases (top-down) ==\n");
    if agg.is_empty() {
        out.push_str("(no complete spans recorded)\n");
    }
    for (path, (count, total_ns)) in &agg {
        let depth = path.matches('/').count();
        let leaf = path.rsplit('/').next().unwrap_or(path);
        let total = *total_ns as f64 / 1e9;
        let mean = total / *count as f64;
        let _ = writeln!(
            out,
            "{:indent$}{leaf:24} count={count:<7} total={:<10} mean={}",
            "",
            crate::metrics::fmt_seconds(total),
            crate::metrics::fmt_seconds(mean),
            indent = depth * 2,
        );
    }
    if dropped_total > 0 {
        let _ = writeln!(out, "({dropped_total} records lost to ring wraparound)");
    }
    let stats = wide_stats();
    if stats.seen > 0 {
        let _ = writeln!(
            out,
            "wide events: seen={} kept={} sampled_out={}",
            stats.seen, stats.kept, stats.dropped
        );
    }
    out.push_str(&crate::metrics().render_quantiles());
    out
}

// ---------------------------------------------------------------------
// Chrome trace validation (the golden-check half of the exporter)
// ---------------------------------------------------------------------

/// One event parsed back out of exported Chrome trace JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Phase: `B`, `E`, `X`, or `M`.
    pub ph: char,
    /// Process id.
    pub pid: u64,
    /// Thread id.
    pub tid: u64,
    /// Event name.
    pub name: String,
    /// Timestamp in microseconds (0 for metadata).
    pub ts: f64,
    /// Duration in microseconds (`X` only).
    pub dur: f64,
    /// Span id from `args` (0 when absent).
    pub span: u64,
    /// Parent span id from `args` (0 when absent/root).
    pub parent: u64,
}

/// What [`validate_chrome_trace`] measured about a well-formed export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeStats {
    /// Total events, metadata included.
    pub events: usize,
    /// Matched `B`/`E` pairs.
    pub begin_end_pairs: usize,
    /// `X` complete events.
    pub completes: usize,
    /// Distinct `(pid, tid)` rows.
    pub threads: usize,
    /// Events whose `parent` id names no span in the export (expected 0
    /// unless wraparound evicted ancestors).
    pub orphan_parents: usize,
}

/// Parses Chrome trace-event JSON back into its event list. Accepts the
/// object form (`{"traceEvents": [...]}`) this crate exports.
pub fn parse_chrome_trace(json: &str) -> Result<Vec<ChromeEvent>, String> {
    let root = json::parse_json(json)?;
    let events = root.get("traceEvents").ok_or("missing traceEvents field")?;
    let JsonValue::Array(items) = events else {
        return Err("traceEvents is not an array".to_string());
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field_u64 = |key: &str| {
            item.get(key)
                .and_then(JsonValue::as_f64)
                .map(|n| n as u64)
                .unwrap_or(0)
        };
        let ph = item
            .get("ph")
            .and_then(JsonValue::as_str)
            .and_then(|s| s.chars().next())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = item
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_string();
        if item.get("pid").and_then(JsonValue::as_f64).is_none() {
            return Err(format!("event {i}: missing pid"));
        }
        if item.get("tid").and_then(JsonValue::as_f64).is_none() {
            return Err(format!("event {i}: missing tid"));
        }
        let ts = match item.get("ts").and_then(JsonValue::as_f64) {
            Some(ts) => ts,
            None if ph == 'M' => 0.0,
            None => return Err(format!("event {i}: missing ts")),
        };
        let dur = item.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
        if ph == 'X' && item.get("dur").is_none() {
            return Err(format!("event {i}: X event missing dur"));
        }
        let args = item.get("args");
        let arg_u64 = |key: &str| {
            args.and_then(|a| a.get(key))
                .and_then(JsonValue::as_f64)
                .map(|n| n as u64)
                .unwrap_or(0)
        };
        out.push(ChromeEvent {
            ph,
            pid: field_u64("pid"),
            tid: field_u64("tid"),
            name,
            ts,
            dur,
            span: arg_u64("span"),
            parent: arg_u64("parent"),
        });
    }
    Ok(out)
}

/// Validates an exported Chrome trace: well-formed JSON, the required
/// `ph`/`ts`/`pid`/`tid` fields on every event, and strictly nested
/// begin/end pairs per `(pid, tid)` row (every `E` closes the most
/// recent open `B` of the same name; nothing is left open). Returns
/// structural statistics on success.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeStats, String> {
    let events = parse_chrome_trace(json)?;
    let mut stacks: std::collections::HashMap<(u64, u64), Vec<String>> =
        std::collections::HashMap::new();
    let mut spans: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut threads: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
    let mut pairs = 0;
    let mut completes = 0;
    for (i, ev) in events.iter().enumerate() {
        threads.insert((ev.pid, ev.tid));
        if ev.span != 0 {
            spans.insert(ev.span);
        }
        match ev.ph {
            'B' => stacks
                .entry((ev.pid, ev.tid))
                .or_default()
                .push(ev.name.clone()),
            'E' => {
                let stack = stacks.entry((ev.pid, ev.tid)).or_default();
                match stack.pop() {
                    Some(open) if open == ev.name => pairs += 1,
                    Some(open) => {
                        return Err(format!(
                            "event {i}: E {:?} does not close the open span {:?} \
                             on tid {} — begin/end not strictly nested",
                            ev.name, open, ev.tid
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {i}: E {:?} on tid {} with no open span",
                            ev.name, ev.tid
                        ));
                    }
                }
            }
            'X' => completes += 1,
            'M' => {}
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }
    for ((_pid, tid), stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid}: {} span(s) left open at end of trace: {:?}",
                stack.len(),
                stack
            ));
        }
    }
    let orphan_parents = events
        .iter()
        .filter(|e| e.parent != 0 && !spans.contains(&e.parent))
        .count();
    Ok(ChromeStats {
        events: events.len(),
        begin_end_pairs: pairs,
        completes,
        threads: threads.len(),
        orphan_parents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; tests that flip it serialize with
    // every other global-flipping obs test.
    use crate::GLOBAL_TEST_LOCK as TRACE_LOCK;

    fn wide(entry: &'static str, outcome: Outcome, errors: u64, total_us: u64) -> WideEvent {
        WideEvent {
            entry,
            bytes: 100,
            events: 10,
            max_depth: 3,
            borrowed_events: 10,
            owned_events: 0,
            error_count: errors,
            limit_trips: 0,
            outcome,
            phases: vec![(entry, Duration::from_micros(total_us))],
            total: Duration::from_micros(total_us),
            attrs: Vec::new(),
        }
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _guard = TRACE_LOCK.lock().unwrap();
        stop();
        assert!(!enabled());
        assert!(begin_span("t", Instant::now()).is_none());
        complete_from("t", Instant::now());
        record_wide_event(wide("t", Outcome::Valid, 0, 1));
        let ctx = TraceCtx::current();
        assert_eq!(ctx.parent, 0);
        drop(ctx.attach());
    }

    #[test]
    fn spans_nest_and_export_strictly() {
        let _guard = TRACE_LOCK.lock().unwrap();
        start(1024);
        let now = Instant::now();
        let outer = begin_span("outer", now).unwrap();
        let inner = begin_span("inner", Instant::now()).unwrap();
        complete_from("interval", now);
        end_span("inner", inner, Instant::now());
        end_span("outer", outer, Instant::now());
        stop();
        let json = export_chrome_trace();
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.begin_end_pairs, 2, "{json}");
        assert_eq!(stats.completes, 1);
        assert_eq!(stats.orphan_parents, 0, "{json}");
        let events = parse_chrome_trace(&json).unwrap();
        let inner_b = events
            .iter()
            .find(|e| e.ph == 'B' && e.name == "inner")
            .unwrap();
        let outer_b = events
            .iter()
            .find(|e| e.ph == 'B' && e.name == "outer")
            .unwrap();
        assert_eq!(inner_b.parent, outer_b.span, "inner parents to outer");
        assert_eq!(outer_b.parent, 0, "outer is a root span");
        let summary = summary();
        assert!(summary.contains("outer"), "{summary}");
        assert!(summary.contains("inner"), "{summary}");
    }

    #[test]
    fn ring_wraparound_drops_oldest_never_torn() {
        let _guard = TRACE_LOCK.lock().unwrap();
        start(8);
        for i in 0..100u32 {
            let name = if i % 2 == 0 { "even" } else { "odd" };
            let h = begin_span(name, Instant::now()).unwrap();
            end_span(name, h, Instant::now());
        }
        stop();
        assert!(dropped_records() > 0, "wraparound must have evicted");
        // everything that survived still validates: no torn records, no
        // unmatched pairs, strict nesting
        let stats = validate_chrome_trace(&export_chrome_trace()).unwrap();
        assert!(stats.begin_end_pairs > 0);
        assert!(stats.begin_end_pairs <= 4, "ring of 8 holds ≤4 pairs");
    }

    #[test]
    fn ctx_attach_reparents_across_threads() {
        let _guard = TRACE_LOCK.lock().unwrap();
        start(1024);
        let batch = begin_span("batch", Instant::now()).unwrap();
        let batch_id = batch.span;
        let ctx = TraceCtx::current();
        let handle = std::thread::spawn(move || {
            let _attach = ctx.attach();
            let h = begin_span("worker", Instant::now()).unwrap();
            end_span("worker", h, Instant::now());
        });
        handle.join().unwrap();
        end_span("batch", batch, Instant::now());
        stop();
        let events = parse_chrome_trace(&export_chrome_trace()).unwrap();
        let worker = events
            .iter()
            .find(|e| e.ph == 'B' && e.name == "worker")
            .unwrap();
        assert_eq!(worker.parent, batch_id);
        let batch_ev = events
            .iter()
            .find(|e| e.ph == 'B' && e.name == "batch")
            .unwrap();
        assert_ne!(worker.tid, batch_ev.tid, "worker ran on its own thread");
        assert_eq!(
            validate_chrome_trace(&export_chrome_trace())
                .unwrap()
                .orphan_parents,
            0
        );
    }

    #[test]
    fn wide_event_tail_sampling() {
        let _guard = TRACE_LOCK.lock().unwrap();
        start_with_sampling(64, 2);
        // 5 healthy events of increasing latency; keep_slowest = 2
        for us in [10, 50, 30, 90, 20] {
            record_wide_event(wide("stream", Outcome::Valid, 0, us));
        }
        // errored events are always kept
        record_wide_event(wide("stream", Outcome::Invalid, 3, 1));
        record_wide_event(wide("stream", Outcome::Malformed, 1, 2));
        stop();
        let kept = wide_events();
        let stats = wide_stats();
        assert_eq!(stats.seen, 7);
        assert_eq!(stats.kept, 4, "{kept:#?}");
        assert_eq!(stats.dropped, 3);
        // flagged first (arrival order), then slowest-first
        assert_eq!(kept[0].outcome, Outcome::Invalid);
        assert_eq!(kept[1].outcome, Outcome::Malformed);
        assert_eq!(kept[2].total, Duration::from_micros(90));
        assert_eq!(kept[3].total, Duration::from_micros(50));
        let line = kept[0].to_string();
        assert!(line.contains("wide event:"), "{line}");
        assert!(line.contains("outcome=invalid"), "{line}");
        assert!(line.contains("errors=3"), "{line}");
    }

    #[test]
    fn restart_discards_the_previous_flight() {
        let _guard = TRACE_LOCK.lock().unwrap();
        start(1024);
        let h = begin_span("old", Instant::now()).unwrap();
        end_span("old", h, Instant::now());
        start(1024);
        let h = begin_span("new", Instant::now()).unwrap();
        end_span("new", h, Instant::now());
        stop();
        let json = export_chrome_trace();
        assert!(!json.contains("\"old\""), "{json}");
        assert!(json.contains("\"new\""), "{json}");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
        // E without B
        let bad = r#"{"traceEvents":[{"ph":"E","pid":1,"tid":1,"ts":1.0,"name":"x"}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("no open span"));
        // interleaved, not nested
        let bad = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":1,"ts":1.0,"name":"a"},
            {"ph":"B","pid":1,"tid":1,"ts":2.0,"name":"b"},
            {"ph":"E","pid":1,"tid":1,"ts":3.0,"name":"a"},
            {"ph":"E","pid":1,"tid":1,"ts":4.0,"name":"b"}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("not strictly nested"));
        // left open
        let bad = r#"{"traceEvents":[{"ph":"B","pid":1,"tid":1,"ts":1.0,"name":"a"}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("left open"));
        // missing ts on a B event
        let bad = r#"{"traceEvents":[{"ph":"B","pid":1,"tid":1,"name":"a"}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("missing ts"));
        // missing tid
        let bad = r#"{"traceEvents":[{"ph":"B","pid":1,"ts":1.0,"name":"a"}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("missing tid"));
    }

    #[test]
    fn json_parser_handles_escapes_and_unicode() {
        let json = r#"{"traceEvents":[{"ph":"M","pid":1,"tid":1,
            "name":"thread_name","args":{"name":"wörk\"er\\1\n"}}]}"#;
        let events = parse_chrome_trace(json).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ph, 'M');
        let stats = validate_chrome_trace(json).unwrap();
        assert_eq!(stats.events, 1);
    }

    #[test]
    fn deeply_nested_trace_json_is_an_error_not_a_crash() {
        // hostile nesting must hit the parser's depth cap, not the stack
        let depth = 200_000;
        let json = format!(
            "{{\"traceEvents\":{}{}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        assert!(parse_chrome_trace(&json).is_err());
        assert!(validate_chrome_trace(&json).is_err());
    }
}
