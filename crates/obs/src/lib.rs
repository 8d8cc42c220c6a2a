//! Pipeline observability: structured spans and a process-global metrics
//! registry, with a human-readable text report and a Prometheus
//! text-format exporter.
//!
//! The paper moves validity checking into the build pipeline
//! (preprocessor → V-DOM → generator, Fig. 9); this crate makes that
//! pipeline *visible* at runtime — per-phase wall time, event and byte
//! throughput, DFA sizes, cache hit rates, error populations — so the
//! perf work the ROADMAP asks for can target measured hot paths instead
//! of guesses.
//!
//! # Gating
//!
//! Everything is off by default. Until [`install`] (or
//! [`install_collector`]) is called, every instrumented call site in the
//! pipeline pays exactly **one relaxed atomic load** ([`enabled`]) and
//! branches past the recording code; `crates/bench/benches/obs_overhead.rs`
//! measures the residue. Installing a [`SpanSink`] turns on both span
//! recording and metric updates; [`shutdown`] turns both off again.
//!
//! # Quickstart
//!
//! ```
//! // 1. install a sink (turns instrumentation on)
//! let sink = obs::install_collector();
//!
//! // 2. run instrumented code — spans time a scope, metrics accumulate
//! {
//!     let _span = obs::span!("demo.phase", corpus = "po");
//!     obs::metrics()
//!         .counter("demo_documents_total", "Documents processed.")
//!         .inc();
//! }
//!
//! // 3. render: per-span timings, then both metric exporters
//! println!("{}", sink.report());
//! println!("{}", obs::metrics().render_text());
//! println!("{}", obs::metrics().render_prometheus());
//! # assert!(obs::metrics().render_prometheus().contains("demo_documents_total 1"));
//! obs::shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use span::{CollectingSink, SpanRecord, SpanSink};

/// Whether a sink is installed — the single hot-path check. Relaxed is
/// enough: instrumentation is advisory, not synchronization.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed span sink, if any.
static SINK: RwLock<Option<Arc<dyn SpanSink>>> = RwLock::new(None);

/// The process-global metrics registry.
static GLOBAL_METRICS: OnceLock<Registry> = OnceLock::new();

/// Histogram bounds (seconds) for pipeline phase latencies: 1 µs – 1 s,
/// roughly quarter-decade steps.
pub const DURATION_BUCKETS: &[f64] = &[
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
    5e-2, 0.1, 0.25, 0.5, 1.0,
];

/// Histogram bounds for small structural counts (element depth, DFA
/// sizes): powers of two up to 256.
pub const DEPTH_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Whether instrumentation is on (a sink is installed).
///
/// This is the only cost instrumented call sites pay when observability
/// is off: one relaxed atomic load and a branch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether [`span!`] sites should arm: true when either the metrics/sink
/// layer ([`enabled`]) or the flight recorder ([`trace::enabled`]) is on.
/// Two relaxed loads when everything is off.
#[inline]
pub fn span_enabled() -> bool {
    enabled() || trace::enabled()
}

/// Installs `sink` as the process-wide span sink and enables
/// instrumentation (spans *and* metrics). Replaces any previous sink.
pub fn install(sink: Arc<dyn SpanSink>) {
    *SINK.write().expect("span sink lock") = Some(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Installs a fresh [`CollectingSink`] and returns a handle to it — the
/// one-line setup used by `xmlstat` and the tests.
pub fn install_collector() -> Arc<CollectingSink> {
    let sink = Arc::new(CollectingSink::new());
    install(sink.clone());
    sink
}

/// Disables instrumentation and drops the installed sink. Metrics
/// already accumulated in [`metrics()`] are kept (they are monotonic
/// process totals); use [`Registry::reset`] to clear them.
pub fn shutdown() {
    ENABLED.store(false, Ordering::Relaxed);
    *SINK.write().expect("span sink lock") = None;
}

/// The process-global metrics registry.
pub fn metrics() -> &'static Registry {
    GLOBAL_METRICS.get_or_init(Registry::new)
}

/// Delivers a finished span to the installed sink, if any.
fn record_span(record: SpanRecord) {
    if let Some(sink) = SINK.read().expect("span sink lock").as_ref() {
        sink.record(record);
    }
}

/// A live span: records its wall time to the installed sink — and a
/// begin/end pair to the flight recorder ([`trace`]) when one is flying —
/// when dropped. Construct via [`span!`](crate::span!); a guard created
/// while instrumentation is off is inert and free to drop.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    fields: Vec<(&'static str, String)>,
    start: Instant,
    trace: Option<trace::SpanHandle>,
}

impl SpanGuard {
    /// An armed guard; the clock starts now (one read, shared with the
    /// trace begin record). Prefer [`span!`](crate::span!).
    pub fn enter(name: &'static str, fields: Vec<(&'static str, String)>) -> SpanGuard {
        let start = Instant::now();
        let trace = trace::begin_span(name, start);
        SpanGuard {
            active: Some(ActiveSpan {
                name,
                fields,
                start,
                trace,
            }),
        }
    }

    /// An inert guard (instrumentation off).
    pub fn noop() -> SpanGuard {
        SpanGuard { active: None }
    }

    /// Closes the span and returns its wall time — from **one** end-of-
    /// scope clock read shared by the trace end record, the sink record,
    /// and the returned duration, so a histogram fed from the return
    /// value can never disagree with the trace about a phase's length.
    /// Returns `None` for an inert guard.
    pub fn finish(mut self) -> Option<Duration> {
        self.active.take().map(Self::close)
    }

    fn close(active: ActiveSpan) -> Duration {
        let end = Instant::now();
        if let Some(handle) = active.trace {
            trace::end_span(active.name, handle, end);
        }
        let duration = end.saturating_duration_since(active.start);
        record_span(SpanRecord {
            name: active.name,
            fields: active.fields,
            duration,
        });
        duration
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            Self::close(active);
        }
    }
}

/// Opens a structured span over the enclosing scope.
///
/// ```
/// # let _sink = obs::install_collector();
/// let schema_name = "purchase-order";
/// let _span = obs::span!("validate.stream", schema = schema_name);
/// // ... timed work ...
/// # drop(_span);
/// # obs::shutdown();
/// ```
///
/// Field values are captured with `ToString` **only when instrumentation
/// is enabled** (sink or flight recorder); when everything is off the
/// whole expansion is two relaxed atomic loads.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::span_enabled() {
            $crate::SpanGuard::enter(
                $name,
                ::std::vec![$((stringify!($key), ::std::string::ToString::to_string(&$value))),*],
            )
        } else {
            $crate::SpanGuard::noop()
        }
    };
}

/// A gated stopwatch for feeding latency histograms: free when
/// instrumentation is off.
///
/// ```
/// let timer = obs::Timer::start();
/// // ... work ...
/// if let Some(elapsed) = timer.stop() {
///     obs::metrics()
///         .histogram("work_seconds", "Work latency.", obs::DURATION_BUCKETS)
///         .observe_duration(elapsed);
/// }
/// ```
#[must_use = "a timer that is never stopped measures nothing"]
pub struct Timer(Option<Instant>);

impl Timer {
    /// Starts timing — or does nothing at all when instrumentation is
    /// off.
    pub fn start() -> Timer {
        Timer(enabled().then(Instant::now))
    }

    /// The elapsed time, or `None` when the timer was started with
    /// instrumentation off.
    pub fn stop(self) -> Option<Duration> {
        self.0.map(|start| start.elapsed())
    }
}

/// Serializes every test that flips process-global observability state
/// (the sink flag or the flight recorder): a `span!` fired by one test
/// while another test is recording would pollute that test's rings.
#[cfg(test)]
pub(crate) static GLOBAL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    use crate::GLOBAL_TEST_LOCK as INSTALL_LOCK;

    #[test]
    fn disabled_by_default_and_span_is_inert() {
        let _guard = INSTALL_LOCK.lock().unwrap();
        shutdown();
        assert!(!enabled());
        let span = span!("test.noop", ignored = "value");
        drop(span);
        assert!(Timer::start().stop().is_none());
    }

    #[test]
    fn install_enables_and_spans_reach_the_sink() {
        let _guard = INSTALL_LOCK.lock().unwrap();
        let sink = install_collector();
        assert!(enabled());
        {
            let _span = span!("test.phase", corpus = "po", n = 3);
        }
        let spans = sink.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "test.phase");
        assert_eq!(
            spans[0].fields,
            vec![("corpus", "po".to_string()), ("n", "3".to_string())]
        );
        assert!(Timer::start().stop().is_some());
        shutdown();
        assert!(!enabled());
        {
            let _span = span!("test.after-shutdown");
        }
        assert_eq!(sink.spans().len(), 1, "sink must not grow after shutdown");
    }
}
