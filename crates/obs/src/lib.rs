//! Pipeline observability: named spans, a process-global metrics
//! registry with a human-readable text report and a Prometheus
//! text-format exporter, and the flight recorder ([`trace`]).
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
//! Everything is off by default. Until [`enable`] is called, every
//! instrumented call site in the pipeline pays exactly **one relaxed
//! atomic load** ([`enabled`]) and branches past the recording code;
//! `crates/bench/benches/obs_overhead.rs` measures the residue.
//! [`enable`] turns metric updates on and [`shutdown`] turns them off
//! again. Spans are timed scopes: they feed the duration histograms
//! their call sites own and, when the flight recorder flies
//! ([`trace::start`]), land in its bounded per-thread rings — the only
//! place spans are stored.
//!
//! # Quickstart
//!
//! ```
//! // 1. turn instrumentation on (and, optionally, the flight recorder)
//! obs::enable();
//! obs::trace::start(4096);
//!
//! // 2. run instrumented code — spans time a scope, metrics accumulate
//! {
//!     let _span = obs::span!("demo.phase");
//!     obs::metrics()
//!         .counter("demo_documents_total", "Documents processed.")
//!         .inc();
//! }
//!
//! // 3. render: per-phase timings, then both metric exporters
//! obs::trace::stop();
//! println!("{}", obs::trace::summary());
//! println!("{}", obs::metrics().render_text());
//! println!("{}", obs::metrics().render_prometheus());
//! # assert!(obs::metrics().render_prometheus().contains("demo_documents_total 1"));
//! obs::shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub use metrics::{Counter, Gauge, Histogram, Registry};

/// Whether metrics are on — the single hot-path check. Relaxed is
/// enough: instrumentation is advisory, not synchronization.
static ENABLED: AtomicBool = AtomicBool::new(false);

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

/// Whether instrumentation is on ([`enable`] was called).
///
/// This is the only cost instrumented call sites pay when observability
/// is off: one relaxed atomic load and a branch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether [`span!`] sites should arm: true when either the metrics
/// layer ([`enabled`]) or the flight recorder ([`trace::enabled`]) is on.
/// Two relaxed loads when everything is off.
#[inline]
pub fn span_enabled() -> bool {
    enabled() || trace::enabled()
}

/// Turns instrumentation on: metric updates at every probe site, and
/// span timing for the duration histograms.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns instrumentation off. Metrics already accumulated in
/// [`metrics()`] are kept (they are monotonic process totals); use
/// [`Registry::reset`] to clear them.
pub fn shutdown() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// The process-global metrics registry.
pub fn metrics() -> &'static Registry {
    GLOBAL_METRICS.get_or_init(Registry::new)
}

/// A live span: records a begin/end pair to the flight recorder
/// ([`trace`]) when one is flying, and times its scope for
/// [`finish`](Self::finish). Construct via [`span!`](crate::span!); a guard created
/// while instrumentation is off is inert and free to drop.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    trace: Option<trace::SpanHandle>,
}

impl SpanGuard {
    /// An armed guard; the clock starts now (one read, shared with the
    /// trace begin record). Prefer [`span!`](crate::span!).
    pub fn enter(name: &'static str) -> SpanGuard {
        let start = Instant::now();
        let trace = trace::begin_span(name, start);
        SpanGuard {
            active: Some(ActiveSpan { name, start, trace }),
        }
    }

    /// An inert guard (instrumentation off).
    pub fn noop() -> SpanGuard {
        SpanGuard { active: None }
    }

    /// Closes the span and returns its wall time — from **one** end-of-
    /// scope clock read shared by the trace end record and the returned
    /// duration, so a histogram fed from the return
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
        end.saturating_duration_since(active.start)
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
/// # obs::enable();
/// let span = obs::span!("validate.stream");
/// // ... timed work ...
/// let elapsed = span.finish();
/// # assert!(elapsed.is_some());
/// # obs::shutdown();
/// ```
///
/// When metrics and the flight recorder are both off the whole expansion
/// is two relaxed atomic loads and the guard is inert.
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        if $crate::span_enabled() {
            $crate::SpanGuard::enter($name)
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
/// (the metrics flag or the flight recorder): a `span!` fired by one test
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
        assert!(span!("test.noop").finish().is_none());
        assert!(Timer::start().stop().is_none());
    }

    #[test]
    fn enable_arms_spans_and_timers_until_shutdown() {
        let _guard = INSTALL_LOCK.lock().unwrap();
        enable();
        assert!(enabled());
        assert!(span!("test.phase").finish().is_some());
        assert!(Timer::start().stop().is_some());
        shutdown();
        assert!(!enabled());
        assert!(span!("test.after-shutdown").finish().is_none());
    }
}
