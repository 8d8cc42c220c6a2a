//! Regression battery over the committed hostile corpus
//! (`tests/corpora/hostile/`): every adversarial document must be
//! rejected under `limits::Limits::default()` with the *right* typed
//! `ResourceErrorKind`, quickly, and without memory proportional to the
//! attack. Scaled-up in-memory monsters (100,000-deep nesting, a
//! million attributes) check that the bounds hold far past the sizes it
//! is sensible to commit.
//!
//! Memory is measured with a peak-tracking global allocator (this test
//! file is its own binary, so the tracker sees only this test): the
//! validation of a monster may allocate at most a fixed budget beyond
//! the input string itself, however large the attack is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use limits::ResourceErrorKind;
use schema::corpus::PURCHASE_ORDER_XSD;
use schema::CompiledSchema;
use validator::{validate_str_streaming, ValidationError, ValidationErrorKind};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note_alloc(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// The tracker is process-global; every test of this binary holds this
/// for its whole body, set-up included, so the harness's parallel test
/// threads cannot bleed allocations into a measured window.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

const BILLION_LAUGHS: &str = include_str!("../corpora/hostile/billion_laughs.xml");
const DEEP_NESTING: &str = include_str!("../corpora/hostile/deep_nesting.xml");
const MANY_ATTRIBUTES: &str = include_str!("../corpora/hostile/many_attributes.xml");
const QUADRATIC_BLOWUP: &str = include_str!("../corpora/hostile/quadratic_blowup.xml");

fn po() -> CompiledSchema {
    CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap()
}

/// The rejection-latency ceiling per hostile document. The production
/// claim (EXPERIMENTS.md) is <100ms; unoptimized test builds run the
/// same code roughly an order of magnitude slower, so they get a scaled
/// allowance rather than a vacuous one.
fn time_budget() -> Duration {
    if cfg!(debug_assertions) {
        Duration::from_millis(800)
    } else {
        Duration::from_millis(100)
    }
}

/// Validates `src` under default limits three times and returns the
/// fastest run plus the (asserted-stable) error list — min-of-3 filters
/// scheduler noise out of the latency assertion.
fn rejected_in(compiled: &CompiledSchema, src: &str) -> (Duration, Vec<ValidationError>) {
    let mut best: Option<(Duration, Vec<ValidationError>)> = None;
    for _ in 0..3 {
        let started = Instant::now();
        let errors = validate_str_streaming(compiled, src);
        let elapsed = started.elapsed();
        match &mut best {
            Some((t, e)) => {
                assert_eq!(*e, errors, "rejection is not deterministic");
                *t = (*t).min(elapsed);
            }
            None => best = Some((elapsed, errors)),
        }
    }
    best.unwrap()
}

/// Asserts `src` is rejected with exactly the expected resource kind,
/// inside the time budget, carrying the span where the budget tripped.
fn assert_rejected(compiled: &CompiledSchema, src: &str, want: &ResourceErrorKind, label: &str) {
    let (elapsed, errors) = rejected_in(compiled, src);
    assert!(
        elapsed < time_budget(),
        "{label}: rejection took {elapsed:?}, budget {:?}",
        time_budget()
    );
    let last = errors
        .last()
        .unwrap_or_else(|| panic!("{label}: no errors"));
    match &last.kind {
        ValidationErrorKind::Resource(kind) => {
            assert_eq!(kind, want, "{label}: wrong limit tripped: {errors:#?}")
        }
        other => panic!("{label}: rejected untyped: {other:?}"),
    }
    let span = last
        .span
        .unwrap_or_else(|| panic!("{label}: resource error without a trip position"));
    assert!(
        span.start.offset <= src.len(),
        "{label}: trip position {span:?} outside the document"
    );
}

#[test]
fn billion_laughs_trips_expansion_count() {
    let _window = MEASURE.lock().unwrap();
    assert_rejected(
        &po(),
        BILLION_LAUGHS,
        &ResourceErrorKind::TooManyExpansions { limit: 10_000 },
        "billion_laughs.xml",
    );
}

#[test]
fn deep_nesting_trips_depth() {
    let _window = MEASURE.lock().unwrap();
    assert_rejected(
        &po(),
        DEEP_NESTING,
        &ResourceErrorKind::DepthExceeded { limit: 1024 },
        "deep_nesting.xml",
    );
}

#[test]
fn many_attributes_trips_attribute_count() {
    let _window = MEASURE.lock().unwrap();
    assert_rejected(
        &po(),
        MANY_ATTRIBUTES,
        &ResourceErrorKind::TooManyAttributes { limit: 4096 },
        "many_attributes.xml",
    );
}

#[test]
fn quadratic_blowup_trips_attribute_value_length() {
    let _window = MEASURE.lock().unwrap();
    assert_rejected(
        &po(),
        QUADRATIC_BLOWUP,
        &ResourceErrorKind::AttributeValueTooLong {
            limit: 64 << 10,
            actual: 70_000,
        },
        "quadratic_blowup.xml",
    );
}

#[test]
fn corpus_files_trip_distinct_limits() {
    let _window = MEASURE.lock().unwrap();
    // each file regression-tests exactly one ceiling; if two ever trip
    // the same one, a regression in that limit could hide behind another
    let compiled = po();
    let mut kinds: Vec<&'static str> = [
        BILLION_LAUGHS,
        DEEP_NESTING,
        MANY_ATTRIBUTES,
        QUADRATIC_BLOWUP,
    ]
    .iter()
    .map(
        |src| match &validate_str_streaming(&compiled, src).last().unwrap().kind {
            ValidationErrorKind::Resource(kind) => kind.label(),
            other => panic!("untyped rejection: {other:?}"),
        },
    )
    .collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 4, "{kinds:?}");
}

/// Runs `f` and returns (peak-live-bytes-above-start, result).
fn peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let result = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (peak.saturating_sub(start), result)
}

#[test]
fn scaled_monsters_reject_in_bounded_time_and_memory() {
    let _window = MEASURE.lock().unwrap();
    let compiled = po();
    // warm every size-independent lazy structure (symbol table, plans)
    validate_str_streaming(&compiled, "<purchaseOrder/>");

    // 100,000-deep nesting: ~100× past the default ceiling
    let depth_monster = format!("{}{}", "<d>".repeat(100_000), "</d>".repeat(100_000));
    // one element with 1,000,000 attributes: ~250× past the ceiling
    let mut attr_monster = String::from("<doc");
    for i in 0..1_000_000 {
        attr_monster.push_str(&format!(" a{i}=\"x\""));
    }
    attr_monster.push_str("/>");
    // 200,000 references in one text run: 20× past the ceiling
    let flood_monster = format!("<doc>{}</doc>", "&amp;".repeat(200_000));

    let cases: [(&str, &str, &str); 3] = [
        ("depth monster", &depth_monster, "DepthExceeded"),
        ("attribute monster", &attr_monster, "TooManyAttributes"),
        ("expansion monster", &flood_monster, "TooManyExpansions"),
    ];
    for (label, src, want) in cases {
        let started = Instant::now();
        let (peak, errors) = peak_during(|| validate_str_streaming(&compiled, src));
        let elapsed = started.elapsed();
        assert!(
            elapsed < 4 * time_budget(),
            "{label}: took {elapsed:?} on {} bytes",
            src.len()
        );
        // the rejection must not buffer the attack: a fixed budget far
        // below the input size, not proportional to it
        assert!(
            peak < 1 << 20,
            "{label}: peak allocation {peak} bytes over a {}-byte input",
            src.len()
        );
        match &errors.last().unwrap().kind {
            ValidationErrorKind::Resource(kind) => assert_eq!(kind.label(), want, "{label}"),
            other => panic!("{label}: untyped rejection {other:?}"),
        }
    }
}

#[test]
fn input_size_ceiling_rejects_before_parsing() {
    let _window = MEASURE.lock().unwrap();
    let compiled = po();
    let budget = limits::Limits::default().with_max_input_bytes(1 << 10);
    let doc = format!(
        "<purchaseOrder><comment>{}</comment></purchaseOrder>",
        "x".repeat(4096)
    );
    let (peak, errors) =
        peak_during(|| validator::validate_str_streaming_with_limits(&compiled, &doc, &budget));
    assert!(
        peak < 64 << 10,
        "pre-parse rejection allocated {peak} bytes"
    );
    assert_eq!(errors.len(), 1, "{errors:#?}");
    match errors[0].kind {
        ValidationErrorKind::Resource(ResourceErrorKind::InputTooLarge { limit, actual }) => {
            assert_eq!(limit, 1024);
            assert_eq!(actual, doc.len());
        }
        ref other => panic!("wrong rejection: {other:?}"),
    }
}
