//! Flight-recorder integration: trace-context propagation across real
//! pool threads, ring wraparound under overflow, and a golden-shape
//! check on the Chrome trace export.
//!
//! The recorder is process-global, so every test takes `TRACE_LOCK` and
//! starts its own flight (`trace::start` discards the previous one).

use std::sync::Mutex;

use pool::ThreadPool;
use webgen::SchemaRegistry;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

const SCHEMA: &str = "purchase-order";

/// Runs an n-thread parallel batch under the recorder and returns the
/// validated export.
fn traced_batch(threads: usize, docs: usize) -> (String, obs::trace::ChromeStats) {
    // compile outside the flight: this test is about the batch's spans
    let registry = SchemaRegistry::with_corpus().unwrap();
    let document = schema::corpus::PURCHASE_ORDER_XML;
    let documents: Vec<&str> = vec![document; docs];
    let pool = ThreadPool::new(threads);

    obs::trace::start(1 << 16);
    let results = registry
        .validate_batch_parallel(SCHEMA, &documents, &pool, &limits::Limits::default())
        .unwrap();
    obs::trace::stop();
    assert_eq!(results.len(), docs);
    assert!(results.iter().all(|r| r.is_empty()), "corpus doc is valid");

    let json = obs::trace::export_chrome_trace();
    let stats = obs::trace::validate_chrome_trace(&json).expect("export must validate");
    (json, stats)
}

#[test]
fn pool_worker_spans_parent_to_the_submitting_batch() {
    let _guard = TRACE_LOCK.lock().unwrap();
    for threads in [1, 2, 8] {
        let (json, stats) = traced_batch(threads, 4 * threads);
        assert_eq!(
            stats.orphan_parents, 0,
            "{threads} threads: every span's parent must be in the export"
        );

        let events = obs::trace::parse_chrome_trace(&json).unwrap();
        let find_span = |name: &str| {
            events
                .iter()
                .find(|e| e.ph == 'B' && e.name == name)
                .unwrap_or_else(|| panic!("{threads} threads: no {name} span"))
                .span
        };
        let registry_span = find_span("registry.validate_batch_parallel");
        let batch_span = find_span("pool.batch");
        let batch = events
            .iter()
            .find(|e| e.ph == 'B' && e.name == "pool.batch")
            .unwrap();
        assert_eq!(
            batch.parent, registry_span,
            "{threads} threads: pool.batch must hang off the registry entry point"
        );

        // every worker-side record — pool.run begins and pool.queue_wait
        // completes, on whatever worker thread they landed — links back
        // to the submitting batch span
        let worker_events: Vec<_> = events
            .iter()
            .filter(|e| {
                (e.ph == 'B' && e.name == "pool.run")
                    || (e.ph == 'X' && e.name == "pool.queue_wait")
            })
            .collect();
        assert!(
            !worker_events.is_empty(),
            "{threads} threads: workers must have recorded spans"
        );
        for e in &worker_events {
            assert_eq!(
                e.parent, batch_span,
                "{threads} threads: {} on tid {} must parent to pool.batch",
                e.name, e.tid
            );
        }
        // the per-document registry.validate spans nest under pool.run
        let run_spans: Vec<u64> = events
            .iter()
            .filter(|e| e.ph == 'B' && e.name == "pool.run")
            .map(|e| e.span)
            .collect();
        for e in events
            .iter()
            .filter(|e| e.ph == 'B' && e.name == "registry.validate")
        {
            assert!(
                run_spans.contains(&e.parent),
                "{threads} threads: registry.validate must parent to a pool.run"
            );
        }
    }
}

#[test]
fn ring_wraparound_stays_exportable() {
    let _guard = TRACE_LOCK.lock().unwrap();
    obs::trace::start(16);
    for _ in 0..500 {
        let _outer = obs::span!("wrap.outer");
        let _inner = obs::span!("wrap.inner");
    }
    obs::trace::stop();

    assert!(
        obs::trace::dropped_records() > 0,
        "500 span pairs must overflow a 16-record ring"
    );
    let json = obs::trace::export_chrome_trace();
    let stats = obs::trace::validate_chrome_trace(&json)
        .expect("wraparound must never produce an unbalanced export");
    assert!(
        stats.begin_end_pairs > 0,
        "the surviving tail must still export matched pairs"
    );
}

/// Remaps volatile fields (timestamps, span ids, thread ids) to stable
/// ones so the export can be compared against a committed golden file.
fn normalize(json: &str) -> String {
    let events = obs::trace::parse_chrome_trace(json).unwrap();
    let mut tids: Vec<u64> = Vec::new();
    let mut spans: Vec<u64> = Vec::new();
    fn remap(id: u64, seen: &mut Vec<u64>) -> String {
        if id == 0 {
            return "-".to_string();
        }
        let i = seen.iter().position(|s| *s == id).unwrap_or_else(|| {
            seen.push(id);
            seen.len() - 1
        });
        format!("S{}", i + 1)
    }
    let mut out = String::new();
    for e in &events {
        let tid = match tids.iter().position(|t| *t == e.tid) {
            Some(i) => i + 1,
            None => {
                tids.push(e.tid);
                tids.len()
            }
        };
        let span = remap(e.span, &mut spans);
        let parent = remap(e.parent, &mut spans);
        out.push_str(&format!(
            "{} {} T{} span={} parent={}\n",
            e.ph, e.name, tid, span, parent
        ));
    }
    out
}

#[test]
fn chrome_trace_golden_shape() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let registry = SchemaRegistry::with_corpus().unwrap();

    obs::trace::start(1 << 16);
    let errors = registry
        .validate_streaming(SCHEMA, schema::corpus::PURCHASE_ORDER_XML)
        .unwrap();
    obs::trace::stop();
    assert!(errors.is_empty());

    let json = obs::trace::export_chrome_trace();
    obs::trace::validate_chrome_trace(&json).expect("golden workload must validate");
    let got = normalize(&json);
    let want = include_str!("../corpora/golden/chrome_trace_po.txt");
    assert_eq!(
        got, want,
        "normalized Chrome export drifted from the golden file;\n\
         if the change is intentional, update tests/corpora/golden/chrome_trace_po.txt"
    );
}
