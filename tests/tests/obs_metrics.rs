//! End-to-end agreement between the metrics the `obs` layer collects and
//! ground truth computed directly by the pipeline, on the purchase-order
//! corpus — the xmlstat workload in test form.
//!
//! The obs registry is process-global, so every test here takes
//! `OBS_LOCK` and asserts on *deltas* around the pipeline call it
//! exercises, never on absolute values.

use std::collections::BTreeMap;
use std::sync::Mutex;

use limits::Limits;
use pool::ThreadPool;
use schema::{corpus, CompiledSchema};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    obs::metrics().counter(name, "").get()
}

fn labeled(name: &str, labels: &[(&str, &str)]) -> u64 {
    obs::metrics().counter_with(name, "", labels).get()
}

/// A purchase order with a wrong child order, a bogus date, and an
/// unknown element — exercising several distinct error kinds at once.
const BROKEN_PO: &str = r#"<purchaseOrder orderDate="not-a-date">
  <billTo country="US">
    <name>B. Smith</name><street>8 Oak</street><city>Old Town</city>
    <state>PA</state><zip>95819</zip>
  </billTo>
  <shipTo country="US">
    <name>A. Smith</name><street>123 Maple</street><city>Mill Valley</city>
    <state>CA</state><zip>90952</zip>
  </shipTo>
  <bogus/>
</purchaseOrder>"#;

fn by_kind(errors: &[validator::ValidationError]) -> BTreeMap<&'static str, u64> {
    let mut map = BTreeMap::new();
    for e in errors {
        *map.entry(e.kind.label()).or_insert(0) += 1;
    }
    map
}

#[test]
fn tree_validation_error_counters_match_ground_truth() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::enable();
    let compiled = CompiledSchema::parse(corpus::PURCHASE_ORDER_XSD).unwrap();
    let doc = xmlparse::parse_document(BROKEN_PO).unwrap();

    // ground truth first, with obs on: the instrumented call *is* the
    // measured call, so run it once and diff counters around it
    let expected = by_kind(&validator::validate_document(&compiled, &doc));
    assert!(!expected.is_empty(), "corpus document should be invalid");
    let before: BTreeMap<_, _> = expected
        .keys()
        .map(|k| {
            (
                *k,
                labeled("validator_errors_total", &[("kind", k), ("mode", "tree")]),
            )
        })
        .collect();
    let errors = validator::validate_document(&compiled, &doc);
    assert_eq!(by_kind(&errors), expected);
    for (kind, count) in &expected {
        let after = labeled(
            "validator_errors_total",
            &[("kind", kind), ("mode", "tree")],
        );
        assert_eq!(
            after - before[kind],
            *count,
            "tree error counter for kind {kind}"
        );
    }
}

#[test]
fn tree_validation_leaves_streaming_metrics_alone() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::enable();
    let compiled = CompiledSchema::parse(corpus::PURCHASE_ORDER_XSD).unwrap();
    let doc = xmlparse::parse_document(BROKEN_PO).unwrap();
    let expected = by_kind(&validator::validate_document(&compiled, &doc));
    assert!(!expected.is_empty());

    let errors_by_mode = |mode: &str| -> BTreeMap<&'static str, u64> {
        expected
            .keys()
            .map(|k| {
                (
                    *k,
                    labeled("validator_errors_total", &[("kind", k), ("mode", mode)]),
                )
            })
            .collect()
    };
    let histogram_count =
        |name: &str, bounds: &[f64]| obs::metrics().histogram(name, "", bounds).count();
    let tree_before = errors_by_mode("tree");
    let streaming_before = errors_by_mode("streaming");
    let depth_before = histogram_count("validator_stream_max_depth", obs::DEPTH_BUCKETS);
    let stream_seconds_before = histogram_count("validator_stream_seconds", obs::DURATION_BUCKETS);
    let tree_seconds_before = histogram_count("validator_tree_seconds", obs::DURATION_BUCKETS);

    validator::validate_document(&compiled, &doc);

    assert_eq!(errors_by_mode("streaming"), streaming_before);
    assert_eq!(
        histogram_count("validator_stream_max_depth", obs::DEPTH_BUCKETS),
        depth_before
    );
    assert_eq!(
        histogram_count("validator_stream_seconds", obs::DURATION_BUCKETS),
        stream_seconds_before
    );
    let tree_after = errors_by_mode("tree");
    for (kind, count) in &expected {
        assert_eq!(
            tree_after[kind] - tree_before[kind],
            *count,
            "tree errors of kind {kind}"
        );
    }
    assert_eq!(
        histogram_count("validator_tree_seconds", obs::DURATION_BUCKETS),
        tree_seconds_before + 1
    );
}

#[test]
fn streaming_validation_counters_match_ground_truth() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::enable();
    let compiled = CompiledSchema::parse(corpus::PURCHASE_ORDER_XSD).unwrap();

    let expected = by_kind(&validator::validate_str_streaming(
        &compiled,
        BROKEN_PO,
        &Limits::default(),
    ));
    assert!(!expected.is_empty());
    let before: BTreeMap<_, _> = expected
        .keys()
        .map(|k| {
            (
                *k,
                labeled(
                    "validator_errors_total",
                    &[("kind", k), ("mode", "streaming")],
                ),
            )
        })
        .collect();
    let depth_before = obs::metrics()
        .histogram("validator_stream_max_depth", "", obs::DEPTH_BUCKETS)
        .count();
    let errors = validator::validate_str_streaming(&compiled, BROKEN_PO, &Limits::default());
    assert_eq!(by_kind(&errors), expected);
    for (kind, count) in &expected {
        let after = labeled(
            "validator_errors_total",
            &[("kind", kind), ("mode", "streaming")],
        );
        assert_eq!(
            after - before[kind],
            *count,
            "streaming error counter for kind {kind}"
        );
    }
    let depth_after = obs::metrics()
        .histogram("validator_stream_max_depth", "", obs::DEPTH_BUCKETS)
        .count();
    assert_eq!(
        depth_after - depth_before,
        1,
        "one depth observation per run"
    );
}

#[test]
fn parser_counters_match_the_document() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::enable();

    // count events with an explicit reader, then diff around parse_document
    let mut reader = xmlparse::Reader::new(corpus::PURCHASE_ORDER_XML);
    let mut ground_truth_events = 0u64;
    while !matches!(
        reader.next_event_borrowed().unwrap(),
        xmlparse::BorrowedEvent::Eof
    ) {
        ground_truth_events += 1;
    }
    drop(reader);

    let events_before = counter("xmlparse_events_total");
    let bytes_before = counter("xmlparse_bytes_total");
    let errors_before = counter("xmlparse_errors_total");
    xmlparse::parse_document(corpus::PURCHASE_ORDER_XML).unwrap();
    assert_eq!(
        counter("xmlparse_events_total") - events_before,
        ground_truth_events
    );
    assert_eq!(
        counter("xmlparse_bytes_total") - bytes_before,
        corpus::PURCHASE_ORDER_XML.len() as u64
    );
    assert_eq!(counter("xmlparse_errors_total"), errors_before);

    // a malformed document moves the error counter
    assert!(xmlparse::parse_document("<a><b></a>").is_err());
    assert_eq!(counter("xmlparse_errors_total") - errors_before, 1);
}

/// Counters aggregated from concurrent pool workers must exactly match
/// single-threaded ground truth on the purchase-order corpus: no lost
/// updates under the 8-way race, histograms whose counts and cumulative
/// buckets sum to the number of observations.
#[test]
fn parallel_batch_counters_match_single_threaded_ground_truth() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::enable();
    let registry = webgen::SchemaRegistry::new();
    registry
        .register("po-parallel", corpus::PURCHASE_ORDER_XSD)
        .unwrap();

    // A batch with plenty of both valid and invalid documents.
    let docs_owned: Vec<String> = (0..24)
        .map(|i| {
            if i % 3 == 0 {
                BROKEN_PO.to_string()
            } else {
                webgen::render_order_string(&webgen::generate_order(i as u64, 5))
            }
        })
        .collect();
    let docs: Vec<&str> = docs_owned.iter().map(String::as_str).collect();

    // Single-threaded ground truth: the sequential batch, and the exact
    // per-kind error population it implies.
    let sequential = registry
        .validate_batch("po-parallel", &docs, &limits::Limits::default())
        .unwrap();
    let mut expected: BTreeMap<&'static str, u64> = BTreeMap::new();
    for errors in &sequential {
        for (kind, n) in by_kind(errors) {
            *expected.entry(kind).or_insert(0) += n;
        }
    }
    assert!(!expected.is_empty(), "batch must contain invalid documents");

    let error_counters_before: BTreeMap<_, _> = expected
        .keys()
        .map(|k| {
            (
                *k,
                labeled(
                    "validator_errors_total",
                    &[("kind", k), ("mode", "streaming")],
                ),
            )
        })
        .collect();
    let latency = obs::metrics().histogram_with(
        "registry_validate_seconds",
        "",
        &[("schema", "po-parallel")],
        obs::DURATION_BUCKETS,
    );
    let latency_before = latency.count();
    let batches_before = counter("pool_batches_total");
    let jobs_before: u64 = (0..8)
        .map(|w| labeled("pool_jobs_total", &[("worker", &w.to_string())]))
        .sum();
    let waits_before: u64 = (0..8)
        .map(|w| {
            obs::metrics()
                .histogram_with(
                    "pool_queue_wait_seconds",
                    "",
                    &[("worker", &w.to_string())],
                    obs::DURATION_BUCKETS,
                )
                .count()
        })
        .sum();

    // The measured run: 8 concurrent workers over the same batch.
    let pool = ThreadPool::new(8);
    let parallel = registry
        .validate_batch_parallel("po-parallel", &docs, &pool, &limits::Limits::default())
        .unwrap();
    assert_eq!(parallel, sequential, "parallel result must be identical");

    // Error counters: concurrent workers lost no updates.
    for (kind, count) in &expected {
        let after = labeled(
            "validator_errors_total",
            &[("kind", kind), ("mode", "streaming")],
        );
        assert_eq!(
            after - error_counters_before[kind],
            *count,
            "streaming error counter for kind {kind} under 8 workers"
        );
    }

    // Per-document latency histogram: one observation per document, and
    // the cumulative +Inf bucket agrees with the count (sums correctly).
    assert_eq!(latency.count() - latency_before, docs.len() as u64);
    let buckets = latency.cumulative_buckets();
    assert_eq!(buckets.last().unwrap().1, latency.count());

    // Pool accounting, flushed once per batch: the per-worker job
    // counters and queue-wait observations sum to exactly one per
    // document across the 8 workers.
    assert_eq!(counter("pool_batches_total") - batches_before, 1);
    let jobs_after: u64 = (0..8)
        .map(|w| labeled("pool_jobs_total", &[("worker", &w.to_string())]))
        .sum();
    assert_eq!(jobs_after - jobs_before, docs.len() as u64);
    let waits_after: u64 = (0..8)
        .map(|w| {
            obs::metrics()
                .histogram_with(
                    "pool_queue_wait_seconds",
                    "",
                    &[("worker", &w.to_string())],
                    obs::DURATION_BUCKETS,
                )
                .count()
        })
        .sum();
    assert_eq!(waits_after - waits_before, docs.len() as u64);
}

#[test]
fn registry_and_facet_counters_move() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::enable();

    let hits_before = labeled("registry_get_total", &[("result", "hit")]);
    let misses_before = labeled("registry_get_total", &[("result", "miss")]);
    let facets_before = counter("schema_facet_checks_total");

    let registry = webgen::SchemaRegistry::new();
    registry
        .register("purchase-order", corpus::PURCHASE_ORDER_XSD)
        .unwrap();
    assert!(registry.get("purchase-order").is_some());
    assert!(registry.get("absent").is_none());
    let errors = registry
        .validate_streaming("purchase-order", corpus::PURCHASE_ORDER_XML)
        .unwrap();
    assert!(errors.is_empty(), "{errors:#?}");

    // two hits: the explicit get plus the one inside validate_streaming
    assert_eq!(
        labeled("registry_get_total", &[("result", "hit")]) - hits_before,
        2
    );
    assert_eq!(
        labeled("registry_get_total", &[("result", "miss")]) - misses_before,
        1
    );
    // the Fig. 1 document carries facet-constrained values (SKU, zip)
    assert!(counter("schema_facet_checks_total") > facets_before);
}
