//! hardened_batch: resource-governed serving. A mixed batch — mostly
//! legitimate purchase orders, plus a few adversarial documents — goes
//! through the registry under `limits::Limits::default()`: the hostile
//! documents come back with *typed* `ResourceError`s (not crashes, not
//! unbounded work) while the clean ones validate byte-identically to an
//! ungoverned run. A second pass shows mid-batch cancellation: a
//! deadline expires while the pool is draining the queue, the remaining
//! documents are skipped with markers, and `batch_cancelled_total`
//! ticks.
//!
//! ```text
//! cargo run --release -p examples --bin hardened_batch -- [threads]
//! ```

use std::time::{Duration, Instant};

use limits::{CancelToken, Limits};
use pool::ThreadPool;
use validator::ValidationErrorKind;
use webgen::SchemaRegistry;

fn monster_depth() -> String {
    format!("{}{}", "<d>".repeat(50_000), "</d>".repeat(50_000))
}

fn monster_attrs() -> String {
    let mut doc = String::from("<purchaseOrder");
    for i in 0..100_000 {
        doc.push_str(&format!(" a{i}=\"x\""));
    }
    doc.push_str("/>");
    doc
}

fn monster_refs() -> String {
    format!("<purchaseOrder>{}</purchaseOrder>", "&amp;".repeat(50_000))
}

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("threads must be a number"))
        .unwrap_or(4);
    obs::enable();

    let registry = SchemaRegistry::with_corpus().unwrap();
    registry.get("purchase-order").unwrap().warm();
    let pool = ThreadPool::new(threads);

    // -- pass 1: hostile documents inside a legitimate batch ------------
    let clean: Vec<String> = (0..12)
        .map(|i| webgen::render_order_string(&webgen::generate_order(i, 20)))
        .collect();
    let monsters = [monster_depth(), monster_attrs(), monster_refs()];
    let mut batch: Vec<&str> = clean.iter().map(String::as_str).collect();
    for m in &monsters {
        batch.insert(4, m);
    }

    let start = Instant::now();
    let results = registry
        .validate_batch_parallel("purchase-order", &batch, &pool, &Limits::default())
        .unwrap();
    let elapsed = start.elapsed();

    let rejected: Vec<&str> = results
        .iter()
        .flatten()
        .filter_map(|e| match &e.kind {
            ValidationErrorKind::Resource(kind) => Some(kind.label()),
            _ => None,
        })
        .collect();
    let clean_ok = results.iter().filter(|errors| errors.is_empty()).count();
    println!(
        "pass 1: {} documents ({} hostile) in {elapsed:?} on {threads} threads",
        batch.len(),
        monsters.len()
    );
    println!("  valid: {clean_ok}, rejected with typed resource errors: {rejected:?}");
    assert_eq!(
        clean_ok,
        clean.len(),
        "governance must not touch clean documents"
    );
    assert_eq!(rejected.len(), monsters.len());

    // -- pass 2: a deadline expires mid-batch ---------------------------
    let big: Vec<String> = (0..256)
        .map(|i| webgen::render_order_string(&webgen::generate_order(i, 60)))
        .collect();
    let docs: Vec<&str> = big.iter().map(String::as_str).collect();
    // the clock starts at dispatch, not while the corpus renders
    let token = CancelToken::new();
    let budget = Limits::default()
        .with_deadline_in(Duration::from_millis(5))
        .with_cancel_token(&token);
    let results = registry
        .validate_batch_parallel("purchase-order", &docs, &pool, &budget)
        .unwrap();
    let skipped = results
        .iter()
        .filter(|errors| {
            errors
                .iter()
                .any(|e| matches!(e.kind, ValidationErrorKind::Resource(_)))
        })
        .count();
    println!(
        "pass 2: 5ms deadline over {} documents -> {} validated, {skipped} skipped with markers",
        docs.len(),
        docs.len() - skipped
    );

    println!();
    println!("{}", obs::metrics().render_text());
}
