//! **B9 — parallel batch validation** (group `B9-parallel-validation`).
//!
//! The compiled-DFA investment of Sect. 6 amortizes across cores: one
//! warmed `CompiledSchema` is shared by every worker of a `pool`
//! work-stealing thread pool, and a batch of rendered documents fans out
//! via `SchemaRegistry::validate_batch_parallel`. Baseline is
//! the sequential `validate_batch` over the identical batch
//! (the B2b streaming path, batched).
//!
//! Expected shape: near-linear scaling in thread count while documents
//! outnumber workers — the acceptance bar is ≥3× over sequential at 4
//! threads on both the purchase-order and WML corpora. Per-document
//! output is byte-identical to sequential at every thread count
//! (enforced by `tests/tests/parallel_prop.rs`; asserted lightly here).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use limits::Limits;
use pool::ThreadPool;
use webgen::SchemaRegistry;

const THREADS: &[usize] = &[1, 2, 4, 8];

fn corpus_registry() -> SchemaRegistry {
    let reg = SchemaRegistry::with_corpus().expect("corpus registry");
    // pay all DFA/attribute compilation before any measurement
    reg.get("purchase-order").unwrap().warm();
    reg.get("wml").unwrap().warm();
    reg
}

fn po_batch(docs: usize, items: usize) -> Vec<String> {
    (0..docs)
        .map(|i| webgen::render_order_string(&webgen::generate_order(i as u64, items)))
        .collect()
}

fn wml_batch(docs: usize, dirs: usize) -> Vec<String> {
    (0..docs)
        .map(|i| {
            webgen::render_string(&webgen::DirectoryPageData {
                sub_dirs: (0..dirs).map(|d| format!("dir{i:03}-{d:04}")).collect(),
                current_dir: "/media/archive".into(),
                parent_dir: "/media".into(),
            })
        })
        .collect()
}

fn bench_corpus(
    group: &mut criterion::BenchmarkGroup<'_>,
    reg: &SchemaRegistry,
    schema: &str,
    label: &str,
    batch: &[String],
) {
    let docs: Vec<&str> = batch.iter().map(String::as_str).collect();
    let bytes: u64 = batch.iter().map(|d| d.len() as u64).sum();
    let budget = Limits::default();
    let sequential = reg.validate_batch(schema, &docs, &budget).unwrap();
    assert!(
        sequential.iter().all(Vec::is_empty),
        "bench corpus must be valid"
    );
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function(
        BenchmarkId::new(format!("{label}-sequential"), docs.len()),
        |b| b.iter(|| black_box(reg.validate_batch(schema, &docs, &budget).unwrap().len())),
    );
    for &threads in THREADS {
        let pool = ThreadPool::new(threads);
        // identical output before we measure
        assert_eq!(
            reg.validate_batch_parallel(schema, &docs, &pool, &budget)
                .unwrap(),
            sequential
        );
        group.throughput(Throughput::Bytes(bytes));
        group.bench_function(
            BenchmarkId::new(format!("{label}-parallel"), format!("{}t", threads)),
            |b| {
                b.iter(|| {
                    black_box(
                        reg.validate_batch_parallel(schema, &docs, &pool, &budget)
                            .unwrap()
                            .len(),
                    )
                })
            },
        );
    }
}

fn parallel_validation(c: &mut Criterion) {
    let reg = corpus_registry();
    let mut group = c.benchmark_group("B9-parallel-validation");
    group.sample_size(10);
    let po = po_batch(64, 40);
    bench_corpus(&mut group, &reg, "purchase-order", "po", &po);
    let wml = wml_batch(64, 128);
    bench_corpus(&mut group, &reg, "wml", "wml", &wml);
    group.finish();
}

criterion_group!(benches, parallel_validation);
criterion_main!(benches);
