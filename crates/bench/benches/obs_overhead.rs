//! **B8 — observability overhead.** The `obs` layer's contract is that
//! an uninstrumented process pays a single relaxed atomic load per probe
//! site: instrumented code asks `obs::enabled()` once and skips every
//! clock read and registry lookup until `obs::enable()` is called. This
//! bench puts a number on that claim by running the B2b
//! streaming-validation workload (purchase-order and WML corpora) two
//! ways:
//!
//! * `disabled` — instrumentation off, the shipping default;
//! * `metrics`  — `obs::enable()`, live metrics and span timing.
//!
//! Expected shape: `disabled` within noise (<3%) of the pre-obs B2b
//! baselines recorded in EXPERIMENTS.md; `metrics` a few percent
//! behind, dominated by the terminal-flush counter updates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use bench::{po_schema, wml_schema};

fn obs_overhead(c: &mut Criterion) {
    let po = po_schema();
    let wml = wml_schema();
    let order = webgen::generate_order(17, 1000);
    let po_xml = webgen::render_order_string(&order);
    let data = webgen::DirectoryPageData {
        sub_dirs: (0..512).map(|i| format!("dir{i:04}")).collect(),
        current_dir: "/media/archive".into(),
        parent_dir: "/media".into(),
    };
    let wml_xml = webgen::render_string(&data);

    let mut group = c.benchmark_group("B8-obs-overhead");
    group.sample_size(20);
    for (mode, metrics) in [("disabled", false), ("metrics", true)] {
        if metrics {
            obs::enable();
        } else {
            obs::shutdown();
        }
        assert_eq!(obs::enabled(), metrics);
        group.throughput(Throughput::Bytes(po_xml.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("po-streaming-{mode}"), 1000),
            &po_xml,
            |b, xml| b.iter(|| black_box(validator::validate_str_streaming(&po, xml).len())),
        );
        group.throughput(Throughput::Bytes(wml_xml.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("wml-streaming-{mode}"), 512),
            &wml_xml,
            |b, xml| b.iter(|| black_box(validator::validate_str_streaming(&wml, xml).len())),
        );
    }
    obs::shutdown();
    group.finish();
}

criterion_group!(benches, obs_overhead);
criterion_main!(benches);
