//! **B13 — flight-recorder overhead.** The `obs::trace` recorder's
//! contract mirrors B8's: with recording off, an instrumented span site
//! pays one relaxed atomic load (`span_enabled()`) and nothing else; with
//! recording on, each span costs two ring pushes behind a thread-local
//! mutex nobody else contends, plus one wide-event sample per document.
//! This bench runs the B8 streaming-validation workload four ways:
//!
//! * `disabled`   — neither metrics nor recorder on, the shipping default;
//! * `trace`      — recorder only (ring records + wide events, no metrics);
//! * `metrics`    — metrics only, the B8 `metrics` configuration;
//! * `trace+metrics` — both, the xmldiag configuration.
//!
//! Expected shape: `disabled` within noise (<3%) of B8's `disabled`;
//! `trace` a few percent behind (two clock reads and two ring pushes per
//! span, one sampler pass per document); `trace+metrics` roughly the
//! sum of both overheads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use bench::{po_schema, wml_schema};
use limits::Limits;
use validator::validate_str_streaming;

fn configure(metrics: bool, trace: bool) {
    obs::shutdown();
    obs::trace::stop();
    if metrics {
        obs::enable();
    }
    if trace {
        // big enough that the hot loop never wraps mid-measurement
        obs::trace::start(1 << 16);
    }
    assert_eq!(obs::enabled(), metrics);
    assert_eq!(obs::trace::enabled(), trace);
}

fn trace_overhead(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("B13-trace-overhead");
    group.sample_size(20);
    let modes = [
        ("disabled", false, false),
        ("trace", false, true),
        ("metrics", true, false),
        ("trace+metrics", true, true),
    ];
    for (mode, metrics, trace) in modes {
        configure(metrics, trace);
        group.throughput(Throughput::Bytes(po_xml.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("po-streaming-{mode}"), 1000),
            &po_xml,
            |b, xml| {
                b.iter(|| black_box(validate_str_streaming(&po, xml, &Limits::default()).len()))
            },
        );
        group.throughput(Throughput::Bytes(wml_xml.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("wml-streaming-{mode}"), 512),
            &wml_xml,
            |b, xml| {
                b.iter(|| black_box(validate_str_streaming(&wml, xml, &Limits::default()).len()))
            },
        );
    }
    obs::trace::stop();
    obs::shutdown();
    group.finish();
}

criterion_group!(benches, trace_overhead);
criterion_main!(benches);
