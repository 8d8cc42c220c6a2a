//! **B11 — resource-governance overhead** (group `B11-limit-overhead`).
//!
//! The `Limits` checks ride the streaming hot path (input size once,
//! depth and attribute counters per tag, an error-cap compare per
//! event), so this bench proves the governance tax on *legitimate*
//! documents: each corpus size runs three ways —
//!
//! * `*-unbounded` — `Limits::unbounded()`, the pre-governance behavior;
//! * `*-default` — `Limits::default()`, what every existing entry point
//!   now uses (the budget claim in EXPERIMENTS.md: within 2% of
//!   unbounded);
//! * `*-deadline` — default plus a far-future deadline, the worst
//!   governed case: the validator must also consult the clock at every
//!   event gate.
//!
//! Corpora: purchase orders of 1, 10, 100 and 1000 items
//! (`generate_order(17, n)`) and WML directory pages of 4, 64 and 512
//! entries, validated by `validate_str_streaming` against warmed schemas.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use bench::{po_schema, wml_schema};
use limits::Limits;
use validator::validate_str_streaming;

fn limit_overhead(c: &mut Criterion) {
    let po = po_schema();
    let wml = wml_schema();
    po.warm();
    wml.warm();
    let unbounded = Limits::unbounded();
    let default = Limits::default();
    // far enough out that it never trips, close enough to be realistic
    let deadline = Limits::default().with_deadline_in(Duration::from_secs(3600));

    let mut group = c.benchmark_group("B11-limit-overhead");
    group.sample_size(15);

    for &n in &[1usize, 10, 100, 1000] {
        let order = webgen::generate_order(17, n);
        let xml = webgen::render_order_string(&order);
        assert!(validate_str_streaming(&po, &xml, &default).is_empty());
        group.throughput(Throughput::Bytes(xml.len() as u64));
        for (tag, budget) in [
            ("po-unbounded", &unbounded),
            ("po-default", &default),
            ("po-deadline", &deadline),
        ] {
            group.bench_with_input(BenchmarkId::new(tag, n), &xml, |b, xml| {
                b.iter(|| black_box(validate_str_streaming(&po, xml, budget).len()))
            });
        }
    }
    for &n in &[4usize, 64, 512] {
        let data = webgen::DirectoryPageData {
            sub_dirs: (0..n).map(|i| format!("dir{i:04}")).collect(),
            current_dir: "/media/archive".into(),
            parent_dir: "/media".into(),
        };
        let xml = webgen::render_string(&data);
        assert!(validate_str_streaming(&wml, &xml, &default).is_empty());
        group.throughput(Throughput::Bytes(xml.len() as u64));
        for (tag, budget) in [
            ("wml-unbounded", &unbounded),
            ("wml-default", &default),
            ("wml-deadline", &deadline),
        ] {
            group.bench_with_input(BenchmarkId::new(tag, n), &xml, |b, xml| {
                b.iter(|| black_box(validate_str_streaming(&wml, xml, budget).len()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, limit_overhead);
criterion_main!(benches);
