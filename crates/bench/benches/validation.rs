//! **B2 — incremental vs whole-document validation.** Without V-DOM, a
//! program that wants validity after every mutation must re-validate the
//! whole document each time ("extensive testing at runtime"). V-DOM's
//! incremental enforcement pays O(1) per mutation instead. We append `n`
//! items to an order under three regimes:
//!
//! * `revalidate-each` — generic DOM, full validation after every append
//!   (cost grows quadratically in `n`);
//! * `validate-once`   — generic DOM, one validation at the end (linear,
//!   but validity violations surface only at the end);
//! * `vdom-incremental` — typed appends, each checked as it happens
//!   (linear, violations surface immediately).
//!
//! Expected shape: `revalidate-each` explodes; the crossover against
//! `vdom-incremental` appears at single-digit mutation counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bench::po_schema;

fn append_items_dom(order: &webgen::Order, compiled: &schema::CompiledSchema, per_step: bool) {
    let mut doc = dom::Document::new();
    let shell = webgen::Order {
        items: Vec::new(),
        ..order.clone()
    };
    webgen::build_order_dom(&mut doc, &shell);
    let root = doc.root_element().unwrap();
    let items = doc.child_element_named(root, "items").unwrap();
    for item in &order.items {
        let el = doc.create_element("item").unwrap();
        doc.append_child(items, el).unwrap();
        doc.set_attribute(el, "partNum", item.part_num.clone())
            .unwrap();
        for (child, value) in [
            ("productName", item.product_name.clone()),
            ("quantity", item.quantity.to_string()),
            ("USPrice", item.us_price.clone()),
        ] {
            let c = doc.create_element(child).unwrap();
            doc.append_child(el, c).unwrap();
            let t = doc.create_text(value);
            doc.append_child(c, t).unwrap();
        }
        if per_step {
            assert!(validator::validate_document(compiled, &doc).is_empty());
        }
    }
    if !per_step {
        assert!(validator::validate_document(compiled, &doc).is_empty());
    }
    black_box(doc.len());
}

fn append_items_vdom(order: &webgen::Order, compiled: &schema::CompiledSchema) {
    let s = webgen::render_order_vdom(compiled, order).unwrap();
    black_box(s.len());
}

fn validation(c: &mut Criterion) {
    let compiled = po_schema();
    let mut group = c.benchmark_group("B2-validation");
    group.sample_size(15);
    for &n in &[1usize, 10, 50, 200] {
        let order = webgen::generate_order(13, n);
        group.bench_with_input(
            BenchmarkId::new("revalidate-each", n),
            &order,
            |b, order| b.iter(|| append_items_dom(order, &compiled, true)),
        );
        group.bench_with_input(BenchmarkId::new("validate-once", n), &order, |b, order| {
            b.iter(|| append_items_dom(order, &compiled, false))
        });
        group.bench_with_input(
            BenchmarkId::new("vdom-incremental", n),
            &order,
            |b, order| b.iter(|| append_items_vdom(order, &compiled)),
        );
    }
    group.finish();
}

criterion_group!(benches, validation);
criterion_main!(benches);
