//! **B22 — the simple-value kernel** (group `B22-value-kernel`).
//!
//! Every leaf value and attribute a validator, a compiled template or
//! V-DOM checks goes through one `SimplePlan::check`: whitespace
//! normalization, the built-in's parse, then the facets. This bench
//! times that call alone for the seven value shapes of the purchase-order
//! and WML corpora, 1000 checks per iteration, so the reported time per
//! iteration in µs reads as nanoseconds per value:
//!
//! * `quantity` — `positiveInteger` with `maxExclusive 100` ("57");
//! * `date` — `xsd:date` (`orderDate`, `shipDate`);
//! * `sku` — the `SKU` pattern `\d{3}-[A-Z]{2}` (`partNum`);
//! * `decimal` — `xsd:decimal` (`USPrice`, `zip`);
//! * `nmtoken` — `xsd:NMTOKEN` (`country`);
//! * `ncname` — `xsd:NCName` (WML `id`, `name`);
//! * `string` — `xsd:string` (names, streets, WML option values).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bench::{po_schema, wml_schema};
use schema::{BuiltinType, TypeRef};

fn value_kernel(c: &mut Criterion) {
    let po = po_schema();
    let wml = wml_schema();
    let item = po.schema().child_element_type("Items", "item").unwrap();
    let quantity = po
        .schema()
        .child_element_type(item.name(), "quantity")
        .unwrap();
    let builtin = TypeRef::Builtin;
    let shapes = [
        ("quantity", &po, quantity, "57"),
        ("date", &po, builtin(BuiltinType::Date), "1999-05-21"),
        ("sku", &po, TypeRef::Named("SKU".into()), "872-AA"),
        ("decimal", &po, builtin(BuiltinType::Decimal), "148.95"),
        ("nmtoken", &po, builtin(BuiltinType::NmToken), "US"),
        ("ncname", &wml, builtin(BuiltinType::NCName), "directories"),
        ("string", &po, builtin(BuiltinType::String), "Lawnmower"),
    ];
    let mut group = c.benchmark_group("B22-value-kernel");
    group.sample_size(30);
    for (name, compiled, type_ref, value) in shapes {
        let plan = compiled.simple_plan(&type_ref).unwrap();
        assert!(plan.check(value).is_ok(), "{name}");
        group.bench_function(format!("{name} (1000 values)"), |b| {
            b.iter(|| {
                for _ in 0..1000 {
                    black_box(plan.check(black_box(value)).is_ok());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, value_kernel);
criterion_main!(benches);
