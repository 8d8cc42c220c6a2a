//! Differential property tests for the parallel batch validator: for
//! arbitrary batches drawn from the valid/mutated purchase-order and WML
//! generators (the same strategies as `streaming_prop.rs`),
//! `SchemaRegistry::validate_batch_parallel` at 1, 2, and 8 threads
//! must return error kinds, spans, and document order **identical** to
//! the sequential `validate_batch` path.

use std::sync::OnceLock;

use limits::Limits;
use pool::ThreadPool;
use proptest::prelude::*;
use schema::corpus::PURCHASE_ORDER_XML;
use webgen::SchemaRegistry;

fn registry() -> &'static SchemaRegistry {
    static REG: OnceLock<SchemaRegistry> = OnceLock::new();
    REG.get_or_init(|| SchemaRegistry::with_corpus().unwrap())
}

/// The pools are built once: proptest runs many cases and thread spawn
/// cost would otherwise dominate.
fn pools() -> &'static [(usize, ThreadPool); 3] {
    static POOLS: OnceLock<[(usize, ThreadPool); 3]> = OnceLock::new();
    POOLS.get_or_init(|| {
        [
            (1, ThreadPool::new(1)),
            (2, ThreadPool::new(2)),
            (8, ThreadPool::new(8)),
        ]
    })
}

/// Asserts that both parallel entry points agree with the sequential
/// batch at every thread count, and returns the sequential result.
fn assert_parallel_equals_sequential(
    schema_name: &str,
    docs: &[&str],
) -> Vec<Vec<validator::ValidationError>> {
    let reg = registry();
    let budget = Limits::default();
    let sequential = reg.validate_batch(schema_name, docs, &budget).unwrap();
    for (threads, pool) in pools() {
        let parallel = reg
            .validate_batch_parallel(schema_name, docs, pool, &budget)
            .unwrap();
        assert_eq!(
            parallel, sequential,
            "validate_batch_parallel diverged at {threads} threads"
        );
    }
    sequential
}

/// Purchase-order mutations (as in `streaming_prop.rs`), each of which
/// individually invalidates the paper's Fig. 1 document while keeping it
/// well-formed.
const PO_MUTATIONS: &[(&str, &str)] = &[
    ("<zip>90952</zip>", "<zip>not a number</zip>"),
    ("partNum=\"872-AA\"", "partNum=\"oops\""),
    ("<quantity>1</quantity>", "<quantity>900</quantity>"),
    ("country=\"US\"", "country=\"DE\""),
    ("orderDate=\"1999-10-20\"", "orderDate=\"soon\""),
    ("<state>CA</state>", ""),
    ("<city>Mill Valley</city>", "<town>Mill Valley</town>"),
    ("<items>", "<items>loose text"),
    (
        "<purchaseOrder orderDate",
        "<purchaseOrder bogus=\"1\" orderDate",
    ),
    (" partNum=\"926-AA\"", ""),
];

/// One batch document: a generated valid order, or the Fig. 1 document
/// under 0–2 mutations.
fn po_document(pick: (u64, usize, Vec<usize>)) -> String {
    let (seed, items, mutations) = pick;
    if mutations.is_empty() {
        webgen::render_order_string(&webgen::generate_order(seed, items))
    } else {
        let mut src = PURCHASE_ORDER_XML.to_string();
        for m in mutations {
            let (from, to) = PO_MUTATIONS[m];
            src = src.replace(from, to);
        }
        src
    }
}

/// WML page mutations over the rendered directory page (as in
/// `streaming_prop.rs`); index 0 leaves the page valid.
fn wml_page(dirs: Vec<String>, mutation: usize) -> String {
    let data = webgen::DirectoryPageData {
        sub_dirs: dirs,
        current_dir: "/media/archive".into(),
        parent_dir: "/media".into(),
    };
    let page = webgen::render_string(&data);
    match mutation {
        0 => page,
        1 => page.replacen("<card", "stray text<card", 1),
        2 => page.replacen("id=\"dirs\"", "id=\"dirs\" bogus=\"x\"", 1),
        3 => page.replacen("<br/>", "<bogus/>", 1),
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mixed valid/mutated purchase-order batches: parallel ≡ sequential
    /// at every thread count, and each document's verdict is what its
    /// construction promised.
    #[test]
    fn po_batches_agree(
        picks in prop::collection::vec(
            (0u64..500, 0usize..8, prop::collection::vec(0usize..10, 0..3)),
            0..12,
        ),
    ) {
        let expect_valid: Vec<bool> = picks.iter().map(|p| p.2.is_empty()).collect();
        let docs: Vec<String> = picks.into_iter().map(po_document).collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let sequential = assert_parallel_equals_sequential("purchase-order", &refs);
        prop_assert_eq!(sequential.len(), refs.len());
        for (i, errors) in sequential.iter().enumerate() {
            prop_assert_eq!(
                expect_valid[i],
                errors.is_empty(),
                "doc {} verdict: {:#?}", i, errors
            );
        }
    }

    /// Rendered WML directory-page batches, pristine or mutated, for
    /// arbitrary (markup-hostile) directory names.
    #[test]
    fn wml_batches_agree(
        pages in prop::collection::vec(
            (prop::collection::vec("[a-zA-Z0-9 <>&\"']{1,12}", 0..5), 0usize..4),
            0..10,
        ),
    ) {
        let expect_valid: Vec<bool> = pages.iter().map(|p| p.1 == 0).collect();
        let docs: Vec<String> = pages
            .into_iter()
            .map(|(dirs, mutation)| wml_page(dirs, mutation))
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let sequential = assert_parallel_equals_sequential("wml", &refs);
        for (i, errors) in sequential.iter().enumerate() {
            prop_assert_eq!(
                expect_valid[i],
                errors.is_empty(),
                "page {} verdict: {:#?}", i, errors
            );
        }
    }

    /// Arbitrary short inputs (mostly not well-formed) through the
    /// parallel path: never a panic, never a divergence from sequential.
    #[test]
    fn arbitrary_batches_agree(
        inputs in prop::collection::vec(".{0,48}", 0..8),
    ) {
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        assert_parallel_equals_sequential("purchase-order", &refs);
    }
}
