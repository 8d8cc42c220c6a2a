//! Differential property tests for resource governance: the default
//! budget must be *invisible* on legitimate documents (byte-identical
//! error lists to an unbounded run, which is itself the pre-governance
//! behavior), and a tight budget must degrade gracefully — the governed
//! run's error list is always a prefix of the unbounded run's, ending in
//! exactly one typed `Resource` marker when a ceiling tripped.

use limits::Limits;
use pool::ThreadPool;
use proptest::prelude::*;
use schema::corpus::{PURCHASE_ORDER_XML, PURCHASE_ORDER_XSD, WML_XSD};
use schema::CompiledSchema;
use validator::{validate_str_streaming, ValidationError, ValidationErrorKind};
use webgen::SchemaRegistry;

fn po() -> CompiledSchema {
    CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap()
}

fn wml() -> CompiledSchema {
    CompiledSchema::parse(WML_XSD).unwrap()
}

/// Purchase-order mutations (the `streaming_prop.rs` table): each keeps
/// the paper's Fig. 1 document well-formed while invalidating it.
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

fn mutated_po(picks: &[usize]) -> String {
    let mut src = PURCHASE_ORDER_XML.to_string();
    for &pick in picks {
        let (from, to) = PO_MUTATIONS[pick];
        src = src.replace(from, to);
    }
    src
}

fn is_resource(e: &ValidationError) -> bool {
    matches!(e.kind, ValidationErrorKind::Resource(_))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Clean and mutated purchase orders: the default budget's error
    /// list is byte-identical to the unbounded (pre-governance) run.
    #[test]
    fn default_budget_is_invisible_on_po(
        picks in prop::collection::vec(0usize..10, 0..3),
    ) {
        let c = po();
        let src = mutated_po(&picks);
        prop_assert_eq!(
            validate_str_streaming(&c, &src, &Limits::default()),
            validate_str_streaming(&c, &src, &Limits::unbounded())
        );
    }

    /// Generated orders and rendered WML directory pages — the serving
    /// path's document classes — under default vs unbounded budgets.
    #[test]
    fn default_budget_is_invisible_on_rendered_pages(
        seed in 0u64..500,
        items in 0usize..15,
        dirs in prop::collection::vec("[a-zA-Z0-9 <>&\"']{1,12}", 0..6),
    ) {
        let c = po();
        let order = webgen::render_order_string(&webgen::generate_order(seed, items));
        prop_assert_eq!(
            validate_str_streaming(&c, &order, &Limits::default()),
            validate_str_streaming(&c, &order, &Limits::unbounded())
        );
        let c = wml();
        let page = webgen::render_string(&webgen::DirectoryPageData {
            sub_dirs: dirs,
            current_dir: "/media/archive".into(),
            parent_dir: "/media".into(),
        });
        prop_assert_eq!(
            validate_str_streaming(&c, &page, &Limits::default()),
            validate_str_streaming(&c, &page, &Limits::unbounded())
        );
    }

    /// A tight error cap returns the exact prefix of the unbounded run
    /// plus one marker — never reordered, rewritten, or over-collected.
    #[test]
    fn tight_error_cap_yields_exact_prefix(
        picks in prop::collection::vec(0usize..10, 1..3),
        cap in 0usize..6,
    ) {
        let c = po();
        let src = mutated_po(&picks);
        let unbounded = validate_str_streaming(&c, &src, &Limits::unbounded());
        let limited = validate_str_streaming(
            &c,
            &src,
            &Limits::default().with_max_errors(cap),
        );
        if unbounded.len() <= cap {
            prop_assert_eq!(limited, unbounded);
        } else {
            prop_assert_eq!(limited.len(), cap + 1);
            prop_assert_eq!(&limited[..cap], &unbounded[..cap]);
            prop_assert!(is_resource(&limited[cap]), "{:#?}", limited);
        }
    }

    /// A tight depth ceiling stops the stream early; everything
    /// collected before the trip is a prefix of the unbounded run, and
    /// the trip itself is the single trailing typed marker.
    #[test]
    fn tight_depth_yields_prefix_of_unbounded(
        picks in prop::collection::vec(0usize..10, 0..3),
        depth in 1usize..4,
    ) {
        let c = po();
        let src = mutated_po(&picks);
        let unbounded = validate_str_streaming(&c, &src, &Limits::unbounded());
        let limited = validate_str_streaming(
            &c,
            &src,
            &Limits::default().with_max_depth(depth),
        );
        if limited.iter().any(is_resource) {
            let (marker, prefix) = limited.split_last().unwrap();
            prop_assert!(is_resource(marker), "marker not last: {:#?}", limited);
            prop_assert!(prefix.iter().all(|e| !is_resource(e)));
            prop_assert!(prefix.len() <= unbounded.len());
            prop_assert_eq!(prefix, &unbounded[..prefix.len()]);
        } else {
            // deep enough for this document: the budget was invisible
            prop_assert_eq!(limited, unbounded);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The governed registry batch paths (sequential, parallel, warmed
    /// parallel) agree with each other at any thread count when the
    /// budget does not expire — governance must not change scheduling
    /// semantics.
    #[test]
    fn governed_batches_agree_across_paths(
        mutations in prop::collection::vec(0usize..4, 1..5),
        threads in 1usize..5,
    ) {
        let reg = SchemaRegistry::new();
        reg.register("wml", WML_XSD).unwrap();
        let base = webgen::render_string(&webgen::DirectoryPageData {
            sub_dirs: vec!["music".into(), "video".into()],
            current_dir: "/media".into(),
            parent_dir: "/".into(),
        });
        let docs: Vec<String> = mutations
            .iter()
            .map(|m| match m {
                0 => base.clone(),
                1 => base.replacen("<card", "stray text<card", 1),
                2 => base.replacen("id=\"dirs\"", "id=\"dirs\" bogus=\"x\"", 1),
                _ => base.replacen("<br/>", "<bogus/>", 1),
            })
            .collect();
        let docs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let budget = Limits::default().with_max_errors(2);
        let sequential = reg.validate_batch("wml", &docs, &budget).unwrap();
        let pool = ThreadPool::new(threads);
        let parallel = reg
            .validate_batch_parallel("wml", &docs, &pool, &budget)
            .unwrap();
        prop_assert_eq!(&sequential, &parallel);
        // and the unbounded batch matches the default-budget one
        let pristine = reg.validate_batch("wml", &docs, &Limits::default()).unwrap();
        let unbounded = reg
            .validate_batch("wml", &docs, &Limits::unbounded())
            .unwrap();
        prop_assert_eq!(pristine, unbounded);
    }
}
