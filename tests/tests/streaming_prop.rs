//! Differential property tests for the streaming validator: on any
//! well-formed document — valid, mutated, or arbitrary junk that happens
//! to parse — `validator::validate_str_streaming` and
//! `validator::validate_document` must produce the *same* error list
//! (kinds and spans), and in particular the same valid/invalid verdict.

use limits::Limits;
use proptest::prelude::*;
use schema::corpus::{PURCHASE_ORDER_XML, PURCHASE_ORDER_XSD, WML_XSD};
use schema::CompiledSchema;
use validator::{validate_document, validate_str_streaming, ValidationError, ValidationErrorKind};

fn po() -> CompiledSchema {
    CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap()
}

fn wml() -> CompiledSchema {
    CompiledSchema::parse(WML_XSD).unwrap()
}

/// Runs both validators on the same well-formed source and returns the
/// (asserted-identical) error list.
fn agree(c: &CompiledSchema, src: &str) -> Vec<ValidationError> {
    let streamed = validate_str_streaming(c, src, &Limits::default());
    let doc = xmlparse::parse_document(src).expect("well-formed input");
    let treed = validate_document(c, &doc);
    assert_eq!(streamed, treed, "validators disagree on:\n{src}");
    streamed
}

/// Purchase-order mutations, each of which individually invalidates the
/// paper's Fig. 1 document while keeping it well-formed.
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

/// WML page mutations over the rendered directory page; index 0 leaves
/// the page valid, the rest each invalidate it.
fn mutate_wml_page(page: &str, mutation: usize) -> String {
    match mutation {
        0 => page.to_string(),
        1 => page.replacen("<card", "stray text<card", 1),
        2 => page.replacen("id=\"dirs\"", "id=\"dirs\" bogus=\"x\"", 1),
        3 => page.replacen("<br/>", "<bogus/>", 1),
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated (valid) orders: both validators return no errors.
    #[test]
    fn valid_orders_agree(seed in 0u64..500, items in 0usize..15) {
        let c = po();
        let order = webgen::generate_order(seed, items);
        let xml = webgen::render_order_string(&order);
        let errors = agree(&c, &xml);
        prop_assert!(errors.is_empty(), "{errors:#?}");
    }

    /// One or two random mutations of the paper document: both
    /// validators reject it, with identical error lists.
    #[test]
    fn mutated_orders_agree(
        picks in prop::collection::vec(0usize..10, 1..3),
    ) {
        let c = po();
        let mut src = PURCHASE_ORDER_XML.to_string();
        for &pick in &picks {
            let (from, to) = PO_MUTATIONS[pick];
            src = src.replace(from, to);
        }
        let errors = agree(&c, &src);
        prop_assert!(!errors.is_empty(), "mutations {picks:?} escaped both validators");
    }

    /// Rendered WML directory pages, pristine or mutated, for arbitrary
    /// (markup-hostile) directory names: identical error lists, and the
    /// right verdict on both sides.
    #[test]
    fn wml_pages_agree(
        dirs in prop::collection::vec("[a-zA-Z0-9 <>&\"']{1,12}", 0..6),
        mutation in 0usize..4,
    ) {
        let c = wml();
        let data = webgen::DirectoryPageData {
            sub_dirs: dirs,
            current_dir: "/media/archive".into(),
            parent_dir: "/media".into(),
        };
        let page = mutate_wml_page(&webgen::render_string(&data), mutation);
        let errors = agree(&c, &page);
        prop_assert_eq!(mutation == 0, errors.is_empty(), "{:#?}", errors);
    }

    /// Arbitrary short inputs never panic either validator; when the
    /// input parses, the validators agree, and when it does not, the
    /// streaming entry point reports it as not well-formed.
    #[test]
    fn arbitrary_input_agrees_or_reports_malformed(input in ".{0,48}") {
        let c = po();
        let streamed = validate_str_streaming(&c, &input, &Limits::default());
        match xmlparse::parse_document(&input) {
            Ok(doc) => prop_assert_eq!(streamed, validate_document(&c, &doc)),
            Err(_) => prop_assert!(matches!(
                streamed.last().unwrap().kind,
                ValidationErrorKind::NotWellFormed(_)
            )),
        }
    }
}
