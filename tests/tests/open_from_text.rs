//! The session open from text against the parse and the validation it
//! stands for: `IncrementalValidator::open(compiled, src, limits)` must
//! give exactly the verdict of `xmlparse::parse_document_with_limits`
//! followed by `validator::validate_document_with_limits` — error for
//! error, kinds and spans — and, when it opens, hold the very tree the
//! parser builds. A parse failure is one position-free entry
//! (`NotWellFormed`, or a typed `Resource` for a parse-side budget), even
//! after violations.
//!
//! The rows cover valid and mutated purchase orders and WML pages,
//! documents of the other corpus schemas, malformed input (invalid then
//! malformed included), the error cap, depth and input-size budgets, and
//! a pre-expired deadline and a pre-cancelled token. A last test holds
//! the tree builder's per-parse name set linear on a document of 50,000
//! distinct names.

use std::time::{Duration, Instant};

use dom::Document;
use limits::{CancelToken, Limits};
use proptest::prelude::*;
use schema::corpus::{
    ADDRESS_EXTENSION_XSD, CHOICE_PO_EVOLVED_XSD, CHOICE_PO_XSD, NAMED_GROUP_XSD,
    PURCHASE_ORDER_XML, PURCHASE_ORDER_XSD, SUBSTITUTION_XSD, WML_XSD, XHTML_XSD,
};
use schema::CompiledSchema;
use validator::{
    validate_document_with_limits, IncrementalValidator, ValidationError, ValidationErrorKind,
};

fn schema(xsd: &str) -> CompiledSchema {
    CompiledSchema::parse(xsd).unwrap()
}

/// The open spelled out: parse, then validate the finished tree.
fn spelled_out(
    compiled: &CompiledSchema,
    src: &str,
    limits: &Limits,
) -> Result<Document, Vec<ValidationError>> {
    let doc = xmlparse::parse_document_with_limits(src, limits).map_err(|e| {
        let kind = match e.kind {
            xmlparse::ParseErrorKind::Resource(kind) => ValidationErrorKind::Resource(kind),
            _ => ValidationErrorKind::NotWellFormed(e.to_string()),
        };
        vec![ValidationError { kind, span: None }]
    })?;
    let errors = validate_document_with_limits(compiled, &doc, limits);
    if errors.is_empty() {
        Ok(doc)
    } else {
        Err(errors)
    }
}

/// Every node of `doc` in document order: kind, payload and span.
fn tree(doc: &Document) -> Vec<String> {
    doc.descendants(doc.document_node())
        .map(|n| format!("{:?} {:?}", doc.kind(n).unwrap(), doc.span(n).unwrap()))
        .collect()
}

/// Opens `src` both ways under `limits`, asserts they agree, and returns
/// the open's errors (empty when it opened).
fn agree(compiled: &CompiledSchema, src: &str, limits: &Limits) -> Vec<ValidationError> {
    let opened = IncrementalValidator::open(compiled.clone(), src, limits.clone());
    match (opened, spelled_out(compiled, src, limits)) {
        (Ok(session), Ok(doc)) => {
            assert_eq!(tree(session.document()), tree(&doc), "trees differ:\n{src}");
            Vec::new()
        }
        (Err(open), Err(spelled)) => {
            assert_eq!(open, spelled, "verdicts differ:\n{src}");
            open
        }
        (open, spelled) => panic!(
            "open {} but parse and validate {}:\n{src}",
            if open.is_ok() { "accepts" } else { "refuses" },
            if spelled.is_ok() { "accept" } else { "refuse" },
        ),
    }
}

fn labels(errors: &[ValidationError]) -> Vec<&'static str> {
    errors.iter().map(|e| e.kind.label()).collect()
}

/// Purchase-order mutations, each keeping the paper's document
/// well-formed but invalid.
const PO_MUTATIONS: &[(&str, &str)] = &[
    ("<zip>90952</zip>", "<zip>not a number</zip>"),
    ("partNum=\"872-AA\"", "partNum=\"oops\""),
    ("<quantity>1</quantity>", "<quantity>900</quantity>"),
    ("country=\"US\"", "country=\"DE\""),
    ("<state>CA</state>", ""),
    (
        "<city>Mill Valley</city>",
        "<town>Mill Valley<x><y/></x></town>",
    ),
    ("<items>", "<items>loose text"),
    (" partNum=\"926-AA\"", ""),
];

/// Markup pieces for the arbitrary-input row: PO names and others,
/// attributes, text, entities and stray delimiters.
const PIECES: &[&str] = &[
    "<purchaseOrder>",
    "</purchaseOrder>",
    "<items>",
    "</items>",
    "<item partNum=\"1-AA\">",
    "</item>",
    "<comment>",
    "</comment>",
    "<a>",
    "</a>",
    "<b k=\"v\"/>",
    "<c k='&lt;'>",
    "</c>",
    "text",
    " ",
    "&amp;",
    "&bogus;",
    "<",
    ">",
    "<!-- c -->",
    "<?pi d?>",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_orders_open(seed in 0u64..500, items in 0usize..20) {
        let xml = webgen::render_order_string(&webgen::generate_order(seed, items));
        let errors = agree(&schema(PURCHASE_ORDER_XSD), &xml, &Limits::default());
        prop_assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn mutated_orders_refuse(picks in prop::collection::vec(0..PO_MUTATIONS.len(), 1..4)) {
        let mut src = PURCHASE_ORDER_XML.to_string();
        for &pick in &picks {
            let (from, to) = PO_MUTATIONS[pick];
            src = src.replace(from, to);
        }
        let errors = agree(&schema(PURCHASE_ORDER_XSD), &src, &Limits::default());
        prop_assert!(!errors.is_empty(), "mutations {picks:?} opened");
    }

    #[test]
    fn wml_pages_open_or_refuse(
        dirs in prop::collection::vec("[a-zA-Z0-9 <>&\"']{1,12}", 0..6),
        mutation in 0usize..4,
    ) {
        let data = webgen::DirectoryPageData {
            sub_dirs: dirs,
            current_dir: "/media/archive".into(),
            parent_dir: "/media".into(),
        };
        let page = webgen::render_string(&data);
        let page = match mutation {
            0 => page,
            1 => page.replacen("<card", "stray text<card", 1),
            2 => page.replacen("id=\"dirs\"", "id=\"dirs\" bogus=\"x\"", 1),
            _ => page.replacen("<br/>", "<bogus>&amp;</bogus>", 1),
        };
        let errors = agree(&schema(WML_XSD), &page, &Limits::default());
        prop_assert_eq!(mutation == 0, errors.is_empty(), "{:#?}", errors);
    }

    /// Short runs of markup pieces, well-formed or not: never a panic,
    /// always the same verdict.
    #[test]
    fn arbitrary_markup_agrees(picks in prop::collection::vec(0..PIECES.len(), 0..12)) {
        let src: String = picks.iter().map(|&i| PIECES[i]).collect();
        agree(&schema(PURCHASE_ORDER_XSD), &src, &Limits::default());
    }
}

#[test]
fn other_corpus_schemas_agree() {
    let rows: &[(&str, &str, bool)] = &[
        (
            CHOICE_PO_XSD,
            "<purchaseOrder><singAddr country=\"US\"><name>A</name><street>S</street>\
          <city>C</city><state>CA</state><zip>1</zip></singAddr><items><item>x</item></items>\
          </purchaseOrder>",
            true,
        ),
        (
            CHOICE_PO_XSD,
            "<purchaseOrder><items/><singAddr/></purchaseOrder>",
            false,
        ),
        (
            CHOICE_PO_EVOLVED_XSD,
            "<purchaseOrder><multAddr><addr><name>A</name><street>S</street>\
          <city>C</city><state>CA</state><zip>1</zip></addr></multAddr><comment>c</comment>\
          <items/></purchaseOrder>",
            true,
        ),
        (
            CHOICE_PO_EVOLVED_XSD,
            "<purchaseOrder><multAddr/><items/></purchaseOrder>",
            false,
        ),
        (
            ADDRESS_EXTENSION_XSD,
            "<address><name>A</name><street>S</street><city>C</city>\
          </address>",
            true,
        ),
        (
            ADDRESS_EXTENSION_XSD,
            "<address><name>A</name><zip>1</zip></address>",
            false,
        ),
        (
            SUBSTITUTION_XSD,
            "<order><id>1</id><shipComment>s</shipComment>\
          <customerComment>c</customerComment><comment>x</comment></order>",
            true,
        ),
        (
            SUBSTITUTION_XSD,
            "<order><shipComment>s</shipComment></order>",
            false,
        ),
        (
            NAMED_GROUP_XSD,
            "<purchaseOrder><twoAddr>t</twoAddr><items>i</items></purchaseOrder>",
            true,
        ),
        (
            NAMED_GROUP_XSD,
            "<purchaseOrder><singAddr>s</singAddr><twoAddr>t</twoAddr>\
          </purchaseOrder>",
            false,
        ),
        (
            XHTML_XSD,
            "<html><head><title>T</title></head><body><h1>H</h1><p>a <em>b</em> \
          <a href=\"x.html\">c</a></p><ul><li>one</li></ul></body></html>",
            true,
        ),
        (
            XHTML_XSD,
            "<html><body><p><a>no href</a></p></body></html>",
            false,
        ),
    ];
    for &(xsd, src, valid) in rows {
        let errors = agree(&schema(xsd), src, &Limits::default());
        assert_eq!(errors.is_empty(), valid, "{src}: {errors:#?}");
    }
}

#[test]
fn malformed_input_reports_the_parse_error_alone() {
    let po = schema(PURCHASE_ORDER_XSD);
    let invalid_then_malformed = PURCHASE_ORDER_XML
        .replace("<zip>90952</zip>", "<zip>x</zip>")
        .replace("</purchaseOrder>", "");
    for src in [
        "",
        "no markup",
        "<purchaseOrder>",
        "<a><b></a>",
        "<purchaseOrder/><second/>",
        "<bogus><x/></bogus><",
        &invalid_then_malformed,
    ] {
        let errors = agree(&po, src, &Limits::default());
        assert_eq!(labels(&errors), ["NotWellFormed"], "{src}");
        assert_eq!(errors[0].span, None);
    }
}

#[test]
fn budgets_trip_alike() {
    let po = schema(PURCHASE_ORDER_XSD);
    let mut items = String::from("<purchaseOrder><items>");
    for _ in 0..30 {
        items.push_str("<item/>");
    }
    items.push_str("</items></purchaseOrder>");

    // the error cap: the exact prefix plus one marker
    let errors = agree(&po, &items, &Limits::default().with_max_errors(5));
    assert_eq!(errors.len(), 6);
    assert_eq!(errors[5].kind.label(), "TooManyErrors");

    // parse-side budgets: the typed trip alone, even after violations
    let deep = format!("{}{}", "<items>".repeat(12), "</items>".repeat(12));
    let depth = Limits::default().with_max_depth(8);
    let errors = agree(&po, &deep, &depth);
    assert_eq!(labels(&errors), ["DepthExceeded"]);
    let size = Limits::default().with_max_input_bytes(100);
    let errors = agree(&po, PURCHASE_ORDER_XML, &size);
    assert_eq!(labels(&errors), ["InputTooLarge"]);
}

#[test]
fn exhausted_clocks_reject_up_front_unless_the_parse_fails() {
    let po = schema(PURCHASE_ORDER_XSD);
    let token = CancelToken::new();
    token.cancel();
    for (limits, label) in [
        (
            Limits::default().with_deadline(Instant::now()),
            "DeadlineExceeded",
        ),
        (Limits::default().with_cancel_token(&token), "Cancelled"),
    ] {
        let errors = agree(&po, PURCHASE_ORDER_XML, &limits);
        assert_eq!(labels(&errors), [label]);
        assert_eq!(errors[0].span, None);
        let errors = agree(&po, "<purchaseOrder>", &limits);
        assert_eq!(labels(&errors), ["NotWellFormed"]);
    }
}

/// `<r><n0/><n1/>…</r>` with `n` children named by `name(i)`.
fn flat(n: usize, name: impl Fn(usize) -> String) -> String {
    let mut src = String::from("<r>");
    for i in 0..n {
        src.push('<');
        src.push_str(&name(i));
        src.push_str("/>");
    }
    src.push_str("</r>");
    src
}

/// The fastest of a few runs of `f`.
fn fastest(f: impl Fn()) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .unwrap()
}

/// How many times slower 50,000 distinct names may parse and open than
/// one name repeated 50,000 times in a document of the same size: each
/// new name costs one allocation and one set insertion, a constant
/// factor over a repeated name's one lookup, never a term that grows
/// with the number of names already seen.
const DISTINCT_NAMES_RATIO: f64 = 6.0;

#[test]
fn distinct_names_cost_linear_time() {
    const N: usize = 50_000;
    let distinct = flat(N, |i| format!("n{i:05}"));
    let repeated = flat(N, |_| "n00000".to_string());
    assert_eq!(distinct.len(), repeated.len());
    let po = schema(PURCHASE_ORDER_XSD);
    let run = |src: &str| {
        let doc = xmlparse::parse_document(src).unwrap();
        assert_eq!(doc.len(), N + 2);
        let errors = IncrementalValidator::open(po.clone(), src, Limits::default()).unwrap_err();
        assert_eq!(labels(&errors), ["UndeclaredRoot"]);
    };
    let (slow, base) = (fastest(|| run(&distinct)), fastest(|| run(&repeated)));
    let ratio = slow.as_secs_f64() / base.as_secs_f64();
    assert!(
        ratio <= DISTINCT_NAMES_RATIO,
        "distinct names took {slow:?}, one repeated name {base:?} ({ratio:.1}x)"
    );
}
