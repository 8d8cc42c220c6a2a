//! Differential property tests for the zero-copy pipeline: the tree
//! `parse_document` builds, walked back out as events, must be
//! *identical* (names, attributes, text, spans) to the reader's borrowed
//! event stream on any input, and streaming validation over borrowed
//! events — sequential or fanned out over a thread pool — must produce
//! the same error lists as the tree validator.
//!
//! These properties are what let the reader and validator take the
//! allocation-free fast path without a correctness tax: if a byte-sweep
//! scan loop, a copy-on-write fallback or the tree builder's one copy
//! ever diverged from what the reader saw, one of these tests would
//! present the offending document.

use dom::{Document, NodeId, NodeKind};
use integration_tests::event_stream;
use limits::Limits;
use pool::ThreadPool;
use proptest::prelude::*;
use schema::corpus::{PURCHASE_ORDER_XML, PURCHASE_ORDER_XSD, WML_XSD};
use schema::CompiledSchema;
use validator::{validate_document, validate_str_streaming, ValidationError};
use webgen::SchemaRegistry;
use xmlchars::Span;
use xmlparse::BorrowedEvent;

fn po() -> CompiledSchema {
    CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap()
}

fn wml() -> CompiledSchema {
    CompiledSchema::parse(WML_XSD).unwrap()
}

/// The tokens both sides render: what a tree keeps of each event. End
/// tags carry no span and self-closing is not recorded (the tree has
/// neither), and text outside the root element is dropped.
fn start_token(name: &str, attributes: &[(&str, &str)], span: Span) -> String {
    format!("+{name} {attributes:?} @{span:?}")
}

fn text_token(prefix: &str, text: &str, span: Span) -> String {
    format!("{prefix}{text:?} @{span:?}")
}

/// The reader's borrowed stream as tokens (or the error that ended it),
/// asserting the borrow classification is sound on the way: every event
/// over an entity-free document must be fully borrowed.
fn reader_stream(src: &str) -> Result<Vec<String>, String> {
    let entity_free = !src.contains('&');
    // attribute normalization (tab/newline) is the one non-entity owner;
    // only assert when values are clean
    let clean_values = !src.contains('\t') && !src.contains('\n') && !src.contains('\r');
    let mut depth = 0usize;
    event_stream(src, |e| {
        if entity_free && clean_values {
            assert!(e.is_fully_borrowed(), "owned copy without entities: {e:?}");
        }
        match e {
            BorrowedEvent::StartElement {
                name,
                attributes,
                span,
                ..
            } => {
                depth += 1;
                let attributes: Vec<(&str, &str)> =
                    attributes.iter().map(|a| (a.name, &*a.value)).collect();
                Some(start_token(name, &attributes, *span))
            }
            BorrowedEvent::EndElement { name, .. } => {
                depth -= 1;
                Some(format!("-{name}"))
            }
            BorrowedEvent::Text { text, span } => (depth > 0).then(|| text_token("", text, *span)),
            BorrowedEvent::Comment { text, span } => Some(text_token("!", text, *span)),
            BorrowedEvent::ProcessingInstruction { target, data, span } => {
                Some(text_token(&format!("?{target} "), data, *span))
            }
            BorrowedEvent::Eof => None,
        }
    })
    .map_err(|e| e.to_string())
}

/// The tree `parse_document` builds, re-walked in document order as
/// tokens (or the parse error).
fn tree_stream(src: &str) -> Result<Vec<String>, String> {
    let doc = xmlparse::parse_document(src).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    // (node, closing) work stack; children pushed in reverse
    let mut stack: Vec<(NodeId, bool)> = Vec::new();
    let push_children = |stack: &mut Vec<(NodeId, bool)>, doc: &Document, node| {
        let children = doc.child_vec(node).unwrap();
        stack.extend(children.into_iter().rev().map(|c| (c, false)));
    };
    push_children(&mut stack, &doc, doc.document_node());
    while let Some((node, closing)) = stack.pop() {
        let span = doc.span(node).unwrap();
        match doc.kind(node).unwrap() {
            NodeKind::Element { name, .. } if closing => out.push(format!("-{name}")),
            NodeKind::Element { name, attributes } => {
                let attributes: Vec<(&str, &str)> = attributes
                    .iter()
                    .map(|a| (&*a.name, a.value.as_str()))
                    .collect();
                out.push(start_token(name, &attributes, span));
                stack.push((node, true));
                push_children(&mut stack, &doc, node);
            }
            NodeKind::Text(text) => out.push(text_token("", text, span)),
            NodeKind::Comment(text) => out.push(text_token("!", text, span)),
            NodeKind::ProcessingInstruction { target, data } => {
                out.push(text_token(&format!("?{target} "), data, span))
            }
            NodeKind::Document => unreachable!("the document node is never a child"),
        }
    }
    Ok(out)
}

/// Streaming and tree validation must agree on well-formed input; returns
/// the error list.
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

/// A batch mixing valid and mutated orders, deterministically from seeds.
fn mixed_batch(seeds: &[u64]) -> Vec<String> {
    seeds
        .iter()
        .map(|&seed| {
            if seed % 3 == 0 {
                let (from, to) = PO_MUTATIONS[(seed as usize / 3) % PO_MUTATIONS.len()];
                PURCHASE_ORDER_XML.replace(from, to)
            } else {
                let order = webgen::generate_order(seed, (seed % 7) as usize);
                webgen::render_order_string(&order)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Borrowed events ≡ the owned tree on generated (valid) orders.
    #[test]
    fn borrowed_stream_matches_owned_on_orders(seed in 0u64..500, items in 0usize..15) {
        let order = webgen::generate_order(seed, items);
        let xml = webgen::render_order_string(&order);
        prop_assert_eq!(tree_stream(&xml), reader_stream(&xml));
    }

    /// Borrowed events ≡ the owned tree on mutated paper documents.
    #[test]
    fn borrowed_stream_matches_owned_on_mutations(
        picks in prop::collection::vec(0usize..10, 1..3),
    ) {
        let mut src = PURCHASE_ORDER_XML.to_string();
        for &pick in &picks {
            let (from, to) = PO_MUTATIONS[pick];
            src = src.replace(from, to);
        }
        prop_assert_eq!(tree_stream(&src), reader_stream(&src));
    }

    /// Borrowed events ≡ the owned tree on rendered WML pages over
    /// markup-hostile directory names (entity escapes force the owned
    /// fallback — the tree must keep exactly what the reader resolved).
    #[test]
    fn borrowed_stream_matches_owned_on_wml(
        dirs in prop::collection::vec("[a-zA-Z0-9 <>&\"']{1,12}", 0..6),
    ) {
        let data = webgen::DirectoryPageData {
            sub_dirs: dirs,
            current_dir: "/media/archive".into(),
            parent_dir: "/media".into(),
        };
        let page = webgen::render_string(&data);
        prop_assert_eq!(tree_stream(&page), reader_stream(&page));
    }

    /// Borrowed events ≡ the owned tree on arbitrary inputs, including
    /// non-ASCII, controls, and malformed markup — same events *and* the
    /// same error at the same point.
    #[test]
    fn borrowed_stream_matches_owned_on_arbitrary(input in ".{0,64}") {
        prop_assert_eq!(tree_stream(&input), reader_stream(&input));
    }

    /// Streaming over borrowed events ≡ tree validation, on valid and
    /// mutated purchase orders (the zero-copy twin of streaming_prop's
    /// agreement property, now exercising the symbol-dispatch path).
    #[test]
    fn zero_copy_validation_agrees_with_tree(
        picks in prop::collection::vec(0usize..10, 0..3),
    ) {
        let c = po();
        let mut src = PURCHASE_ORDER_XML.to_string();
        for &pick in &picks {
            let (from, to) = PO_MUTATIONS[pick];
            src = src.replace(from, to);
        }
        let errors = agree(&c, &src);
        if picks.is_empty() {
            prop_assert!(errors.is_empty(), "{errors:#?}");
        }
    }

    /// Same agreement on WML pages over hostile names.
    #[test]
    fn zero_copy_validation_agrees_on_wml(
        dirs in prop::collection::vec("[a-zA-Z0-9 <>&\"']{1,12}", 0..6),
    ) {
        let c = wml();
        let data = webgen::DirectoryPageData {
            sub_dirs: dirs,
            current_dir: "/media/archive".into(),
            parent_dir: "/media".into(),
        };
        let errors = agree(&c, &webgen::render_string(&data));
        prop_assert!(errors.is_empty(), "{errors:#?}");
    }

    /// Batch validation through the registry at 1 and 8 threads: both
    /// must equal the per-document sequential truth, document by
    /// document, for batches mixing valid and invalid orders.
    #[test]
    fn parallel_batches_agree_at_one_and_eight_threads(
        seeds in prop::collection::vec(0u64..1000, 1..12),
    ) {
        let reg = SchemaRegistry::with_corpus().unwrap();
        let compiled = reg.get("purchase-order").unwrap();
        let batch = mixed_batch(&seeds);
        let docs: Vec<&str> = batch.iter().map(String::as_str).collect();
        let expected: Vec<Vec<ValidationError>> = docs
            .iter()
            .map(|d| validate_str_streaming(&compiled, d, &Limits::default()))
            .collect();
        for threads in [1, 8] {
            let pool = ThreadPool::new(threads);
            let got = reg
                .validate_batch_parallel("purchase-order", &docs, &pool, &Limits::default())
                .unwrap();
            prop_assert_eq!(&got, &expected, "thread count {}", threads);
        }
    }
}

/// The paper's own document, end to end on both paths — a deterministic
/// anchor alongside the generated cases.
#[test]
fn paper_document_identical_on_both_paths() {
    assert_eq!(
        tree_stream(PURCHASE_ORDER_XML),
        reader_stream(PURCHASE_ORDER_XML)
    );
    assert!(agree(&po(), PURCHASE_ORDER_XML).is_empty());
}
