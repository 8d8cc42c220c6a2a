//! Differential mutation battery: the incremental revalidator must be
//! *indistinguishable* from full revalidation.
//!
//! For randomly generated valid documents and random patch sequences,
//! after **every** patch:
//!
//! 1. the incremental verdict (accept, or the exact rejection error
//!    list with kinds and spans) equals running [`validate_document`]
//!    over the same tree patched independently with [`apply_unchecked`];
//! 2. an accepted patch leaves a document whose serialization passes
//!    [`validate_str_streaming`] cleanly;
//! 3. a rejected patch rolls back to a **byte-identical** serialization
//!    of the pre-patch document;
//! 4. when the serialize→reparse round trip is verdict-faithful (empty
//!    text nodes vanish and adjacent text merges on reparse, so it is
//!    not always), the streaming validator agrees on the error kinds.

use dom::{Document, NodeKind};
use limits::Limits;
use proptest::prelude::*;
use schema::corpus::{PURCHASE_ORDER_XSD, WML_XSD};
use schema::CompiledSchema;
use validator::{
    apply_unchecked, validate_document, validate_str_streaming, DomPatch, IncrementalValidator,
    NewNode, NodePath, PatchError, ValidationError,
};

// ---------------------------------------------------------------------------
// deterministic patch derivation from (op, seed) against the live tree
// ---------------------------------------------------------------------------

fn pick<T>(items: &[T], seed: u64) -> Option<&T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[(seed % items.len() as u64) as usize])
    }
}

/// All node paths in the document, bucketed by what a patch can do with
/// them. Paths are child-index chains from the document node.
struct Paths {
    texts: Vec<NodePath>,
    elements: Vec<NodePath>,
    /// parents with at least one child (targets for Remove/Replace)
    occupied: Vec<NodePath>,
}

fn collect_paths(doc: &Document) -> Paths {
    let mut paths = Paths {
        texts: Vec::new(),
        elements: Vec::new(),
        occupied: Vec::new(),
    };
    fn walk(doc: &Document, node: dom::NodeId, path: &mut NodePath, out: &mut Paths) {
        match doc.kind(node) {
            Ok(NodeKind::Text(_)) => out.texts.push(path.clone()),
            Ok(NodeKind::Element { .. }) => out.elements.push(path.clone()),
            _ => {}
        }
        if let Ok(children) = doc.child_slice(node) {
            if !children.is_empty()
                && matches!(
                    doc.kind(node),
                    Ok(NodeKind::Element { .. }) | Ok(NodeKind::Document)
                )
            {
                out.occupied.push(path.clone());
            }
            for (i, &child) in children.to_vec().iter().enumerate() {
                path.push(i);
                walk(doc, child, path, out);
                path.pop();
            }
        }
    }
    walk(doc, doc.document_node(), &mut Vec::new(), &mut paths);
    paths
}

const TEXT_POOL: &[&str] = &[
    "",
    "5",
    "99",
    "100",
    "hello world",
    "]]>",
    "939-AA",
    "1999-05-20",
    "US",
    "-3",
    "12.40",
    "not a number",
];

const ATTR_NAMES: &[&str] = &[
    "partNum",
    "orderDate",
    "country",
    "id",
    "title",
    "name",
    "align",
    "bogusAttr",
];

const ATTR_VALUES: &[&str] = &[
    "939-AA",
    "123-BC",
    "1999-05-20",
    "US",
    "not a partnum",
    "",
    "left",
    "c2",
];

fn new_node_pool() -> Vec<NewNode> {
    vec![
        NewNode::Element {
            xml: "<item partNum=\"111-AB\"><productName>Widget</productName>\
                  <quantity>3</quantity><USPrice>9.99</USPrice></item>"
                .into(),
        },
        NewNode::Element {
            xml: "<comment>generated note</comment>".into(),
        },
        NewNode::Element {
            xml: "<bogus/>".into(),
        },
        NewNode::Element {
            xml: "<shipDate>2001-01-01</shipDate>".into(),
        },
        NewNode::Element {
            xml: "<quantity>7</quantity>".into(),
        },
        NewNode::Element {
            xml: "<p>extra paragraph</p>".into(),
        },
        NewNode::Element {
            xml: "<card id=\"cx\" title=\"X\"><p>hi</p></card>".into(),
        },
        NewNode::Text("stray text".into()),
        NewNode::Text("".into()),
        NewNode::Comment("a note".into()),
        NewNode::Pi {
            target: "app".into(),
            data: "k=v".into(),
        },
    ]
}

/// Derives a concrete patch from the op selector and seed against the
/// current tree, or `None` when the tree has no viable target.
fn derive_patch(doc: &Document, op: u8, seed: u64) -> Option<DomPatch> {
    let paths = collect_paths(doc);
    let nodes = new_node_pool();
    let s2 = seed.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15;
    match op % 7 {
        0 => Some(DomPatch::SetText {
            at: pick(&paths.texts, seed)?.clone(),
            text: (*pick(TEXT_POOL, s2)?).to_string(),
        }),
        1 => Some(DomPatch::SetAttr {
            at: pick(&paths.elements, seed)?.clone(),
            name: (*pick(ATTR_NAMES, s2)?).to_string(),
            value: (*pick(ATTR_VALUES, s2 >> 7)?).to_string(),
        }),
        2 => Some(DomPatch::RemoveAttr {
            at: pick(&paths.elements, seed)?.clone(),
            name: (*pick(ATTR_NAMES, s2)?).to_string(),
        }),
        3 => Some(DomPatch::AppendChild {
            at: pick(&paths.elements, seed)?.clone(),
            child: pick(&nodes, s2)?.clone(),
        }),
        4 => {
            let at = pick(&paths.elements, seed)?.clone();
            let node = dom_node_at(doc, &at)?;
            let len = doc.child_slice(node).ok()?.len();
            Some(DomPatch::InsertChild {
                at,
                index: (s2 % (len as u64 + 1)) as usize,
                child: pick(&nodes, s2 >> 9)?.clone(),
            })
        }
        5 => {
            let at = pick(&paths.occupied, seed)?.clone();
            let node = dom_node_at(doc, &at)?;
            let len = doc.child_slice(node).ok()?.len();
            Some(DomPatch::RemoveChild {
                at,
                index: (s2 % len as u64) as usize,
            })
        }
        _ => {
            let at = pick(&paths.occupied, seed)?.clone();
            let node = dom_node_at(doc, &at)?;
            let len = doc.child_slice(node).ok()?.len();
            Some(DomPatch::ReplaceChild {
                at,
                index: (s2 % len as u64) as usize,
                child: pick(&nodes, s2 >> 11)?.clone(),
            })
        }
    }
}

fn dom_node_at(doc: &Document, path: &[usize]) -> Option<dom::NodeId> {
    let mut node = doc.document_node();
    for &i in path {
        node = *doc.child_slice(node).ok()?.get(i)?;
    }
    Some(node)
}

// ---------------------------------------------------------------------------
// the differential oracle
// ---------------------------------------------------------------------------

fn kind_label(e: &ValidationError) -> String {
    let dbg = format!("{:?}", e.kind);
    dbg.split(['(', '{', ' '])
        .next()
        .unwrap_or(&dbg)
        .to_string()
}

fn sorted_labels(errors: &[ValidationError]) -> Vec<String> {
    let mut labels: Vec<String> = errors.iter().map(kind_label).collect();
    labels.sort();
    labels.dedup();
    labels
}

/// Runs `ops` against a session over `xml`, checking every patch against
/// the three full-pass oracles. Returns (applied, rejected) for sanity.
fn run_differential(compiled: &CompiledSchema, xml: &str, ops: &[(u8, u64)]) -> (u64, u64) {
    let doc = xmlparse::parse_document(xml).expect("corpus document parses");
    let mut session = match IncrementalValidator::new(compiled.clone(), doc, Limits::default()) {
        Ok(s) => s,
        Err(errors) => panic!("generated document must start valid: {errors:?}"),
    };

    for (step, &(op, seed)) in ops.iter().enumerate() {
        let Some(patch) = derive_patch(session.document(), op, seed) else {
            continue;
        };
        let before = dom::serialize(session.document(), session.document().document_node())
            .expect("pre-patch document serializes");

        // oracle: patch an independent clone structurally, then full-pass it
        let mut clone = session.document().clone();
        let oracle = apply_unchecked(&mut clone, &patch);
        let expected: Option<Vec<ValidationError>> = match &oracle {
            Ok(()) => Some(validate_document(compiled, &clone)),
            Err(_) => None, // structurally impossible; no verdict to compare
        };

        let verdict = session.apply(&patch);
        let after = dom::serialize(session.document(), session.document().document_node())
            .expect("post-patch document serializes");

        match (&expected, &verdict) {
            (Some(errors), Ok(())) if errors.is_empty() => {
                // accepted: session tree == independently patched tree, and
                // the serialization survives the streaming validator
                let clone_xml = dom::serialize(&clone, clone.document_node()).unwrap();
                assert_eq!(after, clone_xml, "step {step}: committed trees diverge");
                let streaming = validate_str_streaming(compiled, &after, &Limits::default());
                assert!(
                    streaming.is_empty(),
                    "step {step}: committed document fails streaming validation: {streaming:?}"
                );
            }
            (Some(errors), Err(PatchError::Invalid(got))) if !errors.is_empty() => {
                assert_eq!(
                    got, errors,
                    "step {step}: incremental rejection diverges from full pass ({patch:?})"
                );
                assert_eq!(
                    after, before,
                    "step {step}: rejected patch did not roll back byte-identically"
                );
                // third oracle, where the round trip is verdict-faithful:
                // reparse the serialized patched clone; if a full pass over
                // the reparse still sees the same verdict, streaming must too
                if let Ok(clone_xml) = dom::serialize(&clone, clone.document_node()) {
                    if let Ok(reparsed) = xmlparse::parse_document(&clone_xml) {
                        let refull = validate_document(compiled, &reparsed);
                        if sorted_labels(&refull) == sorted_labels(errors) {
                            let streaming =
                                validate_str_streaming(compiled, &clone_xml, &Limits::default());
                            assert_eq!(
                                sorted_labels(&streaming),
                                sorted_labels(errors),
                                "step {step}: streaming error kinds diverge"
                            );
                        }
                    }
                }
            }
            (Some(errors), verdict) => panic!(
                "step {step}: verdict mismatch: full pass said {} but incremental said {verdict:?} \
                 for {patch:?}",
                if errors.is_empty() { "valid" } else { "invalid" },
            ),
            (None, Err(PatchError::Structure(_) | PatchError::Fragment(_))) => {
                assert_eq!(
                    after, before,
                    "step {step}: structurally rejected patch did not roll back"
                );
            }
            (None, verdict) => panic!(
                "step {step}: apply_unchecked refused {patch:?} structurally \
                 but incremental said {verdict:?}"
            ),
        }

        // the held document is valid after every patch, accepted or not
        let invariant = validate_document(compiled, session.document());
        assert!(
            invariant.is_empty(),
            "step {step}: session invariant broken: {invariant:?}"
        );
    }
    (session.applied_total(), session.rejected_total())
}

fn wml_doc(cards: usize, paras: usize) -> String {
    let mut s = String::from("<wml>");
    for c in 0..cards {
        s.push_str(&format!("<card id=\"c{c}\" title=\"Card {c}\">"));
        for p in 0..paras {
            s.push_str(&format!(
                "<p align=\"left\">para {p} <b>bold</b> tail <a href=\"#c{c}\">go</a></p>"
            ));
        }
        s.push_str("</card>");
    }
    s.push_str("</wml>");
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn purchase_order_patches_match_full_revalidation(
        doc_seed in 0u64..5_000,
        item_count in 1usize..5,
        ops in prop::collection::vec((0u8..=u8::MAX, 0u64..=u64::MAX), 1..14),
    ) {
        let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
        let order = webgen::render_order_string(&webgen::generate_order(doc_seed, item_count));
        run_differential(&compiled, &order, &ops);
    }

    #[test]
    fn wml_patches_match_full_revalidation(
        cards in 1usize..4,
        paras in 0usize..4,
        ops in prop::collection::vec((0u8..=u8::MAX, 0u64..=u64::MAX), 1..14),
    ) {
        let compiled = CompiledSchema::parse(WML_XSD).unwrap();
        run_differential(&compiled, &wml_doc(cards, paras), &ops);
    }
}

/// A fixed long adversarial sequence kept outside proptest so CI always
/// exercises a deep mixed commit/reject run with both corpora.
#[test]
fn fixed_long_sequences_stay_in_lockstep() {
    let po = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
    let wml = CompiledSchema::parse(WML_XSD).unwrap();
    let mut lcg = 0xDEAD_BEEF_u64;
    let mut ops = Vec::new();
    for _ in 0..120 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ops.push(((lcg >> 33) as u8, lcg.rotate_left(13)));
    }
    let order = webgen::render_order_string(&webgen::generate_order(7, 4));
    let (applied, rejected) = run_differential(&po, &order, &ops);
    assert!(applied > 0, "sequence never committed a patch");
    assert!(rejected > 0, "sequence never rejected a patch");
    let (applied, rejected) = run_differential(&wml, &wml_doc(2, 2), &ops);
    assert!(applied > 0, "WML sequence never committed a patch");
    assert!(rejected > 0, "WML sequence never rejected a patch");
}
