//! Adversarial patch battery: hostile payloads and resource floods
//! against [`validator::IncrementalValidator`].
//!
//! Every case must end one of three ways — committed with a faithful
//! serialize→reparse round trip, rejected with a *typed* error, or
//! refused by [`Limits`] with a typed `Resource` kind — and never with a
//! panic, a corrupted session document, or unbounded latency. After
//! every rejection the held document must serialize byte-identically to
//! its pre-patch form.

use limits::{Limits, ResourceErrorKind};
use schema::corpus::{PURCHASE_ORDER_XSD, WML_XSD};
use schema::CompiledSchema;
use std::time::{Duration, Instant};
use validator::{
    validate_document, validate_str_streaming, DomPatch, IncrementalValidator, NewNode, PatchError,
};

fn po_session() -> IncrementalValidator {
    let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
    let order = webgen::render_order_string(&webgen::generate_order(3, 2));
    let doc = xmlparse::parse_document(&order).unwrap();
    IncrementalValidator::new(compiled, doc, Limits::default()).unwrap()
}

fn wml_session() -> IncrementalValidator {
    let compiled = CompiledSchema::parse(WML_XSD).unwrap();
    let doc = xmlparse::parse_document(
        "<wml><card id=\"c1\" title=\"T\"><p>hello <b>bold</b> tail</p></card></wml>",
    )
    .unwrap();
    IncrementalValidator::new(compiled, doc, Limits::default()).unwrap()
}

fn snapshot(session: &IncrementalValidator) -> String {
    let doc = session.document();
    dom::serialize(doc, doc.document_node()).unwrap()
}

/// Finds the path of the first text node under the root's named child
/// chain, e.g. `text_path(&s, &["shipTo", "name"])`.
fn text_path(session: &IncrementalValidator, chain: &[&str]) -> Vec<usize> {
    let doc = session.document();
    let mut node = doc.document_node();
    let mut path = Vec::new();
    let root = doc.root_element().unwrap();
    let root_idx = doc
        .child_slice(node)
        .unwrap()
        .iter()
        .position(|&c| c == root)
        .unwrap();
    path.push(root_idx);
    node = root;
    for name in chain {
        let children = doc.child_slice(node).unwrap();
        let idx = children
            .iter()
            .position(|&c| doc.tag_name(c).map(|n| n == *name).unwrap_or(false))
            .unwrap_or_else(|| panic!("no <{name}> under the chain"));
        path.push(idx);
        node = children[idx];
    }
    // first text child
    let children = session.document().child_slice(node).unwrap();
    let idx = children
        .iter()
        .position(|&c| matches!(session.document().kind(c), Ok(dom::NodeKind::Text(_))))
        .expect("chain tail has a text child");
    path.push(idx);
    path
}

fn root_path(session: &IncrementalValidator) -> Vec<usize> {
    let doc = session.document();
    let root = doc.root_element().unwrap();
    vec![doc
        .child_slice(doc.document_node())
        .unwrap()
        .iter()
        .position(|&c| c == root)
        .unwrap()]
}

/// Markup metacharacters, `]]>`, and whitespace pathologies through
/// `SetText`: each either commits (and the serialization reparses to the
/// same value — escaping is the validator's problem, not the caller's)
/// or is rejected typed, with byte-identical rollback.
#[test]
fn hostile_text_payloads_round_trip_or_reject_typed() {
    let mut session = po_session();
    let path = text_path(&session, &["comment"]);
    let payloads: &[&str] = &[
        "]]>",
        "a < b & c > d",
        "\"quoted\" & 'apos'",
        "<![CDATA[not a cdata open]]>",
        "&amp; literal ampersand text &",
        "line\rlone carriage return",
        "line\r\ncrlf",
        "tab\tand newline\n",
        "",
        " \t\n ",
        "\u{FFFD} replacement",
        "ends with ]]",
    ];
    for payload in payloads {
        let before = snapshot(&session);
        let patch = DomPatch::SetText {
            at: path.clone(),
            text: (*payload).to_string(),
        };
        match session.apply(&patch) {
            Ok(()) => {
                // committed: the serialized form must reparse and still
                // validate cleanly, and the text must survive unmangled
                let xml = snapshot(&session);
                let reparsed = xmlparse::parse_document(&xml)
                    .unwrap_or_else(|e| panic!("{payload:?} serialized unparseable: {e}"));
                assert!(
                    validate_document(session.schema(), &reparsed).is_empty(),
                    "{payload:?} committed but round trip is invalid"
                );
            }
            Err(PatchError::Invalid(_) | PatchError::Structure(_)) => {
                assert_eq!(snapshot(&session), before, "{payload:?} rollback broken");
            }
            Err(other) => panic!("{payload:?} unexpected error class: {other}"),
        }
    }
    // control characters are never XML: typed structure rejection
    for payload in ["nul\u{0}byte", "\u{8}", "escape\u{1b}"] {
        let before = snapshot(&session);
        let err = session
            .apply(&DomPatch::SetText {
                at: path.clone(),
                text: payload.to_string(),
            })
            .unwrap_err();
        assert!(
            matches!(err, PatchError::Structure(_)),
            "{payload:?} must be a structure rejection, got {err}"
        );
        assert_eq!(snapshot(&session), before);
    }
}

/// The same hostility through attribute values.
#[test]
fn hostile_attribute_payloads_round_trip_or_reject_typed() {
    let mut session = po_session();
    let root = root_path(&session);
    for payload in ["]]>", "a\"b", "<tag>", "1999-10-20\r", "&#x41;", ""] {
        let before = snapshot(&session);
        let patch = DomPatch::SetAttr {
            at: root.clone(),
            name: "orderDate".into(),
            value: (*payload).to_string(),
        };
        match session.apply(&patch) {
            Ok(()) => {
                let xml = snapshot(&session);
                let reparsed = xmlparse::parse_document(&xml).unwrap();
                assert!(validate_document(session.schema(), &reparsed).is_empty());
            }
            Err(PatchError::Invalid(_) | PatchError::Structure(_)) => {
                assert_eq!(snapshot(&session), before, "{payload:?} rollback broken");
            }
            Err(other) => panic!("{payload:?} unexpected error class: {other}"),
        }
    }
    // `xml:*` built-ins are always permitted (parity with the full
    // validator, which skips them when undeclared) and must round-trip
    session
        .apply(&DomPatch::SetAttr {
            at: root.clone(),
            name: "xml:lang".into(),
            value: "en".into(),
        })
        .unwrap();
    let xml = snapshot(&session);
    let reparsed = xmlparse::parse_document(&xml).unwrap();
    assert!(validate_document(session.schema(), &reparsed).is_empty());
    // attribute names that are not XML names / carry namespace colons the
    // schema never declared
    for name in ["soap:mustUnderstand", "a b", "", "9lives"] {
        let before = snapshot(&session);
        let result = session.apply(&DomPatch::SetAttr {
            at: root.clone(),
            name: (*name).to_string(),
            value: "x".into(),
        });
        match result {
            Err(PatchError::Invalid(_) | PatchError::Structure(_)) => {
                assert_eq!(snapshot(&session), before, "{name:?} rollback broken");
            }
            Ok(()) => panic!("{name:?} must not be accepted as an attribute"),
            Err(other) => panic!("{name:?} unexpected error class: {other}"),
        }
    }
}

/// Wrong and wrong-namespace element QNames in inserted fragments:
/// either the fragment refuses to parse (typed `Fragment`) or the DFA
/// rejects the undeclared child (typed `Invalid`), never a panic.
#[test]
fn wrong_namespace_qnames_reject_typed() {
    let mut session = po_session();
    let root = root_path(&session);
    let fragments = [
        "<po:comment xmlns:po=\"http://other\">x</po:comment>",
        "<comment xmlns=\"http://wrong-default\">x</comment>",
        "<soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\"/>",
        "<:badname/>",
        "<xml-reserved/>",
    ];
    for xml in fragments {
        let before = snapshot(&session);
        let result = session.apply(&DomPatch::AppendChild {
            at: root.clone(),
            child: NewNode::Element {
                xml: (*xml).to_string(),
            },
        });
        match result {
            Err(PatchError::Invalid(_) | PatchError::Fragment(_) | PatchError::Structure(_)) => {
                assert_eq!(snapshot(&session), before, "{xml:?} rollback broken");
            }
            Ok(()) => panic!("{xml:?} must not validate under the purchase-order schema"),
            Err(other) => panic!("{xml:?} unexpected error class: {other}"),
        }
    }
}

/// Comments and processing instructions serialize *raw*, so the patch
/// layer must refuse the payloads that would break the serialization —
/// `--` or trailing `-` in comments, `?>` or an `xml` target in PIs.
#[test]
fn unserializable_comment_and_pi_payloads_are_structure_errors() {
    let mut session = po_session();
    let root = root_path(&session);
    let cases: &[NewNode] = &[
        NewNode::Comment("a -- b".into()),
        NewNode::Comment("ends with -".into()),
        NewNode::Pi {
            target: "xml".into(),
            data: "version=\"1.0\"".into(),
        },
        NewNode::Pi {
            target: "XML".into(),
            data: "x".into(),
        },
        NewNode::Pi {
            target: "app".into(),
            data: "breaks ?> out".into(),
        },
        NewNode::Comment("nul \u{0}".into()),
    ];
    for child in cases {
        let before = snapshot(&session);
        let err = session
            .apply(&DomPatch::AppendChild {
                at: root.clone(),
                child: child.clone(),
            })
            .unwrap_err();
        assert!(
            matches!(err, PatchError::Structure(_)),
            "{child:?} must be a structure rejection, got {err}"
        );
        assert_eq!(snapshot(&session), before, "{child:?} rollback broken");
    }
    // benign comment/PI forms DO commit anywhere (they are transparent to
    // content models)
    session
        .apply(&DomPatch::AppendChild {
            at: root.clone(),
            child: NewNode::Comment("a - b, single dashes - fine".into()),
        })
        .unwrap();
    session
        .apply(&DomPatch::AppendChild {
            at: root.clone(),
            child: NewNode::Pi {
                target: "app".into(),
                data: "k='v'".into(),
            },
        })
        .unwrap();
    let xml = snapshot(&session);
    assert!(validate_str_streaming(session.schema(), &xml, &Limits::default()).is_empty());
}

/// Occurrence overflow exactly at the DFA boundary: `comment?` is
/// maxOccurs-1, and WML `option+` inside `select` is minOccurs-1 — the
/// append/remove that crosses each boundary must flip the verdict.
#[test]
fn occurrence_overflow_at_dfa_boundary() {
    // purchase order: the corpus generator emits a comment already? build
    // from a known state: remove any comment, then add two.
    let mut session = po_session();
    let root = root_path(&session);
    let doc = session.document();
    let root_node = doc.root_element().unwrap();
    if let Some(idx) = doc
        .child_slice(root_node)
        .unwrap()
        .iter()
        .position(|&c| doc.tag_name(c).map(|n| n == "comment").unwrap_or(false))
    {
        session
            .apply(&DomPatch::RemoveChild {
                at: root.clone(),
                index: idx,
            })
            .unwrap();
    }
    let comment = NewNode::Element {
        xml: "<comment>first</comment>".into(),
    };
    // first comment: fits the optional slot (insert before <items>)
    let items_idx = {
        let doc = session.document();
        let root_node = doc.root_element().unwrap();
        doc.child_slice(root_node)
            .unwrap()
            .iter()
            .position(|&c| doc.tag_name(c).map(|n| n == "items").unwrap_or(false))
            .unwrap()
    };
    session
        .apply(&DomPatch::InsertChild {
            at: root.clone(),
            index: items_idx,
            child: comment.clone(),
        })
        .unwrap();
    // second comment: occurrence overflow, typed Invalid, rolled back
    let before = snapshot(&session);
    let err = session
        .apply(&DomPatch::InsertChild {
            at: root.clone(),
            index: items_idx,
            child: comment,
        })
        .unwrap_err();
    assert!(matches!(err, PatchError::Invalid(_)), "got {err}");
    assert_eq!(snapshot(&session), before);

    // WML: <select> requires option+ — removing the last option crosses
    // the minOccurs boundary
    let compiled = CompiledSchema::parse(WML_XSD).unwrap();
    let doc = xmlparse::parse_document(
        "<wml><card id=\"c\" title=\"t\"><p><select name=\"s\">\
         <option value=\"1\">one</option></select></p></card></wml>",
    )
    .unwrap();
    let mut session = IncrementalValidator::new(compiled, doc, Limits::default()).unwrap();
    let select_path = vec![0, 0, 0, 0];
    let before = snapshot(&session);
    let err = session
        .apply(&DomPatch::RemoveChild {
            at: select_path.clone(),
            index: 0,
        })
        .unwrap_err();
    assert!(matches!(err, PatchError::Invalid(_)), "got {err}");
    assert_eq!(snapshot(&session), before);
    // but appending a second option is fine (unbounded maxOccurs)
    session
        .apply(&DomPatch::AppendChild {
            at: select_path,
            child: NewNode::Element {
                xml: "<option value=\"2\">two</option>".into(),
            },
        })
        .unwrap();
}

/// Patch floods against `Limits`: a byte-cap refuses oversized payloads
/// with `PatchTooLarge`, a rate-cap cuts the session off with
/// `TooManyPatches`, both as typed `Resource` rejections that leave the
/// document intact — and the refusal path stays fast even under a large
/// flood.
#[test]
fn patch_floods_hit_typed_resource_limits() {
    let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
    let order = webgen::render_order_string(&webgen::generate_order(9, 2));
    let doc = xmlparse::parse_document(&order).unwrap();
    let limits = Limits::default()
        .with_max_patch_bytes(256)
        .with_max_patches(50);
    let mut session = IncrementalValidator::new(compiled, doc, limits).unwrap();
    let root = root_path(&session);

    // oversized payload: typed PatchTooLarge carrying both numbers
    let big = "x".repeat(4096);
    let before = snapshot(&session);
    let err = session
        .apply(&DomPatch::SetAttr {
            at: root.clone(),
            name: "orderDate".into(),
            value: big,
        })
        .unwrap_err();
    match err {
        PatchError::Resource(ResourceErrorKind::PatchTooLarge { limit, actual }) => {
            assert_eq!(limit, 256);
            assert!(actual >= 4096, "actual={actual}");
        }
        other => panic!("expected PatchTooLarge, got {other}"),
    }
    assert_eq!(snapshot(&session), before);

    // flood: after the 50-patch budget every further patch is refused
    // with TooManyPatches, quickly, and the document never changes
    let flood_started = Instant::now();
    let mut too_many = 0u32;
    let mut last_committed = before;
    for i in 0..2_000u32 {
        let result = session.apply(&DomPatch::SetAttr {
            at: root.clone(),
            name: "orderDate".into(),
            value: format!("1999-10-{:02}", (i % 28) + 1),
        });
        match result {
            Ok(()) => last_committed = snapshot(&session),
            Err(PatchError::Resource(ResourceErrorKind::TooManyPatches { limit })) => {
                assert_eq!(limit, 50);
                too_many += 1;
            }
            Err(other) => panic!("flood patch {i}: unexpected {other}"),
        }
    }
    assert!(too_many >= 1_900, "flood was not cut off: {too_many}");
    assert!(
        flood_started.elapsed() < Duration::from_secs(10),
        "flood handling latency unbounded: {:?}",
        flood_started.elapsed()
    );
    assert_eq!(
        snapshot(&session),
        last_committed,
        "refused flood mutated the document"
    );
    assert!(session.rejected_total() >= u64::from(too_many));

    // counters stayed coherent through the flood
    assert!(validate_document(session.schema(), session.document()).is_empty());
}

/// Path attacks: out-of-range indexes, the document node itself, paths
/// through text nodes — all typed `Structure`, never a panic.
#[test]
fn malformed_paths_are_structure_errors() {
    let mut session = wml_session();
    let before = snapshot(&session);
    let bad_paths: &[Vec<usize>] = &[
        vec![99],
        vec![0, 99],
        vec![0, 0, 0, 0, 0, 0, 0, 0],
        vec![usize::MAX],
    ];
    for at in bad_paths {
        let err = session
            .apply(&DomPatch::SetText {
                at: at.clone(),
                text: "x".into(),
            })
            .unwrap_err();
        assert!(
            matches!(err, PatchError::Structure(_)),
            "{at:?} must be structure, got {err}"
        );
    }
    // SetText on an element, SetAttr on a text node
    let err = session
        .apply(&DomPatch::SetText {
            at: vec![0],
            text: "x".into(),
        })
        .unwrap_err();
    assert!(matches!(err, PatchError::Structure(_)));
    let err = session
        .apply(&DomPatch::SetAttr {
            at: vec![0, 0, 0, 0],
            name: "a".into(),
            value: "b".into(),
        })
        .unwrap_err();
    assert!(matches!(err, PatchError::Structure(_)));
    // RemoveChild index == len
    let err = session
        .apply(&DomPatch::RemoveChild {
            at: vec![0],
            index: 999,
        })
        .unwrap_err();
    assert!(matches!(err, PatchError::Structure(_)));
    assert_eq!(
        snapshot(&session),
        before,
        "path attacks mutated the document"
    );
}

/// Malformed fragment payloads: truncated markup, doubled roots, raw
/// `<`, entity bombs — typed `Fragment` errors, document intact.
#[test]
fn malformed_fragments_are_fragment_errors() {
    let mut session = wml_session();
    let before = snapshot(&session);
    let fragments = [
        "<card id=\"x\" title=\"y\">",
        "<a/><b/>",
        "no markup at all",
        "<p>unclosed",
        "<p attr=unquoted>x</p>",
        "<!DOCTYPE p [<!ENTITY a \"&b;\"><!ENTITY b \"&a;\">]><p>&a;</p>",
        "",
    ];
    for xml in fragments {
        let err = session
            .apply(&DomPatch::AppendChild {
                at: vec![0],
                child: NewNode::Element {
                    xml: (*xml).to_string(),
                },
            })
            .unwrap_err();
        assert!(
            matches!(err, PatchError::Fragment(_) | PatchError::Structure(_)),
            "{xml:?} must be a typed fragment/structure error, got {err}"
        );
    }
    assert_eq!(snapshot(&session), before);
}
