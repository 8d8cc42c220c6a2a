//! A verdict table for subtrees the streaming validator cannot check:
//! undeclared children, undeclared and abstract roots, children of
//! simple-typed elements. Each row is checked four ways — whole-input
//! streaming, chunked at every byte cut, tree `validate_document`, and
//! (where the subtree can be spliced into a valid document) an
//! `IncrementalValidator` insert of the same subtree — and pins the
//! deepest nesting the streaming validator reports, skipped elements
//! included.
//!
//! These are the only skip sources: every element plan of a compiled
//! schema has a simple type to check or a content DFA to step, because
//! `CompiledSchema::new` rejects a dangling type, an ambiguous model and
//! an oversized occurrence bound.

use limits::Limits;
use schema::CompiledSchema;
use validator::{
    apply_unchecked, validate_chunks_streaming, validate_document, validate_str_streaming,
    DomPatch, IncrementalValidator, NewNode, PatchError, StreamingValidator, ValidationError,
};
use xmlparse::{BorrowedEvent, Reader};

const XSD: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="root" type="R"/>
  <xsd:element name="num" type="xsd:integer"/>
  <xsd:element name="note" type="xsd:string"/>
  <xsd:element name="head" type="xsd:string" abstract="true"/>
  <xsd:complexType name="R">
    <xsd:sequence>
      <xsd:element ref="num" minOccurs="0"/>
      <xsd:element ref="note" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>"#;

/// Inserts `fragment` as child `index` of the element at `at` in the
/// valid document `base`; the result is the row's source.
struct Insert {
    base: &'static str,
    at: &'static [usize],
    index: usize,
    fragment: &'static str,
}

struct Row {
    what: &'static str,
    src: &'static str,
    /// The error kinds' labels, in order.
    labels: &'static [&'static str],
    max_depth: usize,
    insert: Option<Insert>,
}

#[rustfmt::skip]
fn rows() -> Vec<Row> {
    vec![
        Row {
            what: "text inside an undeclared child of a simple-typed element reaches its value",
            src: "<num>1<x>2<y>y</y></x></num>",
            labels: &["UnexpectedChild", "SimpleType"],
            max_depth: 3,
            insert: Some(Insert { base: "<num>1</num>", at: &[0], index: 1, fragment: "<x>2<y>y</y></x>" }),
        },
        Row {
            what: "a simple element whose descendant text forms a valid value",
            src: "<num>12<x>3<y>4</y></x></num>",
            labels: &["UnexpectedChild"],
            max_depth: 3,
            insert: Some(Insert { base: "<num>12</num>", at: &[0], index: 1, fragment: "<x>3<y>4</y></x>" }),
        },
        Row {
            what: "non-whitespace text deep in a skip under element-only content",
            src: "<root><bogus>a<deeper>text<deepest>more</deepest></deeper>tail</bogus></root>",
            labels: &["UnexpectedChild"],
            max_depth: 4,
            insert: Some(Insert {
                base: "<root></root>",
                at: &[0],
                index: 0,
                fragment: "<bogus>a<deeper>text<deepest>more</deepest></deeper>tail</bogus>",
            }),
        },
        Row {
            what: "an undeclared root with nested children and text",
            src: "<nope>a<b>t<c>u</c></b>v<d/></nope>",
            labels: &["UndeclaredRoot"],
            max_depth: 3,
            insert: None,
        },
        Row {
            what: "an abstract root with nested children and text",
            src: "<head>a<b>t<c>u</c></b>v</head>",
            labels: &["AbstractElement"],
            max_depth: 3,
            insert: None,
        },
        Row {
            what: "a skip that ends is followed by valid siblings",
            src: "<root><bogus><z>t</z>u</bogus><note>fine</note><note>also</note></root>",
            labels: &["UnexpectedChild"],
            max_depth: 3,
            insert: Some(Insert {
                base: "<root><note>fine</note><note>also</note></root>",
                at: &[0],
                index: 0,
                fragment: "<bogus><z>t</z>u</bogus>",
            }),
        },
        Row {
            what: "after a skip ends, siblings and text are checked again",
            src: "<root><bogus><z>t</z></bogus><num>x</num><note><w>v</w></note>oops</root>",
            labels: &["UnexpectedChild", "SimpleType", "UnexpectedChild", "TextNotAllowed"],
            max_depth: 3,
            insert: None,
        },
        Row {
            what: "empty skipped elements at several depths",
            src: "<root><bogus/><num>1<e/></num></root>",
            labels: &["UnexpectedChild", "UnexpectedChild"],
            max_depth: 3,
            insert: None,
        },
    ]
}

fn labels(errors: &[ValidationError]) -> Vec<&'static str> {
    errors.iter().map(|e| e.kind.label()).collect()
}

/// Feeds `src`'s zero-copy events into one validator; returns its errors
/// and the deepest nesting it saw.
fn fed(compiled: &CompiledSchema, src: &str) -> (Vec<ValidationError>, usize) {
    let mut reader = Reader::new(src);
    let mut v = StreamingValidator::new(compiled, Limits::default());
    loop {
        match reader.next_event_borrowed().expect("well-formed row") {
            BorrowedEvent::Eof => break,
            event => v.feed(event),
        }
    }
    let depth = v.max_depth();
    assert_eq!(v.depth(), 0, "frames left open after the document");
    (v.finish(), depth)
}

#[test]
fn skipped_subtree_verdicts_agree_across_engines() {
    let compiled = CompiledSchema::parse(XSD).unwrap();
    for row in rows() {
        let what = row.what;
        let whole = validate_str_streaming(&compiled, row.src, &Limits::default());
        assert_eq!(labels(&whole), row.labels, "{what}: {whole:#?}");

        let (events, max_depth) = fed(&compiled, row.src);
        assert_eq!(events, whole, "{what}: fed events");
        assert_eq!(max_depth, row.max_depth, "{what}: max_depth");

        let bytes = row.src.as_bytes();
        for cut in 0..=bytes.len() {
            let (head, tail) = bytes.split_at(cut);
            let chunked = validate_chunks_streaming(&compiled, [head, tail], &Limits::default());
            assert_eq!(chunked, whole, "{what}: cut at byte {cut}");
        }

        let doc = xmlparse::parse_document(row.src).unwrap();
        assert_eq!(validate_document(&compiled, &doc), whole, "{what}: tree");

        if let Some(insert) = &row.insert {
            let base = xmlparse::parse_document(insert.base).unwrap();
            let mut session =
                IncrementalValidator::new(compiled.clone(), base.clone(), Limits::default())
                    .unwrap_or_else(|e| panic!("{what}: base is invalid: {e:#?}"));
            let patch = DomPatch::InsertChild {
                at: insert.at.to_vec(),
                index: insert.index,
                child: NewNode::Element {
                    xml: insert.fragment.to_string(),
                },
            };
            let Err(PatchError::Invalid(errors)) = session.apply(&patch) else {
                panic!("{what}: the insert was not rejected as invalid");
            };
            let mut patched = base;
            apply_unchecked(&mut patched, &patch).unwrap();
            let root = patched.root_element().unwrap();
            assert_eq!(
                dom::serialize(&patched, root).unwrap(),
                row.src,
                "{what}: patched tree"
            );
            assert_eq!(
                errors,
                validate_document(&compiled, &patched),
                "{what}: patch"
            );
            // the inserted nodes carry no spans, so the kinds are compared
            let kinds: Vec<_> = errors.iter().map(|e| &e.kind).collect();
            let whole_kinds: Vec<_> = whole.iter().map(|e| &e.kind).collect();
            assert_eq!(kinds, whole_kinds, "{what}: insert kinds");
        }
    }
}

#[test]
fn descendant_text_of_a_skip_reaches_the_simple_value() {
    let compiled = CompiledSchema::parse(XSD).unwrap();
    let errors = validate_str_streaming(
        &compiled,
        "<num>1<x>2<y>y</y></x></num>",
        &Limits::default(),
    );
    let message = errors[1].kind.to_string();
    assert!(message.contains("12y"), "{message}");
}
