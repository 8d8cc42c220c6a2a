//! Tree validation of very deep programmatic documents: the walk into the
//! streaming core keeps its own explicit stack, so nesting depth is bounded
//! by heap, not by the thread's call stack.

use dom::{Document, NodeId};
use limits::Limits;
use schema::CompiledSchema;
use validator::{
    validate_document, validate_document_with_limits, validate_str_streaming, ValidationErrorKind,
};

/// `<a>` of type `T`, whose sequence holds an optional `<a>` of type `T`.
const RECURSIVE_XSD: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="a" type="T"/>
  <xsd:complexType name="T">
    <xsd:sequence>
      <xsd:element name="a" type="T" minOccurs="0"/>
    </xsd:sequence>
    <xsd:attribute name="n" type="xsd:integer"/>
  </xsd:complexType>
</xsd:schema>"#;

/// A recursive tree walk overflows the 2 MiB test-thread stack from about
/// 1 000 levels in a debug build and about 2 500 in a release build; this
/// is twice the release figure.
const DEPTH: usize = 5_000;

/// A `depth`-long chain of `<a>` built with the `dom` API (no source
/// spans), bottom-up so each `append_child` cycle check is O(1). Returns
/// the document and the innermost element.
fn chain(depth: usize) -> (Document, NodeId) {
    let mut doc = Document::new();
    let leaf = doc.create_element("a").unwrap();
    let mut top = leaf;
    for _ in 1..depth {
        let parent = doc.create_element("a").unwrap();
        doc.append_child(parent, top).unwrap();
        top = parent;
    }
    let dn = doc.document_node();
    doc.append_child(dn, top).unwrap();
    (doc, leaf)
}

#[test]
fn deep_programmatic_chain_validates_without_overflow() {
    let compiled = CompiledSchema::parse(RECURSIVE_XSD).unwrap();
    let (mut doc, leaf) = chain(DEPTH);
    assert!(validate_document(&compiled, &doc).is_empty());
    let src = "<a>".repeat(DEPTH) + &"</a>".repeat(DEPTH);
    assert!(validate_str_streaming(&compiled, &src, &Limits::unbounded()).is_empty());

    // an error at the very bottom proves the walk reached it
    doc.set_attribute(leaf, "n", "not-a-number").unwrap();
    let errors = validate_document_with_limits(&compiled, &doc, &Limits::unbounded());
    assert_eq!(errors.len(), 1, "{errors:#?}");
    assert!(matches!(
        &errors[0].kind,
        ValidationErrorKind::AttributeValue { attribute, .. } if attribute == "n"
    ));
    assert_eq!(errors[0].span, None);
}
