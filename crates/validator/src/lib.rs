//! Runtime validation of XML documents against a compiled schema — the
//! **baseline** the paper argues against (Sect. 2: "Invalid documents
//! usually cannot be detected until runtime requiring extensive
//! testing").
//!
//! The schema's rules live once, in the streaming core
//! ([`StreamingValidator`], module [`stream`]), which checks per element:
//!
//! * the element is declared (top level or within its parent's type);
//! * the child-element sequence matches the type's content-model DFA;
//! * character data appears only where mixed/simple content allows it;
//! * simple-typed content and every attribute value validate against
//!   their simple types (whitespace → built-in → facets);
//! * required attributes are present, `fixed` values respected, and
//!   undeclared attributes rejected (namespace declarations exempt);
//! * abstract elements and abstract types do not appear in instances.
//!
//! Every entry point feeds that core: [`validate_str_streaming`] and its
//! chunk/reader siblings with parser events, [`validate_document`] with a
//! walk over a [`dom::Document`] built by hand or by the parser, and the
//! [`IncrementalValidator`]'s patch rechecks with a walk over just the
//! edited subtree. All violations are collected (not just the first),
//! each with the source span the parser recorded, or none for
//! programmatic nodes — this is the "extensive testing at runtime" cost
//! centre measured by benches B1/B2.
//!
//! Each input shape has one entry point, and the resource budget is a
//! parameter: the three streaming functions and the
//! [`StreamingValidator`] and [`IncrementalValidator`] constructors take
//! a [`Limits`] last, so a caller wanting the defaults passes
//! [`Limits::default()`]. [`validate_document`] still runs under the
//! defaults beside [`validate_document_with_limits`], because the
//! benchmark harness calls the short name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod patch;
pub mod stream;

use dom::{Document, NodeId};
use limits::{Limits, ResourceErrorKind};
use schema::{check_value, AttrPlan, CompiledSchema, SimpleCheck};
use xmlchars::Span;

pub use error::{ValidationError, ValidationErrorKind};
pub use patch::{apply_unchecked, DomPatch, IncrementalValidator, NewNode, NodePath, PatchError};
pub use stream::{
    validate_chunks_streaming, validate_read_streaming, validate_str_streaming, StreamingValidator,
};

/// The parser-recorded span of `node`, if there is one.
///
/// Programmatically built nodes carry the sentinel default span; those are
/// reported as position-free (`None`) instead of pretending the violation
/// sits at line 1, column 1.
pub(crate) fn node_span(doc: &Document, node: NodeId) -> Option<Span> {
    doc.span(node).ok().and_then(parsed_span)
}

/// A node's recorded span as [`node_span`] reports it: `None` for the
/// default span of a programmatically built node.
pub(crate) fn parsed_span(span: Span) -> Option<Span> {
    (span != Span::default()).then_some(span)
}

/// Records a finished validation pass's error population, labeled by
/// validator mode (`tree` / `streaming` / `patch`) and error kind.
pub(crate) fn record_errors(mode: &'static str, errors: &[ValidationError]) {
    if !obs::enabled() {
        return;
    }
    let metrics = obs::metrics();
    for error in errors {
        metrics
            .counter_with(
                "validator_errors_total",
                "Schema violations found, by validator mode and error kind.",
                &[("mode", mode), ("kind", error.kind.label())],
            )
            .inc();
    }
}

/// Applies a budget's `max_errors` ceiling to a collected error list:
/// keeps the exact prefix an unbounded run produced, then appends one
/// [`ValidationErrorKind::Resource`] marker carrying the span of the
/// first suppressed error. Returns whether the cap tripped.
pub(crate) fn cap_errors(errors: &mut Vec<ValidationError>, limits: &Limits) -> bool {
    if errors.len() <= limits.max_errors {
        return false;
    }
    let kind = ResourceErrorKind::TooManyErrors {
        limit: limits.max_errors,
    };
    limits::record_trip(&kind);
    let span = errors[limits.max_errors].span;
    errors.truncate(limits.max_errors);
    errors.push(ValidationError::at_opt(
        ValidationErrorKind::Resource(kind),
        span,
    ));
    true
}

/// Validates a whole document: the root element must be declared at the
/// schema's top level. Returns all violations found (empty = valid).
///
/// Runs under [`Limits::default`], whose only ceiling that applies to an
/// already-parsed tree is `max_errors` (1000) — legitimate documents are
/// unaffected. Use [`validate_document_with_limits`] to tune it.
pub fn validate_document(compiled: &CompiledSchema, doc: &Document) -> Vec<ValidationError> {
    validate_document_with_limits(compiled, doc, &Limits::default())
}

/// [`validate_document`] under an explicit resource budget. The tree is
/// already parsed, so only the collection-side budgets apply here, with
/// the streaming path's semantics: an expired deadline or cancelled
/// token rejects the document up front (and stops the walk if it expires
/// on the way), and `max_errors` caps the list to the exact unbounded
/// prefix plus one [`ValidationErrorKind::Resource`] marker. Parse-side ceilings are
/// enforced where the tree is built
/// ([`xmlparse::parse_document_with_limits`]).
pub fn validate_document_with_limits(
    compiled: &CompiledSchema,
    doc: &Document,
    limits: &Limits,
) -> Vec<ValidationError> {
    let span = obs::span!("validate.tree");
    let (errors, tripped) = match limits.expired_kind() {
        Some(kind) => {
            limits::record_trip(&kind);
            (
                vec![ValidationError::nowhere(ValidationErrorKind::Resource(
                    kind,
                ))],
                true,
            )
        }
        None => stream::walk_document(compiled, doc, limits),
    };
    // one end-of-run clock read shared by the trace record and the
    // histogram, so the two surfaces always agree on the duration
    let elapsed = span.finish();
    if obs::enabled() {
        if let Some(elapsed) = elapsed {
            obs::metrics()
                .histogram(
                    "validator_tree_seconds",
                    "Whole-document tree validation latency.",
                    obs::DURATION_BUCKETS,
                )
                .observe_duration(elapsed);
        }
    }
    record_errors("tree", &errors);
    if tripped {
        limits::record_rejected();
    }
    errors
}

/// Convenience: `true` when [`validate_document`] finds no violations.
pub fn is_valid(compiled: &CompiledSchema, doc: &Document) -> bool {
    validate_document(compiled, doc).is_empty()
}

/// A uniform read-only view of an attribute, so the attribute checks run
/// over the parser's borrowed attributes and a tree's attribute lists
/// without collecting into an intermediate `Vec`.
pub(crate) trait AttrView {
    /// Lexical attribute name.
    fn attr_name(&self) -> &str;
    /// Normalized attribute value.
    fn attr_value(&self) -> &str;
}

impl AttrView for xmlparse::BorrowedAttribute<'_> {
    fn attr_name(&self) -> &str {
        self.name
    }
    fn attr_value(&self) -> &str {
        &self.value
    }
}

impl AttrView for dom::Attribute {
    fn attr_name(&self) -> &str {
        &self.name
    }
    fn attr_value(&self) -> &str {
        &self.value
    }
}

/// The attribute rules, checked when an element opens against its plan's
/// declared attributes: declared values validate against their resolved
/// simple types, `fixed` values must match, required attributes must be
/// present, undeclared attributes are rejected. `element` spells the
/// element's name, and runs only when an error is reported.
///
/// Namespace declarations (`xmlns`, `xmlns:*`) are never schema-validated.
/// `xml:*` attributes (`xml:lang`, `xml:space`, …) are validated when the
/// type declares them and exempt only when it does not.
pub(crate) fn check_attributes_declared<A: AttrView>(
    element: impl Fn() -> String,
    present: &[A],
    declared: &[AttrPlan],
    span: Option<Span>,
    errors: &mut Vec<ValidationError>,
) {
    for attr in present {
        let (name, value) = (attr.attr_name(), attr.attr_value());
        let plan = declared.iter().find(|a| a.decl.name == name);
        if name == "xmlns"
            || name.starts_with("xmlns:")
            || (name.starts_with("xml:") && plan.is_none())
        {
            continue;
        }
        match plan {
            Some(AttrPlan { decl, check }) => {
                if let Err(e) = check_value(check, value) {
                    errors.push(ValidationError::at_opt(
                        ValidationErrorKind::AttributeValue {
                            element: element(),
                            attribute: name.to_string(),
                            message: e.to_string(),
                        },
                        span,
                    ));
                }
                if let Some(fixed) = &decl.fixed {
                    if value != fixed {
                        errors.push(ValidationError::at_opt(
                            ValidationErrorKind::FixedAttribute {
                                element: element(),
                                attribute: name.to_string(),
                                fixed: fixed.clone(),
                                actual: value.to_string(),
                            },
                            span,
                        ));
                    }
                }
            }
            None => errors.push(ValidationError::at_opt(
                ValidationErrorKind::UndeclaredAttribute {
                    element: element(),
                    attribute: name.to_string(),
                },
                span,
            )),
        }
    }
    for AttrPlan { decl, .. } in declared {
        if decl.required && !present.iter().any(|a| a.attr_name() == decl.name) {
            errors.push(ValidationError::at_opt(
                ValidationErrorKind::MissingAttribute {
                    element: element(),
                    attribute: decl.name.clone(),
                },
                span,
            ));
        }
    }
}

/// The simple-content rule, checked when an element closes: the text
/// collected under a simple-typed element must validate against its type
/// (whitespace → built-in → facets). `element` runs only on an error.
pub(crate) fn check_simple_text(
    element: impl Fn() -> String,
    check: &SimpleCheck,
    text: &str,
    span: Option<Span>,
    errors: &mut Vec<ValidationError>,
) {
    if let Err(e) = check_value(check, text) {
        errors.push(ValidationError::at_opt(
            ValidationErrorKind::SimpleType {
                element: element(),
                message: e.to_string(),
            },
            span,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::corpus::{PURCHASE_ORDER_XML, PURCHASE_ORDER_XSD, WML_XSD};

    fn compiled() -> CompiledSchema {
        CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap()
    }

    fn po_doc() -> Document {
        xmlparse::parse_document(PURCHASE_ORDER_XML).unwrap()
    }

    #[test]
    fn paper_document_is_valid() {
        let errors = validate_document(&compiled(), &po_doc());
        assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn wrong_child_order_detected() {
        let c = compiled();
        let mut doc = po_doc();
        let root = doc.root_element().unwrap();
        // move shipTo to the end, after items
        let ship = doc.child_element_named(root, "shipTo").unwrap();
        doc.detach(ship).unwrap();
        doc.append_child(root, ship).unwrap();
        let errors = validate_document(&c, &doc);
        assert!(errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::UnexpectedChild { .. })));
    }

    #[test]
    fn missing_required_child_detected() {
        let c = compiled();
        let mut doc = po_doc();
        let root = doc.root_element().unwrap();
        let items = doc.child_element_named(root, "items").unwrap();
        doc.remove(items).unwrap();
        let errors = validate_document(&c, &doc);
        assert!(errors.iter().any(
            |e| matches!(&e.kind, ValidationErrorKind::IncompleteContent { expected, .. }
                if expected.contains(&"items".to_string()))
        ));
    }

    #[test]
    fn bad_simple_value_detected_with_position() {
        let c = compiled();
        let mut doc = po_doc();
        let root = doc.root_element().unwrap();
        let ship = doc.child_element_named(root, "shipTo").unwrap();
        let zip = doc.child_element_named(ship, "zip").unwrap();
        let text = doc.child_vec(zip).unwrap()[0];
        doc.set_text(text, "not-a-number").unwrap();
        let errors = validate_document(&c, &doc);
        assert_eq!(errors.len(), 1, "{errors:#?}");
        assert!(matches!(
            errors[0].kind,
            ValidationErrorKind::SimpleType { .. }
        ));
        assert!(errors[0].span.expect("parsed nodes carry spans").start.line > 1);
    }

    #[test]
    fn programmatic_nodes_report_no_position() {
        let c = compiled();
        let mut doc = Document::new();
        let root = doc.create_element("unknownRoot").unwrap();
        let dn = doc.document_node();
        doc.append_child(dn, root).unwrap();
        let errors = validate_document(&c, &doc);
        assert_eq!(errors[0].span, None);
        let shown = errors[0].to_string();
        assert!(shown.contains("(no source position)"), "{shown}");
        assert!(!shown.contains("1:1"), "{shown}");
    }

    #[test]
    fn parsed_nodes_display_their_position() {
        let c = compiled();
        let doc = xmlparse::parse_document("<purchaseOrder orderDate=\"bad\"/>").unwrap();
        let errors = validate_document(&c, &doc);
        let attr_err = errors
            .iter()
            .find(|e| matches!(e.kind, ValidationErrorKind::AttributeValue { .. }))
            .unwrap();
        assert!(attr_err.to_string().contains("at 1:1"), "{attr_err}");
    }

    #[test]
    fn undeclared_xml_prefixed_attribute_is_exempt() {
        // xml:lang is not declared on purchaseOrder: tolerated, like xmlns
        let c = compiled();
        let mut doc = po_doc();
        let root = doc.root_element().unwrap();
        doc.set_attribute(root, "xml:lang", "en").unwrap();
        doc.set_attribute(root, "xmlns:po", "urn:example:po")
            .unwrap();
        let errors = validate_document(&c, &doc);
        assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn declared_xml_prefixed_attribute_is_validated() {
        // a type that *declares* xml:lang as an integer must reject "en"
        let xsd = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
          <xsd:element name="note" type="noteType"/>
          <xsd:complexType name="noteType">
            <xsd:attribute name="xml:lang" type="xsd:integer" use="required"/>
          </xsd:complexType>
        </xsd:schema>"#;
        let c = CompiledSchema::parse(xsd).unwrap();
        let doc = xmlparse::parse_document("<note xml:lang=\"en\"/>").unwrap();
        let errors = validate_document(&c, &doc);
        assert!(
            errors.iter().any(|e| matches!(
                &e.kind,
                ValidationErrorKind::AttributeValue { attribute, .. } if attribute == "xml:lang"
            )),
            "{errors:#?}"
        );
        // absent declared-required xml:lang is a missing-attribute error
        let doc = xmlparse::parse_document("<note/>").unwrap();
        let errors = validate_document(&c, &doc);
        assert!(
            errors.iter().any(|e| matches!(
                &e.kind,
                ValidationErrorKind::MissingAttribute { attribute, .. } if attribute == "xml:lang"
            )),
            "{errors:#?}"
        );
    }

    #[test]
    fn bad_attribute_value_detected() {
        let c = compiled();
        let mut doc = po_doc();
        let root = doc.root_element().unwrap();
        doc.set_attribute(root, "orderDate", "yesterday").unwrap();
        let errors = validate_document(&c, &doc);
        assert!(errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::AttributeValue { .. })));
    }

    #[test]
    fn missing_required_attribute_detected() {
        let c = compiled();
        let mut doc = po_doc();
        let root = doc.root_element().unwrap();
        let items = doc.child_element_named(root, "items").unwrap();
        let item = doc.child_elements(items).next().unwrap();
        doc.remove_attribute(item, "partNum").unwrap();
        let errors = validate_document(&c, &doc);
        assert!(errors.iter().any(|e| matches!(
            &e.kind,
            ValidationErrorKind::MissingAttribute { attribute, .. } if attribute == "partNum"
        )));
    }

    #[test]
    fn fixed_attribute_enforced() {
        let c = compiled();
        let mut doc = po_doc();
        let root = doc.root_element().unwrap();
        let ship = doc.child_element_named(root, "shipTo").unwrap();
        doc.set_attribute(ship, "country", "DE").unwrap();
        let errors = validate_document(&c, &doc);
        assert!(errors.iter().any(|e| matches!(
            &e.kind,
            ValidationErrorKind::FixedAttribute { fixed, actual, .. }
                if fixed == "US" && actual == "DE"
        )));
    }

    #[test]
    fn undeclared_attribute_detected() {
        let c = compiled();
        let mut doc = po_doc();
        let root = doc.root_element().unwrap();
        doc.set_attribute(root, "bogus", "x").unwrap();
        let errors = validate_document(&c, &doc);
        assert!(errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::UndeclaredAttribute { .. })));
    }

    #[test]
    fn text_in_element_only_content_detected() {
        let c = compiled();
        let mut doc = po_doc();
        let root = doc.root_element().unwrap();
        let t = doc.create_text("stray text");
        doc.append_child(root, t).unwrap();
        let errors = validate_document(&c, &doc);
        assert!(errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::TextNotAllowed { .. })));
    }

    #[test]
    fn undeclared_root_detected() {
        let c = compiled();
        let mut doc = Document::new();
        let root = doc.create_element("unknownRoot").unwrap();
        let dn = doc.document_node();
        doc.append_child(dn, root).unwrap();
        let errors = validate_document(&c, &doc);
        assert!(matches!(
            errors[0].kind,
            ValidationErrorKind::UndeclaredRoot(_)
        ));
    }

    #[test]
    fn multiple_errors_collected() {
        let c = compiled();
        let mut doc = po_doc();
        let root = doc.root_element().unwrap();
        doc.set_attribute(root, "orderDate", "bad").unwrap();
        doc.set_attribute(root, "bogus", "x").unwrap();
        let items = doc.child_element_named(root, "items").unwrap();
        doc.remove(items).unwrap();
        let errors = validate_document(&c, &doc);
        assert!(errors.len() >= 3, "{errors:#?}");
    }

    #[test]
    fn mixed_content_allows_text() {
        let c = CompiledSchema::parse(WML_XSD).unwrap();
        let doc = xmlparse::parse_document(
            "<wml><card id=\"c\"><p>hello <b>bold</b> world<br/></p></card></wml>",
        )
        .unwrap();
        let errors = validate_document(&c, &doc);
        assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn wml_select_requires_option() {
        let c = CompiledSchema::parse(WML_XSD).unwrap();
        let doc = xmlparse::parse_document(
            "<wml><card><p><select name=\"dirs\"></select></p></card></wml>",
        )
        .unwrap();
        let errors = validate_document(&c, &doc);
        assert!(errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::IncompleteContent { .. })));
    }

    #[test]
    fn is_valid_helper() {
        assert!(is_valid(&compiled(), &po_doc()));
    }

    #[test]
    fn tree_error_cap_yields_prefix_plus_marker() {
        let c = compiled();
        let mut src = String::from("<purchaseOrder><items>");
        for _ in 0..30 {
            src.push_str("<item/>");
        }
        src.push_str("</items></purchaseOrder>");
        let doc = xmlparse::parse_document(&src).unwrap();
        let unbounded = validate_document_with_limits(&c, &doc, &Limits::unbounded());
        assert!(unbounded.len() > 20);
        let capped = validate_document_with_limits(&c, &doc, &Limits::default().with_max_errors(5));
        assert_eq!(capped.len(), 6, "{capped:#?}");
        assert_eq!(&capped[..5], &unbounded[..5]);
        let marker = capped.last().unwrap();
        assert!(matches!(
            marker.kind,
            ValidationErrorKind::Resource(ResourceErrorKind::TooManyErrors { limit: 5 })
        ));
        assert_eq!(marker.span, unbounded[5].span);
        // the default cap leaves this document untouched
        assert_eq!(validate_document(&c, &doc), unbounded);
    }

    #[test]
    fn tree_walk_pins_shapes_the_parser_never_produces() {
        let xsd = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
          <xsd:element name="r" type="R"/>
          <xsd:complexType name="R">
            <xsd:sequence>
              <xsd:element name="n" type="xsd:integer" maxOccurs="unbounded"/>
            </xsd:sequence>
          </xsd:complexType>
        </xsd:schema>"#;
        let c = CompiledSchema::parse(xsd).unwrap();
        let mut doc = Document::new();
        let add = |doc: &mut Document, parent: NodeId, node: NodeId| {
            doc.append_child(parent, node).unwrap();
            node
        };
        let dn = doc.document_node();
        let r = doc.create_element("r").unwrap();
        add(&mut doc, dn, r);
        // two adjacent text nodes in element-only content
        for text in ["x", "y"] {
            let t = doc.create_text(text);
            add(&mut doc, r, t);
        }
        // an empty text node in simple content
        let n = doc.create_element("n").unwrap();
        let n1 = add(&mut doc, r, n);
        let t = doc.create_text("");
        add(&mut doc, n1, t);
        // a comment splitting simple-content text: "1" + "2" is valid
        let n = doc.create_element("n").unwrap();
        let n2 = add(&mut doc, r, n);
        let t = doc.create_text("1");
        add(&mut doc, n2, t);
        let t = doc.create_comment("c");
        add(&mut doc, n2, t);
        let t = doc.create_text("2");
        add(&mut doc, n2, t);
        // an undeclared child inside simple content; its text still counts
        let n = doc.create_element("n").unwrap();
        let n3 = add(&mut doc, r, n);
        let t = doc.create_text("3");
        add(&mut doc, n3, t);
        let b = doc.create_element("bogus").unwrap();
        let bogus = add(&mut doc, n3, b);
        let t = doc.create_text("x");
        add(&mut doc, bogus, t);

        let nowhere = |kind| ValidationError { kind, span: None };
        let text_not_allowed = || {
            nowhere(ValidationErrorKind::TextNotAllowed {
                element: "r".into(),
            })
        };
        let not_an_integer = |lexical: &str| {
            nowhere(ValidationErrorKind::SimpleType {
                element: "n".into(),
                message: format!("\"{lexical}\" is not a valid xsd:integer (integer)"),
            })
        };
        let expected = vec![
            text_not_allowed(),
            text_not_allowed(),
            not_an_integer(""),
            nowhere(ValidationErrorKind::UnexpectedChild {
                parent: "n".into(),
                child: "bogus".into(),
                expected: Vec::new(),
            }),
            not_an_integer("3x"),
        ];
        assert_eq!(validate_document(&c, &doc), expected);
    }

    #[test]
    fn tree_rejects_up_front_on_expired_budget() {
        let c = compiled();
        let doc = po_doc();
        let token = limits::CancelToken::new();
        token.cancel();
        let errors =
            validate_document_with_limits(&c, &doc, &Limits::default().with_cancel_token(&token));
        assert_eq!(errors.len(), 1, "{errors:#?}");
        assert!(matches!(
            errors[0].kind,
            ValidationErrorKind::Resource(ResourceErrorKind::Cancelled)
        ));
        assert_eq!(errors[0].span, None);
    }
}
