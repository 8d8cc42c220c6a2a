//! `SymIndex::child_named` — the one step every engine takes to open a
//! child element — answers exactly what the two-step lookup answers:
//! the element name's symbol ([`SymIndex::sym`]), then the plan of that
//! symbol under the parent's complex type ([`SymIndex::child`]), with the
//! same symbol and the very same shared plan. It does so on every corpus
//! schema and on a type whose choice offers a thousand names, where a
//! thousand-child document also gets one verdict from the streaming,
//! chunked, tree and incremental validators.

use std::collections::BTreeSet;
use std::sync::Arc;

use limits::Limits;
use schema::corpus::{
    ADDRESS_EXTENSION_XSD, CHOICE_PO_EVOLVED_XSD, CHOICE_PO_XSD, NAMED_GROUP_XSD,
    PURCHASE_ORDER_XSD, SUBSTITUTION_XSD, WML_XSD, XHTML_XSD,
};
use schema::{BuiltinType, CompiledSchema, Schema, SymIndex, TypeDef, TypeRef};
use symbols::Sym;
use validator::{
    validate_chunks_streaming, validate_document, validate_str_streaming, DomPatch,
    IncrementalValidator, NewNode, PatchError, ValidationError,
};

const CORPUS: [(&str, &str); 8] = [
    ("purchase-order", PURCHASE_ORDER_XSD),
    ("choice-po", CHOICE_PO_XSD),
    ("choice-po-evolved", CHOICE_PO_EVOLVED_XSD),
    ("address-extension", ADDRESS_EXTENSION_XSD),
    ("substitution", SUBSTITUTION_XSD),
    ("wml", WML_XSD),
    ("named-group", NAMED_GROUP_XSD),
    ("xhtml", XHTML_XSD),
];

/// Names no corpus schema declares, as types or as elements.
const UNDECLARED: [&str; 4] = ["", "notDeclaredAnywhere", "shipto", "Items "];

fn complex_types(schema: &Schema) -> Vec<&str> {
    schema
        .types
        .iter()
        .filter(|(_, def)| matches!(def, TypeDef::Complex(_)))
        .map(|(name, _)| name.as_str())
        .collect()
}

/// Every element name the schema declares globally or mentions in a
/// content model, plus the undeclared probes.
fn element_names(schema: &Schema) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = schema.elements.keys().cloned().collect();
    for ty in complex_types(schema) {
        if let Ok(expr) = schema.content_expr(ty) {
            names.extend(expr.symbols());
        }
    }
    names.extend(UNDECLARED.iter().map(|n| n.to_string()));
    names
}

/// Asserts `child_named(parent, name)` equals `sym(name)` then
/// `child(parent, sym)`; returns whether the name resolved.
#[allow(clippy::disallowed_methods)] // the two-step lookup is the reference
fn assert_one_step(index: &SymIndex, parent: Sym, name: &str, label: &str) -> bool {
    let two_step = index
        .sym(name)
        .and_then(|sym| index.child(parent, sym).map(|plan| (sym, plan)));
    match (index.child_named(parent, name), two_step) {
        (None, None) => false,
        (Some((sym, plan)), Some((want_sym, want_plan))) => {
            assert_eq!(sym, want_sym, "{label}: symbol of {name:?}");
            assert!(
                Arc::ptr_eq(plan, want_plan),
                "{label}: {name:?} resolves to a different plan"
            );
            true
        }
        (one, two) => panic!(
            "{label}: {name:?}: one step found {}, two steps found {}",
            one.is_some(),
            two.is_some()
        ),
    }
}

#[test]
fn child_named_is_sym_then_child_on_the_corpus() {
    for (label, xsd) in CORPUS {
        let compiled = CompiledSchema::parse(xsd).unwrap();
        let schema = compiled.schema();
        let index = compiled.sym_index();
        let names = element_names(schema);
        let mut found = 0;
        for ty in complex_types(schema) {
            let parent = symbols::lookup(ty).expect("complex type names are interned");
            for name in &names {
                let label = format!("{label}: type {ty:?}");
                found += usize::from(assert_one_step(index, parent, name, &label));
            }
        }
        assert!(found > 0, "{label}: no child resolved at all");
    }
}

/// The number of elements `W`'s choice offers.
const WIDTH: usize = 1000;

/// `W` is a choice of `e0` … `e999` (even ones integers, odd ones
/// strings); `root` holds any number of `w`s of type `W`.
fn wide_xsd() -> String {
    let choice: String = (0..WIDTH)
        .map(|i| {
            let ty = if i % 2 == 0 { "integer" } else { "string" };
            format!(r#"<xsd:element name="e{i}" type="xsd:{ty}"/>"#)
        })
        .collect();
    format!(
        r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
          <xsd:element name="root" type="R"/>
          <xsd:complexType name="R">
            <xsd:sequence>
              <xsd:element name="w" type="W" minOccurs="0" maxOccurs="unbounded"/>
            </xsd:sequence>
          </xsd:complexType>
          <xsd:complexType name="W"><xsd:choice>{choice}</xsd:choice></xsd:complexType>
        </xsd:schema>"#
    )
}

/// The `i`th child of the wide document: a `w` holding `e{i}`.
fn wide_child(i: usize) -> String {
    format!("<w><e{i}>{i}</e{i}></w>")
}

/// A `root` of `WIDTH` children, each choosing a different name; child
/// 500 is `middle` when given.
fn wide_document(middle: Option<&str>) -> String {
    let children: String = (0..WIDTH)
        .map(|i| match middle {
            Some(m) if i == 500 => m.to_string(),
            _ => wide_child(i),
        })
        .collect();
    format!("<root>{children}</root>")
}

#[test]
fn a_wide_choice_resolves_every_name_as_the_two_step_lookup_did() {
    let compiled = CompiledSchema::parse(&wide_xsd()).unwrap();
    let index = compiled.sym_index();
    let wide = symbols::lookup("W").expect("type W is interned");
    for i in 0..WIDTH {
        let name = format!("e{i}");
        assert!(assert_one_step(index, wide, &name, "wide"), "{name} missed");
        let (_, plan) = index.child_named(wide, &name).unwrap();
        let want = if i % 2 == 0 {
            BuiltinType::Integer
        } else {
            BuiltinType::String
        };
        assert_eq!(plan.type_ref, TypeRef::Builtin(want), "{name}");
    }
    let misses = ["e1000", "e01", "e-1", "E1", "e", "w", "root", "e999 "];
    for name in UNDECLARED.iter().chain(&misses) {
        assert!(!assert_one_step(index, wide, name, "wide"), "{name:?} hit");
    }
    // the narrow parent next to it
    let root = symbols::lookup("R").expect("type R is interned");
    assert!(assert_one_step(index, root, "w", "root"));
    assert!(!assert_one_step(index, root, "e0", "root"));
}

fn labels(errors: &[ValidationError]) -> Vec<&'static str> {
    errors.iter().map(|e| e.kind.label()).collect()
}

#[test]
fn a_thousand_child_document_gets_one_verdict_on_every_engine() {
    let compiled = CompiledSchema::parse(&wide_xsd()).unwrap();
    let limits = Limits::default();
    let rows: [(&str, Option<&str>, &[&str]); 4] = [
        ("valid", None, &[]),
        (
            "undeclared name",
            Some("<w><e1000>1</e1000></w>"),
            &["UnexpectedChild"],
        ),
        ("bad integer", Some("<w><e6>six</e6></w>"), &["SimpleType"]),
        (
            "two choices",
            Some("<w><e1>1</e1><e3>3</e3></w>"),
            &["UnexpectedChild"],
        ),
    ];
    for (what, middle, want) in rows {
        let src = wide_document(middle);
        let whole = validate_str_streaming(&compiled, &src, &limits);
        assert_eq!(labels(&whole), want, "{what}: {whole:#?}");

        let bytes = src.as_bytes();
        for cut in (0..=bytes.len()).step_by(997) {
            let (head, tail) = bytes.split_at(cut);
            let chunked = validate_chunks_streaming(&compiled, [head, tail], &limits);
            assert_eq!(chunked, whole, "{what}: cut at byte {cut}");
        }
        let small = validate_chunks_streaming(&compiled, bytes.chunks(7), &limits);
        assert_eq!(small, whole, "{what}: 7-byte chunks");

        let doc = xmlparse::parse_document(&src).unwrap();
        assert_eq!(validate_document(&compiled, &doc), whole, "{what}: tree");

        // incremental: replace the middle child of the valid document
        let Some(middle) = middle else {
            continue;
        };
        let valid = xmlparse::parse_document(&wide_document(None)).unwrap();
        let mut session =
            IncrementalValidator::new(compiled.clone(), valid.clone(), limits.clone())
                .unwrap_or_else(|e| panic!("the valid document is invalid: {e:#?}"));
        let patch = DomPatch::ReplaceChild {
            at: vec![0],
            index: 500,
            child: NewNode::Element {
                xml: middle.to_string(),
            },
        };
        let Err(PatchError::Invalid(errors)) = session.apply(&patch) else {
            panic!("{what}: the replacement was not rejected");
        };
        // the spliced nodes carry no spans, so the kinds are compared
        let kinds: Vec<_> = errors.iter().map(|e| &e.kind).collect();
        let whole_kinds: Vec<_> = whole.iter().map(|e| &e.kind).collect();
        assert_eq!(kinds, whole_kinds, "{what}: incremental");
    }
}

#[test]
fn a_thousand_children_appended_one_by_one_stay_valid() {
    let compiled = CompiledSchema::parse(&wide_xsd()).unwrap();
    let empty = xmlparse::parse_document("<root></root>").unwrap();
    let mut session = IncrementalValidator::new(compiled, empty, Limits::default()).unwrap();
    for i in 0..WIDTH {
        let patch = DomPatch::InsertChild {
            at: vec![0],
            index: i,
            child: NewNode::Element { xml: wide_child(i) },
        };
        session
            .apply(&patch)
            .unwrap_or_else(|e| panic!("child {i}: {e:?}"));
    }
    let doc = session.document();
    let root = doc.root_element().unwrap();
    assert_eq!(dom::serialize(doc, root).unwrap(), wide_document(None));
}
