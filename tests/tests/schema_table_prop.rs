//! `CompiledSchema`'s per-type answers agree with the raw `Schema` walks.
//!
//! The V-DOM, the P-XML checker and compiled-plan splices ask a
//! `CompiledSchema` for a type's content DFA, its effective attributes
//! and the declared type of a child element. Those answers must be the
//! ones the `Schema` computes from its components, for every complex
//! type and every element name of each corpus schema, and for names the
//! schema does not declare. Equal content models must also keep sharing
//! one interned automaton across independent compiles.

use std::collections::BTreeSet;

use automata::ContentDfa;
use schema::corpus::{
    ADDRESS_EXTENSION_XSD, CHOICE_PO_EVOLVED_XSD, CHOICE_PO_XSD, NAMED_GROUP_XSD,
    PURCHASE_ORDER_XSD, SUBSTITUTION_XSD, WML_XSD, XHTML_XSD,
};
use schema::{CompiledSchema, Schema, TypeDef};

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

/// Every type name the schema declares (simple ones included), plus the
/// undeclared probes.
fn type_names(schema: &Schema) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = schema.types.keys().cloned().collect();
    names.extend(UNDECLARED.iter().map(|n| n.to_string()));
    names
}

#[test]
fn child_element_types_match_the_schema_walk() {
    for (label, xsd) in CORPUS {
        let compiled = CompiledSchema::parse(xsd).unwrap();
        let schema = compiled.schema();
        let children = element_names(schema);
        let mut found = 0;
        for ty in type_names(schema) {
            for child in &children {
                let raw = schema.child_element_type(&ty, child);
                found += usize::from(raw.is_some());
                // asked twice: a repeated question gets the same answer
                for _ in 0..2 {
                    assert_eq!(
                        compiled.child_element_type(&ty, child),
                        raw,
                        "{label}: child {child:?} of type {ty:?}"
                    );
                }
            }
        }
        assert!(found > 0, "{label}: no declared children found");
    }
}

#[test]
fn effective_attributes_match_the_schema_walk() {
    for (label, xsd) in CORPUS {
        let compiled = CompiledSchema::parse(xsd).unwrap();
        let schema = compiled.schema();
        for ty in type_names(schema) {
            let raw = schema.effective_attributes(&ty).map_err(|e| e.to_string());
            let got = compiled
                .effective_attributes(&ty)
                .map(|uses| uses.to_vec())
                .map_err(|e| e.to_string());
            assert_eq!(
                format!("{got:?}"),
                format!("{raw:?}"),
                "{label}: effective attributes of {ty:?}"
            );
        }
    }
}

#[test]
fn content_dfa_is_ok_exactly_when_the_expression_compiles() {
    for (label, xsd) in CORPUS {
        let compiled = CompiledSchema::parse(xsd).unwrap();
        let schema = compiled.schema();
        let mut ready = 0;
        for ty in type_names(schema) {
            let raw = schema.content_expr(&ty).and_then(|expr| {
                ContentDfa::compile(&expr).map_err(|e| {
                    schema::SimpleTypeError::Unresolved(format!("content model of {ty}: {e}"))
                })
            });
            let got = compiled.content_dfa(&ty);
            assert_eq!(
                got.is_ok(),
                raw.is_ok(),
                "{label}: content DFA of {ty:?}: {got:?} vs {raw:?}"
            );
            match (got, raw) {
                (Ok(got), Ok(raw)) => {
                    ready += 1;
                    assert_eq!(got.state_count(), raw.state_count(), "{label}: {ty}");
                    assert_eq!(
                        got.transition_count(),
                        raw.transition_count(),
                        "{label}: {ty}"
                    );
                }
                (Err(got), Err(raw)) => {
                    assert_eq!(got.to_string(), raw.to_string(), "{label}: {ty}")
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(
            compiled.warm(),
            ready,
            "{label}: warm() counts the types whose DFA is ready"
        );
    }
}

#[test]
fn equal_models_share_one_automaton_across_compiles() {
    for (label, xsd) in CORPUS {
        let first = CompiledSchema::parse(xsd).unwrap();
        let second = CompiledSchema::parse(xsd).unwrap();
        second.warm();
        for ty in complex_types(first.schema()) {
            if let (Ok(a), Ok(b)) = (first.content_dfa(ty), second.content_dfa(ty)) {
                assert!(a.ptr_eq(&b), "{label}: {ty} compiled twice");
                assert!(
                    a.ptr_eq(&first.content_dfa(ty).unwrap()),
                    "{label}: {ty} changed between two asks"
                );
            }
        }
    }
}
