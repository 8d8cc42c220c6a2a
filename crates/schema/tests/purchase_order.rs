//! End-to-end tests of the schema reader and resolution on the paper's
//! purchase-order schema (Figs. 2–3) and the Sect. 3 feature examples.

use automata::Matcher;
use schema::corpus::*;
use schema::{
    BuiltinType, CompiledSchema, ContentPlan, DerivationMethod, Facet, RootPlan, SchemaErrorKind,
    SimpleTypeError, TypeDef, TypeRef,
};

fn po() -> CompiledSchema {
    CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap()
}

#[test]
fn top_level_components_present() {
    let c = po();
    let s = c.schema();
    assert!(s.element("purchaseOrder").is_some());
    assert!(s.element("comment").is_some());
    for t in ["PurchaseOrderType", "USAddress", "Items", "SKU"] {
        assert!(s.type_def(t).is_some(), "{t}");
    }
    assert_eq!(
        s.element("purchaseOrder").unwrap().type_ref,
        TypeRef::Named("PurchaseOrderType".into())
    );
    assert_eq!(
        s.element("comment").unwrap().type_ref,
        TypeRef::Builtin(BuiltinType::String)
    );
}

#[test]
fn anonymous_item_type_lifted_with_generated_name() {
    let c = po();
    let s = c.schema();
    // the anonymous complexType inside element item gets a generated name
    let item_type = s.child_element_type("Items", "item").unwrap();
    assert!(matches!(item_type, TypeRef::Anonymous(_)));
    let def = s.type_def(item_type.name()).unwrap();
    assert!(def.is_anonymous());
    match def {
        TypeDef::Complex(ct) => {
            assert_eq!(ct.attributes.len(), 1);
            assert_eq!(ct.attributes[0].name, "partNum");
            assert!(ct.attributes[0].required);
        }
        other => panic!("{other:?}"),
    }
    // and the anonymous simple type of quantity too
    let q = s.child_element_type(item_type.name(), "quantity").unwrap();
    match s.type_def(q.name()).unwrap() {
        TypeDef::Simple(st) => {
            assert!(matches!(
                st.base,
                TypeRef::Builtin(BuiltinType::PositiveInteger)
            ));
            assert!(matches!(st.facets[0], Facet::MaxExclusive(_)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn content_dfa_of_purchase_order_type() {
    let c = po();
    let dfa = c.content_dfa("PurchaseOrderType").unwrap();
    assert!(dfa.accepts(["shipTo", "billTo", "comment", "items"]));
    assert!(dfa.accepts(["shipTo", "billTo", "items"]));
    assert!(!dfa.accepts(["billTo", "shipTo", "items"]));
    assert!(!dfa.accepts(["shipTo", "billTo"]));
}

#[test]
fn identical_content_models_intern_to_one_dfa() {
    // Two independently compiled copies of the same schema: the intern
    // table hands both the same compiled automaton.
    let a = po();
    let b = po();
    let da = a.content_dfa("PurchaseOrderType").unwrap();
    let db = b.content_dfa("PurchaseOrderType").unwrap();
    assert!(da.ptr_eq(&db), "equal models must share one automaton");
    assert!(
        std::sync::Arc::ptr_eq(&da, &db),
        "intern table returns clones of one Arc"
    );
    // distinct models stay distinct
    let items = a.content_dfa("Items").unwrap();
    assert!(!da.ptr_eq(&items));
    assert!(schema::interned_dfa_count() >= 2);
}

#[test]
fn warm_precompiles_every_complex_type() {
    let c = po();
    let ready = c.warm();
    assert!(
        ready >= 4,
        "PO schema has several complex types, got {ready}"
    );
    // idempotent: a second warm compiles nothing new
    assert_eq!(c.warm(), ready);
    // warmed lookups are table hits, not recompilations: the automaton
    // handed out is the one the root's plan already steps (a fresh
    // intern-table entry would be a different automaton)
    let index = c.sym_index();
    let Some(RootPlan::Elem(plan)) = index.root(index.sym("purchaseOrder").unwrap()) else {
        panic!("purchaseOrder is a concrete root");
    };
    let ContentPlan::Complex { dfa, .. } = &plan.content else {
        panic!("purchaseOrder has element content");
    };
    assert!(dfa.ptr_eq(&c.content_dfa("PurchaseOrderType").unwrap()));
}

#[test]
fn items_allows_zero_or_more_items() {
    let c = po();
    let dfa = c.content_dfa("Items").unwrap();
    assert!(dfa.accepts([]));
    assert!(dfa.accepts(["item", "item", "item"]));
    assert!(!dfa.accepts(["item", "shipTo"]));
}

#[test]
fn item_content_model_with_optionals() {
    let c = po();
    let item_type = c.schema().child_element_type("Items", "item").unwrap();
    let dfa = c.content_dfa(item_type.name()).unwrap();
    assert!(dfa.accepts(["productName", "quantity", "USPrice", "comment"]));
    assert!(dfa.accepts(["productName", "quantity", "USPrice", "shipDate"]));
    assert!(dfa.accepts(["productName", "quantity", "USPrice"]));
    assert!(!dfa.accepts(["productName", "USPrice", "quantity"]));
}

#[test]
fn sku_pattern_enforced() {
    let c = po();
    let sku = TypeRef::Named("SKU".into());
    assert_eq!(
        c.schema().validate_simple_value(&sku, "926-AA").unwrap(),
        "926-AA"
    );
    assert!(matches!(
        c.schema().validate_simple_value(&sku, "926-aa"),
        Err(SimpleTypeError::Facet(_))
    ));
}

#[test]
fn quantity_range_enforced_through_anonymous_type() {
    let c = po();
    let item_type = c.schema().child_element_type("Items", "item").unwrap();
    let q = c
        .schema()
        .child_element_type(item_type.name(), "quantity")
        .unwrap();
    assert!(c.schema().validate_simple_value(&q, "1").is_ok());
    assert!(c.schema().validate_simple_value(&q, " 99 ").is_ok()); // collapse
    assert!(c.schema().validate_simple_value(&q, "100").is_err());
    assert!(c.schema().validate_simple_value(&q, "0").is_err());
    assert!(c.schema().validate_simple_value(&q, "five").is_err());
}

#[test]
fn effective_attributes_of_us_address() {
    let c = po();
    let attrs = c.schema().effective_attributes("USAddress").unwrap();
    assert_eq!(attrs.len(), 1);
    assert_eq!(attrs[0].name, "country");
    assert_eq!(attrs[0].fixed.as_deref(), Some("US"));
    assert!(matches!(
        attrs[0].type_ref,
        TypeRef::Builtin(BuiltinType::NmToken)
    ));
}

#[test]
fn extension_merges_content_and_attributes() {
    let c = CompiledSchema::parse(ADDRESS_EXTENSION_XSD).unwrap();
    let s = c.schema();
    match s.type_def("USAddress").unwrap() {
        TypeDef::Complex(ct) => {
            let d = ct.derivation.as_ref().unwrap();
            assert_eq!(d.method, DerivationMethod::Extension);
            assert_eq!(d.base, "Address");
        }
        other => panic!("{other:?}"),
    }
    let dfa = c.content_dfa("USAddress").unwrap();
    // base content first, then extension content
    assert!(dfa.accepts(["name", "street", "city", "state", "zip"]));
    assert!(!dfa.accepts(["state", "zip", "name", "street", "city"]));
    assert!(!dfa.accepts(["name", "street", "city"]));
    // the base type still validates alone
    let base = c.content_dfa("Address").unwrap();
    assert!(base.accepts(["name", "street", "city"]));
}

#[test]
fn substitution_group_expands_in_content() {
    let c = CompiledSchema::parse(SUBSTITUTION_XSD).unwrap();
    let dfa = c.content_dfa("OrderType").unwrap();
    assert!(dfa.accepts(["id"]));
    assert!(dfa.accepts(["id", "comment"]));
    assert!(dfa.accepts(["id", "shipComment", "customerComment", "comment"]));
    assert!(!dfa.accepts(["id", "unrelated"]));
    // member types resolve through the head's reference
    let t = c
        .schema()
        .child_element_type("OrderType", "shipComment")
        .unwrap();
    assert!(matches!(t, TypeRef::Builtin(BuiltinType::String)));
}

#[test]
fn named_group_inlined() {
    let c = CompiledSchema::parse(NAMED_GROUP_XSD).unwrap();
    let dfa = c.content_dfa("PurchaseOrderType").unwrap();
    assert!(dfa.accepts(["singAddr", "comment", "items"]));
    assert!(dfa.accepts(["twoAddr", "items"]));
    assert!(!dfa.accepts(["singAddr", "twoAddr", "items"]));
}

#[test]
fn wml_mixed_content_and_enumeration() {
    let c = CompiledSchema::parse(WML_XSD).unwrap();
    let s = c.schema();
    assert!(c.allows_text(&TypeRef::Named("PType".into())));
    assert!(!c.allows_text(&TypeRef::Named("CardType".into())));
    let align = TypeRef::Named("AlignType".into());
    assert!(s.validate_simple_value(&align, "center").is_ok());
    assert!(s.validate_simple_value(&align, "justify").is_err());
    let dfa = c.content_dfa("PType").unwrap();
    assert!(dfa.accepts(["b", "br", "select", "a", "em"]));
    assert!(dfa.accepts([]));
}

#[test]
fn incremental_matcher_reports_expected() {
    let c = po();
    let dfa = c.content_dfa("PurchaseOrderType").unwrap();
    let mut m = dfa.start();
    m.step("shipTo").unwrap();
    m.step("billTo").unwrap();
    assert_eq!(m.expected(), ["comment", "items"]);
    let err = m.step("shipTo").unwrap_err();
    assert_eq!(err.expected, ["comment", "items"]);
}

/// Wraps component declarations in an `xsd:schema` element.
fn xsd(body: &str) -> String {
    format!(r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">{body}</xsd:schema>"#)
}

/// The variant name of a schema error kind, as `Debug` spells it.
fn kind_name(kind: &SchemaErrorKind) -> String {
    let debug = format!("{kind:?}");
    debug
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap()
        .to_string()
}

#[test]
fn bad_schemas_rejected() {
    // (what, schema text, error kind, exact Display of the error)
    let optional_then_required = r#"<xsd:complexType name="T">
          <xsd:sequence>
            <xsd:element name="a" type="xsd:string" minOccurs="0"/>
            <xsd:element name="a" type="xsd:string"/>
          </xsd:sequence>
        </xsd:complexType>"#;
    let rows: Vec<(&str, String, &str, &str)> = vec![
        (
            "dangling type reference",
            xsd(r#"<xsd:element name="a" type="Nope"/>"#),
            "UnresolvedReference",
            r#"reference to undeclared type "Nope" at 1:1"#,
        ),
        (
            "ambiguous complex type that no element uses: a?, a",
            xsd(optional_then_required),
            "Ambiguous",
            r#"content model violates unique particle attribution: element "a" is matched by competing particles #0 and #1 at 1:1"#,
        ),
        (
            // failed compiles are not cached: the same model, met again in
            // a second schema, is rejected again
            "the same model in a second schema, where an element uses it",
            xsd(&format!(
                r#"<xsd:element name="r" type="T"/>{optional_then_required}"#
            )),
            "Ambiguous",
            r#"content model violates unique particle attribution: element "a" is matched by competing particles #0 and #1 at 1:1"#,
        ),
        (
            "choice of two equal particles: (a | a)",
            xsd(r#"<xsd:element name="r" type="T"/>
                <xsd:complexType name="T">
                  <xsd:choice>
                    <xsd:element name="a" type="xsd:string"/>
                    <xsd:element name="a" type="xsd:int"/>
                  </xsd:choice>
                </xsd:complexType>"#),
            "Ambiguous",
            r#"content model violates unique particle attribution: element "a" is matched by competing particles #0 and #1 at 1:1"#,
        ),
        (
            "extension whose merged model is ambiguous: base a?, extension a",
            xsd(r#"<xsd:complexType name="Base">
                  <xsd:sequence>
                    <xsd:element name="a" type="xsd:string" minOccurs="0"/>
                  </xsd:sequence>
                </xsd:complexType>
                <xsd:complexType name="Derived">
                  <xsd:complexContent>
                    <xsd:extension base="Base">
                      <xsd:sequence><xsd:element name="a" type="xsd:string"/></xsd:sequence>
                    </xsd:extension>
                  </xsd:complexContent>
                </xsd:complexType>"#),
            "Ambiguous",
            r#"content model violates unique particle attribution: element "a" is matched by competing particles #0 and #1 at 1:1"#,
        ),
        (
            "ambiguity reached through a group reference",
            xsd(r#"<xsd:group name="G">
                  <xsd:sequence>
                    <xsd:element name="a" type="xsd:string" minOccurs="0"/>
                  </xsd:sequence>
                </xsd:group>
                <xsd:complexType name="T">
                  <xsd:sequence>
                    <xsd:group ref="G"/>
                    <xsd:element name="a" type="xsd:string"/>
                  </xsd:sequence>
                </xsd:complexType>"#),
            "Ambiguous",
            r#"content model violates unique particle attribution: element "a" is matched by competing particles #0 and #1 at 1:1"#,
        ),
        (
            "occurrence bound beyond the expansion limit",
            xsd(r#"<xsd:complexType name="T">
                  <xsd:sequence>
                    <xsd:element name="a" type="xsd:string" maxOccurs="5000"/>
                  </xsd:sequence>
                </xsd:complexType>"#),
            "BadOccurs",
            r#"invalid occurrence bound "maxOccurs=5000 too large for DFA construction" at 1:1"#,
        ),
        (
            "wildcard",
            xsd(
                r#"<xsd:complexType name="T"><xsd:sequence><xsd:any/></xsd:sequence></xsd:complexType>"#,
            ),
            "Unsupported",
            "unsupported schema feature wildcards (xsd:any) at 1:98",
        ),
        (
            "list simple type",
            xsd(r#"<xsd:simpleType name="S"><xsd:list itemType="xsd:string"/></xsd:simpleType>"#),
            "Unsupported",
            "unsupported schema feature simple-type variety (list) at 1:83",
        ),
        (
            "not a schema at all",
            "<html/>".to_string(),
            "NotASchema",
            "root element is not xsd:schema at 1:1",
        ),
        (
            "derivation cycle",
            xsd(r#"<xsd:complexType name="A">
                  <xsd:complexContent><xsd:extension base="B"/></xsd:complexContent>
                </xsd:complexType>
                <xsd:complexType name="B">
                  <xsd:complexContent><xsd:extension base="A"/></xsd:complexContent>
                </xsd:complexType>"#),
            "BadDerivation",
            r#"invalid derivation: derivation cycle through "A" at 1:1"#,
        ),
    ];
    for (what, text, kind, display) in &rows {
        let err = CompiledSchema::parse(text).expect_err(what);
        assert_eq!(kind_name(&err.kind), *kind, "{what}: {err:?}");
        assert_eq!(err.to_string(), *display, "{what}");
    }
}

#[test]
fn choice_po_schemas_compile_and_differ() {
    let a = CompiledSchema::parse(CHOICE_PO_XSD).unwrap();
    let b = CompiledSchema::parse(CHOICE_PO_EVOLVED_XSD).unwrap();
    let da = a.content_dfa("PurchaseOrderType").unwrap();
    let db = b.content_dfa("PurchaseOrderType").unwrap();
    assert!(da.accepts(["singAddr", "items"]));
    assert!(!da.accepts(["multAddr", "items"]));
    assert!(db.accepts(["multAddr", "items"]));
}

#[test]
fn abstract_head_excluded_from_content() {
    let xsd = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
      <xsd:element name="msg" type="xsd:string" abstract="true"/>
      <xsd:element name="textMsg" type="xsd:string" substitutionGroup="msg"/>
      <xsd:complexType name="T">
        <xsd:sequence><xsd:element ref="msg"/></xsd:sequence>
      </xsd:complexType>
    </xsd:schema>"#;
    let c = CompiledSchema::parse(xsd).unwrap();
    let dfa = c.content_dfa("T").unwrap();
    assert!(dfa.accepts(["textMsg"]));
    assert!(!dfa.accepts(["msg"]));
}
