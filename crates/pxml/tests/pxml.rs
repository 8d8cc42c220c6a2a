//! End-to-end tests of the P-XML pipeline: static checking (Fig. 9),
//! runtime instantiation, and the emitted V-DOM code (Fig. 11),
//! including the paper's Sect. 1 "wrong server page" scenario.

use pxml::{check_template, emit_rust, instantiate, Bindings, PxmlErrorKind, Template, TypeEnv};
use schema::corpus::{PURCHASE_ORDER_XSD, WML_XSD};
use schema::CompiledSchema;

mod emitted {
    include!("golden/emitted_ship_to.rs");
}

fn po() -> CompiledSchema {
    CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap()
}

fn wml() -> CompiledSchema {
    CompiledSchema::parse(WML_XSD).unwrap()
}

const SHIP_TO: &str = r#"<shipTo country="US">
  $n$
  <street>123 Maple Street</street>
  <city>Mill Valley</city>
  <state>CA</state>
  <zip>90952</zip>
</shipTo>"#;

#[test]
fn paper_constructor_checks_clean() {
    let t = Template::parse(SHIP_TO).unwrap();
    let env = TypeEnv::new().element("n", "name");
    assert!(check_template(&po(), &t, &env).is_empty());
}

#[test]
fn misplaced_element_caught_statically() {
    // the paper's "A Wrong Server Page": structure errors surface at
    // preprocess time, not in test runs
    let t = Template::parse(
        "<shipTo country=\"US\"><street>s</street><name>n</name>\
         <city>c</city><state>st</state><zip>1</zip></shipTo>",
    )
    .unwrap();
    let errors = check_template(&po(), &t, &TypeEnv::new());
    assert!(errors
        .iter()
        .any(|e| matches!(e.kind, PxmlErrorKind::ContentModel { .. })));
}

#[test]
fn incomplete_content_caught_statically() {
    let t = Template::parse("<shipTo country=\"US\"><name>n</name></shipTo>").unwrap();
    let errors = check_template(&po(), &t, &TypeEnv::new());
    assert!(errors.iter().any(
        |e| matches!(&e.kind, PxmlErrorKind::Incomplete { expected, .. }
            if expected.contains(&"street".to_string()))
    ));
}

#[test]
fn missing_required_attribute_caught_statically() {
    let t = Template::parse(
        "<item><productName>x</productName><quantity>1</quantity>\
         <USPrice>1.0</USPrice></item>",
    )
    .unwrap();
    let errors = check_template(&po(), &t, &TypeEnv::new());
    assert!(errors.iter().any(|e| matches!(
        &e.kind,
        PxmlErrorKind::MissingAttribute { attribute, .. } if attribute == "partNum"
    )));
}

#[test]
fn literal_values_checked_statically() {
    // bad SKU pattern in a literal attribute
    let t = Template::parse(
        "<item partNum=\"WRONG\"><productName>x</productName>\
         <quantity>1</quantity><USPrice>1.0</USPrice></item>",
    )
    .unwrap();
    let errors = check_template(&po(), &t, &TypeEnv::new());
    assert!(errors
        .iter()
        .any(|e| matches!(e.kind, PxmlErrorKind::BadAttributeValue { .. })));

    // bad literal simple content (quantity ≥ 100)
    let t = Template::parse(
        "<item partNum=\"123-AB\"><productName>x</productName>\
         <quantity>150</quantity><USPrice>1.0</USPrice></item>",
    )
    .unwrap();
    let errors = check_template(&po(), &t, &TypeEnv::new());
    assert!(errors
        .iter()
        .any(|e| matches!(e.kind, PxmlErrorKind::BadSimpleValue { .. })));

    // fixed attribute violated
    let t = Template::parse(
        "<shipTo country=\"DE\"><name>n</name><street>s</street>\
         <city>c</city><state>st</state><zip>1</zip></shipTo>",
    )
    .unwrap();
    let errors = check_template(&po(), &t, &TypeEnv::new());
    assert!(errors
        .iter()
        .any(|e| matches!(e.kind, PxmlErrorKind::BadAttributeValue { .. })));
}

#[test]
fn hole_values_are_deferred_to_runtime() {
    // a hole in partNum cannot be checked statically — and must not
    // produce a static error
    let t = Template::parse(
        "<item partNum=\"$pn$\"><productName>x</productName>\
         <quantity>1</quantity><USPrice>1.0</USPrice></item>",
    )
    .unwrap();
    let env = TypeEnv::new().text("pn");
    assert!(check_template(&po(), &t, &env).is_empty());
    // instantiation with a bad value fails at seal (facet check)
    let result = instantiate(&po(), &t, &Bindings::new().text("pn", "WRONG"));
    assert!(result.is_err());
    let ok = instantiate(&po(), &t, &Bindings::new().text("pn", "926-AA"));
    assert!(ok.is_ok());
}

#[test]
fn unbound_and_mistyped_variables_caught() {
    let t = Template::parse(SHIP_TO).unwrap();
    // unbound $n$
    let errors = check_template(&po(), &t, &TypeEnv::new());
    assert!(errors
        .iter()
        .any(|e| matches!(e.kind, PxmlErrorKind::UnboundVariable(_))));
    // $n$ bound to the wrong element type steps the DFA wrongly
    let env = TypeEnv::new().element("n", "zip");
    let errors = check_template(&po(), &t, &env);
    assert!(errors
        .iter()
        .any(|e| matches!(e.kind, PxmlErrorKind::ContentModel { .. })));
    // element variable in attribute position
    let t = Template::parse("<shipTo country=\"$n$\"><name>x</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>").unwrap();
    let env = TypeEnv::new().element("n", "name");
    let errors = check_template(&po(), &t, &env);
    assert!(errors
        .iter()
        .any(|e| matches!(e.kind, PxmlErrorKind::ElementHoleInAttribute { .. })));
}

#[test]
fn text_in_element_only_content_caught() {
    let t = Template::parse(
        "<purchaseOrder>stray $s$<shipTo country=\"US\"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo></purchaseOrder>",
    )
    .unwrap();
    let env = TypeEnv::new().text("s");
    let errors = check_template(&po(), &t, &env);
    assert!(
        errors
            .iter()
            .filter(|e| matches!(e.kind, PxmlErrorKind::TextNotAllowed { .. }))
            .count()
            >= 2 // the literal text and the $s$ hole
    );
}

#[test]
fn abstract_elements_and_types_caught_statically() {
    let c = CompiledSchema::parse(
        r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
          <xsd:element name="note" type="xsd:string" abstract="true"/>
          <xsd:element name="root" type="R"/>
          <xsd:complexType name="R">
            <xsd:sequence><xsd:element name="a" type="A"/></xsd:sequence>
          </xsd:complexType>
          <xsd:complexType name="A" abstract="true"/>
        </xsd:schema>"#,
    )
    .unwrap();
    // an abstract global element as the root, an element of an abstract type
    for (source, element) in [("<note>hi</note>", "note"), ("<root><a/></root>", "a")] {
        let t = Template::parse(source).unwrap();
        let errors: Vec<String> = check_template(&c, &t, &TypeEnv::new())
            .iter()
            .map(|e| e.kind.to_string())
            .collect();
        assert_eq!(
            errors,
            [format!(
                "<{element}> is abstract and cannot be instantiated"
            )],
            "{source}"
        );
    }
}

#[test]
fn instantiation_produces_valid_fragments() {
    let c = po();
    let name = Template::parse("<name>Alice Smith</name>").unwrap();
    let name_frag = instantiate(&c, &name, &Bindings::new()).unwrap();
    let t = Template::parse(SHIP_TO).unwrap();
    let frag = instantiate(&c, &t, &Bindings::new().fragment("n", name_frag)).unwrap();
    assert_eq!(
        frag.to_xml().unwrap(),
        "<shipTo country=\"US\"><name>Alice Smith</name><street>123 Maple Street</street>\
         <city>Mill Valley</city><state>CA</state><zip>90952</zip></shipTo>"
    );
}

#[test]
fn wml_fig10_page_assembled_from_templates() {
    // the Sect. 5 example: a card with a select of directory options,
    // driven by runtime data, assembled from checked templates
    let c = wml();
    let option_t = Template::parse("<option value=\"$subDir$\">$label$</option>").unwrap();
    let env = TypeEnv::new().text("subDir").text("label");
    assert!(check_template(&c, &option_t, &env).is_empty());

    let sub_dirs = ["audio", "video", "images"];
    let current_dir = "/workspace/media";

    // build the select with one option per subdirectory plus ".."
    let mut td = vdom::TypedDocument::new(c.clone());
    let root = td.create_root("wml").unwrap();
    let card = td.append_element(root, "card").unwrap();
    td.set_attribute(card, "id", "dirs").unwrap();
    let p = td.append_element(card, "p").unwrap();
    td.append_text(p, current_dir).unwrap();
    let select = td.append_element(p, "select").unwrap();
    td.set_attribute(select, "name", "directories").unwrap();

    let parent = instantiate(
        &c,
        &option_t,
        &Bindings::new()
            .text("subDir", "/workspace")
            .text("label", ".."),
    )
    .unwrap();
    td.import_element(select, &parent.doc, parent.root).unwrap();
    for dir in sub_dirs {
        let frag = instantiate(
            &c,
            &option_t,
            &Bindings::new()
                .text("subDir", format!("{current_dir}/{dir}"))
                .text("label", dir),
        )
        .unwrap();
        td.import_element(select, &frag.doc, frag.root).unwrap();
    }
    let doc = td.seal().unwrap();
    assert!(validator::validate_document(&c, &doc).is_empty());
    let xml = dom::serialize(&doc, doc.root_element().unwrap()).unwrap();
    assert!(xml.contains("<option value=\"/workspace/media/audio\">audio</option>"));
}

#[test]
fn emitted_code_compiles_and_runs() {
    // the Fig. 11 path: the checked-in emitted function builds the same
    // fragment as runtime instantiation
    let c = po();
    let name = Template::parse("<name>Alice Smith</name>").unwrap();
    let name_frag = instantiate(&c, &name, &Bindings::new()).unwrap();
    let mut td = vdom::TypedDocument::new(c.clone());
    emitted::build_ship_to(&mut td, &name_frag).unwrap();
    let doc = td.seal().unwrap();
    let xml = dom::serialize(&doc, doc.root_element().unwrap()).unwrap();
    let t = Template::parse(SHIP_TO).unwrap();
    let name_frag2 = instantiate(&c, &name, &Bindings::new()).unwrap();
    let frag = instantiate(&c, &t, &Bindings::new().fragment("n", name_frag2)).unwrap();
    assert_eq!(xml, frag.to_xml().unwrap());
}

#[test]
fn emitted_code_matches_golden() {
    let t = Template::parse(
        &std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/testdata/ship_to.pxml"
        ))
        .unwrap(),
    )
    .unwrap();
    let env = TypeEnv::new().element("n", "name");
    let fresh = emit_rust(&po(), &t, &env, "build_ship_to").unwrap();
    let golden = include_str!("golden/emitted_ship_to.rs");
    assert_eq!(
        fresh, golden,
        "preprocessor output drifted; regenerate with pxmlgen"
    );
}

#[test]
fn bad_template_refuses_emission() {
    let t = Template::parse("<shipTo country=\"US\"><zip>1</zip></shipTo>").unwrap();
    assert!(emit_rust(&po(), &t, &TypeEnv::new(), "f").is_err());
}

#[test]
fn attribute_interpolation() {
    let c = wml();
    let t = Template::parse("<a href=\"http://$host$/media/$path$\">$label$</a>").unwrap();
    let env = TypeEnv::new().text("host").text("path").text("label");
    assert!(check_template(&c, &t, &env).is_empty());
    let frag = instantiate(
        &c,
        &t,
        &Bindings::new()
            .text("host", "example.com")
            .text("path", "a b") // space must fail anyURI
            .text("label", "x"),
    );
    assert!(frag.is_err());
    let frag = instantiate(
        &c,
        &t,
        &Bindings::new()
            .text("host", "example.com")
            .text("path", "a%20b")
            .text("label", "x"),
    )
    .unwrap();
    assert_eq!(
        frag.to_xml().unwrap(),
        "<a href=\"http://example.com/media/a%20b\">x</a>"
    );
}
