//! One table, every typed engine: the streaming validator, V-DOM
//! construction (explicit `append_element`/`finish` calls), the V-DOM
//! import `vdom::parse_typed` + `seal`, the P-XML checker followed by a
//! compiled render, and the P-XML interpreter `pxml::instantiate` must
//! each give the row's verdict on every row.
//!
//! Rows marked "(a)", "(b)" and "(c)" are shapes on which the engines
//! once disagreed: an extension that only adds attributes (the derived
//! type's own content is empty, its merged content is the base's), an
//! element of an abstract complex type, and an abstract global element
//! used as a document or template root.

use dom::{Document, NodeId, NodeKind};
use limits::Limits;
use pxml::{Bindings, Template, TypeEnv};
use schema::corpus::PURCHASE_ORDER_XSD;
use schema::CompiledSchema;
use vdom::{TypedDocument, TypedElement, VdomError};
use xmlchars::is_xml_whitespace;

fn xsd(body: &str) -> String {
    format!(r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">{body}</xsd:schema>"#)
}

/// `B` extends `A = sequence(x)` and adds only an attribute.
fn attribute_only_extension() -> String {
    xsd(r#"<xsd:element name="root" type="B"/>
        <xsd:complexType name="A">
          <xsd:sequence><xsd:element name="x" type="xsd:string"/></xsd:sequence>
        </xsd:complexType>
        <xsd:complexType name="B">
          <xsd:complexContent>
            <xsd:extension base="A">
              <xsd:attribute name="id" type="xsd:string"/>
            </xsd:extension>
          </xsd:complexContent>
        </xsd:complexType>"#)
}

/// `root` holds one `a` whose type `A` is abstract.
fn abstract_type() -> String {
    xsd(r#"<xsd:element name="root" type="R"/>
        <xsd:complexType name="R">
          <xsd:sequence><xsd:element name="a" type="A"/></xsd:sequence>
        </xsd:complexType>
        <xsd:complexType name="A" abstract="true"/>"#)
}

/// `comment` is abstract; `shipComment` substitutes for it.
fn abstract_element() -> String {
    xsd(
        r#"<xsd:element name="comment" type="xsd:string" abstract="true"/>
        <xsd:element name="shipComment" type="xsd:string" substitutionGroup="comment"/>"#,
    )
}

/// (row, schema text, document, expected verdict: `true` = valid)
fn rows() -> Vec<(&'static str, String, &'static str, bool)> {
    let po = PURCHASE_ORDER_XSD.to_string();
    vec![
        (
            "(a) extension adding only attributes keeps the base content",
            attribute_only_extension(),
            "<root><x>hi</x></root>",
            true,
        ),
        (
            "(a) extension adding only attributes: base content is required",
            attribute_only_extension(),
            "<root/>",
            false,
        ),
        (
            "(a) extension adding only attributes: its attribute is declared",
            attribute_only_extension(),
            r#"<root id="7"><x>hi</x></root>"#,
            true,
        ),
        (
            "(b) element of an abstract complex type",
            abstract_type(),
            "<root><a/></root>",
            false,
        ),
        (
            "(b) the abstract type's element is still required",
            abstract_type(),
            "<root/>",
            false,
        ),
        (
            "(c) abstract global element as the root",
            abstract_element(),
            "<comment>hi</comment>",
            false,
        ),
        (
            "(c) its substitution-group member as the root",
            abstract_element(),
            "<shipComment>hi</shipComment>",
            true,
        ),
        (
            "purchase order: a comment alone is a document",
            po.clone(),
            "<comment>Hurry</comment>",
            true,
        ),
        (
            "purchase order: an undeclared root",
            po.clone(),
            "<order/>",
            false,
        ),
        (
            "purchase order: items before shipTo",
            po.clone(),
            "<purchaseOrder><items/></purchaseOrder>",
            false,
        ),
        (
            "purchase order: a complete address",
            po.clone(),
            r#"<purchaseOrder><shipTo country="US"><name>A</name><street>s</street><city>c</city><state>CA</state><zip>1</zip></shipTo><billTo country="US"><name>B</name><street>s</street><city>c</city><state>CA</state><zip>2</zip></billTo><items/></purchaseOrder>"#,
            true,
        ),
        (
            "purchase order: a fixed attribute with another value",
            po.clone(),
            r#"<purchaseOrder><shipTo country="DE"><name>A</name><street>s</street><city>c</city><state>CA</state><zip>1</zip></shipTo><billTo country="US"><name>B</name><street>s</street><city>c</city><state>CA</state><zip>2</zip></billTo><items/></purchaseOrder>"#,
            false,
        ),
        (
            "purchase order: an undeclared attribute",
            po.clone(),
            r#"<purchaseOrder bogus="1"><shipTo country="US"><name>A</name><street>s</street><city>c</city><state>CA</state><zip>1</zip></shipTo><billTo country="US"><name>B</name><street>s</street><city>c</city><state>CA</state><zip>2</zip></billTo><items/></purchaseOrder>"#,
            false,
        ),
        (
            "purchase order: a zip that is not a decimal",
            po.clone(),
            r#"<purchaseOrder><shipTo country="US"><name>A</name><street>s</street><city>c</city><state>CA</state><zip>x</zip></shipTo><billTo country="US"><name>B</name><street>s</street><city>c</city><state>CA</state><zip>2</zip></billTo><items/></purchaseOrder>"#,
            false,
        ),
        (
            "purchase order: text in element-only content",
            po.clone(),
            r#"<purchaseOrder>stray<shipTo country="US"><name>A</name><street>s</street><city>c</city><state>CA</state><zip>1</zip></shipTo><billTo country="US"><name>B</name><street>s</street><city>c</city><state>CA</state><zip>2</zip></billTo><items/></purchaseOrder>"#,
            false,
        ),
        (
            "purchase order: an item without its required partNum",
            po,
            r#"<purchaseOrder><shipTo country="US"><name>A</name><street>s</street><city>c</city><state>CA</state><zip>1</zip></shipTo><billTo country="US"><name>B</name><street>s</street><city>c</city><state>CA</state><zip>2</zip></billTo><items><item><productName>P</productName><quantity>1</quantity><USPrice>1.0</USPrice></item></items></purchaseOrder>"#,
            false,
        ),
    ]
}

/// Builds `doc` through the typed API one call at a time, finishing each
/// element as its close tag would: `create_root`, `set_attribute`,
/// `append_element`, `append_text`, `finish`.
fn construct(compiled: &CompiledSchema, doc: &Document) -> Result<(), VdomError> {
    fn fill(
        td: &mut TypedDocument,
        doc: &Document,
        src: NodeId,
        dst: TypedElement,
    ) -> Result<(), VdomError> {
        for attr in doc.attributes(src).unwrap() {
            td.set_attribute(dst, &attr.name, attr.value.clone())?;
        }
        for &child in doc.child_slice(src).unwrap() {
            match doc.kind(child).unwrap() {
                NodeKind::Element { name, .. } => {
                    let el = td.append_element(dst, name)?;
                    fill(td, doc, child, el)?;
                }
                NodeKind::Text(t) if !t.chars().all(is_xml_whitespace) => {
                    td.append_text(dst, t.clone())?
                }
                _ => {}
            }
        }
        td.finish(dst)
    }
    let root = doc.root_element().unwrap();
    let mut td = TypedDocument::new(compiled.clone());
    let el = td.create_root(doc.tag_name(root).unwrap())?;
    fill(&mut td, doc, root, el)?;
    td.seal().map(drop)
}

/// Each engine's verdict on one row, with the reason for a rejection.
fn verdicts(compiled: &CompiledSchema, text: &str) -> Vec<(&'static str, Result<(), String>)> {
    let streaming = validator::validate_str_streaming(compiled, text, &Limits::default());
    let doc = xmlparse::parse_document(text).unwrap();
    let template = Template::parse(text).unwrap();
    let env = TypeEnv::new();
    let checked = pxml::check_template(compiled, &template, &env);
    let rendered = if checked.is_empty() {
        pxml::plan(compiled, &template, &env)
            .map_err(|errors| format!("{errors:?}"))
            .and_then(|plan| {
                plan.render_to_string(&Bindings::new())
                    .map(drop)
                    .map_err(|e| e.to_string())
            })
    } else {
        Err(format!("{checked:?}"))
    };
    vec![
        (
            "streaming",
            match streaming.as_slice() {
                [] => Ok(()),
                errors => Err(format!("{errors:?}")),
            },
        ),
        (
            "vdom construction",
            construct(compiled, &doc).map_err(|e| e.to_string()),
        ),
        (
            "vdom::parse_typed",
            vdom::parse_typed(compiled, text)
                .and_then(TypedDocument::seal)
                .map(drop)
                .map_err(|e| e.to_string()),
        ),
        ("check_template + render", rendered),
        (
            "pxml::instantiate",
            pxml::instantiate(compiled, &template, &Bindings::new())
                .map(drop)
                .map_err(|e| e.to_string()),
        ),
    ]
}

#[test]
fn every_engine_gives_each_row_its_verdict() {
    let mut failures = Vec::new();
    for (row, xsd, text, valid) in rows() {
        let compiled = CompiledSchema::parse(&xsd).unwrap();
        for (engine, verdict) in verdicts(&compiled, text) {
            if verdict.is_ok() != valid {
                failures.push(format!("{row}: {engine} gave {verdict:?} on {text}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
