//! The full paper pipeline on the purchase-order schema: schema → V-DOM
//! interfaces (IDL, Appendix A) → generated Rust types → a document built
//! with them → parse → validate → typed DOM round trip.
//!
//! ```text
//! cargo run -p examples --bin purchase_order_pipeline
//! ```

use schema::{corpus, CompiledSchema};

fn main() {
    let compiled = CompiledSchema::parse(corpus::PURCHASE_ORDER_XSD).unwrap();

    // --- paper Appendix A: the generated V-DOM interfaces, in IDL -------
    let model = normalize::build_model(compiled.schema()).unwrap();
    println!("=== generated V-DOM interfaces (IDL, Appendix A) ===\n");
    println!("{}", codegen::render_idl(&model));

    // --- the same model as Rust types ------------------------------------
    let rust = codegen::render_rust(
        &model,
        &codegen::RustGenOptions {
            schema_label: "purchase-order".to_string(),
        },
    );
    println!(
        "=== generated Rust module: {} lines (see crates/codegen/tests/generated_po.rs) ===\n",
        rust.lines().count()
    );

    // --- the paper's Fig. 1 document through parse + validate -----------
    let doc = xmlparse::parse_document(corpus::PURCHASE_ORDER_XML).unwrap();
    let errors = validator::validate_document(&compiled, &doc);
    println!(
        "Fig. 1 document parsed: {} nodes, validator found {} errors",
        doc.len(),
        errors.len()
    );
    assert!(errors.is_empty());

    // --- Fig. 4 vs Fig. 7: generic DOM dump vs typed V-DOM dump ---------
    let root = doc.root_element().unwrap();
    let ship = doc.child_element_named(root, "shipTo").unwrap();
    println!("\n=== Fig. 4: the shipTo fragment in plain DOM ===\n");
    println!("{}", dom::dump_tree(&doc, ship).unwrap());

    let td = vdom::parse_typed(&compiled, corpus::PURCHASE_ORDER_XML).unwrap();
    let typed_root = td.dom().root_element().unwrap();
    let typed_ship = td.dom().child_element_named(typed_root, "shipTo").unwrap();
    println!("=== Fig. 7: the same fragment in V-DOM (typed interfaces) ===\n");
    let handle = td
        .typed_handle(typed_ship)
        .expect("imported element is typed");
    println!("{}", vdom::dump_typed(&td, handle).unwrap());
}
