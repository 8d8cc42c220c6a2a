//! Quickstart: parse a schema, build a typed document that *cannot* go
//! invalid, watch a wrong construction fail at the call site, and
//! serialize the result.
//!
//! ```text
//! cargo run -p examples --bin quickstart
//! ```

use limits::Limits;
use schema::{corpus, CompiledSchema};
use vdom::TypedDocument;

fn main() {
    // 1. Compile the paper's purchase-order schema (Figs. 2–3).
    let compiled =
        CompiledSchema::parse(corpus::PURCHASE_ORDER_XSD).expect("the bundled schema is valid");
    println!(
        "schema compiled: {} components",
        compiled.schema().component_count()
    );

    // 2. Build a purchase order through the typed API. Every append is
    //    checked against the content model as it happens.
    let mut td = TypedDocument::new(compiled.clone());
    let po = td.create_root("purchaseOrder").expect("declared element");
    td.set_attribute(po, "orderDate", "1999-10-20").unwrap();

    // A wrong construction fails *here*, not in a test run:
    match td.append_element(po, "items") {
        Err(e) => println!("rejected as expected: {e}"),
        Ok(_) => unreachable!("items cannot precede shipTo"),
    }

    for (tag, name) in [("shipTo", "Alice Smith"), ("billTo", "Robert Smith")] {
        let addr = td.append_element(po, tag).unwrap();
        td.set_attribute(addr, "country", "US").unwrap();
        for (child, value) in [
            ("name", name),
            ("street", "123 Maple Street"),
            ("city", "Mill Valley"),
            ("state", "CA"),
            ("zip", "90952"),
        ] {
            let el = td.append_element(addr, child).unwrap();
            td.append_text(el, value).unwrap();
        }
    }
    let items = td.append_element(po, "items").unwrap();
    let item = td.append_element(items, "item").unwrap();
    td.set_attribute(item, "partNum", "872-AA").unwrap();
    for (child, value) in [
        ("productName", "Lawnmower"),
        ("quantity", "1"),
        ("USPrice", "148.95"),
    ] {
        let el = td.append_element(item, child).unwrap();
        td.append_text(el, value).unwrap();
    }

    // 3. Seal: completeness + required attributes checked; the result is
    //    guaranteed valid.
    let doc = td.seal().expect("construction was complete");
    let root = doc.root_element().unwrap();
    println!("\n{}", dom::serialize_pretty(&doc, root).unwrap());

    // 4. Cross-check with the independent runtime validator (never
    //    needed in application code — shown for demonstration).
    let errors = validator::validate_document(&compiled, &doc);
    assert!(errors.is_empty());
    println!("\nindependent validator agrees: document is valid");

    // 5. The same check without ever building a tree: stream the
    //    serialized text through the event-based validator. This is the
    //    shape server pages use to check rendered output on its way out.
    let page = dom::serialize(&doc, root).unwrap();
    let errors = validator::validate_str_streaming(&compiled, &page, &Limits::default());
    assert!(errors.is_empty());
    println!("streaming validator agrees: document is valid");

    let broken = page.replace("148.95", "a lot");
    for e in validator::validate_str_streaming(&compiled, &broken, &Limits::default()) {
        println!("streaming validator caught: {e}");
    }
}
