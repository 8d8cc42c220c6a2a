//! xmlstat: run the paper's purchase-order and WML corpora through the
//! whole pipeline — parse, schema compile, tree validation, streaming
//! validation, P-XML templating, and the schema registry — with the
//! observability layer switched on, then print what the `obs` crate
//! collected in all three output formats: the flight recorder's phase
//! summary, the human-readable metrics report, and the Prometheus text
//! exposition.
//!
//! ```text
//! cargo run -p examples --bin xmlstat
//! ```

use pxml::{Bindings, Template, TypeEnv};
use schema::{corpus, CompiledSchema};
use webgen::{DirectoryPageData, PxmlDirectoryPage, SchemaRegistry};

fn main() {
    // `enable` is the metrics switch: pipeline metrics start landing in
    // `obs::metrics()`. The flight recorder keeps the spans, in bounded
    // per-thread rings.
    obs::enable();
    obs::trace::start(65_536);

    // --- purchase-order corpus ------------------------------------------
    let po = CompiledSchema::parse(corpus::PURCHASE_ORDER_XSD).unwrap();
    let fig1 = xmlparse::parse_document(corpus::PURCHASE_ORDER_XML).unwrap();
    let tree_errors = validator::validate_document(&po, &fig1);
    println!(
        "purchase-order: Fig. 1 document, {} nodes, {} tree-validation errors",
        fig1.len(),
        tree_errors.len()
    );
    for n in [1usize, 10, 100] {
        let order = webgen::generate_order(17, n);
        let xml = webgen::render_order_string(&order);
        let errors = validator::validate_str_streaming(&po, &xml);
        println!(
            "purchase-order: {n:>3}-item order, {} bytes, {} streaming errors",
            xml.len(),
            errors.len()
        );
    }

    // --- WML corpus through the registry and P-XML ----------------------
    let registry = SchemaRegistry::with_corpus().unwrap();
    let wml = registry.get("wml").unwrap();
    let page = PxmlDirectoryPage::new(&wml).unwrap();
    for n in [4usize, 64] {
        let data = DirectoryPageData {
            sub_dirs: (0..n).map(|i| format!("dir{i:04}")).collect(),
            current_dir: "/media/archive".into(),
            parent_dir: "/media".into(),
        };
        let rendered = page.render(&data).unwrap();
        let errors = registry.validate_streaming("wml", &rendered).unwrap();
        println!(
            "wml: {n:>3}-entry directory page, {} bytes, {} validation errors",
            rendered.len(),
            errors.len()
        );
        // the Sect. 1 "Wrong Server Page": same data, buggy renderer
        let buggy = webgen::render_string_buggy(&data);
        let errors = registry.validate_streaming("wml", &buggy).unwrap();
        println!(
            "wml: buggy renderer on the same data, {} errors",
            errors.len()
        );
    }
    // a template the static checker must reject, so the reject counters move
    let bad = Template::parse("<option value=\"$v$\"><card/></option>").unwrap();
    let rejects = pxml::check_template(&wml, &bad, &TypeEnv::new().text("v"));
    println!(
        "pxml: statically rejected template, {} errors",
        rejects.len()
    );
    // and an instantiation-time reject: an unbound variable
    let good = Template::parse("<option value=\"$v$\">$v$</option>").unwrap();
    assert!(pxml::check_template(&wml, &good, &TypeEnv::new().text("v")).is_empty());
    assert!(pxml::instantiate(&wml, &good, &Bindings::new()).is_err());

    // --- what the observability layer saw -------------------------------
    obs::trace::stop();
    println!("\n=== flight recorder ===\n");
    print!("{}", obs::trace::summary());
    println!("=== metrics (text) ===\n");
    print!("{}", obs::metrics().render_text());
    println!("=== metrics (prometheus) ===\n");
    print!("{}", obs::metrics().render_prometheus());

    obs::shutdown();
}
