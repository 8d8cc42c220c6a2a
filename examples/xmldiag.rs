//! xmldiag: per-document diagnosis with the flight recorder on.
//!
//! Where `xmlstat` shows the *aggregate* view (counters, histograms),
//! xmldiag answers the per-document questions: what did THIS document
//! cost, phase by phase, and why? It runs a document through tree
//! validation, streaming validation, chunked streaming, and an 8-thread
//! parallel batch with `obs::trace` recording, then prints the
//! document's wide-event records, the top-down phase breakdown, and
//! (with `--chrome PATH`) a Perfetto-loadable Chrome trace.
//!
//! ```text
//! cargo run -p examples --bin xmldiag -- [FILE] [--schema purchase-order|wml] [--chrome PATH]
//! ```
//!
//! With no FILE the paper's Fig. 1 purchase-order document is used.

use limits::Limits;
use pool::ThreadPool;
use schema::corpus;
use webgen::SchemaRegistry;

fn main() {
    let mut file: Option<String> = None;
    let mut schema_name = "purchase-order".to_string();
    let mut chrome_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schema" => schema_name = args.next().expect("--schema needs a value"),
            "--chrome" => chrome_path = Some(args.next().expect("--chrome needs a path")),
            "--help" | "-h" => {
                eprintln!("usage: xmldiag [FILE] [--schema purchase-order|wml] [--chrome PATH]");
                return;
            }
            other => file = Some(other.to_string()),
        }
    }
    let document = match &file {
        Some(path) => std::fs::read_to_string(path).expect("read input document"),
        None => corpus::PURCHASE_ORDER_XML.to_string(),
    };

    // Metrics aggregate; the flight recorder attributes. Both on.
    obs::enable();
    obs::trace::start(65_536);

    let registry = SchemaRegistry::with_corpus().unwrap();
    let compiled = registry
        .get(&schema_name)
        .unwrap_or_else(|| panic!("no schema registered under {schema_name:?}"));

    // --- the document under diagnosis, tree path -------------------------
    match xmlparse::parse_document(&document) {
        Ok(doc) => {
            let errors = validator::validate_document(&compiled, &doc);
            println!("tree:   {} nodes, {} errors", doc.len(), errors.len());
        }
        Err(e) => println!("tree:   not well-formed: {e}"),
    }

    // --- streaming + chunked paths (each emits a wide event) -------------
    let errors = registry
        .validate_streaming(&schema_name, &document)
        .unwrap();
    println!("stream: {} bytes, {} errors", document.len(), errors.len());
    let errors = registry
        .validate_streaming_reader(&schema_name, document.as_bytes())
        .unwrap()
        .expect("in-memory reader cannot fail I/O");
    println!("read:   chunked over a reader, {} errors", errors.len());

    // --- an 8-thread parallel batch around the same document -------------
    // (plus an invalid mutant, so the tail sampler has a flagged doc to
    // always keep)
    let invalid = document
        .replace("<item", "<unexpected")
        .replace("</item>", "</unexpected>");
    let mut docs: Vec<&str> = Vec::new();
    for _ in 0..8 {
        docs.push(&document);
    }
    if invalid != document {
        docs.push(&invalid);
    }
    let pool = ThreadPool::new(8);
    let results = registry
        .validate_batch_parallel(&schema_name, &docs, &pool, &Limits::default())
        .unwrap();
    let bad = results.iter().filter(|r| !r.is_empty()).count();
    println!(
        "batch:  {} documents across {} threads, {} with errors",
        results.len(),
        pool.threads(),
        bad
    );

    obs::trace::stop();

    // --- what the flight recorder saw ------------------------------------
    println!("\n=== wide events (tail-sampled) ===\n");
    for we in obs::trace::wide_events() {
        println!("{we}");
    }
    let stats = obs::trace::wide_stats();
    println!(
        "\n{} seen, {} kept, {} sampled out",
        stats.seen, stats.kept, stats.dropped
    );
    println!("\n=== per-phase breakdown ===\n");
    print!("{}", obs::trace::summary());

    if let Some(path) = chrome_path {
        let json = obs::trace::export_chrome_trace();
        // self-check before writing: the export must round-trip the
        // validator with strict nesting and no orphaned parent links
        let stats = obs::trace::validate_chrome_trace(&json).expect("exported trace is valid");
        assert_eq!(
            stats.orphan_parents, 0,
            "every span must parent to a span in the export"
        );
        std::fs::write(&path, &json).expect("write chrome trace");
        println!(
            "\nchrome trace OK: {path} ({} events, {} B/E pairs, {} threads)",
            stats.events, stats.begin_end_pairs, stats.threads
        );
        println!("open it at https://ui.perfetto.dev or chrome://tracing");
    }

    obs::shutdown();
}
