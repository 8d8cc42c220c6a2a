//! parallel_batch: serve a heavy multi-document batch the way the
//! ROADMAP's serving story wants it served — one warmed, shared
//! `CompiledSchema` per corpus, a work-stealing thread pool, and
//! `SchemaRegistry::validate_batch_parallel` fanning the documents out
//! across the workers. Prints per-corpus timings (sequential vs
//! parallel) and the pool's per-worker metrics.
//!
//! ```text
//! cargo run --release -p examples --bin parallel_batch -- [threads]
//! ```
//!
//! `threads` defaults to 4; `scripts/verify.sh` runs a 32-thread smoke.

use std::time::Instant;

use limits::Limits;
use pool::ThreadPool;
use webgen::{DirectoryPageData, SchemaRegistry};

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("threads must be a number"))
        .unwrap_or(4);
    obs::enable();

    let registry = SchemaRegistry::with_corpus().unwrap();
    // Warm before serving: every content-model DFA and attribute table
    // compiles now, not under the first unlucky request.
    let po_ready = registry.get("purchase-order").unwrap().warm();
    let wml_ready = registry.get("wml").unwrap().warm();
    println!(
        "warmed: purchase-order ({po_ready} types), wml ({wml_ready} types), \
         {} distinct DFAs interned",
        schema::interned_dfa_count()
    );

    let pool = ThreadPool::new(threads);
    let orders: Vec<String> = (0..64)
        .map(|i| webgen::render_order_string(&webgen::generate_order(i, 40)))
        .collect();
    let pages: Vec<String> = (0..64)
        .map(|i| {
            webgen::render_string(&DirectoryPageData {
                sub_dirs: (0..128).map(|d| format!("dir{i:03}-{d:04}")).collect(),
                current_dir: "/media/archive".into(),
                parent_dir: "/media".into(),
            })
        })
        .collect();

    for (schema, batch) in [("purchase-order", &orders), ("wml", &pages)] {
        let docs: Vec<&str> = batch.iter().map(String::as_str).collect();
        let bytes: usize = batch.iter().map(String::len).sum();

        let start = Instant::now();
        let sequential = registry
            .validate_batch(schema, &docs, &Limits::default())
            .unwrap();
        let seq_time = start.elapsed();

        let start = Instant::now();
        let parallel = registry
            .validate_batch_parallel(schema, &docs, &pool, &Limits::default())
            .unwrap();
        let par_time = start.elapsed();

        assert_eq!(parallel, sequential, "parallel must equal sequential");
        let invalid = parallel.iter().filter(|e| !e.is_empty()).count();
        println!(
            "{schema}: {} documents ({bytes} bytes), {invalid} invalid, threads={threads}, \
             sequential {seq_time:?}, parallel {par_time:?} ({:.2}x)",
            docs.len(),
            seq_time.as_secs_f64() / par_time.as_secs_f64().max(1e-9),
        );
    }

    println!();
    println!("{}", obs::metrics().render_text());
}
