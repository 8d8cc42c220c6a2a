//! Concurrency stress tests for the process-global content-model DFA
//! intern table: N threads compiling overlapping schemas simultaneously
//! must (a) end up sharing pointer-equal `Arc<ContentDfa>`s for equal
//! content models, (b) compile each distinct model exactly once (per the
//! `obs` DFA-compile counter), and (c) never deadlock under repeated
//! `warm()` + validate interleavings.
//!
//! The obs registry and the intern table are process-global, so the
//! tests serialize on `OBS_LOCK`, assert on counter *deltas*, and use
//! element/type names unique to each test so a model can never have been
//! interned by another test in this binary beforehand.

use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use schema::CompiledSchema;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn compiled_total() -> u64 {
    obs::metrics()
        .counter("schema_dfa_compiled_total", "")
        .get()
}

/// Two schemas that overlap: `SharedT` is written identically in both
/// (one distinct model), `OnlyA`/`OnlyB` differ (two more), and the
/// empty content model of the leaf types adds one. Element names carry a
/// test-unique prefix so nothing here is interned before the test runs.
fn overlapping_schemas(prefix: &str) -> (String, String) {
    let shared = format!(
        r#"<xsd:complexType name="SharedT">
             <xsd:sequence>
               <xsd:element name="{prefix}A" type="xsd:string"/>
               <xsd:element name="{prefix}B" type="xsd:string"/>
               <xsd:element name="{prefix}C" type="xsd:string" minOccurs="0"/>
             </xsd:sequence>
           </xsd:complexType>"#
    );
    let a = format!(
        r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
             <xsd:element name="{prefix}Root" type="SharedT"/>
             {shared}
             <xsd:complexType name="OnlyA">
               <xsd:sequence>
                 <xsd:element name="{prefix}A" type="xsd:string" maxOccurs="unbounded"/>
               </xsd:sequence>
             </xsd:complexType>
           </xsd:schema>"#
    );
    let b = format!(
        r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
             <xsd:element name="{prefix}Root" type="SharedT"/>
             {shared}
             <xsd:complexType name="OnlyB">
               <xsd:choice>
                 <xsd:element name="{prefix}A" type="xsd:string"/>
                 <xsd:element name="{prefix}B" type="xsd:string"/>
               </xsd:choice>
             </xsd:complexType>
           </xsd:schema>"#
    );
    (a, b)
}

#[test]
fn racing_threads_intern_each_distinct_model_exactly_once() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::enable();
    let (xsd_a, xsd_b) = overlapping_schemas("ixa");
    let before = compiled_total();

    // 8 threads, each compiling its own copy of both schemas and forcing
    // every DFA, all released through one barrier to maximize racing.
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let (xsd_a, xsd_b) = (xsd_a.clone(), xsd_b.clone());
            let barrier = barrier.clone();
            thread::spawn(move || {
                let a = CompiledSchema::parse(&xsd_a).unwrap();
                let b = CompiledSchema::parse(&xsd_b).unwrap();
                barrier.wait();
                let da = a.content_dfa("SharedT").unwrap();
                let db = b.content_dfa("SharedT").unwrap();
                let oa = a.content_dfa("OnlyA").unwrap();
                let ob = b.content_dfa("OnlyB").unwrap();
                (da, db, oa, ob)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // (a) equal content models yield pointer-equal automata — across
    // schemas and across every racing thread
    let (first_da, ..) = &results[0];
    for (da, db, oa, ob) in &results {
        assert!(da.ptr_eq(db), "SharedT must be interned across schemas");
        assert!(
            da.ptr_eq(first_da),
            "SharedT must be interned across threads"
        );
        assert!(!oa.ptr_eq(ob), "distinct models must stay distinct");
    }

    // (b) exactly one compilation per distinct model: SharedT, OnlyA,
    // OnlyB — no double compiles under the race, no lost counts
    assert_eq!(
        compiled_total() - before,
        3,
        "each distinct content model must compile exactly once"
    );
    obs::shutdown();
}

#[test]
fn repeated_warm_and_validate_interleavings_do_not_deadlock() {
    let _guard = OBS_LOCK.lock().unwrap();
    let (xsd_a, xsd_b) = overlapping_schemas("iwk");
    let a = CompiledSchema::parse(&xsd_a).unwrap();
    let b = CompiledSchema::parse(&xsd_b).unwrap();
    let doc = "<iwkRoot><iwkA>x</iwkA><iwkB>y</iwkB></iwkRoot>";
    let bad = "<iwkRoot><iwkB>y</iwkB></iwkRoot>";

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let (a, b) = (a.clone(), b.clone());
            thread::spawn(move || {
                for i in 0..50 {
                    // warmers and validators interleave on the same
                    // caches and the same intern table
                    if (t + i) % 2 == 0 {
                        a.warm();
                        b.warm();
                    }
                    assert!(validator::validate_str_streaming(&a, doc).is_empty());
                    assert!(!validator::validate_str_streaming(&b, bad).is_empty());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // both schemas ended fully warmed and agreeing with a fresh compile
    let fresh = CompiledSchema::parse(&xsd_a).unwrap();
    assert!(fresh
        .content_dfa("SharedT")
        .unwrap()
        .ptr_eq(&a.content_dfa("SharedT").unwrap()));
}
