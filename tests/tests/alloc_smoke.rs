//! Allocation-count smoke test for the zero-copy pipeline: streaming
//! validation of an entity-free document performs **zero heap
//! allocations per event** — all per-document costs (frame stack,
//! attribute buffer, open-element stack) are O(depth), not O(length).
//!
//! Method: a counting global allocator wraps the system allocator and
//! counts per thread, so a test's window sees only the allocations its
//! own thread makes — not the harness's, which starts the other test
//! threads while a measurement runs, nor a parallel test's. Validating a
//! document with 10× the events must cost *exactly* the same number of
//! allocations as the small one — any per-event allocation would scale
//! with the event count and break the equality.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use limits::Limits;
use schema::corpus::{PURCHASE_ORDER_XSD, WML_XSD};
use schema::CompiledSchema;
use validator::validate_str_streaming;

struct CountingAlloc;

thread_local! {
    // const-initialised and free of drop glue: reaching it neither
    // allocates nor registers a destructor, so the allocator may touch it
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` never panics inside the allocator; a counter without a
    // destructor is reachable for the thread's whole life anyway
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A flat, entity-free WML page with `n` options — event count scales
/// linearly with `n` while depth stays constant.
fn flat_page(n: usize) -> String {
    let mut page = String::from("<wml><card id=\"c\"><p><select name=\"d\">");
    for i in 0..n {
        page.push_str(&format!("<option value=\"{i}\">entry {i}</option>"));
    }
    page.push_str("</select></p></card></wml>");
    page
}

#[test]
fn streaming_validation_allocates_zero_per_event() {
    let compiled = CompiledSchema::parse(WML_XSD).unwrap();
    compiled.warm();

    let small = flat_page(100);
    let large = flat_page(1000);

    // one throwaway pass over each document: settles every lazy,
    // size-independent cost (symbol table, DFA intern, plan index)
    assert!(validate_str_streaming(&compiled, &small, &Limits::default()).is_empty());
    assert!(validate_str_streaming(&compiled, &large, &Limits::default()).is_empty());

    let before_small = allocations();
    let errors = validate_str_streaming(&compiled, &small, &Limits::default());
    let cost_small = allocations() - before_small;
    assert!(errors.is_empty(), "{errors:#?}");

    let before_large = allocations();
    let errors = validate_str_streaming(&compiled, &large, &Limits::default());
    let cost_large = allocations() - before_large;
    assert!(errors.is_empty(), "{errors:#?}");

    // ~2700 more events in the large document; equality means exactly
    // zero allocations per event
    assert_eq!(
        cost_large, cost_small,
        "per-event allocations detected: {cost_small} allocs for 100 \
         options vs {cost_large} for 1000"
    );
}

/// A valid purchase order with `n` items, each carrying every typed
/// value an item can: the `SKU` pattern on `partNum`, the restricted
/// `positiveInteger` quantity, a decimal price and a date.
fn purchase_order(n: usize) -> String {
    let mut po = String::from(
        "<purchaseOrder orderDate=\"1999-10-20\"><shipTo country=\"US\"><name>A</name>\
         <street>S</street><city>C</city><state>CA</state><zip>90952</zip></shipTo>\
         <billTo country=\"US\"><name>B</name><street>S</street><city>C</city>\
         <state>PA</state><zip>95819</zip></billTo><items>",
    );
    for i in 0..n {
        po.push_str(&format!(
            "<item partNum=\"{:03}-AA\"><productName>P{i}</productName>\
             <quantity>{}</quantity><USPrice>{}.95</USPrice>\
             <shipDate>1999-05-{:02}</shipDate></item>",
            i % 1000,
            1 + i % 99,
            10 + i,
            1 + i % 28
        ));
    }
    po.push_str("</items></purchaseOrder>");
    po
}

#[test]
fn typed_values_allocate_zero_per_item() {
    let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
    compiled.warm();

    let small = purchase_order(100);
    let large = purchase_order(1000);
    assert!(validate_str_streaming(&compiled, &small, &Limits::default()).is_empty());
    assert!(validate_str_streaming(&compiled, &large, &Limits::default()).is_empty());

    let before_small = allocations();
    let errors = validate_str_streaming(&compiled, &small, &Limits::default());
    let cost_small = allocations() - before_small;
    assert!(errors.is_empty(), "{errors:#?}");

    let before_large = allocations();
    let errors = validate_str_streaming(&compiled, &large, &Limits::default());
    let cost_large = allocations() - before_large;
    assert!(errors.is_empty(), "{errors:#?}");

    // 900 more items, each with a pattern, an integer with a range
    // facet, a decimal and a date: equality means none of them allocates
    assert_eq!(
        cost_large, cost_small,
        "per-item allocations detected: {cost_small} allocs for 100 \
         items vs {cost_large} for 1000"
    );
}

#[test]
fn borrowed_event_stream_allocates_zero_per_event() {
    // the parser alone, below the validator: pulling borrowed events
    // over an entity-free document costs O(depth) allocations total
    let small = flat_page(100);
    let large = flat_page(1000);

    let drain = |src: &str| {
        let mut reader = xmlparse::Reader::new(src);
        let mut events = 0u64;
        loop {
            match reader.next_event_borrowed() {
                Ok(xmlparse::BorrowedEvent::Eof) => return events,
                Ok(e) => {
                    assert!(e.is_fully_borrowed(), "owned copy on clean input: {e:?}");
                    events += 1;
                }
                Err(e) => panic!("unexpected parse error: {e}"),
            }
        }
    };

    drain(&small);
    drain(&large);

    let before_small = allocations();
    let events_small = drain(&small);
    let cost_small = allocations() - before_small;

    let before_large = allocations();
    let events_large = drain(&large);
    let cost_large = allocations() - before_large;

    assert!(events_large > events_small * 9);
    assert_eq!(
        cost_large, cost_small,
        "per-event allocations detected in the parser: {cost_small} \
         allocs for {events_small} events vs {cost_large} for {events_large}"
    );
}

/// Allocations the tree parse of a 400-item purchase order may make:
/// one per text, attribute value and child list, none per name.
const TREE_PARSE_BUDGET: u64 = 4_000;

#[test]
fn tree_parse_allocates_no_names_per_node() {
    // the tree builder shares one `Arc<str>` per distinct name, so the
    // allocations left are the tree's own: texts, attribute values,
    // child lists and the arena's growth
    let order = |items| webgen::render_order_string(&webgen::generate_order(7, items));
    let (small, large) = (order(400), order(4_000));
    let parse = |src: &str| {
        let before = allocations();
        let doc = xmlparse::parse_document(src).expect("generated orders parse");
        let cost = allocations() - before;
        (cost, doc.len())
    };
    parse(&small);
    let (cost_small, nodes) = parse(&small);
    let (cost_large, _) = parse(&large);
    assert!(
        cost_small <= TREE_PARSE_BUDGET,
        "parse_document made {cost_small} allocations for {nodes} nodes"
    );
    // ten times the items within ten times the allocations plus a
    // constant: no per-node cost beyond the small document's share
    assert!(
        cost_large <= 10 * cost_small + 64,
        "{cost_small} allocations for 400 items but {cost_large} for 4000"
    );
}
