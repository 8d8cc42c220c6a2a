//! Allocation-count smoke test for the zero-copy pipeline: streaming
//! validation of an entity-free document performs **zero heap
//! allocations per event** — all per-document costs (frame stack,
//! attribute buffer, open-element stack) are O(depth), not O(length).
//!
//! Method: a counting global allocator wraps the system allocator (this
//! test file is its own binary, so the counter sees only this test).
//! Validating a document with 10× the events must cost *exactly* the
//! same number of allocations as the small one — any per-event
//! allocation would scale with the event count and break the equality.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use schema::corpus::{PURCHASE_ORDER_XSD, WML_XSD};
use schema::CompiledSchema;
use validator::validate_str_streaming;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The tests measure a process-global counter; each holds this for
/// its whole body, set-up included, so the harness's parallel test
/// threads cannot bleed allocations into each other's window.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

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
    let _window = MEASURE.lock().unwrap();
    let compiled = CompiledSchema::parse(WML_XSD).unwrap();
    compiled.warm();

    let small = flat_page(100);
    let large = flat_page(1000);

    // one throwaway pass over each document: settles every lazy,
    // size-independent cost (symbol table, DFA intern, plan index)
    assert!(validate_str_streaming(&compiled, &small).is_empty());
    assert!(validate_str_streaming(&compiled, &large).is_empty());

    let before_small = allocations();
    let errors = validate_str_streaming(&compiled, &small);
    let cost_small = allocations() - before_small;
    assert!(errors.is_empty(), "{errors:#?}");

    let before_large = allocations();
    let errors = validate_str_streaming(&compiled, &large);
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
    let _window = MEASURE.lock().unwrap();
    let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
    compiled.warm();

    let small = purchase_order(100);
    let large = purchase_order(1000);
    assert!(validate_str_streaming(&compiled, &small).is_empty());
    assert!(validate_str_streaming(&compiled, &large).is_empty());

    let before_small = allocations();
    let errors = validate_str_streaming(&compiled, &small);
    let cost_small = allocations() - before_small;
    assert!(errors.is_empty(), "{errors:#?}");

    let before_large = allocations();
    let errors = validate_str_streaming(&compiled, &large);
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
    let _window = MEASURE.lock().unwrap();
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
