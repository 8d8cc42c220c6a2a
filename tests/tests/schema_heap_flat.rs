//! A compiled schema's memory does not grow with the names it is asked
//! about. Its per-type tables are built once from the schema, so a
//! child-type lookup for a name the schema does not declare, directly or
//! through a rejected `TypedDocument::append_element`, must leave
//! nothing behind: a caller that invents names cannot grow the heap.
//!
//! Method: a counting global allocator tracks live bytes (allocations
//! minus deallocations, realloc deltas included). This file holds ONE
//! test on purpose, so no sibling test allocates inside the measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write;
use std::sync::atomic::{AtomicI64, Ordering};

use schema::corpus::PURCHASE_ORDER_XSD;
use schema::CompiledSchema;
use vdom::{TypedDocument, VdomError};

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const NAMES: usize = 100_000;
const BUDGET_BYTES: i64 = 64 * 1024;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Writes the `i`-th undeclared element name into the reused buffer.
fn undeclared(buf: &mut String, prefix: &str, i: usize) {
    buf.clear();
    write!(buf, "{prefix}{i:06}").unwrap();
}

#[test]
fn undeclared_names_leave_a_warmed_schema_flat() {
    let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
    assert!(compiled.warm() >= 4);
    let mut name = String::with_capacity(32);

    // direct lookups of names no type declares
    let before = live();
    for i in 0..NAMES {
        undeclared(&mut name, "undeclaredChild", i);
        assert_eq!(
            compiled.child_element_type("PurchaseOrderType", &name),
            None
        );
    }
    let grown = live() - before;
    assert!(
        grown < BUDGET_BYTES,
        "{NAMES} undeclared child lookups grew the live heap by {grown} bytes"
    );

    // the typed V-DOM's rejection path, which asks the same question
    let mut doc = TypedDocument::new(compiled.clone());
    let root = doc.create_root("purchaseOrder").unwrap();
    let before = live();
    for i in 0..NAMES {
        undeclared(&mut name, "rejectedChild", i);
        match doc.append_element(root, &name) {
            Err(VdomError::UnknownChild { .. }) => {}
            other => panic!("{name}: expected UnknownChild, got {other:?}"),
        }
    }
    let grown = live() - before;
    assert!(
        grown < BUDGET_BYTES,
        "{NAMES} rejected appends grew the live heap by {grown} bytes"
    );
}
