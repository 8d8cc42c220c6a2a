//! A skipped subtree costs the streaming validator no memory per level:
//! feeding a 1000-deep undeclared subtree, with a text run at every
//! level, grows the validator's live heap by less than 4 KiB. The events
//! are constructed directly and go straight into
//! `StreamingValidator::feed`, so no reader buffer is measured.
//!
//! Method: a global allocator tracks the live bytes (allocations minus
//! deallocations, realloc deltas included) and their peak per thread,
//! so the window sees only this test's own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;

use limits::Limits;
use schema::corpus::PURCHASE_ORDER_XSD;
use schema::CompiledSchema;
use validator::{StreamingValidator, ValidationErrorKind};
use xmlchars::Span;
use xmlparse::BorrowedEvent;

struct LiveBytes;

thread_local! {
    // const-initialised and free of drop glue: reaching them neither
    // allocates nor registers a destructor, so the allocator may touch
    // them
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            track(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            track(new_size as i64 - layout.size() as i64);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const DEPTH: usize = 1000;
const BUDGET_BYTES: i64 = 4 * 1024;

fn start(name: &str) -> BorrowedEvent<'_, '_> {
    BorrowedEvent::StartElement {
        name,
        attributes: &[],
        self_closing: false,
        span: Span::default(),
    }
}

fn end(name: &str) -> BorrowedEvent<'_, '_> {
    BorrowedEvent::EndElement {
        name,
        span: Span::default(),
    }
}

fn text(text: &str) -> BorrowedEvent<'_, '_> {
    BorrowedEvent::Text {
        text: Cow::Borrowed(text),
        span: Span::default(),
    }
}

#[test]
fn a_deep_undeclared_subtree_holds_the_validator_heap_flat() {
    let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
    compiled.warm();

    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let mut v = StreamingValidator::new(&compiled, Limits::default());
    v.feed(start("purchaseOrder"));
    for _ in 0..DEPTH {
        v.feed(start("bogus"));
        v.feed(text("not checked"));
    }
    let depth = v.depth();
    for _ in 0..DEPTH {
        v.feed(end("bogus"));
    }
    v.feed(end("purchaseOrder"));
    let growth = PEAK.with(Cell::get) - before;

    assert_eq!(depth, DEPTH + 1);
    assert_eq!(v.max_depth(), DEPTH + 1);
    let errors = v.finish();
    let kinds: Vec<_> = errors.iter().map(|e| e.kind.label()).collect();
    assert_eq!(kinds, ["UnexpectedChild"], "{errors:#?}");
    assert!(matches!(
        &errors[0].kind,
        ValidationErrorKind::UnexpectedChild { child, .. } if child == "bogus"
    ));
    assert!(
        growth < BUDGET_BYTES,
        "the validator's live heap peaked {growth} B above its start over a \
         {DEPTH}-deep skipped subtree (budget {BUDGET_BYTES} B)"
    );
}
