//! Observed serving keeps its memory budget: with instrumentation on,
//! the live heap of a running `serve::Server` stays flat across tens of
//! thousands of keep-alive validate requests. Metrics are fixed-size
//! process totals and the flight recorder's rings are bounded, so any
//! per-request growth here is a leak.
//!
//! Method: a counting global allocator tracks live bytes (allocations
//! minus deallocations, realloc deltas included) across every thread of
//! this binary, server workers included. This file holds ONE test on
//! purpose, so no sibling test allocates inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serve::{Server, ServerConfig};
use webgen::SchemaRegistry;

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

const WARM_UP: usize = 500;
const MEASURED: usize = 20_000;
const BUDGET_BYTES: i64 = 64 * 1024;

/// One keep-alive client that reuses its line and body buffers, so the
/// client side adds nothing per request to the measured heap.
struct Client {
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
    line: String,
    body: Vec<u8>,
}

impl Client {
    /// Sends the prepared request and reads the whole response; returns
    /// its status.
    fn round_trip(&mut self) -> u16 {
        self.reader.get_mut().write_all(&self.request).unwrap();
        self.line.clear();
        self.reader.read_line(&mut self.line).unwrap();
        let status = self.line.split(' ').nth(1).unwrap().parse().unwrap();
        let mut len = 0usize;
        loop {
            self.line.clear();
            self.reader.read_line(&mut self.line).unwrap();
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').unwrap();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().unwrap();
            }
        }
        self.body.resize(len, 0);
        self.reader.read_exact(&mut self.body).unwrap();
        status
    }
}

#[test]
fn observed_keep_alive_validation_holds_the_live_heap_flat() {
    obs::enable();
    let registry = Arc::new(SchemaRegistry::with_corpus().unwrap());
    let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let doc = webgen::render_order_string(&webgen::generate_order(4, 3));
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut client = Client {
        reader: BufReader::new(stream),
        request: format!(
            "POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{doc}",
            doc.len()
        )
        .into_bytes(),
        line: String::with_capacity(256),
        body: Vec::with_capacity(4096),
    };

    // settles every lazy, traffic-independent cost: DFAs, plan caches,
    // metric families, the connection's buffers
    for _ in 0..WARM_UP {
        assert_eq!(client.round_trip(), 200);
    }
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        assert_eq!(client.round_trip(), 200);
    }
    let growth = LIVE.load(Ordering::Relaxed) - before;

    drop(client);
    server.drain();
    obs::shutdown();
    assert!(
        growth < BUDGET_BYTES,
        "live heap grew by {growth} B over {MEASURED} observed keep-alive requests \
         (budget {BUDGET_BYTES} B)"
    );
}
