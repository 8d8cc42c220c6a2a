//! xmlserved: the validation service as a process. Boots the corpus
//! registry behind the std-only HTTP front end and serves until stdin
//! closes (so `echo | xmlserved` or a supervisor pipe ends it with a
//! graceful drain — std has no signal handling to hook).
//!
//! ```text
//! cargo run --release -p examples --bin xmlserved -- [addr]
//! cargo run --release -p examples --bin xmlserved -- --self-test
//! ```
//!
//! `addr` defaults to `127.0.0.1:8080`; pass `127.0.0.1:0` for an
//! ephemeral port (printed at boot). `--self-test` boots on an
//! ephemeral port, drives a scripted request sweep over loopback —
//! valid and invalid documents, a hostile deep-nesting document, an
//! oversized declared length, a batch, a schema hot-swap, the health
//! and metrics endpoints — checks every status against expectation, and
//! exits non-zero on any surprise. The verify gate runs exactly this.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use serve::{Server, ServerConfig};
use webgen::SchemaRegistry;

fn main() {
    let arg = std::env::args().nth(1);
    obs::enable();
    let registry = Arc::new(SchemaRegistry::with_corpus().expect("corpus schemas compile"));
    registry.get("purchase-order").unwrap().warm();
    registry.get("wml").unwrap().warm();

    match arg.as_deref() {
        Some("--self-test") => self_test(registry),
        addr => serve_until_stdin_eof(registry, addr.unwrap_or("127.0.0.1:8080")),
    }
}

fn serve_until_stdin_eof(registry: Arc<SchemaRegistry>, addr: &str) {
    let server =
        Server::start(registry, addr, ServerConfig::default()).expect("bind the service address");
    println!("xmlserved listening on http://{}", server.addr());
    println!("  POST /v1/validate/{{schema}}   POST /v1/batch/{{schema}}");
    println!("  PUT  /v1/schemas/{{name}}      GET /metrics  GET /healthz");
    println!("serving until stdin closes...");
    let mut sink = String::new();
    let stdin = std::io::stdin();
    loop {
        sink.clear();
        match stdin.lock().read_line(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    println!("stdin closed; draining in-flight requests");
    server.drain();
    println!("drained cleanly");
}

// --- the scripted sweep the verify gate runs -------------------------

fn request(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to own server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).expect("write request");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .expect("read status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
        .parse()
        .expect("numeric status");
    let mut len = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            len = v.trim().parse().expect("numeric content-length");
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("read body");
    (status, String::from_utf8_lossy(&body).into_owned())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: s\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn check(label: &str, want: u16, got: (u16, String)) {
    let (status, body) = got;
    if status != want {
        eprintln!("self-test FAILED: {label}: expected {want}, got {status}: {body}");
        std::process::exit(1);
    }
    println!("self-test ok: {label} -> {status}");
}

fn self_test(registry: Arc<SchemaRegistry>) {
    let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port");
    let addr = server.addr();
    println!("self-test server on http://{addr}");

    let valid = webgen::render_order_string(&webgen::generate_order(11, 4));
    check(
        "healthz",
        200,
        request(
            addr,
            b"GET /healthz HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n",
        ),
    );
    let (status, body) = post(addr, "/v1/validate/purchase-order", &valid);
    if !body.contains("\"valid\":true") {
        eprintln!("self-test FAILED: valid PO judged invalid: {body}");
        std::process::exit(1);
    }
    check("validate valid purchase order", 200, (status, body));
    let (status, body) = post(
        addr,
        "/v1/validate/purchase-order",
        "<order><junk/></order>",
    );
    if !body.contains("\"valid\":false") {
        eprintln!("self-test FAILED: invalid doc judged valid: {body}");
        std::process::exit(1);
    }
    check("validate invalid document", 200, (status, body));
    let hostile = format!("{}{}", "<d>".repeat(5_000), "</d>".repeat(5_000));
    let (status, body) = post(addr, "/v1/validate/purchase-order", &hostile);
    if !body.contains("\"resource\":\"DepthExceeded\"") {
        eprintln!("self-test FAILED: hostile doc not typed-rejected: {body}");
        std::process::exit(1);
    }
    check("hostile document typed rejection", 422, (status, body));
    check(
        "oversized declared length refused before read",
        413,
        request(
            addr,
            b"POST /v1/validate/purchase-order HTTP/1.1\r\nHost: s\r\nContent-Length: 104857600\r\nConnection: close\r\n\r\n",
        ),
    );
    check(
        "unknown schema",
        404,
        post(addr, "/v1/validate/nope", "<a/>"),
    );
    let mut batch = String::new();
    for seed in 0..4u64 {
        let doc = webgen::render_order_string(&webgen::generate_order(seed, 2));
        batch.push_str(&format!("{}\n{}", doc.len(), doc));
    }
    let (status, body) = post(addr, "/v1/batch/purchase-order", &batch);
    if !body.contains("\"docs\":4") {
        eprintln!("self-test FAILED: batch lost documents: {body}");
        std::process::exit(1);
    }
    check("batch of 4", 200, (status, body));
    check(
        "schema hot-swap",
        200,
        request(
            addr,
            format!(
                "PUT /v1/schemas/wml HTTP/1.1\r\nHost: s\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                schema::corpus::WML_XSD.len(),
                schema::corpus::WML_XSD
            )
            .as_bytes(),
        ),
    );
    check(
        "malformed request line",
        400,
        request(addr, b"NONSENSE\r\n\r\n"),
    );

    let (status, metrics) = request(
        addr,
        b"GET /metrics HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n",
    );
    check("metrics scrape", 200, (status, metrics.clone()));
    for needle in [
        "http_requests_total{code=\"200\"}",
        "http_requests_total{code=\"413\"}",
        "http_requests_total{code=\"422\"}",
        "http_connections_total",
        "http_request_seconds",
        "registry_validate_seconds",
        "limit_trips_total",
    ] {
        if !metrics.contains(needle) {
            eprintln!("self-test FAILED: /metrics is missing {needle}");
            std::process::exit(1);
        }
        println!("self-test ok: metrics export {needle}");
    }
    server.drain();
    println!("self-test ok: graceful drain");
    println!("xmlserved self-test OK");
}
