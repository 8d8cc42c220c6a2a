//! Socket-level conformance battery for the HTTP validation service.
//!
//! The claim under test is *byte equivalence*: the verdict a document
//! gets over a loopback TCP connection is exactly the verdict the
//! library's streaming validator renders for the same document — same
//! error kinds, same messages, same spans — because both sides render
//! through the same canonical `serve::json`. Every purchase-order and
//! WML document in the corpus goes over the wire; hostile documents
//! must come back `422` with the same typed `Resource` kind the library
//! reports; and a schema hot-swap under concurrent traffic must never
//! produce a torn verdict.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use limits::Limits;
use serve::{Server, ServerConfig};
use webgen::SchemaRegistry;

const BILLION_LAUGHS: &str = include_str!("../corpora/hostile/billion_laughs.xml");
const DEEP_NESTING: &str = include_str!("../corpora/hostile/deep_nesting.xml");
const MANY_ATTRIBUTES: &str = include_str!("../corpora/hostile/many_attributes.xml");
const QUADRATIC_BLOWUP: &str = include_str!("../corpora/hostile/quadratic_blowup.xml");

/// A complete, valid WML deck exercising mixed content, attributes,
/// empty elements and the select/option nesting.
const WML_VALID: &str = r#"<?xml version="1.0"?>
<wml>
  <card id="home" title="Caf&#233; menu">
    <p align="center">Welcome <b>back</b><br/>choose a drink:</p>
    <p><select name="drink" multiple="false">
      <option value="espresso">Espresso</option>
      <option value="flat-white">Flat white</option>
    </select></p>
    <p><a href="http://example.org/next">more</a></p>
  </card>
  <card id="second"><p>done</p></card>
</wml>
"#;

/// Structurally broken WML: `option` is missing its required `value`
/// attribute and a stray element sits where only cards may appear.
const WML_INVALID: &str = r#"<?xml version="1.0"?>
<wml>
  <card id="a"><p><select name="d"><option>no value</option></select></p></card>
  <rogue/>
</wml>
"#;

/// Not well-formed at all: tag soup.
const WML_MALFORMED: &str = "<wml><card></wml>";

fn corpus_server() -> (Arc<SchemaRegistry>, Server) {
    let registry = Arc::new(SchemaRegistry::with_corpus().unwrap());
    let server = Server::start(registry.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    (registry, server)
}

/// Reads one HTTP response off `reader`: `(status, body)`.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<u8>) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
        .parse()
        .unwrap();
    let mut len = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            len = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).unwrap();
    (status, body)
}

/// One-shot request: connect, send, read one response, close.
fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let (status, body) = read_response(&mut reader);
    (status, String::from_utf8(body).unwrap())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The whole serving corpus: every generated purchase order plus the
/// WML documents, valid and broken.
fn corpus() -> Vec<(&'static str, String)> {
    let mut docs = Vec::new();
    for seed in 0..8u64 {
        let order = webgen::generate_order(seed, 1 + (seed as usize % 7));
        docs.push(("purchase-order", webgen::render_order_string(&order)));
    }
    // a tampered order: wrong element where the schema expects items
    let tampered = webgen::render_order_string(&webgen::generate_order(3, 2))
        .replace("<shipTo", "<shipFrom")
        .replace("</shipTo", "</shipFrom");
    docs.push(("purchase-order", tampered));
    // a PO document aimed at the wrong schema is schema-invalid, not an error
    docs.push((
        "wml",
        webgen::render_order_string(&webgen::generate_order(1, 1)),
    ));
    docs.push(("wml", WML_VALID.to_string()));
    docs.push(("wml", WML_INVALID.to_string()));
    docs.push(("wml", WML_MALFORMED.to_string()));
    docs
}

#[test]
fn every_corpus_document_gets_the_library_verdict_byte_for_byte() {
    let (registry, server) = corpus_server();
    let addr = server.addr();
    let mut checked = 0;
    for (schema, doc) in corpus() {
        let expected_errors = registry.validate_streaming(schema, &doc).unwrap();
        let expected_body = serve::json::verdict_json(schema, &expected_errors);
        let expected_status = serve::json::status_for(&expected_errors);
        let (status, body) = post(addr, &format!("/v1/validate/{schema}"), &doc);
        assert_eq!(status, expected_status, "{schema}: {body}");
        assert_eq!(
            body, expected_body,
            "{schema}: verdict drifted over the wire"
        );
        checked += 1;
    }
    assert!(checked >= 13);
    server.drain();
}

#[test]
fn keep_alive_reuse_does_not_leak_budget_between_requests() {
    // many documents over ONE connection: each request must be validated
    // under a fresh budget (a cumulative-limit leak across keep-alive
    // requests would eventually flip verdicts)
    let (registry, server) = corpus_server();
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let doc = webgen::render_order_string(&webgen::generate_order(7, 6));
    let expected = serve::json::verdict_json(
        "purchase-order",
        &registry.validate_streaming("purchase-order", &doc).unwrap(),
    );
    for i in 0..32 {
        stream
            .write_all(
                format!(
                    "POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                    doc.len(),
                    doc
                )
                .as_bytes(),
            )
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "request {i}");
        assert_eq!(String::from_utf8(body).unwrap(), expected, "request {i}");
    }
    server.drain();
}

#[test]
fn hostile_documents_come_back_422_with_the_library_resource_kind() {
    let (registry, server) = corpus_server();
    let addr = server.addr();
    for (label, doc) in [
        ("billion_laughs", BILLION_LAUGHS),
        ("deep_nesting", DEEP_NESTING),
        ("many_attributes", MANY_ATTRIBUTES),
        ("quadratic_blowup", QUADRATIC_BLOWUP),
    ] {
        let expected_errors = registry.validate_streaming("purchase-order", doc).unwrap();
        let expected_body = serve::json::verdict_json("purchase-order", &expected_errors);
        assert_eq!(
            serve::json::status_for(&expected_errors),
            422,
            "{label}: hostile corpus doc no longer trips a budget"
        );
        let (status, body) = post(addr, "/v1/validate/purchase-order", doc);
        assert_eq!(status, 422, "{label}: {body}");
        assert_eq!(body, expected_body, "{label}: typed rejection drifted");
        let kind = serve::json::resource_kind(&expected_errors).unwrap();
        assert!(
            body.contains(&format!("\"resource\":\"{}\"", kind.label())),
            "{label}: {body}"
        );
    }
    server.drain();
}

#[test]
fn batch_endpoint_matches_the_parallel_library_verdicts() {
    let (registry, server) = corpus_server();
    let addr = server.addr();
    let docs: Vec<String> = vec![
        webgen::render_order_string(&webgen::generate_order(1, 2)),
        WML_MALFORMED.to_string(),
        webgen::render_order_string(&webgen::generate_order(2, 4)),
        String::new(),
    ];
    let mut body = String::new();
    for doc in &docs {
        body.push_str(&format!("{}\n{}", doc.len(), doc));
    }
    let refs: Vec<&str> = docs.iter().map(|d| d.as_str()).collect();
    let pool = pool::ThreadPool::new(2);
    let expected_lists = registry
        .validate_batch_parallel("purchase-order", &refs, &pool, &limits::Limits::default())
        .unwrap();
    let expected = serve::json::batch_json("purchase-order", &expected_lists);
    let (status, got) = post(addr, "/v1/batch/purchase-order", &body);
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, expected, "batch verdicts drifted over the wire");
    server.drain();
}

#[test]
fn unknown_schema_is_404_and_bad_upload_is_400() {
    let (_registry, server) = corpus_server();
    let addr = server.addr();
    let (status, body) = post(addr, "/v1/validate/nope", "<a/>");
    assert_eq!(status, 404, "{body}");
    let (status, body) = request(
        addr,
        "PUT /v1/schemas/broken HTTP/1.1\r\nHost: t\r\nContent-Length: 12\r\nConnection: close\r\n\r\nnot a schema",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("failed to compile"), "{body}");
    server.drain();
}

#[test]
fn hot_swap_under_traffic_never_serves_a_torn_verdict() {
    let (registry, server) = corpus_server();
    let addr = server.addr();
    // precompute the only two legal verdicts for WML_VALID under the
    // two schemas that will alternate under the name "swap"
    let under_wml = serve::json::verdict_json(
        "swap",
        &validator::validate_str_streaming(
            &schema::CompiledSchema::parse(schema::corpus::WML_XSD).unwrap(),
            WML_VALID,
            &Limits::default(),
        ),
    );
    let under_po = serve::json::verdict_json(
        "swap",
        &validator::validate_str_streaming(
            &schema::CompiledSchema::parse(schema::corpus::PURCHASE_ORDER_XSD).unwrap(),
            WML_VALID,
            &Limits::default(),
        ),
    );
    assert_ne!(under_wml, under_po);
    registry.register("swap", schema::corpus::WML_XSD).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut hammers = Vec::new();
    for _ in 0..4 {
        let stop = stop.clone();
        let under_wml = under_wml.clone();
        let under_po = under_po.clone();
        hammers.push(thread::spawn(move || {
            let mut served = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let (status, body) = request(
                    addr,
                    &format!(
                        "POST /v1/validate/swap HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                        WML_VALID.len(),
                        WML_VALID
                    ),
                );
                assert_eq!(status, 200, "{body}");
                assert!(
                    body == under_wml || body == under_po,
                    "torn verdict during hot swap: {body}"
                );
                served += 1;
            }
            served
        }));
    }
    for i in 0..30 {
        let xsd = if i % 2 == 0 {
            schema::corpus::PURCHASE_ORDER_XSD
        } else {
            schema::corpus::WML_XSD
        };
        let (status, body) = request(
            addr,
            &format!(
                "PUT /v1/schemas/swap HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                xsd.len(),
                xsd
            ),
        );
        assert_eq!(status, 200, "swap {i}: {body}");
        assert!(body.contains("\"replaced\":true"), "{body}");
        thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    let total: u32 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "hammer threads never got a request through");
    server.drain();
}

#[test]
fn tenant_header_selects_the_admission_budget() {
    // the "small" tenant's depth ceiling trips on a document the default
    // tenant sails through — same document, different verdict, selected
    // purely by the X-Tenant header
    let registry = Arc::new(SchemaRegistry::with_corpus().unwrap());
    let cfg = ServerConfig {
        tenants: serve::TenantTable::new(limits::Limits::default())
            .with("small", limits::Limits::default().with_max_depth(2)),
        ..ServerConfig::default()
    };
    let server = Server::start(registry.clone(), "127.0.0.1:0", cfg).unwrap();
    let addr = server.addr();
    let doc = webgen::render_order_string(&webgen::generate_order(5, 3));
    let (status, body) = post(addr, "/v1/validate/purchase-order", &doc);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"valid\":true"), "{body}");
    let (status, body) = request(
        addr,
        &format!(
            "POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nX-Tenant: small\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            doc.len(),
            doc
        ),
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"resource\":\"DepthExceeded\""), "{body}");
    server.drain();
}
