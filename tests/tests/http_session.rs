//! Socket-level battery for the `/v1/session` endpoints: create →
//! patch → invalid patch, with the wire verdict proven identical to the
//! library's [`webgen::DocSession`] for the same document and patch;
//! plus session expiry, capacity refusal, and a graceful drain that
//! completes an in-flight patch request.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use limits::Limits;
use serve::{Server, ServerConfig};
use validator::{DomPatch, PatchError};
use webgen::SchemaRegistry;

/// A compact purchase order with fully deterministic child indexes:
/// root `[0]`, items `[0,2]`, first item `[0,2,0]`, its quantity
/// `[0,2,0,1]`, the quantity text `[0,2,0,1,0]`.
const PO_DOC: &str = "<purchaseOrder orderDate=\"1999-10-20\">\
    <shipTo country=\"US\"><name>Alice</name><street>123 Maple</street>\
    <city>Mill Valley</city><state>CA</state><zip>90952</zip></shipTo>\
    <billTo country=\"US\"><name>Robert</name><street>8 Oak</street>\
    <city>Old Town</city><state>PA</state><zip>95819</zip></billTo>\
    <items><item partNum=\"872-AA\"><productName>Lawnmower</productName>\
    <quantity>1</quantity><USPrice>148.95</USPrice></item></items>\
    </purchaseOrder>";

const NEW_ITEM: &str = "<item partNum=\"926-AA\"><productName>Baby Monitor</productName>\
    <quantity>1</quantity><USPrice>39.98</USPrice></item>";

fn corpus_server(cfg: ServerConfig) -> (Arc<SchemaRegistry>, Server) {
    let registry = Arc::new(SchemaRegistry::with_corpus().unwrap());
    let server = Server::start(registry.clone(), "127.0.0.1:0", cfg).unwrap();
    (registry, server)
}

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

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn delete(addr: SocketAddr, path: &str) -> (u16, String) {
    request(
        addr,
        &format!("DELETE {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

/// Creates a session over the wire and returns its id.
fn open_wire_session(addr: SocketAddr, schema: &str, doc: &str) -> String {
    let (status, body) = post(addr, &format!("/v1/session/{schema}"), doc);
    assert_eq!(status, 201, "session create failed: {body}");
    let parsed = serve::json::parse_json(&body).unwrap();
    parsed.get("session").unwrap().as_str().unwrap().to_string()
}

#[test]
fn session_lifecycle_matches_library_verdicts() {
    let (registry, server) = corpus_server(ServerConfig::default());
    let addr = server.addr();
    let id = open_wire_session(addr, "purchase-order", PO_DOC);

    // the library twin: same schema, same document, same patches
    let mut twin = registry
        .open_session("purchase-order", PO_DOC, Limits::default())
        .unwrap();

    // a committing patch reports locality counters
    let append = format!(
        "{{\"op\":\"append_child\",\"path\":[0,2],\"node\":{{\"kind\":\"element\",\"xml\":{}}}}}",
        {
            // escape_into renders a complete JSON string, quotes included
            let mut s = String::new();
            serve::json::escape_into(&mut s, NEW_ITEM);
            s
        }
    );
    let (status, body) = post(addr, &format!("/v1/session/{id}/patch"), &append);
    assert_eq!(status, 200, "{body}");
    let parsed = serve::json::parse_json(&body).unwrap();
    assert_eq!(parsed.get("applied").and_then(|v| v.as_str()), None);
    assert!(body.contains("\"applied\":true"), "{body}");
    assert!(body.contains("\"op\":\"append_child\""), "{body}");
    twin.apply(&DomPatch::AppendChild {
        at: vec![0, 2],
        child: validator::NewNode::Element {
            xml: NEW_ITEM.into(),
        },
    })
    .unwrap();
    let rechecked = parsed.get("nodes_rechecked").unwrap().as_usize().unwrap();
    assert_eq!(rechecked, twin.validator().nodes_rechecked());

    // an invalid patch comes back 200 {"applied":false, …} with the
    // exact typed error list the library reports
    let bad = "{\"op\":\"set_text\",\"path\":[0,2,0,1,0],\"text\":\"900\"}";
    let (status, body) = post(addr, &format!("/v1/session/{id}/patch"), bad);
    assert_eq!(status, 200, "{body}");
    let errors = match twin.apply(&DomPatch::SetText {
        at: vec![0, 2, 0, 1, 0],
        text: "900".into(),
    }) {
        Err(PatchError::Invalid(errors)) => errors,
        other => panic!("library verdict drifted: {other:?}"),
    };
    let expected = format!(
        "{{\"applied\":false,{}",
        &serve::json::verdict_json("purchase-order", &errors)[1..]
    );
    assert_eq!(body, expected, "wire rejection drifted from the library");

    // the held document is the patched-and-rolled-back one: identical to
    // the twin's, and still schema-valid
    let (status, xml) = get(addr, &format!("/v1/session/{id}"));
    assert_eq!(status, 200);
    assert_eq!(xml, twin.to_xml(), "wire document drifted from the library");
    assert!(registry
        .validate_streaming("purchase-order", &xml)
        .unwrap()
        .is_empty());

    // structurally impossible patches are 400, not 200-rejected
    let (status, body) = post(
        addr,
        &format!("/v1/session/{id}/patch"),
        "{\"op\":\"remove_child\",\"path\":[0],\"index\":99}",
    );
    assert_eq!(status, 400, "{body}");

    // malformed JSON and unknown ops are 400 with a typed message
    for bad in [
        "not json",
        "{}",
        "{\"op\":\"warp\",\"path\":[0]}",
        "{\"op\":\"set_text\",\"path\":\"zero\",\"text\":\"x\"}",
        "{\"op\":\"set_text\",\"path\":[0,-1],\"text\":\"x\"}",
    ] {
        let (status, body) = post(addr, &format!("/v1/session/{id}/patch"), bad);
        assert_eq!(status, 400, "{bad:?} → {body}");
    }

    // delete closes it; everything afterwards is 404
    let (status, body) = delete(addr, &format!("/v1/session/{id}"));
    assert_eq!(status, 200);
    assert!(body.contains("\"closed\":true"), "{body}");
    assert_eq!(delete(addr, &format!("/v1/session/{id}")).0, 404);
    assert_eq!(get(addr, &format!("/v1/session/{id}")).0, 404);
    assert_eq!(post(addr, &format!("/v1/session/{id}/patch"), bad).0, 404);

    server.drain();
}

#[test]
fn session_create_failures_are_typed() {
    let (registry, server) = corpus_server(ServerConfig::default());
    let addr = server.addr();

    // unknown schema
    let (status, _) = post(addr, "/v1/session/nope", PO_DOC);
    assert_eq!(status, 404);

    // invalid document: a session cannot open, and the error list is the
    // same one /v1/validate would produce
    let invalid = PO_DOC.replace("872-AA", "oops");
    let (status, body) = post(addr, "/v1/session/purchase-order", &invalid);
    assert_eq!(status, 422, "{body}");
    let expected_errors = registry
        .validate_streaming("purchase-order", &invalid)
        .unwrap();
    assert_eq!(
        body,
        serve::json::verdict_json("purchase-order", &expected_errors)
    );

    // malformed XML
    let (status, body) = post(addr, "/v1/session/purchase-order", "<purchaseOrder>");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("NotWellFormed"), "{body}");

    // wrong method on the session routes is 405
    let (status, _) = get(addr, "/v1/session");
    assert!(status == 404 || status == 405, "got {status}");
    let (status, _) = request(
        addr,
        "PUT /v1/session/1/patch HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);

    server.drain();
}

#[test]
fn session_capacity_and_idle_expiry() {
    let cfg = ServerConfig {
        max_sessions: 2,
        session_idle: Duration::from_millis(80),
        ..ServerConfig::default()
    };
    let (_registry, server) = corpus_server(cfg);
    let addr = server.addr();

    let _a = open_wire_session(addr, "purchase-order", PO_DOC);
    let b = open_wire_session(addr, "purchase-order", PO_DOC);

    // at capacity: refused with 503, not an eviction of a live session
    let (status, body) = post(addr, "/v1/session/purchase-order", PO_DOC);
    assert_eq!(status, 503, "{body}");
    // the parked sessions still answer
    assert_eq!(get(addr, &format!("/v1/session/{b}")).0, 200);

    // past the idle TTL both sessions are swept on the next access and
    // capacity frees up
    thread::sleep(Duration::from_millis(160));
    let c = open_wire_session(addr, "purchase-order", PO_DOC);
    assert_eq!(get(addr, &format!("/v1/session/{c}")).0, 200);
    // the expired ones are gone
    assert_eq!(get(addr, &format!("/v1/session/{b}")).0, 404);

    server.drain();
}

#[test]
fn drain_completes_in_flight_patch_requests() {
    let (_registry, server) = corpus_server(ServerConfig::default());
    let addr = server.addr();
    let id = open_wire_session(addr, "purchase-order", PO_DOC);

    // start a patch request but hold back the final body byte so it is
    // in flight when the drain begins
    let body = "{\"op\":\"set_attr\",\"path\":[0],\"name\":\"orderDate\",\"value\":\"2000-01-01\"}";
    let head = format!(
        "POST /v1/session/{id}/patch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(head.as_bytes()).unwrap();
    stream
        .write_all(&body.as_bytes()[..body.len() - 1])
        .unwrap();
    stream.flush().unwrap();

    let finisher = thread::spawn(move || {
        thread::sleep(Duration::from_millis(120));
        stream
            .write_all(&body.as_bytes()[body.len() - 1..])
            .unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        read_response(&mut reader)
    });

    // drain while the request above is mid-body: it must still complete
    server.drain();
    let (status, resp) = finisher.join().unwrap();
    let resp = String::from_utf8(resp).unwrap();
    assert_eq!(status, 200, "in-flight patch dropped during drain: {resp}");
    assert!(resp.contains("\"applied\":true"), "{resp}");
}

#[test]
fn zero_idle_sessions_open_and_never_leak_a_connection_slot() {
    // with a zero idle TTL every table access sweeps the session that was
    // just parked; opening must still answer 201, and the connection slot
    // must come back even when a handler fails
    let cfg = ServerConfig {
        session_idle: Duration::ZERO,
        max_connections: 2,
        ..ServerConfig::default()
    };
    let (_registry, server) = corpus_server(cfg);
    let addr = server.addr();

    let mut last = String::new();
    for _ in 0..4 {
        last = open_wire_session(addr, "purchase-order", PO_DOC);
    }
    thread::sleep(Duration::from_millis(5));
    assert_eq!(get(addr, &format!("/v1/session/{last}")).0, 404);
    assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.active_connections() > 0 && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.active_connections(), 0, "a connection slot leaked");
    server.drain();
}
