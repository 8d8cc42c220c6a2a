//! The error surface of the HTTP service, pinned byte for byte: one
//! table of requests that each hit one error branch, sent as keep-alive
//! requests on a fresh connection. For every row the status code, the
//! `Content-Type`, the exact body and the `Connection` header are fixed;
//! a row announcing `keep-alive` must then really serve a follow-up
//! request on the same socket, and a row announcing `close` must see the
//! socket closed.
//!
//! The streamed `/v1/validate` budget trip is not a row: its verdict
//! reports how many bytes had arrived when the budget tripped, which
//! depends on how the socket delivered them (`http_torture` covers it).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use limits::Limits;
use serve::{Server, ServerConfig, TenantTable};
use webgen::SchemaRegistry;

/// Input budget of the default tenant: small enough that the 413 rows
/// stay a few kilobytes.
const INPUT_BUDGET: usize = 4096;

const PO_DOC: &str = "<purchaseOrder orderDate=\"1999-10-20\">\
    <shipTo country=\"US\"><name>Alice</name><street>123 Maple</street>\
    <city>Mill Valley</city><state>CA</state><zip>90952</zip></shipTo>\
    <billTo country=\"US\"><name>Robert</name><street>8 Oak</street>\
    <city>Old Town</city><state>PA</state><zip>95819</zip></billTo>\
    <items><item partNum=\"872-AA\"><productName>Lawnmower</productName>\
    <quantity>1</quantity><USPrice>148.95</USPrice></item></items>\
    </purchaseOrder>";

struct Response {
    status: u16,
    content_type: String,
    connection: String,
    body: Vec<u8>,
}

/// Reads one response; `None` when the peer closed before a status line.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<Response> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).ok()? == 0 {
        return None;
    }
    let status = status_line.split(' ').nth(1)?.parse().ok()?;
    let (mut content_type, mut connection, mut len) = (String::new(), String::new(), 0usize);
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':')?;
        match name.to_ascii_lowercase().as_str() {
            "content-type" => content_type = value.trim().to_string(),
            "connection" => connection = value.trim().to_string(),
            "content-length" => len = value.trim().parse().ok()?,
            _ => {}
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).ok()?;
    Some(Response {
        status,
        content_type,
        connection,
        body,
    })
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// A request with no body and no framing headers.
fn bare(method: &str, path: &str) -> Vec<u8> {
    format!("{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes()
}

/// A request carrying `body` under `Content-Length`.
fn sized(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// A request declaring a `Content-Length` of `n` and sending no body.
fn declared(method: &str, path: &str, n: u64) -> Vec<u8> {
    format!("{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {n}\r\n\r\n").into_bytes()
}

/// A request with an unparseable `Content-Length`.
fn bad_framing(method: &str, path: &str) -> Vec<u8> {
    format!("{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 12x\r\n\r\n").into_bytes()
}

/// A chunked request whose body is one chunk of `n` bytes: no declared
/// length, so only reading past the cap can refuse it.
fn one_chunk(method: &str, path: &str, n: usize) -> Vec<u8> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n{n:x}\r\n"
    )
    .into_bytes();
    raw.extend(std::iter::repeat_n(b'x', n));
    raw.extend_from_slice(b"\r\n0\r\n\r\n");
    raw
}

/// A chunked request whose first chunk-size line is not hex.
fn bad_chunk(method: &str, path: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nabc\r\n0\r\n\r\n"
    )
    .into_bytes()
}

/// A request with one raw `header` line of the caller's choosing,
/// followed by `body` as is.
fn with_header(method: &str, path: &str, header: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: t\r\n{header}\r\n\r\n").into_bytes();
    raw.extend_from_slice(body);
    raw
}

struct Case {
    name: &'static str,
    request: Vec<u8>,
    status: u16,
    body: &'static str,
    close: bool,
}

fn case(
    name: &'static str,
    request: Vec<u8>,
    status: u16,
    body: &'static str,
    close: bool,
) -> Case {
    Case {
        name,
        request,
        status,
        body,
        close,
    }
}

#[rustfmt::skip]
fn cases() -> Vec<Case> {
    const VALIDATE: &str = "/v1/validate/purchase-order";
    const BATCH: &str = "/v1/batch/purchase-order";
    const SCHEMA: &str = "/v1/schemas/extra";
    const SESSION: &str = "/v1/session/purchase-order";
    const PATCH: &str = "/v1/session/1/patch";
    vec![
        // /v1/validate
        case("validate 411", bare("POST", VALIDATE), 411,
            r#"{"error":"a document body is required"}"#, false),
        case("validate bad framing", bad_framing("POST", VALIDATE), 400,
            r#"{"error":"bad body framing"}"#, true),
        case("validate declared 413", declared("POST", VALIDATE, 8192), 413,
            r#"{"schema":"purchase-order","valid":false,"resource":"InputTooLarge","errors":[{"kind":"InputTooLarge","message":"resource budget exceeded: input is 8192 bytes, over the 4096-byte budget","span":null}]}"#,
            true),
        case("validate bad chunk", bad_chunk("POST", VALIDATE), 400,
            r#"{"error":"bad chunked body framing"}"#, true),
        // optional whitespace around a header value is SP and HTAB only
        // (RFC 9110 §5.6.3): other Unicode spaces stay part of the value
        case("validate content-length + VT", with_header("POST", VALIDATE, "Content-Length: 4\u{b}", b"<a/>"),
            400, r#"{"error":"bad body framing"}"#, true),
        case("validate NBSP + content-length", with_header("POST", VALIDATE, "Content-Length:\u{a0}4", b"<a/>"),
            400, r#"{"error":"bad body framing"}"#, true),
        case("validate chunked + FF", with_header("POST", VALIDATE, "Transfer-Encoding: chunked\u{c}",
            b"4\r\n<a/>\r\n0\r\n\r\n"), 400, r#"{"error":"bad body framing"}"#, true),
        case("validate chunk size + VT", with_header("POST", VALIDATE, "Transfer-Encoding: chunked",
            b"4\x0b\r\n<a/>\r\n0\r\n\r\n"), 400, r#"{"error":"bad chunked body framing"}"#, true),
        case("validate unknown schema", sized("POST", "/v1/validate/nope", b"<a/>"), 404,
            r#"{"error":"no schema registered under \"nope\""}"#, false),
        // /v1/batch
        case("batch 411", bare("POST", BATCH), 411,
            r#"{"error":"a batch body is required"}"#, false),
        case("batch bad framing", bad_framing("POST", BATCH), 400,
            r#"{"error":"bad body framing"}"#, true),
        case("batch declared 413", declared("POST", BATCH, 8192), 413,
            r#"{"error":"batch body exceeds the tenant input budget"}"#, true),
        case("batch read-past-cap 413", one_chunk("POST", BATCH, INPUT_BUDGET + 1), 413,
            r#"{"error":"batch body exceeds the tenant input budget"}"#, true),
        case("batch bad chunk", bad_chunk("POST", BATCH), 400,
            r#"{"error":"bad chunked body framing"}"#, true),
        case("batch missing length prefix", sized("POST", BATCH, b"abc"), 400,
            r#"{"error":"bad batch framing: missing length prefix"}"#, false),
        case("batch bad length prefix", sized("POST", BATCH, b"x\nabc"), 400,
            r#"{"error":"bad batch framing: bad length prefix"}"#, false),
        case("batch truncated frame", sized("POST", BATCH, b"10\nabc"), 400,
            r#"{"error":"bad batch framing: truncated frame"}"#, false),
        case("batch frame not UTF-8", sized("POST", BATCH, b"2\n\xff\xfe"), 400,
            r#"{"error":"bad batch framing: frame is not UTF-8"}"#, false),
        case("batch too many docs", sized("POST", BATCH, b"1\na1\nb1\nc"), 413,
            r#"{"error":"too many documents in one batch"}"#, false),
        case("batch unknown schema", sized("POST", "/v1/batch/nope", b"4\n<a/>"), 404,
            r#"{"error":"no schema registered under \"nope\""}"#, false),
        // PUT /v1/schemas
        case("schema 411", bare("PUT", SCHEMA), 411,
            r#"{"error":"a schema body is required"}"#, false),
        case("schema bad framing", bad_framing("PUT", SCHEMA), 400,
            r#"{"error":"bad body framing"}"#, true),
        case("schema declared 413", declared("PUT", SCHEMA, 1000), 413,
            r#"{"error":"schema body too large"}"#, true),
        case("schema read-past-cap 413", one_chunk("PUT", SCHEMA, 257), 413,
            r#"{"error":"schema body too large"}"#, true),
        case("schema not UTF-8", sized("PUT", SCHEMA, b"\xff\xfe"), 400,
            r#"{"error":"schema body is not UTF-8"}"#, false),
        // /v1/session
        case("session 411", bare("POST", SESSION), 411,
            r#"{"error":"a document body is required"}"#, false),
        case("session bad framing", bad_framing("POST", SESSION), 400,
            r#"{"error":"bad body framing"}"#, true),
        case("session declared 413", declared("POST", SESSION, 8192), 413,
            r#"{"error":"document body too large"}"#, true),
        case("session read-past-cap 413", one_chunk("POST", SESSION, INPUT_BUDGET + 1), 413,
            r#"{"error":"document body too large"}"#, true),
        case("session bad chunk", bad_chunk("POST", SESSION), 400,
            r#"{"error":"bad chunked body framing"}"#, true),
        case("session document not UTF-8", sized("POST", SESSION, b"<a>\xff</a>"), 400,
            r#"{"error":"document body is not UTF-8"}"#, false),
        case("session unknown schema", sized("POST", "/v1/session/nope", PO_DOC.as_bytes()), 404,
            r#"{"error":"no schema registered under \"nope\""}"#, false),
        case("session cap 503", sized("POST", SESSION, PO_DOC.as_bytes()), 503,
            r#"{"error":"session limit reached"}"#, false),
        case("patch 411", bare("POST", PATCH), 411,
            r#"{"error":"a patch body is required"}"#, false),
        case("patch bad framing", bad_framing("POST", PATCH), 400,
            r#"{"error":"bad body framing"}"#, true),
        case("patch declared 413", declared("POST", PATCH, 1 << 30), 413,
            r#"{"error":"patch body too large"}"#, true),
        case("patch not UTF-8", sized("POST", PATCH, b"{\xff}"), 400,
            r#"{"error":"patch body is not UTF-8"}"#, false),
        case("patch bad patch", sized("POST", PATCH, b"{}"), 400,
            r#"{"error":"bad patch: missing string field \"op\""}"#, false),
        case("patch unknown session", sized("POST", "/v1/session/999/patch", b"{}"), 404,
            r#"{"error":"no session \"999\" (expired or never opened)"}"#, false),
        case("get unknown session", bare("GET", "/v1/session/999"), 404,
            r#"{"error":"no session \"999\" (expired or never opened)"}"#, false),
        case("get unparsable session", bare("GET", "/v1/session/abc"), 404,
            r#"{"error":"no session \"abc\" (expired or never opened)"}"#, false),
        case("delete unknown session", bare("DELETE", "/v1/session/999"), 404,
            r#"{"error":"no session \"999\" (expired or never opened)"}"#, false),
        // pages
        case("orders page bad integers", bare("GET", "/v1/page/orders/x/1"), 400,
            r#"{"error":"seed and count must be integers"}"#, false),
        case("orders page over the limit", bare("GET", "/v1/page/orders/1/3"), 400,
            r#"{"error":"item count exceeds the limit"}"#, false),
        case("directory page bad integers", bare("GET", "/v1/page/directory/1/x/1"), 400,
            r#"{"error":"seed, breadth, and depth must be integers"}"#, false),
        case("directory page over the limit", bare("GET", "/v1/page/directory/1/65/1"), 400,
            r#"{"error":"archive size exceeds the limit"}"#, false),
        // routing
        case("405", bare("POST", "/v1/page/orders/1/1"), 405,
            r#"{"error":"method not allowed"}"#, false),
        case("405 with an unread body", sized("DELETE", VALIDATE, b"abc"), 405,
            r#"{"error":"method not allowed"}"#, true),
        case("404", bare("GET", "/nope"), 404, r#"{"error":"no such endpoint"}"#, false),
        case("404 with an unread body", sized("POST", "/nope", b"abc"), 404,
            r#"{"error":"no such endpoint"}"#, true),
        case("bad request head", b"GET / HTTP/9.9\r\nHost: t\r\n\r\n".to_vec(), 400,
            r#"{"error":"unsupported HTTP version"}"#, true),
    ]
}

#[test]
fn every_error_branch_has_a_pinned_status_type_body_and_connection_header() {
    let cfg = ServerConfig {
        tenants: TenantTable::new(Limits::default().with_max_input_bytes(INPUT_BUDGET)),
        max_batch_docs: 2,
        max_schema_bytes: 256,
        max_sessions: 1,
        ..ServerConfig::default()
    };
    let registry = Arc::new(SchemaRegistry::with_corpus().unwrap());
    let server = Server::start(registry, "127.0.0.1:0", cfg).unwrap();
    let addr = server.addr();

    // park the one session the patch rows address and the 503 row needs
    let mut stream = connect(addr);
    stream
        .write_all(&sized(
            "POST",
            "/v1/session/purchase-order",
            PO_DOC.as_bytes(),
        ))
        .unwrap();
    let opened = read_response(&mut BufReader::new(stream)).expect("session open");
    assert_eq!(
        opened.status,
        201,
        "{}",
        String::from_utf8_lossy(&opened.body)
    );
    assert!(opened.body.starts_with(b"{\"session\":\"1\""));

    for case in cases() {
        let mut stream = connect(addr);
        stream.write_all(&case.request).unwrap();
        let mut reader = BufReader::new(stream);
        let got =
            read_response(&mut reader).unwrap_or_else(|| panic!("{}: no response", case.name));
        let body = String::from_utf8_lossy(&got.body);
        assert_eq!(got.status, case.status, "{}: {body}", case.name);
        assert_eq!(got.content_type, "application/json", "{}", case.name);
        assert_eq!(body, case.body, "{}", case.name);
        let expected = if case.close { "close" } else { "keep-alive" };
        assert_eq!(got.connection, expected, "{}: Connection header", case.name);
        if case.close {
            let mut rest = Vec::new();
            let _ = reader.read_to_end(&mut rest);
            assert!(
                rest.is_empty(),
                "{}: bytes after a closing response",
                case.name
            );
        } else {
            reader
                .get_mut()
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let next = read_response(&mut reader)
                .unwrap_or_else(|| panic!("{}: keep-alive connection was closed", case.name));
            assert_eq!(
                (next.status, &next.body[..]),
                (200, &b"ok\n"[..]),
                "{}",
                case.name
            );
        }
    }
    server.drain();
}
