//! Socket-level torture battery: everything a hostile or broken client
//! can do to the wire layer. Malformed request lines and headers,
//! premature closes mid-body, slowloris drips, pipelined keep-alive,
//! chunked bodies split at UTF-8 and tag boundaries, and oversized
//! declared lengths — the server must answer (or close) deterministically
//! and never panic. Each test drains its server, which would hang or
//! crash if a connection worker had died badly.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use serve::{Server, ServerConfig};
use webgen::SchemaRegistry;

fn server_with(cfg: ServerConfig) -> Server {
    let registry = Arc::new(SchemaRegistry::with_corpus().unwrap());
    Server::start(registry, "127.0.0.1:0", cfg).unwrap()
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Reads one response head + body; `None` if the peer closed without
/// answering (legitimate for some protocol violations).
fn try_read_response(reader: &mut BufReader<TcpStream>) -> Option<(u16, String)> {
    let mut status_line = String::new();
    match reader.read_line(&mut status_line) {
        Ok(0) => return None,
        Ok(_) => {}
        Err(_) => return None,
    }
    let status: u16 = status_line.split(' ').nth(1)?.parse().ok()?;
    let mut len = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            len = v.trim().parse().ok()?;
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).ok()?;
    Some((status, String::from_utf8_lossy(&body).into_owned()))
}

/// Sends raw bytes, returns the (optional) response.
fn raw_exchange(addr: SocketAddr, raw: &[u8]) -> Option<(u16, String)> {
    let mut stream = connect(addr);
    stream.write_all(raw).unwrap();
    let mut reader = BufReader::new(stream);
    try_read_response(&mut reader)
}

#[test]
fn malformed_request_lines_and_headers_get_400_never_a_panic() {
    let server = server_with(ServerConfig::default());
    let addr = server.addr();
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9 << 10));
    let many_headers: String =
        (0..120).fold(String::from("GET /healthz HTTP/1.1\r\n"), |mut s, i| {
            s.push_str(&format!("x-h{i}: v\r\n"));
            s
        }) + "\r\n";
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("garbage line", b"GARBAGE\r\n\r\n".to_vec()),
        ("two-part line", b"GET /healthz\r\n\r\n".to_vec()),
        ("four-part line", b"GET / healthz HTTP/1.1\r\n\r\n".to_vec()),
        ("lowercase method", b"get /healthz HTTP/1.1\r\n\r\n".to_vec()),
        ("bad version", b"GET /healthz HTTP/2.0\r\n\r\n".to_vec()),
        ("relative target", b"GET healthz HTTP/1.1\r\n\r\n".to_vec()),
        ("oversized request line", long_line.into_bytes()),
        ("too many headers", many_headers.into_bytes()),
        (
            "space before colon (smuggling)",
            b"GET /healthz HTTP/1.1\r\nHost : t\r\n\r\n".to_vec(),
        ),
        (
            "header without colon",
            b"GET /healthz HTTP/1.1\r\njusttext\r\n\r\n".to_vec(),
        ),
        (
            "control bytes in header name",
            b"GET /healthz HTTP/1.1\r\nx\x01y: v\r\n\r\n".to_vec(),
        ),
        (
            "conflicting content-lengths",
            b"POST /v1/validate/wml HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nab".to_vec(),
        ),
        (
            "content-length plus chunked",
            b"POST /v1/validate/wml HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
        ),
        (
            "non-numeric content-length",
            b"POST /v1/validate/wml HTTP/1.1\r\nContent-Length: ten\r\n\r\n".to_vec(),
        ),
        (
            "bad chunk size",
            b"POST /v1/validate/wml HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhi\r\n0\r\n\r\n".to_vec(),
        ),
    ];
    for (label, raw) in cases {
        match raw_exchange(addr, &raw) {
            Some((status, body)) => {
                assert_eq!(status, 400, "{label}: {body}")
            }
            None => panic!("{label}: server closed without a 400"),
        }
    }
    // after all that abuse the server still serves
    let (status, body) = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    server.drain();
}

#[test]
fn premature_close_mid_body_is_a_400_not_a_hang() {
    let server = server_with(ServerConfig::default());
    let addr = server.addr();
    let mut stream = connect(addr);
    stream
        .write_all(b"POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nContent-Length: 1000\r\n\r\n<purchase")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reader = BufReader::new(stream);
    let (status, body) = try_read_response(&mut reader).expect("no response to a truncated body");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("prematurely"), "{body}");
    server.drain();
}

#[test]
fn slowloris_drip_trips_the_request_deadline() {
    let cfg = ServerConfig {
        request_deadline: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let server = server_with(cfg);
    let addr = server.addr();
    // drip the request head one byte at a time, far slower than the
    // deadline allows; the absolute deadline must cut the client off
    // even though every individual read makes "progress"
    let started = Instant::now();
    let mut stream = connect(addr);
    let head = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    let mut answered = None;
    'drip: for &b in head.iter() {
        if stream.write_all(&[b]).is_err() {
            break 'drip; // server already gave up on us
        }
        thread::sleep(Duration::from_millis(40));
        if started.elapsed() > Duration::from_secs(3) {
            break 'drip;
        }
        // peek for an early 408 without blocking the drip
        stream
            .set_read_timeout(Some(Duration::from_millis(1)))
            .unwrap();
        let mut buf = [0u8; 512];
        match stream.read(&mut buf) {
            Ok(n) if n > 0 => {
                answered = Some(String::from_utf8_lossy(&buf[..n]).into_owned());
                break 'drip;
            }
            Ok(_) => break 'drip,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break 'drip,
        }
    }
    if answered.is_none() {
        // whatever is left of the response
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        if !rest.is_empty() {
            answered = Some(String::from_utf8_lossy(&rest).into_owned());
        }
    }
    let response = answered.expect("slowloris connection was neither answered nor cut off");
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "expected 408 for the drip-fed request, got: {response}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "deadline took {:?} to trip",
        started.elapsed()
    );
    server.drain();
}

#[test]
fn slow_body_drip_trips_the_deadline_with_408() {
    let cfg = ServerConfig {
        request_deadline: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let server = server_with(cfg);
    let addr = server.addr();
    let mut stream = connect(addr);
    // the head arrives instantly; the declared 64-byte body then drips
    // one byte per 150ms — the *body* read must hit the same deadline
    stream
        .write_all(
            b"POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nContent-Length: 64\r\n\r\n",
        )
        .unwrap();
    // a well-formed prefix, so the parser stays suspended wanting more
    // bytes rather than failing fast on tag soup
    for b in b"<purchaseOrder orderDate=" {
        if stream.write_all(&[*b]).is_err() {
            break;
        }
        thread::sleep(Duration::from_millis(150));
    }
    let mut reader = BufReader::new(stream);
    let (status, body) = try_read_response(&mut reader).expect("no response to the slow body");
    assert_eq!(status, 408, "{body}");
    server.drain();
}

const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";

/// Sends `n` back-to-back keep-alive requests on `reader`'s socket and
/// checks each answer, so the connection is in its steady state.
fn warm_up(reader: &mut BufReader<TcpStream>, n: usize) {
    for i in 0..n {
        reader.get_mut().write_all(HEALTHZ).unwrap();
        let (status, body) = try_read_response(reader).unwrap_or_else(|| panic!("request {i}"));
        assert_eq!((status, body.as_str()), (200, "ok\n"), "request {i}");
    }
}

#[test]
fn drip_after_fast_keep_alive_traffic_still_trips_the_deadline() {
    let request_deadline = Duration::from_millis(400);
    let server = server_with(ServerConfig {
        request_deadline,
        ..ServerConfig::default()
    });
    let mut reader = BufReader::new(connect(server.addr()));
    warm_up(&mut reader, 50);
    // the same connection now drips a head one byte per 40ms: complete
    // only after 1.4s, so the 400ms deadline must cut it off first
    let mut dripper = reader.get_ref().try_clone().unwrap();
    let started = Instant::now();
    let drip = thread::spawn(move || {
        for &b in HEALTHZ {
            if dripper.write_all(&[b]).is_err() {
                return; // the server gave up and closed
            }
            thread::sleep(Duration::from_millis(40));
        }
    });
    let answer = try_read_response(&mut reader);
    let elapsed = started.elapsed();
    drip.join().unwrap();
    let (status, body) = answer.expect("no answer to the dripped request");
    assert_eq!(status, 408, "{body}");
    assert!(
        elapsed >= request_deadline && elapsed < request_deadline + Duration::from_secs(1),
        "408 after {elapsed:?}, deadline {request_deadline:?}"
    );
    server.drain();
}

#[test]
fn a_head_dripped_slower_than_the_idle_slice_within_the_deadline_is_served() {
    let server = server_with(ServerConfig {
        request_deadline: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let mut reader = BufReader::new(connect(server.addr()));
    warm_up(&mut reader, 1);
    // seven pieces 150ms apart: each gap outlasts the server's 100ms idle
    // read slice, and the head is complete after about 1s of the 2s
    for (i, piece) in HEALTHZ.chunks(HEALTHZ.len().div_ceil(7)).enumerate() {
        if i > 0 {
            thread::sleep(Duration::from_millis(150));
        }
        reader.get_mut().write_all(piece).unwrap();
    }
    let (status, body) = try_read_response(&mut reader).expect("no answer to the dripped head");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    // and the connection stays usable
    warm_up(&mut reader, 1);
    server.drain();
}

#[test]
fn pipelined_requests_on_one_connection_all_get_answered_in_order() {
    let server = server_with(ServerConfig::default());
    let addr = server.addr();
    let registry = SchemaRegistry::with_corpus().unwrap();
    let doc = webgen::render_order_string(&webgen::generate_order(2, 3));
    let verdict = serve::json::verdict_json(
        "purchase-order",
        &registry.validate_streaming("purchase-order", &doc).unwrap(),
    );
    // three requests written in ONE burst before reading anything
    let mut burst = String::new();
    burst.push_str("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    burst.push_str(&format!(
        "POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        doc.len(),
        doc
    ));
    burst.push_str("GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let mut stream = connect(addr);
    stream.write_all(burst.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let (s1, b1) = try_read_response(&mut reader).unwrap();
    let (s2, b2) = try_read_response(&mut reader).unwrap();
    let (s3, b3) = try_read_response(&mut reader).unwrap();
    assert_eq!((s1, b1.as_str()), (200, "ok\n"));
    assert_eq!(s2, 200);
    assert_eq!(b2, verdict, "pipelined verdict drifted");
    assert_eq!((s3, b3.as_str()), (200, "ok\n"));
    assert!(
        try_read_response(&mut reader).is_none(),
        "Connection: close was not honoured"
    );
    server.drain();
}

#[test]
fn chunked_bodies_split_at_utf8_and_tag_boundaries_validate_identically() {
    let server = server_with(ServerConfig::default());
    let addr = server.addr();
    let registry = SchemaRegistry::with_corpus().unwrap();
    // multibyte content (é is two UTF-8 bytes) so a chunk boundary can
    // land inside a character as well as inside a tag name
    let doc = "<?xml version=\"1.0\"?>\n<wml><card id=\"a\" title=\"caf\u{e9}s \u{2615}\"><p>caf\u{e9} <b>cr\u{e8}me</b></p></card></wml>";
    let expected =
        serve::json::verdict_json("wml", &registry.validate_streaming("wml", doc).unwrap());
    let bytes = doc.as_bytes();
    // chunk sizes 1, 2, 3, 7: every boundary class gets hit, including
    // mid-character and mid-tag splits
    for chunk_size in [1usize, 2, 3, 7] {
        let mut raw = b"POST /v1/validate/wml HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n".to_vec();
        for chunk in bytes.chunks(chunk_size) {
            raw.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            raw.extend_from_slice(chunk);
            raw.extend_from_slice(b"\r\n");
        }
        raw.extend_from_slice(b"0\r\nx-trailer: ignored\r\n\r\n");
        let (status, body) = raw_exchange(addr, &raw).unwrap();
        assert_eq!(status, 200, "chunk_size {chunk_size}: {body}");
        assert_eq!(body, expected, "chunk_size {chunk_size}: verdict drifted");
    }
    // chunk extensions after the size are legal and ignored
    let raw = format!(
        "POST /v1/validate/wml HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n{:x};ext=1\r\n{}\r\n0\r\n\r\n",
        bytes.len(),
        doc
    );
    let (status, body) = raw_exchange(addr, raw.as_bytes()).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected);
    server.drain();
}

#[test]
fn oversized_content_length_is_rejected_before_the_body_is_read() {
    let server = server_with(ServerConfig::default());
    let addr = server.addr();
    let mut stream = connect(addr);
    // declare 100 MiB (over the default 64 MiB budget) and send NOTHING:
    // the 413 must arrive while the body is still unsent, proving the
    // admission check runs on the declared length alone
    stream
        .write_all(b"POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nContent-Length: 104857600\r\n\r\n")
        .unwrap();
    let started = Instant::now();
    let mut reader = BufReader::new(stream);
    let (status, body) = try_read_response(&mut reader).expect("no early 413");
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"resource\":\"InputTooLarge\""), "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "413 was not early: {:?}",
        started.elapsed()
    );
    server.drain();
}

#[test]
fn overlong_actual_body_trips_the_cumulative_byte_budget_mid_stream() {
    // an honest Content-Length but a tiny tenant budget: the stream is
    // cut off mid-read with the same typed InputTooLarge verdict
    let cfg = ServerConfig {
        tenants: serve::TenantTable::new(limits::Limits::default().with_max_input_bytes(1 << 10)),
        ..ServerConfig::default()
    };
    let server = server_with(cfg);
    let addr = server.addr();
    let big = webgen::render_order_string(&webgen::generate_order(1, 200));
    assert!(big.len() > 2 << 10);
    let raw = format!(
        "POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        big.len(),
        big
    );
    let (status, body) = raw_exchange(addr, raw.as_bytes()).unwrap();
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"resource\":\"InputTooLarge\""), "{body}");
    server.drain();
}

#[test]
fn connection_cap_answers_503_and_recovers() {
    let cfg = ServerConfig {
        conn_workers: 2,
        max_connections: 2,
        ..ServerConfig::default()
    };
    let server = server_with(cfg);
    let addr = server.addr();
    // two parked connections occupy the cap...
    let parked: Vec<TcpStream> = (0..2).map(|_| connect(addr)).collect();
    thread::sleep(Duration::from_millis(150));
    // ...so the third is refused with 503
    let mut refused = connect(addr);
    refused.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut reader = BufReader::new(refused);
    let (status, body) = try_read_response(&mut reader).expect("no 503 at the cap");
    assert_eq!(status, 503, "{body}");
    drop(parked);
    thread::sleep(Duration::from_millis(300));
    let (status, body) =
        raw_exchange(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("no recovery");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    server.drain();
}

#[test]
fn empty_and_zero_length_bodies_are_handled() {
    let server = server_with(ServerConfig::default());
    let addr = server.addr();
    // no framing headers at all → 411
    let (status, body) = raw_exchange(
        addr,
        b"POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    .unwrap();
    assert_eq!(status, 411, "{body}");
    // explicit zero-length body → validated as the empty document
    let (status, body) = raw_exchange(
        addr,
        b"POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"valid\":false"), "{body}");
    // wrong verb on a known route → 405
    let (status, _) = raw_exchange(
        addr,
        b"DELETE /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    .unwrap();
    assert_eq!(status, 405);
    server.drain();
}

#[test]
fn connection_header_announces_the_close_the_server_performs() {
    let server = server_with(ServerConfig::default());
    let addr = server.addr();
    let doc = webgen::render_order_string(&webgen::generate_order(2, 2));
    let requests = [
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".to_string(),
        format!(
            "POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{doc}",
            doc.len()
        ),
        "GET /healthz HTTP/1.0\r\n\r\n".to_string(),
    ];
    for raw in &requests {
        let mut stream = connect(addr);
        stream.write_all(raw.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        assert!(status_line.starts_with("HTTP/1.1 200 "), "{status_line}");
        let mut connection = None;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("connection:") {
                connection = Some(v.trim().to_string());
            }
        }
        assert_eq!(connection.as_deref(), Some("close"), "request {raw:?}");
        // and the server does close: the body is all that is left
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(!rest.is_empty(), "request {raw:?}");
    }
    // a keep-alive request is still announced and kept as keep-alive
    let mut stream = connect(addr);
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    while !head.ends_with("\r\n\r\n") {
        reader.read_line(&mut head).unwrap();
    }
    assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
    server.drain();
}
