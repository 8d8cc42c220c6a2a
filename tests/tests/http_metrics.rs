//! Metrics reconciliation: the server's exported counters must agree
//! exactly with a client-side tally of what was sent. This file holds
//! ONE test on purpose — the obs registry is process-global, so any
//! sibling test in the same binary would race its own requests into the
//! counters and turn exact reconciliation into a flaky inequality.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use serve::{Server, ServerConfig};
use webgen::SchemaRegistry;

const DEEP_NESTING: &str = include_str!("../corpora/hostile/deep_nesting.xml");

fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
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

/// Value of `name{label}` (or bare `name`) in a Prometheus rendering.
fn counter_value(metrics: &str, name: &str) -> Option<u64> {
    metrics.lines().find_map(|line| {
        let line = line.trim();
        if line.starts_with('#') {
            return None;
        }
        let (key, value) = line.rsplit_once(' ')?;
        if key == name {
            value.parse().ok()
        } else {
            None
        }
    })
}

#[test]
fn exported_counters_reconcile_exactly_with_the_traffic_sent() {
    obs::enable(); // instrumentation is opt-in, as in the library
    let registry = Arc::new(SchemaRegistry::with_corpus().unwrap());
    let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();
    let doc = webgen::render_order_string(&webgen::generate_order(4, 3));

    // ground truth, tallied client-side as the traffic goes out
    let mut sent_by_code: std::collections::BTreeMap<u16, u64> = std::collections::BTreeMap::new();
    let mut tally = |status: u16| *sent_by_code.entry(status).or_insert(0) += 1;

    for _ in 0..3 {
        let (status, _) = post(addr, "/v1/validate/purchase-order", &doc);
        assert_eq!(status, 200);
        tally(status);
    }
    let (status, _) = post(
        addr,
        "/v1/validate/purchase-order",
        "<order><junk/></order>",
    );
    assert_eq!(status, 200); // invalid is still an answered question
    tally(status);
    let (status, _) = post(addr, "/v1/validate/no-such-schema", &doc);
    assert_eq!(status, 404);
    tally(status);
    let (status, _) = post(addr, "/v1/validate/purchase-order", DEEP_NESTING);
    assert_eq!(status, 422);
    tally(status);
    let (status, _) = request(
        addr,
        "POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nContent-Length: 104857600\r\n\r\n",
    );
    assert_eq!(status, 413);
    tally(status);
    let (status, _) = request(addr, "NONSENSE\r\n\r\n");
    assert_eq!(status, 400);
    tally(status);
    for _ in 0..2 {
        let (status, _) = request(
            addr,
            "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        tally(status);
    }

    // scrape AFTER the traffic; the scrape itself is counted only after
    // its body is rendered, so it does not appear in its own report
    let (status, metrics) = request(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);

    for (&code, &sent) in &sent_by_code {
        let got = counter_value(&metrics, &format!("http_requests_total{{code=\"{code}\"}}"))
            .unwrap_or_else(|| panic!("no http_requests_total for code {code} in:\n{metrics}"));
        assert_eq!(
            got, sent,
            "http_requests_total{{code=\"{code}\"}} disagrees with the {sent} requests sent"
        );
    }
    let total_sent: u64 = sent_by_code.values().sum();
    let connections =
        counter_value(&metrics, "http_connections_total").expect("http_connections_total missing");
    // every request above used Connection: close → one connection each,
    // plus the scrape's own connection (accepted before its body
    // rendered, unlike its request counter which lands after)
    assert_eq!(connections, total_sent + 1, "connection accounting drifted");
    // the validate endpoints really went through the registry
    assert!(
        metrics.contains("registry_validate_seconds"),
        "validation latency histogram missing:\n{metrics}"
    );
    // resource governance counted the two rejections (413 + 422)
    let trips = counter_value(&metrics, "limit_trips_total{kind=\"InputTooLarge\"}")
        .expect("limit_trips_total missing for InputTooLarge");
    assert_eq!(trips, 1);
    let rejected = counter_value(&metrics, "docs_rejected_total").expect("docs_rejected_total");
    assert_eq!(rejected, 2, "413 + 422 should each count one rejection");
    server.drain();
}
