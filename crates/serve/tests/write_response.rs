//! `serve::http::write_response` sends a whole response — head and body
//! — with one `write` call, byte for byte the head the service has
//! always sent, and reuses its buffer across responses without keeping
//! an oversized one.

use std::io::{self, Write};

use serve::http::write_response;

/// A writer that records every `write` call it receives.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn one_response_is_one_write_with_pinned_bytes() {
    let verdict = r#"{"valid":false}"#;
    let refusal = r#"{"error":"connection limit reached"}"#;
    let cases = [
        (
            200,
            "text/plain",
            "ok\n",
            true,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\
             Connection: keep-alive\r\n\r\nok\n"
                .to_string(),
        ),
        (
            422,
            "application/json",
            verdict,
            true,
            format!(
                "HTTP/1.1 422 Unprocessable Entity\r\nContent-Type: application/json\r\n\
                 Content-Length: 15\r\nConnection: keep-alive\r\n\r\n{verdict}"
            ),
        ),
        (
            503,
            "application/json",
            refusal,
            false,
            format!(
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: 36\r\nConnection: close\r\n\r\n{refusal}"
            ),
        ),
    ];
    // one buffer across all three, as a connection reuses it
    let mut out = Vec::new();
    for (status, content_type, body, keep_alive, expected) in cases {
        let mut w = CountingWriter::default();
        write_response(
            &mut w,
            &mut out,
            status,
            content_type,
            body.as_bytes(),
            keep_alive,
        )
        .unwrap();
        assert_eq!(w.writes, 1, "{status}");
        assert_eq!(String::from_utf8(w.bytes).unwrap(), expected);
    }
}

#[test]
fn an_oversized_response_buffer_is_not_kept() {
    let mut out = Vec::new();
    let big = vec![b'x'; 1 << 20];
    write_response(&mut io::sink(), &mut out, 200, "text/plain", &big, true).unwrap();
    assert_eq!(out.capacity(), 0);
    write_response(&mut io::sink(), &mut out, 200, "text/plain", b"ok", true).unwrap();
    assert!(out.capacity() > 0);
}
