//! The wire layer: a hand-rolled, std-only HTTP/1.1 implementation.
//!
//! This is deliberately not a general-purpose HTTP library — it is the
//! minimal, *hostile-input-hardened* subset the validation service
//! needs: request-line and header parsing with hard size caps,
//! `Content-Length` and `chunked` body framing exposed as an
//! [`std::io::BufRead`] over the connection buffer so bodies stream
//! straight into the chunked validation path without ever being
//! buffered whole or copied, absolute
//! per-request read deadlines (a slowloris client dripping one byte per
//! write runs out of *deadline*, not out of server patience), and
//! keep-alive with pipelining (unread pipelined requests simply wait in
//! the connection buffer).
//!
//! Every protocol violation maps to a typed [`HttpError`] so the
//! connection handler can answer 400/408 deterministically; nothing in
//! this module panics on any byte sequence a socket can deliver.
//!
//! The fixed cost per request is kept to one `recv` and one `send` for a
//! small keep-alive exchange:
//!
//! - **One write per response.** [`write_response`] encodes the head
//!   and appends the body in the connection's reusable buffer, then
//!   sends both with one write, so a small response leaves the
//!   `TCP_NODELAY` socket as one segment.
//! - **Lazy timeout arming.** [`Conn`] remembers the read timeout it
//!   last set and sets a new one only on first use, when the armed slice
//!   is longer than the time left before the request's absolute
//!   deadline, or when the idle wait between requests needs its 100 ms
//!   slice back. A slice that expires before the deadline is retried, so
//!   only the deadline itself times a request out, and steady keep-alive
//!   traffic makes no `setsockopt` call per request.
//! - **In-place head parse.** Socket reads land straight in the
//!   connection buffer; the request line and headers are parsed as
//!   borrowed slices of it, and only what [`Request`] keeps is copied.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Hard cap on the request line, in bytes.
pub const MAX_REQUEST_LINE: usize = 8 << 10;
/// Hard cap on a single header line, in bytes.
pub const MAX_HEADER_LINE: usize = 8 << 10;
/// Hard cap on the number of headers per request.
pub const MAX_HEADERS: usize = 100;
/// Hard cap on a chunk-size line (hex digits plus extensions).
pub const MAX_CHUNK_LINE: usize = 1 << 10;

/// How reading a request failed; decides the response (if any).
#[derive(Debug)]
pub enum HttpError {
    /// The bytes violate the protocol; answer 400 and close.
    Malformed(&'static str),
    /// The per-request read deadline passed; answer 408 and close.
    Timeout,
    /// The peer closed the connection; nothing to answer.
    Closed,
    /// Transport failure; nothing to answer.
    Io(io::Error),
}

impl HttpError {
    /// Converts into the `io::Error` a body [`Read`] must surface.
    fn into_io(self) -> io::Error {
        match self {
            HttpError::Malformed(msg) => io::Error::new(io::ErrorKind::InvalidData, msg),
            HttpError::Timeout => io::ErrorKind::TimedOut.into(),
            HttpError::Closed => io::ErrorKind::UnexpectedEof.into(),
            HttpError::Io(e) => e,
        }
    }
}

/// How much spare room a socket read gets at least; the connection
/// buffer grows by [`READ_CHUNK`] when compacting leaves less.
const MIN_READ: usize = 1 << 10;
/// Growth step (and initial size) of the connection read buffer: a
/// request of up to 16 KiB, head and body, arrives in one read.
const READ_CHUNK: usize = 16 << 10;
/// The read-timeout slice [`Conn::wait_for_data`] waits in, so a drain
/// flag flipped mid-wait is noticed within about this long.
const IDLE_SLICE: Duration = Duration::from_millis(100);
/// A response buffer grown past this is freed after its write instead of
/// being kept for the connection's next response.
const MAX_KEPT_OUT: usize = 64 << 10;

/// One accepted connection: the stream, its read buffer and its response
/// buffer. The read buffer outlives individual requests, which is what
/// makes pipelining work — bytes of the *next* request read together
/// with the current one just wait their turn.
pub struct Conn {
    stream: TcpStream,
    /// `buf[start..end]` is received and unconsumed; `buf[end..]` is
    /// initialised room the next socket read lands in directly.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The read timeout last set on the socket; `None` before the first.
    armed: Option<Duration>,
    /// Reused for every response: head and body, encoded for one write.
    out: Vec<u8>,
}

impl Conn {
    /// Wraps an accepted stream; `write_deadline` bounds every write for
    /// the connection's lifetime.
    pub fn new(stream: TcpStream, write_deadline: Duration) -> Conn {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(write_deadline.max(Duration::from_millis(1))));
        Conn {
            stream,
            buf: Vec::new(),
            start: 0,
            end: 0,
            armed: None,
            out: Vec::new(),
        }
    }

    /// The unconsumed buffered bytes.
    pub fn buffered(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Marks `n` buffered bytes consumed. The bytes themselves stay in
    /// place until the next socket read, so a slice taken before the
    /// call is still the line it was.
    fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.end);
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// Sets the socket read timeout to `slice` (at least 1 ms) unless it
    /// is already armed with that value.
    fn arm(&mut self, slice: Duration) -> Result<(), HttpError> {
        let slice = slice.max(Duration::from_millis(1));
        if self.armed != Some(slice) {
            self.stream
                .set_read_timeout(Some(slice))
                .map_err(HttpError::Io)?;
            self.armed = Some(slice);
        }
        Ok(())
    }

    /// One socket read straight into the buffer's spare room, waiting at
    /// most the armed slice. `Ok(0)` is EOF; an expired slice is
    /// `Err(HttpError::Timeout)`.
    fn read_once(&mut self) -> Result<usize, HttpError> {
        if self.buf.len() - self.end < MIN_READ {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() - self.end < MIN_READ {
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
        }
        loop {
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(HttpError::Timeout)
                }
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionReset
                        || e.kind() == io::ErrorKind::ConnectionAborted
                        || e.kind() == io::ErrorKind::BrokenPipe =>
                {
                    return Err(HttpError::Closed)
                }
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
    }

    /// One read bounded by the absolute `deadline`. The armed slice is
    /// kept while it fits in the time left and shortened only when it
    /// does not; a slice that expires before the deadline is retried, so
    /// only the deadline itself is [`HttpError::Timeout`].
    fn fill(&mut self, deadline: Instant) -> Result<usize, HttpError> {
        loop {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or(HttpError::Timeout)?;
            if self.armed.is_none_or(|armed| armed > remaining) {
                self.arm(remaining)?;
            }
            match self.read_once() {
                Err(HttpError::Timeout) => continue,
                read => return read,
            }
        }
    }

    /// Waits for the next request's first byte: up to `idle` total, in
    /// short slices so a drain flag flipped mid-wait is noticed within
    /// ~100ms. Returns `true` when bytes are available; `false` on EOF,
    /// idle expiry, or drain (already-buffered bytes still count as
    /// available — a request accepted before the drain began is served).
    pub fn wait_for_data(&mut self, idle: Duration, draining: &AtomicBool) -> bool {
        if !self.buffered().is_empty() {
            return true;
        }
        let end = Instant::now() + idle;
        if self.arm(IDLE_SLICE).is_err() {
            return false;
        }
        loop {
            match self.read_once() {
                Ok(0) => return false,
                Ok(_) => return true,
                Err(HttpError::Timeout) => {
                    if draining.load(Ordering::Acquire) || Instant::now() >= end {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
    }

    /// Reads one CRLF- (or bare-LF-) terminated line, excluding the
    /// terminator, enforcing `max` bytes. The line is borrowed from the
    /// connection buffer and already consumed.
    fn read_line(&mut self, max: usize, deadline: Instant) -> Result<&str, HttpError> {
        let mut scanned = 0;
        let len = loop {
            let buffered = self.buffered();
            if let Some(i) = buffered[scanned..].iter().position(|&b| b == b'\n') {
                break scanned + i;
            }
            if buffered.len() > max {
                return Err(HttpError::Malformed("line too long"));
            }
            scanned = buffered.len();
            if self.fill(deadline)? == 0 {
                return Err(HttpError::Closed);
            }
        };
        if len > max {
            return Err(HttpError::Malformed("line too long"));
        }
        let from = self.start;
        self.consume(len + 1);
        let line = &self.buf[from..from + len];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        std::str::from_utf8(line).map_err(|_| HttpError::Malformed("line is not UTF-8"))
    }

    /// The write half and the reusable response buffer, for
    /// [`write_response`].
    pub fn writer(&mut self) -> (&mut TcpStream, &mut Vec<u8>) {
        (&mut self.stream, &mut self.out)
    }
}

/// A parsed request head. Header names are lowercased at parse time.
#[derive(Debug)]
pub struct Request {
    /// The method verb, as sent (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the request target (query string stripped).
    pub path: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// `(lowercased-name, value)` in arrival order.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection may be reused after this exchange
    /// (HTTP/1.1 default yes, HTTP/1.0 default no, `Connection` header
    /// overrides either way).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Strips HTTP optional whitespace: SP and HTAB only (RFC 9110
/// §5.6.3), never the other Unicode spaces `str::trim` strips.
fn trim_ows(s: &str) -> &str {
    s.trim_matches([' ', '\t'])
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'!' | b'#' | b'$' | b'%' | b'&')
}

/// Reads and parses one request head in place: each line is a borrowed
/// slice of the connection buffer, and only the method, the path and
/// the header names and values are copied out. The caller supplies the
/// absolute per-request `deadline`; a client that cannot deliver its
/// headers in time gets [`HttpError::Timeout`] no matter how steadily it
/// drips.
pub fn parse_request(conn: &mut Conn, deadline: Instant) -> Result<Request, HttpError> {
    let line = conn.read_line(MAX_REQUEST_LINE, deadline)?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::Malformed("bad request line")),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("bad method"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::Malformed("unsupported HTTP version")),
    };
    if !target.starts_with('/') {
        return Err(HttpError::Malformed("bad request target"));
    }
    // the line is borrowed from the connection buffer: copy what the
    // request keeps before the next line is read
    let method = method.to_string();
    let path = target
        .split(['?', '#'])
        .next()
        .unwrap_or(target)
        .to_string();
    let mut headers = Vec::new();
    loop {
        let line = conn.read_line(MAX_HEADER_LINE, deadline)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        // a space before the colon is the classic request-smuggling vector
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpError::Malformed("bad header name"));
        }
        headers.push((name.to_ascii_lowercase(), trim_ows(value).to_string()));
    }
    Ok(Request {
        method,
        path,
        http11,
        headers,
    })
}

/// How the request's body bytes are delimited on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// No body (no framing headers present).
    None,
    /// `Content-Length: n`.
    Length(u64),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// Determines the body framing, rejecting the ambiguous combinations
/// (duplicate or conflicting framing headers) outright.
pub fn framing(req: &Request) -> Result<Framing, HttpError> {
    let lengths: Vec<&str> = req
        .headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .map(|(_, v)| v.as_str())
        .collect();
    let te = req.header("transfer-encoding");
    match (te, lengths.as_slice()) {
        (Some(te), []) if te.eq_ignore_ascii_case("chunked") => Ok(Framing::Chunked),
        (Some(_), _) => Err(HttpError::Malformed("bad transfer-encoding")),
        (None, []) => Ok(Framing::None),
        (None, [one]) => {
            if one.is_empty() || !one.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::Malformed("bad content-length"));
            }
            one.parse::<u64>()
                .map(Framing::Length)
                .map_err(|_| HttpError::Malformed("bad content-length"))
        }
        (None, _) => Err(HttpError::Malformed("conflicting content-length")),
    }
}

enum BodyState {
    /// Fixed-length body: bytes left to deliver.
    Length(u64),
    /// Chunked body: bytes left in the current chunk (`0` = a size line
    /// is due next; `first` suppresses the chunk-terminating CRLF read).
    Chunk {
        remaining: u64,
        first: bool,
    },
    Done,
}

/// A request body as an [`io::BufRead`] over the connection's read
/// buffer: [`fill_buf`](BufRead::fill_buf) returns the body bytes
/// already received, capped by the `Content-Length` or chunk remainder,
/// and reads the socket only when none are buffered. That lets a socket
/// body stream straight into `validate_streaming_reader` without ever
/// being resident or copied; [`Read`] is a copy out of `fill_buf`.
/// Timeouts surface as [`io::ErrorKind::TimedOut`], framing violations
/// as [`io::ErrorKind::InvalidData`], a peer that vanished mid-body as
/// [`io::ErrorKind::UnexpectedEof`].
pub struct Body<'c> {
    conn: &'c mut Conn,
    deadline: Instant,
    state: BodyState,
    consumed: u64,
}

impl<'c> Body<'c> {
    /// Wraps `conn` for one request's body under `framing`.
    pub fn new(conn: &'c mut Conn, framing: Framing, deadline: Instant) -> Body<'c> {
        let state = match framing {
            Framing::None | Framing::Length(0) => BodyState::Done,
            Framing::Length(n) => BodyState::Length(n),
            Framing::Chunked => BodyState::Chunk {
                remaining: 0,
                first: true,
            },
        };
        Body {
            conn,
            deadline,
            state,
            consumed: 0,
        }
    }

    /// Whether every body byte has been consumed (connection reusable).
    pub fn finished(&self) -> bool {
        matches!(self.state, BodyState::Done)
    }

    /// Payload bytes delivered so far (framing overhead excluded).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Consumes the remaining body, up to `cap` bytes. Returns `true`
    /// when the body ended within the cap — the connection can then
    /// carry another request; `false` means the caller must close.
    pub fn drain(&mut self, cap: usize) -> bool {
        let mut left = cap;
        while !self.finished() && left > 0 {
            match self.fill_buf() {
                Ok(avail) => {
                    let n = avail.len().min(left);
                    self.consume(n);
                    left -= n;
                }
                Err(_) => return false,
            }
        }
        self.finished()
    }

    /// Advances chunked framing to the next data chunk (or `Done`).
    fn next_chunk(&mut self, first: bool) -> io::Result<()> {
        if !first {
            // the CRLF that terminates the previous chunk's data
            let sep = self
                .conn
                .read_line(2, self.deadline)
                .map_err(HttpError::into_io)?;
            if !sep.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "missing chunk terminator",
                ));
            }
        }
        let line = self
            .conn
            .read_line(MAX_CHUNK_LINE, self.deadline)
            .map_err(HttpError::into_io)?;
        let size_part = trim_ows(line.split(';').next().unwrap_or(""));
        if size_part.is_empty() || !size_part.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"));
        }
        let size = u64::from_str_radix(size_part, 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        if size == 0 {
            // trailer section: lines until the empty one
            loop {
                let line = self
                    .conn
                    .read_line(MAX_HEADER_LINE, self.deadline)
                    .map_err(HttpError::into_io)?;
                if line.is_empty() {
                    break;
                }
            }
            self.state = BodyState::Done;
        } else {
            self.state = BodyState::Chunk {
                remaining: size,
                first: false,
            };
        }
        Ok(())
    }
}

impl BufRead for Body<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let remaining = loop {
            match self.state {
                BodyState::Done => return Ok(&[]),
                BodyState::Chunk {
                    remaining: 0,
                    first,
                } => self.next_chunk(first)?,
                BodyState::Length(remaining) | BodyState::Chunk { remaining, .. } => {
                    break remaining
                }
            }
        };
        if self.conn.buffered().is_empty()
            && self.conn.fill(self.deadline).map_err(HttpError::into_io)? == 0
        {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let avail = self.conn.buffered();
        Ok(&avail[..avail.len().min(remaining.min(usize::MAX as u64) as usize)])
    }

    fn consume(&mut self, n: usize) {
        let (BodyState::Length(remaining) | BodyState::Chunk { remaining, .. }) = self.state else {
            return;
        };
        let n = (n as u64)
            .min(remaining)
            .min(self.conn.buffered().len() as u64);
        self.conn.consume(n as usize);
        self.consumed += n;
        let left = remaining - n;
        self.state = match self.state {
            BodyState::Length(_) if left == 0 => BodyState::Done,
            BodyState::Length(_) => BodyState::Length(left),
            _ => BodyState::Chunk {
                remaining: left,
                first: false,
            },
        };
    }
}

impl Read for Body<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// The standard reason phrase for the codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete response as a single write: the head and the
/// body are encoded into the reusable buffer `out` (replacing what it
/// held) and sent together, so a `TCP_NODELAY` socket puts a small
/// response in one segment. Always emits `Content-Length` and an
/// explicit `Connection` header, so the client never has to guess where
/// the body ends or whether to reuse the socket.
pub fn write_response<W: Write>(
    w: &mut W,
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    out.clear();
    out.reserve(128 + content_type.len() + body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    out.extend_from_slice(body);
    let sent = w.write_all(out).and_then(|()| w.flush());
    if out.capacity() > MAX_KEPT_OUT {
        *out = Vec::new();
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn keep_alive_requests_leave_the_idle_slice_armed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut conn = Conn::new(accepted, Duration::from_secs(5));
        let draining = AtomicBool::new(false);
        for _ in 0..20 {
            client
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            assert!(conn.wait_for_data(Duration::from_secs(5), &draining));
            let deadline = Instant::now() + Duration::from_secs(10);
            let req = parse_request(&mut conn, deadline).unwrap();
            assert_eq!(
                (req.method.as_str(), req.path.as_str()),
                ("GET", "/healthz")
            );
            assert_eq!(req.header("host"), Some("t"));
            assert_eq!(conn.armed, Some(IDLE_SLICE));
        }
    }

    /// Reads `body` to its end through `fill_buf`/`consume`, returning
    /// each lent slice.
    fn lent_slices(mut body: Body<'_>) -> Vec<Vec<u8>> {
        let mut slices = Vec::new();
        loop {
            let avail = body.fill_buf().unwrap();
            if avail.is_empty() {
                assert!(body.finished());
                return slices;
            }
            slices.push(avail.to_vec());
            let n = avail.len();
            body.consume(n);
        }
    }

    #[test]
    fn body_lends_buffered_bytes_up_to_its_framing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut conn = Conn::new(accepted, Duration::from_secs(5));
        let deadline = Instant::now() + Duration::from_secs(10);

        client.write_all(b"hello worldNEXT").unwrap();
        let body = Body::new(&mut conn, Framing::Length(11), deadline);
        assert_eq!(lent_slices(body).concat(), b"hello world");
        assert_eq!(conn.buffered(), b"NEXT");
        conn.consume(4);

        client
            .write_all(b"5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nTrailer: x\r\n\r\nNEXT")
            .unwrap();
        let body = Body::new(&mut conn, Framing::Chunked, deadline);
        assert_eq!(lent_slices(body), [&b"hello"[..], b" world"]);
        assert_eq!(conn.buffered(), b"NEXT");
    }

    #[test]
    fn header_values_are_trimmed_of_sp_and_htab_only() {
        assert_eq!(trim_ows(" \t5\t "), "5");
        for raw in ["5\u{b}", "\u{a0}5", "chunked\u{c}", "5\u{85}"] {
            assert_eq!(trim_ows(raw), raw);
        }
    }
}
