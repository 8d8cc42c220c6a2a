//! Validation-as-a-service: a std-only HTTP/1.1 front end for the
//! streaming validation pipeline.
//!
//! Everything below the wire already existed — zero-copy streaming
//! validation, pool fan-out, [`Limits`] governance, metrics and the
//! flight recorder. This crate is the piece that carries traffic to it:
//! a blocking-accept listener whose connections are handled on
//! [`pool::ThreadPool`] workers (no async runtime, no dependencies —
//! the same discipline as `pool` and `limits`), speaking enough
//! HTTP/1.1 to survive hostile clients: keep-alive with pipelining,
//! chunked and fixed-length bodies, absolute per-request read
//! deadlines, a connection cap, and graceful drain.
//!
//! # Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/validate/{schema}` | Stream the body through the chunked validator; JSON verdict. |
//! | `POST /v1/batch/{schema}` | Length-prefixed frames fanned out across the batch pool. |
//! | `PUT /v1/schemas/{name}` | Compile and hot-swap a schema registration. |
//! | `POST /v1/session/{schema}` | Open a patchable validated-document session over the body. |
//! | `POST /v1/session/{id}/patch` | Apply one JSON-encoded [`DomPatch`](validator::DomPatch); incremental revalidation decides. |
//! | `GET /v1/session/{id}` | The session's current (always valid) document, as XML. |
//! | `DELETE /v1/session/{id}` | Close a session. |
//! | `GET /v1/page/orders/{seed}/{count}` | A synthetic purchase order rendered through compiled P-XML templates. |
//! | `GET /v1/page/directory/{seed}/{breadth}/{depth}` | The Sect. 5 WML directory page, compiled-template path. |
//! | `GET /metrics` | The process-global Prometheus exporter. |
//! | `GET /healthz` | `ok` while serving, `draining` (503) once drain begins. |
//!
//! Request bodies are *never* buffered whole on the validate path: the
//! socket streams through [`http::Body`] into
//! `SchemaRegistry::validate_streaming_reader`, so a multi-gigabyte
//! document validates in O(depth) memory — and a hostile one is cut off
//! by the tenant's budget ([`TenantTable`], selected by the `X-Tenant`
//! header) with a typed `Resource` kind in the JSON error body: `413`
//! for the input-size budget, `422` for depth/attribute/expansion/
//! deadline trips.
//!
//! # Responses
//!
//! Handlers do not write to the socket: each returns a `Reply` (status,
//! content type, body, and whether the connection must close), error
//! branches included, and `handle_connection` writes it. That one writer
//! also decides the `Connection` header, so it says `close` exactly when
//! the server closes after the response: the reply asks for it, the
//! request did not ask for keep-alive, or a drain has begun. The only
//! other response is the over-cap `503`, written on the acceptor before
//! a request exists.
//!
//! # Drain
//!
//! [`Server::shutdown`] flips the drain flag: the acceptor stops
//! accepting (new connects are refused once the listener closes),
//! idle keep-alive connections close at their next poll, in-flight
//! requests run to completion, and [`Server::join`] blocks until the
//! last one has. Nothing in-flight is cancelled — `batch_cancelled_total`
//! stays untouched by a drain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod session;
pub mod tenants;

use std::io::BufRead;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use limits::{CancelToken, Limits, ResourceErrorKind};
use pool::ThreadPool;
use validator::{ValidationError, ValidationErrorKind};
use webgen::{CompiledDirectoryPage, OrderTemplates, SchemaRegistry};

use http::{Body, Conn, Framing, HttpError, Request};
pub use tenants::{TenantTable, TENANT_HEADER};

/// How much of an unconsumed request body the server reads and discards
/// to keep a connection reusable; a bigger remainder closes instead.
const BODY_DRAIN_CAP: usize = 64 << 10;

/// Tuning for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-handling pool workers — the concurrency ceiling for
    /// simultaneously *served* connections (more may be accepted and
    /// queued, up to `max_connections`).
    pub conn_workers: usize,
    /// Workers in the separate fan-out pool `/v1/batch` uses. Separate
    /// because a batch fan-out from inside a connection worker of the
    /// same pool would deadlock.
    pub batch_threads: usize,
    /// Accepted-but-unfinished connection cap; beyond it new connects
    /// are answered `503` and closed immediately.
    pub max_connections: usize,
    /// Absolute per-request deadline: covers reading the head and body
    /// *and* is wired into the request's [`Limits`] as the validation
    /// deadline, so a slowloris body and a pathological document trip
    /// the same clock.
    pub request_deadline: Duration,
    /// Socket write timeout for responses.
    pub write_deadline: Duration,
    /// How long an idle keep-alive connection is held open.
    pub keep_alive_idle: Duration,
    /// Maximum documents per `/v1/batch` request.
    pub max_batch_docs: usize,
    /// Maximum schema-upload body, in bytes.
    pub max_schema_bytes: usize,
    /// Live patch-session cap (`POST /v1/session/{schema}`); beyond it
    /// new sessions are refused with `503` until one expires or closes.
    pub max_sessions: usize,
    /// How long an untouched patch session is kept before the sweeper
    /// evicts it (checked on every session-table access).
    pub session_idle: Duration,
    /// Per-tenant admission table (`X-Tenant` header).
    pub tenants: TenantTable,
    /// Kill switch threaded into every request's [`Limits`]: cancelling
    /// it aborts all in-flight validation with typed `Cancelled`
    /// markers. A graceful drain does *not* trip it.
    pub cancel: CancelToken,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            conn_workers: 8,
            batch_threads: 4,
            max_connections: 256,
            request_deadline: Duration::from_secs(10),
            write_deadline: Duration::from_secs(10),
            keep_alive_idle: Duration::from_secs(5),
            max_batch_docs: 256,
            max_schema_bytes: 1 << 20,
            max_sessions: 64,
            session_idle: Duration::from_secs(60),
            tenants: TenantTable::default(),
            cancel: CancelToken::new(),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) registry: Arc<SchemaRegistry>,
    pub(crate) cfg: ServerConfig,
    pub(crate) draining: AtomicBool,
    pub(crate) active: AtomicUsize,
    pub(crate) batch_pool: ThreadPool,
    /// Compiled page plans, built lazily from the registered schemas on
    /// the first page request and dropped when the schema is hot-swapped.
    order_templates: RwLock<Option<Arc<OrderTemplates>>>,
    directory_page: RwLock<Option<Arc<CompiledDirectoryPage>>>,
    /// Live patch sessions (`/v1/session/…`).
    pub(crate) sessions: session::SessionTable,
}

/// A running validation service; see the crate docs for the endpoints.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<thread::JoinHandle<()>>,
    conn_pool: Option<Arc<ThreadPool>>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port; see
    /// [`addr`](Self::addr)) and starts accepting. The acceptor runs on
    /// its own thread; connections are handled on `conn_workers` pool
    /// workers.
    pub fn start(
        registry: Arc<SchemaRegistry>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // nonblocking accept + short sleeps lets the acceptor observe
        // the drain flag without a wake-up channel
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let conn_pool = Arc::new(ThreadPool::new(cfg.conn_workers));
        let shared = Arc::new(Shared {
            registry,
            batch_pool: ThreadPool::new(cfg.batch_threads),
            sessions: session::SessionTable::new(cfg.max_sessions, cfg.session_idle),
            cfg,
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            order_templates: RwLock::new(None),
            directory_page: RwLock::new(None),
        });
        let acceptor = {
            let shared = shared.clone();
            let pool = conn_pool.clone();
            thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || accept_loop(listener, shared, pool))?
        };
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            conn_pool: Some(conn_pool),
        })
    }

    /// The bound address (the actual port when started with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins a graceful drain: stop accepting, close idle keep-alive
    /// connections, let in-flight requests finish. Non-blocking and
    /// idempotent; [`join`](Self::join) waits for completion.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::Release);
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Connections accepted and not yet finished.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Drains (if not already draining) and blocks until the acceptor
    /// has stopped and every in-flight connection has completed.
    pub fn join(mut self) {
        self.stop();
    }

    /// [`shutdown`](Self::shutdown) + [`join`](Self::join) in one call.
    pub fn drain(self) {
        self.join();
    }

    fn stop(&mut self) {
        self.shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(mut pool) = self.conn_pool.take() {
            // the acceptor has exited, so this is the last handle;
            // dropping the pool blocks until every queued and running
            // connection job has finished — the drain barrier
            loop {
                match Arc::try_unwrap(pool) {
                    Ok(p) => {
                        drop(p);
                        break;
                    }
                    Err(p) => {
                        pool = p;
                        thread::sleep(Duration::from_millis(2));
                    }
                }
            }
            if obs::enabled() {
                obs::metrics()
                    .counter(
                        "http_server_drained_total",
                        "Graceful server drains completed.",
                    )
                    .inc();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, pool: Arc<ThreadPool>) {
    loop {
        if shared.draining.load(Ordering::Acquire) {
            // sweep the backlog before closing: a connection the kernel
            // already completed the handshake for is in flight from the
            // client's point of view — dropping the listener would RST
            // it. Accept whatever is pending, then stop; once the
            // listener drops, future connects are refused by the OS.
            while let Ok((stream, _peer)) = listener.accept() {
                dispatch(stream, &shared, &pool);
            }
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => dispatch(stream, &shared, &pool),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Hands one accepted stream to the connection pool (or refuses it at
/// the connection cap).
fn dispatch(stream: TcpStream, shared: &Arc<Shared>, pool: &ThreadPool) {
    // accepted sockets can inherit the listener's nonblocking mode on
    // some platforms
    let _ = stream.set_nonblocking(false);
    if obs::enabled() {
        obs::metrics()
            .counter("http_connections_total", "Connections accepted.")
            .inc();
    }
    if shared.active.load(Ordering::Acquire) >= shared.cfg.max_connections {
        refuse_connection(stream, shared);
        return;
    }
    shared.active.fetch_add(1, Ordering::AcqRel);
    let slot = ActiveSlot(shared.clone());
    pool.execute(move || handle_connection(&slot.0, stream));
}

/// One of the `active` connection slots. Dropping it frees the slot, so
/// a connection whose handler panics still gives its slot back.
struct ActiveSlot(Arc<Shared>);

impl Drop for ActiveSlot {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Over the connection cap: answer `503` inline on the acceptor (the
/// response is a few bytes; the write timeout bounds a stuck peer) and
/// close. The only response not written by [`handle_connection`]: no
/// request exists yet.
fn refuse_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.cfg.write_deadline));
    let body = json::error_json("connection limit reached");
    let _ = http::write_response(
        &mut stream,
        &mut Vec::new(),
        503,
        "application/json",
        body.as_bytes(),
        false,
    );
    if obs::enabled() {
        obs::metrics()
            .counter(
                "http_connections_rejected_total",
                "Connections refused at the connection cap.",
            )
            .inc();
    }
}

/// One response, as a value. Handlers return it; [`handle_connection`]
/// writes it.
pub(crate) struct Reply {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: String,
    /// The connection cannot be reused (unread body, protocol damage).
    pub(crate) close: bool,
}

impl Reply {
    pub(crate) fn new(status: u16, content_type: &'static str, body: String) -> Reply {
        Reply {
            status,
            content_type,
            body,
            close: false,
        }
    }

    pub(crate) fn json(status: u16, body: String) -> Reply {
        Reply::new(status, "application/json", body)
    }

    /// A bare `{"error": …}` reply.
    pub(crate) fn error(status: u16, message: &str) -> Reply {
        Reply::json(status, json::error_json(message))
    }

    /// The same reply, closing the connection after it.
    pub(crate) fn closing(self) -> Reply {
        Reply {
            close: true,
            ..self
        }
    }
}

/// The 404 for a schema name nothing is registered under.
pub(crate) fn unknown_schema(name: &str) -> Reply {
    Reply::error(404, &format!("no schema registered under {name:?}"))
}

/// Everything the metrics and the request's wide event need to know
/// about how one exchange went. Handlers fill all but `status`, which
/// [`handle_connection`] takes from the reply.
pub(crate) struct ReqOutcome {
    pub(crate) status: u16,
    /// Payload bytes consumed from the request body.
    pub(crate) bytes_in: u64,
    pub(crate) error_count: u64,
    pub(crate) limit_trips: u64,
    pub(crate) malformed_doc: bool,
    pub(crate) tenant: String,
}

impl ReqOutcome {
    fn new() -> ReqOutcome {
        ReqOutcome {
            status: 0,
            bytes_in: 0,
            error_count: 0,
            limit_trips: 0,
            malformed_doc: false,
            tenant: "default".into(),
        }
    }
}

/// Serves one connection's requests in order. The only place a request's
/// response is written: the `Connection` header announces `close`
/// exactly when the socket closes after the response — the reply asks
/// for it, the request did not ask for keep-alive, or a drain has begun.
/// A failed write closes too.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let mut conn = Conn::new(stream, shared.cfg.write_deadline);
    loop {
        // wait for the next request (or pipelined bytes already here)
        if !conn.wait_for_data(shared.cfg.keep_alive_idle, &shared.draining) {
            return;
        }
        let started = Instant::now();
        let deadline = started + shared.cfg.request_deadline;
        let mut outcome = ReqOutcome::new();
        let parsed = http::parse_request(&mut conn, deadline);
        let span = match parsed {
            Ok(_) => obs::span!("http.request"),
            Err(_) => obs::SpanGuard::noop(),
        };
        let reply = match &parsed {
            Ok(req) => route(shared, &mut conn, req, deadline, &mut outcome),
            Err(HttpError::Malformed(msg)) => Reply::error(400, msg).closing(),
            Err(HttpError::Timeout) => Reply::error(408, "request timed out").closing(),
            // peer gone; nothing to answer, nothing to record
            Err(HttpError::Closed | HttpError::Io(_)) => return,
        };
        let req = parsed.ok();
        let close = reply.close
            || !req.as_ref().is_some_and(Request::keep_alive)
            || shared.draining.load(Ordering::Acquire);
        let (stream, out) = conn.writer();
        let written = http::write_response(
            stream,
            out,
            reply.status,
            reply.content_type,
            reply.body.as_bytes(),
            !close,
        )
        .is_ok();
        span.finish();
        outcome.status = reply.status;
        record_request(started, req.as_ref(), &outcome);
        if close || !written {
            return;
        }
    }
}

/// Counts the request in `http_requests_total{code}` /
/// `http_request_seconds` and offers the flight recorder one wide event
/// carrying the request attributes.
fn record_request(started: Instant, req: Option<&Request>, outcome: &ReqOutcome) {
    let elapsed = started.elapsed();
    let status = outcome.status;
    if obs::enabled() {
        let code = status.to_string();
        let metrics = obs::metrics();
        metrics
            .counter_with(
                "http_requests_total",
                "HTTP requests answered, by status code.",
                &[("code", &code)],
            )
            .inc();
        metrics
            .histogram(
                "http_request_seconds",
                "End-to-end request latency (read + validate + write).",
                obs::DURATION_BUCKETS,
            )
            .observe_duration(elapsed);
    }
    if obs::trace::enabled() {
        let trace_outcome = if outcome.limit_trips > 0 {
            obs::trace::Outcome::ResourceTripped
        } else if outcome.malformed_doc || status == 400 || status == 408 {
            obs::trace::Outcome::Malformed
        } else if outcome.error_count > 0 || status >= 400 {
            obs::trace::Outcome::Invalid
        } else {
            obs::trace::Outcome::Valid
        };
        let (method, path) = match req {
            Some(r) => (r.method.clone(), r.path.clone()),
            None => ("-".into(), "-".into()),
        };
        obs::trace::record_wide_event(obs::trace::WideEvent {
            entry: "http.request",
            bytes: outcome.bytes_in,
            events: 0,
            max_depth: 0,
            borrowed_events: 0,
            owned_events: 0,
            error_count: outcome.error_count,
            limit_trips: outcome.limit_trips,
            outcome: trace_outcome,
            phases: vec![("http.request", elapsed)],
            total: elapsed,
            attrs: vec![
                ("method", method),
                ("path", path),
                ("status", status.to_string()),
                ("tenant", outcome.tenant.clone()),
            ],
        });
    }
}

fn route(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    req: &Request,
    deadline: Instant,
    outcome: &mut ReqOutcome,
) -> Reply {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let answer = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let (status, body) = if shared.draining.load(Ordering::Acquire) {
                (503, "draining\n")
            } else {
                (200, "ok\n")
            };
            Ok(Reply::new(status, "text/plain; charset=utf-8", body.into()))
        }
        ("GET", ["metrics"]) => {
            let body = obs::metrics().render_prometheus();
            Ok(Reply::new(200, "text/plain; version=0.0.4", body))
        }
        ("POST", ["v1", "validate", schema]) => {
            handle_validate(shared, conn, req, deadline, schema, outcome)
        }
        ("POST", ["v1", "batch", schema]) => {
            handle_batch(shared, conn, req, deadline, schema, outcome)
        }
        ("PUT", ["v1", "schemas", name]) => {
            handle_put_schema(shared, conn, req, deadline, name, outcome)
        }
        // a page error counts as one error in the request's outcome
        ("GET", ["v1", "page", "orders", seed, count]) => {
            handle_order_page(shared, req, deadline, seed, count, outcome)
                .inspect_err(|_| outcome.error_count += 1)
        }
        ("GET", ["v1", "page", "directory", seed, breadth, depth]) => {
            handle_directory_page(shared, req, deadline, seed, breadth, depth, outcome)
                .inspect_err(|_| outcome.error_count += 1)
        }
        ("POST", ["v1", "session", schema]) => {
            session::handle_session_create(shared, conn, req, deadline, schema, outcome)
        }
        ("POST", ["v1", "session", id, "patch"]) => {
            session::handle_session_patch(shared, conn, req, deadline, id, outcome)
        }
        ("GET", ["v1", "session", id]) => session::handle_session_get(shared, id),
        ("DELETE", ["v1", "session", id]) => session::handle_session_delete(shared, id),
        (_, ["healthz" | "metrics"])
        | (_, ["v1", "validate" | "batch" | "schemas", _])
        | (_, ["v1", "session", _])
        | (_, ["v1", "session", _, "patch"])
        | (_, ["v1", "page", "orders", _, _])
        | (_, ["v1", "page", "directory", _, _, _]) => {
            Err(unrouted(req, 405, "method not allowed"))
        }
        _ => Err(unrouted(req, 404, "no such endpoint")),
    };
    answer.unwrap_or_else(|reply| reply)
}

/// The 405/404 answer; an unread body forces a close.
fn unrouted(req: &Request, status: u16, message: &str) -> Reply {
    Reply {
        close: !matches!(http::framing(req), Ok(Framing::None)),
        ..Reply::error(status, message)
    }
}

/// The request's effective budget: the tenant's table row, the wire
/// deadline, and the server-wide kill switch — read deadlines and
/// validation governance share one clock.
pub(crate) fn request_limits(
    shared: &Shared,
    req: &Request,
    deadline: Instant,
) -> (String, Limits) {
    let (label, limits) = shared.cfg.tenants.resolve(req.header(TENANT_HEADER));
    (
        label.to_string(),
        limits
            .with_deadline(deadline)
            .with_cancel_token(&shared.cfg.cancel),
    )
}

/// Tallies a verdict's error list for the request outcome.
pub(crate) fn tally(outcome: &mut ReqOutcome, errors: &[ValidationError]) {
    outcome.error_count += errors.len() as u64;
    outcome.limit_trips += errors
        .iter()
        .filter(|e| matches!(e.kind, ValidationErrorKind::Resource(_)))
        .count() as u64;
    outcome.malformed_doc |= errors
        .iter()
        .any(|e| matches!(e.kind, ValidationErrorKind::NotWellFormed(_)));
}

/// The body framing of a request that must carry a `what` body: `411`
/// without one, `400` (and close) when the framing headers are bad.
fn body_framing(req: &Request, what: &str) -> Result<Framing, Reply> {
    match http::framing(req) {
        Ok(Framing::None) => Err(Reply::error(411, &format!("a {what} body is required"))),
        Ok(framing) => Ok(framing),
        Err(_) => Err(Reply::error(400, "bad body framing").closing()),
    }
}

/// The reply for a body read that failed mid-way; the connection closes.
fn body_io_error(e: &std::io::Error) -> Reply {
    let (status, msg) = match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            (408, "request timed out reading the body")
        }
        std::io::ErrorKind::InvalidData => (400, "bad chunked body framing"),
        std::io::ErrorKind::UnexpectedEof => (400, "body ended prematurely"),
        _ => (500, "i/o failure reading the body"),
    };
    Reply::error(status, msg).closing()
}

/// Reads a whole small `what` body of at most `cap` bytes: `411`, bad
/// framing, a declared length over `cap` (refused before any byte is
/// read) and a body that reads past `cap` are answered here, as are
/// body I/O errors. `bytes_in` receives the payload bytes consumed.
pub(crate) fn read_small_body(
    conn: &mut Conn,
    req: &Request,
    deadline: Instant,
    cap: usize,
    what: &str,
    bytes_in: &mut u64,
) -> Result<Vec<u8>, Reply> {
    let framing = body_framing(req, what)?;
    let too_large = || Reply::error(413, &format!("{what} body too large")).closing();
    if matches!(framing, Framing::Length(n) if n > cap as u64) {
        return Err(too_large());
    }
    // a declared length is at most `cap` here, so it is reserved whole
    let mut out = match framing {
        Framing::Length(n) => Vec::with_capacity(n as usize),
        _ => Vec::new(),
    };
    let mut body = Body::new(conn, framing, deadline);
    let read = loop {
        match body.fill_buf() {
            Ok([]) => break Ok(out),
            Ok(chunk) if out.len() + chunk.len() > cap => break Err(too_large()),
            Ok(chunk) => {
                let n = chunk.len();
                out.extend_from_slice(chunk);
                body.consume(n);
            }
            Err(e) => break Err(body_io_error(&e)),
        }
    };
    *bytes_in = body.consumed();
    read
}

/// A small body as text; `400` when it is not UTF-8.
pub(crate) fn utf8_body(raw: Vec<u8>, what: &str) -> Result<String, Reply> {
    String::from_utf8(raw).map_err(|_| Reply::error(400, &format!("{what} body is not UTF-8")))
}

fn handle_validate(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    req: &Request,
    deadline: Instant,
    schema: &str,
    outcome: &mut ReqOutcome,
) -> Result<Reply, Reply> {
    let (tenant, limits) = request_limits(shared, req, deadline);
    outcome.tenant = tenant;
    let framing = body_framing(req, "document")?;
    // admission: an oversized declared length is refused before a single
    // body byte is read
    if let Framing::Length(n) = framing {
        if n > limits.max_input_bytes as u64 {
            let kind = ResourceErrorKind::InputTooLarge {
                limit: limits.max_input_bytes,
                actual: n.min(usize::MAX as u64) as usize,
            };
            limits::record_trip(&kind);
            limits::record_rejected();
            let errors = vec![ValidationError {
                kind: ValidationErrorKind::Resource(kind),
                span: None,
            }];
            tally(outcome, &errors);
            return Err(Reply::json(413, json::verdict_json(schema, &errors)).closing());
        }
    }
    let mut body = Body::new(conn, framing, deadline);
    let result = shared
        .registry
        .validate_streaming_reader_with_limits(schema, &mut body, &limits);
    outcome.bytes_in = body.consumed();
    let errors = match result {
        None => {
            let reusable = body.drain(BODY_DRAIN_CAP);
            return Err(Reply {
                close: !reusable,
                ..unknown_schema(schema)
            });
        }
        Some(Err(e)) => return Err(body_io_error(&e)),
        Some(Ok(errors)) => errors,
    };
    // a tripped validator stops reading mid-body; the remainder must be
    // consumed (or the socket closed)
    let reusable = body.finished() || body.drain(BODY_DRAIN_CAP);
    tally(outcome, &errors);
    let verdict = json::verdict_json(schema, &errors);
    Ok(Reply {
        close: !reusable,
        ..Reply::json(json::status_for(&errors), verdict)
    })
}

fn handle_batch(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    req: &Request,
    deadline: Instant,
    schema: &str,
    outcome: &mut ReqOutcome,
) -> Result<Reply, Reply> {
    let (tenant, limits) = request_limits(shared, req, deadline);
    outcome.tenant = tenant;
    let cap = limits.max_input_bytes;
    let raw = read_small_body(conn, req, deadline, cap, "batch", &mut outcome.bytes_in).map_err(
        |reply| match reply.status {
            413 => Reply::error(413, "batch body exceeds the tenant input budget").closing(),
            _ => reply,
        },
    )?;
    let docs = split_frames(&raw, shared.cfg.max_batch_docs)?;
    let lists = shared
        .registry
        .validate_batch_parallel(schema, &docs, &shared.batch_pool, &limits)
        .ok_or_else(|| unknown_schema(schema))?;
    for errors in &lists {
        tally(outcome, errors);
    }
    Ok(Reply::json(200, json::batch_json(schema, &lists)))
}

/// Splits a batch body into its documents. Frame format: ASCII decimal
/// payload length, `'\n'`, payload — repeated.
fn split_frames(raw: &[u8], max_docs: usize) -> Result<Vec<&str>, Reply> {
    let bad = |why: &str| Reply::error(400, &format!("bad batch framing: {why}"));
    let mut docs = Vec::new();
    let mut at = 0usize;
    while at < raw.len() {
        let line_end = raw[at..]
            .iter()
            .take(20)
            .position(|&b| b == b'\n')
            .map(|i| at + i)
            .ok_or_else(|| bad("missing length prefix"))?;
        let len: usize = std::str::from_utf8(&raw[at..line_end])
            .ok()
            .filter(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad length prefix"))?;
        let start = line_end + 1;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= raw.len())
            .ok_or_else(|| bad("truncated frame"))?;
        docs.push(std::str::from_utf8(&raw[start..end]).map_err(|_| bad("frame is not UTF-8"))?);
        if docs.len() > max_docs {
            return Err(Reply::error(413, "too many documents in one batch"));
        }
        at = end;
    }
    Ok(docs)
}

/// Counts one rendered page in the per-page counters.
fn page_metrics(page: &str, bytes: usize) {
    if obs::enabled() {
        let metrics = obs::metrics();
        metrics
            .counter_with(
                "http_pages_rendered_total",
                "Pages rendered through compiled templates, by page.",
                &[("page", page)],
            )
            .inc();
        metrics
            .counter_with(
                "http_page_bytes_total",
                "Bytes of compiled-template page output, by page.",
                &[("page", page)],
            )
            .inc_by(bytes as u64);
    }
}

/// A compiled page plan from `slot`, built by `build` on first use and
/// kept until its schema is hot-swapped. `build` returns `None` when
/// `schema` is not registered, and the template errors when the
/// registered schema rejects the `what` templates.
fn cached_plan<T, E>(
    slot: &RwLock<Option<Arc<T>>>,
    schema: &str,
    what: &str,
    build: impl FnOnce() -> Option<Result<T, Vec<E>>>,
) -> Result<Arc<T>, Reply> {
    if let Some(plan) = slot.read().expect("lock").as_ref() {
        return Ok(plan.clone());
    }
    let plan = build()
        .ok_or_else(|| unknown_schema(schema))?
        .map_err(|errors| {
            let n = errors.len();
            let message =
                format!("{what} templates rejected by the registered schema ({n} error(s))");
            Reply::error(500, &message)
        })?;
    let plan = Arc::new(plan);
    *slot.write().expect("lock") = Some(plan.clone());
    Ok(plan)
}

fn render_failed(e: impl std::fmt::Display) -> Reply {
    Reply::error(500, &format!("render failed: {e}"))
}

/// `GET /v1/page/orders/{seed}/{count}` — renders one synthetic
/// purchase order through the compiled template path.
fn handle_order_page(
    shared: &Arc<Shared>,
    req: &Request,
    deadline: Instant,
    seed: &str,
    count: &str,
    outcome: &mut ReqOutcome,
) -> Result<Reply, Reply> {
    outcome.tenant = request_limits(shared, req, deadline).0;
    let _span = obs::span!("http.page");
    let (Ok(seed), Ok(count)) = (seed.parse::<u64>(), count.parse::<usize>()) else {
        return Err(Reply::error(400, "seed and count must be integers"));
    };
    if count > shared.cfg.max_batch_docs {
        return Err(Reply::error(400, "item count exceeds the limit"));
    }
    let templates = cached_plan(&shared.order_templates, "purchase-order", "order", || {
        let compiled = shared.registry.get("purchase-order")?;
        Some(OrderTemplates::new(&compiled))
    })?;
    let order = webgen::generate_order(seed, count);
    let page = templates.render_compiled(&order).map_err(render_failed)?;
    page_metrics("orders", page.len());
    Ok(Reply::new(200, "application/xml", page))
}

/// `GET /v1/page/directory/{seed}/{breadth}/{depth}` — renders the
/// Sect. 5 WML directory page for a synthetic media archive through the
/// compiled template path.
fn handle_directory_page(
    shared: &Arc<Shared>,
    req: &Request,
    deadline: Instant,
    seed: &str,
    breadth: &str,
    depth: &str,
    outcome: &mut ReqOutcome,
) -> Result<Reply, Reply> {
    outcome.tenant = request_limits(shared, req, deadline).0;
    let _span = obs::span!("http.page");
    let (Ok(seed), Ok(breadth), Ok(depth)) = (
        seed.parse::<u64>(),
        breadth.parse::<usize>(),
        depth.parse::<usize>(),
    ) else {
        return Err(Reply::error(
            400,
            "seed, breadth, and depth must be integers",
        ));
    };
    if breadth > 64 || depth > 6 {
        return Err(Reply::error(400, "archive size exceeds the limit"));
    }
    let page = cached_plan(&shared.directory_page, "wml", "directory", || {
        let compiled = shared.registry.get("wml")?;
        Some(CompiledDirectoryPage::new(&compiled))
    })?;
    let archive = webgen::MediaArchive::generate(seed, breadth, depth);
    let data = webgen::DirectoryPageData::from_media(&archive.root());
    let body = page.render(&data).map_err(render_failed)?;
    page_metrics("directory", body.len());
    Ok(Reply::new(200, "text/vnd.wap.wml", body))
}

fn handle_put_schema(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    req: &Request,
    deadline: Instant,
    name: &str,
    outcome: &mut ReqOutcome,
) -> Result<Reply, Reply> {
    outcome.tenant = request_limits(shared, req, deadline).0;
    let cap = shared.cfg.max_schema_bytes;
    let raw = read_small_body(conn, req, deadline, cap, "schema", &mut outcome.bytes_in)?;
    let xsd = utf8_body(raw, "schema")?;
    let previous = shared
        .registry
        .register(name, &xsd)
        .map_err(|e| Reply::error(400, &format!("schema failed to compile: {e}")))?;
    // compiled page plans were lowered against the replaced schema —
    // drop them so the next page request recompiles
    if name == "purchase-order" {
        *shared.order_templates.write().expect("lock") = None;
    }
    if name == "wml" {
        *shared.directory_page.write().expect("lock") = None;
    }
    let mut body = String::from("{\"schema\":");
    json::escape_into(&mut body, name);
    body.push_str(",\"replaced\":");
    body.push_str(if previous.is_some() { "true" } else { "false" });
    body.push('}');
    Ok(Reply::json(
        if previous.is_some() { 200 } else { 201 },
        body,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};

    fn corpus_server(cfg: ServerConfig) -> Server {
        let registry = Arc::new(SchemaRegistry::with_corpus().unwrap());
        Server::start(registry, "127.0.0.1:0", cfg).unwrap()
    }

    fn roundtrip(addr: SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
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

    #[test]
    fn health_metrics_and_validate_roundtrip() {
        let server = corpus_server(ServerConfig::default());
        let addr = server.addr();
        let (status, body) = roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let doc = webgen::render_order_string(&webgen::generate_order(3, 5));
        let request = format!(
            "POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            doc.len(),
            doc
        );
        let (status, body) = roundtrip(addr, &request);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"valid\":true"), "{body}");
        let (status, _) = roundtrip(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);
        server.drain();
    }

    #[test]
    fn page_endpoints_render_compiled_templates() {
        let server = corpus_server(ServerConfig::default());
        let addr = server.addr();
        // the order page byte-equals the in-process compiled renderer
        let (status, body) =
            roundtrip(addr, "GET /v1/page/orders/42/3 HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        let compiled = Arc::new(
            SchemaRegistry::with_corpus()
                .unwrap()
                .get("purchase-order")
                .unwrap(),
        );
        let expected = OrderTemplates::new(&compiled)
            .unwrap()
            .render_compiled(&webgen::generate_order(42, 3))
            .unwrap();
        assert_eq!(body, expected);
        // and it validates against the registered schema
        let request = format!(
            "POST /v1/validate/purchase-order HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let (status, verdict) = roundtrip(addr, &request);
        assert_eq!(status, 200);
        assert!(verdict.contains("\"valid\":true"), "{verdict}");
        // directory page
        let (status, wml) = roundtrip(
            addr,
            "GET /v1/page/directory/7/3/2 HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 200, "{wml}");
        assert!(wml.starts_with("<wml><card id=\"dirs\">"), "{wml}");
        // bad parameters and wrong verbs are typed failures
        let (status, _) = roundtrip(addr, "GET /v1/page/orders/x/3 HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 400);
        let (status, _) = roundtrip(
            addr,
            "GET /v1/page/orders/1/99999 HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 400);
        let (status, _) = roundtrip(addr, "POST /v1/page/orders/1/1 HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 405);
        server.drain();
    }

    #[test]
    fn drain_refuses_new_connections() {
        let server = corpus_server(ServerConfig::default());
        let addr = server.addr();
        server.shutdown();
        assert!(server.is_draining());
        server.join();
        // the listener is gone: connects are refused (or reset on the
        // first byte, depending on backlog timing)
        let refused = match TcpStream::connect(addr) {
            Err(_) => true,
            Ok(mut s) => {
                let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
                let mut buf = [0u8; 1];
                let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
                !matches!(std::io::Read::read(&mut s, &mut buf), Ok(n) if n > 0)
            }
        };
        assert!(refused, "a drained server must not serve new connections");
    }
}
