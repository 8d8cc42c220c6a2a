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
    let shared = shared.clone();
    pool.execute(move || {
        handle_connection(&shared, stream);
        shared.active.fetch_sub(1, Ordering::AcqRel);
    });
}

/// Over the connection cap: answer `503` inline on the acceptor (the
/// response is a few bytes; the write timeout bounds a stuck peer) and
/// close.
fn refuse_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.cfg.write_deadline));
    let body = json::error_json("connection limit reached");
    let _ = http::write_response(&mut stream, 503, "application/json", body.as_bytes(), false);
    if obs::enabled() {
        obs::metrics()
            .counter(
                "http_connections_rejected_total",
                "Connections refused at the connection cap.",
            )
            .inc();
    }
}

/// Everything the metrics and the request's wide event need to know
/// about how one exchange went.
pub(crate) struct ReqOutcome {
    pub(crate) status: u16,
    /// The connection cannot be reused (unread body, protocol damage).
    pub(crate) close: bool,
    /// Payload bytes consumed from the request body.
    pub(crate) bytes_in: u64,
    pub(crate) error_count: u64,
    pub(crate) limit_trips: u64,
    pub(crate) malformed_doc: bool,
    pub(crate) tenant: String,
}

impl ReqOutcome {
    pub(crate) fn plain(status: u16, close: bool) -> ReqOutcome {
        ReqOutcome {
            status,
            close,
            bytes_in: 0,
            error_count: 0,
            limit_trips: 0,
            malformed_doc: false,
            tenant: "default".into(),
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let mut conn = Conn::new(stream, shared.cfg.write_deadline);
    loop {
        // wait for the next request (or pipelined bytes already here)
        if !conn.wait_for_data(shared.cfg.keep_alive_idle, &shared.draining) {
            return;
        }
        let started = Instant::now();
        let deadline = started + shared.cfg.request_deadline;
        let req = match http::parse_request(&mut conn, deadline) {
            Ok(req) => req,
            Err(e) => {
                let status = match e {
                    HttpError::Malformed(msg) => {
                        let body = json::error_json(msg);
                        let _ = http::write_response(
                            conn.writer(),
                            400,
                            "application/json",
                            body.as_bytes(),
                            false,
                        );
                        400
                    }
                    HttpError::Timeout => {
                        let body = json::error_json("request timed out");
                        let _ = http::write_response(
                            conn.writer(),
                            408,
                            "application/json",
                            body.as_bytes(),
                            false,
                        );
                        408
                    }
                    // peer gone; nothing to answer, nothing to record
                    HttpError::Closed | HttpError::Io(_) => return,
                };
                record_request(status, started, None, &ReqOutcome::plain(status, true));
                return;
            }
        };
        let span = obs::span!("http.request");
        let outcome = route(shared, &mut conn, &req, deadline);
        span.finish();
        record_request(outcome.status, started, Some(&req), &outcome);
        if outcome.close || !req.keep_alive() || shared.draining.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Counts the request in `http_requests_total{code}` /
/// `http_request_seconds` and offers the flight recorder one wide event
/// carrying the request attributes.
fn record_request(status: u16, started: Instant, req: Option<&Request>, outcome: &ReqOutcome) {
    let elapsed = started.elapsed();
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

/// Writes the response for a fully-handled request and reports whether
/// the connection must close.
pub(crate) fn respond(
    conn: &mut Conn,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
) -> bool {
    http::write_response(conn.writer(), status, content_type, body.as_bytes(), !close).is_err()
        || close
}

fn route(shared: &Arc<Shared>, conn: &mut Conn, req: &Request, deadline: Instant) -> ReqOutcome {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let draining = shared.draining.load(Ordering::Acquire);
            let (status, body) = if draining {
                (503, "draining\n")
            } else {
                (200, "ok\n")
            };
            let close = respond(conn, status, "text/plain; charset=utf-8", body, false);
            ReqOutcome::plain(status, close)
        }
        ("GET", ["metrics"]) => {
            let body = obs::metrics().render_prometheus();
            let close = respond(conn, 200, "text/plain; version=0.0.4", &body, false);
            ReqOutcome::plain(200, close)
        }
        ("POST", ["v1", "validate", schema]) => {
            handle_validate(shared, conn, req, deadline, schema)
        }
        ("POST", ["v1", "batch", schema]) => handle_batch(shared, conn, req, deadline, schema),
        ("PUT", ["v1", "schemas", name]) => handle_put_schema(shared, conn, req, deadline, name),
        ("GET", ["v1", "page", "orders", seed, count]) => {
            handle_order_page(shared, conn, req, deadline, seed, count)
        }
        ("GET", ["v1", "page", "directory", seed, breadth, depth]) => {
            handle_directory_page(shared, conn, req, deadline, seed, breadth, depth)
        }
        ("POST", ["v1", "session", schema]) => {
            session::handle_session_create(shared, conn, req, deadline, schema)
        }
        ("POST", ["v1", "session", id, "patch"]) => {
            session::handle_session_patch(shared, conn, req, deadline, id)
        }
        ("GET", ["v1", "session", id]) => session::handle_session_get(shared, conn, req, id),
        ("DELETE", ["v1", "session", id]) => session::handle_session_delete(shared, conn, req, id),
        (_, ["healthz" | "metrics"])
        | (_, ["v1", "validate" | "batch" | "schemas", _])
        | (_, ["v1", "session", _])
        | (_, ["v1", "session", _, "patch"])
        | (_, ["v1", "page", "orders", _, _])
        | (_, ["v1", "page", "directory", _, _, _]) => {
            // known route, wrong verb; an unread body forces a close
            let close = !matches!(http::framing(req), Ok(Framing::None));
            let body = json::error_json("method not allowed");
            let close = respond(conn, 405, "application/json", &body, close);
            ReqOutcome::plain(405, close)
        }
        _ => {
            let close = !matches!(http::framing(req), Ok(Framing::None));
            let body = json::error_json("no such endpoint");
            let close = respond(conn, 404, "application/json", &body, close);
            ReqOutcome::plain(404, close)
        }
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

fn handle_validate(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    req: &Request,
    deadline: Instant,
    schema: &str,
) -> ReqOutcome {
    let (tenant, limits) = request_limits(shared, req, deadline);
    let mut outcome = ReqOutcome {
        tenant,
        ..ReqOutcome::plain(200, false)
    };
    let framing = match http::framing(req) {
        Ok(f) => f,
        Err(_) => {
            outcome.status = 400;
            outcome.close = respond(
                conn,
                400,
                "application/json",
                &json::error_json("bad body framing"),
                true,
            );
            return outcome;
        }
    };
    match framing {
        Framing::None => {
            outcome.status = 411;
            outcome.close = respond(
                conn,
                411,
                "application/json",
                &json::error_json("a document body is required"),
                false,
            );
            outcome
        }
        // the admission check the ISSUE calls out: an oversized declared
        // length is refused before a single body byte is read
        Framing::Length(n) if n > limits.max_input_bytes as u64 => {
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
            tally(&mut outcome, &errors);
            outcome.status = 413;
            outcome.close = respond(
                conn,
                413,
                "application/json",
                &json::verdict_json(schema, &errors),
                true,
            );
            outcome
        }
        _ => {
            let mut body = Body::new(conn, framing, deadline);
            let result = shared
                .registry
                .validate_streaming_reader_with_limits(schema, &mut body, &limits);
            match result {
                None => {
                    outcome.bytes_in = body.consumed();
                    let reusable = body.drain(BODY_DRAIN_CAP);
                    outcome.status = 404;
                    outcome.close = respond(
                        conn,
                        404,
                        "application/json",
                        &json::error_json(&format!("no schema registered under {schema:?}")),
                        !reusable,
                    );
                    outcome
                }
                Some(Err(e)) => {
                    outcome.bytes_in = body.consumed();
                    let (status, msg) = match e.kind() {
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                            (408, "request timed out reading the body")
                        }
                        std::io::ErrorKind::InvalidData => (400, "bad chunked body framing"),
                        std::io::ErrorKind::UnexpectedEof => (400, "body ended prematurely"),
                        _ => (500, "i/o failure reading the body"),
                    };
                    outcome.status = status;
                    outcome.close = respond(
                        conn,
                        status,
                        "application/json",
                        &json::error_json(msg),
                        true,
                    );
                    outcome
                }
                Some(Ok(errors)) => {
                    outcome.bytes_in = body.consumed();
                    // a tripped validator stops reading mid-body; the
                    // remainder must be consumed (or the socket closed)
                    let reusable = body.finished() || body.drain(BODY_DRAIN_CAP);
                    tally(&mut outcome, &errors);
                    outcome.status = json::status_for(&errors);
                    outcome.close = respond(
                        conn,
                        outcome.status,
                        "application/json",
                        &json::verdict_json(schema, &errors),
                        !reusable,
                    );
                    outcome
                }
            }
        }
    }
}

/// Reads a whole (small) body, refusing past `cap` bytes. `Ok(None)`
/// means the cap tripped.
pub(crate) fn read_capped(body: &mut Body<'_>, cap: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut out = Vec::new();
    let mut buf = [0u8; 8 << 10];
    loop {
        let n = match std::io::Read::read(body, &mut buf) {
            Ok(0) => return Ok(Some(out)),
            Ok(n) => n,
            Err(e) => return Err(e),
        };
        if out.len() + n > cap {
            return Ok(None);
        }
        out.extend_from_slice(&buf[..n]);
    }
}

/// Maps a body-read failure to its response, shared by the endpoints
/// that must buffer their (framed or small) bodies.
pub(crate) fn body_error_response(conn: &mut Conn, outcome: &mut ReqOutcome, e: std::io::Error) {
    let (status, msg) = match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            (408, "request timed out reading the body")
        }
        std::io::ErrorKind::InvalidData => (400, "bad chunked body framing"),
        std::io::ErrorKind::UnexpectedEof => (400, "body ended prematurely"),
        _ => (500, "i/o failure reading the body"),
    };
    outcome.status = status;
    outcome.close = respond(
        conn,
        status,
        "application/json",
        &json::error_json(msg),
        true,
    );
}

fn handle_batch(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    req: &Request,
    deadline: Instant,
    schema: &str,
) -> ReqOutcome {
    let (tenant, limits) = request_limits(shared, req, deadline);
    let mut outcome = ReqOutcome {
        tenant,
        ..ReqOutcome::plain(200, false)
    };
    let framing = match http::framing(req) {
        Ok(Framing::None) => {
            outcome.status = 411;
            outcome.close = respond(
                conn,
                411,
                "application/json",
                &json::error_json("a batch body is required"),
                false,
            );
            return outcome;
        }
        Ok(f) => f,
        Err(_) => {
            outcome.status = 400;
            outcome.close = respond(
                conn,
                400,
                "application/json",
                &json::error_json("bad body framing"),
                true,
            );
            return outcome;
        }
    };
    if let Framing::Length(n) = framing {
        if n > limits.max_input_bytes as u64 {
            outcome.status = 413;
            outcome.close = respond(
                conn,
                413,
                "application/json",
                &json::error_json("batch body exceeds the tenant input budget"),
                true,
            );
            return outcome;
        }
    }
    let mut body = Body::new(conn, framing, deadline);
    let raw = match read_capped(&mut body, limits.max_input_bytes) {
        Ok(Some(raw)) => raw,
        Ok(None) => {
            outcome.bytes_in = body.consumed();
            outcome.status = 413;
            outcome.close = respond(
                conn,
                413,
                "application/json",
                &json::error_json("batch body exceeds the tenant input budget"),
                true,
            );
            return outcome;
        }
        Err(e) => {
            outcome.bytes_in = body.consumed();
            body_error_response(conn, &mut outcome, e);
            return outcome;
        }
    };
    outcome.bytes_in = body.consumed();
    // frame format: ASCII decimal payload length, '\n', payload — repeated
    let mut docs: Vec<&str> = Vec::new();
    let mut at = 0usize;
    while at < raw.len() {
        let line_end = match raw[at..].iter().take(20).position(|&b| b == b'\n') {
            Some(i) => at + i,
            None => {
                outcome.status = 400;
                outcome.close = respond(
                    conn,
                    400,
                    "application/json",
                    &json::error_json("bad batch framing: missing length prefix"),
                    false,
                );
                return outcome;
            }
        };
        let len: usize = match std::str::from_utf8(&raw[at..line_end])
            .ok()
            .filter(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|s| s.parse().ok())
        {
            Some(n) => n,
            None => {
                outcome.status = 400;
                outcome.close = respond(
                    conn,
                    400,
                    "application/json",
                    &json::error_json("bad batch framing: bad length prefix"),
                    false,
                );
                return outcome;
            }
        };
        let start = line_end + 1;
        let end = match start.checked_add(len).filter(|&e| e <= raw.len()) {
            Some(e) => e,
            None => {
                outcome.status = 400;
                outcome.close = respond(
                    conn,
                    400,
                    "application/json",
                    &json::error_json("bad batch framing: truncated frame"),
                    false,
                );
                return outcome;
            }
        };
        let doc = match std::str::from_utf8(&raw[start..end]) {
            Ok(d) => d,
            Err(_) => {
                outcome.status = 400;
                outcome.close = respond(
                    conn,
                    400,
                    "application/json",
                    &json::error_json("bad batch framing: frame is not UTF-8"),
                    false,
                );
                return outcome;
            }
        };
        docs.push(doc);
        if docs.len() > shared.cfg.max_batch_docs {
            outcome.status = 413;
            outcome.close = respond(
                conn,
                413,
                "application/json",
                &json::error_json("too many documents in one batch"),
                false,
            );
            return outcome;
        }
        at = end;
    }
    let results =
        shared
            .registry
            .validate_batch_parallel(schema, &docs, &shared.batch_pool, &limits);
    match results {
        None => {
            outcome.status = 404;
            outcome.close = respond(
                conn,
                404,
                "application/json",
                &json::error_json(&format!("no schema registered under {schema:?}")),
                false,
            );
            outcome
        }
        Some(lists) => {
            for errors in &lists {
                tally(&mut outcome, errors);
            }
            outcome.status = 200;
            outcome.close = respond(
                conn,
                200,
                "application/json",
                &json::batch_json(schema, &lists),
                false,
            );
            outcome
        }
    }
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

/// The lazily-built compiled order plans; `Err` is `(status, message)`.
fn order_templates(shared: &Shared) -> Result<Arc<OrderTemplates>, (u16, String)> {
    if let Some(t) = shared.order_templates.read().expect("lock").as_ref() {
        return Ok(t.clone());
    }
    let compiled = shared.registry.get("purchase-order").ok_or_else(|| {
        (
            404,
            "no schema registered under \"purchase-order\"".to_string(),
        )
    })?;
    let templates = OrderTemplates::new(&compiled).map_err(|errors| {
        (
            500,
            format!(
                "order templates rejected by the registered schema ({} error(s))",
                errors.len()
            ),
        )
    })?;
    let templates = Arc::new(templates);
    *shared.order_templates.write().expect("lock") = Some(templates.clone());
    Ok(templates)
}

/// The lazily-built compiled WML directory page.
fn directory_page(shared: &Shared) -> Result<Arc<CompiledDirectoryPage>, (u16, String)> {
    if let Some(p) = shared.directory_page.read().expect("lock").as_ref() {
        return Ok(p.clone());
    }
    let compiled = shared
        .registry
        .get("wml")
        .ok_or_else(|| (404, "no schema registered under \"wml\"".to_string()))?;
    let page = CompiledDirectoryPage::new(&compiled).map_err(|errors| {
        (
            500,
            format!(
                "directory templates rejected by the registered schema ({} error(s))",
                errors.len()
            ),
        )
    })?;
    let page = Arc::new(page);
    *shared.directory_page.write().expect("lock") = Some(page.clone());
    Ok(page)
}

fn page_error(conn: &mut Conn, outcome: &mut ReqOutcome, status: u16, message: &str) {
    outcome.status = status;
    outcome.error_count += 1;
    outcome.close = respond(
        conn,
        status,
        "application/json",
        &json::error_json(message),
        false,
    );
}

/// `GET /v1/page/orders/{seed}/{count}` — renders one synthetic
/// purchase order through the compiled template path.
fn handle_order_page(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    req: &Request,
    deadline: Instant,
    seed: &str,
    count: &str,
) -> ReqOutcome {
    let (tenant, _) = request_limits(shared, req, deadline);
    let mut outcome = ReqOutcome {
        tenant,
        ..ReqOutcome::plain(200, false)
    };
    let _span = obs::span!("http.page", page = "orders");
    let (Ok(seed), Ok(count)) = (seed.parse::<u64>(), count.parse::<usize>()) else {
        page_error(conn, &mut outcome, 400, "seed and count must be integers");
        return outcome;
    };
    if count > shared.cfg.max_batch_docs {
        page_error(conn, &mut outcome, 400, "item count exceeds the limit");
        return outcome;
    }
    let templates = match order_templates(shared) {
        Ok(t) => t,
        Err((status, message)) => {
            page_error(conn, &mut outcome, status, &message);
            return outcome;
        }
    };
    let order = webgen::generate_order(seed, count);
    match templates.render_compiled(&order) {
        Ok(page) => {
            page_metrics("orders", page.len());
            outcome.close = respond(conn, 200, "application/xml", &page, false);
            outcome
        }
        Err(e) => {
            page_error(conn, &mut outcome, 500, &format!("render failed: {e}"));
            outcome
        }
    }
}

/// `GET /v1/page/directory/{seed}/{breadth}/{depth}` — renders the
/// Sect. 5 WML directory page for a synthetic media archive through the
/// compiled template path.
fn handle_directory_page(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    req: &Request,
    deadline: Instant,
    seed: &str,
    breadth: &str,
    depth: &str,
) -> ReqOutcome {
    let (tenant, _) = request_limits(shared, req, deadline);
    let mut outcome = ReqOutcome {
        tenant,
        ..ReqOutcome::plain(200, false)
    };
    let _span = obs::span!("http.page", page = "directory");
    let (Ok(seed), Ok(breadth), Ok(depth)) = (
        seed.parse::<u64>(),
        breadth.parse::<usize>(),
        depth.parse::<usize>(),
    ) else {
        page_error(
            conn,
            &mut outcome,
            400,
            "seed, breadth, and depth must be integers",
        );
        return outcome;
    };
    if breadth > 64 || depth > 6 {
        page_error(conn, &mut outcome, 400, "archive size exceeds the limit");
        return outcome;
    }
    let page = match directory_page(shared) {
        Ok(p) => p,
        Err((status, message)) => {
            page_error(conn, &mut outcome, status, &message);
            return outcome;
        }
    };
    let archive = webgen::MediaArchive::generate(seed, breadth, depth);
    let data = webgen::DirectoryPageData::from_media(&archive.root());
    match page.render(&data) {
        Ok(body) => {
            page_metrics("directory", body.len());
            outcome.close = respond(conn, 200, "text/vnd.wap.wml", &body, false);
            outcome
        }
        Err(e) => {
            page_error(conn, &mut outcome, 500, &format!("render failed: {e}"));
            outcome
        }
    }
}

fn handle_put_schema(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    req: &Request,
    deadline: Instant,
    name: &str,
) -> ReqOutcome {
    let (tenant, _) = request_limits(shared, req, deadline);
    let mut outcome = ReqOutcome {
        tenant,
        ..ReqOutcome::plain(200, false)
    };
    let framing = match http::framing(req) {
        Ok(Framing::None) => {
            outcome.status = 411;
            outcome.close = respond(
                conn,
                411,
                "application/json",
                &json::error_json("a schema body is required"),
                false,
            );
            return outcome;
        }
        Ok(f) => f,
        Err(_) => {
            outcome.status = 400;
            outcome.close = respond(
                conn,
                400,
                "application/json",
                &json::error_json("bad body framing"),
                true,
            );
            return outcome;
        }
    };
    if let Framing::Length(n) = framing {
        if n > shared.cfg.max_schema_bytes as u64 {
            outcome.status = 413;
            outcome.close = respond(
                conn,
                413,
                "application/json",
                &json::error_json("schema body too large"),
                true,
            );
            return outcome;
        }
    }
    let mut body = Body::new(conn, framing, deadline);
    let raw = match read_capped(&mut body, shared.cfg.max_schema_bytes) {
        Ok(Some(raw)) => raw,
        Ok(None) => {
            outcome.bytes_in = body.consumed();
            outcome.status = 413;
            outcome.close = respond(
                conn,
                413,
                "application/json",
                &json::error_json("schema body too large"),
                true,
            );
            return outcome;
        }
        Err(e) => {
            outcome.bytes_in = body.consumed();
            body_error_response(conn, &mut outcome, e);
            return outcome;
        }
    };
    outcome.bytes_in = body.consumed();
    let xsd = match String::from_utf8(raw) {
        Ok(s) => s,
        Err(_) => {
            outcome.status = 400;
            outcome.close = respond(
                conn,
                400,
                "application/json",
                &json::error_json("schema body is not UTF-8"),
                false,
            );
            return outcome;
        }
    };
    match shared.registry.register(name, &xsd) {
        Ok(previous) => {
            // compiled page plans were lowered against the replaced
            // schema — drop them so the next page request recompiles
            if name == "purchase-order" {
                *shared.order_templates.write().expect("lock") = None;
            }
            if name == "wml" {
                *shared.directory_page.write().expect("lock") = None;
            }
            let status = if previous.is_some() { 200 } else { 201 };
            let mut body = String::from("{\"schema\":");
            json::escape_into(&mut body, name);
            body.push_str(",\"replaced\":");
            body.push_str(if previous.is_some() { "true" } else { "false" });
            body.push('}');
            outcome.status = status;
            outcome.close = respond(conn, status, "application/json", &body, false);
            outcome
        }
        Err(e) => {
            outcome.status = 400;
            outcome.close = respond(
                conn,
                400,
                "application/json",
                &json::error_json(&format!("schema failed to compile: {e}")),
                false,
            );
            outcome
        }
    }
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
