//! `http-mixed`: `serve::Server` on loopback with one connection worker,
//! driven by one keep-alive client in a closed loop. Each round replays
//! the same seeded traffic: validations (some invalid), deep-nesting
//! documents that must get a 422, compiled order pages, and patch
//! sessions (open, 12 patches, untimed delete).
//!
//! The client connects before any timing starts: the acceptor polls
//! `accept` every 5 ms, so a connect inside a timed window would add up
//! to 5 ms of jitter.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use limits::Limits;
use serve::{Server, ServerConfig};
use validator::{PatchError, ValidationError};
use webgen::{DocSession, OrderTemplates, SchemaRegistry};

use crate::edit_session::oracle_check;
use crate::gen::{self, HttpUnit, Scale};
use crate::measure::{ns_since, quantile, Minima, Outcome};
use crate::spans::{self, ItemMinima, Tracer};
use crate::Metric;

const PO: &str = "purchase-order";

/// What a timed request is, for splitting the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Validate,
    Hostile,
    Page,
    Open,
    Patch,
}

const ALL_KINDS: [Kind; 5] = [
    Kind::Validate,
    Kind::Hostile,
    Kind::Page,
    Kind::Open,
    Kind::Patch,
];

/// The server configuration the workload runs against: one connection
/// worker, and idle timeouts long enough that nothing expires mid-run.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        conn_workers: 1,
        batch_threads: 1,
        keep_alive_idle: Duration::from_secs(600),
        session_idle: Duration::from_secs(600),
        ..ServerConfig::default()
    }
}

/// Starts the server on an ephemeral loopback port.
pub fn start_server(reg: Arc<SchemaRegistry>) -> std::io::Result<Server> {
    Server::start(reg, "127.0.0.1:0", server_config())
}

/// A keep-alive HTTP/1.1 client over one connection.
struct Client {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    /// The server announced `Connection: close`.
    closed: bool,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            addr,
            writer,
            reader,
            line: String::new(),
            closed: false,
        })
    }

    /// Sends one request and reads the whole response; the body lands in
    /// `body`, the status is returned.
    fn exchange(&mut self, request: &[u8], body: &mut Vec<u8>) -> std::io::Result<u16> {
        self.writer.write_all(request)?;
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        let status = self
            .line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {:?}", self.line)))?;
        let mut len = 0;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').unwrap_or((header, ""));
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().map_err(std::io::Error::other)?;
            } else if name.eq_ignore_ascii_case("connection") {
                self.closed = value.trim().eq_ignore_ascii_case("close");
            }
        }
        body.resize(len, 0);
        self.reader.read_exact(body)?;
        Ok(status)
    }

    /// Reconnects after an error or a server-side close (untimed).
    fn reconnect(&mut self) -> std::io::Result<()> {
        *self = Client::connect(self.addr)?;
        Ok(())
    }
}

fn request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n").into_bytes();
    if method != "GET" {
        out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// A patch as the JSON body `POST /v1/session/{id}/patch` takes.
fn patch_json(patch: &validator::DomPatch) -> String {
    use serve::json::escape_into;
    use validator::{DomPatch, NewNode};
    let mut out = String::from("{\"op\":");
    escape_into(&mut out, patch.op_name());
    let path = |out: &mut String, at: &[usize]| {
        let list: Vec<String> = at.iter().map(usize::to_string).collect();
        out.push_str(&format!(",\"path\":[{}]", list.join(",")));
    };
    let element = |out: &mut String, child: &NewNode| match child {
        NewNode::Element { xml } => {
            out.push_str(",\"node\":{\"kind\":\"element\",\"xml\":");
            escape_into(out, xml);
            out.push('}');
        }
        other => unreachable!("scripts splice only elements, not {other:?}"),
    };
    match patch {
        DomPatch::SetText { at, text } => {
            path(&mut out, at);
            out.push_str(",\"text\":");
            escape_into(&mut out, text);
        }
        DomPatch::SetAttr { at, name, value } => {
            path(&mut out, at);
            out.push_str(",\"name\":");
            escape_into(&mut out, name);
            out.push_str(",\"value\":");
            escape_into(&mut out, value);
        }
        DomPatch::AppendChild { at, child } => {
            path(&mut out, at);
            element(&mut out, child);
        }
        DomPatch::InsertChild { at, index, child } => {
            path(&mut out, at);
            out.push_str(&format!(",\"index\":{index}"));
            element(&mut out, child);
        }
        DomPatch::RemoveChild { at, index } => {
            path(&mut out, at);
            out.push_str(&format!(",\"index\":{index}"));
        }
        other => unreachable!("scripts do not use {other:?}"),
    }
    out.push('}');
    out
}

/// The body the server answers a patch with, derived from the library
/// session's result.
fn patch_response(
    session: &DocSession,
    patch: &validator::DomPatch,
    result: &Result<(), PatchError>,
) -> String {
    match result {
        Ok(()) => format!(
            "{{\"applied\":true,\"op\":\"{}\",\"nodes_rechecked\":{},\"doc_nodes\":{}}}",
            patch.op_name(),
            session.validator().nodes_rechecked(),
            session.validator().node_count()
        ),
        Err(PatchError::Invalid(errors)) => {
            format!(
                "{{\"applied\":false,{}",
                &serve::json::verdict_json(PO, errors)[1..]
            )
        }
        Err(other) => format!("unexpected library result {other}"),
    }
}

/// Parses `{"session":"ID","schema":"purchase-order","nodes":N}`.
fn parse_open(body: &[u8]) -> Option<(u64, usize)> {
    let body = std::str::from_utf8(body).ok()?;
    let rest = body.strip_prefix("{\"session\":\"")?;
    let (id, rest) = rest.split_once('"')?;
    let nodes = rest
        .strip_prefix(",\"schema\":\"purchase-order\",\"nodes\":")?
        .strip_suffix('}')?;
    Some((id.parse().ok()?, nodes.parse().ok()?))
}

/// What one unit must answer.
enum Expected {
    /// Status and exact body.
    Reply(u16, Vec<u8>),
    /// A session: node count at open, then each patch's exact body.
    Session { nodes: usize, patches: Vec<String> },
}

/// Work counts of one round.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HttpCounts {
    /// Responses by status (timed requests and deletes).
    pub statuses: BTreeMap<u16, u64>,
    /// Request body bytes.
    pub bytes_in: u64,
    /// Response body bytes.
    pub bytes_out: u64,
}

/// The traffic and its expected answers.
struct Plan {
    reg: Arc<SchemaRegistry>,
    units: Vec<HttpUnit>,
    /// Pre-rendered requests (the create request, for sessions).
    requests: Vec<Vec<u8>>,
    /// Per session unit, each patch's JSON body.
    patch_bodies: Vec<Vec<String>>,
    expected: Vec<Expected>,
    first_item: Vec<usize>,
    kinds: Vec<Kind>,
    templates: OrderTemplates,
}

/// The traffic, the server it runs against and the client driving it.
pub struct HttpMixed {
    plan: Plan,
    counts: HttpCounts,
    client: Option<Client>,
    server: Option<Server>,
}

/// The mutable state of one round.
struct Round<'a> {
    body: Vec<u8>,
    minima: &'a mut Minima,
    outcome: &'a mut Outcome,
    tracer: Option<&'a mut Tracer>,
    op: u64,
    /// Trace the library twin of every request beside its round trip.
    twins: bool,
    counts: Option<&'a mut HttpCounts>,
}

impl Plan {
    /// Generates the traffic and fixes every answer from the library.
    fn new(reg: Arc<SchemaRegistry>, seed: u64, scale: &Scale, outcome: &mut Outcome) -> Plan {
        let compiled = reg.get(PO).expect("registered");
        let templates = OrderTemplates::new(&compiled).expect("order templates check");
        let units = gen::http_mix(seed, scale);
        let mut plan = Plan {
            reg,
            units: Vec::new(),
            requests: Vec::with_capacity(units.len()),
            patch_bodies: Vec::with_capacity(units.len()),
            expected: Vec::with_capacity(units.len()),
            first_item: Vec::with_capacity(units.len()),
            kinds: Vec::new(),
            templates,
        };
        for (u, unit) in units.iter().enumerate() {
            plan.first_item.push(plan.kinds.len());
            plan.add(u, unit, outcome);
        }
        plan.units = units;
        plan
    }

    fn verdict(&self, schema: &str, text: &str) -> Vec<ValidationError> {
        self.reg
            .validate_streaming_reader(schema, text.as_bytes())
            .expect("registered")
            .expect("in-memory reads cannot fail")
    }

    fn add(&mut self, u: usize, unit: &HttpUnit, outcome: &mut Outcome) {
        let mut patch_bodies = Vec::new();
        let (request, expected) = match unit {
            HttpUnit::Validate(doc) => {
                self.kinds.push(Kind::Validate);
                let errors = self.verdict(doc.schema, &doc.text);
                outcome.check(doc.expect.admits(&errors), || {
                    format!(
                        "unit {u}: library verdict {:?}, expected {:?}",
                        errors.first(),
                        doc.expect
                    )
                });
                let path = format!("/v1/validate/{}", doc.schema);
                let body = serve::json::verdict_json(doc.schema, &errors);
                (
                    request("POST", &path, doc.text.as_bytes()),
                    Expected::Reply(serve::json::status_for(&errors), body.into_bytes()),
                )
            }
            HttpUnit::Hostile(text) => {
                self.kinds.push(Kind::Hostile);
                let errors = self.verdict("wml", text);
                let status = serve::json::status_for(&errors);
                outcome.check(status == 422, || {
                    format!("unit {u}: hostile document maps to {status}")
                });
                let body = serve::json::verdict_json("wml", &errors);
                (
                    request("POST", "/v1/validate/wml", text.as_bytes()),
                    Expected::Reply(422, body.into_bytes()),
                )
            }
            HttpUnit::Page { seed, count } => {
                self.kinds.push(Kind::Page);
                let page = self
                    .templates
                    .render_compiled(&webgen::generate_order(*seed, *count))
                    .expect("generated orders render");
                (
                    request("GET", &format!("/v1/page/orders/{seed}/{count}"), b""),
                    Expected::Reply(200, page.into_bytes()),
                )
            }
            HttpUnit::Session(spec) => {
                self.kinds.push(Kind::Open);
                self.kinds.extend(spec.script.iter().map(|_| Kind::Patch));
                // the oracle: incremental results ≡ apply_unchecked +
                // validate_document on a twin tree
                let results = oracle_check(&self.reg, &format!("unit {u}"), spec, outcome);
                let mut twin = self
                    .reg
                    .open_session(PO, &spec.text, Limits::default())
                    .expect("session documents are valid");
                let nodes = twin.validator().node_count();
                let mut patches = Vec::with_capacity(spec.script.len());
                for (p, oracle) in spec.script.iter().zip(&results) {
                    let result = twin.apply(&p.patch);
                    outcome.check(&result == oracle, || {
                        format!("unit {u}: twin session diverged")
                    });
                    patches.push(patch_response(&twin, &p.patch, &result));
                }
                patch_bodies = spec.script.iter().map(|p| patch_json(&p.patch)).collect();
                (
                    request("POST", "/v1/session/purchase-order", spec.text.as_bytes()),
                    Expected::Session { nodes, patches },
                )
            }
        };
        self.requests.push(request);
        self.expected.push(expected);
        self.patch_bodies.push(patch_bodies);
    }

    /// The library work equivalent to a validate or page request, traced
    /// as siblings of its round trip.
    fn library_twin(&self, unit: &HttpUnit, item: usize, st: &mut Round<'_>) {
        let (Some(t), true) = (st.tracer.as_deref_mut(), st.twins) else {
            return;
        };
        let op = st.op;
        let reg = &self.reg;
        match unit {
            HttpUnit::Validate(doc) => {
                let errors = t.span("lib.equiv.validate", item, op, || {
                    reg.validate_streaming_reader(doc.schema, doc.text.as_bytes())
                });
                if let Some(Ok(errors)) = errors {
                    let json = t.span("serve.json.verdict", item, op, || {
                        serve::json::verdict_json(doc.schema, &errors)
                    });
                    black_box(json);
                }
            }
            HttpUnit::Hostile(text) => {
                let errors = t.span("lib.equiv.hostile", item, op, || {
                    reg.validate_streaming_reader("wml", text.as_bytes())
                });
                black_box(errors);
            }
            HttpUnit::Page { seed, count } => {
                let page = t.span("lib.equiv.page", item, op, || {
                    self.templates
                        .render_compiled(&webgen::generate_order(*seed, *count))
                });
                black_box(page.ok());
                let order = webgen::generate_order(*seed, *count);
                let page = t.span("pxml.plan.render", item, op, || {
                    self.templates.render_compiled(&order)
                });
                black_box(page.ok());
            }
            HttpUnit::Session(_) => unreachable!("sessions trace their own twin"),
        }
    }

    /// Opens a session over HTTP, runs its patches (each, when traced,
    /// beside its JSON parse and the same patch on a library twin), then
    /// deletes it untimed.
    fn session(
        &self,
        client: &mut Client,
        st: &mut Round<'_>,
        u: usize,
        spec: &gen::SessionSpec,
        nodes: usize,
        patches: &[String],
    ) {
        let item = self.first_item[u];
        if !timed(client, st, Kind::Open, item, &self.requests[u], (201, b"")) {
            return;
        }
        let Some((id, got_nodes)) = parse_open(&st.body) else {
            st.outcome.fail(format!("request {item}: bad open body"));
            return;
        };
        st.outcome.check(got_nodes == nodes, || {
            format!("request {item}: {got_nodes} nodes, want {nodes}")
        });
        let mut twin = st.twins.then(|| {
            self.reg
                .open_session(PO, &spec.text, Limits::default())
                .expect("valid")
        });
        let path = format!("/v1/session/{id}/patch");
        for (j, want) in patches.iter().enumerate() {
            let json = &self.patch_bodies[u][j];
            let req = request("POST", &path, json.as_bytes());
            timed(
                client,
                st,
                Kind::Patch,
                item + 1 + j,
                &req,
                (200, want.as_bytes()),
            );
            if let (Some(t), Some(twin)) = (st.tracer.as_deref_mut(), twin.as_mut()) {
                let op = st.op;
                let value = t.span("serve.json.parse", item + 1 + j, op, || {
                    serve::json::parse_json(json)
                });
                let result = t.span("lib.equiv.patch", item + 1 + j, op, || {
                    twin.apply(&spec.script[j].patch)
                });
                st.outcome.check(
                    value.is_ok() && result.is_ok() == want.starts_with("{\"applied\":true"),
                    || format!("request {}: traced twin differs", item + 1 + j),
                );
            }
        }
        let status = client.exchange(
            &request("DELETE", &format!("/v1/session/{id}"), b""),
            &mut st.body,
        );
        if let (Some(c), Ok(s)) = (st.counts.as_deref_mut(), &status) {
            *c.statuses.entry(*s).or_default() += 1;
            c.bytes_out += st.body.len() as u64;
        }
        st.outcome.check(matches!(status, Ok(200)), || {
            format!("delete session {id}: {status:?}")
        });
        if status.is_err() || client.closed {
            if let Err(e) = client.reconnect() {
                st.outcome.fail(format!("reconnect failed: {e}"));
            }
        }
    }
}

/// One timed exchange: records the item's time (with a tracer, the
/// round trip runs inside a span whose cost is timed with it), checks
/// status and body (an open's body carries a fresh id and is checked by
/// the caller), and reconnects, untimed, after an error or a server-side
/// close.
fn timed(
    client: &mut Client,
    st: &mut Round<'_>,
    kind: Kind,
    item: usize,
    request: &[u8],
    want: (u16, &[u8]),
) -> bool {
    let start = Instant::now();
    let result = spans::maybe(&mut st.tracer, roundtrip_span(kind), item, st.op, || {
        client.exchange(request, &mut st.body)
    });
    st.minima.record(item, ns_since(start));
    let ok = match &result {
        Ok(status) => {
            if let Some(c) = st.counts.as_deref_mut() {
                *c.statuses.entry(*status).or_default() += 1;
                c.bytes_in += body_len(request) as u64;
                c.bytes_out += st.body.len() as u64;
            }
            *status == want.0 && (kind == Kind::Open || st.body == want.1)
        }
        Err(_) => false,
    };
    st.outcome.check(ok, || {
        format!(
            "request {item}: want {} {:?}, got {:?} {:?}",
            want.0,
            String::from_utf8_lossy(&want.1[..want.1.len().min(80)]),
            result.as_ref().map_err(|e| e.to_string()),
            String::from_utf8_lossy(&st.body[..st.body.len().min(80)])
        )
    });
    if !ok || client.closed {
        if let Err(e) = client.reconnect() {
            st.outcome.fail(format!("reconnect failed: {e}"));
        }
    }
    ok
}

impl HttpMixed {
    /// Starts the server, connects the client, generates the traffic,
    /// fixes every expected answer from the library, and runs one
    /// untimed warm-up round that also takes the counts.
    pub fn prepare(
        reg: Arc<SchemaRegistry>,
        seed: u64,
        scale: &Scale,
        outcome: &mut Outcome,
    ) -> std::io::Result<Self> {
        let server = start_server(reg.clone())?;
        let client = Client::connect(server.addr())?;
        let mut this = HttpMixed {
            plan: Plan::new(reg, seed, scale, outcome),
            counts: HttpCounts::default(),
            client: Some(client),
            server: Some(server),
        };
        let mut warm = Minima::new(this.items());
        let mut counts = HttpCounts::default();
        this.round(&mut warm, outcome, None, false, Some(&mut counts));
        this.counts = counts;
        Ok(this)
    }

    /// Number of timed items (requests).
    pub fn items(&self) -> usize {
        self.plan.kinds.len()
    }

    /// One round of the traffic, each request folded into its minimum.
    /// With a tracer, each round trip runs inside a span, and the time
    /// folded in includes the span's cost.
    pub fn measure_round(
        &mut self,
        minima: &mut Minima,
        outcome: &mut Outcome,
        tracer: Option<&mut Tracer>,
    ) {
        self.round(minima, outcome, tracer, false, None);
    }

    /// How the summed minima split between the routes, for the log.
    pub fn split(&self, minima: &Minima) -> String {
        let kinds = &self.plan.kinds;
        let total = minima.sum_s(|_| true);
        let parts: Vec<String> = ALL_KINDS
            .iter()
            .map(|&k| {
                let n = kinds.iter().filter(|&&x| x == k).count();
                let share = minima.sum_s(|i| kinds[i] == k) / total;
                format!("{} {n} requests {:.1} %", kind_name(k), share * 100.0)
            })
            .collect();
        format!("share of summed minima: {}", parts.join(", "))
    }

    /// End-to-end metrics: every request is an item; `open_p50_us` is
    /// the median `POST /v1/session` round trip.
    pub fn end_to_end(&self, minima: &Minima) -> Vec<Metric> {
        let kinds = &self.plan.kinds;
        let total = minima.sum_s(|_| true);
        let lat = minima.sorted_us(|_| true);
        let open = minima.sorted_us(|i| kinds[i] == Kind::Open);
        let bytes = (self.counts.bytes_in + self.counts.bytes_out) as f64;
        vec![
            Metric::new("ops_per_s", "1/s", minima.len() as f64 / total),
            Metric::new("mib_per_s", "MiB/s", bytes / total / 1048576.0),
            Metric::new("latency_p50_us", "us", quantile(&lat, 0.5)),
            Metric::new("latency_p99_us", "us", quantile(&lat, 0.99)),
            Metric::new("open_p50_us", "us", quantile(&open, 0.5)),
        ]
    }

    /// One traced round: each request's round trip in a span, then the
    /// same work through the library in sibling spans.
    pub fn trace_round(&mut self, tracer: &mut Tracer, outcome: &mut Outcome) {
        let mut minima = Minima::new(self.items());
        self.round(&mut minima, outcome, Some(tracer), true, None);
    }

    fn round(
        &mut self,
        minima: &mut Minima,
        outcome: &mut Outcome,
        tracer: Option<&mut Tracer>,
        twins: bool,
        counts: Option<&mut HttpCounts>,
    ) {
        let plan = &self.plan;
        let client = self.client.as_mut().expect("connected until drop");
        let mut st = Round {
            body: Vec::with_capacity(1 << 16),
            minima,
            outcome,
            tracer,
            op: 0,
            twins,
            counts,
        };
        for (u, unit) in plan.units.iter().enumerate() {
            let item = plan.first_item[u];
            if let Some(t) = st.tracer.as_deref_mut() {
                st.op = t.new_op();
                t.enter("http.op", item, st.op);
            }
            match (&plan.expected[u], unit) {
                (Expected::Session { nodes, patches }, HttpUnit::Session(spec)) => {
                    plan.session(client, &mut st, u, spec, *nodes, patches);
                }
                (Expected::Reply(status, want), _) => {
                    timed(
                        client,
                        &mut st,
                        plan.kinds[item],
                        item,
                        &plan.requests[u],
                        (*status, want),
                    );
                    plan.library_twin(unit, item, &mut st);
                }
                (Expected::Session { .. }, _) => unreachable!("session answers belong to sessions"),
            }
            if let Some(t) = st.tracer.as_deref_mut() {
                t.exit();
            }
        }
    }

    /// The per-layer metrics of the serving layers.
    pub fn layers(&self, minima: &BTreeMap<&'static str, ItemMinima>) -> Vec<Metric> {
        let mut out = Vec::new();
        for kind in [Kind::Validate, Kind::Page, Kind::Patch, Kind::Hostile] {
            let name = kind_name(kind);
            let rt = minima.get(roundtrip_span(kind));
            let lib = minima.get(lib_span(kind));
            out.push(Metric::new(
                &format!("serve.roundtrip_us.{name}"),
                "us",
                spans::median_us(rt),
            ));
            out.push(Metric::new(
                &format!("lib.equiv_us.{name}"),
                "us",
                spans::median_us(lib),
            ));
            // per request: round trip − library work
            let overhead: Vec<f64> = rt
                .into_iter()
                .flatten()
                .filter_map(|(item, &r)| Some((r as f64 - *lib?.get(item)? as f64) / 1e3))
                .collect();
            out.push(Metric::new(
                &format!("serve.overhead_us.{name}"),
                "us",
                if overhead.is_empty() {
                    0.0
                } else {
                    crate::measure::median(overhead)
                },
            ));
        }
        out.extend([
            Metric::new(
                "serve.json.verdict_us",
                "us",
                spans::median_us(minima.get("serve.json.verdict")),
            ),
            Metric::new(
                "serve.json.parse_us",
                "us",
                spans::median_us(minima.get("serve.json.parse")),
            ),
            Metric::new(
                "pxml.plan.render_us",
                "us",
                spans::median_us(minima.get("pxml.plan.render")),
            ),
        ]);
        for status in [200u16, 201, 422] {
            out.push(Metric::new(
                &format!("serve.requests.status_{status}"),
                "count",
                self.counts.statuses.get(&status).copied().unwrap_or(0) as f64,
            ));
        }
        out.extend([
            Metric::new("serve.bytes_in", "count", self.counts.bytes_in as f64),
            Metric::new("serve.bytes_out", "count", self.counts.bytes_out as f64),
        ]);
        out
    }
}

impl Drop for HttpMixed {
    fn drop(&mut self) {
        // close the connection first, so the drain does not wait on it
        self.client = None;
        if let Some(server) = self.server.take() {
            server.drain();
        }
    }
}

fn body_len(request: &[u8]) -> usize {
    request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(0, |head| request.len() - head - 4)
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Validate => "validate",
        Kind::Hostile => "hostile",
        Kind::Page => "page",
        Kind::Open => "open",
        Kind::Patch => "patch",
    }
}

fn roundtrip_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Validate => "serve.roundtrip.validate",
        Kind::Hostile => "serve.roundtrip.hostile",
        Kind::Page => "serve.roundtrip.page",
        Kind::Open => "serve.roundtrip.open",
        Kind::Patch => "serve.roundtrip.patch",
    }
}

fn lib_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Validate => "lib.equiv.validate",
        Kind::Hostile => "lib.equiv.hostile",
        Kind::Page => "lib.equiv.page",
        Kind::Open | Kind::Patch => "lib.equiv.patch",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_body_parses() {
        assert_eq!(
            parse_open(b"{\"session\":\"17\",\"schema\":\"purchase-order\",\"nodes\":42}"),
            Some((17, 42))
        );
        assert_eq!(parse_open(b"{\"error\":\"x\"}"), None);
    }

    #[test]
    fn request_body_length_skips_the_head() {
        assert_eq!(body_len(&request("POST", "/x", b"abc")), 3);
        assert_eq!(body_len(&request("GET", "/x", b"")), 0);
    }
}
