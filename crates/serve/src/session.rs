//! The `/v1/session` endpoints: patchable validated-document sessions
//! over HTTP.
//!
//! `POST /v1/session/{schema}` parses and fully validates the request
//! body, then parks it in the session table as a
//! [`webgen::DocSession`]. Every later `POST /v1/session/{id}/patch`
//! carries one JSON-encoded [`DomPatch`] and is answered from the
//! incremental revalidator: `{"applied":true,…}` with locality counters
//! on commit, the full typed error list (same kinds and spans a
//! `/v1/validate` round would report on the patched document) on
//! rejection — and the held document is untouched by a rejected patch.
//!
//! Sessions are process-local and bounded: at most
//! [`ServerConfig::max_sessions`](crate::ServerConfig::max_sessions)
//! live at once (`503` beyond that), and a session untouched for
//! [`ServerConfig::session_idle`](crate::ServerConfig::session_idle) is
//! evicted by an opportunistic sweep on every table access — there is
//! no background thread to leak. A graceful drain completes in-flight
//! patch requests like any other request; the table dies with the
//! server.
//!
//! # Patch wire format
//!
//! ```json
//! {"op":"set_text","path":[0,1],"text":"12345"}
//! {"op":"set_attr","path":[0],"name":"orderDate","value":"2003-01-07"}
//! {"op":"remove_attr","path":[0],"name":"orderDate"}
//! {"op":"append_child","path":[0,2],"node":{"kind":"element","xml":"<item …/>"}}
//! {"op":"insert_child","path":[0],"index":1,"node":{"kind":"comment","text":" note "}}
//! {"op":"remove_child","path":[0],"index":1}
//! {"op":"replace_child","path":[0],"index":1,"node":{"kind":"element","xml":"<shipTo …/>"}}
//! ```
//!
//! `path` addresses a node by child indexes from the document node
//! (every node kind counts). Node kinds: `element` (`xml` fragment),
//! `text` (`text`), `comment` (`text`), `pi` (`target`, `data`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use limits::Limits;
use validator::{DomPatch, NewNode, PatchError, ValidationError, ValidationErrorKind};
use webgen::{DocSession, SessionError};

use crate::http::{Conn, Request};
use crate::json::{self, JsonValue};
use crate::{
    read_small_body, tally, unknown_schema, utf8_body, Reply, ReqOutcome, Shared, TENANT_HEADER,
};

/// One parked session plus its idle clock.
struct Entry {
    session: DocSession,
    last_used: Instant,
}

/// The live-session map: id → session, capacity-capped and idle-swept.
/// Each session is individually locked so patches to different sessions
/// proceed in parallel while two patches to the *same* session
/// serialize (the incremental validator is stateful).
pub(crate) struct SessionTable {
    entries: RwLock<HashMap<u64, Arc<Mutex<Entry>>>>,
    next_id: AtomicU64,
    max_sessions: usize,
    idle: Duration,
}

impl SessionTable {
    pub(crate) fn new(max_sessions: usize, idle: Duration) -> SessionTable {
        SessionTable {
            entries: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            max_sessions,
            idle,
        }
    }

    /// Evicts every session idle past the TTL. Runs opportunistically on
    /// each table access.
    fn sweep(&self) {
        let now = Instant::now();
        let mut evicted = 0usize;
        self.entries.write().expect("session table").retain(|_, e| {
            // a session another request holds locked is in use by
            // definition — try_lock failure keeps it
            match e.try_lock() {
                Ok(entry) => {
                    let keep = now.duration_since(entry.last_used) <= self.idle;
                    if !keep {
                        evicted += 1;
                    }
                    keep
                }
                Err(_) => true,
            }
        });
        if evicted > 0 {
            count_closed("expired", evicted as u64);
        }
    }

    /// Parks a session, returning its id — or `None` at the cap.
    fn insert(&self, session: DocSession) -> Option<u64> {
        self.sweep();
        let mut entries = self.entries.write().expect("session table");
        if entries.len() >= self.max_sessions {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        entries.insert(
            id,
            Arc::new(Mutex::new(Entry {
                session,
                last_used: Instant::now(),
            })),
        );
        Some(id)
    }

    fn get(&self, id: u64) -> Option<Arc<Mutex<Entry>>> {
        self.sweep();
        self.entries
            .read()
            .expect("session table")
            .get(&id)
            .cloned()
    }

    fn remove(&self, id: u64) -> bool {
        let removed = self
            .entries
            .write()
            .expect("session table")
            .remove(&id)
            .is_some();
        if removed {
            count_closed("deleted", 1);
        }
        removed
    }

    /// Live sessions (tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.read().expect("session table").len()
    }
}

fn count_closed(reason: &'static str, n: u64) {
    if obs::enabled() {
        obs::metrics()
            .counter_with(
                "http_sessions_closed_total",
                "Patch sessions closed, by reason.",
                &[("reason", reason)],
            )
            .inc_by(n);
    }
}

/// Decodes one wire patch. Errors are user-facing `400` messages.
pub(crate) fn decode_patch(v: &JsonValue) -> Result<DomPatch, String> {
    let op = v
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field \"op\"")?;
    let path = || -> Result<Vec<usize>, String> {
        v.get("path")
            .and_then(JsonValue::as_array)
            .ok_or("missing array field \"path\"")?
            .iter()
            .map(|x| x.as_usize().ok_or_else(|| "bad path index".to_string()))
            .collect()
    };
    let string_field = |name: &str| -> Result<String, String> {
        v.get(name)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field {name:?}"))
    };
    let index = || -> Result<usize, String> {
        v.get("index")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| "missing integer field \"index\"".to_string())
    };
    let node = || -> Result<NewNode, String> {
        let n = v.get("node").ok_or("missing object field \"node\"")?;
        let kind = n
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field \"node.kind\"")?;
        let nfield = |name: &str| -> Result<String, String> {
            n.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field \"node.{name}\""))
        };
        match kind {
            "element" => Ok(NewNode::Element {
                xml: nfield("xml")?,
            }),
            "text" => Ok(NewNode::Text(nfield("text")?)),
            "comment" => Ok(NewNode::Comment(nfield("text")?)),
            "pi" => Ok(NewNode::Pi {
                target: nfield("target")?,
                data: nfield("data")?,
            }),
            other => Err(format!("unknown node kind {other:?}")),
        }
    };
    match op {
        "set_text" => Ok(DomPatch::SetText {
            at: path()?,
            text: string_field("text")?,
        }),
        "set_attr" => Ok(DomPatch::SetAttr {
            at: path()?,
            name: string_field("name")?,
            value: string_field("value")?,
        }),
        "remove_attr" => Ok(DomPatch::RemoveAttr {
            at: path()?,
            name: string_field("name")?,
        }),
        "append_child" => Ok(DomPatch::AppendChild {
            at: path()?,
            child: node()?,
        }),
        "insert_child" => Ok(DomPatch::InsertChild {
            at: path()?,
            index: index()?,
            child: node()?,
        }),
        "remove_child" => Ok(DomPatch::RemoveChild {
            at: path()?,
            index: index()?,
        }),
        "replace_child" => Ok(DomPatch::ReplaceChild {
            at: path()?,
            index: index()?,
            child: node()?,
        }),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// The session's standing budget: the tenant row plus the server kill
/// switch, but **not** the open request's wire deadline — the session
/// outlives the request that created it.
fn session_limits(shared: &Shared, req: &Request) -> (String, Limits) {
    let (label, limits) = shared.cfg.tenants.resolve(req.header(TENANT_HEADER));
    (
        label.to_string(),
        limits.with_cancel_token(&shared.cfg.cancel),
    )
}

/// `POST /v1/session/{schema}` — full validation pass, then park.
pub(crate) fn handle_session_create(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    req: &Request,
    deadline: Instant,
    schema: &str,
    outcome: &mut ReqOutcome,
) -> Result<Reply, Reply> {
    let (tenant, limits) = session_limits(shared, req);
    outcome.tenant = tenant;
    let cap = limits.max_input_bytes;
    let raw = read_small_body(conn, req, deadline, cap, "document", &mut outcome.bytes_in)?;
    let document = utf8_body(raw, "document")?;
    let _span = obs::span!("http.session.create");
    let session = match shared.registry.open_session(schema, &document, limits) {
        Ok(session) => session,
        Err(SessionError::UnknownSchema(_)) => return Err(unknown_schema(schema)),
        Err(SessionError::Invalid(errors)) => {
            tally(outcome, &errors);
            // a session requires a valid document, so plain invalidity is
            // a client error here — unlike /v1/validate, where "invalid"
            // is a successful answer
            let status = match json::status_for(&errors) {
                200 => 422,
                s => s,
            };
            return Err(Reply::json(status, json::verdict_json(schema, &errors)));
        }
    };
    // read before parking: once parked, a sweep may evict the session
    let nodes = session.validator().node_count();
    let id = shared
        .sessions
        .insert(session)
        .ok_or_else(|| Reply::error(503, "session limit reached"))?;
    if obs::enabled() {
        obs::metrics()
            .counter("http_sessions_opened_total", "Patch sessions opened.")
            .inc();
    }
    let mut body = String::from("{\"session\":");
    json::escape_into(&mut body, &id.to_string());
    body.push_str(",\"schema\":");
    json::escape_into(&mut body, schema);
    body.push_str(&format!(",\"nodes\":{nodes}}}"));
    Ok(Reply::json(201, body))
}

/// The 404 for a session id that does not parse or is not parked.
fn no_session(id: &str) -> Reply {
    Reply::error(404, &format!("no session {id:?} (expired or never opened)"))
}

/// The parked session `id`.
fn find_session(shared: &Shared, id: &str) -> Result<Arc<Mutex<Entry>>, Reply> {
    id.parse::<u64>()
        .ok()
        .and_then(|n| shared.sessions.get(n))
        .ok_or_else(|| no_session(id))
}

/// `POST /v1/session/{id}/patch` — one patch, one verdict.
pub(crate) fn handle_session_patch(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    req: &Request,
    deadline: Instant,
    id: &str,
    outcome: &mut ReqOutcome,
) -> Result<Reply, Reply> {
    let (tenant, limits) = session_limits(shared, req);
    outcome.tenant = tenant;
    // the patch JSON wrapper is bounded by the patch-payload budget plus
    // generous framing slack — a hostile megabyte of path indexes is
    // refused before parsing
    let cap = limits.max_patch_bytes.saturating_add(16 << 10);
    let raw = read_small_body(conn, req, deadline, cap, "patch", &mut outcome.bytes_in)?;
    let body = utf8_body(raw, "patch")?;
    let entry = find_session(shared, id)?;
    let patch = json::parse_json(&body)
        .and_then(|v| decode_patch(&v))
        .map_err(|msg| Reply::error(400, &format!("bad patch: {msg}")))?;
    let mut entry = entry.lock().expect("session");
    entry.last_used = Instant::now();
    let (status, errors) = match entry.session.apply(&patch) {
        Ok(()) => {
            let v = entry.session.validator();
            let body = format!(
                "{{\"applied\":true,\"op\":\"{}\",\"nodes_rechecked\":{},\"doc_nodes\":{}}}",
                patch.op_name(),
                v.nodes_rechecked(),
                v.node_count()
            );
            return Ok(Reply::json(200, body));
        }
        // the patch was *processed* successfully; the answer is
        // "rejected" — 200, like an invalid /v1/validate verdict
        Err(PatchError::Invalid(errors)) => (200, errors),
        Err(PatchError::Resource(kind)) => {
            let errors = vec![ValidationError {
                kind: ValidationErrorKind::Resource(kind),
                span: None,
            }];
            (json::status_for(&errors), errors)
        }
        Err(e @ (PatchError::Structure(_) | PatchError::Fragment(_))) => {
            return Err(Reply::error(400, &e.to_string()));
        }
    };
    tally(outcome, &errors);
    let mut body = String::from("{\"applied\":false,");
    body.push_str(&json::verdict_json(entry.session.schema_name(), &errors)[1..]);
    Ok(Reply::json(status, body))
}

/// `GET /v1/session/{id}` — the current document.
pub(crate) fn handle_session_get(shared: &Shared, id: &str) -> Result<Reply, Reply> {
    let entry = find_session(shared, id)?;
    let mut entry = entry.lock().expect("session");
    entry.last_used = Instant::now();
    Ok(Reply::new(200, "application/xml", entry.session.to_xml()))
}

/// `DELETE /v1/session/{id}` — close a session.
pub(crate) fn handle_session_delete(shared: &Shared, id: &str) -> Result<Reply, Reply> {
    match id.parse::<u64>().map(|n| shared.sessions.remove(n)) {
        Ok(true) => Ok(Reply::json(200, "{\"closed\":true}".into())),
        _ => Err(no_session(id)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_covers_every_op_and_rejects_malformed() {
        let p = decode_patch(
            &json::parse_json("{\"op\":\"set_text\",\"path\":[0,1],\"text\":\"x\"}").unwrap(),
        )
        .unwrap();
        assert_eq!(
            p,
            DomPatch::SetText {
                at: vec![0, 1],
                text: "x".into()
            }
        );
        let p = decode_patch(
            &json::parse_json(
                "{\"op\":\"replace_child\",\"path\":[],\"index\":3,\
                 \"node\":{\"kind\":\"pi\",\"target\":\"t\",\"data\":\"d\"}}",
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            p,
            DomPatch::ReplaceChild {
                at: vec![],
                index: 3,
                child: NewNode::Pi {
                    target: "t".into(),
                    data: "d".into()
                }
            }
        );
        for bad in [
            "{}",
            "{\"op\":\"warp\"}",
            "{\"op\":\"set_text\",\"path\":[-1],\"text\":\"x\"}",
            "{\"op\":\"set_text\",\"path\":[0.5],\"text\":\"x\"}",
            "{\"op\":\"set_text\",\"path\":0,\"text\":\"x\"}",
            "{\"op\":\"append_child\",\"path\":[],\"node\":{\"kind\":\"blob\"}}",
            "{\"op\":\"insert_child\",\"path\":[],\"node\":{\"kind\":\"text\",\"text\":\"x\"}}",
        ] {
            let v = json::parse_json(bad).unwrap();
            assert!(decode_patch(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn table_caps_and_sweeps() {
        let reg = webgen::SchemaRegistry::with_corpus().unwrap();
        let doc = webgen::render_order_string(&webgen::generate_order(1, 1));
        let open = || {
            reg.open_session("purchase-order", &doc, Limits::default())
                .unwrap()
        };
        let table = SessionTable::new(2, Duration::from_secs(60));
        let a = table.insert(open()).unwrap();
        let _b = table.insert(open()).unwrap();
        assert!(table.insert(open()).is_none(), "cap refuses the third");
        assert!(table.remove(a));
        assert!(!table.remove(a));
        assert!(table.insert(open()).is_some());
        // zero TTL: everything idle is swept on the next access
        let table = SessionTable::new(8, Duration::ZERO);
        let id = table.insert(open()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert!(table.get(id).is_none(), "idle session swept");
        assert_eq!(table.len(), 0);
    }
}
