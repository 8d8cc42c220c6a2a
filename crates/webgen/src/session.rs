//! Patchable validated-document sessions: the serving-side handle over
//! [`validator::IncrementalValidator`].
//!
//! A [`DocSession`] is opened from the [`SchemaRegistry`] with a full
//! validation pass and thereafter stays valid by construction — each
//! [`DomPatch`] either commits after an O(affected-siblings) recheck or
//! is rejected with the errors a full pass would report. The session
//! layer adds the observability the server needs: a `session.patch`
//! span per patch, `patch_applied_total` / `patch_rejected_total`
//! counters, a `patch_revalidate_seconds` latency histogram, and a wide
//! event per patch carrying `nodes_rechecked` next to the document size
//! (the locality perfbench's edit-session reports as
//! `validator.patch.nodes_rechecked`).

use limits::Limits;
use schema::CompiledSchema;
use validator::{DomPatch, IncrementalValidator, PatchError, ValidationError};

use crate::registry::SchemaRegistry;

/// Why [`SchemaRegistry::open_session`] refused to open.
#[derive(Debug)]
pub enum SessionError {
    /// No schema is registered under the name.
    UnknownSchema(String),
    /// The document is not well-formed or not valid; the list is what a
    /// full validation pass reported (a parse failure comes back as one
    /// `NotWellFormed` entry, mirroring the streaming validator).
    Invalid(Vec<ValidationError>),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownSchema(name) => {
                write!(f, "no schema registered under {name:?}")
            }
            SessionError::Invalid(errors) => {
                write!(f, "document rejected with {} error(s)", errors.len())?;
                if let Some(first) = errors.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// A live patchable document, proven valid at open and after every
/// committed patch.
#[derive(Debug)]
pub struct DocSession {
    schema_name: String,
    inner: IncrementalValidator,
}

impl DocSession {
    /// Opens a session directly over a compiled schema (the registry
    /// entry point [`SchemaRegistry::open_session`] resolves the name
    /// first). The initial full pass runs under `limits`.
    pub fn open(
        schema_name: &str,
        compiled: CompiledSchema,
        document: &str,
        limits: Limits,
    ) -> Result<DocSession, Vec<ValidationError>> {
        let doc = match xmlparse::parse_document_with_limits(document, &limits) {
            Ok(doc) => doc,
            Err(e) => {
                // mirror the streaming validator's shape: parse failures
                // are a typed error list, not a separate channel
                let kind = match e.kind {
                    xmlparse::ParseErrorKind::Resource(kind) => {
                        validator::ValidationErrorKind::Resource(kind)
                    }
                    _ => validator::ValidationErrorKind::NotWellFormed(e.to_string()),
                };
                return Err(vec![ValidationError { kind, span: None }]);
            }
        };
        let inner = IncrementalValidator::new(compiled, doc, limits)?;
        Ok(DocSession {
            schema_name: schema_name.to_string(),
            inner,
        })
    }

    /// The schema name the session validates against.
    pub fn schema_name(&self) -> &str {
        &self.schema_name
    }

    /// The underlying incremental validator (document access, counters).
    pub fn validator(&self) -> &IncrementalValidator {
        &self.inner
    }

    /// Applies one patch with full observability: a `session.patch`
    /// span, outcome counters, the revalidation-latency histogram, and
    /// a wide event recording how local the recheck was.
    pub fn apply(&mut self, patch: &DomPatch) -> Result<(), PatchError> {
        let span = obs::span!("session.patch");
        let result = self.inner.apply(patch);
        let elapsed = span.finish();
        if obs::enabled() {
            let metrics = obs::metrics();
            let op = patch.op_name();
            match &result {
                Ok(()) => metrics
                    .counter_with(
                        "patch_applied_total",
                        "Patches committed to a validated session, by operation.",
                        &[("op", op)],
                    )
                    .inc(),
                Err(e) => metrics
                    .counter_with(
                        "patch_rejected_total",
                        "Patches rejected by a validated session, by operation and why.",
                        &[("op", op), ("reason", rejection_label(e))],
                    )
                    .inc(),
            }
            if let Some(elapsed) = elapsed {
                metrics
                    .histogram_with(
                        "patch_revalidate_seconds",
                        "Incremental revalidation latency per patch, by operation.",
                        &[("op", op)],
                        obs::DURATION_BUCKETS,
                    )
                    .observe_duration(elapsed);
                let (outcome, error_count, limit_trips) = match &result {
                    Ok(()) => (obs::trace::Outcome::Valid, 0, 0),
                    Err(PatchError::Invalid(errors)) => {
                        (obs::trace::Outcome::Invalid, errors.len() as u64, 0)
                    }
                    Err(PatchError::Resource(_)) => (obs::trace::Outcome::ResourceTripped, 1, 1),
                    Err(_) => (obs::trace::Outcome::Malformed, 1, 0),
                };
                obs::trace::record_wide_event(obs::trace::WideEvent {
                    entry: "session.patch",
                    bytes: patch.payload_bytes() as u64,
                    events: 0,
                    max_depth: 0,
                    borrowed_events: 0,
                    owned_events: 0,
                    error_count,
                    limit_trips,
                    outcome,
                    phases: vec![("revalidate", elapsed)],
                    total: elapsed,
                    attrs: vec![
                        ("schema", self.schema_name.clone()),
                        ("op", op.to_string()),
                        ("nodes_rechecked", self.inner.nodes_rechecked().to_string()),
                        ("doc_nodes", self.inner.node_count().to_string()),
                    ],
                });
            }
        }
        result
    }

    /// Serializes the current (always valid) document compactly.
    pub fn to_xml(&self) -> String {
        let doc = self.inner.document();
        dom::serialize(doc, doc.document_node()).expect("session document serializes")
    }
}

fn rejection_label(e: &PatchError) -> &'static str {
    match e {
        PatchError::Invalid(_) => "invalid",
        PatchError::Structure(_) => "structure",
        PatchError::Fragment(_) => "fragment",
        PatchError::Resource(_) => "resource",
    }
}

impl SchemaRegistry {
    /// Opens a patchable validated-document session against the schema
    /// registered under `schema_name`: parses and fully validates
    /// `document` under `limits`, then hands back a [`DocSession`] whose
    /// every subsequent patch revalidates incrementally.
    pub fn open_session(
        &self,
        schema_name: &str,
        document: &str,
        limits: Limits,
    ) -> Result<DocSession, SessionError> {
        let compiled = self
            .get(schema_name)
            .ok_or_else(|| SessionError::UnknownSchema(schema_name.to_string()))?;
        DocSession::open(schema_name, compiled, document, limits).map_err(SessionError::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validator::NewNode;

    #[test]
    fn open_patch_serialize_round_trip() {
        let reg = SchemaRegistry::with_corpus().unwrap();
        let order = crate::render_order_string(&crate::generate_order(11, 3));
        let mut session = reg
            .open_session("purchase-order", &order, Limits::default())
            .unwrap();
        assert_eq!(session.schema_name(), "purchase-order");
        // the serialized session round-trips through a full validation
        let xml = session.to_xml();
        assert!(reg
            .validate_streaming("purchase-order", &xml)
            .unwrap()
            .is_empty());
        // a structural patch commits and the result stays valid
        let doc = session.validator().document();
        let root = doc.root_element().unwrap();
        let items_idx = doc
            .child_slice(root)
            .unwrap()
            .iter()
            .position(|&c| doc.tag_name(c).map(|n| n == "items").unwrap_or(false))
            .unwrap();
        let root_idx = doc
            .child_slice(doc.document_node())
            .unwrap()
            .iter()
            .position(|&c| c == root)
            .unwrap();
        session
            .apply(&DomPatch::AppendChild {
                at: vec![root_idx, items_idx],
                child: NewNode::Element {
                    xml: "<item partNum=\"999-ZZ\"><productName>Extra</productName>\
                          <quantity>2</quantity><USPrice>5.00</USPrice></item>"
                        .into(),
                },
            })
            .unwrap();
        assert!(reg
            .validate_streaming("purchase-order", &session.to_xml())
            .unwrap()
            .is_empty());
        assert_eq!(session.validator().applied_total(), 1);
    }

    #[test]
    fn open_session_failures_are_typed() {
        let reg = SchemaRegistry::with_corpus().unwrap();
        let err = reg
            .open_session("nope", "<a/>", Limits::default())
            .unwrap_err();
        assert!(matches!(err, SessionError::UnknownSchema(_)));
        let err = reg
            .open_session("purchase-order", "<purchaseOrder>", Limits::default())
            .unwrap_err();
        match err {
            SessionError::Invalid(errors) => assert!(matches!(
                errors[0].kind,
                validator::ValidationErrorKind::NotWellFormed(_)
            )),
            other => panic!("{other}"),
        }
        let err = reg
            .open_session("purchase-order", "<purchaseOrder/>", Limits::default())
            .unwrap_err();
        assert!(matches!(err, SessionError::Invalid(_)));
    }
}
