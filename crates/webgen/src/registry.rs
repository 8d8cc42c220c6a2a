//! A process-wide registry of compiled schemas, shared by server pages:
//! schemas compile once and every page handler clones a cheap handle
//! (`CompiledSchema` is `Arc`-backed). The registry holds schemas only;
//! a page generator compiles its P-XML templates once against the handle
//! it fetched and keeps the plans itself ([`crate::OrderTemplates`],
//! [`crate::CompiledDirectoryPage`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use limits::{Limits, ResourceErrorKind};
use pool::ThreadPool;
use schema::{CompiledSchema, SchemaError};
use validator::{ValidationError, ValidationErrorKind};

/// Why [`SchemaRegistry::try_register`] refused a registration.
#[derive(Debug)]
pub enum RegisterError {
    /// A schema is already registered under this name; the existing
    /// registration is untouched.
    Duplicate(String),
    /// The schema text failed to compile.
    Schema(SchemaError),
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::Duplicate(name) => {
                write!(f, "a schema is already registered under {name:?}")
            }
            RegisterError::Schema(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegisterError {}

impl From<SchemaError> for RegisterError {
    fn from(e: SchemaError) -> Self {
        RegisterError::Schema(e)
    }
}

// Each map update is one call that leaves the map whole, so a lock
// poisoned by a panicking holder is recovered rather than propagated.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A named registry of compiled schemas.
#[derive(Default)]
pub struct SchemaRegistry {
    schemas: RwLock<HashMap<String, CompiledSchema>>,
}

impl SchemaRegistry {
    /// Creates an empty registry.
    pub fn new() -> SchemaRegistry {
        SchemaRegistry::default()
    }

    /// A registry preloaded with the paper's corpus schemas
    /// (`purchase-order`, `wml`).
    pub fn with_corpus() -> Result<SchemaRegistry, SchemaError> {
        let reg = SchemaRegistry::new();
        reg.register("purchase-order", schema::corpus::PURCHASE_ORDER_XSD)?;
        reg.register("wml", schema::corpus::WML_XSD)?;
        reg.register("xhtml", schema::corpus::XHTML_XSD)?;
        Ok(reg)
    }

    /// Compiles and registers a schema under `name`, **replacing** any
    /// existing registration. The replaced schema is returned (`None`
    /// for a first registration), so an overwrite is always visible to
    /// the caller — it can be logged, diffed, or treated as a rollout.
    /// Handles fetched before the replacement, and templates compiled
    /// against them, keep the schema they were fetched with. Use
    /// [`try_register`](Self::try_register) when a duplicate name should
    /// be an error instead.
    pub fn register(&self, name: &str, xsd: &str) -> Result<Option<CompiledSchema>, SchemaError> {
        let compiled = CompiledSchema::parse(xsd)?;
        let previous = write(&self.schemas).insert(name.to_string(), compiled);
        if obs::enabled() {
            obs::metrics()
                .counter_with(
                    "registry_register_total",
                    "Schema registrations, by outcome.",
                    &[(
                        "outcome",
                        if previous.is_some() { "replace" } else { "new" },
                    )],
                )
                .inc();
        }
        Ok(previous)
    }

    /// Compiles and registers a schema under `name`, erroring with
    /// [`RegisterError::Duplicate`] if the name is already taken (the
    /// existing registration stays in place). The duplicate check is
    /// re-run under the write lock, so two racing `try_register` calls
    /// cannot both succeed.
    pub fn try_register(&self, name: &str, xsd: &str) -> Result<CompiledSchema, RegisterError> {
        // fast fail before paying for compilation
        if read(&self.schemas).contains_key(name) {
            return Err(RegisterError::Duplicate(name.to_string()));
        }
        let compiled = CompiledSchema::parse(xsd)?;
        let mut schemas = write(&self.schemas);
        if schemas.contains_key(name) {
            return Err(RegisterError::Duplicate(name.to_string()));
        }
        schemas.insert(name.to_string(), compiled.clone());
        drop(schemas);
        if obs::enabled() {
            obs::metrics()
                .counter_with(
                    "registry_register_total",
                    "Schema registrations, by outcome.",
                    &[("outcome", "new")],
                )
                .inc();
        }
        Ok(compiled)
    }

    /// Fetches a registered schema.
    pub fn get(&self, name: &str) -> Option<CompiledSchema> {
        let found = read(&self.schemas).get(name).cloned();
        if obs::enabled() {
            obs::metrics()
                .counter_with(
                    "registry_get_total",
                    "Registry lookups, by result.",
                    &[("result", if found.is_some() { "hit" } else { "miss" })],
                )
                .inc();
        }
        found
    }

    /// Number of registered schemas.
    pub fn len(&self) -> usize {
        read(&self.schemas).len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        read(&self.schemas).is_empty()
    }

    /// Streaming-validates one rendered page against the schema
    /// registered under `schema_name`, without building a DOM; `None`
    /// when no such schema is registered. An empty error list means the
    /// page is valid. Runs under [`Limits::default`];
    /// [`validate_batch`](Self::validate_batch) takes an explicit budget.
    pub fn validate_streaming(
        &self,
        schema_name: &str,
        document: &str,
    ) -> Option<Vec<ValidationError>> {
        let compiled = self.get(schema_name)?;
        Some(Self::validate_one(
            schema_name,
            &compiled,
            document,
            &Limits::default(),
        ))
    }

    /// Streaming-validates a byte stream pulled from `input` against the
    /// schema registered under `schema_name`, in O(depth) memory — the
    /// serving-path entry point for documents too large to hold resident
    /// (spooled uploads, proxied bodies). `None` when no such schema is
    /// registered; I/O errors propagate, validation problems come back
    /// in the error list.
    pub fn validate_streaming_reader<R: std::io::Read>(
        &self,
        schema_name: &str,
        input: R,
    ) -> Option<std::io::Result<Vec<ValidationError>>> {
        self.validate_streaming_reader_with_limits(schema_name, input, &Limits::default())
    }

    /// [`validate_streaming_reader`](Self::validate_streaming_reader)
    /// under an explicit resource budget; `max_input_bytes` caps the
    /// cumulative bytes read, so an unbounded stream cannot run away.
    pub fn validate_streaming_reader_with_limits<R: std::io::Read>(
        &self,
        schema_name: &str,
        input: R,
        limits: &Limits,
    ) -> Option<std::io::Result<Vec<ValidationError>>> {
        let compiled = self.get(schema_name)?;
        let span = obs::span!("registry.validate_reader");
        let result = validator::validate_read_streaming(&compiled, input, limits);
        Self::observe_latency(schema_name, span);
        Some(result)
    }

    /// One timed streaming validation, feeding the per-schema latency
    /// histogram.
    fn validate_one(
        schema_name: &str,
        compiled: &CompiledSchema,
        document: &str,
        limits: &Limits,
    ) -> Vec<ValidationError> {
        let span = obs::span!("registry.validate");
        let errors = validator::validate_str_streaming(compiled, document, limits);
        Self::observe_latency(schema_name, span);
        errors
    }

    /// Closes a validation span and feeds the per-schema latency
    /// histogram from the same clock read.
    fn observe_latency(schema_name: &str, span: obs::SpanGuard) {
        let elapsed = span.finish();
        if obs::enabled() {
            if let Some(elapsed) = elapsed {
                obs::metrics()
                    .histogram_with(
                        "registry_validate_seconds",
                        "Streaming validation latency through the registry, per schema.",
                        &[("schema", schema_name)],
                        obs::DURATION_BUCKETS,
                    )
                    .observe_duration(elapsed);
            }
        }
    }

    /// The error list a document skipped by an expired budget reports:
    /// one position-free typed marker. Counts the trip and the rejection;
    /// the caller counts the batch abort once.
    fn skip_marker(limits: &Limits) -> Vec<ValidationError> {
        // sticky by construction (cancellation latches, deadlines stay
        // passed), but a racing clock could in principle disagree — fall
        // back to Cancelled rather than panic
        let kind = limits
            .expired_kind()
            .unwrap_or(ResourceErrorKind::Cancelled);
        limits::record_trip(&kind);
        limits::record_rejected();
        vec![ValidationError {
            kind: ValidationErrorKind::Resource(kind),
            span: None,
        }]
    }

    /// Batch form of [`validate_streaming`](Self::validate_streaming) for
    /// page handlers that flush several rendered documents at once: one
    /// error list per document, in order, fetching the schema handle once
    /// for the whole batch. The deadline/cancellation state in `limits`
    /// is re-checked **between documents**: once it expires, every
    /// remaining document is skipped with a one-element
    /// [`ValidationErrorKind::Resource`] list instead of being validated,
    /// and the abort is counted once in `batch_cancelled_total`.
    pub fn validate_batch(
        &self,
        schema_name: &str,
        documents: &[&str],
        limits: &Limits,
    ) -> Option<Vec<Vec<ValidationError>>> {
        let compiled = self.get(schema_name)?;
        let mut cut = false;
        let results = documents
            .iter()
            .map(|doc| {
                if cut || limits.expired_kind().is_some() {
                    cut = true;
                    Self::skip_marker(limits)
                } else {
                    Self::validate_one(schema_name, &compiled, doc, limits)
                }
            })
            .collect();
        if cut {
            limits::record_batch_cancelled();
        }
        Some(results)
    }

    /// Parallel form of [`validate_batch`](Self::validate_batch): warms
    /// the schema (every content-model DFA, attribute table, and
    /// child-type entry compiled up front, see [`CompiledSchema::warm`];
    /// warming moves compilation cost out of the first documents and
    /// never changes a verdict), then fans the documents out across
    /// `pool`'s workers. Returns one error list per document, **in input
    /// order** — kinds, spans, and order are identical to the sequential
    /// path at any thread count (each document is validated by the same
    /// pure per-document routine; only the scheduling differs).
    ///
    /// Workers check the deadline/cancellation state **between
    /// documents** ([`ThreadPool::map_cancellable`]): documents already
    /// in flight when the budget expires finish normally, every document
    /// not yet started is skipped with a one-element
    /// [`ValidationErrorKind::Resource`] list, and the abort is counted
    /// once in `batch_cancelled_total`.
    pub fn validate_batch_parallel(
        &self,
        schema_name: &str,
        documents: &[&str],
        pool: &ThreadPool,
        limits: &Limits,
    ) -> Option<Vec<Vec<ValidationError>>> {
        let compiled = self.get(schema_name)?;
        compiled.warm();
        let _span = obs::span!("registry.validate_batch_parallel");
        // documents are copied once into `Arc<str>` jobs: the pool needs
        // `'static` payloads
        let name: Arc<str> = Arc::from(schema_name);
        let docs: Vec<Arc<str>> = documents.iter().map(|d| Arc::from(*d)).collect();
        let clock = limits.clone();
        let worker_limits = limits.clone();
        let results = pool.map_cancellable(
            docs,
            move || clock.expired_kind().is_some(),
            move |doc| Self::validate_one(&name, &compiled, &doc, &worker_limits),
        );
        let mut cancelled = false;
        let out = results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    cancelled = true;
                    Self::skip_marker(limits)
                })
            })
            .collect();
        if cancelled {
            limits::record_batch_cancelled();
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_registry() {
        let reg = SchemaRegistry::with_corpus().unwrap();
        assert_eq!(reg.len(), 3);
        assert!(reg.get("wml").is_some());
        assert!(reg.get("purchase-order").is_some());
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn reader_validation_matches_in_memory() {
        let reg = SchemaRegistry::with_corpus().unwrap();
        let page = crate::render_order_string(&crate::generate_order(7, 40));
        let whole = reg.validate_streaming("purchase-order", &page).unwrap();
        let via_reader = reg
            .validate_streaming_reader("purchase-order", page.as_bytes())
            .unwrap()
            .unwrap();
        assert_eq!(via_reader, whole);
        assert!(reg
            .validate_streaming_reader("nope", page.as_bytes())
            .is_none());
    }

    #[test]
    fn reader_validation_enforces_cumulative_input_budget() {
        let reg = SchemaRegistry::with_corpus().unwrap();
        let page = crate::render_order_string(&crate::generate_order(7, 40));
        let errors = reg
            .validate_streaming_reader_with_limits(
                "purchase-order",
                page.as_bytes(),
                &Limits::default().with_max_input_bytes(64),
            )
            .unwrap()
            .unwrap();
        assert!(
            matches!(
                errors.last().unwrap().kind,
                validator::ValidationErrorKind::Resource(
                    limits::ResourceErrorKind::InputTooLarge { limit: 64, .. }
                )
            ),
            "{errors:#?}"
        );
    }

    #[test]
    fn registration_replaces_and_returns_the_previous_schema() {
        let reg = SchemaRegistry::new();
        assert!(reg.is_empty());
        let first = reg.register("wml", schema::corpus::WML_XSD).unwrap();
        assert!(first.is_none(), "first registration replaces nothing");
        let replaced = reg.register("wml", schema::corpus::WML_XSD).unwrap();
        let replaced = replaced.expect("second registration returns the replaced schema");
        assert!(replaced.schema().element("wml").is_some());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn try_register_rejects_duplicates_and_keeps_the_original() {
        let reg = SchemaRegistry::new();
        reg.try_register("wml", schema::corpus::WML_XSD).unwrap();
        let err = reg
            .try_register("wml", schema::corpus::PURCHASE_ORDER_XSD)
            .unwrap_err();
        assert!(
            matches!(&err, RegisterError::Duplicate(name) if name == "wml"),
            "{err}"
        );
        // the original registration is untouched
        let kept = reg.get("wml").unwrap();
        assert!(kept.schema().element("wml").is_some());
        assert!(kept.schema().element("purchaseOrder").is_none());
        // bad schema text surfaces as a schema error, not a duplicate
        assert!(matches!(
            reg.try_register("broken", "<not-a-schema/>"),
            Err(RegisterError::Schema(_))
        ));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn streaming_validation_through_registry() {
        let reg = SchemaRegistry::with_corpus().unwrap();
        let data = crate::DirectoryPageData {
            sub_dirs: vec!["music".into(), "video".into()],
            current_dir: "/media".into(),
            parent_dir: "/".into(),
        };
        let good = crate::render_string(&data);
        let bad = crate::render_string_buggy(&data);
        let results = reg
            .validate_batch("wml", &[good.as_str(), bad.as_str()], &Limits::default())
            .unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_empty(), "{:#?}", results[0]);
        assert!(!results[1].is_empty());
        assert!(reg.validate_streaming("wml", &good).unwrap().is_empty());
        assert!(reg
            .validate_batch("nope", &[], &Limits::default())
            .is_none());
    }

    #[test]
    fn parallel_batches_match_the_sequential_path() {
        let reg = SchemaRegistry::with_corpus().unwrap();
        let data = crate::DirectoryPageData {
            sub_dirs: (0..12).map(|i| format!("dir{i}")).collect(),
            current_dir: "/media".into(),
            parent_dir: "/".into(),
        };
        let good = crate::render_string(&data);
        let bad = crate::render_string_buggy(&data);
        let malformed = "<wml><card>"; // not well-formed
        let docs: Vec<&str> = vec![&good, &bad, malformed, &good, &bad];
        let budget = Limits::default();
        let sequential = reg.validate_batch("wml", &docs, &budget).unwrap();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let parallel = reg
                .validate_batch_parallel("wml", &docs, &pool, &budget)
                .unwrap();
            assert_eq!(parallel, sequential, "parallel at {threads} threads");
        }
        let pool = ThreadPool::new(2);
        assert!(reg
            .validate_batch_parallel("nope", &docs, &pool, &budget)
            .is_none());
        assert_eq!(
            reg.validate_batch_parallel("wml", &[], &pool, &budget)
                .unwrap(),
            Vec::<Vec<ValidationError>>::new()
        );
    }

    #[test]
    fn expired_budget_skips_batches_with_typed_markers() {
        let reg = SchemaRegistry::with_corpus().unwrap();
        let data = crate::DirectoryPageData {
            sub_dirs: vec!["music".into()],
            current_dir: "/media".into(),
            parent_dir: "/".into(),
        };
        let good = crate::render_string(&data);
        let docs: Vec<&str> = vec![&good, &good, &good];
        let token = limits::CancelToken::new();
        token.cancel();
        let budget = Limits::default().with_cancel_token(&token);
        let sequential = reg.validate_batch("wml", &docs, &budget).unwrap();
        assert_eq!(sequential.len(), 3);
        for errors in &sequential {
            assert_eq!(errors.len(), 1, "{errors:#?}");
            assert!(matches!(
                errors[0].kind,
                ValidationErrorKind::Resource(ResourceErrorKind::Cancelled)
            ));
            assert_eq!(errors[0].span, None);
        }
        let pool = ThreadPool::new(2);
        let parallel = reg
            .validate_batch_parallel("wml", &docs, &pool, &budget)
            .unwrap();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn unexpired_budget_leaves_batches_untouched() {
        let reg = SchemaRegistry::with_corpus().unwrap();
        let data = crate::DirectoryPageData {
            sub_dirs: vec!["music".into()],
            current_dir: "/media".into(),
            parent_dir: "/".into(),
        };
        let good = crate::render_string(&data);
        let bad = crate::render_string_buggy(&data);
        let docs: Vec<&str> = vec![&good, &bad];
        let pool = ThreadPool::new(2);
        let baseline = reg
            .validate_batch_parallel("wml", &docs, &pool, &Limits::default())
            .unwrap();
        let unbounded = reg
            .validate_batch_parallel("wml", &docs, &pool, &Limits::unbounded())
            .unwrap();
        assert_eq!(baseline, unbounded);
        let live_token = limits::CancelToken::new();
        let governed = reg
            .validate_batch_parallel(
                "wml",
                &docs,
                &pool,
                &Limits::default().with_cancel_token(&live_token),
            )
            .unwrap();
        assert_eq!(baseline, governed);
    }

    #[test]
    fn shared_across_threads() {
        let reg = std::sync::Arc::new(SchemaRegistry::with_corpus().unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    let c = reg.get("wml").unwrap();
                    assert!(c.schema().element("wml").is_some());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
