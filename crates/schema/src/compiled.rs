//! A schema with its compiled tables — the shared artifact the runtime
//! validator and V-DOM both hold.
//!
//! Two layers of sharing:
//!
//! * a **per-schema table**, the frozen [`SymIndex`], built by
//!   [`CompiledSchema::new`]: every complex type's content DFA and
//!   effective attributes, and every element plan. Every per-type
//!   question a caller asks is answered from it, and nothing a caller asks
//!   adds to it;
//! * a **process-global intern table** (`content expression →
//!   Arc<ContentDfa>`), so *identical content models* — across types,
//!   across schemas, across registry entries — compile exactly once and
//!   share one automaton. A fleet of worker threads validating against
//!   overlapping schemas never compiles the same model twice.
//!
//! Each content model is expanded and its Glushkov automaton built and
//! checked for unique particle attribution once per compile, outside any
//! lock; only the subset construction of a model not yet interned runs
//! under the intern table's lock, the only lock here. The table recovers
//! from poisoning: an automaton enters it only once compiled, so a panic
//! under the lock leaves the table whole, and it must not wedge the table
//! for every other worker.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};

use automata::{ContentDfa, ContentExpr, Glushkov};

use crate::components::{AttributeUse, ContentModel, Schema, TypeDef, TypeRef};
use crate::error::{SchemaError, SchemaErrorKind};
use crate::resolve::{SimpleCheck, SimpleTypeError};
use crate::symtab::SymIndex;

/// The process-global DFA intern table. Keyed by the (unexpanded)
/// content expression, which derives `Hash`/`Eq` structurally — two
/// types whose models are written identically intern to one automaton.
static DFA_INTERN: LazyLock<Mutex<HashMap<ContentExpr, Arc<ContentDfa>>>> =
    LazyLock::new(Default::default);

fn intern_table() -> MutexGuard<'static, HashMap<ContentExpr, Arc<ContentDfa>>> {
    DFA_INTERN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of distinct content models interned process-wide.
pub fn interned_dfa_count() -> usize {
    intern_table().len()
}

/// The content DFA of complex type `type_name`. The model's bounded
/// occurrences are expanded and its Glushkov automaton is built and
/// checked for unique particle attribution (Brüggemann-Klein and Wood: a
/// model satisfies it exactly when that automaton is deterministic);
/// only then is the intern table locked and, on first sight of the
/// model, the subset construction run on the same automaton.
///
/// An ambiguous or over-large model never reaches the subset
/// construction or the lock, and failed compiles are not cached (every
/// caller gets the same error). Subset construction runs *under* the
/// lock, so each distinct model is compiled exactly once no matter how
/// many threads race here — the `schema_dfa_compiled_total` counter is a
/// faithful count of real compilations.
pub(crate) fn intern_dfa(
    expr: &ContentExpr,
    type_name: &str,
) -> Result<Arc<ContentDfa>, SchemaError> {
    // the expansion is dropped before the subset construction starts
    let glushkov = Glushkov::construct(&expr.expand_occurrences().map_err(|bound| {
        SchemaError::nowhere(SchemaErrorKind::BadOccurs(format!(
            "maxOccurs={bound} too large for DFA construction"
        )))
    })?);
    glushkov
        .check_determinism()
        .map_err(|e| SchemaError::nowhere(SchemaErrorKind::Ambiguous(e.to_string())))?;
    let mut table = intern_table();
    let dfa = match table.get(expr) {
        Some(dfa) => {
            if obs::enabled() {
                obs::metrics()
                    .counter(
                        "schema_dfa_intern_hits_total",
                        "Content-model DFA requests served from the process-global intern table.",
                    )
                    .inc();
            }
            dfa.clone()
        }
        None => {
            let dfa = Arc::new(ContentDfa::from_glushkov(&glushkov));
            if obs::enabled() {
                obs::metrics()
                    .counter(
                        "schema_dfa_compiled_total",
                        "Content-model DFAs compiled (intern-table misses).",
                    )
                    .inc();
            }
            table.insert(expr.clone(), dfa.clone());
            dfa
        }
    };
    drop(table);
    if obs::enabled() {
        let metrics = obs::metrics();
        metrics
            .gauge_with(
                "schema_dfa_states",
                "DFA state count per content model.",
                &[("content_model", type_name)],
            )
            .set(dfa.state_count() as i64);
        metrics
            .gauge_with(
                "schema_dfa_transitions",
                "DFA transition count per content model.",
                &[("content_model", type_name)],
            )
            .set(dfa.transition_count() as i64);
    }
    Ok(dfa)
}

/// A checked schema plus its frozen [`SymIndex`], cheap to clone and
/// share across threads. The index is what makes V-DOM's per-mutation
/// checks a table lookup rather than a schema walk per operation.
#[derive(Debug, Clone)]
pub struct CompiledSchema {
    schema: Arc<Schema>,
    /// Built by [`new`](Self::new) and shared by every clone.
    sym_index: Arc<SymIndex>,
}

impl CompiledSchema {
    /// Checks the schema's references and derivations, then builds its
    /// index: every complex type's content model compiled (and checked
    /// for unique particle attribution) and every element plan. Returns
    /// the first error either step finds.
    pub fn new(schema: Schema) -> Result<CompiledSchema, SchemaError> {
        schema.check()?;
        let sym_index = Arc::new(SymIndex::build(&schema)?);
        Ok(CompiledSchema {
            schema: Arc::new(schema),
            sym_index,
        })
    }

    /// Parses, checks and compiles schema text in one step.
    pub fn parse(source: &str) -> Result<CompiledSchema, SchemaError> {
        let span = obs::span!("schema.compile");
        let result = CompiledSchema::new(crate::reader::parse_schema(source)?);
        // one clock read shared by the trace record and the histogram
        let elapsed = span.finish();
        if obs::enabled() {
            if let Some(elapsed) = elapsed {
                obs::metrics()
                    .histogram(
                        "schema_compile_seconds",
                        "Wall time to parse, check and compile a schema.",
                        obs::DURATION_BUCKETS,
                    )
                    .observe_duration(elapsed);
            }
        }
        result
    }

    /// The underlying schema components.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The content DFA of a complex type.
    ///
    /// The returned handle is shared: two types (in this or any other
    /// schema) with structurally identical content models get
    /// pointer-equal `Arc<ContentDfa>`s.
    pub fn content_dfa(&self, type_name: &str) -> Result<Arc<ContentDfa>, SimpleTypeError> {
        match self.sym_index.complex_type(type_name) {
            Some(entry) => Ok(entry.dfa.clone()),
            // not a complex type: the walk reports why
            None => Err(self
                .schema
                .content_expr(type_name)
                .expect_err("every complex type is indexed")),
        }
    }

    /// Whether the content of `type_name` allows interleaved text.
    ///
    /// `true` for mixed and simple content; `false` for element-only and
    /// empty content.
    pub fn allows_text(&self, type_ref: &TypeRef) -> bool {
        match type_ref {
            TypeRef::Builtin(_) => true,
            TypeRef::Named(n) | TypeRef::Anonymous(n) => match self.schema.types.get(n) {
                Some(TypeDef::Simple(_)) => true,
                Some(TypeDef::Complex(c)) => {
                    matches!(c.content, ContentModel::Mixed(_) | ContentModel::Simple(_))
                }
                None => false,
            },
        }
    }

    /// The effective attribute uses of a complex type.
    pub fn effective_attributes(
        &self,
        type_name: &str,
    ) -> Result<Arc<[AttributeUse]>, SimpleTypeError> {
        match self.sym_index.complex_type(type_name) {
            Some(entry) => Ok(entry.attrs.clone()),
            // not a complex type: the walk reports why
            None => self.schema.effective_attributes(type_name).map(Arc::from),
        }
    }

    /// The declared type of `child` inside complex type `type_name`,
    /// `None` when the type declares no such child.
    pub fn child_element_type(&self, type_name: &str, child: &str) -> Option<TypeRef> {
        let index = self.sym_index();
        let parent = index.complex_type(type_name)?.sym;
        let plan = index.child(parent, index.sym(child)?)?;
        Some(plan.type_ref.clone())
    }

    /// The frozen per-schema tables: per-type facts and per-element open
    /// plans keyed by interned QNames. Every per-type accessor here and
    /// the streaming validator's zero-allocation hot path answer from it.
    pub fn sym_index(&self) -> &SymIndex {
        &self.sym_index
    }

    /// The resolved check for a simple type: the index's shared plan for
    /// any type an element or attribute of this schema uses, resolved
    /// afresh for any other.
    pub fn simple_plan(&self, type_ref: &TypeRef) -> SimpleCheck {
        match self.sym_index.simple(type_ref) {
            Some(check) => check.clone(),
            None => self.schema.simple_plan(type_ref).map(Arc::new),
        }
    }

    /// The number of complex types, each with its content DFA ready.
    /// [`new`](Self::new) compiles everything, so there is nothing left
    /// to warm: this only counts, for callers that warm a schema before
    /// taking traffic.
    pub fn warm(&self) -> usize {
        self.sym_index.type_count()
    }
}
