//! A schema with compiled, cached content-model automata — the shared
//! artifact the runtime validator and V-DOM both hold.
//!
//! Two layers of sharing:
//!
//! * a **per-schema cache** (`type name → Arc<ContentDfa>`), so every
//!   element instance of a type reuses one automaton;
//! * a **process-global intern table** (`content expression →
//!   Arc<ContentDfa>`), so *identical content models* — across types,
//!   across schemas, across registry entries — compile exactly once and
//!   share one automaton. A fleet of worker threads validating against
//!   overlapping schemas never compiles the same model twice.
//!
//! All locks are `parking_lot` (non-poisoning): a panic on one
//! validation thread must not wedge the caches for every other worker.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use automata::{ContentDfa, ContentExpr};

use crate::components::{AttributeUse, ContentModel, Schema, TypeDef, TypeRef};
use crate::error::SchemaError;
use crate::resolve::{SimpleCheck, SimpleTypeError};
use crate::symtab::SymIndex;

/// Cache of `type name → (child name → child element type)`, `None` when
/// the child is undeclared within the type. Nested rather than keyed by
/// `(String, String)` so a cache *hit* probes with two `&str`s and never
/// allocates.
type ChildTypeCache = Arc<RwLock<HashMap<String, HashMap<String, Option<TypeRef>>>>>;

/// The process-global DFA intern table. Keyed by the (unexpanded)
/// content expression, which derives `Hash`/`Eq` structurally — two
/// types whose models are written identically intern to one automaton.
static DFA_INTERN: OnceLock<Mutex<HashMap<ContentExpr, Arc<ContentDfa>>>> = OnceLock::new();

fn intern_table() -> &'static Mutex<HashMap<ContentExpr, Arc<ContentDfa>>> {
    DFA_INTERN.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of distinct content models interned process-wide.
pub fn interned_dfa_count() -> usize {
    intern_table().lock().len()
}

/// Looks `expr` up in the intern table, compiling it on first sight.
///
/// Compilation happens *under* the table lock, so each distinct model is
/// compiled exactly once no matter how many threads race here — the
/// `schema_dfa_compiled_total` counter is a faithful count of real
/// compilations. Failed compilations are not cached (every caller gets
/// the same error).
fn intern_dfa(expr: &ContentExpr, type_name: &str) -> Result<Arc<ContentDfa>, SimpleTypeError> {
    let mut table = intern_table().lock();
    if let Some(dfa) = table.get(expr) {
        if obs::enabled() {
            obs::metrics()
                .counter(
                    "schema_dfa_intern_hits_total",
                    "Content-model DFA requests served from the process-global intern table.",
                )
                .inc();
        }
        return Ok(dfa.clone());
    }
    let dfa =
        Arc::new(ContentDfa::compile(expr).map_err(|e| {
            SimpleTypeError::Unresolved(format!("content model of {type_name}: {e}"))
        })?);
    if obs::enabled() {
        obs::metrics()
            .counter(
                "schema_dfa_compiled_total",
                "Content-model DFAs compiled (intern-table misses).",
            )
            .inc();
    }
    table.insert(expr.clone(), dfa.clone());
    Ok(dfa)
}

/// A checked schema plus lazily populated caches (content DFAs, effective
/// attribute lists, child-element types), cheap to clone and share across
/// threads. The caches are what make V-DOM's per-mutation checks O(1)
/// amortized rather than a schema walk per operation.
#[derive(Debug, Clone)]
pub struct CompiledSchema {
    schema: Arc<Schema>,
    dfas: Arc<RwLock<HashMap<String, Arc<ContentDfa>>>>,
    attrs: Arc<RwLock<HashMap<String, Arc<[AttributeUse]>>>>,
    child_types: ChildTypeCache,
    /// Symbol-keyed dispatch plans, built once on first use (or eagerly
    /// by [`warm`](Self::warm)) and shared by every clone.
    sym_index: Arc<OnceLock<SymIndex>>,
}

impl CompiledSchema {
    /// Checks the schema (references, derivations, UPA) and wraps it.
    pub fn new(schema: Schema) -> Result<CompiledSchema, SchemaError> {
        schema.check()?;
        Ok(CompiledSchema {
            schema: Arc::new(schema),
            dfas: Arc::new(RwLock::new(HashMap::new())),
            attrs: Arc::new(RwLock::new(HashMap::new())),
            child_types: Arc::new(RwLock::new(HashMap::new())),
            sym_index: Arc::new(OnceLock::new()),
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
                        "Wall time to parse + check a schema.",
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

    /// The content DFA of a complex type, interned on first use.
    ///
    /// The returned handle is shared: two types (in this or any other
    /// schema) with structurally identical content models get
    /// pointer-equal `Arc<ContentDfa>`s.
    pub fn content_dfa(&self, type_name: &str) -> Result<Arc<ContentDfa>, SimpleTypeError> {
        if let Some(dfa) = self.dfas.read().get(type_name) {
            return Ok(dfa.clone());
        }
        let expr = self.schema.content_expr(type_name)?;
        let dfa = intern_dfa(&expr, type_name)?;
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
        self.dfas.write().insert(type_name.to_string(), dfa.clone());
        Ok(dfa)
    }

    /// The (uncompiled) content expression of a complex type.
    pub fn content_expr(&self, type_name: &str) -> Result<ContentExpr, SimpleTypeError> {
        self.schema.content_expr(type_name)
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

    /// The effective attribute uses of a complex type, cached.
    pub fn effective_attributes(
        &self,
        type_name: &str,
    ) -> Result<Arc<[AttributeUse]>, SimpleTypeError> {
        if let Some(a) = self.attrs.read().get(type_name) {
            return Ok(a.clone());
        }
        let computed: Arc<[AttributeUse]> = self.schema.effective_attributes(type_name)?.into();
        self.attrs
            .write()
            .insert(type_name.to_string(), computed.clone());
        Ok(computed)
    }

    /// The declared type of `child` inside complex type `type_name`,
    /// cached (including negative results).
    pub fn child_element_type(&self, type_name: &str, child: &str) -> Option<TypeRef> {
        if let Some(t) = self
            .child_types
            .read()
            .get(type_name)
            .and_then(|m| m.get(child))
        {
            return t.clone();
        }
        let computed = self.schema.child_element_type(type_name, child);
        self.child_types
            .write()
            .entry(type_name.to_string())
            .or_default()
            .insert(child.to_string(), computed.clone());
        computed
    }

    /// The symbol-keyed dispatch index: per-element open plans keyed by
    /// interned QNames, built on first use. The streaming validator's
    /// zero-allocation hot path dispatches through this instead of the
    /// string-keyed caches.
    pub fn sym_index(&self) -> &SymIndex {
        self.sym_index.get_or_init(|| SymIndex::build(self))
    }

    /// The resolved check for a simple type: the index's shared plan for
    /// any type an element or attribute of this schema uses, resolved
    /// afresh for any other.
    pub fn simple_plan(&self, type_ref: &TypeRef) -> SimpleCheck {
        match self.sym_index().simple(type_ref) {
            Some(check) => check.clone(),
            None => self.schema.simple_plan(type_ref).map(Arc::new),
        }
    }

    /// Precompiles every complex type's content DFA, effective attribute
    /// table, and child-type map, so a server pays all compilation cost
    /// *before* taking traffic instead of on the first unlucky request.
    /// Idempotent and safe to race from several threads.
    ///
    /// Returns the number of complex types whose DFA is ready. Types
    /// whose model cannot be DFA-compiled (occurrence bounds beyond the
    /// expansion limit) are skipped here and keep reporting their error
    /// on the per-document path, exactly as without warming.
    pub fn warm(&self) -> usize {
        let span = obs::span!("schema.warm");
        let mut ready = 0;
        for (name, def) in &self.schema.types {
            if !matches!(def, TypeDef::Complex(_)) {
                continue;
            }
            let _ = self.effective_attributes(name);
            if let Ok(expr) = self.schema.content_expr(name) {
                for symbol in expr.symbols() {
                    let _ = self.child_element_type(name, &symbol);
                }
            }
            if self.content_dfa(name).is_ok() {
                ready += 1;
            }
        }
        // build the symbol-keyed dispatch plans while we're still ahead
        // of traffic (this also interns every declared QName)
        let _ = self.sym_index();
        // one clock read shared by the trace record and the histogram
        let elapsed = span.finish();
        if obs::enabled() {
            if let Some(elapsed) = elapsed {
                obs::metrics()
                    .histogram(
                        "schema_warm_seconds",
                        "Wall time to precompile a schema's DFAs and attribute tables.",
                        obs::DURATION_BUCKETS,
                    )
                    .observe_duration(elapsed);
            }
        }
        ready
    }

    /// Number of DFAs cached in *this* schema so far (bench metric).
    pub fn compiled_count(&self) -> usize {
        self.dfas.read().len()
    }
}
