//! Incremental revalidation over a typed patch stream.
//!
//! A full [`validate_document`](crate::validate_document) pass costs
//! O(document) per mutation — the wrong shape for live editors and
//! in-place views that mutate one node at a time. This module keeps a
//! document **valid by construction** instead: [`IncrementalValidator`]
//! holds a document proven valid once, and every [`DomPatch`] is checked
//! *locally* before it commits — the parent's interned content DFA is
//! resumed at the edit point ([`ContentDfa::resume`]) and stepped only
//! over the affected sibling suffix, attribute and simple-content facets
//! are re-checked only on the touched element, and a freshly spliced
//! subtree is the only thing validated recursively. A patch that would
//! make the document invalid is rejected with **exactly** the
//! [`ValidationError`] list a full pass over the patched tree would
//! produce (same kinds, same spans, same order), and the document is
//! rolled back byte-identically.
//!
//! Why local checking is sound: the held document is always valid, so a
//! full pass over the patched tree can only find errors at the edit
//! locus — the parent's content walk (the DFA is deterministic, so the
//! state before the edit point is exactly the state a from-scratch walk
//! reaches there), the touched element's attributes, the enclosing
//! simple-typed element's text, or the inserted subtree. Everything
//! outside the locus reproduces the previous, error-free run. The
//! differential mutation battery in `tests/tests/patch_prop.rs` holds
//! this equivalence over random patch sequences; `ContentDfa::resume`'s
//! mid-sibling soundness is pinned by `tests/tests/resume_audit.rs`.
//!
//! Resource governance: the session's [`Limits`] bound patch payload
//! size (`max_patch_bytes`), lifetime patch count (`max_patches`),
//! fragment parsing (the full parse-side budget set), insertion depth,
//! and attribute ceilings — each violation is a typed
//! [`PatchError::Resource`], never a panic.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use automata::{ContentDfa, Matcher};
use dom::{Document, NodeId, NodeKind};
use limits::{Limits, ResourceErrorKind};
use schema::{CompiledSchema, ContentPlan, ElemPlan, RootPlan};
use symbols::Sym;
use xmlchars::is_xml_whitespace;

use crate::error::{ValidationError, ValidationErrorKind};
use crate::stream::{check_subtree, parse_failure};
use crate::validate_document_with_limits;
use crate::{cap_errors, check_attributes_declared, check_simple_text, node_span, record_errors};

/// Addresses a node as child indexes from the document node: `[]` is the
/// document node itself, `[0]` its first child (usually the root
/// element), `[0, 2]` the root's third child, and so on. Indexes count
/// *all* node kinds — text, comments, and processing instructions
/// included — in document order.
pub type NodePath = Vec<usize>;

/// A node to splice into the document, supplied by value so patches can
/// travel over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NewNode {
    /// An element subtree, given as fragment markup (one element,
    /// optionally surrounded by whitespace). Parsed under the session's
    /// [`Limits`]; nodes imported from a fragment carry no source spans,
    /// exactly like programmatically built nodes.
    Element {
        /// The fragment markup.
        xml: String,
    },
    /// A text node with this (unescaped) character data.
    Text(String),
    /// A comment node. The content must be serializable as a comment:
    /// no `--`, no trailing `-`.
    Comment(String),
    /// A processing instruction.
    Pi {
        /// The PI target (an XML name, not `xml`).
        target: String,
        /// The PI data (must not contain `?>`).
        data: String,
    },
}

/// One typed mutation of the held document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomPatch {
    /// Replaces the character data of the text node at `at`.
    SetText {
        /// Path to a text node.
        at: NodePath,
        /// The new character data.
        text: String,
    },
    /// Sets (or replaces) an attribute on the element at `at`.
    SetAttr {
        /// Path to an element.
        at: NodePath,
        /// Attribute name.
        name: String,
        /// Attribute value.
        value: String,
    },
    /// Removes an attribute from the element at `at`. Removing an absent
    /// attribute is a [`PatchError::Structure`] error.
    RemoveAttr {
        /// Path to an element.
        at: NodePath,
        /// Attribute name.
        name: String,
    },
    /// Appends `child` as the last child of the container at `at`.
    AppendChild {
        /// Path to an element (or the document node).
        at: NodePath,
        /// The node to append.
        child: NewNode,
    },
    /// Inserts `child` at `index` among the children of `at`.
    InsertChild {
        /// Path to an element (or the document node).
        at: NodePath,
        /// Insertion position, `0..=child_count`.
        index: usize,
        /// The node to insert.
        child: NewNode,
    },
    /// Removes (and frees) the child at `index` of `at`.
    RemoveChild {
        /// Path to an element (or the document node).
        at: NodePath,
        /// Position of the child to remove.
        index: usize,
    },
    /// Replaces the child at `index` of `at` with `child`.
    ReplaceChild {
        /// Path to an element (or the document node).
        at: NodePath,
        /// Position of the child to replace.
        index: usize,
        /// The replacement node.
        child: NewNode,
    },
}

impl DomPatch {
    /// A stable name for this operation — the `op` label of the session
    /// metrics.
    pub fn op_name(&self) -> &'static str {
        match self {
            DomPatch::SetText { .. } => "set_text",
            DomPatch::SetAttr { .. } => "set_attr",
            DomPatch::RemoveAttr { .. } => "remove_attr",
            DomPatch::AppendChild { .. } => "append_child",
            DomPatch::InsertChild { .. } => "insert_child",
            DomPatch::RemoveChild { .. } => "remove_child",
            DomPatch::ReplaceChild { .. } => "replace_child",
        }
    }

    /// The raw byte size of the patch's variable payload — what
    /// `Limits::max_patch_bytes` is checked against.
    pub fn payload_bytes(&self) -> usize {
        match self {
            DomPatch::SetText { text, .. } => text.len(),
            DomPatch::SetAttr { name, value, .. } => name.len() + value.len(),
            DomPatch::RemoveAttr { name, .. } => name.len(),
            DomPatch::AppendChild { child, .. }
            | DomPatch::InsertChild { child, .. }
            | DomPatch::ReplaceChild { child, .. } => match child {
                NewNode::Element { xml } => xml.len(),
                NewNode::Text(t) => t.len(),
                NewNode::Comment(c) => c.len(),
                NewNode::Pi { target, data } => target.len() + data.len(),
            },
            DomPatch::RemoveChild { .. } => 0,
        }
    }
}

/// Why a patch did not commit. In every case the held document is
/// untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The patch applies structurally but would make the document
    /// invalid. The list is exactly what [`crate::validate_document`]
    /// would report on the patched tree.
    Invalid(Vec<ValidationError>),
    /// The patch does not apply to this document at all: bad path, wrong
    /// node kind, index out of bounds, malformed name, content that
    /// cannot round-trip through serialization. Not a validity question.
    Structure(String),
    /// A [`NewNode::Element`] fragment failed to parse.
    Fragment(String),
    /// A resource budget tripped; the patch was refused, not disproven.
    Resource(ResourceErrorKind),
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::Invalid(errors) => {
                write!(f, "patch rejected: {} violation(s)", errors.len())?;
                if let Some(first) = errors.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            PatchError::Structure(msg) => write!(f, "patch does not apply: {msg}"),
            PatchError::Fragment(msg) => write!(f, "fragment does not parse: {msg}"),
            PatchError::Resource(kind) => write!(f, "patch refused: {kind}"),
        }
    }
}

impl std::error::Error for PatchError {}

fn structure(msg: impl Into<String>) -> PatchError {
    PatchError::Structure(msg.into())
}

/// Resolves a [`NodePath`] against `doc`, starting at the document node.
fn node_at(doc: &Document, path: &[usize]) -> Result<NodeId, PatchError> {
    let mut cur = doc.document_node();
    for (depth, &idx) in path.iter().enumerate() {
        let children = doc
            .child_slice(cur)
            .map_err(|e| structure(format!("path step {depth}: {e}")))?;
        cur = *children.get(idx).ok_or_else(|| {
            structure(format!(
                "path step {depth}: index {idx} out of bounds ({} children)",
                children.len()
            ))
        })?;
    }
    Ok(cur)
}

fn require_xml_chars(what: &str, s: &str) -> Result<(), PatchError> {
    match s.chars().find(|&c| !xmlchars::is_xml_char(c)) {
        Some(c) => Err(structure(format!(
            "{what} contains U+{:04X}, which is not an XML character",
            c as u32
        ))),
        None => Ok(()),
    }
}

/// Builds a detached [`NewNode`] inside `doc`, enforcing the payload
/// preconditions that keep the document serializable: XML characters
/// only, comment/PI content that round-trips, fragments parsed under
/// `limits`.
fn materialize(doc: &mut Document, node: &NewNode, limits: &Limits) -> Result<NodeId, PatchError> {
    match node {
        NewNode::Element { xml } => {
            let (frag, frag_root) =
                xmlparse::parse_fragment_with_limits(xml, limits).map_err(|e| match e.kind {
                    xmlparse::ParseErrorKind::Resource(kind) => PatchError::Resource(kind),
                    _ => PatchError::Fragment(e.to_string()),
                })?;
            doc.import_subtree(&frag, frag_root)
                .map_err(|e| structure(format!("import failed: {e}")))
        }
        NewNode::Text(t) => {
            require_xml_chars("text", t)?;
            Ok(doc.create_text(t.clone()))
        }
        NewNode::Comment(c) => {
            require_xml_chars("comment", c)?;
            if c.contains("--") || c.ends_with('-') {
                return Err(structure(
                    "comment content cannot contain `--` or end with `-`",
                ));
            }
            Ok(doc.create_comment(c.clone()))
        }
        NewNode::Pi { target, data } => {
            require_xml_chars("processing-instruction data", data)?;
            if target.eq_ignore_ascii_case("xml") {
                return Err(structure("`xml` is a reserved PI target"));
            }
            if data.contains("?>") {
                return Err(structure("processing-instruction data cannot contain `?>`"));
            }
            doc.create_pi(target.clone(), data.clone())
                .map_err(|e| structure(format!("{e}")))
        }
    }
}

/// Applies `patch` to a bare document with **no validation** — the
/// structural mutation alone, with fragments parsed unbounded. The
/// differential battery uses this to build the patched tree
/// independently and compare a full pass against the incremental
/// verdict; it is also the reference semantics for what each patch
/// *does*.
pub fn apply_unchecked(doc: &mut Document, patch: &DomPatch) -> Result<(), PatchError> {
    let unbounded = Limits::unbounded();
    match patch {
        DomPatch::SetText { at, text } => {
            let node = node_at(doc, at)?;
            if !matches!(doc.kind(node), Ok(NodeKind::Text(_))) {
                return Err(structure("SetText target is not a text node"));
            }
            require_xml_chars("text", text)?;
            doc.set_text(node, text.clone())
                .map_err(|e| structure(format!("{e}")))
        }
        DomPatch::SetAttr { at, name, value } => {
            let node = node_at(doc, at)?;
            require_xml_chars("attribute value", value)?;
            doc.set_attribute(node, name.clone(), value.clone())
                .map_err(|e| structure(format!("{e}")))
        }
        DomPatch::RemoveAttr { at, name } => {
            let node = node_at(doc, at)?;
            match doc.remove_attribute(node, name) {
                Ok(Some(_)) => Ok(()),
                Ok(None) => Err(structure(format!("no attribute named `{name}`"))),
                Err(e) => Err(structure(format!("{e}"))),
            }
        }
        DomPatch::AppendChild { at, child } => {
            let parent = node_at(doc, at)?;
            let index = doc
                .child_count(parent)
                .map_err(|e| structure(format!("{e}")))?;
            insert_unchecked(doc, parent, index, child, &unbounded)
        }
        DomPatch::InsertChild { at, index, child } => {
            let parent = node_at(doc, at)?;
            insert_unchecked(doc, parent, *index, child, &unbounded)
        }
        DomPatch::RemoveChild { at, index } => {
            let parent = node_at(doc, at)?;
            let target = child_at(doc, parent, *index)?;
            doc.remove(target).map_err(|e| structure(format!("{e}")))
        }
        DomPatch::ReplaceChild { at, index, child } => {
            let parent = node_at(doc, at)?;
            let target = child_at(doc, parent, *index)?;
            doc.detach(target).map_err(|e| structure(format!("{e}")))?;
            match insert_unchecked(doc, parent, *index, child, &unbounded) {
                Ok(()) => doc.remove(target).map_err(|e| structure(format!("{e}"))),
                Err(e) => {
                    // restore the original child before reporting
                    let _ = doc.insert_child(parent, *index, target);
                    Err(e)
                }
            }
        }
    }
}

fn child_at(doc: &Document, parent: NodeId, index: usize) -> Result<NodeId, PatchError> {
    let children = doc
        .child_slice(parent)
        .map_err(|e| structure(format!("{e}")))?;
    children.get(index).copied().ok_or_else(|| {
        structure(format!(
            "index {index} out of bounds ({} children)",
            children.len()
        ))
    })
}

fn insert_unchecked(
    doc: &mut Document,
    parent: NodeId,
    index: usize,
    child: &NewNode,
    limits: &Limits,
) -> Result<(), PatchError> {
    if parent == doc.document_node() && matches!(child, NewNode::Text(_)) {
        return Err(structure("text is not allowed at document level"));
    }
    let new = materialize(doc, child, limits)?;
    match doc.insert_child(parent, index, new) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = doc.remove(new);
            Err(structure(format!("{e}")))
        }
    }
}

/// How the edit parent validates its children — resolved per patch by
/// walking the target's ancestor chain through the schema's
/// [`SymIndex`](schema::SymIndex) plans.
enum ParentCtx {
    /// The document node: root-declaration rules apply.
    Document,
    /// Simple (text-only) content under this open plan.
    Simple(Arc<ElemPlan>),
    /// Complex content stepped by the type's interned DFA.
    Complex {
        type_sym: Sym,
        dfa: Arc<ContentDfa>,
        mixed: bool,
    },
}

/// What a child-list patch did, for the suffix walk and the rollback.
enum ChildOp<'a> {
    Insert { index: usize, child: &'a NewNode },
    Remove { index: usize },
    Replace { index: usize, child: &'a NewNode },
}

/// A validated document plus everything needed to revalidate patches in
/// O(affected siblings): per-parent DFA state snapshots (the state
/// *before* every child slot), resolved through the schema's interned
/// plans. See the module docs for the soundness argument.
pub struct IncrementalValidator {
    compiled: CompiledSchema,
    doc: Document,
    limits: Limits,
    /// For each complex-content parent that has been edited: the DFA
    /// state before each child slot plus the final state
    /// (`len == child_count + 1`). Built lazily on first edit, spliced
    /// on every commit. Stale ids from freed subtrees can never collide
    /// with live ones (the arena bumps generations on free).
    states: HashMap<NodeId, Vec<usize>>,
    patches_seen: u64,
    applied: u64,
    rejected: u64,
    last_nodes_rechecked: usize,
}

impl fmt::Debug for IncrementalValidator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncrementalValidator")
            .field("nodes", &self.doc.len())
            .field("applied", &self.applied)
            .field("rejected", &self.rejected)
            .finish_non_exhaustive()
    }
}

impl IncrementalValidator {
    /// Takes ownership of `doc` after proving it valid. Returns the
    /// violations if it is not. `limits` is the session budget: the
    /// initial full pass, every fragment parse, and every patch run under
    /// it.
    pub fn new(
        compiled: CompiledSchema,
        doc: Document,
        limits: Limits,
    ) -> Result<Self, Vec<ValidationError>> {
        let errors = validate_document_with_limits(&compiled, &doc, &limits);
        if !errors.is_empty() {
            return Err(errors);
        }
        Ok(IncrementalValidator {
            compiled,
            doc,
            limits,
            states: HashMap::new(),
            patches_seen: 0,
            applied: 0,
            rejected: 0,
            last_nodes_rechecked: 0,
        })
    }

    /// Parses `src` under `limits` and proves it valid: the text-input
    /// entry, [`new`](Self::new) on the tree
    /// [`xmlparse::parse_document_with_limits`] builds. A parse failure
    /// comes back alone, as the one entry streaming validation ends with:
    /// [`ValidationErrorKind::NotWellFormed`] with the failure's kind (a
    /// typed [`ValidationErrorKind::Resource`] for a parse-side budget
    /// trip) at the failure's position; otherwise the list is
    /// [`validate_document_with_limits`]'s.
    pub fn open(
        compiled: CompiledSchema,
        src: &str,
        limits: Limits,
    ) -> Result<Self, Vec<ValidationError>> {
        let doc = xmlparse::parse_document_with_limits(src, &limits)
            .map_err(|e| vec![parse_failure(e)])?;
        Self::new(compiled, doc, limits)
    }

    /// The held document — always valid.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The schema the document validates against.
    pub fn schema(&self) -> &CompiledSchema {
        &self.compiled
    }

    /// The session budget.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Nodes re-checked by the most recent [`apply`](Self::apply) —
    /// suffix slots walked plus inserted-subtree nodes validated. The
    /// wide-event `nodes_rechecked` field; divide by
    /// [`node_count`](Self::node_count) for the locality ratio.
    pub fn nodes_rechecked(&self) -> usize {
        self.last_nodes_rechecked
    }

    /// Live nodes in the held document (including the document node).
    pub fn node_count(&self) -> usize {
        self.doc.len()
    }

    /// Patches committed so far.
    pub fn applied_total(&self) -> u64 {
        self.applied
    }

    /// Patches rejected so far (validity, structure, or resource).
    pub fn rejected_total(&self) -> u64 {
        self.rejected
    }

    /// Applies one patch: checks the session budget, applies the
    /// mutation, revalidates the edit locus, and either commits or rolls
    /// back. On any `Err` the document is exactly as it was.
    pub fn apply(&mut self, patch: &DomPatch) -> Result<(), PatchError> {
        self.last_nodes_rechecked = 0;
        self.patches_seen = self.patches_seen.saturating_add(1);
        let result = self.apply_governed(patch);
        match &result {
            Ok(()) => self.applied += 1,
            Err(e) => {
                self.rejected += 1;
                if let PatchError::Invalid(errors) = e {
                    record_errors("patch", errors);
                }
            }
        }
        result
    }

    fn apply_governed(&mut self, patch: &DomPatch) -> Result<(), PatchError> {
        if let Some(kind) = self.limits.expired_kind() {
            limits::record_trip(&kind);
            return Err(PatchError::Resource(kind));
        }
        if self.patches_seen > self.limits.max_patches {
            let kind = ResourceErrorKind::TooManyPatches {
                limit: self.limits.max_patches,
            };
            limits::record_trip(&kind);
            return Err(PatchError::Resource(kind));
        }
        let payload = patch.payload_bytes();
        if payload > self.limits.max_patch_bytes {
            let kind = ResourceErrorKind::PatchTooLarge {
                limit: self.limits.max_patch_bytes,
                actual: payload,
            };
            limits::record_trip(&kind);
            return Err(PatchError::Resource(kind));
        }
        match patch {
            DomPatch::SetText { at, text } => self.set_text(at, text),
            DomPatch::SetAttr { at, name, value } => self.set_attr(at, name, Some(value)),
            DomPatch::RemoveAttr { at, name } => self.set_attr(at, name, None),
            DomPatch::AppendChild { at, child } => {
                let parent = node_at(&self.doc, at)?;
                let index = self
                    .doc
                    .child_count(parent)
                    .map_err(|e| structure(format!("{e}")))?;
                self.child_list_patch(parent, ChildOp::Insert { index, child })
            }
            DomPatch::InsertChild { at, index, child } => {
                let parent = node_at(&self.doc, at)?;
                self.child_list_patch(
                    parent,
                    ChildOp::Insert {
                        index: *index,
                        child,
                    },
                )
            }
            DomPatch::RemoveChild { at, index } => {
                let parent = node_at(&self.doc, at)?;
                self.child_list_patch(parent, ChildOp::Remove { index: *index })
            }
            DomPatch::ReplaceChild { at, index, child } => {
                let parent = node_at(&self.doc, at)?;
                self.child_list_patch(
                    parent,
                    ChildOp::Replace {
                        index: *index,
                        child,
                    },
                )
            }
        }
    }

    // ---- plan resolution ------------------------------------------------

    /// The open plan for an element of the held (valid) document,
    /// resolved by walking its ancestor chain through the `SymIndex`.
    /// O(depth); failures are defensive — they cannot occur for elements
    /// of a valid document.
    fn elem_plan(&self, node: NodeId) -> Result<Arc<ElemPlan>, PatchError> {
        let mut chain = Vec::new();
        let mut cur = node;
        let doc_node = self.doc.document_node();
        while cur != doc_node {
            chain.push(cur);
            cur = self
                .doc
                .parent(cur)
                .map_err(|e| structure(format!("{e}")))?
                .ok_or_else(|| structure("node is detached"))?;
        }
        chain.reverse();
        let index = self.compiled.sym_index();
        let mut plan: Option<Arc<ElemPlan>> = None;
        for &n in &chain {
            let tag = self
                .doc
                .tag_name(n)
                .map_err(|_| structure("path traverses a non-element node"))?;
            let sym = index
                .sym(tag)
                .ok_or_else(|| structure(format!("element `{tag}` is not schema-tracked")))?;
            plan = Some(match plan {
                None => match index.root(sym) {
                    Some(RootPlan::Elem(p)) => p.clone(),
                    _ => return Err(structure(format!("`{tag}` is not a concrete root plan"))),
                },
                Some(p) => {
                    let type_sym = match &p.content {
                        ContentPlan::Complex { type_sym, .. } => *type_sym,
                        _ => {
                            return Err(structure(format!(
                                "`{tag}`'s parent does not admit element children"
                            )))
                        }
                    };
                    match index.child(type_sym, sym) {
                        Some(p) => p.clone(),
                        None => {
                            return Err(structure(format!(
                                "no plan for `{tag}` under its parent type"
                            )))
                        }
                    }
                }
            });
        }
        plan.ok_or_else(|| structure("the document node has no element plan"))
    }

    fn parent_ctx(&self, parent: NodeId) -> Result<ParentCtx, PatchError> {
        if parent == self.doc.document_node() {
            return Ok(ParentCtx::Document);
        }
        let plan = self.elem_plan(parent)?;
        match &plan.content {
            ContentPlan::Simple(_) => Ok(ParentCtx::Simple(plan.clone())),
            ContentPlan::Complex {
                type_sym,
                dfa,
                mixed,
            } => Ok(ParentCtx::Complex {
                type_sym: *type_sym,
                dfa: dfa.clone(),
                mixed: *mixed,
            }),
        }
    }

    // ---- DFA state snapshots --------------------------------------------

    /// Makes sure `states` holds the per-slot DFA states for `parent`,
    /// built on first use by one full walk over its (pre-edit, valid)
    /// child list. Entry `i` is the state before slot `i`; the last
    /// entry is the final (always accepting) state.
    fn ensure_states(&mut self, parent: NodeId, dfa: &ContentDfa) {
        let IncrementalValidator {
            states,
            doc,
            compiled,
            ..
        } = self;
        let index = compiled.sym_index();
        states.entry(parent).or_insert_with(|| {
            let children = doc.child_vec(parent).unwrap_or_default();
            let mut v = Vec::with_capacity(children.len() + 1);
            let mut m = dfa.start();
            v.push(m.state());
            for child in children {
                if let Ok(NodeKind::Element { name, .. }) = doc.kind(child) {
                    // the held document is valid: every step succeeds,
                    // by symbol unless the schema does not know the name
                    if !index.sym(name).is_some_and(|s| m.try_step_sym(s)) {
                        let _ = m.step(name);
                    }
                }
                v.push(m.state());
            }
            v
        });
    }

    /// Drops state snapshots for every node of a subtree about to be
    /// freed (the ids die with it; this only bounds map growth).
    fn evict_subtree(&mut self, node: NodeId) {
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            self.states.remove(&n);
            if let Ok(children) = self.doc.child_vec(n) {
                stack.extend(children);
            }
        }
    }

    // ---- SetText ---------------------------------------------------------

    fn set_text(&mut self, at: &[usize], text: &str) -> Result<(), PatchError> {
        let node = node_at(&self.doc, at)?;
        let old = match self.doc.kind(node) {
            Ok(NodeKind::Text(t)) => t.clone(),
            _ => return Err(structure("SetText target is not a text node")),
        };
        require_xml_chars("text", text)?;
        let parent = self
            .doc
            .parent(node)
            .map_err(|e| structure(format!("{e}")))?
            .ok_or_else(|| structure("text node is detached"))?;
        if parent == self.doc.document_node() {
            return Err(structure("text is not allowed at document level"));
        }
        let ctx = self.parent_ctx(parent)?;
        self.doc
            .set_text(node, text)
            .map_err(|e| structure(format!("{e}")))?;
        let mut errors = Vec::new();
        match ctx {
            ParentCtx::Simple(plan) => {
                if let ContentPlan::Simple(check) = &plan.content {
                    check_simple_text(
                        || self.doc.tag_name(parent).unwrap_or_default().to_string(),
                        check,
                        &self.doc.text_content(parent).unwrap_or_default(),
                        node_span(&self.doc, parent),
                        &mut errors,
                    );
                }
            }
            ParentCtx::Complex { mixed: false, .. } => {
                if !text.chars().all(is_xml_whitespace) {
                    errors.push(ValidationError::at_opt(
                        ValidationErrorKind::TextNotAllowed {
                            element: self.doc.tag_name(parent).unwrap_or_default().to_string(),
                        },
                        node_span(&self.doc, node),
                    ));
                }
            }
            ParentCtx::Complex { mixed: true, .. } | ParentCtx::Document => {}
        }
        self.last_nodes_rechecked = 1;
        if errors.is_empty() {
            Ok(())
        } else {
            self.doc.set_text(node, old).expect("rollback to old text");
            cap_errors(&mut errors, &self.limits);
            Err(PatchError::Invalid(errors))
        }
    }

    // ---- SetAttr / RemoveAttr --------------------------------------------

    fn set_attr(
        &mut self,
        at: &[usize],
        name: &str,
        value: Option<&str>,
    ) -> Result<(), PatchError> {
        let node = node_at(&self.doc, at)?;
        let saved = self
            .doc
            .attributes(node)
            .map_err(|_| structure("attribute target is not an element"))?
            .to_vec();
        let plan = self.elem_plan(node)?;
        match value {
            Some(value) => {
                require_xml_chars("attribute value", value)?;
                if value.len() > self.limits.max_attr_value_bytes {
                    let kind = ResourceErrorKind::AttributeValueTooLong {
                        limit: self.limits.max_attr_value_bytes,
                        actual: value.len(),
                    };
                    limits::record_trip(&kind);
                    return Err(PatchError::Resource(kind));
                }
                let adds_new = !saved.iter().any(|a| &*a.name == name);
                if adds_new && saved.len() + 1 > self.limits.max_attributes {
                    let kind = ResourceErrorKind::TooManyAttributes {
                        limit: self.limits.max_attributes,
                    };
                    limits::record_trip(&kind);
                    return Err(PatchError::Resource(kind));
                }
                self.doc
                    .set_attribute(node, name, value)
                    .map_err(|e| structure(format!("{e}")))?;
            }
            None => match self.doc.remove_attribute(node, name) {
                Ok(Some(_)) => {}
                Ok(None) => return Err(structure(format!("no attribute named `{name}`"))),
                Err(e) => return Err(structure(format!("{e}"))),
            },
        }
        let mut errors = Vec::new();
        check_attributes_declared(
            || self.doc.tag_name(node).unwrap_or_default().to_string(),
            self.doc.attributes(node).unwrap_or(&[]),
            &plan.attrs,
            node_span(&self.doc, node),
            &mut errors,
        );
        self.last_nodes_rechecked = 1;
        if errors.is_empty() {
            Ok(())
        } else {
            self.doc
                .replace_attributes(node, saved)
                .expect("rollback to saved attributes");
            cap_errors(&mut errors, &self.limits);
            Err(PatchError::Invalid(errors))
        }
    }

    // ---- child-list patches ----------------------------------------------

    fn child_list_patch(&mut self, parent: NodeId, op: ChildOp<'_>) -> Result<(), PatchError> {
        let len = self
            .doc
            .child_count(parent)
            .map_err(|e| structure(format!("{e}")))?;
        let (index, new_node) = match &op {
            ChildOp::Insert { index, child } => {
                if *index > len {
                    return Err(structure(format!(
                        "index {index} out of bounds ({len} children)"
                    )));
                }
                (*index, Some(*child))
            }
            ChildOp::Remove { index } | ChildOp::Replace { index, .. } => {
                if *index >= len {
                    return Err(structure(format!(
                        "index {index} out of bounds ({len} children)"
                    )));
                }
                let child = match &op {
                    ChildOp::Replace { child, .. } => Some(*child),
                    _ => None,
                };
                (*index, child)
            }
        };
        let ctx = self.parent_ctx(parent)?;
        if matches!(ctx, ParentCtx::Document) && matches!(new_node, Some(NewNode::Text(_))) {
            return Err(structure("text is not allowed at document level"));
        }

        // Snapshot DFA states over the *pre-edit* child list.
        if let ParentCtx::Complex { dfa, .. } = &ctx {
            self.ensure_states(parent, dfa);
        }

        // Materialize and depth-check the incoming node.
        let new = match new_node {
            Some(n) => {
                let id = materialize(&mut self.doc, n, &self.limits)?;
                if let Err(e) = self.check_insert_depth(parent, id) {
                    let _ = self.doc.remove(id);
                    return Err(e);
                }
                Some(id)
            }
            None => None,
        };

        // Apply the structural mutation (detach only — removal is
        // deferred to commit so rejection can restore it).
        let removed = match &op {
            ChildOp::Insert { .. } => None,
            ChildOp::Remove { index } | ChildOp::Replace { index, .. } => {
                let target = child_at(&self.doc, parent, *index)?;
                self.doc
                    .detach(target)
                    .map_err(|e| structure(format!("{e}")))?;
                Some(target)
            }
        };
        if let Some(id) = new {
            if let Err(e) = self.doc.insert_child(parent, index, id) {
                let _ = self.doc.remove(id);
                if let Some(old) = removed {
                    let _ = self.doc.insert_child(parent, index, old);
                }
                return Err(structure(format!("{e}")));
            }
        }

        // Revalidate the edit locus. The parent's snapshot leaves the map
        // for the walk (a move, not a copy) and goes back below: spliced
        // on commit, unchanged on rollback.
        let old_states = self.states.remove(&parent).unwrap_or_default();
        let (mut errors, trial_states) = match &ctx {
            ParentCtx::Document => (self.recheck_document_level(new), Vec::new()),
            ParentCtx::Simple(plan) => {
                // re-walk the parent: its children and text, checked at close
                let errors = check_subtree(&self.compiled, &self.doc, parent, Some(plan));
                self.last_nodes_rechecked = self.doc.child_count(parent).unwrap_or(0).max(1);
                (errors, Vec::new())
            }
            ParentCtx::Complex {
                type_sym,
                dfa,
                mixed,
            } => self.recheck_complex_suffix(parent, &op, index, new, &old_states, {
                ComplexCtx {
                    type_sym: *type_sym,
                    dfa: dfa.clone(),
                    mixed: *mixed,
                }
            }),
        };

        if errors.is_empty() {
            // Commit: splice states, free the detached subtree.
            if matches!(ctx, ParentCtx::Complex { .. }) {
                let mut spliced = old_states;
                spliced.truncate(index);
                spliced.extend_from_slice(&trial_states);
                self.states.insert(parent, spliced);
            }
            if let Some(old) = removed {
                self.evict_subtree(old);
                let _ = self.doc.remove(old);
            }
            Ok(())
        } else {
            // Rollback: undo the mutation in reverse order.
            if matches!(ctx, ParentCtx::Complex { .. }) {
                self.states.insert(parent, old_states);
            }
            if let Some(id) = new {
                let _ = self.doc.remove(id);
            }
            if let Some(old) = removed {
                self.doc
                    .insert_child(parent, index, old)
                    .expect("rollback reinsert");
            }
            cap_errors(&mut errors, &self.limits);
            Err(PatchError::Invalid(errors))
        }
    }

    /// `max_depth` for an insertion: ancestors of `parent` + the new
    /// subtree's own height must fit the budget, mirroring what the
    /// parse-side governor would reject when the document is re-read.
    fn check_insert_depth(&self, parent: NodeId, new: NodeId) -> Result<(), PatchError> {
        if self.limits.max_depth == usize::MAX {
            return Ok(());
        }
        let mut parent_depth = 0usize;
        let mut cur = parent;
        let doc_node = self.doc.document_node();
        while cur != doc_node {
            parent_depth += 1;
            cur = match self.doc.parent(cur) {
                Ok(Some(p)) => p,
                _ => break,
            };
        }
        // height of the new subtree counting element nesting
        let mut height = 0usize;
        let mut stack = vec![(new, 1usize)];
        while let Some((n, d)) = stack.pop() {
            if matches!(self.doc.kind(n), Ok(NodeKind::Element { .. })) {
                height = height.max(d);
                if let Ok(children) = self.doc.child_vec(n) {
                    stack.extend(children.into_iter().map(|c| (c, d + 1)));
                }
            }
        }
        if parent_depth + height > self.limits.max_depth {
            let kind = ResourceErrorKind::DepthExceeded {
                limit: self.limits.max_depth,
            };
            limits::record_trip(&kind);
            return Err(PatchError::Resource(kind));
        }
        Ok(())
    }

    /// Document-level recheck: reproduces `validate_document`'s root
    /// handling on the (already mutated) top-level child list.
    fn recheck_document_level(&mut self, new: Option<NodeId>) -> Vec<ValidationError> {
        self.last_nodes_rechecked = 1;
        match self.doc.root_element() {
            None => vec![ValidationError::nowhere(ValidationErrorKind::NoRootElement)],
            // Only a freshly spliced root needs validation; an untouched
            // root is valid by the session invariant.
            Some(root) if Some(root) == new => {
                self.last_nodes_rechecked = subtree_size(&self.doc, root);
                check_subtree(&self.compiled, &self.doc, root, None)
            }
            Some(_) => Vec::new(),
        }
    }

    /// The core of incremental checking: resume the parent's DFA at the edit
    /// point and walk only the sibling suffix, re-syncing with the old
    /// state snapshot as soon as the automaton provably re-converges.
    /// Returns the locus errors plus the trial state snapshot for slots
    /// `index..` (only meaningful when the errors are empty).
    fn recheck_complex_suffix(
        &mut self,
        parent: NodeId,
        op: &ChildOp<'_>,
        index: usize,
        new: Option<NodeId>,
        old_states: &[usize],
        ctx: ComplexCtx,
    ) -> (Vec<ValidationError>, Vec<usize>) {
        let parent_name = self.doc.tag_name(parent).unwrap_or_default().to_string();
        let plans = self.compiled.sym_index();
        let children = self.doc.child_vec(parent).unwrap_or_default();
        let mut matcher = ctx.dfa.resume(old_states[index]);
        let mut content_ok = true;
        let mut errors: Vec<ValidationError> = Vec::new();
        let mut trial: Vec<usize> = Vec::new();
        let mut rechecked = 0usize;
        let mut synced = false;
        // Mapping from a post-edit slot j (past the edit region) to the
        // pre-edit slot whose "state before" it must reproduce.
        let (resync_from, old_of): (usize, fn(usize) -> usize) = match op {
            ChildOp::Insert { .. } => (index + 1, |j| j - 1),
            ChildOp::Remove { .. } => (index, |j| j + 1),
            ChildOp::Replace { .. } => (index + 1, |j| j),
        };
        for (j, &child) in children.iter().enumerate().skip(index) {
            if content_ok && j >= resync_from && matcher.state() == old_states[old_of(j)] {
                // Deterministic DFA + identical suffix ⇒ the rest of the
                // old (error-free, accepting) run replays verbatim.
                trial.extend_from_slice(&old_states[old_of(j)..]);
                synced = true;
                break;
            }
            if !content_ok && errors.is_empty() {
                // cannot happen (content_ok only drops with an error),
                // but keep the invariant obvious
                debug_assert!(false);
            }
            if !content_ok && j >= resync_from {
                // Past the edit region with the DFA already failed: the
                // remaining (unchanged, individually valid) siblings can
                // produce no further errors, and no states are needed
                // because this patch is being rejected.
                break;
            }
            rechecked += 1;
            trial.push(matcher.state());
            match self.doc.kind(child) {
                Ok(NodeKind::Element { name, .. }) => {
                    let sym = plans.sym(name);
                    // step by symbol; re-step by string only on a miss, for
                    // the rich error
                    if content_ok && !sym.is_some_and(|s| matcher.try_step_sym(s)) {
                        if let Err(e) = matcher.step(name) {
                            errors.push(ValidationError::at_opt(
                                ValidationErrorKind::UnexpectedChild {
                                    parent: parent_name.clone(),
                                    child: name.to_string(),
                                    expected: e.expected,
                                },
                                node_span(&self.doc, child),
                            ));
                            content_ok = false;
                        }
                    }
                    // Walk only the freshly spliced subtree; untouched
                    // siblings are valid by the invariant.
                    if Some(child) == new {
                        if let Some(plan) = sym.and_then(|s| plans.child(ctx.type_sym, s)) {
                            errors.extend(check_subtree(
                                &self.compiled,
                                &self.doc,
                                child,
                                Some(plan),
                            ));
                            rechecked += subtree_size(&self.doc, child).saturating_sub(1);
                        }
                    }
                }
                Ok(NodeKind::Text(t)) if !ctx.mixed && !t.chars().all(is_xml_whitespace) => {
                    errors.push(ValidationError::at_opt(
                        ValidationErrorKind::TextNotAllowed {
                            element: parent_name.clone(),
                        },
                        node_span(&self.doc, child),
                    ));
                }
                _ => {}
            }
            // fix up the recorded state: the entry for slot j must be
            // the state *before* it, which we pushed above; nothing to
            // do here — the next iteration pushes the post-step state.
        }
        if !synced {
            trial.push(matcher.state());
            if content_ok && !matcher.is_accepting() {
                errors.push(ValidationError::at_opt(
                    ValidationErrorKind::IncompleteContent {
                        element: parent_name,
                        expected: matcher.expected(),
                    },
                    node_span(&self.doc, parent),
                ));
            }
        }
        self.last_nodes_rechecked = rechecked.max(1);
        (errors, trial)
    }
}

struct ComplexCtx {
    type_sym: Sym,
    dfa: Arc<ContentDfa>,
    mixed: bool,
}

fn subtree_size(doc: &Document, node: NodeId) -> usize {
    let mut count = 0usize;
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        count += 1;
        if let Ok(children) = doc.child_vec(n) {
            stack.extend(children);
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_document;
    use schema::corpus::{PURCHASE_ORDER_XML, PURCHASE_ORDER_XSD, WML_XSD};

    fn po_session() -> IncrementalValidator {
        let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
        let doc = xmlparse::parse_document(PURCHASE_ORDER_XML).unwrap();
        IncrementalValidator::new(compiled, doc, Limits::default()).unwrap()
    }

    fn path_of(doc: &Document, node: NodeId) -> NodePath {
        let mut path = Vec::new();
        let mut cur = node;
        while let Ok(Some(parent)) = doc.parent(cur) {
            let idx = doc
                .child_slice(parent)
                .unwrap()
                .iter()
                .position(|&c| c == cur)
                .unwrap();
            path.push(idx);
            cur = parent;
        }
        path.reverse();
        path
    }

    #[test]
    fn invalid_document_is_refused_at_open() {
        let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
        let doc = xmlparse::parse_document("<purchaseOrder/>").unwrap();
        let errors = match IncrementalValidator::new(compiled, doc, Limits::default()) {
            Err(errors) => errors,
            Ok(_) => panic!("invalid document accepted"),
        };
        assert!(!errors.is_empty());
    }

    #[test]
    fn set_text_accepts_and_rejects_with_full_pass_errors() {
        let mut s = po_session();
        let doc = s.document();
        let root = doc.root_element().unwrap();
        let ship = doc.child_element_named(root, "shipTo").unwrap();
        let zip = doc.child_element_named(ship, "zip").unwrap();
        let text = doc.child_vec(zip).unwrap()[0];
        let at = path_of(doc, text);

        // valid replacement commits
        s.apply(&DomPatch::SetText {
            at: at.clone(),
            text: "12345".into(),
        })
        .unwrap();
        assert_eq!(s.nodes_rechecked(), 1);

        // invalid replacement rejects with the full-pass error
        let before = dom::serialize(s.document(), s.document().document_node()).unwrap();
        let err = s
            .apply(&DomPatch::SetText {
                at,
                text: "not-a-number".into(),
            })
            .unwrap_err();
        let errors = match err {
            PatchError::Invalid(e) => e,
            other => panic!("{other:?}"),
        };
        let mut clone = s.document().clone();
        apply_unchecked(
            &mut clone,
            &DomPatch::SetText {
                at: path_of(s.document(), {
                    let doc = s.document();
                    let root = doc.root_element().unwrap();
                    let ship = doc.child_element_named(root, "shipTo").unwrap();
                    let zip = doc.child_element_named(ship, "zip").unwrap();
                    doc.child_vec(zip).unwrap()[0]
                }),
                text: "not-a-number".into(),
            },
        )
        .unwrap();
        assert_eq!(errors, validate_document(s.schema(), &clone));
        // rejected patch rolled back byte-identically
        let after = dom::serialize(s.document(), s.document().document_node()).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn attr_patch_round_trip() {
        let mut s = po_session();
        let root = s.document().root_element().unwrap();
        let at = path_of(s.document(), root);
        // undeclared attribute rejected, document untouched
        let before = dom::serialize(s.document(), s.document().document_node()).unwrap();
        let err = s
            .apply(&DomPatch::SetAttr {
                at: at.clone(),
                name: "bogus".into(),
                value: "x".into(),
            })
            .unwrap_err();
        assert!(matches!(err, PatchError::Invalid(_)));
        assert_eq!(
            before,
            dom::serialize(s.document(), s.document().document_node()).unwrap()
        );
        // declared attribute accepted
        s.apply(&DomPatch::SetAttr {
            at: at.clone(),
            name: "orderDate".into(),
            value: "2000-01-01".into(),
        })
        .unwrap();
        // removing an optional attribute is fine; removing a missing one
        // is a structure error
        s.apply(&DomPatch::RemoveAttr {
            at: at.clone(),
            name: "orderDate".into(),
        })
        .unwrap();
        let err = s
            .apply(&DomPatch::RemoveAttr {
                at,
                name: "orderDate".into(),
            })
            .unwrap_err();
        assert!(matches!(err, PatchError::Structure(_)));
    }

    #[test]
    fn append_item_is_o_of_one_and_occurrence_errors_match() {
        let mut s = po_session();
        let doc = s.document();
        let root = doc.root_element().unwrap();
        let items = doc.child_element_named(root, "items").unwrap();
        let at = path_of(doc, items);
        let item = NewNode::Element {
            xml: "<item partNum=\"123-AB\"><productName>P</productName>\
                  <quantity>1</quantity><USPrice>9.99</USPrice></item>"
                .to_string(),
        };
        let doc_size = s.node_count();
        s.apply(&DomPatch::AppendChild {
            at: at.clone(),
            child: item.clone(),
        })
        .unwrap();
        // rechecked the appended subtree only, not the document
        assert!(
            s.nodes_rechecked() < doc_size / 2,
            "{}",
            s.nodes_rechecked()
        );

        // a bad item (facet violation inside the subtree) rejects with
        // exactly the full-pass errors
        let bad = NewNode::Element {
            xml: "<item partNum=\"no\"><productName>P</productName>\
                  <quantity>500</quantity><USPrice>9.99</USPrice></item>"
                .to_string(),
        };
        let err = s
            .apply(&DomPatch::AppendChild {
                at: at.clone(),
                child: bad.clone(),
            })
            .unwrap_err();
        let errors = match err {
            PatchError::Invalid(e) => e,
            other => panic!("{other:?}"),
        };
        let mut clone = s.document().clone();
        apply_unchecked(&mut clone, &DomPatch::AppendChild { at, child: bad }).unwrap();
        assert_eq!(errors, validate_document(s.schema(), &clone));
    }

    #[test]
    fn remove_required_child_rejected_and_rolled_back() {
        let mut s = po_session();
        let doc = s.document();
        let root = doc.root_element().unwrap();
        let at = path_of(doc, root);
        let bill_idx = doc
            .child_slice(root)
            .unwrap()
            .iter()
            .position(|&c| doc.tag_name(c).map(|n| n == "billTo").unwrap_or(false))
            .unwrap();
        let before = dom::serialize(doc, doc.document_node()).unwrap();
        let err = s
            .apply(&DomPatch::RemoveChild {
                at: at.clone(),
                index: bill_idx,
            })
            .unwrap_err();
        let errors = match err {
            PatchError::Invalid(e) => e,
            other => panic!("{other:?}"),
        };
        let mut clone = s.document().clone();
        apply_unchecked(
            &mut clone,
            &DomPatch::RemoveChild {
                at,
                index: bill_idx,
            },
        )
        .unwrap();
        assert_eq!(errors, validate_document(s.schema(), &clone));
        assert_eq!(
            before,
            dom::serialize(s.document(), s.document().document_node()).unwrap()
        );
    }

    #[test]
    fn optional_prefix_insert_resyncs() {
        // Remove the optional <comment>, then insert a fresh one just
        // before <items>: both walks resume mid-list, the second one
        // after an optional-particle prefix. A *second* comment must
        // then be rejected (maxOccurs 1), exactly as a full pass would.
        let mut s = po_session();
        let doc = s.document();
        let root = doc.root_element().unwrap();
        let at = path_of(doc, root);
        let comment_idx = doc
            .child_slice(root)
            .unwrap()
            .iter()
            .position(|&c| doc.tag_name(c).map(|n| n == "comment").unwrap_or(false))
            .unwrap();
        s.apply(&DomPatch::RemoveChild {
            at: at.clone(),
            index: comment_idx,
        })
        .unwrap();
        assert!(validate_document(s.schema(), s.document()).is_empty());
        let doc = s.document();
        let items_idx = doc
            .child_slice(root)
            .unwrap()
            .iter()
            .position(|&c| doc.tag_name(c).map(|n| n == "items").unwrap_or(false))
            .unwrap();
        let comment = NewNode::Element {
            xml: "<comment>rush order</comment>".into(),
        };
        s.apply(&DomPatch::InsertChild {
            at: at.clone(),
            index: items_idx,
            child: comment.clone(),
        })
        .unwrap();
        assert!(validate_document(s.schema(), s.document()).is_empty());
        // occurrence overflow at the DFA boundary
        let err = s
            .apply(&DomPatch::InsertChild {
                at,
                index: items_idx,
                child: comment,
            })
            .unwrap_err();
        assert!(matches!(err, PatchError::Invalid(_)));
        assert!(validate_document(s.schema(), s.document()).is_empty());
    }

    #[test]
    fn mixed_content_patches() {
        let compiled = CompiledSchema::parse(WML_XSD).unwrap();
        let doc = xmlparse::parse_document(
            "<wml><card id=\"c\"><p>hello <b>bold</b> world</p></card></wml>",
        )
        .unwrap();
        let mut s = IncrementalValidator::new(compiled, doc, Limits::default()).unwrap();
        // text inside mixed content: fine
        let p_path = vec![0, 0, 0];
        s.apply(&DomPatch::AppendChild {
            at: p_path.clone(),
            child: NewNode::Text("!".into()),
        })
        .unwrap();
        // an element the choice group does not admit: rejected
        let err = s
            .apply(&DomPatch::AppendChild {
                at: p_path,
                child: NewNode::Element {
                    xml: "<card/>".into(),
                },
            })
            .unwrap_err();
        assert!(matches!(err, PatchError::Invalid(_)));
    }

    #[test]
    fn root_replacement_and_removal() {
        let mut s = po_session();
        let err = s
            .apply(&DomPatch::RemoveChild {
                at: vec![],
                index: 0,
            })
            .unwrap_err();
        match err {
            PatchError::Invalid(errors) => {
                assert!(matches!(errors[0].kind, ValidationErrorKind::NoRootElement));
                assert_eq!(errors[0].span, None);
            }
            other => panic!("{other:?}"),
        }
        // still intact
        assert!(validate_document(s.schema(), s.document()).is_empty());
        // replacing with an undeclared root rejects
        let err = s
            .apply(&DomPatch::ReplaceChild {
                at: vec![],
                index: 0,
                child: NewNode::Element {
                    xml: "<unknownRoot/>".into(),
                },
            })
            .unwrap_err();
        match err {
            PatchError::Invalid(errors) => {
                assert!(matches!(
                    errors[0].kind,
                    ValidationErrorKind::UndeclaredRoot(_)
                ));
            }
            other => panic!("{other:?}"),
        }
        // comments at document level are unconstrained
        s.apply(&DomPatch::AppendChild {
            at: vec![],
            child: NewNode::Comment(" trailer ".into()),
        })
        .unwrap();
    }

    #[test]
    fn resource_governance() {
        let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
        let doc = xmlparse::parse_document(PURCHASE_ORDER_XML).unwrap();
        let limits = Limits::default()
            .with_max_patch_bytes(16)
            .with_max_patches(2);
        let mut s = IncrementalValidator::new(compiled, doc, limits).unwrap();
        let root = s.document().root_element().unwrap();
        let ship = s.document().child_element_named(root, "shipTo").unwrap();
        let zip = s.document().child_element_named(ship, "zip").unwrap();
        let text = s.document().child_vec(zip).unwrap()[0];
        let at = path_of(s.document(), text);
        // oversized payload
        let err = s
            .apply(&DomPatch::SetText {
                at: at.clone(),
                text: "9".repeat(64),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            PatchError::Resource(ResourceErrorKind::PatchTooLarge { .. })
        ));
        // patch-count budget: attempt #2 fits, #3 trips
        s.apply(&DomPatch::SetText {
            at: at.clone(),
            text: "12345".into(),
        })
        .unwrap();
        let err = s
            .apply(&DomPatch::SetText {
                at,
                text: "54321".into(),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            PatchError::Resource(ResourceErrorKind::TooManyPatches { limit: 2 })
        ));
        assert_eq!(s.applied_total(), 1);
        assert_eq!(s.rejected_total(), 2);
    }

    #[test]
    fn malformed_fragment_is_fragment_error() {
        let mut s = po_session();
        let root = s.document().root_element().unwrap();
        let items = s.document().child_element_named(root, "items").unwrap();
        let at = path_of(s.document(), items);
        let err = s
            .apply(&DomPatch::AppendChild {
                at,
                child: NewNode::Element {
                    xml: "<item".into(),
                },
            })
            .unwrap_err();
        assert!(matches!(err, PatchError::Fragment(_)));
    }
}
