//! Template compilation: lowering a checked template into a
//! [`CompiledTemplate`] — a flat program of precomputed static byte
//! segments interleaved with typed hole slots.
//!
//! This realizes the promise of the paper's Fig. 9 pipeline (and of the
//! Haberland unification result in PAPERS.md): a template that passed
//! [`crate::check_template`] needs **no structural revalidation** at
//! instantiation time. Everything the static checker proved — element
//! order, attribute presence, literal values, text placement — is baked
//! into the plan as pre-escaped bytes. [`CompiledTemplate::render`] is
//! memcpy-plus-escaped-hole-fills: no DOM is built, no `seal()` runs,
//! and the only checks left are the paper's *runtime residue*:
//!
//! * facet validation of text spliced into simple-typed content and
//!   attribute values (plus `fixed` equality),
//! * fragment residue on element splices: the child must be declared in
//!   the parent's type, must step the parent's content-model DFA
//!   (occurrence counts for repeated/optional splices — resumed at the
//!   hole's precomputed entry state, no tree required), and must carry
//!   exactly the declared type,
//! * content-model completeness at each dynamic element's close.
//!
//! The lowering reads the same element plans (`schema::ElemPlan`) the
//! checker and the validators read: each element's attributes with their
//! resolved value checks, and its content regime. An element hole keeps
//! its parent type's symbol, so a splice looks its child's plan up and
//! steps the parent's DFA by the child's symbol, with no name resolved
//! against the schema per render.
//!
//! The interpreter in [`crate::instantiate`](mod@crate::instantiate) is
//! kept as the differential oracle: for every binding set, `render` produces the
//! same bytes as `instantiate(..)` + [`Fragment::to_xml`] — or the same
//! typed error when exactly one fault is present (the two engines
//! discover multiple faults in different orders: the interpreter
//! validates bottom-up at `seal`, the plan in document order).
//!
//! One documented divergence: splicing a fragment whose type differs
//! from the declared child type is a typed `Binding` error here, while
//! the interpreter deep-revalidates the fragment against the declared
//! type. The compiled path trusts sealed fragments instead of
//! re-walking them — that trust is only sound for the exact type they
//! were sealed under.

use std::borrow::Cow;
use std::sync::Arc;

use automata::{ContentDfa, DfaMatcher, Matcher};
use dom::{Document, NodeId, NodeKind};
use schema::{check_value, AttrPlan, CompiledSchema, ContentPlan, ElemPlan, SimpleCheck, TypeRef};
use symbols::Sym;
use vdom::VdomError;
use xmlchars::{escape_attribute, escape_text, is_xml_whitespace};

use crate::check::{check_template, check_template_as, root_plan};
use crate::error::PxmlError;
use crate::holes::{split_holes_ref, PartRef};
use crate::instantiate::{unbound, Bindings, Fragment, InstantiateError, RenderedFragment, Value};
use crate::template::{Template, TypeEnv};

/// One literal-or-hole piece of an attribute value or simple-content
/// body, with `$$` escapes already resolved.
#[derive(Debug, Clone)]
enum TextPart {
    /// Literal text, spliced raw into the value then escaped once.
    Lit(String),
    /// A `$name$` hole filled from the bindings.
    Hole(String),
}

/// One instruction of a compiled template.
#[derive(Debug, Clone)]
enum Op {
    /// Pre-escaped bytes copied verbatim.
    Static(Vec<u8>),
    /// Assemble, residue-check, escape and emit one attribute value
    /// (the surrounding ` name="` / `"` bytes are static).
    Attr {
        element: String,
        attribute: String,
        parts: Vec<TextPart>,
        /// The attribute's simple type, resolved when the plan was built.
        check: SimpleCheck,
        fixed: Option<String>,
    },
    /// Start content matching at the hole region's precomputed entry
    /// state (the static prefix was verified at plan time).
    PushMatcher { dfa: Arc<ContentDfa>, entry: usize },
    /// Step the innermost matcher over a static child that follows a
    /// hole (its position depends on how many fragments were spliced).
    StepStatic {
        sym: Sym,
        name: String,
        element: String,
    },
    /// Fill one content hole from the bindings (escaped text or
    /// fragment splices, dispatched on the bound value's kind).
    Hole {
        name: String,
        element: String,
        /// The parent's complex type, the key of its child plans.
        type_sym: Sym,
        mixed: bool,
    },
    /// Assemble simple-typed content from parts, validate the value,
    /// escape and emit it.
    SimpleBody {
        element: String,
        parts: Vec<TextPart>,
        /// The content's simple type, resolved when the plan was built.
        simple: SimpleCheck,
    },
    /// Pop the innermost matcher and require an accepting state.
    CloseContent { element: String },
    /// Open a dynamic-shape element: remember the buffer position so an
    /// empty splice collapses `<tag>` to `<tag/>`.
    Open,
    /// Close a dynamic-shape element (`</tag>` or collapse to `/>`).
    CloseShape { tag: String },
}

/// A checked template lowered to static bytes plus typed hole slots.
///
/// Cheap to clone is not a goal — compile once (see
/// `webgen::SchemaRegistry`), render per request.
#[derive(Debug)]
pub struct CompiledTemplate {
    compiled: CompiledSchema,
    root_tag: String,
    type_ref: TypeRef,
    ops: Vec<Op>,
    static_len: u64,
    hole_count: usize,
}

/// Checks `template` and lowers it, inferring the root's type from its
/// tag. Refuses (with the checker's diagnostics) unless the check is
/// clean — compilation is only sound for fully checked templates.
pub fn plan(
    compiled: &CompiledSchema,
    template: &Template,
    env: &TypeEnv,
) -> Result<CompiledTemplate, Vec<PxmlError>> {
    let errors = check_template(compiled, template, env);
    if !errors.is_empty() {
        return Err(errors);
    }
    let root = root_plan(compiled, template).expect("check passed, so the root element resolves");
    lower(compiled, template, &root)
}

/// Checks `template` against an explicit root type and lowers it.
pub fn plan_as(
    compiled: &CompiledSchema,
    template: &Template,
    env: &TypeEnv,
    root_type: &TypeRef,
) -> Result<CompiledTemplate, Vec<PxmlError>> {
    let errors = check_template_as(compiled, template, env, root_type);
    if !errors.is_empty() {
        return Err(errors);
    }
    lower(compiled, template, &compiled.elem_plan(root_type))
}

fn lower(
    compiled: &CompiledSchema,
    template: &Template,
    root: &ElemPlan,
) -> Result<CompiledTemplate, Vec<PxmlError>> {
    let _span = obs::span!("pxml.plan");
    let mut lowerer = Lowerer {
        compiled,
        template,
        ops: Vec::new(),
        holes: 0,
    };
    lowerer.lower_element(template.root, root);
    let static_len = lowerer
        .ops
        .iter()
        .map(|op| match op {
            Op::Static(b) => b.len() as u64,
            _ => 0,
        })
        .sum();
    if obs::enabled() {
        obs::metrics()
            .counter(
                "pxml_templates_planned_total",
                "Checked templates lowered into compiled plans.",
            )
            .inc();
    }
    Ok(CompiledTemplate {
        compiled: compiled.clone(),
        root_tag: template.root_tag().to_string(),
        type_ref: root.type_ref.clone(),
        ops: lowerer.ops,
        static_len,
        hole_count: lowerer.holes,
    })
}

/// One content item of a complex element, after hole-splitting and
/// whitespace filtering.
enum Item {
    /// A static child element.
    Elem(NodeId, String),
    /// Non-whitespace literal text (mixed content only, post-check).
    Lit(String),
    /// A `$name$` content hole.
    Hole(String),
}

struct Lowerer<'a> {
    compiled: &'a CompiledSchema,
    template: &'a Template,
    ops: Vec<Op>,
    holes: usize,
}

impl<'a> Lowerer<'a> {
    /// Appends static bytes, merging with a trailing static segment.
    fn emit(&mut self, bytes: &[u8]) {
        if let Some(Op::Static(last)) = self.ops.last_mut() {
            last.extend_from_slice(bytes);
        } else {
            self.ops.push(Op::Static(bytes.to_vec()));
        }
    }

    /// The symbol and plan of the static child `name` under complex type
    /// `type_sym`.
    fn child_plan(&self, type_sym: Sym, name: &str) -> (Sym, &'a Arc<ElemPlan>) {
        self.compiled
            .sym_index()
            .child_named(type_sym, name)
            .expect("check passed, so every static child is declared")
    }

    fn lower_element(&mut self, node: NodeId, plan: &ElemPlan) {
        let doc = &self.template.doc;
        let tag = doc.tag_name(node).unwrap_or_default().to_string();
        self.emit(b"<");
        self.emit(tag.as_bytes());
        self.lower_attributes(node, &tag, &plan.attrs);
        match &plan.content {
            ContentPlan::Complex {
                type_sym,
                dfa,
                mixed,
            } => self.lower_complex(node, &tag, *type_sym, dfa, *mixed),
            ContentPlan::Simple(check) => self.lower_simple(node, &tag, check),
        }
    }

    fn lower_attributes(&mut self, node: NodeId, tag: &str, declared: &[AttrPlan]) {
        let doc = &self.template.doc;
        for attr in doc.attributes(node).unwrap_or(&[]) {
            if &*attr.name == "xmlns" || attr.name.starts_with("xmlns:") {
                continue;
            }
            let AttrPlan { decl, check } = declared
                .iter()
                .find(|a| *a.decl.name == *attr.name)
                .expect("check passed, so every template attribute is declared");
            let parts: Vec<TextPart> = split_holes_ref(&attr.value)
                .expect("check passed, so hole syntax is valid")
                .into_iter()
                .map(|p| match p {
                    PartRef::Text(t) => TextPart::Lit(t.into_owned()),
                    PartRef::Hole(n) => TextPart::Hole(n.to_string()),
                })
                .collect();
            let has_hole = parts.iter().any(|p| matches!(p, TextPart::Hole(_)));
            self.emit(b" ");
            self.emit(attr.name.as_bytes());
            self.emit(b"=\"");
            if has_hole {
                self.holes += parts
                    .iter()
                    .filter(|p| matches!(p, TextPart::Hole(_)))
                    .count();
                self.ops.push(Op::Attr {
                    element: tag.to_string(),
                    attribute: attr.name.to_string(),
                    parts,
                    check: check.clone(),
                    fixed: decl.fixed.clone(),
                });
            } else {
                // The runtime value is the concatenation of the parts
                // ($$ unescaped) — validate *that*, not the raw source:
                // if it fails, keep the value as a runtime op so render
                // rejects exactly like the interpreter's set_attribute.
                let value: String = parts
                    .iter()
                    .map(|p| match p {
                        TextPart::Lit(t) => t.as_str(),
                        TextPart::Hole(_) => unreachable!(),
                    })
                    .collect();
                let valid = check_value(check, &value).is_ok()
                    && decl.fixed.as_ref().is_none_or(|f| f == &value);
                if valid {
                    self.emit(escape_attribute(&value).as_bytes());
                } else {
                    self.ops.push(Op::Attr {
                        element: tag.to_string(),
                        attribute: attr.name.to_string(),
                        parts: vec![TextPart::Lit(value)],
                        check: check.clone(),
                        fixed: decl.fixed.clone(),
                    });
                }
            }
            self.emit(b"\"");
        }
    }

    /// Splits the content of `node` into plan items, dropping template
    /// formatting (runs of XML whitespace only; a Unicode space such as
    /// U+00A0 is text), comments and PIs exactly like the interpreter
    /// does.
    fn content_items(&self, node: NodeId) -> Vec<Item> {
        let doc = &self.template.doc;
        let mut items = Vec::new();
        for &child in doc.child_slice(node).unwrap_or(&[]) {
            match doc.kind(child) {
                Ok(NodeKind::Element { name, .. }) => {
                    items.push(Item::Elem(child, name.to_string()));
                }
                Ok(NodeKind::Text(t)) => {
                    let parts = split_holes_ref(t).expect("check passed, so hole syntax is valid");
                    for part in parts {
                        match part {
                            PartRef::Text(text) => {
                                if !text.chars().all(is_xml_whitespace) {
                                    items.push(Item::Lit(text.into_owned()));
                                }
                            }
                            PartRef::Hole(name) => items.push(Item::Hole(name.to_string())),
                        }
                    }
                }
                _ => {}
            }
        }
        items
    }

    fn lower_complex(
        &mut self,
        node: NodeId,
        tag: &str,
        type_sym: Sym,
        dfa: &Arc<ContentDfa>,
        mixed: bool,
    ) {
        let items = self.content_items(node);
        let has_hole = items.iter().any(|i| matches!(i, Item::Hole(_)));
        let static_node = items
            .iter()
            .any(|i| matches!(i, Item::Elem(..) | Item::Lit(_)));

        if !has_hole {
            // fully static content: the checker proved the child
            // sequence complete, so no matcher survives to runtime
            if items.is_empty() {
                self.emit(b"/>");
                return;
            }
            self.emit(b">");
            for item in items {
                match item {
                    Item::Elem(child, name) => {
                        let (_, plan) = self.child_plan(type_sym, &name);
                        self.lower_element(child, plan);
                    }
                    Item::Lit(text) => self.emit(escape_text(&text).as_bytes()),
                    Item::Hole(_) => unreachable!(),
                }
            }
            self.emit(b"</");
            self.emit(tag.as_bytes());
            self.emit(b">");
            return;
        }

        // holed content: verify the static prefix now, snapshot the DFA
        // state at the first hole, and leave the suffix to render time
        let mut matcher = dfa.start();
        let mut entry = matcher.state();
        let mut seen_hole = false;
        // plan pass: step static children up to the first hole
        for item in &items {
            match item {
                Item::Hole(_) => {
                    if !seen_hole {
                        entry = matcher.state();
                        seen_hole = true;
                    }
                }
                Item::Elem(_, name) => {
                    if !seen_hole {
                        matcher
                            .step(name)
                            .expect("check passed, so the static prefix steps");
                    }
                }
                Item::Lit(_) => {}
            }
        }
        self.ops.push(Op::PushMatcher {
            dfa: dfa.clone(),
            entry,
        });
        if static_node {
            self.emit(b">");
        } else {
            self.ops.push(Op::Open);
        }
        let mut before_entry = true;
        for item in items {
            match item {
                Item::Elem(child, name) => {
                    let (sym, plan) = self.child_plan(type_sym, &name);
                    if !before_entry {
                        self.ops.push(Op::StepStatic {
                            sym,
                            name: name.clone(),
                            element: tag.to_string(),
                        });
                    }
                    self.lower_element(child, plan);
                }
                Item::Lit(text) => self.emit(escape_text(&text).as_bytes()),
                Item::Hole(name) => {
                    before_entry = false;
                    self.holes += 1;
                    self.ops.push(Op::Hole {
                        name,
                        element: tag.to_string(),
                        type_sym,
                        mixed,
                    });
                }
            }
        }
        self.ops.push(Op::CloseContent {
            element: tag.to_string(),
        });
        if static_node {
            self.emit(b"</");
            self.emit(tag.as_bytes());
            self.emit(b">");
        } else {
            self.ops.push(Op::CloseShape {
                tag: tag.to_string(),
            });
        }
    }

    fn lower_simple(&mut self, node: NodeId, tag: &str, check: &SimpleCheck) {
        let items = self.content_items(node);
        let mut parts = Vec::new();
        for item in items {
            match item {
                Item::Lit(text) => parts.push(TextPart::Lit(text)),
                Item::Hole(name) => parts.push(TextPart::Hole(name)),
                Item::Elem(..) => unreachable!("check passed, so simple content has no elements"),
            }
        }
        let has_hole = parts.iter().any(|p| matches!(p, TextPart::Hole(_)));
        let static_node = parts.iter().any(|p| matches!(p, TextPart::Lit(_)));

        if !has_hole {
            // The runtime value skips formatting whitespace; validate
            // that value (not the raw source) so a plan-time pass means
            // render can never reject, and a plan-time failure becomes
            // the interpreter's exact seal-time error at render.
            let value: String = parts
                .iter()
                .map(|p| match p {
                    TextPart::Lit(t) => t.as_str(),
                    TextPart::Hole(_) => unreachable!(),
                })
                .collect();
            if check_value(check, &value).is_ok() {
                if value.is_empty() {
                    self.emit(b"/>");
                } else {
                    self.emit(b">");
                    self.emit(escape_text(&value).as_bytes());
                    self.emit(b"</");
                    self.emit(tag.as_bytes());
                    self.emit(b">");
                }
            } else {
                self.emit(b">");
                self.ops.push(Op::SimpleBody {
                    element: tag.to_string(),
                    parts,
                    simple: check.clone(),
                });
                self.emit(b"</");
                self.emit(tag.as_bytes());
                self.emit(b">");
            }
            return;
        }

        self.holes += parts
            .iter()
            .filter(|p| matches!(p, TextPart::Hole(_)))
            .count();
        let body = Op::SimpleBody {
            element: tag.to_string(),
            parts,
            simple: check.clone(),
        };
        if static_node {
            self.emit(b">");
            self.ops.push(body);
            self.emit(b"</");
            self.emit(tag.as_bytes());
            self.emit(b">");
        } else {
            self.ops.push(Op::Open);
            self.ops.push(body);
            self.ops.push(Op::CloseShape {
                tag: tag.to_string(),
            });
        }
    }
}

impl CompiledTemplate {
    /// The template root's tag.
    pub fn root_tag(&self) -> &str {
        &self.root_tag
    }

    /// The template root's schema type.
    pub fn type_ref(&self) -> &TypeRef {
        &self.type_ref
    }

    /// Total bytes of precomputed static output.
    pub fn static_len(&self) -> u64 {
        self.static_len
    }

    /// Number of hole slots in the plan.
    pub fn hole_count(&self) -> usize {
        self.hole_count
    }

    /// Renders one page into `out`. On error, `out` is restored to its
    /// original length.
    ///
    /// Only the runtime residue can reject: facets on spliced text and
    /// attribute values, fragment declaration/ordering/type checks, and
    /// content-model completeness where fragments were spliced.
    pub fn render(&self, bindings: &Bindings, out: &mut Vec<u8>) -> Result<(), InstantiateError> {
        let span = obs::span!("pxml.render");
        let start = out.len();
        let result = self.render_inner(bindings, out);
        if result.is_err() {
            out.truncate(start);
        }
        span.finish();
        if obs::enabled() {
            let metrics = obs::metrics();
            metrics
                .counter("pxml_render_total", "Compiled template renders.")
                .inc();
            match &result {
                Ok(()) => metrics
                    .counter(
                        "pxml_static_bytes_total",
                        "Bytes emitted from precomputed static template segments.",
                    )
                    .inc_by(self.static_len),
                Err(_) => metrics
                    .counter(
                        "pxml_render_rejects_total",
                        "Compiled renders rejected by the runtime residue checks.",
                    )
                    .inc(),
            }
        }
        result
    }

    /// Renders one page into a fresh `String`.
    pub fn render_to_string(&self, bindings: &Bindings) -> Result<String, InstantiateError> {
        let mut out = Vec::with_capacity(self.static_len as usize + 64);
        self.render(bindings, &mut out)?;
        Ok(String::from_utf8(out).expect("render emits UTF-8"))
    }

    /// Renders into a splice-ready [`RenderedFragment`], so one compiled
    /// template's output can fill an element hole of another (the
    /// orders pipeline renders `<item>`s this way).
    pub fn render_fragment(
        &self,
        bindings: &Bindings,
    ) -> Result<RenderedFragment, InstantiateError> {
        Ok(RenderedFragment {
            tag: self.root_tag.clone(),
            type_ref: self.type_ref.clone(),
            xml: self.render_to_string(bindings)?,
        })
    }

    fn render_inner(&self, bindings: &Bindings, out: &mut Vec<u8>) -> Result<(), InstantiateError> {
        let mut matchers: Vec<DfaMatcher> = Vec::new();
        let mut marks: Vec<(usize, u64)> = Vec::new();
        let mut nodes: u64 = 0;
        for op in &self.ops {
            match op {
                Op::Static(bytes) => out.extend_from_slice(bytes),
                Op::Attr {
                    element,
                    attribute,
                    parts,
                    check,
                    fixed,
                } => {
                    // single-part values (the common case) borrow the
                    // binding; only multi-part values concatenate
                    let raw: Cow<'_, str> = match parts.as_slice() {
                        [TextPart::Lit(t)] => Cow::Borrowed(t.as_str()),
                        [TextPart::Hole(name)] => match bindings.get(name) {
                            Some(Value::Text(t)) => Cow::Borrowed(t.as_str()),
                            Some(_) => {
                                return Err(InstantiateError::Binding(format!(
                                    "element variable ${name}$ used in attribute {attribute}"
                                )))
                            }
                            None => return Err(unbound(name)),
                        },
                        parts => {
                            let mut raw = String::new();
                            for part in parts {
                                match part {
                                    TextPart::Lit(t) => raw.push_str(t),
                                    TextPart::Hole(name) => match bindings.get(name) {
                                        Some(Value::Text(t)) => raw.push_str(t),
                                        Some(_) => {
                                            return Err(InstantiateError::Binding(format!(
                                                "element variable ${name}$ used in attribute {attribute}"
                                            )))
                                        }
                                        None => return Err(unbound(name)),
                                    },
                                }
                            }
                            Cow::Owned(raw)
                        }
                    };
                    check_value(check, &raw).map_err(|error| VdomError::Simple {
                        element: element.clone(),
                        attribute: Some(attribute.clone()),
                        error,
                    })?;
                    if let Some(fixed) = fixed {
                        if raw.as_ref() != fixed {
                            return Err(VdomError::FixedMismatch {
                                element: element.clone(),
                                attribute: attribute.clone(),
                                fixed: fixed.clone(),
                            }
                            .into());
                        }
                    }
                    out.extend_from_slice(escape_attribute(&raw).as_bytes());
                }
                Op::PushMatcher { dfa, entry } => matchers.push(dfa.resume(*entry)),
                Op::Open => {
                    marks.push((out.len(), nodes));
                    out.push(b'>');
                }
                Op::CloseShape { tag } => {
                    let (mark, n) = marks.pop().expect("balanced shape ops");
                    if nodes == n {
                        // zero nodes spliced: nothing was emitted since
                        // the mark, so collapse to the empty-tag form
                        out.truncate(mark);
                        out.extend_from_slice(b"/>");
                    } else {
                        out.extend_from_slice(b"</");
                        out.extend_from_slice(tag.as_bytes());
                        out.push(b'>');
                    }
                }
                Op::StepStatic { sym, name, element } => {
                    let m = matchers.last_mut().expect("static step under a matcher");
                    if !m.try_step_sym(*sym) {
                        let step = m
                            .step(name)
                            .expect_err("sym and name transition tables agree");
                        return Err(VdomError::ContentModel {
                            parent: element.clone(),
                            step,
                        }
                        .into());
                    }
                    nodes += 1;
                }
                Op::Hole {
                    name,
                    element,
                    type_sym,
                    mixed,
                } => {
                    let value = bindings.get(name).ok_or_else(|| unbound(name))?;
                    self.splice(
                        value,
                        name,
                        element,
                        *type_sym,
                        *mixed,
                        &mut matchers,
                        &mut nodes,
                        out,
                    )?;
                }
                Op::SimpleBody {
                    element,
                    parts,
                    simple,
                } => {
                    // single-part bodies (the common case) borrow the
                    // binding; only multi-part bodies concatenate
                    let raw: Cow<'_, str> = match parts.as_slice() {
                        [TextPart::Lit(t)] => Cow::Borrowed(t.as_str()),
                        [TextPart::Hole(name)] => {
                            let value = bindings.get(name).ok_or_else(|| unbound(name))?;
                            match value {
                                Value::Text(t) => Cow::Borrowed(t.as_str()),
                                Value::Fragment(f) => {
                                    return Err(no_elements_here(element, &f.tag))
                                }
                                Value::Rendered(r) => {
                                    return Err(no_elements_here(element, &r.tag))
                                }
                                Value::FragmentList(fs) => {
                                    if let Some(f) = fs.first() {
                                        return Err(no_elements_here(element, &f.tag));
                                    }
                                    Cow::Borrowed("")
                                }
                                Value::RenderedList(rs) => {
                                    if let Some(r) = rs.first() {
                                        return Err(no_elements_here(element, &r.tag));
                                    }
                                    Cow::Borrowed("")
                                }
                            }
                        }
                        parts => {
                            let mut raw = String::new();
                            for part in parts {
                                match part {
                                    TextPart::Lit(t) => raw.push_str(t),
                                    TextPart::Hole(name) => {
                                        let value =
                                            bindings.get(name).ok_or_else(|| unbound(name))?;
                                        match value {
                                            Value::Text(t) => raw.push_str(t),
                                            Value::Fragment(f) => {
                                                return Err(no_elements_here(element, &f.tag))
                                            }
                                            Value::Rendered(r) => {
                                                return Err(no_elements_here(element, &r.tag))
                                            }
                                            Value::FragmentList(fs) => {
                                                if let Some(f) = fs.first() {
                                                    return Err(no_elements_here(element, &f.tag));
                                                }
                                            }
                                            Value::RenderedList(rs) => {
                                                if let Some(r) = rs.first() {
                                                    return Err(no_elements_here(element, &r.tag));
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                            Cow::Owned(raw)
                        }
                    };
                    check_value(simple, &raw).map_err(|error| VdomError::Simple {
                        element: element.clone(),
                        attribute: None,
                        error,
                    })?;
                    // empty text makes no node in the typed layer, so it
                    // must not force a full close tag here either
                    if !raw.is_empty() {
                        nodes += 1;
                        out.extend_from_slice(escape_text(&raw).as_bytes());
                    }
                }
                Op::CloseContent { element } => {
                    let m = matchers.pop().expect("balanced matcher ops");
                    if !m.is_accepting() {
                        return Err(VdomError::Incomplete {
                            element: element.clone(),
                            expected: m.expected(),
                        }
                        .into());
                    }
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn splice(
        &self,
        value: &Value,
        name: &str,
        element: &str,
        type_sym: Sym,
        mixed: bool,
        matchers: &mut [DfaMatcher],
        nodes: &mut u64,
        out: &mut Vec<u8>,
    ) -> Result<(), InstantiateError> {
        match value {
            Value::Text(t) => {
                if !mixed {
                    return Err(VdomError::TextNotAllowed {
                        element: element.to_string(),
                    }
                    .into());
                }
                // empty text makes no node in the typed layer
                if !t.is_empty() {
                    out.extend_from_slice(escape_text(t).as_bytes());
                    *nodes += 1;
                }
            }
            Value::Fragment(f) => {
                self.splice_fragment(f, name, element, type_sym, matchers, nodes, out)?
            }
            Value::FragmentList(fs) => {
                for f in fs {
                    self.splice_fragment(f, name, element, type_sym, matchers, nodes, out)?;
                }
            }
            Value::Rendered(r) => {
                self.check_splice(&r.tag, &r.type_ref, name, element, type_sym, matchers)?;
                out.extend_from_slice(r.xml.as_bytes());
                *nodes += 1;
            }
            Value::RenderedList(rs) => {
                for r in rs {
                    self.check_splice(&r.tag, &r.type_ref, name, element, type_sym, matchers)?;
                    out.extend_from_slice(r.xml.as_bytes());
                    *nodes += 1;
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn splice_fragment(
        &self,
        f: &Fragment,
        name: &str,
        element: &str,
        type_sym: Sym,
        matchers: &mut [DfaMatcher],
        nodes: &mut u64,
        out: &mut Vec<u8>,
    ) -> Result<(), InstantiateError> {
        self.check_splice(&f.tag, &f.type_ref, name, element, type_sym, matchers)?;
        write_filtered(&f.doc, f.root, out).map_err(|e| VdomError::Dom(e.to_string()))?;
        *nodes += 1;
        Ok(())
    }

    /// The fragment residue: declared child, concrete type, content-model
    /// step, declared type. Mirrors the typed `append_element` check
    /// order (lookup, then abstract, then step), with the type-equality
    /// residue last.
    fn check_splice(
        &self,
        tag: &str,
        frag_type: &TypeRef,
        name: &str,
        element: &str,
        type_sym: Sym,
        matchers: &mut [DfaMatcher],
    ) -> Result<(), InstantiateError> {
        let (sym, child) = self
            .compiled
            .sym_index()
            .child_named(type_sym, tag)
            .ok_or_else(|| VdomError::UnknownChild {
                parent: element.to_string(),
                child: tag.to_string(),
            })?;
        if child.abstract_type.is_some() {
            return Err(VdomError::Abstract(tag.to_string()).into());
        }
        let m = matchers.last_mut().expect("hole under a matcher");
        if !m.try_step_sym(sym) {
            let step = m
                .step(tag)
                .expect_err("sym and name transition tables agree");
            return Err(VdomError::ContentModel {
                parent: element.to_string(),
                step,
            }
            .into());
        }
        let child_type = &child.type_ref;
        if frag_type != child_type {
            return Err(InstantiateError::Binding(format!(
                "fragment for ${name}$ has type {frag_type:?} \
                 but <{tag}> in <{element}> is declared as {child_type:?}"
            )));
        }
        Ok(())
    }
}

/// The error the typed layer raises when an element is spliced into
/// simple-typed content: the child lookup fails (no element particles
/// exist), so `append_element` reports it as an unknown child.
fn no_elements_here(element: &str, tag: &str) -> InstantiateError {
    VdomError::UnknownChild {
        parent: element.to_string(),
        child: tag.to_string(),
    }
    .into()
}

/// Serializes a subtree with the same filtering the typed import
/// applies — xmlns attributes skipped, whitespace-only text dropped,
/// comments and PIs dropped — so splicing these bytes is byte-identical
/// to replaying the subtree through `import_element` and serializing.
pub(crate) fn write_filtered(
    doc: &Document,
    node: NodeId,
    out: &mut Vec<u8>,
) -> Result<(), dom::DomError> {
    let tag = doc.tag_name(node)?;
    out.push(b'<');
    out.extend_from_slice(tag.as_bytes());
    for attr in doc.attributes(node)? {
        if &*attr.name == "xmlns" || attr.name.starts_with("xmlns:") {
            continue;
        }
        out.push(b' ');
        out.extend_from_slice(attr.name.as_bytes());
        out.extend_from_slice(b"=\"");
        out.extend_from_slice(escape_attribute(&attr.value).as_bytes());
        out.push(b'"');
    }
    let mark = out.len();
    out.push(b'>');
    let mut wrote_child = false;
    for &child in doc.child_slice(node)? {
        match doc.kind(child)? {
            NodeKind::Element { .. } => {
                write_filtered(doc, child, out)?;
                wrote_child = true;
            }
            NodeKind::Text(t) => {
                // sealed fragments carry no formatting whitespace (the
                // typed layer refuses text in element-only content), so
                // every non-empty text node is significant
                if t.is_empty() {
                    continue;
                }
                out.extend_from_slice(escape_text(t).as_bytes());
                wrote_child = true;
            }
            _ => {}
        }
    }
    if wrote_child {
        out.extend_from_slice(b"</");
        out.extend_from_slice(tag.as_bytes());
        out.push(b'>');
    } else {
        out.truncate(mark);
        out.extend_from_slice(b"/>");
    }
    Ok(())
}
