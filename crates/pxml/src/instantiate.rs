//! Runtime instantiation of checked templates.
//!
//! A template that passed [`crate::check_template`] can be instantiated
//! with runtime bindings; instantiation replays the template through the
//! typed V-DOM API, so even unchecked templates cannot produce invalid
//! structure — but for checked templates the only checks that can still
//! fire are value-level ones on spliced runtime data (the paper's
//! runtime-residue: facets and occurrence counts).
//!
//! This interpreter is also the differential oracle for the compiled
//! path in [`crate::plan`](mod@crate::plan): `CompiledTemplate::render` must produce the
//! same bytes (or the same typed rejection) as `instantiate` followed by
//! [`Fragment::to_xml`].

use std::collections::BTreeMap;

use dom::{Document, NodeId, NodeKind};
use schema::{CompiledSchema, TypeRef};
use vdom::{TypedDocument, TypedElement, VdomError};
use xmlchars::is_xml_whitespace;

use crate::holes::{split_holes_ref, PartRef};
use crate::template::{resolve_element_type, Template};

/// A validated, sealed document fragment — the runtime value of a V-DOM
/// element variable.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The fragment's root tag.
    pub tag: String,
    /// The root's schema type.
    pub type_ref: TypeRef,
    /// The sealed (valid) document holding the fragment.
    pub doc: Document,
    /// The fragment root inside `doc`.
    pub root: NodeId,
}

impl Fragment {
    /// Serializes the fragment compactly.
    pub fn to_xml(&self) -> Result<String, dom::DomError> {
        dom::serialize(&self.doc, self.root)
    }

    /// Serializes the fragment once into splice-ready bytes, applying
    /// the same filtering the typed import applies (xmlns attributes
    /// dropped, compact empty-element form), so a compiled template
    /// splices the result byte-identically to splicing the fragment
    /// itself — without re-walking the tree per render.
    pub fn to_rendered(&self) -> Result<RenderedFragment, dom::DomError> {
        let mut out = Vec::new();
        crate::plan::write_filtered(&self.doc, self.root, &mut out)?;
        Ok(RenderedFragment {
            tag: self.tag.clone(),
            type_ref: self.type_ref.clone(),
            xml: String::from_utf8(out).expect("serializer emits UTF-8"),
        })
    }
}

/// A pre-serialized fragment: the output of [`Fragment::to_rendered`].
///
/// Compiled templates splice its bytes verbatim after the structural
/// residue checks (declared child type, content-model step); the
/// interpreter oracle re-parses the bytes through the typed import.
#[derive(Debug, Clone)]
pub struct RenderedFragment {
    /// The fragment's root tag.
    pub tag: String,
    /// The root's schema type.
    pub type_ref: TypeRef,
    /// Compact, import-filtered serialization of the fragment.
    pub xml: String,
}

/// A runtime binding value.
#[derive(Debug, Clone)]
pub enum Value {
    /// A string spliced as character data or into attribute values.
    Text(String),
    /// An element fragment spliced as a child element.
    Fragment(Fragment),
    /// Zero or more fragments spliced in order — the natural value for
    /// a repeated (`maxOccurs > 1`) or optional hole.
    FragmentList(Vec<Fragment>),
    /// A pre-serialized fragment spliced as a child element.
    Rendered(RenderedFragment),
    /// Zero or more pre-serialized fragments spliced in order.
    RenderedList(Vec<RenderedFragment>),
}

/// Runtime bindings: variable name → value.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    values: BTreeMap<String, Value>,
}

impl Bindings {
    /// An empty set of bindings.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Binds a text value.
    pub fn text(mut self, name: impl Into<String>, value: impl Into<String>) -> Bindings {
        self.values.insert(name.into(), Value::Text(value.into()));
        self
    }

    /// Binds an element fragment.
    pub fn fragment(mut self, name: impl Into<String>, fragment: Fragment) -> Bindings {
        self.values.insert(name.into(), Value::Fragment(fragment));
        self
    }

    /// Binds a list of element fragments (possibly empty).
    pub fn fragment_list(mut self, name: impl Into<String>, fragments: Vec<Fragment>) -> Bindings {
        self.values
            .insert(name.into(), Value::FragmentList(fragments));
        self
    }

    /// Binds a pre-serialized fragment.
    pub fn rendered(mut self, name: impl Into<String>, fragment: RenderedFragment) -> Bindings {
        self.values.insert(name.into(), Value::Rendered(fragment));
        self
    }

    /// Binds a list of pre-serialized fragments (possibly empty).
    pub fn rendered_list(
        mut self,
        name: impl Into<String>,
        fragments: Vec<RenderedFragment>,
    ) -> Bindings {
        self.values
            .insert(name.into(), Value::RenderedList(fragments));
        self
    }

    /// Sets a text value in place — the hot-loop form of
    /// [`text`](Self::text): when the name is already bound, only the
    /// value is replaced (no key re-allocation, no tree rebalancing).
    pub fn set_text(&mut self, name: &str, value: impl Into<String>) {
        match self.values.get_mut(name) {
            Some(slot) => *slot = Value::Text(value.into()),
            None => {
                self.values
                    .insert(name.to_string(), Value::Text(value.into()));
            }
        }
    }

    /// Sets a pre-serialized fragment list in place — the hot-loop form
    /// of [`rendered_list`](Self::rendered_list).
    pub fn set_rendered_list(&mut self, name: &str, fragments: Vec<RenderedFragment>) {
        match self.values.get_mut(name) {
            Some(slot) => *slot = Value::RenderedList(fragments),
            None => {
                self.values
                    .insert(name.to_string(), Value::RenderedList(fragments));
            }
        }
    }

    /// Looks up a binding.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }
}

/// Instantiation errors: either a missing/mistyped binding or a typed
/// construction failure.
#[derive(Debug)]
pub enum InstantiateError {
    /// A hole had no binding, or a binding of the wrong kind.
    Binding(String),
    /// The typed layer rejected the construction.
    Vdom(VdomError),
}

impl std::fmt::Display for InstantiateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstantiateError::Binding(m) => write!(f, "binding error: {m}"),
            InstantiateError::Vdom(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for InstantiateError {}

impl From<VdomError> for InstantiateError {
    fn from(e: VdomError) -> Self {
        InstantiateError::Vdom(e)
    }
}

/// Instantiates `template` with `bindings`, producing a sealed fragment.
pub fn instantiate(
    compiled: &CompiledSchema,
    template: &Template,
    bindings: &Bindings,
) -> Result<Fragment, InstantiateError> {
    let _span = obs::span!("pxml.instantiate");
    let mut holes = 0u64;
    let result = instantiate_inner(compiled, template, bindings, &mut holes);
    if obs::enabled() {
        let metrics = obs::metrics();
        metrics
            .counter(
                "pxml_holes_instantiated_total",
                "Template holes filled with runtime bindings.",
            )
            .inc_by(holes);
        if result.is_err() {
            metrics
                .counter(
                    "pxml_instantiate_rejects_total",
                    "Instantiations rejected at runtime (bad binding or typed-layer refusal).",
                )
                .inc();
        }
    }
    result
}

fn instantiate_inner(
    compiled: &CompiledSchema,
    template: &Template,
    bindings: &Bindings,
    holes: &mut u64,
) -> Result<Fragment, InstantiateError> {
    let tag = template.root_tag().to_string();
    let mut td = TypedDocument::new(compiled.clone());
    // a global declaration's root plan (an abstract one is refused), else
    // the first local declaration with the root's tag
    let root = if compiled.schema().element(&tag).is_some() {
        td.create_root(&tag)?
    } else {
        let type_ref = resolve_element_type(compiled.schema(), &tag).ok_or_else(|| {
            InstantiateError::Binding(format!("root element <{tag}> is not declared"))
        })?;
        td.create_root_typed(&tag, &type_ref)?
    };
    let type_ref = td.type_of(root)?.clone();
    fill(&mut td, root, template, template.root, bindings, holes)?;
    let doc = td.seal()?;
    let root = doc.root_element().expect("sealed fragment has a root");
    Ok(Fragment {
        tag,
        type_ref,
        doc,
        root,
    })
}

pub(crate) fn unbound(name: &str) -> InstantiateError {
    InstantiateError::Binding(format!("unbound variable ${name}$"))
}

fn splice(
    td: &mut TypedDocument,
    dst: TypedElement,
    name: &str,
    value: &Value,
) -> Result<(), InstantiateError> {
    match value {
        Value::Text(text) => td.append_text(dst, text.as_str())?,
        Value::Fragment(frag) => {
            td.import_element(dst, &frag.doc, frag.root)?;
        }
        Value::FragmentList(frags) => {
            for frag in frags {
                td.import_element(dst, &frag.doc, frag.root)?;
            }
        }
        Value::Rendered(r) => splice_rendered(td, dst, name, r)?,
        Value::RenderedList(rs) => {
            for r in rs {
                splice_rendered(td, dst, name, r)?;
            }
        }
    }
    Ok(())
}

fn splice_rendered(
    td: &mut TypedDocument,
    dst: TypedElement,
    name: &str,
    r: &RenderedFragment,
) -> Result<(), InstantiateError> {
    let (doc, root) = xmlparse::parse_fragment(&r.xml).map_err(|e| {
        InstantiateError::Binding(format!(
            "rendered fragment for ${name}$ does not reparse: {e}"
        ))
    })?;
    td.import_element(dst, &doc, root)?;
    Ok(())
}

fn fill(
    td: &mut TypedDocument,
    dst: TypedElement,
    template: &Template,
    src: NodeId,
    bindings: &Bindings,
    holes: &mut u64,
) -> Result<(), InstantiateError> {
    let doc = &template.doc;
    // attributes, with text holes substituted
    for attr in doc.attributes(src).unwrap_or(&[]) {
        if &*attr.name == "xmlns" || attr.name.starts_with("xmlns:") {
            continue;
        }
        let parts =
            split_holes_ref(&attr.value).map_err(|e| InstantiateError::Binding(e.message))?;
        let mut value = String::new();
        for part in parts {
            match part {
                PartRef::Text(t) => value.push_str(&t),
                PartRef::Hole(name) => match bindings.get(name) {
                    Some(Value::Text(t)) => {
                        *holes += 1;
                        value.push_str(t);
                    }
                    Some(_) => {
                        return Err(InstantiateError::Binding(format!(
                            "element variable ${name}$ used in attribute {}",
                            attr.name
                        )))
                    }
                    None => return Err(unbound(name)),
                },
            }
        }
        td.set_attribute(dst, &attr.name, value)?;
    }
    // children
    for &child in doc.child_slice(src).unwrap_or(&[]) {
        match doc
            .kind(child)
            .map_err(|e| InstantiateError::Binding(e.to_string()))?
        {
            NodeKind::Element { .. } => {
                let name = doc.tag_name(child).unwrap_or_default();
                let new_el = td.append_element(dst, name)?;
                fill(td, new_el, template, child, bindings, holes)?;
            }
            NodeKind::Text(t) => {
                let parts = split_holes_ref(t).map_err(|e| InstantiateError::Binding(e.message))?;
                for part in parts {
                    match part {
                        PartRef::Text(text) => {
                            if text.chars().all(is_xml_whitespace) {
                                continue; // template formatting whitespace
                            }
                            td.append_text(dst, text.into_owned())?;
                        }
                        PartRef::Hole(name) => {
                            let value = bindings.get(name).ok_or_else(|| unbound(name))?;
                            *holes += 1;
                            splice(td, dst, name, value)?;
                        }
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}
