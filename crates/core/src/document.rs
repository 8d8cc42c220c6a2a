//! The typed document: a DOM that cannot be driven into an invalid
//! state.
//!
//! Every element handle carries its schema type; every mutation is
//! checked *as it happens*:
//!
//! * appending a child advances the parent's materialized content-model
//!   DFA (O(1) per append, no re-validation of earlier children);
//! * text insertion is rejected in element-only content and validated
//!   against the simple type in simple content;
//! * attribute writes are checked against the declared attribute uses,
//!   including `fixed` values and simple-type facets.
//!
//! What cannot be checked eagerly — content-model *completeness* and
//! required attributes — is checked by [`TypedDocument::finish`] per
//! element and by [`TypedDocument::seal`] for the whole tree, which are
//! still construction-time checks, not test runs (paper Sect. 3: the
//! occurrence-constraint caveat).

use std::collections::HashMap;

use automata::{DfaMatcher, Matcher};
use dom::{Document, NodeId};
use schema::{check_value, CompiledSchema, ContentModel, ElementDecl, TypeDef, TypeRef};

use crate::error::VdomError;

/// A typed element handle: the node plus its schema type.
///
/// Copyable, like `dom::NodeId`; validity is re-checked against the
/// owning [`TypedDocument`] on every use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypedElement {
    pub(crate) node: NodeId,
}

impl TypedElement {
    /// The underlying untyped node id (for read-only DOM access).
    pub fn node(self) -> NodeId {
        self.node
    }
}

/// Per-element typed state.
#[derive(Debug, Clone)]
struct ElementState {
    type_ref: TypeRef,
    /// Content matcher for complex element-only/mixed content.
    matcher: Option<DfaMatcher>,
    /// Whether text is allowed (mixed or simple content).
    text_allowed: bool,
    /// Whether the content is simple (text validated at finish).
    simple_content: Option<TypeRef>,
    finished: bool,
}

/// A schema-typed document under construction.
#[derive(Debug, Clone)]
pub struct TypedDocument {
    compiled: CompiledSchema,
    doc: Document,
    states: HashMap<NodeId, ElementState>,
}

impl TypedDocument {
    /// Creates an empty typed document over `compiled`.
    pub fn new(compiled: CompiledSchema) -> TypedDocument {
        TypedDocument {
            compiled,
            doc: Document::new(),
            states: HashMap::new(),
        }
    }

    /// The schema this document is typed against.
    pub fn compiled(&self) -> &CompiledSchema {
        &self.compiled
    }

    /// Read-only access to the underlying DOM (serialization, dumps).
    pub fn dom(&self) -> &Document {
        &self.doc
    }

    fn decl(&self, name: &str) -> Result<&ElementDecl, VdomError> {
        self.compiled
            .schema()
            .element(name)
            .ok_or_else(|| VdomError::NotDeclared(name.to_string()))
    }

    /// Whether `el`'s content model permits character data (mixed or
    /// simple content).
    pub(crate) fn allows_text(&self, el: TypedElement) -> Result<bool, VdomError> {
        Ok(self.state(el)?.text_allowed)
    }

    fn state(&self, el: TypedElement) -> Result<&ElementState, VdomError> {
        self.states.get(&el.node).ok_or(VdomError::BadHandle)
    }

    fn state_mut(&mut self, el: TypedElement) -> Result<&mut ElementState, VdomError> {
        self.states.get_mut(&el.node).ok_or(VdomError::BadHandle)
    }

    /// Initializes typed state for an element of `type_ref`.
    fn init_state(&self, name: &str, type_ref: &TypeRef) -> Result<ElementState, VdomError> {
        let schema = self.compiled.schema();
        let (matcher, text_allowed, simple_content) =
            match type_ref {
                TypeRef::Builtin(_) => (None, true, Some(type_ref.clone())),
                TypeRef::Named(n) | TypeRef::Anonymous(n) => match schema.type_def(n) {
                    Some(TypeDef::Simple(_)) => (None, true, Some(type_ref.clone())),
                    Some(TypeDef::Complex(ct)) => {
                        if ct.is_abstract {
                            return Err(VdomError::Abstract(name.to_string()));
                        }
                        match &ct.content {
                            ContentModel::Simple(inner) => (None, true, Some(inner.clone())),
                            ContentModel::Empty => (None, false, None),
                            ContentModel::ElementOnly(_) => {
                                let dfa = self.compiled.content_dfa(n).map_err(|e| {
                                    VdomError::Simple {
                                        element: name.to_string(),
                                        attribute: None,
                                        error: e,
                                    }
                                })?;
                                (Some(dfa.start()), false, None)
                            }
                            ContentModel::Mixed(_) => {
                                let dfa = self.compiled.content_dfa(n).map_err(|e| {
                                    VdomError::Simple {
                                        element: name.to_string(),
                                        attribute: None,
                                        error: e,
                                    }
                                })?;
                                (Some(dfa.start()), true, None)
                            }
                        }
                    }
                    None => return Err(VdomError::NotDeclared(n.clone())),
                },
            };
        Ok(ElementState {
            type_ref: type_ref.clone(),
            matcher,
            text_allowed,
            simple_content,
            finished: false,
        })
    }

    // ---- creation --------------------------------------------------------

    /// Creates the root element from a global element declaration and
    /// attaches it to the document. Abstract elements are rejected.
    pub fn create_root(&mut self, name: &str) -> Result<TypedElement, VdomError> {
        let decl = self.decl(name)?;
        if decl.is_abstract {
            return Err(VdomError::Abstract(name.to_string()));
        }
        let type_ref = decl.type_ref.clone();
        let state = self.init_state(name, &type_ref)?;
        let node = self
            .doc
            .create_element(name)
            .map_err(|e| VdomError::Dom(e.to_string()))?;
        let doc_node = self.doc.document_node();
        self.doc
            .append_child(doc_node, node)
            .map_err(|e| VdomError::Dom(e.to_string()))?;
        self.states.insert(node, state);
        Ok(TypedElement { node })
    }

    /// Creates the root element with an explicitly given type, for
    /// fragments rooted at *locally* declared elements (e.g. a `shipTo`
    /// of type `USAddress`, which is not a global declaration). The
    /// paper's P-XML constructors rely on exactly this: the V-DOM
    /// variable's interface determines the type.
    pub fn create_root_typed(
        &mut self,
        name: &str,
        type_ref: &TypeRef,
    ) -> Result<TypedElement, VdomError> {
        let state = self.init_state(name, type_ref)?;
        let node = self
            .doc
            .create_element(name)
            .map_err(|e| VdomError::Dom(e.to_string()))?;
        let doc_node = self.doc.document_node();
        self.doc
            .append_child(doc_node, node)
            .map_err(|e| VdomError::Dom(e.to_string()))?;
        self.states.insert(node, state);
        Ok(TypedElement { node })
    }

    /// Appends a new child element to `parent`, advancing the parent's
    /// content-model DFA. The child's type is looked up in the schema;
    /// appending anything the model does not allow fails immediately.
    pub fn append_element(
        &mut self,
        parent: TypedElement,
        name: &str,
    ) -> Result<TypedElement, VdomError> {
        let parent_name = self
            .doc
            .tag_name(parent.node)
            .map_err(|e| VdomError::Dom(e.to_string()))?
            .to_string();
        let parent_state = self.state(parent)?;
        if parent_state.finished {
            return Err(VdomError::BadHandle);
        }
        // the child's declared type, found within the parent's type
        let child_type = match &parent_state.type_ref {
            TypeRef::Named(n) | TypeRef::Anonymous(n) => self
                .compiled
                .child_element_type(n, name)
                .ok_or_else(|| VdomError::UnknownChild {
                    parent: parent_name.clone(),
                    child: name.to_string(),
                })?,
            TypeRef::Builtin(_) => {
                return Err(VdomError::UnknownChild {
                    parent: parent_name,
                    child: name.to_string(),
                })
            }
        };
        let child_state = self.init_state(name, &child_type)?;
        // advance the parent's matcher (the incremental check)
        {
            let state = self.state_mut(parent)?;
            match &mut state.matcher {
                Some(m) => {
                    m.step(name).map_err(|step| VdomError::ContentModel {
                        parent: parent_name.clone(),
                        step,
                    })?;
                }
                None => {
                    // empty or simple content: no element children at all
                    return Err(VdomError::ContentModel {
                        parent: parent_name,
                        step: automata::StepError {
                            got: name.to_string(),
                            expected: Vec::new(),
                            could_end: true,
                        },
                    });
                }
            }
        }
        let node = self
            .doc
            .create_element(name)
            .map_err(|e| VdomError::Dom(e.to_string()))?;
        self.doc
            .append_child(parent.node, node)
            .map_err(|e| VdomError::Dom(e.to_string()))?;
        self.states.insert(node, child_state);
        Ok(TypedElement { node })
    }

    /// Appends character data. Allowed in mixed and simple content only;
    /// simple-typed text is validated when the element is finished (the
    /// value may be built up from several appends).
    pub fn append_text(
        &mut self,
        element: TypedElement,
        text: impl Into<String>,
    ) -> Result<(), VdomError> {
        let state = self.state(element)?;
        if !state.text_allowed {
            return Err(VdomError::TextNotAllowed {
                element: self
                    .doc
                    .tag_name(element.node)
                    .unwrap_or_default()
                    .to_string(),
            });
        }
        let text = text.into();
        if text.is_empty() {
            // no node: "" contributes nothing to the text content, and an
            // empty text node would force `<tag></tag>` over `<tag/>`
            return Ok(());
        }
        let t = self.doc.create_text(text);
        self.doc
            .append_child(element.node, t)
            .map_err(|e| VdomError::Dom(e.to_string()))?;
        Ok(())
    }

    /// Sets an attribute, validating it against the declared uses.
    pub fn set_attribute(
        &mut self,
        element: TypedElement,
        name: &str,
        value: impl Into<String>,
    ) -> Result<(), VdomError> {
        let element_name = self
            .doc
            .tag_name(element.node)
            .map_err(|e| VdomError::Dom(e.to_string()))?
            .to_string();
        let state = self.state(element)?;
        let value = value.into();
        let declared = match &state.type_ref {
            TypeRef::Named(n) | TypeRef::Anonymous(n) => self
                .compiled
                .effective_attributes(n)
                .unwrap_or_else(|_| Vec::new().into()),
            TypeRef::Builtin(_) => Vec::new().into(),
        };
        let decl = declared.iter().find(|a| a.name == name).ok_or_else(|| {
            VdomError::UndeclaredAttribute {
                element: element_name.clone(),
                attribute: name.to_string(),
            }
        })?;
        check_value(&self.compiled.simple_plan(&decl.type_ref), &value).map_err(|error| {
            VdomError::Simple {
                element: element_name.clone(),
                attribute: Some(name.to_string()),
                error,
            }
        })?;
        if let Some(fixed) = &decl.fixed {
            if &value != fixed {
                return Err(VdomError::FixedMismatch {
                    element: element_name,
                    attribute: name.to_string(),
                    fixed: fixed.clone(),
                });
            }
        }
        self.doc
            .set_attribute(element.node, name, value)
            .map_err(|e| VdomError::Dom(e.to_string()))?;
        Ok(())
    }

    // ---- completion ------------------------------------------------------

    /// Finishes an element: content-model completeness, simple-content
    /// value validity, and required attributes. Children must have been
    /// finished (they are finished automatically when complete).
    pub fn finish(&mut self, element: TypedElement) -> Result<(), VdomError> {
        let element_name = self
            .doc
            .tag_name(element.node)
            .map_err(|e| VdomError::Dom(e.to_string()))?
            .to_string();
        // completeness of element content
        let state = self.state(element)?;
        if let Some(m) = &state.matcher {
            if !m.is_accepting() {
                return Err(VdomError::Incomplete {
                    element: element_name,
                    expected: m.expected(),
                });
            }
        }
        // simple content value
        if let Some(simple) = state.simple_content.clone() {
            let text = self
                .doc
                .text_content(element.node)
                .map_err(|e| VdomError::Dom(e.to_string()))?;
            check_value(&self.compiled.simple_plan(&simple), &text).map_err(|error| {
                VdomError::Simple {
                    element: element_name.clone(),
                    attribute: None,
                    error,
                }
            })?;
        }
        // required attributes
        if let TypeRef::Named(n) | TypeRef::Anonymous(n) = &state.type_ref {
            if let Ok(attrs) = self.compiled.effective_attributes(n) {
                for a in attrs.iter() {
                    if a.required
                        && self
                            .doc
                            .attribute(element.node, &a.name)
                            .ok()
                            .flatten()
                            .is_none()
                    {
                        return Err(VdomError::MissingAttribute {
                            element: element_name,
                            attribute: a.name.clone(),
                        });
                    }
                }
            }
        }
        self.state_mut(element)?.finished = true;
        Ok(())
    }

    /// Finishes every unfinished element (bottom-up) and returns the
    /// underlying document, which is guaranteed valid.
    pub fn seal(mut self) -> Result<Document, VdomError> {
        let root = self
            .doc
            .root_element()
            .ok_or(VdomError::NotDeclared("(no root)".to_string()))?;
        // bottom-up: children first
        let order: Vec<NodeId> = self.doc.descendants(root).collect();
        for node in order.into_iter().rev() {
            if self.states.contains_key(&node) {
                let el = TypedElement { node };
                if !self.state(el)?.finished {
                    self.finish(el)?;
                }
            }
        }
        Ok(self.doc)
    }

    /// The typed handle for the document's root element, if present.
    pub fn typed_root(&self) -> Option<TypedElement> {
        self.doc.root_element().and_then(|n| self.typed_handle(n))
    }

    /// Recovers the typed handle for a node of this document (e.g. one
    /// found through read-only DOM traversal); `None` when the node is
    /// not a typed element of this document.
    pub fn typed_handle(&self, node: NodeId) -> Option<TypedElement> {
        self.states
            .contains_key(&node)
            .then_some(TypedElement { node })
    }

    /// The element's declared type.
    pub fn type_of(&self, element: TypedElement) -> Result<&TypeRef, VdomError> {
        Ok(&self.state(element)?.type_ref)
    }

    /// Child element names currently acceptable for `element`.
    pub fn expected_children(&self, element: TypedElement) -> Result<Vec<String>, VdomError> {
        Ok(self
            .state(element)?
            .matcher
            .as_ref()
            .map(|m| m.expected())
            .unwrap_or_default())
    }

    /// Whether `element`'s content is currently complete.
    pub fn is_complete(&self, element: TypedElement) -> Result<bool, VdomError> {
        Ok(self
            .state(element)?
            .matcher
            .as_ref()
            .map(|m| m.is_accepting())
            .unwrap_or(true))
    }

    /// Serializes the current tree (valid prefix) compactly.
    pub fn serialize(&self) -> String {
        match self.doc.root_element() {
            Some(root) => dom::serialize(&self.doc, root).unwrap_or_default(),
            None => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::corpus::{PURCHASE_ORDER_XSD, SUBSTITUTION_XSD, WML_XSD};

    fn po() -> CompiledSchema {
        CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap()
    }

    fn build_address(
        td: &mut TypedDocument,
        parent: TypedElement,
        tag: &str,
        name: &str,
    ) -> TypedElement {
        let addr = td.append_element(parent, tag).unwrap();
        td.set_attribute(addr, "country", "US").unwrap();
        for (child, value) in [
            ("name", name),
            ("street", "123 Maple Street"),
            ("city", "Mill Valley"),
            ("state", "CA"),
            ("zip", "90952"),
        ] {
            let c = td.append_element(addr, child).unwrap();
            td.append_text(c, value).unwrap();
        }
        addr
    }

    #[test]
    fn build_valid_purchase_order() {
        let mut td = TypedDocument::new(po());
        let root = td.create_root("purchaseOrder").unwrap();
        td.set_attribute(root, "orderDate", "1999-10-20").unwrap();
        build_address(&mut td, root, "shipTo", "Alice Smith");
        build_address(&mut td, root, "billTo", "Robert Smith");
        let comment = td.append_element(root, "comment").unwrap();
        td.append_text(comment, "Hurry, my lawn is going wild")
            .unwrap();
        let items = td.append_element(root, "items").unwrap();
        let item = td.append_element(items, "item").unwrap();
        td.set_attribute(item, "partNum", "872-AA").unwrap();
        for (c, v) in [
            ("productName", "Lawnmower"),
            ("quantity", "1"),
            ("USPrice", "148.95"),
        ] {
            let n = td.append_element(item, c).unwrap();
            td.append_text(n, v).unwrap();
        }
        let doc = td.seal().unwrap();
        // the sealed document passes the independent runtime validator
        let errors = validator::validate_document(&po(), &doc);
        assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn wrong_child_rejected_immediately() {
        let mut td = TypedDocument::new(po());
        let root = td.create_root("purchaseOrder").unwrap();
        // items before shipTo is rejected at the append, not at a test run
        let err = td.append_element(root, "items").unwrap_err();
        match err {
            VdomError::ContentModel { parent, step } => {
                assert_eq!(parent, "purchaseOrder");
                assert_eq!(step.expected, ["shipTo"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_child_rejected() {
        let mut td = TypedDocument::new(po());
        let root = td.create_root("purchaseOrder").unwrap();
        assert!(matches!(
            td.append_element(root, "nonsense"),
            Err(VdomError::UnknownChild { .. })
        ));
    }

    #[test]
    fn text_in_element_only_content_rejected() {
        let mut td = TypedDocument::new(po());
        let root = td.create_root("purchaseOrder").unwrap();
        assert!(matches!(
            td.append_text(root, "stray"),
            Err(VdomError::TextNotAllowed { .. })
        ));
    }

    #[test]
    fn bad_attribute_value_rejected_at_set() {
        let mut td = TypedDocument::new(po());
        let root = td.create_root("purchaseOrder").unwrap();
        assert!(matches!(
            td.set_attribute(root, "orderDate", "not-a-date"),
            Err(VdomError::Simple { .. })
        ));
        assert!(matches!(
            td.set_attribute(root, "bogus", "x"),
            Err(VdomError::UndeclaredAttribute { .. })
        ));
    }

    #[test]
    fn fixed_attribute_enforced_at_set() {
        let mut td = TypedDocument::new(po());
        let root = td.create_root("purchaseOrder").unwrap();
        let ship = td.append_element(root, "shipTo").unwrap();
        assert!(matches!(
            td.set_attribute(ship, "country", "DE"),
            Err(VdomError::FixedMismatch { .. })
        ));
        td.set_attribute(ship, "country", "US").unwrap();
    }

    #[test]
    fn incomplete_content_rejected_at_finish() {
        let mut td = TypedDocument::new(po());
        let root = td.create_root("purchaseOrder").unwrap();
        build_address(&mut td, root, "shipTo", "A");
        let err = td.finish(root).unwrap_err();
        match err {
            VdomError::Incomplete { expected, .. } => {
                assert_eq!(expected, ["billTo"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_required_attribute_rejected_at_finish() {
        let mut td = TypedDocument::new(po());
        let root = td.create_root("purchaseOrder").unwrap();
        build_address(&mut td, root, "shipTo", "A");
        build_address(&mut td, root, "billTo", "B");
        let items = td.append_element(root, "items").unwrap();
        let item = td.append_element(items, "item").unwrap();
        for (c, v) in [("productName", "X"), ("quantity", "1"), ("USPrice", "1.0")] {
            let n = td.append_element(item, c).unwrap();
            td.append_text(n, v).unwrap();
        }
        // no partNum
        let err = td.finish(item).unwrap_err();
        assert!(matches!(
            err,
            VdomError::MissingAttribute { ref attribute, .. } if attribute == "partNum"
        ));
    }

    #[test]
    fn simple_content_validated_at_finish() {
        let mut td = TypedDocument::new(po());
        let root = td.create_root("purchaseOrder").unwrap();
        let ship = td.append_element(root, "shipTo").unwrap();
        td.set_attribute(ship, "country", "US").unwrap();
        for c in ["name", "street", "city", "state"] {
            let n = td.append_element(ship, c).unwrap();
            td.append_text(n, "x").unwrap();
        }
        let zip = td.append_element(ship, "zip").unwrap();
        td.append_text(zip, "not a decimal").unwrap();
        let err = td.finish(zip).unwrap_err();
        assert!(matches!(
            err,
            VdomError::Simple {
                attribute: None,
                ..
            }
        ));
    }

    #[test]
    fn abstract_elements_cannot_be_created() {
        let xsd = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
          <xsd:element name="msg" type="xsd:string" abstract="true"/>
          <xsd:element name="textMsg" type="xsd:string" substitutionGroup="msg"/>
        </xsd:schema>"#;
        let c = CompiledSchema::parse(xsd).unwrap();
        let mut td = TypedDocument::new(c);
        assert!(matches!(td.create_root("msg"), Err(VdomError::Abstract(_))));
        td.create_root("textMsg").unwrap();
    }

    #[test]
    fn substitution_members_accepted_in_content() {
        let c = CompiledSchema::parse(SUBSTITUTION_XSD).unwrap();
        let mut td = TypedDocument::new(c);
        let root = td.create_root("order").unwrap();
        let id = td.append_element(root, "id").unwrap();
        td.append_text(id, "42").unwrap();
        // shipComment substitutes for comment
        let sc = td.append_element(root, "shipComment").unwrap();
        td.append_text(sc, "handle with care").unwrap();
        td.seal().unwrap();
    }

    #[test]
    fn mixed_content_accepts_text_and_elements() {
        let c = CompiledSchema::parse(WML_XSD).unwrap();
        let mut td = TypedDocument::new(c);
        let root = td.create_root("wml").unwrap();
        let card = td.append_element(root, "card").unwrap();
        let p = td.append_element(card, "p").unwrap();
        td.append_text(p, "hello ").unwrap();
        let b = td.append_element(p, "b").unwrap();
        td.append_text(b, "bold").unwrap();
        td.append_text(p, " world").unwrap();
        td.seal().unwrap();
    }

    #[test]
    fn expected_children_and_completeness_introspection() {
        let mut td = TypedDocument::new(po());
        let root = td.create_root("purchaseOrder").unwrap();
        assert_eq!(td.expected_children(root).unwrap(), ["shipTo"]);
        assert!(!td.is_complete(root).unwrap());
        build_address(&mut td, root, "shipTo", "A");
        build_address(&mut td, root, "billTo", "B");
        assert_eq!(td.expected_children(root).unwrap(), ["comment", "items"]);
        let items = td.append_element(root, "items").unwrap();
        assert!(td.is_complete(root).unwrap());
        assert!(td.is_complete(items).unwrap()); // item is minOccurs=0
    }

    #[test]
    fn serialize_prefix() {
        let mut td = TypedDocument::new(po());
        let root = td.create_root("purchaseOrder").unwrap();
        td.set_attribute(root, "orderDate", "1999-10-20").unwrap();
        assert_eq!(td.serialize(), "<purchaseOrder orderDate=\"1999-10-20\"/>");
    }
}
