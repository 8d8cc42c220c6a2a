//! The arena document and its mutation API.

use xmlchars::chars::is_name;
use xmlchars::Span;

use crate::error::DomError;
use crate::node::{Attribute, ChildList, NodeData, NodeKind};

/// A handle to a node inside a [`Document`].
///
/// Ids are `Copy` and cheap to pass around; they are validated against the
/// owning document on every access, and a generation counter detects reuse
/// of slots freed by [`Document::remove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

impl NodeId {
    /// The arena index, useful for dense side tables keyed by node.
    pub fn index(self) -> usize {
        self.index as usize
    }
}

/// An XML document: an arena of nodes rooted at a document node.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<NodeData>,
    free: Vec<u32>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates an empty document containing only the document node.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty document with room for `nodes` more nodes before its
    /// arena grows.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut arena = Vec::with_capacity(nodes + 1);
        arena.push(NodeData {
            kind: NodeKind::Document,
            parent: None,
            children: ChildList::default(),
            span: Span::default(),
            generation: 0,
            alive: true,
        });
        Document {
            nodes: arena,
            free: Vec::new(),
        }
    }

    /// The document node (root of the tree, parent of the root element).
    pub fn document_node(&self) -> NodeId {
        NodeId {
            index: 0,
            generation: self.nodes[0].generation,
        }
    }

    /// The root element, if one has been attached.
    pub fn root_element(&self) -> Option<NodeId> {
        let doc = self.document_node();
        self.children(doc)
            .find(|&c| self.kind(c).map(NodeKind::is_element).unwrap_or(false))
    }

    /// Number of live nodes, including the document node.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether the document contains only the document node.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    fn get(&self, id: NodeId) -> Result<&NodeData, DomError> {
        let data = self
            .nodes
            .get(id.index as usize)
            .ok_or(DomError::StaleNode(id))?;
        if !data.alive || data.generation != id.generation {
            return Err(DomError::StaleNode(id));
        }
        Ok(data)
    }

    fn get_mut(&mut self, id: NodeId) -> Result<&mut NodeData, DomError> {
        let data = self
            .nodes
            .get_mut(id.index as usize)
            .ok_or(DomError::StaleNode(id))?;
        if !data.alive || data.generation != id.generation {
            return Err(DomError::StaleNode(id));
        }
        Ok(data)
    }

    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        if let Some(index) = self.free.pop() {
            let generation = self.nodes[index as usize].generation;
            self.nodes[index as usize] = NodeData {
                kind,
                parent: None,
                children: ChildList::default(),
                span: Span::default(),
                generation,
                alive: true,
            };
            NodeId { index, generation }
        } else {
            let index = u32::try_from(self.nodes.len()).expect("document exceeds u32 nodes");
            self.nodes.push(NodeData {
                kind,
                parent: None,
                children: ChildList::default(),
                span: Span::default(),
                generation: 0,
                alive: true,
            });
            NodeId {
                index,
                generation: 0,
            }
        }
    }

    // ---- creation -------------------------------------------------------

    /// Creates a detached element node.
    pub fn create_element(&mut self, name: impl AsRef<str>) -> Result<NodeId, DomError> {
        let name = checked_name(name.as_ref())?;
        Ok(self.alloc(NodeKind::Element {
            name: name.into(),
            attributes: Vec::new(),
        }))
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, text: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Text(text.into()))
    }

    /// Creates a detached comment node.
    pub fn create_comment(&mut self, text: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Comment(text.into()))
    }

    /// Creates a detached processing-instruction node.
    pub fn create_pi(
        &mut self,
        target: impl Into<String>,
        data: impl Into<String>,
    ) -> Result<NodeId, DomError> {
        let target = target.into();
        if !is_name(&target) {
            return Err(DomError::BadName(target));
        }
        Ok(self.alloc(NodeKind::ProcessingInstruction {
            target,
            data: data.into(),
        }))
    }

    // ---- accessors ------------------------------------------------------

    /// The payload of `id`.
    pub fn kind(&self, id: NodeId) -> Result<&NodeKind, DomError> {
        Ok(&self.get(id)?.kind)
    }

    /// The parent of `id`, `None` for the document node or detached nodes.
    pub fn parent(&self, id: NodeId) -> Result<Option<NodeId>, DomError> {
        Ok(self.get(id)?.parent)
    }

    /// The source span recorded by the parser (default span otherwise).
    pub fn span(&self, id: NodeId) -> Result<Span, DomError> {
        Ok(self.get(id)?.span)
    }

    /// Sets the source span (used by the parser's tree builder).
    pub fn set_span(&mut self, id: NodeId, span: Span) -> Result<(), DomError> {
        self.get_mut(id)?.span = span;
        Ok(())
    }

    /// The tag name of an element.
    pub fn tag_name(&self, id: NodeId) -> Result<&str, DomError> {
        match &self.get(id)?.kind {
            NodeKind::Element { name, .. } => Ok(name),
            _ => Err(DomError::NotAnElement(id)),
        }
    }

    /// The text of a text node, or `None` for other kinds.
    pub fn text(&self, id: NodeId) -> Result<Option<&str>, DomError> {
        match &self.get(id)?.kind {
            NodeKind::Text(t) => Ok(Some(t)),
            _ => Ok(None),
        }
    }

    /// Replaces the text of a text node.
    pub fn set_text(&mut self, id: NodeId, text: impl Into<String>) -> Result<(), DomError> {
        match &mut self.get_mut(id)?.kind {
            NodeKind::Text(t) => {
                *t = text.into();
                Ok(())
            }
            _ => Err(DomError::NotAnElement(id)),
        }
    }

    /// Concatenated descendant text of `id` (the DOM `textContent`).
    pub fn text_content(&self, id: NodeId) -> Result<String, DomError> {
        let mut out = String::new();
        self.get(id)?;
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let data = self.get(n)?;
            if let NodeKind::Text(t) = &data.kind {
                out.push_str(t);
            }
            for &c in data.children.as_slice().iter().rev() {
                stack.push(c);
            }
        }
        Ok(out)
    }

    /// Iterates over the children of `id` in document order (none for a
    /// stale id), borrowing the child list.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.child_slice(id).unwrap_or_default().iter().copied()
    }

    /// The children of `id` as a slice-backed `Vec` (document order).
    pub fn child_vec(&self, id: NodeId) -> Result<Vec<NodeId>, DomError> {
        Ok(self.get(id)?.children.as_slice().to_vec())
    }

    /// The children of `id` as a borrowed slice (document order).
    pub fn child_slice(&self, id: NodeId) -> Result<&[NodeId], DomError> {
        Ok(self.get(id)?.children.as_slice())
    }

    /// Number of children of `id`.
    pub fn child_count(&self, id: NodeId) -> Result<usize, DomError> {
        Ok(self.get(id)?.children.len())
    }

    /// Child element nodes of `id` (skipping text/comments/PIs).
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id)
            .filter(move |&c| self.kind(c).map(NodeKind::is_element).unwrap_or(false))
    }

    /// First child element with the given tag name.
    pub fn child_element_named(&self, id: NodeId, name: &str) -> Option<NodeId> {
        self.child_elements(id)
            .find(|&c| self.tag_name(c).map(|n| n == name).unwrap_or(false))
    }

    // ---- attributes -----------------------------------------------------

    /// The attributes of an element in document order.
    pub fn attributes(&self, id: NodeId) -> Result<&[Attribute], DomError> {
        match &self.get(id)?.kind {
            NodeKind::Element { attributes, .. } => Ok(attributes),
            _ => Err(DomError::NotAnElement(id)),
        }
    }

    /// Looks up an attribute value by name.
    pub fn attribute(&self, id: NodeId, name: &str) -> Result<Option<&str>, DomError> {
        Ok(self
            .attributes(id)?
            .iter()
            .find(|a| &*a.name == name)
            .map(|a| a.value.as_str()))
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attribute(
        &mut self,
        id: NodeId,
        name: impl AsRef<str>,
        value: impl Into<String>,
    ) -> Result<(), DomError> {
        let name = checked_name(name.as_ref())?;
        match &mut self.get_mut(id)?.kind {
            NodeKind::Element { attributes, .. } => {
                let value = value.into();
                if let Some(a) = attributes.iter_mut().find(|a| &*a.name == name) {
                    a.value = value;
                } else {
                    attributes.push(Attribute {
                        name: name.into(),
                        value,
                    });
                }
                Ok(())
            }
            _ => Err(DomError::NotAnElement(id)),
        }
    }

    /// Replaces an element's entire attribute list, returning the old
    /// one. Unlike repeated [`set_attribute`](Self::set_attribute) /
    /// [`remove_attribute`](Self::remove_attribute) calls, this restores
    /// attribute *order* exactly — the incremental revalidator uses it to
    /// roll a rejected attribute patch back byte-identically.
    pub fn replace_attributes(
        &mut self,
        id: NodeId,
        attrs: Vec<Attribute>,
    ) -> Result<Vec<Attribute>, DomError> {
        for a in &attrs {
            checked_name(&a.name)?;
        }
        match &mut self.get_mut(id)?.kind {
            NodeKind::Element { attributes, .. } => Ok(std::mem::replace(attributes, attrs)),
            _ => Err(DomError::NotAnElement(id)),
        }
    }

    /// Removes an attribute; returns its old value if present.
    pub fn remove_attribute(&mut self, id: NodeId, name: &str) -> Result<Option<String>, DomError> {
        match &mut self.get_mut(id)?.kind {
            NodeKind::Element { attributes, .. } => {
                match attributes.iter().position(|a| &*a.name == name) {
                    Some(i) => Ok(Some(attributes.remove(i).value)),
                    None => Ok(None),
                }
            }
            _ => Err(DomError::NotAnElement(id)),
        }
    }

    // ---- structure ------------------------------------------------------

    /// Returns `true` if `ancestor` is `node` or one of its ancestors.
    pub fn is_ancestor_or_self(&self, ancestor: NodeId, node: NodeId) -> Result<bool, DomError> {
        let mut cur = Some(node);
        while let Some(n) = cur {
            if n == ancestor {
                return Ok(true);
            }
            cur = self.parent(n)?;
        }
        Ok(false)
    }

    /// Appends detached node `child` as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<(), DomError> {
        let len = self.get(parent)?.children.len();
        self.insert_child(parent, len, child)
    }

    /// Inserts detached node `child` at `index` among `parent`'s children.
    pub fn insert_child(
        &mut self,
        parent: NodeId,
        index: usize,
        child: NodeId,
    ) -> Result<(), DomError> {
        let parent_data = self.get(parent)?;
        if !parent_data.kind.is_container() {
            return Err(DomError::NotAContainer(parent));
        }
        let len = parent_data.children.len();
        if index > len {
            return Err(DomError::IndexOutOfBounds { index, len });
        }
        let child_data = self.get(child)?;
        if child_data.parent.is_some() {
            return Err(DomError::StillAttached(child));
        }
        if matches!(child_data.kind, NodeKind::Document) {
            return Err(DomError::NotAnElement(child));
        }
        if self.is_ancestor_or_self(child, parent)? {
            return Err(DomError::WouldCreateCycle {
                node: child,
                parent,
            });
        }
        // Only one root element under the document node.
        if parent.index == 0 && child_data.kind.is_element() && self.root_element().is_some() {
            return Err(DomError::SecondRootElement);
        }
        self.get_mut(child)?.parent = Some(parent);
        self.get_mut(parent)?.children.insert(index, child);
        Ok(())
    }

    /// Creates a node of `kind` with source span `span` and appends it as
    /// the last child of `parent`, in one step: what [`create_element`],
    /// [`set_span`], [`set_attribute`] per attribute and
    /// [`append_child`] do, for the parser's tree builder.
    ///
    /// A fresh node can be neither attached elsewhere nor an ancestor of
    /// `parent`, so those checks are skipped, as is the duplicate-name
    /// scan over `kind`'s attributes (the reader rejects duplicates).
    /// `parent` must still be a live container, names must be XML names,
    /// and the document node keeps its single root element; a
    /// [`NodeKind::Document`] payload is refused as
    /// [`DomError::NotAnElement`].
    ///
    /// [`create_element`]: Self::create_element
    /// [`set_span`]: Self::set_span
    /// [`set_attribute`]: Self::set_attribute
    /// [`append_child`]: Self::append_child
    pub fn append_new(
        &mut self,
        parent: NodeId,
        kind: NodeKind,
        span: Span,
    ) -> Result<NodeId, DomError> {
        if !self.get(parent)?.kind.is_container() {
            return Err(DomError::NotAContainer(parent));
        }
        match &kind {
            NodeKind::Document => return Err(DomError::NotAnElement(parent)),
            NodeKind::Element { name, attributes } => {
                checked_name(name)?;
                for a in attributes {
                    checked_name(&a.name)?;
                }
                if parent.index == 0 && self.root_element().is_some() {
                    return Err(DomError::SecondRootElement);
                }
            }
            NodeKind::ProcessingInstruction { target, .. } => {
                checked_name(target)?;
            }
            NodeKind::Text(_) | NodeKind::Comment(_) => {}
        }
        let child = self.alloc(kind);
        let data = &mut self.nodes[child.index as usize];
        data.parent = Some(parent);
        data.span = span;
        self.nodes[parent.index as usize].children.push(child);
        Ok(child)
    }

    /// Detaches `node` from its parent, keeping it (and its subtree) alive.
    pub fn detach(&mut self, node: NodeId) -> Result<(), DomError> {
        let parent = self.get(node)?.parent;
        if let Some(p) = parent {
            self.get_mut(p)?.children.remove(node);
            self.get_mut(node)?.parent = None;
        }
        Ok(())
    }

    /// Removes `node` and its entire subtree, freeing the arena slots.
    pub fn remove(&mut self, node: NodeId) -> Result<(), DomError> {
        if node.index == 0 {
            return Err(DomError::NotAnElement(node));
        }
        self.detach(node)?;
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            let data = self.get_mut(n)?;
            data.alive = false;
            data.generation = data.generation.wrapping_add(1);
            stack.extend(std::mem::take(&mut data.children).as_slice());
            self.free.push(n.index);
        }
        Ok(())
    }

    /// Deep-copies the subtree rooted at `node` (which may live in another
    /// document) into `self`, returning the detached copy's id.
    pub fn import_subtree(&mut self, source: &Document, node: NodeId) -> Result<NodeId, DomError> {
        let data = source.get(node)?;
        let copy = self.alloc(data.kind.clone());
        let children = data.children.clone();
        for &child in children.as_slice() {
            let child_copy = self.import_subtree(source, child)?;
            // Document-node restriction does not apply to detached copies.
            self.get_mut(child_copy)?.parent = Some(copy);
            self.get_mut(copy)?.children.push(child_copy);
        }
        Ok(copy)
    }
}

/// `name`, if it is an XML name.
fn checked_name(name: &str) -> Result<&str, DomError> {
    if is_name(name) {
        Ok(name)
    } else {
        Err(DomError::BadName(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_with_root(name: &str) -> (Document, NodeId) {
        let mut d = Document::new();
        let root = d.create_element(name).unwrap();
        let doc_node = d.document_node();
        d.append_child(doc_node, root).unwrap();
        (d, root)
    }

    #[test]
    fn new_document_is_empty() {
        let d = Document::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 1);
        assert!(d.root_element().is_none());
    }

    #[test]
    fn build_small_tree() {
        let (mut d, root) = doc_with_root("purchaseOrder");
        let ship = d.create_element("shipTo").unwrap();
        d.append_child(root, ship).unwrap();
        let name = d.create_element("name").unwrap();
        d.append_child(ship, name).unwrap();
        let text = d.create_text("Alice Smith");
        d.append_child(name, text).unwrap();

        assert_eq!(d.root_element(), Some(root));
        assert_eq!(d.tag_name(ship).unwrap(), "shipTo");
        assert_eq!(d.text_content(root).unwrap(), "Alice Smith");
        assert_eq!(d.parent(name).unwrap(), Some(ship));
        assert_eq!(d.child_count(root).unwrap(), 1);
    }

    #[test]
    fn attributes_set_replace_remove() {
        let (mut d, root) = doc_with_root("shipTo");
        d.set_attribute(root, "country", "US").unwrap();
        assert_eq!(d.attribute(root, "country").unwrap(), Some("US"));
        d.set_attribute(root, "country", "DE").unwrap();
        assert_eq!(d.attribute(root, "country").unwrap(), Some("DE"));
        assert_eq!(d.attributes(root).unwrap().len(), 1);
        assert_eq!(
            d.remove_attribute(root, "country").unwrap(),
            Some("DE".into())
        );
        assert_eq!(d.attribute(root, "country").unwrap(), None);
    }

    #[test]
    fn replace_attributes_restores_order() {
        let (mut d, root) = doc_with_root("item");
        d.set_attribute(root, "partNum", "926-AA").unwrap();
        d.set_attribute(root, "extra", "x").unwrap();
        let saved = d.attributes(root).unwrap().to_vec();
        d.remove_attribute(root, "partNum").unwrap();
        d.set_attribute(root, "partNum", "mangled").unwrap();
        // partNum is now *last*; replace restores the original order.
        let mangled = d.replace_attributes(root, saved.clone()).unwrap();
        assert_eq!(&*mangled[0].name, "extra");
        assert_eq!(mangled[1].value, "mangled");
        assert_eq!(d.attributes(root).unwrap(), &saved[..]);
        assert!(matches!(
            d.replace_attributes(
                root,
                vec![Attribute {
                    name: "a b".into(),
                    value: "v".into()
                }]
            ),
            Err(DomError::BadName(_))
        ));
    }

    #[test]
    fn bad_names_rejected() {
        let mut d = Document::new();
        assert!(matches!(
            d.create_element("1bad"),
            Err(DomError::BadName(_))
        ));
        let (mut d, root) = doc_with_root("ok");
        assert!(matches!(
            d.set_attribute(root, "a b", "v"),
            Err(DomError::BadName(_))
        ));
    }

    #[test]
    fn second_root_element_rejected() {
        let (mut d, _root) = doc_with_root("a");
        let b = d.create_element("b").unwrap();
        let doc_node = d.document_node();
        assert_eq!(
            d.append_child(doc_node, b),
            Err(DomError::SecondRootElement)
        );
        // but comments are fine at top level
        let c = d.create_comment("hi");
        d.append_child(doc_node, c).unwrap();
    }

    #[test]
    fn cycle_detection() {
        let (mut d, root) = doc_with_root("a");
        let child = d.create_element("b").unwrap();
        d.append_child(root, child).unwrap();
        d.detach(root).unwrap();
        assert!(matches!(
            d.append_child(child, root),
            Err(DomError::WouldCreateCycle { .. })
        ));
    }

    #[test]
    fn double_attach_rejected() {
        let (mut d, root) = doc_with_root("a");
        let child = d.create_element("b").unwrap();
        d.append_child(root, child).unwrap();
        assert_eq!(
            d.append_child(root, child),
            Err(DomError::StillAttached(child))
        );
    }

    #[test]
    fn remove_frees_subtree_and_invalidates_ids() {
        let (mut d, root) = doc_with_root("a");
        let child = d.create_element("b").unwrap();
        d.append_child(root, child).unwrap();
        let grand = d.create_text("t");
        d.append_child(child, grand).unwrap();
        let before = d.len();
        d.remove(child).unwrap();
        assert_eq!(d.len(), before - 2);
        assert!(matches!(d.kind(child), Err(DomError::StaleNode(_))));
        assert!(matches!(d.kind(grand), Err(DomError::StaleNode(_))));
        // slot reuse gets a fresh generation
        let reused = d.create_element("c").unwrap();
        assert_ne!(reused, child);
        assert!(d.kind(reused).is_ok());
    }

    #[test]
    fn detach_and_reinsert_elsewhere() {
        let (mut d, root) = doc_with_root("a");
        let x = d.create_element("x").unwrap();
        let y = d.create_element("y").unwrap();
        d.append_child(root, x).unwrap();
        d.append_child(root, y).unwrap();
        d.detach(x).unwrap();
        d.append_child(y, x).unwrap();
        assert_eq!(d.parent(x).unwrap(), Some(y));
        assert_eq!(d.child_vec(root).unwrap(), vec![y]);
    }

    #[test]
    fn insert_child_positions() {
        let (mut d, root) = doc_with_root("a");
        let x = d.create_element("x").unwrap();
        let y = d.create_element("y").unwrap();
        let z = d.create_element("z").unwrap();
        d.append_child(root, x).unwrap();
        d.append_child(root, z).unwrap();
        d.insert_child(root, 1, y).unwrap();
        let names: Vec<_> = d
            .child_vec(root)
            .unwrap()
            .into_iter()
            .map(|c| d.tag_name(c).unwrap().to_string())
            .collect();
        assert_eq!(names, ["x", "y", "z"]);
        let w = d.create_element("w").unwrap();
        assert!(matches!(
            d.insert_child(root, 9, w),
            Err(DomError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn import_subtree_deep_copies() {
        let (mut src, root) = doc_with_root("a");
        let child = src.create_element("b").unwrap();
        src.set_attribute(child, "k", "v").unwrap();
        src.append_child(root, child).unwrap();
        let t = src.create_text("hello");
        src.append_child(child, t).unwrap();

        let mut dst = Document::new();
        let copy = dst.import_subtree(&src, root).unwrap();
        assert_eq!(dst.tag_name(copy).unwrap(), "a");
        let b = dst.child_element_named(copy, "b").unwrap();
        assert_eq!(dst.attribute(b, "k").unwrap(), Some("v"));
        assert_eq!(dst.text_content(copy).unwrap(), "hello");
        // mutation of the copy does not affect the source
        dst.set_attribute(b, "k", "w").unwrap();
        let src_b = src.child_element_named(root, "b").unwrap();
        assert_eq!(src.attribute(src_b, "k").unwrap(), Some("v"));
    }

    #[test]
    fn append_new_builds_in_one_step() {
        let mut d = Document::new();
        let dn = d.document_node();
        let span = Span {
            start: xmlchars::Position::START,
            end: xmlchars::Position::START,
        };
        let element = |name: &str, attrs: &[&str]| NodeKind::Element {
            name: name.into(),
            attributes: attrs
                .iter()
                .map(|&a| Attribute {
                    name: a.into(),
                    value: "v".into(),
                })
                .collect(),
        };
        let root = d.append_new(dn, element("a", &["k"]), span).unwrap();
        let text = d
            .append_new(root, NodeKind::Text("t".into()), span)
            .unwrap();
        let b = d.append_new(root, element("b", &[]), span).unwrap();
        assert_eq!(d.root_element(), Some(root));
        assert_eq!(d.child_vec(root).unwrap(), vec![text, b]);
        assert_eq!(d.parent(b).unwrap(), Some(root));
        assert_eq!(d.span(text).unwrap(), span);
        assert_eq!(d.attribute(root, "k").unwrap(), Some("v"));

        // what the checked calls refuse, append_new refuses too
        let refused = [
            (dn, element("second", &[]), DomError::SecondRootElement),
            (
                text,
                NodeKind::Comment("c".into()),
                DomError::NotAContainer(text),
            ),
            (root, element("1x", &[]), DomError::BadName("1x".into())),
            (
                root,
                element("c", &["a b"]),
                DomError::BadName("a b".into()),
            ),
            (root, NodeKind::Document, DomError::NotAnElement(root)),
        ];
        for (parent, kind, error) in refused {
            assert_eq!(d.append_new(parent, kind, span), Err(error));
        }
        d.remove(b).unwrap();
        assert!(matches!(
            d.append_new(b, element("c", &[]), span),
            Err(DomError::StaleNode(_))
        ));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn lone_child_moves_to_the_heap_and_back() {
        let (mut d, root) = doc_with_root("a");
        let x = d.create_element("x").unwrap();
        let y = d.create_element("y").unwrap();
        d.append_child(root, y).unwrap();
        d.insert_child(root, 0, x).unwrap();
        assert_eq!(d.child_slice(root).unwrap(), &[x, y]);
        d.detach(x).unwrap();
        d.detach(y).unwrap();
        assert_eq!(d.child_count(root).unwrap(), 0);
        d.append_child(root, y).unwrap();
        d.detach(x).unwrap();
        assert_eq!(d.child_slice(root).unwrap(), &[y]);
        d.remove(y).unwrap();
        assert!(d.children(root).next().is_none());
    }

    #[test]
    fn child_element_named_skips_text() {
        let (mut d, root) = doc_with_root("a");
        let t = d.create_text("noise");
        d.append_child(root, t).unwrap();
        let b = d.create_element("b").unwrap();
        d.append_child(root, b).unwrap();
        assert_eq!(d.child_element_named(root, "b"), Some(b));
        assert_eq!(d.child_element_named(root, "zzz"), None);
    }
}
