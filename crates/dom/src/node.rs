//! Node payloads: the data stored per arena slot.
//!
//! Element and attribute names are `Arc<str>`: a document names a few
//! dozen distinct things, so the tree builder hands every equal name the
//! same allocation, and a subtree copied into another document shares
//! its names instead of copying them.

use std::sync::Arc;

use xmlchars::Span;

use crate::document::NodeId;

/// A single attribute on an element, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Lexical attribute name (may carry a prefix, e.g. `xml:lang`).
    pub name: Arc<str>,
    /// Attribute value after entity resolution.
    pub value: String,
}

/// The kind-specific payload of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The document node: the unique tree root. Holds no payload; its
    /// children are the root element plus any top-level comments/PIs.
    Document,
    /// An element with a lexical tag name and attributes.
    Element {
        /// Lexical tag name as written (`shipTo`, `xsd:element`).
        name: Arc<str>,
        /// Attributes in document order.
        attributes: Vec<Attribute>,
    },
    /// Character data (text and resolved CDATA sections).
    Text(String),
    /// A comment (without the `<!--`/`-->` delimiters).
    Comment(String),
    /// A processing instruction.
    ProcessingInstruction {
        /// The PI target.
        target: String,
        /// The PI data (may be empty).
        data: String,
    },
}

impl NodeKind {
    /// Whether this kind may hold children.
    pub fn is_container(&self) -> bool {
        matches!(self, NodeKind::Document | NodeKind::Element { .. })
    }

    /// Whether this is an element node.
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element { .. })
    }

    /// Whether this is a text node.
    pub fn is_text(&self) -> bool {
        matches!(self, NodeKind::Text(_))
    }
}

/// Internal arena slot: payload plus tree links.
#[derive(Debug, Clone)]
pub(crate) struct NodeData {
    pub(crate) kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: ChildList,
    /// Source span when the node came from the parser; default otherwise.
    pub(crate) span: Span,
    /// Incremented when the node is removed, so stale ids are detected.
    pub(crate) generation: u32,
    pub(crate) alive: bool,
}

/// A node's children in document order. Most elements of a
/// data-centric document hold a single text node, so a lone child is
/// kept in place and only a second one moves the list to the heap.
#[derive(Debug, Clone)]
pub(crate) enum ChildList {
    One(Option<NodeId>),
    Many(Vec<NodeId>),
}

impl Default for ChildList {
    fn default() -> Self {
        ChildList::One(None)
    }
}

impl ChildList {
    pub(crate) fn as_slice(&self) -> &[NodeId] {
        match self {
            ChildList::One(child) => child.as_slice(),
            ChildList::Many(children) => children,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Inserts `child` at `index` (at most [`len`](Self::len)).
    pub(crate) fn insert(&mut self, index: usize, child: NodeId) {
        match self {
            ChildList::One(slot @ None) => *slot = Some(child),
            ChildList::One(Some(first)) => {
                let mut children = Vec::with_capacity(4);
                children.push(*first);
                children.insert(index, child);
                *self = ChildList::Many(children);
            }
            ChildList::Many(children) => children.insert(index, child),
        }
    }

    pub(crate) fn push(&mut self, child: NodeId) {
        self.insert(self.len(), child);
    }

    /// Removes `child` if it is in the list.
    pub(crate) fn remove(&mut self, child: NodeId) {
        match self {
            ChildList::One(slot) if *slot == Some(child) => *slot = None,
            ChildList::One(_) => {}
            ChildList::Many(children) => children.retain(|&c| c != child),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(NodeKind::Document.is_container());
        let el = NodeKind::Element {
            name: "a".into(),
            attributes: Vec::new(),
        };
        assert!(el.is_container());
        assert!(el.is_element());
        assert!(!el.is_text());
        assert!(NodeKind::Text("x".into()).is_text());
        assert!(!NodeKind::Comment("c".into()).is_container());
    }
}
