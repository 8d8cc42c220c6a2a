//! Tree traversal helpers: depth-first iteration, ancestor walks, and
//! element search, all non-recursive so deep documents cannot overflow the
//! stack.

use crate::document::{Document, NodeId};
use crate::node::NodeKind;

/// Iterator over a subtree in document order (pre-order DFS), including
/// the starting node.
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let next = self.stack.pop()?;
        if let Ok(children) = self.doc.child_vec(next) {
            self.stack.extend(children.into_iter().rev());
        }
        Some(next)
    }
}

/// Iterator over the ancestors of a node, starting with its parent.
pub struct Ancestors<'a> {
    doc: &'a Document,
    current: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let current = self.current?;
        let parent = self.doc.parent(current).ok().flatten();
        self.current = parent;
        parent
    }
}

impl Document {
    /// Pre-order depth-first traversal of the subtree rooted at `root`,
    /// including `root` itself.
    pub fn descendants(&self, root: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: vec![root],
        }
    }

    /// The ancestors of `node`, nearest first (excluding `node`).
    pub fn ancestors(&self, node: NodeId) -> Ancestors<'_> {
        Ancestors {
            doc: self,
            current: Some(node),
        }
    }

    /// All descendant elements with the given tag name, in document order.
    pub fn elements_named<'a>(
        &'a self,
        root: NodeId,
        name: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.descendants(root).filter(move |&n| {
            matches!(self.kind(n), Ok(NodeKind::Element { name: tag, .. }) if **tag == *name)
        })
    }

    /// Depth of `node` below the document node (document node = 0).
    pub fn depth(&self, node: NodeId) -> usize {
        self.ancestors(node).count()
    }

    /// Resolves a namespace prefix at `node` by scanning `xmlns`/`xmlns:p`
    /// attributes on the node and its ancestors, nearest first.
    ///
    /// `prefix = None` looks up the default namespace. Returns `None` when
    /// no declaration is in scope (or the default namespace is undeclared
    /// via `xmlns=""`).
    pub fn namespace_of_prefix(&self, node: NodeId, prefix: Option<&str>) -> Option<String> {
        let attr_name = match prefix {
            Some(p) => format!("xmlns:{p}"),
            None => "xmlns".to_string(),
        };
        let mut current = Some(node);
        while let Some(n) = current {
            if let Ok(Some(uri)) = self.attribute(n, &attr_name) {
                if uri.is_empty() {
                    return None;
                }
                return Some(uri.to_string());
            }
            current = self.parent(n).ok().flatten();
        }
        // The xml prefix is implicitly bound.
        if prefix == Some("xml") {
            return Some("http://www.w3.org/XML/1998/namespace".to_string());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::new();
        let root = d.create_element("root").unwrap();
        let dn = d.document_node();
        d.append_child(dn, root).unwrap();
        let a = d.create_element("a").unwrap();
        let b = d.create_element("b").unwrap();
        d.append_child(root, a).unwrap();
        d.append_child(root, b).unwrap();
        let inner = d.create_element("a").unwrap();
        d.append_child(b, inner).unwrap();
        (d, root, a, b)
    }

    #[test]
    fn descendants_in_document_order() {
        let (d, root, a, b) = sample();
        let names: Vec<_> = d
            .descendants(root)
            .map(|n| d.tag_name(n).unwrap().to_string())
            .collect();
        assert_eq!(names, ["root", "a", "b", "a"]);
        let _ = (a, b);
    }

    #[test]
    fn ancestors_nearest_first() {
        let (d, root, _a, b) = sample();
        let inner = d.child_elements(b).next().unwrap();
        let chain: Vec<_> = d.ancestors(inner).collect();
        assert_eq!(chain[0], b);
        assert_eq!(chain[1], root);
        assert_eq!(chain[2], d.document_node());
        assert_eq!(chain.len(), 3);
    }

    #[test]
    fn elements_named_finds_all() {
        let (d, root, _a, _b) = sample();
        assert_eq!(d.elements_named(root, "a").count(), 2);
        assert_eq!(d.elements_named(root, "b").count(), 1);
        assert_eq!(d.elements_named(root, "zzz").count(), 0);
    }

    #[test]
    fn depth_counts_levels() {
        let (d, root, a, b) = sample();
        assert_eq!(d.depth(root), 1);
        assert_eq!(d.depth(a), 2);
        let inner = d.child_elements(b).next().unwrap();
        assert_eq!(d.depth(inner), 3);
    }

    #[test]
    fn namespace_resolution_walks_ancestors() {
        let mut d = Document::new();
        let root = d.create_element("root").unwrap();
        let dn = d.document_node();
        d.append_child(dn, root).unwrap();
        d.set_attribute(root, "xmlns", "urn:default").unwrap();
        d.set_attribute(root, "xmlns:x", "urn:x").unwrap();
        let child = d.create_element("c").unwrap();
        d.append_child(root, child).unwrap();

        assert_eq!(
            d.namespace_of_prefix(child, None),
            Some("urn:default".to_string())
        );
        assert_eq!(
            d.namespace_of_prefix(child, Some("x")),
            Some("urn:x".into())
        );
        assert_eq!(d.namespace_of_prefix(child, Some("y")), None);
        assert_eq!(
            d.namespace_of_prefix(child, Some("xml")),
            Some("http://www.w3.org/XML/1998/namespace".into())
        );

        // xmlns="" undeclares the default
        d.set_attribute(child, "xmlns", "").unwrap();
        assert_eq!(d.namespace_of_prefix(child, None), None);
    }
}
