//! Tree builder: turns the reader's borrowed event stream into a
//! [`dom::Document`], copying each text and value once, into the tree,
//! and each distinct name once per parse.

use std::collections::HashSet;
use std::sync::Arc;

use dom::{Attribute, Document, NodeId, NodeKind};
use limits::Limits;

use crate::error::{ParseError, ParseErrorKind};
use crate::event::BorrowedEvent;
use crate::reader::Reader;

/// Parses a complete XML document into a DOM tree.
///
/// Whitespace-only text *between* elements is preserved exactly as
/// written; callers that want it stripped (e.g. the schema reader) filter
/// text nodes themselves.
pub fn parse_document(src: &str) -> Result<Document, ParseError> {
    build(Reader::new(src), src)
}

/// [`parse_document`] under a resource budget: the reader enforces
/// `limits` (input size, depth, attributes, expansion volume) and a trip
/// aborts the build with [`ParseErrorKind::Resource`] before the tree can
/// grow past the budget.
pub fn parse_document_with_limits(src: &str, limits: &Limits) -> Result<Document, ParseError> {
    build(Reader::with_limits(src, limits.clone()), src)
}

/// Parses a fragment: a single element, optionally surrounded by
/// whitespace, without requiring a document prolog.
///
/// Returns the document plus the id of the fragment's root element. Used
/// by the P-XML constructor parser.
pub fn parse_fragment(src: &str) -> Result<(Document, NodeId), ParseError> {
    parse_fragment_with_limits(src, &Limits::unbounded())
}

/// [`parse_fragment`] under a resource budget — the incremental
/// revalidator (`validator::patch`) parses patch-supplied fragments with
/// the session's [`Limits`] so a hostile payload is rejected with a
/// typed [`ParseErrorKind::Resource`] before it can grow a tree.
pub fn parse_fragment_with_limits(
    src: &str,
    limits: &Limits,
) -> Result<(Document, NodeId), ParseError> {
    let doc = build(Reader::with_limits(src, limits.clone()), src)?;
    let root = doc.root_element().ok_or(ParseError::new(
        ParseErrorKind::NoRootElement,
        xmlchars::Position::START,
    ))?;
    Ok((doc, root))
}

/// Runs `reader` over `src` into a [`TreeBuilder`] whose arena is sized
/// for `src` up front: about one node per 16 bytes, a purchase order's
/// density (17.6 KB, 1 093 nodes), so a typical document's arena is
/// allocated once instead of regrown by doubling. Past 32 Ki nodes the
/// regrowth is amortized anyway, so a long text reserves at most 4 MiB.
fn build(mut reader: Reader<'_>, src: &str) -> Result<Document, ParseError> {
    let mut builder = TreeBuilder::with_capacity((src.len() / 16).min(1 << 15));
    loop {
        match reader.next_event_borrowed()? {
            BorrowedEvent::Eof => return Ok(builder.finish()),
            event => builder
                .push(event)
                .expect("the reader emits only well-formed events"),
        }
    }
}

/// An event sink that grows a [`Document`]: the one way to build a tree
/// from events, and what [`parse_document`] and [`parse_fragment`] loop
/// over.
///
/// Each event becomes at most one [`Document::append_new`] call, and a
/// text or value is copied only when the event borrows it. Equal element
/// and attribute names share one `Arc<str>` through the names seen in
/// this parse: the first 32 in a list compared directly (a document's
/// vocabulary is usually that small, and a short scan is cheaper than
/// hashing), the rest in a set. Both die with the builder, so hostile
/// input cannot grow a process-wide table, and the set hashes with
/// `std`'s randomly keyed
/// [`RandomState`](std::collections::hash_map::RandomState) because the
/// input chooses its keys.
#[derive(Debug)]
pub struct TreeBuilder {
    doc: Document,
    /// The open elements, above the document node at the bottom.
    stack: Vec<NodeId>,
    few_names: Vec<Arc<str>>,
    more_names: HashSet<Arc<str>>,
}

/// How many distinct names a [`TreeBuilder`] finds by comparison before
/// it hashes: enough for a purchase order's or a WML page's vocabulary,
/// few enough that a document of fresh names costs a bounded scan each.
const FEW_NAMES: usize = 32;

impl TreeBuilder {
    /// A builder holding an empty document with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> TreeBuilder {
        let doc = Document::with_capacity(nodes);
        let stack = vec![doc.document_node()];
        TreeBuilder {
            doc,
            stack,
            few_names: Vec::new(),
            more_names: HashSet::new(),
        }
    }

    /// Adds one event to the tree. Text outside the root element is
    /// dropped (the reader accepts only whitespace there), an end tag
    /// closes the innermost open element, and `Eof` is ignored. The
    /// error is [`Document::append_new`]'s, for an event stream no
    /// [`Reader`] produces (a second root element, a malformed name).
    pub fn push(&mut self, event: BorrowedEvent<'_, '_>) -> Result<(), dom::DomError> {
        let parent = *self.stack.last().expect("document node always present");
        match event {
            BorrowedEvent::StartElement {
                name,
                attributes,
                span,
                ..
            } => {
                let kind = NodeKind::Element {
                    name: self.name(name),
                    attributes: attributes
                        .iter()
                        .map(|a| Attribute {
                            name: self.name(a.name),
                            value: a.value.to_string(),
                        })
                        .collect(),
                };
                let el = self.doc.append_new(parent, kind, span)?;
                self.stack.push(el);
            }
            BorrowedEvent::EndElement { .. } => {
                if self.stack.len() > 1 {
                    self.stack.pop();
                }
            }
            BorrowedEvent::Text { text, span } => {
                if self.stack.len() > 1 {
                    let kind = NodeKind::Text(text.into_owned());
                    self.doc.append_new(parent, kind, span)?;
                }
            }
            BorrowedEvent::Comment { text, span } => {
                let kind = NodeKind::Comment(text.into_owned());
                self.doc.append_new(parent, kind, span)?;
            }
            BorrowedEvent::ProcessingInstruction { target, data, span } => {
                let kind = NodeKind::ProcessingInstruction {
                    target: target.to_string(),
                    data: data.into_owned(),
                };
                self.doc.append_new(parent, kind, span)?;
            }
            BorrowedEvent::Eof => {}
        }
        Ok(())
    }

    /// The shared copy of `name`, made on its first appearance.
    fn name(&mut self, name: &str) -> Arc<str> {
        if let Some(shared) = self.few_names.iter().find(|s| ***s == *name) {
            return shared.clone();
        }
        if let Some(shared) = self.more_names.get(name) {
            return shared.clone();
        }
        let shared: Arc<str> = name.into();
        if self.few_names.len() < FEW_NAMES {
            self.few_names.push(shared.clone());
        } else {
            self.more_names.insert(shared.clone());
        }
        shared
    }

    /// The document built so far.
    pub fn finish(self) -> Document {
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dom::serialize;
    use xmlchars::Span;

    #[test]
    fn roundtrip_compact_document() {
        let src = "<purchaseOrder orderDate=\"1999-10-20\"><shipTo country=\"US\"><name>Alice Smith</name><zip>90952</zip></shipTo><comment>Hurry!</comment></purchaseOrder>";
        let doc = parse_document(src).unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(serialize(&doc, root).unwrap(), src);
    }

    #[test]
    fn whitespace_between_elements_preserved() {
        let src = "<a>\n  <b/>\n</a>";
        let doc = parse_document(src).unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(serialize(&doc, root).unwrap(), src);
    }

    #[test]
    fn fragment_returns_root() {
        let (doc, root) =
            parse_fragment("  <shipTo country=\"US\"><name>A</name></shipTo>\n").unwrap();
        assert_eq!(doc.tag_name(root).unwrap(), "shipTo");
        assert_eq!(doc.attribute(root, "country").unwrap(), Some("US"));
    }

    #[test]
    fn parse_error_propagates() {
        assert!(parse_document("<a><b></a>").is_err());
        assert!(parse_fragment("no markup").is_err());
    }

    #[test]
    fn entities_resolved_in_tree() {
        let doc = parse_document("<a>x &lt; y &#38; z</a>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.text_content(root).unwrap(), "x < y & z");
    }

    #[test]
    fn comments_and_pis_in_tree() {
        let doc = parse_document("<!-- top --><a><?target data?></a>").unwrap();
        let dn = doc.document_node();
        assert_eq!(doc.child_count(dn).unwrap(), 2);
        let root = doc.root_element().unwrap();
        assert_eq!(doc.child_count(root).unwrap(), 1);
    }

    #[test]
    fn spans_recorded_on_elements() {
        let doc = parse_document("<a>\n<b/></a>").unwrap();
        let root = doc.root_element().unwrap();
        let b = doc.child_element_named(root, "b").unwrap();
        assert_eq!(doc.span(b).unwrap().start.line, 2);
    }

    #[test]
    fn equal_names_share_one_allocation() {
        let doc = parse_document("<a k=\"1\"><b k=\"2\"/><b/><a/></a>").unwrap();
        let kinds: Vec<_> = doc
            .descendants(doc.root_element().unwrap())
            .map(|n| doc.kind(n).unwrap().clone())
            .collect();
        let [NodeKind::Element {
            name: a,
            attributes: a_attrs,
        }, NodeKind::Element {
            name: b,
            attributes: b_attrs,
        }, NodeKind::Element { name: b2, .. }, NodeKind::Element { name: a2, .. }] = &kinds[..]
        else {
            panic!("{kinds:?}");
        };
        assert!(Arc::ptr_eq(a, a2) && Arc::ptr_eq(b, b2) && !Arc::ptr_eq(a, b));
        assert!(Arc::ptr_eq(&a_attrs[0].name, &b_attrs[0].name));
    }

    #[test]
    fn builder_refuses_what_no_reader_emits() {
        let mut builder = TreeBuilder::with_capacity(0);
        let root = BorrowedEvent::StartElement {
            name: "a",
            attributes: &[],
            self_closing: true,
            span: Span::default(),
        };
        let end = BorrowedEvent::EndElement {
            name: "a",
            span: Span::default(),
        };
        builder.push(root.clone()).unwrap();
        builder.push(end.clone()).unwrap();
        // a stray end tag closes nothing; a second root is refused
        builder.push(end.clone()).unwrap();
        assert_eq!(builder.push(root), Err(dom::DomError::SecondRootElement));
        let bad = BorrowedEvent::ProcessingInstruction {
            target: "1x",
            data: "".into(),
            span: Span::default(),
        };
        assert!(matches!(builder.push(bad), Err(dom::DomError::BadName(_))));
        assert_eq!(builder.finish().len(), 2);
    }

    #[test]
    fn spans_recorded_on_text_nodes() {
        let doc = parse_document("<a>\n<b/>hi</a>").unwrap();
        let root = doc.root_element().unwrap();
        let children = doc.child_vec(root).unwrap();
        // [text "\n", <b/>, text "hi"] — the trailing text starts on line 2
        let hi = children[2];
        let span = doc.span(hi).unwrap();
        assert_eq!(span.start.line, 2);
        assert!(span.end.offset > span.start.offset);
    }
}
