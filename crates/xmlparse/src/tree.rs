//! Tree builder: turns the reader's borrowed event stream into a
//! [`dom::Document`], copying each name and value once, into the tree.

use dom::{Document, NodeId};
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
    build(Reader::new(src))
}

/// [`parse_document`] under a resource budget: the reader enforces
/// `limits` (input size, depth, attributes, expansion volume) and a trip
/// aborts the build with [`ParseErrorKind::Resource`] before the tree can
/// grow past the budget.
pub fn parse_document_with_limits(src: &str, limits: &Limits) -> Result<Document, ParseError> {
    build(Reader::with_limits(src, limits.clone()))
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
    let doc = build(Reader::with_limits(src, limits.clone()))?;
    let root = doc.root_element().ok_or(ParseError::new(
        ParseErrorKind::NoRootElement,
        xmlchars::Position::START,
    ))?;
    Ok((doc, root))
}

fn build(mut reader: Reader<'_>) -> Result<Document, ParseError> {
    let mut doc = Document::new();
    let mut stack: Vec<NodeId> = vec![doc.document_node()];
    loop {
        match reader.next_event_borrowed()? {
            BorrowedEvent::StartElement {
                name,
                attributes,
                span,
                ..
            } => {
                let el = doc
                    .create_element(name)
                    .map_err(|_| ParseError::new(ParseErrorKind::NoRootElement, span.start))?;
                doc.set_span(el, span).expect("fresh node");
                for attr in attributes {
                    doc.set_attribute(el, attr.name, &*attr.value)
                        .expect("reader validated attribute names");
                }
                let parent = *stack.last().expect("document node always present");
                doc.append_child(parent, el)
                    .expect("reader enforces single root");
                stack.push(el);
            }
            BorrowedEvent::EndElement { .. } => {
                stack.pop();
            }
            BorrowedEvent::Text { text, span } => {
                // Only keep text inside the root element; the reader already
                // rejects non-whitespace text outside it.
                if stack.len() > 1 {
                    let t = doc.create_text(text);
                    doc.set_span(t, span).expect("fresh node");
                    let parent = *stack.last().unwrap();
                    doc.append_child(parent, t).expect("text under element");
                }
            }
            BorrowedEvent::Comment { text, span } => {
                let c = doc.create_comment(text);
                doc.set_span(c, span).expect("fresh node");
                let parent = *stack.last().unwrap();
                doc.append_child(parent, c).expect("comment");
            }
            BorrowedEvent::ProcessingInstruction { target, data, span } => {
                let pi = doc
                    .create_pi(target, data)
                    .expect("reader validated PI target");
                doc.set_span(pi, span).expect("fresh node");
                let parent = *stack.last().unwrap();
                doc.append_child(parent, pi).expect("pi");
            }
            BorrowedEvent::Eof => break,
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dom::serialize;

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
