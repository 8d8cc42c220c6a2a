//! The events produced by the pull reader.
//!
//! There is one event type, the zero-copy [`BorrowedEvent`]: names are
//! slices of the source buffer, and text and values are `Cow`s that own
//! a copy only where entity resolution or normalization rewrote them.
//! Every consumer — the tree builder, the streaming validator, the
//! chunked [`crate::FeedReader`] — reads this one stream; a consumer
//! that keeps data past the next event copies what it keeps (the tree
//! builder copies each text and value once, into the tree, and each
//! distinct name once per parse).

use std::borrow::Cow;

use xmlchars::Span;

/// One attribute as read from a start tag, borrowing the source buffer.
///
/// The name is always a slice of the source; the value is borrowed
/// unless attribute-value normalization or entity resolution actually
/// rewrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BorrowedAttribute<'src> {
    /// Lexical attribute name (a slice of the source).
    pub name: &'src str,
    /// Value after normalization; borrowed when already normal.
    pub value: Cow<'src, str>,
}

/// A parsing event borrowing the source buffer (`'src`) and, for start
/// tags, the reader's reusable attribute buffer (`'buf`).
///
/// Produced by [`crate::Reader::next_event_borrowed`]; for documents
/// without entity references, producing one of these performs no heap
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BorrowedEvent<'src, 'buf> {
    /// `<name attr="v" …>` — `self_closing` distinguishes `<name/>`.
    StartElement {
        /// Lexical tag name (a slice of the source).
        name: &'src str,
        /// Attributes in document order, in the reader's reused buffer.
        attributes: &'buf [BorrowedAttribute<'src>],
        /// Whether the tag was `<name/>`; the reader still emits a
        /// matching end event immediately after.
        self_closing: bool,
        /// Source span of the tag.
        span: Span,
    },
    /// `</name>` (also synthesized after a self-closing start tag).
    EndElement {
        /// Lexical tag name (a slice of the source).
        name: &'src str,
        /// Source span of the tag.
        span: Span,
    },
    /// Character data; borrowed unless entity resolution rewrote it.
    /// CDATA sections are folded in (always borrowed).
    Text {
        /// Resolved text.
        text: Cow<'src, str>,
        /// Source span of the run.
        span: Span,
    },
    /// `<!-- … -->` without the delimiters; borrowed unless end-of-line
    /// normalization rewrote a `\r`.
    Comment {
        /// Comment body.
        text: Cow<'src, str>,
        /// Source span.
        span: Span,
    },
    /// `<?target data?>`.
    ProcessingInstruction {
        /// PI target.
        target: &'src str,
        /// PI data, possibly empty; borrowed unless end-of-line
        /// normalization rewrote a `\r`.
        data: Cow<'src, str>,
        /// Source span.
        span: Span,
    },
    /// End of input, after the root element closed.
    Eof,
}

impl BorrowedEvent<'_, '_> {
    /// Whether every string in the event borrows the source buffer (the
    /// zero-allocation case; `false` means entity expansion or
    /// normalization forced an owned copy somewhere).
    pub fn is_fully_borrowed(&self) -> bool {
        match self {
            BorrowedEvent::StartElement { attributes, .. } => attributes
                .iter()
                .all(|a| matches!(a.value, Cow::Borrowed(_))),
            BorrowedEvent::Text { text, .. } | BorrowedEvent::Comment { text, .. } => {
                matches!(text, Cow::Borrowed(_))
            }
            BorrowedEvent::ProcessingInstruction { data, .. } => matches!(data, Cow::Borrowed(_)),
            _ => true,
        }
    }
}
