//! An XML 1.0 parser: a pull (event) reader with well-formedness
//! checking, plus a tree builder producing [`dom::Document`] values.
//!
//! Coverage matches the document class used throughout the paper and by
//! XML Schema instance documents: elements, attributes, character data,
//! CDATA sections, comments, processing instructions, the XML declaration,
//! the five predefined entities and character references, and namespace
//! *syntax* (prefixes are preserved; resolution lives in `dom`'s
//! `namespace_of_prefix`). Not supported — and rejected with a clear error
//! rather than silently ignored — are DOCTYPE declarations with internal
//! subsets (the paper's pipeline is schema-based, not DTD-based).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod event;
pub mod feed;
pub mod reader;
pub mod scan;
pub mod tree;

pub use error::{ParseError, ParseErrorKind};
pub use event::{BorrowedAttribute, BorrowedEvent};
pub use feed::FeedReader;
pub use reader::{Reader, ReaderStats};
pub use tree::{
    parse_document, parse_document_with_limits, parse_fragment, parse_fragment_with_limits,
    TreeBuilder,
};
