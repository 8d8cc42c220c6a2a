//! Validation errors with source positions.

use std::fmt;

use limits::ResourceErrorKind;
use xmlchars::Span;

/// One schema violation found in a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// What is wrong.
    pub kind: ValidationErrorKind,
    /// Where, from the parser's recorded spans. `None` when the violating
    /// node has no source position — trees built programmatically, or
    /// whole-document conditions like a missing root.
    pub span: Option<Span>,
}

impl ValidationError {
    pub(crate) fn at(kind: ValidationErrorKind, span: Span) -> Self {
        ValidationError {
            kind,
            span: Some(span),
        }
    }

    pub(crate) fn at_opt(kind: ValidationErrorKind, span: Option<Span>) -> Self {
        ValidationError { kind, span }
    }

    pub(crate) fn nowhere(kind: ValidationErrorKind) -> Self {
        ValidationError { kind, span: None }
    }
}

/// The kinds of schema violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationErrorKind {
    /// The document has no root element at all.
    NoRootElement,
    /// The root element is not declared in the schema.
    UndeclaredRoot(String),
    /// An abstract element appeared in the instance.
    AbstractElement(String),
    /// An element whose type is abstract appeared in the instance.
    AbstractType(String),
    /// A child element violated the parent's content model.
    UnexpectedChild {
        /// Parent element name.
        parent: String,
        /// Offending child name.
        child: String,
        /// What the content model expected instead.
        expected: Vec<String>,
    },
    /// The element ended before its content model was satisfied.
    IncompleteContent {
        /// Element name.
        element: String,
        /// Elements still expected.
        expected: Vec<String>,
    },
    /// Character data in element-only content.
    TextNotAllowed {
        /// Element name.
        element: String,
    },
    /// A simple-typed element's text failed validation.
    SimpleType {
        /// Element name.
        element: String,
        /// Underlying simple-type error.
        message: String,
    },
    /// An attribute value failed simple-type validation.
    AttributeValue {
        /// Element name.
        element: String,
        /// Attribute name.
        attribute: String,
        /// Underlying simple-type error.
        message: String,
    },
    /// A `fixed` attribute carried a different value.
    FixedAttribute {
        /// Element name.
        element: String,
        /// Attribute name.
        attribute: String,
        /// The fixed value required by the schema.
        fixed: String,
        /// The value actually present.
        actual: String,
    },
    /// A required attribute is absent.
    MissingAttribute {
        /// Element name.
        element: String,
        /// Attribute name.
        attribute: String,
    },
    /// An attribute not declared for the element's type.
    UndeclaredAttribute {
        /// Element name.
        element: String,
        /// Attribute name.
        attribute: String,
    },
    /// The input could not be parsed at all (streaming entry points,
    /// which take raw text rather than an already-parsed tree).
    NotWellFormed(String),
    /// A resource budget tripped and checking stopped — distinct from
    /// both well-formedness and validity: the document was not proven
    /// wrong, the work was cut off. The error list up to this marker is
    /// a prefix of what an unbounded run would have produced.
    Resource(ResourceErrorKind),
}

impl ValidationErrorKind {
    /// A stable, payload-free name for this kind — the `kind` label of
    /// the `validator_errors_total` metric.
    pub fn label(&self) -> &'static str {
        match self {
            ValidationErrorKind::NoRootElement => "NoRootElement",
            ValidationErrorKind::UndeclaredRoot(_) => "UndeclaredRoot",
            ValidationErrorKind::AbstractElement(_) => "AbstractElement",
            ValidationErrorKind::AbstractType(_) => "AbstractType",
            ValidationErrorKind::UnexpectedChild { .. } => "UnexpectedChild",
            ValidationErrorKind::IncompleteContent { .. } => "IncompleteContent",
            ValidationErrorKind::TextNotAllowed { .. } => "TextNotAllowed",
            ValidationErrorKind::SimpleType { .. } => "SimpleType",
            ValidationErrorKind::AttributeValue { .. } => "AttributeValue",
            ValidationErrorKind::FixedAttribute { .. } => "FixedAttribute",
            ValidationErrorKind::MissingAttribute { .. } => "MissingAttribute",
            ValidationErrorKind::UndeclaredAttribute { .. } => "UndeclaredAttribute",
            ValidationErrorKind::NotWellFormed(_) => "NotWellFormed",
            ValidationErrorKind::Resource(kind) => kind.label(),
        }
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.span {
            Some(span) => write!(f, "{} at {}", self.kind, span),
            None => write!(f, "{} (no source position)", self.kind),
        }
    }
}

impl fmt::Display for ValidationErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationErrorKind::NoRootElement => write!(f, "document has no root element"),
            ValidationErrorKind::UndeclaredRoot(n) => {
                write!(f, "root element <{n}> is not declared in the schema")
            }
            ValidationErrorKind::AbstractElement(n) => {
                write!(f, "abstract element <{n}> may not appear in instances")
            }
            ValidationErrorKind::AbstractType(n) => {
                write!(f, "abstract type {n} may not appear in instances")
            }
            ValidationErrorKind::UnexpectedChild {
                parent,
                child,
                expected,
            } => {
                write!(f, "<{child}> is not allowed here in <{parent}>")?;
                if !expected.is_empty() {
                    write!(f, "; expected one of: {}", expected.join(", "))?;
                }
                Ok(())
            }
            ValidationErrorKind::IncompleteContent { element, expected } => {
                write!(
                    f,
                    "<{element}> is incomplete; expected: {}",
                    expected.join(", ")
                )
            }
            ValidationErrorKind::TextNotAllowed { element } => {
                write!(f, "character data is not allowed in <{element}>")
            }
            ValidationErrorKind::SimpleType { element, message } => {
                write!(f, "content of <{element}>: {message}")
            }
            ValidationErrorKind::AttributeValue {
                element,
                attribute,
                message,
            } => write!(f, "attribute {attribute} of <{element}>: {message}"),
            ValidationErrorKind::FixedAttribute {
                element,
                attribute,
                fixed,
                actual,
            } => write!(
                f,
                "attribute {attribute} of <{element}> is fixed to {fixed:?} but is {actual:?}"
            ),
            ValidationErrorKind::MissingAttribute { element, attribute } => {
                write!(f, "<{element}> is missing required attribute {attribute}")
            }
            ValidationErrorKind::UndeclaredAttribute { element, attribute } => {
                write!(f, "attribute {attribute} is not declared for <{element}>")
            }
            ValidationErrorKind::NotWellFormed(message) => {
                write!(f, "document is not well-formed: {message}")
            }
            ValidationErrorKind::Resource(kind) => {
                write!(f, "resource budget exceeded: {kind}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}
