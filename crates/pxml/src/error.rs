//! Diagnostics produced by the P-XML static checker — the errors the
//! paper's preprocessor reports *without running the program* (Fig. 9).

use std::fmt;

use xmlchars::Position;

/// One static P-XML diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PxmlError {
    /// What is wrong.
    pub kind: PxmlErrorKind,
    /// Position within the template source.
    pub position: Position,
}

impl PxmlError {
    pub(crate) fn at(kind: PxmlErrorKind, position: Position) -> Self {
        PxmlError { kind, position }
    }
}

/// The kinds of static P-XML errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PxmlErrorKind {
    /// The template text is not a well-formed XML fragment.
    Parse(String),
    /// Bad `$…$` syntax.
    HoleSyntax(String),
    /// The root element's type cannot be determined from the schema.
    UnknownRootElement(String),
    /// An element whose declaration or type is abstract: only its
    /// substitution-group members or derived types may appear.
    Abstract(String),
    /// A `$var$` that is not in the type environment.
    UnboundVariable(String),
    /// An element-typed variable used inside an attribute value.
    ElementHoleInAttribute {
        /// The variable.
        variable: String,
        /// The attribute.
        attribute: String,
    },
    /// A child (element or element-typed hole) violates the content model.
    ContentModel {
        /// Parent element.
        parent: String,
        /// What was found.
        got: String,
        /// What the model expected.
        expected: Vec<String>,
    },
    /// A child element not declared in the parent's type at all.
    UnknownChild {
        /// Parent element.
        parent: String,
        /// The child.
        child: String,
    },
    /// Literal text (or a text hole) in element-only content.
    TextNotAllowed {
        /// The element.
        element: String,
    },
    /// Content ended before the model was satisfied.
    Incomplete {
        /// The element.
        element: String,
        /// Still expected.
        expected: Vec<String>,
    },
    /// An attribute not declared for the element's type.
    UndeclaredAttribute {
        /// The element.
        element: String,
        /// The attribute.
        attribute: String,
    },
    /// A literal attribute value failing its simple type or `fixed`.
    BadAttributeValue {
        /// The element.
        element: String,
        /// The attribute.
        attribute: String,
        /// Why.
        message: String,
    },
    /// A required attribute missing from the constructor.
    MissingAttribute {
        /// The element.
        element: String,
        /// The attribute.
        attribute: String,
    },
    /// Literal simple-typed content failing validation.
    BadSimpleValue {
        /// The element.
        element: String,
        /// Why.
        message: String,
    },
}

impl fmt::Display for PxmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.position)
    }
}

impl fmt::Display for PxmlErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PxmlErrorKind::Parse(m) => write!(f, "template parse error: {m}"),
            PxmlErrorKind::HoleSyntax(m) => write!(f, "hole syntax error: {m}"),
            PxmlErrorKind::UnknownRootElement(n) => {
                write!(f, "cannot determine the schema type of root element <{n}>")
            }
            PxmlErrorKind::Abstract(n) => {
                write!(f, "<{n}> is abstract and cannot be instantiated")
            }
            PxmlErrorKind::UnboundVariable(v) => write!(f, "unbound variable ${v}$"),
            PxmlErrorKind::ElementHoleInAttribute {
                variable,
                attribute,
            } => write!(
                f,
                "element variable ${variable}$ cannot appear in attribute {attribute}"
            ),
            PxmlErrorKind::ContentModel {
                parent,
                got,
                expected,
            } => write!(
                f,
                "<{got}> is not allowed here in <{parent}>; expected: {}",
                expected.join(", ")
            ),
            PxmlErrorKind::UnknownChild { parent, child } => {
                write!(f, "<{child}> is not declared inside the type of <{parent}>")
            }
            PxmlErrorKind::TextNotAllowed { element } => {
                write!(f, "character data is not allowed in <{element}>")
            }
            PxmlErrorKind::Incomplete { element, expected } => write!(
                f,
                "<{element}> is incomplete; still expecting: {}",
                expected.join(", ")
            ),
            PxmlErrorKind::UndeclaredAttribute { element, attribute } => {
                write!(f, "attribute {attribute} is not declared for <{element}>")
            }
            PxmlErrorKind::BadAttributeValue {
                element,
                attribute,
                message,
            } => write!(f, "attribute {attribute} of <{element}>: {message}"),
            PxmlErrorKind::MissingAttribute { element, attribute } => {
                write!(f, "<{element}> is missing required attribute {attribute}")
            }
            PxmlErrorKind::BadSimpleValue { element, message } => {
                write!(f, "content of <{element}>: {message}")
            }
        }
    }
}

impl std::error::Error for PxmlError {}
