//! A generic Document Object Model, the substrate the paper's V-DOM
//! extends (Sect. 2, Fig. 4).
//!
//! The model mirrors DOM Level 1's structure — a document owning a tree of
//! element, text, comment and processing-instruction nodes with string
//! attributes — but uses an **arena** representation: all nodes live in a
//! `Vec` inside [`Document`] and are addressed by copyable [`NodeId`]
//! handles. This avoids `Rc<RefCell<…>>` cycles, keeps nodes contiguous in
//! memory, and makes the typed layer in the `vdom` crate cheap (a typed
//! handle is a `NodeId` plus a schema component reference).
//!
//! Like DOM's `Element` interface, nodes here are *unityped*: nothing stops
//! a caller from appending a `zip` element under `items`. That is exactly
//! the deficiency the paper's V-DOM corrects; the runtime `validator` crate
//! and the typed `vdom` crate both build on this one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod document;
pub mod dump;
pub mod error;
pub mod node;
pub mod serialize;
pub mod traversal;

pub use document::{Document, NodeId, NodeView};
pub use dump::dump_tree;
pub use error::DomError;
pub use node::{Attribute, NodeKind};
pub use serialize::{serialize, serialize_pretty, SerializeOptions};
