//! The XML Schema subsystem: component model, XSD document reader,
//! built-in simple types, constraining facets, and resolution down to the
//! content automata of the `automata` crate.
//!
//! This is the substrate everything schema-aware in the workspace builds
//! on: the runtime `validator` (the baseline the paper argues against),
//! the typed `vdom` layer (the paper's contribution), the `codegen`
//! interface generator and the `pxml` preprocessor.
//!
//! # Profile
//!
//! The implementation covers the language the paper uses (Sect. 2–3 and
//! the purchase-order schema of Figs. 2–3): element declarations, complex
//! types with sequence/choice/`all` groups and occurrence constraints,
//! named model/attribute groups, anonymous types, simple-type restriction
//! with all twelve constraining facets, complex-type extension and
//! restriction, substitution groups, and abstract elements and types.
//! Identity constraints and wildcards are out of scope, exactly as the
//! paper states ("Currently we do not handle identity constraints and
//! wildcards"); `list`/`union` simple types and schema composition
//! (`import`/`include`) are rejected with explicit errors.
//!
//! # Example
//!
//! ```
//! use schema::CompiledSchema;
//!
//! let xsd = r#"
//! <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
//!   <xsd:element name="note" type="NoteType"/>
//!   <xsd:complexType name="NoteType">
//!     <xsd:sequence>
//!       <xsd:element name="body" type="xsd:string"/>
//!     </xsd:sequence>
//!   </xsd:complexType>
//! </xsd:schema>"#;
//! let compiled = CompiledSchema::parse(xsd).unwrap();
//! assert!(compiled.schema().element("note").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
pub mod compiled;
pub mod components;
pub mod corpus;
pub mod error;
pub mod facets;
pub mod reader;
pub mod resolve;
pub mod symtab;
pub mod value;

pub use builtin::BuiltinType;
pub use compiled::{interned_dfa_count, CompiledSchema};
pub use components::{
    AttributeGroupDef, AttributeUse, ComplexType, ContentModel, Derivation, DerivationMethod,
    ElementDecl, GroupDef, Occurs, Particle, Schema, SimpleType, Term, TypeDef, TypeRef,
};
pub use error::{SchemaError, SchemaErrorKind};
pub use facets::{CompiledPattern, Facet, FacetViolation};
pub use reader::{parse_schema, read_schema, XSD_NAMESPACE};
pub use resolve::{check_value, SimpleCheck, SimplePlan, SimpleTypeError};
pub use symtab::{AttrPlan, ContentPlan, ElemPlan, RootPlan, SymIndex};
