//! The schema component model: what an XML Schema *is* once parsed —
//! element declarations, type definitions, model groups and attribute
//! uses, mirroring the component vocabulary of XML Schema Part 1 at the
//! granularity the paper works with (single target namespace, no
//! wildcards or identity constraints; `all` lowered to sequence, as in
//! the paper's Sect. 3).

use std::collections::BTreeMap;

use crate::builtin::BuiltinType;
use crate::facets::Facet;

/// A reference to a type: either a built-in simple type or a named type
/// declared in the schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeRef {
    /// A built-in (`xsd:string`, `xsd:decimal`, …).
    Builtin(BuiltinType),
    /// A named type declared in this schema.
    Named(String),
    /// An anonymous type lifted by the reader; the name is generated and
    /// registered in [`Schema::types`], flagged so normalization can tell
    /// (paper Sect. 3, normal-form rule 2).
    Anonymous(String),
}

impl TypeRef {
    /// The name under which the type is (or was registered) in the schema.
    pub fn name(&self) -> &str {
        match self {
            TypeRef::Builtin(b) => b.name(),
            TypeRef::Named(n) | TypeRef::Anonymous(n) => n,
        }
    }
}

/// A top-level element declaration.
#[derive(Debug, Clone)]
pub struct ElementDecl {
    /// Element name.
    pub name: String,
    /// Declared type.
    pub type_ref: TypeRef,
    /// Head element of the substitution group this element belongs to.
    pub substitution_group: Option<String>,
    /// Abstract elements may not appear in instances; only members of
    /// their substitution group may.
    pub is_abstract: bool,
}

/// Occurrence bounds on a particle (`minOccurs`/`maxOccurs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurs {
    /// Minimum occurrences.
    pub min: u32,
    /// Maximum occurrences; `None` = `unbounded`.
    pub max: Option<u32>,
}

impl Occurs {
    /// The default `(1, 1)`.
    pub const ONCE: Occurs = Occurs {
        min: 1,
        max: Some(1),
    };

    /// Whether this is the default occurrence.
    pub fn is_once(self) -> bool {
        self == Occurs::ONCE
    }

    /// Whether `maxOccurs > 1` (a "list expression" in the paper's
    /// terminology, footnote 2).
    pub fn is_list(self) -> bool {
        self.max.map(|m| m > 1).unwrap_or(true)
    }
}

/// A particle: a term plus occurrence bounds.
#[derive(Debug, Clone)]
pub struct Particle {
    /// The term.
    pub term: Term,
    /// Occurrence bounds.
    pub occurs: Occurs,
}

/// The term of a particle.
#[derive(Debug, Clone)]
pub enum Term {
    /// A locally declared element: `<xsd:element name="…" type="…"/>`.
    Element {
        /// Element name.
        name: String,
        /// Declared type.
        type_ref: TypeRef,
    },
    /// A reference to a top-level element: `<xsd:element ref="comment"/>`.
    ElementRef(String),
    /// A sequence group.
    Sequence(Vec<Particle>),
    /// A choice group.
    Choice(Vec<Particle>),
    /// An `all` group (lowered to sequence semantics, paper Sect. 3).
    All(Vec<Particle>),
    /// A reference to a named model group: `<xsd:group ref="…"/>`.
    GroupRef(String),
}

/// How a complex type derives from its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DerivationMethod {
    /// `<xsd:extension>` — appends content, adds attributes.
    Extension,
    /// `<xsd:restriction>` — narrows content/attributes.
    Restriction,
}

/// Derivation info for a complex type.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// The method.
    pub method: DerivationMethod,
    /// Name of the base complex type.
    pub base: String,
}

/// Content of a complex type.
#[derive(Debug, Clone)]
pub enum ContentModel {
    /// No children, no character data.
    Empty,
    /// Character data of the given simple type (`simpleContent`).
    Simple(TypeRef),
    /// Child elements per the particle; `mixed` allows interleaved text.
    ElementOnly(Particle),
    /// Like `ElementOnly` but with interleaved character data.
    Mixed(Particle),
}

/// A complex type definition.
#[derive(Debug, Clone)]
pub struct ComplexType {
    /// Type name (generated for anonymous types).
    pub name: String,
    /// Whether the name was generated for an anonymous definition.
    pub anonymous: bool,
    /// Derivation, if this type extends/restricts another complex type.
    pub derivation: Option<Derivation>,
    /// The content model (own content only; extension content is merged
    /// during resolution).
    pub content: ContentModel,
    /// Attribute uses declared directly on this type.
    pub attributes: Vec<AttributeUse>,
    /// References to named attribute groups.
    pub attribute_groups: Vec<String>,
    /// Abstract types cannot appear directly in instances.
    pub is_abstract: bool,
}

/// A simple type definition (restriction of a base simple type; `list`
/// and `union` are outside this profile and rejected by the reader).
#[derive(Debug, Clone)]
pub struct SimpleType {
    /// Type name (generated for anonymous types).
    pub name: String,
    /// Whether the name was generated for an anonymous definition.
    pub anonymous: bool,
    /// The base: a built-in or another named simple type.
    pub base: TypeRef,
    /// Constraining facets, in declaration order.
    pub facets: Vec<Facet>,
}

/// A named type: complex or simple.
#[derive(Debug, Clone)]
pub enum TypeDef {
    /// Complex type.
    Complex(ComplexType),
    /// Simple type.
    Simple(SimpleType),
}

impl TypeDef {
    /// The type's name.
    pub fn name(&self) -> &str {
        match self {
            TypeDef::Complex(c) => &c.name,
            TypeDef::Simple(s) => &s.name,
        }
    }

    /// Whether the definition was anonymous in the source schema.
    pub fn is_anonymous(&self) -> bool {
        match self {
            TypeDef::Complex(c) => c.anonymous,
            TypeDef::Simple(s) => s.anonymous,
        }
    }
}

/// An attribute use on a complex type.
#[derive(Debug, Clone)]
pub struct AttributeUse {
    /// Attribute name.
    pub name: String,
    /// The attribute's simple type.
    pub type_ref: TypeRef,
    /// `use="required"`.
    pub required: bool,
    /// `fixed="…"` — the attribute, if present, must have this value.
    pub fixed: Option<String>,
    /// `default="…"`.
    pub default: Option<String>,
}

/// A named model group (`<xsd:group name="…">`).
#[derive(Debug, Clone)]
pub struct GroupDef {
    /// Group name.
    pub name: String,
    /// The group's particle (a sequence or choice).
    pub particle: Particle,
}

/// A named attribute group.
#[derive(Debug, Clone)]
pub struct AttributeGroupDef {
    /// Group name.
    pub name: String,
    /// The attribute uses.
    pub attributes: Vec<AttributeUse>,
}

/// A complete schema: the symbol tables for all component kinds.
///
/// `BTreeMap` keeps iteration deterministic, which matters for generated
/// code and golden tests.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    /// Target namespace URI, if declared.
    pub target_namespace: Option<String>,
    /// Top-level element declarations by name.
    pub elements: BTreeMap<String, ElementDecl>,
    /// Named type definitions (including lifted anonymous ones).
    pub types: BTreeMap<String, TypeDef>,
    /// Named model groups.
    pub groups: BTreeMap<String, GroupDef>,
    /// Named attribute groups.
    pub attribute_groups: BTreeMap<String, AttributeGroupDef>,
}

impl Schema {
    /// The elements whose `substitutionGroup` is `head` (directly or
    /// transitively), excluding `head` itself.
    pub fn substitution_members(&self, head: &str) -> Vec<&ElementDecl> {
        let mut out = Vec::new();
        let mut frontier = vec![head.to_string()];
        while let Some(current) = frontier.pop() {
            for decl in self.elements.values() {
                if decl.substitution_group.as_deref() == Some(current.as_str()) {
                    frontier.push(decl.name.clone());
                    out.push(decl);
                }
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Looks up a type definition by name.
    pub fn type_def(&self, name: &str) -> Option<&TypeDef> {
        self.types.get(name)
    }

    /// Looks up a top-level element declaration.
    pub fn element(&self, name: &str) -> Option<&ElementDecl> {
        self.elements.get(name)
    }

    /// Total number of named components (bench metric).
    pub fn component_count(&self) -> usize {
        self.elements.len() + self.types.len() + self.groups.len() + self.attribute_groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurs_helpers() {
        assert!(Occurs::ONCE.is_once());
        assert!(!Occurs::ONCE.is_list());
        assert!(Occurs { min: 0, max: None }.is_list());
        assert!(Occurs {
            min: 0,
            max: Some(5)
        }
        .is_list());
        assert!(!Occurs {
            min: 0,
            max: Some(1)
        }
        .is_list());
    }

    #[test]
    fn substitution_members_are_transitive() {
        let mut schema = Schema::default();
        for (name, head) in [
            ("comment", None),
            ("shipComment", Some("comment")),
            ("customerComment", Some("comment")),
            ("urgentShipComment", Some("shipComment")),
            ("unrelated", None),
        ] {
            schema.elements.insert(
                name.to_string(),
                ElementDecl {
                    name: name.to_string(),
                    type_ref: TypeRef::Builtin(BuiltinType::String),
                    substitution_group: head.map(str::to_string),
                    is_abstract: false,
                },
            );
        }
        let members: Vec<&str> = schema
            .substitution_members("comment")
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(
            members,
            ["customerComment", "shipComment", "urgentShipComment"]
        );
        assert!(schema.substitution_members("unrelated").is_empty());
    }

    #[test]
    fn type_ref_names() {
        assert_eq!(TypeRef::Builtin(BuiltinType::String).name(), "string");
        assert_eq!(TypeRef::Named("USAddress".into()).name(), "USAddress");
    }
}
