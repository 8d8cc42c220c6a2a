//! Reference resolution and lowering: from the component model to the
//! content automata and effective attribute/simple-type views that the
//! validator, V-DOM and codegen all consume.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use xmlchars::WhiteSpaceMode;

use automata::{ContentExpr, Glushkov};

use crate::builtin::BuiltinType;
use crate::components::*;
use crate::error::{SchemaError, SchemaErrorKind};
use crate::facets::{Facet, FacetCheck, FacetViolation};

/// An error validating a simple-typed value.
#[derive(Debug, Clone)]
pub enum SimpleTypeError {
    /// The value does not belong to the built-in base type's space.
    Lexical {
        /// The built-in that rejected it.
        builtin: BuiltinType,
        /// Expected form.
        expected: &'static str,
        /// The normalized value.
        value: String,
    },
    /// A constraining facet rejected the value.
    Facet(FacetViolation),
    /// The type reference does not resolve to a simple type.
    NotSimple(String),
    /// The type reference dangles.
    Unresolved(String),
}

impl fmt::Display for SimpleTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimpleTypeError::Lexical {
                builtin,
                expected,
                value,
            } => write!(
                f,
                "{value:?} is not a valid xsd:{} ({expected})",
                builtin.name()
            ),
            SimpleTypeError::Facet(v) => write!(f, "{v}"),
            SimpleTypeError::NotSimple(n) => write!(f, "type {n:?} is not a simple type"),
            SimpleTypeError::Unresolved(n) => write!(f, "unresolved type {n:?}"),
        }
    }
}

impl std::error::Error for SimpleTypeError {}

/// A simple type resolved once into a value kernel: the built-in at the
/// bottom of its restriction chain, the effective whitespace mode, and
/// every facet of the chain flattened most-derived first and compiled
/// against that built-in, range bounds already parsed into its value
/// space. Checking a value looks nothing up by name and parses nothing
/// but the value, so the validator holds one per declared attribute and
/// simple-content element (see [`SymIndex`](crate::SymIndex)), compiled
/// templates one per hole, and V-DOM one per node it constructs.
#[derive(Debug, Clone)]
pub struct SimplePlan {
    builtin: BuiltinType,
    whitespace: WhiteSpaceMode,
    facets: Box<[FacetCheck]>,
    /// The built-in takes every string and no facet constrains it (plain
    /// `xsd:string`, `token`, …): every value passes unread.
    passes_all: bool,
}

impl SimplePlan {
    /// Checks a raw lexical value in one pass per stage: whitespace
    /// normalization in one byte scan, one parse by the built-in (which
    /// also checks an integer type's range), then every facet from most
    /// derived to base against the parsed value. The first failure is
    /// the error. On success (the hot path for valid documents) nothing
    /// is allocated: normalization borrows whenever the value is already
    /// normal, and the checks read it in place. A plan that constrains
    /// nothing reads nothing.
    pub fn check(&self, raw: &str) -> Result<(), SimpleTypeError> {
        if self.passes_all {
            return Ok(());
        }
        self.check_normalized(&self.whitespace.apply(raw))
    }

    /// [`check`](Self::check), returning the normalized value.
    pub fn validate(&self, raw: &str) -> Result<String, SimpleTypeError> {
        let value = self.whitespace.apply(raw);
        self.check_normalized(&value)?;
        Ok(value.into_owned())
    }

    /// The built-in's parse, then the facets, on a normalized value.
    fn check_normalized(&self, value: &str) -> Result<(), SimpleTypeError> {
        let parsed = match self.builtin.parse(value) {
            Ok(parsed) => parsed,
            Err(expected) => return Err(self.lexical_error(value, expected)),
        };
        // One registry lookup per value (not per facet) when observability
        // is on; a single atomic load when it is off.
        let facet_counter = obs::enabled().then(|| {
            obs::metrics().counter(
                "schema_facet_checks_total",
                "Constraining-facet checks evaluated on simple values.",
            )
        });
        for facet in self.facets.iter() {
            if let Some(counter) = &facet_counter {
                counter.inc();
            }
            facet
                .check(value, &parsed)
                .map_err(SimpleTypeError::Facet)?;
        }
        Ok(())
    }

    #[cold]
    fn lexical_error(&self, value: &str, expected: &'static str) -> SimpleTypeError {
        SimpleTypeError::Lexical {
            builtin: self.builtin,
            expected,
            value: value.to_string(),
        }
    }
}

/// A resolved simple type, or the error every value checked against it
/// reports (a dangling or non-simple type reference).
pub type SimpleCheck = Result<Arc<SimplePlan>, SimpleTypeError>;

/// Checks a raw value against a [`SimpleCheck`]: the plan's verdict, or
/// the resolution error when the type did not resolve.
pub fn check_value(check: &SimpleCheck, raw: &str) -> Result<(), SimpleTypeError> {
    check.as_ref().map_err(Clone::clone)?.check(raw)
}

fn simple_to_schema(e: SimpleTypeError) -> SchemaError {
    SchemaError::nowhere(SchemaErrorKind::BadDerivation(e.to_string()))
}

impl Schema {
    // ---- well-formedness of the schema itself ---------------------------

    /// Checks that every reference resolves, derivations are acyclic and
    /// well-kinded, and every complex type's content model satisfies
    /// unique particle attribution.
    pub fn check(&self) -> Result<(), SchemaError> {
        for decl in self.elements.values() {
            self.check_type_ref(&decl.type_ref)?;
            if let Some(head) = &decl.substitution_group {
                if !self.elements.contains_key(head) {
                    return Err(SchemaError::nowhere(SchemaErrorKind::UnresolvedReference {
                        kind: "substitutionGroup head",
                        name: head.clone(),
                    }));
                }
            }
        }
        for def in self.types.values() {
            match def {
                TypeDef::Simple(s) => {
                    self.simple_chain(&s.base, |_| {})
                        .map_err(simple_to_schema)?;
                }
                TypeDef::Complex(c) => {
                    self.check_complex(c)?;
                }
            }
        }
        for group in self.groups.values() {
            self.check_particle(&group.particle)?;
        }
        Ok(())
    }

    fn check_type_ref(&self, r: &TypeRef) -> Result<(), SchemaError> {
        match r {
            TypeRef::Builtin(_) => Ok(()),
            TypeRef::Named(n) | TypeRef::Anonymous(n) => {
                if self.types.contains_key(n) {
                    Ok(())
                } else {
                    Err(SchemaError::nowhere(SchemaErrorKind::UnresolvedReference {
                        kind: "type",
                        name: n.clone(),
                    }))
                }
            }
        }
    }

    fn check_complex(&self, c: &ComplexType) -> Result<(), SchemaError> {
        // derivation chain must exist and be acyclic
        let mut seen = vec![c.name.clone()];
        let mut cur = c;
        while let Some(d) = &cur.derivation {
            if seen.contains(&d.base) {
                return Err(SchemaError::nowhere(SchemaErrorKind::BadDerivation(
                    format!("derivation cycle through {:?}", d.base),
                )));
            }
            seen.push(d.base.clone());
            cur = match self.types.get(&d.base) {
                Some(TypeDef::Complex(base)) => base,
                Some(TypeDef::Simple(_)) => {
                    return Err(SchemaError::nowhere(SchemaErrorKind::BadDerivation(
                        format!("complex type {} extends simple type {}", c.name, d.base),
                    )))
                }
                None => {
                    return Err(SchemaError::nowhere(SchemaErrorKind::UnresolvedReference {
                        kind: "base type",
                        name: d.base.clone(),
                    }))
                }
            };
        }
        if let ContentModel::ElementOnly(p) | ContentModel::Mixed(p) = &c.content {
            self.check_particle(p)?;
        }
        for a in self
            .effective_attributes(&c.name)
            .map_err(simple_to_schema)?
        {
            self.check_type_ref(&a.type_ref)?;
        }
        // UPA over the fully merged content model
        let expr = self
            .content_expr(&c.name)
            .map_err(|e| SchemaError::nowhere(SchemaErrorKind::BadDerivation(e.to_string())))?;
        let expanded = expr.expand_occurrences().map_err(|bound| {
            SchemaError::nowhere(SchemaErrorKind::BadOccurs(format!(
                "maxOccurs={bound} too large for DFA construction"
            )))
        })?;
        Glushkov::construct(&expanded)
            .check_determinism()
            .map_err(|e| SchemaError::nowhere(SchemaErrorKind::Ambiguous(e.to_string())))?;
        Ok(())
    }

    fn check_particle(&self, p: &Particle) -> Result<(), SchemaError> {
        match &p.term {
            Term::Element { type_ref, .. } => self.check_type_ref(type_ref),
            Term::ElementRef(name) => {
                if self.elements.contains_key(name) {
                    Ok(())
                } else {
                    Err(SchemaError::nowhere(SchemaErrorKind::UnresolvedReference {
                        kind: "element",
                        name: name.clone(),
                    }))
                }
            }
            Term::Sequence(parts) | Term::Choice(parts) | Term::All(parts) => {
                parts.iter().try_for_each(|p| self.check_particle(p))
            }
            Term::GroupRef(name) => {
                if self.groups.contains_key(name) {
                    Ok(())
                } else {
                    Err(SchemaError::nowhere(SchemaErrorKind::UnresolvedReference {
                        kind: "group",
                        name: name.clone(),
                    }))
                }
            }
        }
    }

    // ---- content lowering ------------------------------------------------

    /// The complete content expression of a complex type, with extension
    /// chains merged (base content first, as `xsd:extension` prescribes),
    /// group references inlined, and substitution groups expanded into
    /// choices.
    pub fn content_expr(&self, type_name: &str) -> Result<ContentExpr, SimpleTypeError> {
        let mut chain: Vec<&ComplexType> = Vec::new();
        let mut cur_name = type_name.to_string();
        loop {
            let c = match self.types.get(&cur_name) {
                Some(TypeDef::Complex(c)) => c,
                Some(TypeDef::Simple(_)) => {
                    return Err(SimpleTypeError::NotSimple(format!(
                        "{cur_name} (expected complex)"
                    )))
                }
                None => return Err(SimpleTypeError::Unresolved(cur_name)),
            };
            chain.push(c);
            match &c.derivation {
                Some(d) if d.method == DerivationMethod::Extension => {
                    cur_name = d.base.clone();
                }
                // restriction replaces the content model wholesale
                _ => break,
            }
        }
        // base-most first
        let mut parts = Vec::new();
        for c in chain.iter().rev() {
            match &c.content {
                ContentModel::ElementOnly(p) | ContentModel::Mixed(p) => {
                    parts.push(self.lower_particle(p)?);
                }
                ContentModel::Empty | ContentModel::Simple(_) => {}
            }
        }
        Ok(ContentExpr::sequence(parts))
    }

    fn lower_particle(&self, p: &Particle) -> Result<ContentExpr, SimpleTypeError> {
        let inner = match &p.term {
            Term::Element { name, .. } => ContentExpr::leaf(name.clone()),
            Term::ElementRef(name) => self.element_leaf(name)?,
            Term::Sequence(parts) | Term::All(parts) => ContentExpr::sequence(
                parts
                    .iter()
                    .map(|p| self.lower_particle(p))
                    .collect::<Result<_, _>>()?,
            ),
            Term::Choice(parts) => ContentExpr::choice(
                parts
                    .iter()
                    .map(|p| self.lower_particle(p))
                    .collect::<Result<_, _>>()?,
            ),
            Term::GroupRef(name) => {
                let group = self
                    .groups
                    .get(name)
                    .ok_or_else(|| SimpleTypeError::Unresolved(name.clone()))?;
                self.lower_particle(&group.particle)?
            }
        };
        Ok(if p.occurs.is_once() {
            inner
        } else {
            ContentExpr::occur(inner, p.occurs.min, p.occurs.max)
        })
    }

    /// The expression for one referenced global element: a plain leaf, or
    /// a choice over its substitution group (excluding the head when the
    /// head is abstract).
    fn element_leaf(&self, name: &str) -> Result<ContentExpr, SimpleTypeError> {
        let head = self
            .elements
            .get(name)
            .ok_or_else(|| SimpleTypeError::Unresolved(name.to_string()))?;
        let members = self.substitution_members(name);
        let mut alternatives = Vec::new();
        if !head.is_abstract {
            alternatives.push(ContentExpr::leaf(name.to_string()));
        }
        for m in members {
            if !m.is_abstract {
                alternatives.push(ContentExpr::leaf(m.name.clone()));
            }
        }
        if alternatives.is_empty() {
            // an abstract head with no members: unsatisfiable, surface it
            return Err(SimpleTypeError::Unresolved(format!(
                "abstract element {name} has no substitution-group members"
            )));
        }
        Ok(ContentExpr::choice(alternatives))
    }

    /// Finds the declared type of a child element of `type_name`,
    /// searching the merged particle tree, group refs, element refs and
    /// substitution groups. Returns `None` when no particle mentions it.
    pub fn child_element_type(&self, type_name: &str, child: &str) -> Option<TypeRef> {
        let mut cur_name = type_name;
        loop {
            let c = match self.types.get(cur_name) {
                Some(TypeDef::Complex(c)) => c,
                _ => return None,
            };
            if let ContentModel::ElementOnly(p) | ContentModel::Mixed(p) = &c.content {
                if let Some(t) = self.find_in_particle(p, child) {
                    return Some(t);
                }
            }
            match &c.derivation {
                Some(d) if d.method == DerivationMethod::Extension => cur_name = &d.base,
                _ => return None,
            }
        }
    }

    fn find_in_particle(&self, p: &Particle, child: &str) -> Option<TypeRef> {
        match &p.term {
            Term::Element { name, type_ref } => (name == child).then(|| type_ref.clone()),
            Term::ElementRef(name) => {
                if name == child {
                    return self.elements.get(name).map(|d| d.type_ref.clone());
                }
                // substitution members of the referenced head
                self.substitution_members(name)
                    .into_iter()
                    .find(|m| m.name == child)
                    .map(|m| m.type_ref.clone())
            }
            Term::Sequence(parts) | Term::Choice(parts) | Term::All(parts) => {
                parts.iter().find_map(|p| self.find_in_particle(p, child))
            }
            Term::GroupRef(name) => self
                .groups
                .get(name)
                .and_then(|g| self.find_in_particle(&g.particle, child)),
        }
    }

    // ---- attributes --------------------------------------------------------

    /// The effective attribute uses of a complex type: its own, its
    /// attribute groups', and (for derived types) the base's, with
    /// derived declarations overriding same-named base declarations.
    pub fn effective_attributes(
        &self,
        type_name: &str,
    ) -> Result<Vec<AttributeUse>, SimpleTypeError> {
        let mut layers: Vec<Vec<AttributeUse>> = Vec::new();
        let mut cur_name = type_name.to_string();
        loop {
            let c = match self.types.get(&cur_name) {
                Some(TypeDef::Complex(c)) => c,
                Some(TypeDef::Simple(_)) => return Err(SimpleTypeError::NotSimple(cur_name)),
                None => return Err(SimpleTypeError::Unresolved(cur_name)),
            };
            let mut layer = c.attributes.clone();
            for group_name in &c.attribute_groups {
                let group = self
                    .attribute_groups
                    .get(group_name)
                    .ok_or_else(|| SimpleTypeError::Unresolved(group_name.clone()))?;
                layer.extend(group.attributes.iter().cloned());
            }
            layers.push(layer);
            match &c.derivation {
                Some(d) => cur_name = d.base.clone(),
                None => break,
            }
        }
        // base first, derived override
        let mut merged: BTreeMap<String, AttributeUse> = BTreeMap::new();
        for layer in layers.into_iter().rev() {
            for a in layer {
                merged.insert(a.name.clone(), a);
            }
        }
        Ok(merged.into_values().collect())
    }

    // ---- simple types ------------------------------------------------------

    /// Walks a simple-type reference down its restriction chain, handing
    /// each facet layer (most derived first) to `layer`, and returns the
    /// built-in at the bottom.
    fn simple_chain<'s>(
        &'s self,
        r: &TypeRef,
        mut layer: impl FnMut(&'s [Facet]),
    ) -> Result<BuiltinType, SimpleTypeError> {
        // every hop lands on a `TypeRef` owned by `self.types`
        let mut current: &TypeRef = r;
        for _ in 0..64 {
            match current {
                TypeRef::Builtin(b) => return Ok(*b),
                TypeRef::Named(n) | TypeRef::Anonymous(n) => match self.types.get(n) {
                    Some(TypeDef::Simple(s)) => {
                        layer(&s.facets);
                        current = &s.base;
                    }
                    Some(TypeDef::Complex(c)) => {
                        // simpleContent complex types delegate to their
                        // simple content for *value* validation
                        if let ContentModel::Simple(inner) = &c.content {
                            current = inner;
                        } else {
                            return Err(SimpleTypeError::NotSimple(n.clone()));
                        }
                    }
                    None => return Err(SimpleTypeError::Unresolved(n.clone())),
                },
            }
        }
        Err(SimpleTypeError::Unresolved(format!(
            "restriction chain too deep or cyclic at {}",
            current.name()
        )))
    }

    /// Resolves a simple-type reference into its [`SimplePlan`]. Compiled
    /// schemas keep one per type their elements and attributes use
    /// ([`CompiledSchema::simple_plan`](crate::CompiledSchema::simple_plan)).
    pub fn simple_plan(&self, r: &TypeRef) -> Result<SimplePlan, SimpleTypeError> {
        let mut facets = Vec::new();
        let builtin = self.simple_chain(r, |layer| facets.extend_from_slice(layer))?;
        // effective whitespace: the most derived explicit facet, else the
        // built-in's own mode
        let whitespace = facets
            .iter()
            .find_map(|f| match f {
                Facet::WhiteSpace(m) => Some(*m),
                _ => None,
            })
            .unwrap_or_else(|| builtin.whitespace());
        Ok(SimplePlan {
            builtin,
            whitespace,
            passes_all: facets.is_empty() && builtin.accepts_every_string(),
            facets: facets
                .iter()
                .map(|facet| FacetCheck::compile(facet, builtin))
                .collect(),
        })
    }

    /// Validates a raw lexical value against a simple type (see
    /// [`SimplePlan::check`]). Returns the normalized value.
    pub fn validate_simple_value(&self, r: &TypeRef, raw: &str) -> Result<String, SimpleTypeError> {
        self.simple_plan(r)?.validate(raw)
    }

    /// Like [`validate_simple_value`](Self::validate_simple_value), but
    /// discards the normalized value.
    pub fn check_simple_value(&self, r: &TypeRef, raw: &str) -> Result<(), SimpleTypeError> {
        self.simple_plan(r)?.check(raw)
    }

    /// Whether `r` names a simple type (built-in, named simple, or a
    /// complex type with simple content).
    pub fn is_simple(&self, r: &TypeRef) -> bool {
        self.simple_chain(r, |_| {}).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::parse_schema;

    const LAYERED_XSD: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
      <xsd:simpleType name="Code">
        <xsd:restriction base="xsd:string">
          <xsd:pattern value="[A-Z]+"/>
        </xsd:restriction>
      </xsd:simpleType>
      <xsd:simpleType name="ShortCode">
        <xsd:restriction base="Code">
          <xsd:maxLength value="3"/>
          <xsd:whiteSpace value="collapse"/>
        </xsd:restriction>
      </xsd:simpleType>
      <xsd:simpleType name="Loop">
        <xsd:restriction base="Loop"/>
      </xsd:simpleType>
    </xsd:schema>"#;

    fn named(name: &str) -> TypeRef {
        TypeRef::Named(name.to_string())
    }

    #[test]
    fn plan_flattens_the_chain_most_derived_first() {
        let schema = parse_schema(LAYERED_XSD).unwrap();
        let plan = schema.simple_plan(&named("ShortCode")).unwrap();
        // the derived whiteSpace facet overrides xsd:string's preserve
        assert_eq!(plan.validate(" AB\n").unwrap(), "AB");
        // both facets fail; the derived type's maxLength reports first
        let err = plan.check(" abcd ").unwrap_err().to_string();
        assert_eq!(err, r#"value "abcd" violates facet maxLength(3)"#);
        let err = plan.check("ab").unwrap_err().to_string();
        assert_eq!(err, r#"value "ab" violates facet pattern([A-Z]+)"#);
        // the base alone keeps xsd:string's whitespace
        let base = schema.simple_plan(&named("Code")).unwrap();
        assert!(base.check(" AB").is_err());
    }

    #[test]
    fn wrappers_report_resolution_errors() {
        let schema = parse_schema(LAYERED_XSD).unwrap();
        let err = schema.check_simple_value(&named("Nope"), "x").unwrap_err();
        assert_eq!(err.to_string(), r#"unresolved type "Nope""#);
        let err = schema
            .validate_simple_value(&named("Loop"), "x")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"unresolved type "restriction chain too deep or cyclic at Loop""#
        );
        assert!(!schema.is_simple(&named("Loop")));
        assert!(schema.is_simple(&named("ShortCode")));
    }
}
