//! Symbol-keyed validation plans: everything the validator needs at an
//! element open, precomputed once per schema and keyed by interned
//! [`Sym`]s.
//!
//! The paper compiles content models ahead of time (Sect. 6); this module
//! extends the idea to the *dispatch* around them and to simple types.
//! [`CompiledSchema::new`](crate::CompiledSchema::new) builds the index,
//! so a schema that compiles has every table below ready. An
//! [`ElemPlan`] is the one answer to "how does an element of this type
//! validate?": the declared type, the effective attributes, each with its
//! resolved [`SimplePlan`](crate::SimplePlan), the abstract-type verdict,
//! and the content regime (a simple-type plan to check at close, or a
//! compiled DFA to step). [`SymIndex`] holds one for every element a
//! schema can ever admit — root declarations and every `(complex type,
//! child name)` pair — and one per complex type, which answers
//! `CompiledSchema`'s per-type accessors. The streaming validator, the
//! incremental validator, V-DOM and the P-XML checker and compiler all
//! read these plans; none of them decides a rule from the schema
//! components itself. A frozen per-schema name table maps every element
//! name the schema declares to its symbol. Nothing is added to any of
//! these tables after the build.
//!
//! At validation time an element costs one hash of its name in that
//! table and one integer-keyed lookup of its plan; no lock is taken, no
//! simple type is resolved by name, and nothing is allocated. The global
//! symbol table is written while the index is built and read again only
//! to spell a name into an error message.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use automata::ContentDfa;
use symbols::Sym;

use crate::compiled::intern_dfa;
use crate::components::{AttributeUse, ComplexType, ContentModel, Schema, TypeDef, TypeRef};
use crate::error::SchemaError;
use crate::resolve::{simple_to_schema, SimpleCheck};

/// How an element's content is validated, decided once at build time.
#[derive(Debug, Clone)]
pub enum ContentPlan {
    /// Text-only content: buffer character data, check it against this
    /// simple type at the close tag.
    Simple(SimpleCheck),
    /// Element (or mixed) content: child names step the compiled DFA.
    Complex {
        /// The complex type's interned name — the key for child lookups
        /// when this element becomes a parent.
        type_sym: Sym,
        /// The shared, interned automaton.
        dfa: Arc<ContentDfa>,
        /// Whether interleaved text is allowed.
        mixed: bool,
    },
}

/// One declared attribute and the check its values go through.
#[derive(Debug, Clone)]
pub struct AttrPlan {
    /// The effective attribute use.
    pub decl: AttributeUse,
    /// Its resolved simple type.
    pub check: SimpleCheck,
}

/// The precomputed element-open plan: how an element of one type
/// validates.
#[derive(Debug, Clone)]
pub struct ElemPlan {
    /// Effective attributes with their value checks (empty for
    /// simple-typed elements, which declare none).
    pub attrs: Box<[AttrPlan]>,
    /// `Some(type name)` when the complex type is abstract: report
    /// `AbstractType` before the attribute checks.
    pub abstract_type: Option<String>,
    /// The content regime.
    pub content: ContentPlan,
    /// The element's declared type.
    pub type_ref: TypeRef,
}

impl ElemPlan {
    /// The plan of an element of a simple type (or of a reference that
    /// does not resolve, which `check` then reports on every value).
    pub(crate) fn simple(type_ref: &TypeRef, check: SimpleCheck) -> ElemPlan {
        ElemPlan {
            attrs: Box::default(),
            abstract_type: None,
            content: ContentPlan::Simple(check),
            type_ref: type_ref.clone(),
        }
    }
}

/// A root element's plan, or the fact that the declaration is abstract.
#[derive(Debug, Clone)]
pub enum RootPlan {
    /// Abstract declarations may not appear in instances: report
    /// `AbstractElement` and skip the subtree.
    Abstract,
    /// A concrete root with its open plan.
    Elem(Arc<ElemPlan>),
}

/// A multiplicative hasher for the index's frozen tables. The tables are
/// built from schema names only and never grow afterwards, so document
/// input can probe them but cannot crowd them; a schema's author could
/// pick colliding names, but that slows only lookups against that schema,
/// in proportion to its size. SipHash's flooding resistance would buy
/// nothing here and costs a hash per element on the hot path.
#[derive(Default, Clone, Copy)]
struct MulHasher(u64);

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MulHasher {
    /// Names hash eight bytes per multiply.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.add(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
    }

    /// `Sym` keys hash as one word each.
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    /// The product's high bits are its best mixed; the table indexes by
    /// the low ones, so rotate the high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type FrozenMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// The symbol-keyed dispatch tables for one compiled schema.
#[derive(Debug)]
pub struct SymIndex {
    /// Every complex type of the schema, by name, to the plan of an
    /// element of that type.
    types: FrozenMap<Box<str>, Arc<ElemPlan>>,
    /// Every element name the schema declares or mentions in a content
    /// model, to its global symbol.
    names: FrozenMap<Box<str>, Sym>,
    roots: FrozenMap<Sym, RootPlan>,
    children: FrozenMap<(Sym, Sym), Arc<ElemPlan>>,
    /// One plan per simple type an element or attribute uses.
    simple: HashMap<TypeRef, SimpleCheck>,
}

impl SymIndex {
    /// Builds the index: compiles every complex type's content DFA and
    /// effective attributes into its plan, interns every declared name
    /// and precomputes a plan for every root and every `(complex type,
    /// child)` pair the schema can admit, resolving each distinct type
    /// once. Returns the error of the first content model that fails to
    /// lower or to compile (see `intern_dfa`).
    ///
    /// The schema's references must already be checked
    /// (`Schema::check`); only the `Schema` walks are used here, never
    /// `CompiledSchema`'s accessors, which answer from this index.
    ///
    /// Child candidates are the union of the content expression's
    /// symbols and *all* top-level element names — the latter because
    /// `Schema::child_element_type` resolves an abstract substitution
    /// head referenced by `ref=` even though the content expression
    /// excludes it (the DFA step fails, but the subtree still validates
    /// against the head's type, and the plans must agree with that).
    pub(crate) fn build(schema: &Schema) -> Result<SymIndex, SchemaError> {
        let mut builder = Builder {
            schema,
            types: FrozenMap::default(),
            simple: HashMap::new(),
        };
        let mut models = Vec::new();
        for (name, def) in &schema.types {
            let TypeDef::Complex(ct) = def else {
                continue;
            };
            let expr = schema.content_expr(name).map_err(simple_to_schema)?;
            let type_sym = symbols::intern(name);
            let dfa = intern_dfa(&expr, name)?;
            let uses = schema
                .effective_attributes(name)
                .map_err(simple_to_schema)?;
            let plan = Arc::new(builder.type_plan(ct, type_sym, dfa, uses));
            builder.types.insert(Box::from(name.as_str()), plan);
            models.push((name, type_sym, expr.symbols()));
        }
        let mut names: FrozenMap<Box<str>, Sym> = FrozenMap::default();
        let mut name_sym = |name: &str| -> Sym {
            if let Some(&sym) = names.get(name) {
                return sym;
            }
            let sym = symbols::intern(name);
            names.insert(Box::from(name), sym);
            sym
        };

        let mut roots = FrozenMap::default();
        for (name, decl) in &schema.elements {
            let plan = if decl.is_abstract {
                RootPlan::Abstract
            } else {
                RootPlan::Elem(builder.elem_plan(&decl.type_ref))
            };
            roots.insert(name_sym(name), plan);
        }

        let mut children = FrozenMap::default();
        for (type_name, type_sym, expr_symbols) in &models {
            let mut candidates: Vec<&str> = schema.elements.keys().map(String::as_str).collect();
            candidates.extend(expr_symbols.iter().map(String::as_str));
            candidates.sort_unstable();
            candidates.dedup();
            for child in candidates {
                let child_sym = name_sym(child);
                if let Some(child_type) = schema.child_element_type(type_name, child) {
                    children.insert((*type_sym, child_sym), builder.elem_plan(&child_type));
                }
            }
        }

        Ok(SymIndex {
            types: builder.types,
            names,
            roots,
            children,
            simple: builder.simple,
        })
    }

    /// The plan of an element of complex type `name`, `None` for any
    /// name that is not one of the schema's complex types.
    #[inline]
    pub(crate) fn complex_type(&self, name: &str) -> Option<&Arc<ElemPlan>> {
        self.types.get(name)
    }

    /// The plan of an element of type `type_ref`, `None` unless it names
    /// one of the schema's complex types.
    pub(crate) fn complex_plan(&self, type_ref: &TypeRef) -> Option<Arc<ElemPlan>> {
        complex_plan(&self.types, type_ref)
    }

    /// Number of complex types.
    pub(crate) fn type_count(&self) -> usize {
        self.types.len()
    }

    /// The symbol of an element name this schema knows, `None` for any
    /// other name (which cannot be valid anywhere in its documents).
    #[inline]
    pub fn sym(&self, name: &str) -> Option<Sym> {
        self.names.get(name).copied()
    }

    /// The plan for a root element, `None` when undeclared.
    #[inline]
    pub fn root(&self, name: Sym) -> Option<&RootPlan> {
        self.roots.get(&name)
    }

    /// The plan for `child` within complex type `parent_type`, `None`
    /// when the type admits no such child (the subtree is skipped).
    #[inline]
    pub fn child(&self, parent_type: Sym, child: Sym) -> Option<&Arc<ElemPlan>> {
        self.children.get(&(parent_type, child))
    }

    /// The symbol and plan of the child named `name` within complex type
    /// `parent_type`: [`sym`](Self::sym), then [`child`](Self::child).
    #[inline]
    pub fn child_named(&self, parent_type: Sym, name: &str) -> Option<(Sym, &Arc<ElemPlan>)> {
        let sym = self.sym(name)?;
        Some((sym, self.child(parent_type, sym)?))
    }

    /// The plan of a simple type some element or attribute of the schema
    /// uses, `None` for any other type reference.
    pub(crate) fn simple(&self, type_ref: &TypeRef) -> Option<&SimpleCheck> {
        self.simple.get(type_ref)
    }

    /// Number of root plans (bench/obs metric).
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// Number of `(type, child)` plans (bench/obs metric).
    pub fn child_count(&self) -> usize {
        self.children.len()
    }
}

/// The plan of an element of type `type_ref` when it names a complex
/// type in `types`: that type's plan, relabelled when the reference is of
/// the other kind (named for anonymous, or the reverse).
fn complex_plan(
    types: &FrozenMap<Box<str>, Arc<ElemPlan>>,
    type_ref: &TypeRef,
) -> Option<Arc<ElemPlan>> {
    let (TypeRef::Named(name) | TypeRef::Anonymous(name)) = type_ref else {
        return None;
    };
    let plan = types.get(name.as_str())?;
    Some(if plan.type_ref == *type_ref {
        plan.clone()
    } else {
        Arc::new(ElemPlan {
            type_ref: type_ref.clone(),
            ..ElemPlan::clone(plan)
        })
    })
}

/// Tables for one index build: every complex type's plan, shared by every
/// element of that type, and one [`SimplePlan`] per distinct simple type,
/// shared by every element and attribute that uses it.
struct Builder<'s> {
    schema: &'s Schema,
    /// Every complex type's plan, by name.
    types: FrozenMap<Box<str>, Arc<ElemPlan>>,
    simple: HashMap<TypeRef, SimpleCheck>,
}

impl Builder<'_> {
    fn simple_check(&mut self, type_ref: &TypeRef) -> SimpleCheck {
        if let Some(check) = self.simple.get(type_ref) {
            return check.clone();
        }
        let check = self.schema.simple_plan(type_ref).map(Arc::new);
        self.simple.insert(type_ref.clone(), check.clone());
        check
    }

    /// The plan of an element of type `type_ref`, once every complex
    /// type's plan is built. A checked schema has no dangling reference
    /// (were one here, its value check would report it).
    fn elem_plan(&mut self, type_ref: &TypeRef) -> Arc<ElemPlan> {
        complex_plan(&self.types, type_ref)
            .unwrap_or_else(|| Arc::new(ElemPlan::simple(type_ref, self.simple_check(type_ref))))
    }

    /// The plan of an element of complex type `ct`, from the type's
    /// symbol, content DFA and effective attribute uses.
    fn type_plan(
        &mut self,
        ct: &ComplexType,
        type_sym: Sym,
        dfa: Arc<ContentDfa>,
        uses: Vec<AttributeUse>,
    ) -> ElemPlan {
        let attrs = uses
            .into_iter()
            .map(|decl| AttrPlan {
                check: self.simple_check(&decl.type_ref),
                decl,
            })
            .collect();
        let content = match &ct.content {
            ContentModel::Simple(simple_ref) => ContentPlan::Simple(self.simple_check(simple_ref)),
            model => ContentPlan::Complex {
                type_sym,
                dfa,
                mixed: matches!(model, ContentModel::Mixed(_)),
            },
        };
        let name = ct.name.clone();
        ElemPlan {
            attrs,
            abstract_type: ct.is_abstract.then(|| name.clone()),
            content,
            type_ref: if ct.anonymous {
                TypeRef::Anonymous(name)
            } else {
                TypeRef::Named(name)
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{PURCHASE_ORDER_XSD, WML_XSD};
    use crate::CompiledSchema;

    #[test]
    fn po_index_covers_declared_children() {
        let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
        let index = compiled.sym_index();
        let root = symbols::lookup("purchaseOrder").expect("root interned");
        assert!(matches!(index.root(root), Some(RootPlan::Elem(_))));
        let po_type = match index.root(root) {
            Some(RootPlan::Elem(plan)) => match &plan.content {
                ContentPlan::Complex { type_sym, .. } => *type_sym,
                other => panic!("unexpected root content {other:?}"),
            },
            _ => unreachable!(),
        };
        let ship = symbols::lookup("shipTo").expect("child interned");
        assert!(index.child(po_type, ship).is_some());
        let bogus = symbols::intern("symtest-not-a-po-child");
        assert!(index.child(po_type, bogus).is_none());
    }

    #[test]
    fn names_resolve_per_schema() {
        let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
        let index = compiled.sym_index();
        for name in ["purchaseOrder", "comment", "shipTo", "item", "shipDate"] {
            assert_eq!(index.sym(name), symbols::lookup(name), "{name}");
            assert!(index.sym(name).is_some(), "{name}");
        }
        // interned globally by another schema, unknown to this one
        symbols::intern("symtest-other-schema-element");
        assert_eq!(index.sym("symtest-other-schema-element"), None);
        assert_eq!(index.sym("PurchaseOrderType"), None);
    }

    #[test]
    fn simple_plans_are_shared_per_type() {
        let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
        let index = compiled.sym_index();
        let decimal = TypeRef::Builtin(crate::BuiltinType::Decimal);
        let zip = compiled.simple_plan(&decimal).unwrap();
        let again = compiled.simple_plan(&decimal).unwrap();
        assert!(Arc::ptr_eq(&zip, &again));
        assert!(index.simple(&TypeRef::Named("SKU".into())).is_some());
        // a type no element or attribute uses still resolves, unshared
        let unused = TypeRef::Builtin(crate::BuiltinType::Boolean);
        assert!(index.simple(&unused).is_none());
        assert!(compiled.simple_plan(&unused).unwrap().check("true").is_ok());
    }

    #[test]
    fn name_hashes_spread_over_low_bits() {
        use std::hash::BuildHasher;
        // names differing only in their eighth byte differ only in the
        // product's high bits until finish rotates them down
        let build = BuildHasherDefault::<MulHasher>::default();
        let buckets: std::collections::HashSet<u64> = (b'A'..=b'z')
            .map(|c| build.hash_one(format!("element{}", c as char)) & 63)
            .collect();
        assert!(buckets.len() > 32, "{} of 64 buckets", buckets.len());
    }

    #[test]
    fn wml_index_builds_and_counts() {
        let compiled = CompiledSchema::parse(WML_XSD).unwrap();
        let index = compiled.sym_index();
        assert!(index.root_count() >= 1);
        assert!(index.child_count() > 0);
    }

    #[test]
    fn plans_are_shared_per_type() {
        let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
        let index = compiled.sym_index();
        // shipTo and billTo are both USAddress: one plan, two entries
        let root = symbols::lookup("purchaseOrder").unwrap();
        let po_type = match index.root(root) {
            Some(RootPlan::Elem(plan)) => match &plan.content {
                ContentPlan::Complex { type_sym, .. } => *type_sym,
                _ => unreachable!(),
            },
            _ => unreachable!(),
        };
        let ship = index.child(po_type, index.sym("shipTo").unwrap()).unwrap();
        let bill = index.child(po_type, index.sym("billTo").unwrap()).unwrap();
        assert!(Arc::ptr_eq(ship, bill));
    }
}
