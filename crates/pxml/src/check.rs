//! The static type checker — the validating half of the paper's
//! generated preprocessor (Fig. 9): every constructor is checked against
//! the schema *before the program runs*.
//!
//! Checked statically: element names and ordering (content-model DFA),
//! choice membership, required/undeclared attributes, literal attribute
//! values (including `fixed`), literal simple-typed content, text
//! placement, and hole typing (element variables step the DFA with their
//! tag; text variables require mixed/simple content). Hole *values* are,
//! by nature, runtime data — the instantiation engine re-checks only
//! those.

use automata::Matcher;
use dom::NodeKind;
use schema::{CompiledSchema, ContentModel, TypeDef, TypeRef};
use xmlchars::{is_xml_whitespace, Position};

use crate::error::{PxmlError, PxmlErrorKind};
use crate::holes::{split_holes, Part};
use crate::template::{resolve_element_type, Template, TypeEnv, VarType};

/// Counts one template check and, when it produced diagnostics, one
/// reject. Called once per top-level check entry point.
fn record_check(errors: &[PxmlError]) {
    if !obs::enabled() {
        return;
    }
    let metrics = obs::metrics();
    metrics
        .counter(
            "pxml_templates_checked_total",
            "Templates run through the static checker.",
        )
        .inc();
    if !errors.is_empty() {
        metrics
            .counter(
                "pxml_templates_rejected_total",
                "Templates the static checker rejected.",
            )
            .inc();
    }
}

/// Statically checks `template` against the schema in `compiled`,
/// inferring the root's type from its tag. Returns all diagnostics.
pub fn check_template(
    compiled: &CompiledSchema,
    template: &Template,
    env: &TypeEnv,
) -> Vec<PxmlError> {
    let tag = template.root_tag().to_string();
    match resolve_element_type(compiled.schema(), &tag) {
        // check_template_as records the check
        Some(type_ref) => check_template_as(compiled, template, env, &type_ref),
        None => {
            let errors = vec![PxmlError::at(
                PxmlErrorKind::UnknownRootElement(tag),
                template
                    .doc
                    .span(template.root)
                    .map(|s| s.start)
                    .unwrap_or_default(),
            )];
            record_check(&errors);
            errors
        }
    }
}

/// Statically checks `template` against an explicit root type.
pub fn check_template_as(
    compiled: &CompiledSchema,
    template: &Template,
    env: &TypeEnv,
    root_type: &TypeRef,
) -> Vec<PxmlError> {
    let _span = obs::span!("pxml.check");
    let mut errors = Vec::new();
    let checker = Checker {
        compiled,
        template,
        env,
    };
    checker.check_element(template.root, root_type, &mut errors);
    record_check(&errors);
    errors
}

struct Checker<'a> {
    compiled: &'a CompiledSchema,
    template: &'a Template,
    env: &'a TypeEnv,
}

impl<'a> Checker<'a> {
    fn pos(&self, node: dom::NodeId) -> Position {
        self.template
            .doc
            .span(node)
            .map(|s| s.start)
            .unwrap_or_default()
    }

    fn check_element(&self, node: dom::NodeId, type_ref: &TypeRef, errors: &mut Vec<PxmlError>) {
        let doc = &self.template.doc;
        let schema = self.compiled.schema();
        let element = doc.tag_name(node).unwrap_or_default().to_string();
        let pos = self.pos(node);

        // ---- attributes ---------------------------------------------------
        let declared = match type_ref {
            TypeRef::Named(n) | TypeRef::Anonymous(n) => {
                schema.effective_attributes(n).unwrap_or_default()
            }
            TypeRef::Builtin(_) => Vec::new(),
        };
        let present = doc.attributes(node).unwrap_or(&[]).to_vec();
        for attr in &present {
            if &*attr.name == "xmlns" || attr.name.starts_with("xmlns:") {
                continue;
            }
            let decl = match declared.iter().find(|d| *d.name == *attr.name) {
                Some(d) => d,
                None => {
                    errors.push(PxmlError::at(
                        PxmlErrorKind::UndeclaredAttribute {
                            element: element.clone(),
                            attribute: attr.name.to_string(),
                        },
                        pos,
                    ));
                    continue;
                }
            };
            match split_holes(&attr.value) {
                Ok(parts) => {
                    let mut has_hole = false;
                    for part in &parts {
                        if let Part::Hole(name) = part {
                            has_hole = true;
                            match self.env.get(name) {
                                None => errors.push(PxmlError::at(
                                    PxmlErrorKind::UnboundVariable(name.clone()),
                                    pos,
                                )),
                                Some(VarType::Element(_)) => errors.push(PxmlError::at(
                                    PxmlErrorKind::ElementHoleInAttribute {
                                        variable: name.clone(),
                                        attribute: attr.name.to_string(),
                                    },
                                    pos,
                                )),
                                Some(VarType::Text) => {}
                            }
                        }
                    }
                    if !has_hole {
                        // literal value: fully checkable now
                        if let Err(e) = schema.validate_simple_value(&decl.type_ref, &attr.value) {
                            errors.push(PxmlError::at(
                                PxmlErrorKind::BadAttributeValue {
                                    element: element.clone(),
                                    attribute: attr.name.to_string(),
                                    message: e.to_string(),
                                },
                                pos,
                            ));
                        }
                        if let Some(fixed) = &decl.fixed {
                            if &attr.value != fixed {
                                errors.push(PxmlError::at(
                                    PxmlErrorKind::BadAttributeValue {
                                        element: element.clone(),
                                        attribute: attr.name.to_string(),
                                        message: format!("must be fixed value {fixed:?}"),
                                    },
                                    pos,
                                ));
                            }
                        }
                    }
                }
                Err(e) => errors.push(PxmlError::at(PxmlErrorKind::HoleSyntax(e.message), pos)),
            }
        }
        for decl in &declared {
            if decl.required && !present.iter().any(|a| *a.name == *decl.name) {
                errors.push(PxmlError::at(
                    PxmlErrorKind::MissingAttribute {
                        element: element.clone(),
                        attribute: decl.name.clone(),
                    },
                    pos,
                ));
            }
        }

        // ---- content -------------------------------------------------------
        let (complex_name, mixed, simple) = self.classify(type_ref);
        match complex_name {
            Some(type_name) => {
                self.check_complex_content(node, &element, &type_name, mixed, errors)
            }
            None => self.check_simple_content(node, &element, simple.as_ref(), errors),
        }
    }

    /// Classifies the content of `type_ref`:
    /// `(complex type name for DFA, mixed, simple content type)`.
    fn classify(&self, type_ref: &TypeRef) -> (Option<String>, bool, Option<TypeRef>) {
        match type_ref {
            TypeRef::Builtin(_) => (None, false, Some(type_ref.clone())),
            TypeRef::Named(n) | TypeRef::Anonymous(n) => match self.compiled.schema().type_def(n) {
                Some(TypeDef::Simple(_)) => (None, false, Some(type_ref.clone())),
                Some(TypeDef::Complex(ct)) => match &ct.content {
                    ContentModel::Simple(inner) => (None, false, Some(inner.clone())),
                    ContentModel::Mixed(_) => (Some(n.clone()), true, None),
                    _ => (Some(n.clone()), false, None),
                },
                None => (None, false, None),
            },
        }
    }

    fn check_complex_content(
        &self,
        node: dom::NodeId,
        element: &str,
        type_name: &str,
        mixed: bool,
        errors: &mut Vec<PxmlError>,
    ) {
        let doc = &self.template.doc;
        let schema = self.compiled.schema();
        let dfa = match self.compiled.content_dfa(type_name) {
            Ok(d) => d,
            Err(e) => {
                errors.push(PxmlError::at(
                    PxmlErrorKind::BadSimpleValue {
                        element: element.to_string(),
                        message: e.to_string(),
                    },
                    self.pos(node),
                ));
                return;
            }
        };
        let mut matcher = dfa.start();
        let mut content_ok = true;
        for child in doc.child_vec(node).unwrap_or_default() {
            match doc.kind(child) {
                Ok(NodeKind::Element { name, .. }) => {
                    let name = name.clone();
                    if content_ok {
                        if let Err(e) = matcher.step(&name) {
                            errors.push(PxmlError::at(
                                PxmlErrorKind::ContentModel {
                                    parent: element.to_string(),
                                    got: name.to_string(),
                                    expected: e.expected,
                                },
                                self.pos(child),
                            ));
                            content_ok = false;
                        }
                    }
                    match schema.child_element_type(type_name, &name) {
                        Some(t) => self.check_element(child, &t, errors),
                        None => {
                            if content_ok {
                                // DFA accepted it through a substitution
                                // group leaf but the lookup failed —
                                // shouldn't happen; report defensively.
                                errors.push(PxmlError::at(
                                    PxmlErrorKind::UnknownChild {
                                        parent: element.to_string(),
                                        child: name.to_string(),
                                    },
                                    self.pos(child),
                                ));
                            }
                        }
                    }
                }
                Ok(NodeKind::Text(t)) => {
                    let parts = match split_holes(t) {
                        Ok(p) => p,
                        Err(e) => {
                            errors.push(PxmlError::at(
                                PxmlErrorKind::HoleSyntax(e.message),
                                self.pos(child),
                            ));
                            continue;
                        }
                    };
                    for part in parts {
                        match part {
                            Part::Text(text) => {
                                if !mixed && !text.chars().all(is_xml_whitespace) {
                                    errors.push(PxmlError::at(
                                        PxmlErrorKind::TextNotAllowed {
                                            element: element.to_string(),
                                        },
                                        self.pos(child),
                                    ));
                                }
                            }
                            Part::Hole(name) => match self.env.get(&name) {
                                None => errors.push(PxmlError::at(
                                    PxmlErrorKind::UnboundVariable(name),
                                    self.pos(child),
                                )),
                                Some(VarType::Text) => {
                                    if !mixed {
                                        errors.push(PxmlError::at(
                                            PxmlErrorKind::TextNotAllowed {
                                                element: element.to_string(),
                                            },
                                            self.pos(child),
                                        ));
                                    }
                                }
                                Some(VarType::Element(tag)) => {
                                    if content_ok {
                                        if let Err(e) = matcher.step(tag) {
                                            errors.push(PxmlError::at(
                                                PxmlErrorKind::ContentModel {
                                                    parent: element.to_string(),
                                                    got: format!("${name}$ (a <{tag}>)"),
                                                    expected: e.expected,
                                                },
                                                self.pos(child),
                                            ));
                                            content_ok = false;
                                        }
                                    }
                                }
                            },
                        }
                    }
                }
                _ => {}
            }
        }
        if content_ok && !matcher.is_accepting() {
            errors.push(PxmlError::at(
                PxmlErrorKind::Incomplete {
                    element: element.to_string(),
                    expected: matcher.expected(),
                },
                self.pos(node),
            ));
        }
    }

    fn check_simple_content(
        &self,
        node: dom::NodeId,
        element: &str,
        simple: Option<&TypeRef>,
        errors: &mut Vec<PxmlError>,
    ) {
        let doc = &self.template.doc;
        // no element children
        for child in doc.child_elements(node) {
            errors.push(PxmlError::at(
                PxmlErrorKind::UnknownChild {
                    parent: element.to_string(),
                    child: doc.tag_name(child).unwrap_or_default().to_string(),
                },
                self.pos(child),
            ));
        }
        let text = doc.text_content(node).unwrap_or_default();
        match split_holes(&text) {
            Ok(parts) => {
                let has_hole = parts.iter().any(|p| matches!(p, Part::Hole(_)));
                for part in &parts {
                    if let Part::Hole(name) = part {
                        match self.env.get(name) {
                            None => errors.push(PxmlError::at(
                                PxmlErrorKind::UnboundVariable(name.clone()),
                                self.pos(node),
                            )),
                            Some(VarType::Element(tag)) => errors.push(PxmlError::at(
                                PxmlErrorKind::UnknownChild {
                                    parent: element.to_string(),
                                    child: tag.clone(),
                                },
                                self.pos(node),
                            )),
                            Some(VarType::Text) => {}
                        }
                    }
                }
                if !has_hole {
                    if let Some(simple) = simple {
                        if let Err(e) = self.compiled.schema().validate_simple_value(simple, &text)
                        {
                            errors.push(PxmlError::at(
                                PxmlErrorKind::BadSimpleValue {
                                    element: element.to_string(),
                                    message: e.to_string(),
                                },
                                self.pos(node),
                            ));
                        }
                    }
                }
            }
            Err(e) => errors.push(PxmlError::at(
                PxmlErrorKind::HoleSyntax(e.message),
                self.pos(node),
            )),
        }
    }
}
