//! The static type checker — the validating half of the paper's
//! generated preprocessor (Fig. 9): every constructor is checked against
//! the schema *before the program runs*.
//!
//! Checked statically: element names and ordering (content-model DFA),
//! choice membership, abstract elements and types, required/undeclared
//! attributes, literal attribute values (including `fixed`), literal
//! simple-typed content, text placement, and hole typing (element
//! variables step the DFA with their tag; text variables require
//! mixed/simple content). Hole *values* are, by nature, runtime data —
//! the instantiation engine re-checks only those.
//!
//! Every rule comes from the element plans (`schema::ElemPlan`) of the
//! schema's index, the ones the streaming validator and V-DOM read: a
//! global root resolves through its `RootPlan`, a locally declared root
//! through [`CompiledSchema::elem_plan`], each child through its parent
//! type's child plan.

use std::sync::Arc;

use automata::{ContentDfa, Matcher};
use dom::NodeKind;
use schema::{
    check_value, AttrPlan, CompiledSchema, ContentPlan, ElemPlan, RootPlan, SimpleCheck, TypeRef,
};
use symbols::Sym;
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

/// The plan a template's root element is checked and compiled under: a
/// global declaration's `RootPlan` (an abstract one is refused), else the
/// type of the first local declaration with the root's tag (see
/// [`resolve_element_type`]).
pub(crate) fn root_plan(
    compiled: &CompiledSchema,
    template: &Template,
) -> Result<Arc<ElemPlan>, PxmlError> {
    let tag = template.root_tag();
    let index = compiled.sym_index();
    let kind = match index.sym(tag).and_then(|sym| index.root(sym)) {
        Some(RootPlan::Elem(plan)) => return Ok(plan.clone()),
        Some(RootPlan::Abstract) => PxmlErrorKind::Abstract(tag.to_string()),
        None => match resolve_element_type(compiled.schema(), tag) {
            Some(type_ref) => return Ok(compiled.elem_plan(&type_ref)),
            None => PxmlErrorKind::UnknownRootElement(tag.to_string()),
        },
    };
    let position = template
        .doc
        .span(template.root)
        .map(|s| s.start)
        .unwrap_or_default();
    Err(PxmlError::at(kind, position))
}

/// Statically checks `template` against the schema in `compiled`,
/// inferring the root's type from its tag. Returns all diagnostics.
pub fn check_template(
    compiled: &CompiledSchema,
    template: &Template,
    env: &TypeEnv,
) -> Vec<PxmlError> {
    check_root(compiled, template, env, root_plan(compiled, template))
}

/// Statically checks `template` against an explicit root type.
pub fn check_template_as(
    compiled: &CompiledSchema,
    template: &Template,
    env: &TypeEnv,
    root_type: &TypeRef,
) -> Vec<PxmlError> {
    check_root(compiled, template, env, Ok(compiled.elem_plan(root_type)))
}

fn check_root(
    compiled: &CompiledSchema,
    template: &Template,
    env: &TypeEnv,
    root: Result<Arc<ElemPlan>, PxmlError>,
) -> Vec<PxmlError> {
    let _span = obs::span!("pxml.check");
    let errors = match root {
        Ok(plan) => {
            let mut errors = Vec::new();
            let checker = Checker {
                compiled,
                template,
                env,
            };
            checker.check_element(template.root, &plan, &mut errors);
            errors
        }
        Err(error) => vec![error],
    };
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

    fn check_element(&self, node: dom::NodeId, plan: &ElemPlan, errors: &mut Vec<PxmlError>) {
        let doc = &self.template.doc;
        let element = doc.tag_name(node).unwrap_or_default().to_string();
        let pos = self.pos(node);
        if plan.abstract_type.is_some() {
            errors.push(PxmlError::at(PxmlErrorKind::Abstract(element.clone()), pos));
        }

        // ---- attributes ---------------------------------------------------
        let present = doc.attributes(node).unwrap_or(&[]);
        for attr in present {
            if &*attr.name == "xmlns" || attr.name.starts_with("xmlns:") {
                continue;
            }
            let Some(declared) = plan.attrs.iter().find(|a| *a.decl.name == *attr.name) else {
                errors.push(PxmlError::at(
                    PxmlErrorKind::UndeclaredAttribute {
                        element: element.clone(),
                        attribute: attr.name.to_string(),
                    },
                    pos,
                ));
                continue;
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
                        if let Err(e) = check_value(&declared.check, &attr.value) {
                            errors.push(PxmlError::at(
                                PxmlErrorKind::BadAttributeValue {
                                    element: element.clone(),
                                    attribute: attr.name.to_string(),
                                    message: e.to_string(),
                                },
                                pos,
                            ));
                        }
                        if let Some(fixed) = &declared.decl.fixed {
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
        for AttrPlan { decl, .. } in plan.attrs.iter() {
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
        match &plan.content {
            ContentPlan::Complex {
                type_sym,
                dfa,
                mixed,
            } => self.check_complex_content(node, &element, *type_sym, dfa, *mixed, errors),
            ContentPlan::Simple(check) => self.check_simple_content(node, &element, check, errors),
        }
    }

    fn check_complex_content(
        &self,
        node: dom::NodeId,
        element: &str,
        type_sym: Sym,
        dfa: &ContentDfa,
        mixed: bool,
        errors: &mut Vec<PxmlError>,
    ) {
        let doc = &self.template.doc;
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
                    match self.compiled.sym_index().child_named(type_sym, &name) {
                        Some((_, plan)) => self.check_element(child, plan, errors),
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
        check: &SimpleCheck,
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
                    if let Err(e) = check_value(check, &text) {
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
            Err(e) => errors.push(PxmlError::at(
                PxmlErrorKind::HoleSyntax(e.message),
                self.pos(node),
            )),
        }
    }
}
