//! Element-only content admits only XML whitespace (`S`: #x20, #x9, #xD,
//! #xA) between its children. Unicode spaces such as U+00A0 and U+3000
//! are character data, so every engine must report them as text where
//! no text is allowed: streaming and tree validation, a patch session's
//! `SetText` and text insertion, the P-XML template checker and the
//! typed V-DOM import. In mixed content such a run is text, so the
//! template interpreter, the compiled plan and the emitted Rust keep it.

use limits::Limits;
use pxml::{check_template, Bindings, PxmlErrorKind, Template, TypeEnv};
use schema::corpus::WML_XSD;
use schema::CompiledSchema;
use validator::{
    validate_document, validate_str_streaming, DomPatch, NewNode, PatchError, ValidationError,
    ValidationErrorKind,
};
use webgen::DocSession;

/// Unicode whitespace that is not XML whitespace.
const NON_XML_SPACES: [char; 2] = ['\u{A0}', '\u{3000}'];

fn wml() -> CompiledSchema {
    CompiledSchema::parse(WML_XSD).unwrap()
}

/// `<wml>` is element-only; `space` sits between it and its first card.
fn page(space: &str) -> String {
    format!("<wml>{space}<card id=\"c\"><p>x</p></card></wml>")
}

fn text_not_allowed_in_wml(errors: &[ValidationError]) -> bool {
    errors.iter().any(
        |e| matches!(&e.kind, ValidationErrorKind::TextNotAllowed { element } if element == "wml"),
    )
}

#[test]
fn xml_whitespace_between_children_is_formatting() {
    let compiled = wml();
    let src = page(" \t\r\n");
    assert!(validate_str_streaming(&compiled, &src).is_empty());
    let doc = xmlparse::parse_document(&src).unwrap();
    assert!(validate_document(&compiled, &doc).is_empty());
}

#[test]
fn streaming_rejects_unicode_space_in_element_only_content() {
    let compiled = wml();
    for c in NON_XML_SPACES {
        let errors = validate_str_streaming(&compiled, &page(&c.to_string()));
        assert!(
            text_not_allowed_in_wml(&errors),
            "U+{:04X}: {errors:?}",
            c as u32
        );
    }
}

#[test]
fn tree_validation_rejects_unicode_space_in_element_only_content() {
    let compiled = wml();
    for c in NON_XML_SPACES {
        let doc = xmlparse::parse_document(&page(&c.to_string())).unwrap();
        let errors = validate_document(&compiled, &doc);
        assert!(
            text_not_allowed_in_wml(&errors),
            "U+{:04X}: {errors:?}",
            c as u32
        );
    }
}

#[test]
fn patch_set_text_rejects_unicode_space_in_element_only_content() {
    for c in NON_XML_SPACES {
        // the base document's formatting space is the text node at [0, 0]
        let mut session = DocSession::open("wml", wml(), &page(" "), Limits::default()).unwrap();
        let patch = DomPatch::SetText {
            at: vec![0, 0],
            text: c.to_string(),
        };
        assert_rejected(session.apply(&patch), c);
        // a new text node goes through the sibling-suffix recheck instead
        let patch = DomPatch::InsertChild {
            at: vec![0],
            index: 1,
            child: NewNode::Text(c.to_string()),
        };
        assert_rejected(session.apply(&patch), c);
    }
}

fn assert_rejected(result: Result<(), PatchError>, c: char) {
    match result {
        Err(PatchError::Invalid(errors)) => {
            assert!(
                text_not_allowed_in_wml(&errors),
                "U+{:04X}: {errors:?}",
                c as u32
            )
        }
        other => panic!("U+{:04X}: expected a rejection, got {other:?}", c as u32),
    }
}

#[test]
fn pxml_checker_rejects_unicode_space_in_element_only_content() {
    let compiled = wml();
    for c in NON_XML_SPACES {
        let template = Template::parse(&page(&c.to_string())).unwrap();
        let errors = check_template(&compiled, &template, &TypeEnv::new());
        assert!(
            errors.iter().any(|e| matches!(
                &e.kind,
                PxmlErrorKind::TextNotAllowed { element } if element == "wml"
            )),
            "U+{:04X}: {errors:?}",
            c as u32
        );
    }
}

#[test]
fn typed_import_rejects_unicode_space_in_element_only_content() {
    let compiled = wml();
    assert!(vdom::parse_typed(&compiled, &page(" \n")).is_ok());
    for c in NON_XML_SPACES {
        assert!(
            vdom::parse_typed(&compiled, &page(&c.to_string())).is_err(),
            "U+{:04X} was dropped as formatting",
            c as u32
        );
    }
}

#[test]
fn unicode_space_between_holes_in_mixed_content_is_text() {
    let compiled = wml();
    let template = Template::parse("<p>$a$\u{A0}$b$</p>").unwrap();
    let env = TypeEnv::new().text("a").text("b");
    let bindings = Bindings::new().text("a", "x").text("b", "y");
    let expected = "<p>x\u{A0}y</p>";
    let plan = pxml::plan(&compiled, &template, &env).unwrap();
    assert_eq!(plan.render_to_string(&bindings).unwrap(), expected);
    let fragment = pxml::instantiate(&compiled, &template, &bindings).unwrap();
    assert_eq!(fragment.to_xml().unwrap(), expected);
    let rust = pxml::emit_rust(&compiled, &template, &env, "p").unwrap();
    assert!(rust.contains("append_text(e0, \"\\u{a0}\")"), "{rust}");
}
