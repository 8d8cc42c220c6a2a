//! The Sect. 5 WML directory page, implemented once per authoring style
//! the paper contrasts:
//!
//! * [`render_string`] — the JSP/PHP style (Fig. 8): string
//!   concatenation, no checking of any kind;
//! * [`render_string_buggy`] — the paper's Sect. 1 "Wrong Server Page":
//!   the same code after a typo that every compiler accepts but that
//!   produces invalid markup;
//! * [`render_dom`] — generic DOM construction followed by full runtime
//!   validation (the pre-V-DOM best practice);
//! * [`render_vdom`] — typed V-DOM construction (paper Fig. 11);
//! * [`PxmlDirectoryPage`] — pre-checked P-XML templates instantiated at
//!   runtime (paper Fig. 10);
//! * [`CompiledDirectoryPage`] — the same templates lowered once by
//!   [`pxml::plan()`] and rendered as static bytes plus escaped hole
//!   fills, with no per-page DOM or structural re-validation.
//!
//! All six correct styles produce a page for the same [`MediaObject`];
//! the correct ones produce byte-identical XML, which the tests assert.

use dom::Document;
use pxml::{Bindings, CompiledTemplate, Template, TypeEnv};
use schema::CompiledSchema;
use validator::ValidationError;
use vdom::{TypedDocument, VdomError};

use crate::media::MediaObject;

/// Page inputs derived from the media object, mirroring the paper's
/// Fig. 8 prologue (`subDirs`, `currentDir`, `parentDir`).
#[derive(Debug, Clone)]
pub struct DirectoryPageData {
    /// Names of subdirectories.
    pub sub_dirs: Vec<String>,
    /// Full path of the current directory.
    pub current_dir: String,
    /// Full path of the parent directory.
    pub parent_dir: String,
}

impl DirectoryPageData {
    /// Extracts the page inputs from a media object.
    pub fn from_media(m: &MediaObject<'_>) -> DirectoryPageData {
        DirectoryPageData {
            sub_dirs: m.get_childs(),
            current_dir: m.get_full_path(),
            parent_dir: m.parent_path(),
        }
    }
}

fn escape(s: &str) -> String {
    xmlchars::escape_text(s).into_owned()
}

fn escape_attr(s: &str) -> String {
    xmlchars::escape_attribute(s).into_owned()
}

/// JSP-style string generation (Fig. 8): fast and completely unchecked.
pub fn render_string(data: &DirectoryPageData) -> String {
    let mut out = String::with_capacity(256 + data.sub_dirs.len() * 64);
    out.push_str("<wml><card id=\"dirs\"><p>");
    out.push_str("<b>");
    out.push_str(&escape(&data.current_dir));
    out.push_str("</b><br/>");
    out.push_str("<select name=\"directories\">");
    out.push_str("<option value=\"");
    out.push_str(&escape_attr(&data.parent_dir));
    out.push_str("\">..</option>");
    for dir in &data.sub_dirs {
        out.push_str("<option value=\"");
        out.push_str(&escape_attr(&format!("{}/{dir}", data.current_dir)));
        out.push_str("\">");
        out.push_str(&escape(dir));
        out.push_str("</option>");
    }
    out.push_str("</select><br/></p></card></wml>");
    out
}

/// The "Wrong Server Page" variant: a typo swaps two closing tags, so the
/// generator happily emits ill-formed markup. Everything up to the
/// browser accepts this program; only a test run (or a customer) notices.
pub fn render_string_buggy(data: &DirectoryPageData) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("<wml><card id=\"dirs\"><p>");
    out.push_str("<b>");
    out.push_str(&escape(&data.current_dir));
    out.push_str("</b><br/>");
    out.push_str("<select name=\"directories\">");
    for dir in &data.sub_dirs {
        out.push_str("<option value=\"");
        out.push_str(&escape_attr(&format!("{}/{dir}", data.current_dir)));
        out.push_str("\">");
        out.push_str(&escape(dir));
        // the typo: </select> instead of </option>
        out.push_str("</select>");
    }
    out.push_str("</select><br/></p></card></wml>");
    out
}

/// Generic DOM construction + full runtime validation — returns the
/// serialized page or the violations the validator found.
pub fn render_dom(
    compiled: &CompiledSchema,
    data: &DirectoryPageData,
) -> Result<String, Vec<ValidationError>> {
    let mut doc = Document::new();
    build_dom_page(&mut doc, data).expect("DOM construction cannot fail structurally");
    let errors = validator::validate_document(compiled, &doc);
    if errors.is_empty() {
        let root = doc.root_element().expect("page has a root");
        Ok(dom::serialize(&doc, root).expect("serialization"))
    } else {
        Err(errors)
    }
}

fn build_dom_page(doc: &mut Document, data: &DirectoryPageData) -> Result<(), dom::DomError> {
    let wml = doc.create_element("wml")?;
    let dn = doc.document_node();
    doc.append_child(dn, wml)?;
    let card = doc.create_element("card")?;
    doc.set_attribute(card, "id", "dirs")?;
    doc.append_child(wml, card)?;
    let p = doc.create_element("p")?;
    doc.append_child(card, p)?;
    let b = doc.create_element("b")?;
    doc.append_child(p, b)?;
    let t = doc.create_text(data.current_dir.clone());
    doc.append_child(b, t)?;
    let br = doc.create_element("br")?;
    doc.append_child(p, br)?;
    let select = doc.create_element("select")?;
    doc.set_attribute(select, "name", "directories")?;
    doc.append_child(p, select)?;
    let parent_option = doc.create_element("option")?;
    doc.set_attribute(parent_option, "value", data.parent_dir.clone())?;
    doc.append_child(select, parent_option)?;
    let dots = doc.create_text("..");
    doc.append_child(parent_option, dots)?;
    for dir in &data.sub_dirs {
        let option = doc.create_element("option")?;
        doc.set_attribute(option, "value", format!("{}/{dir}", data.current_dir))?;
        doc.append_child(select, option)?;
        let label = doc.create_text(dir.clone());
        doc.append_child(option, label)?;
    }
    let br2 = doc.create_element("br")?;
    doc.append_child(p, br2)?;
    Ok(())
}

/// Typed V-DOM construction (the Fig. 11 style): every step checked
/// incrementally; no whole-document validation pass afterwards.
pub fn render_vdom(
    compiled: &CompiledSchema,
    data: &DirectoryPageData,
) -> Result<String, VdomError> {
    let mut td = TypedDocument::new(compiled.clone());
    let wml = td.create_root("wml")?;
    let card = td.append_element(wml, "card")?;
    td.set_attribute(card, "id", "dirs")?;
    let p = td.append_element(card, "p")?;
    let b = td.append_element(p, "b")?;
    td.append_text(b, data.current_dir.clone())?;
    td.append_element(p, "br")?;
    let select = td.append_element(p, "select")?;
    td.set_attribute(select, "name", "directories")?;
    let parent_option = td.append_element(select, "option")?;
    td.set_attribute(parent_option, "value", data.parent_dir.clone())?;
    td.append_text(parent_option, "..")?;
    for dir in &data.sub_dirs {
        let option = td.append_element(select, "option")?;
        td.set_attribute(option, "value", format!("{}/{dir}", data.current_dir))?;
        td.append_text(option, dir.clone())?;
    }
    td.append_element(p, "br")?;
    let doc = td.seal()?;
    let root = doc.root_element().expect("sealed page has a root");
    Ok(dom::serialize(&doc, root).expect("serialization"))
}

/// The P-XML templates of the page (Fig. 10), checked once and reused.
pub struct PxmlDirectoryPage {
    compiled: CompiledSchema,
    option_template: Template,
}

impl PxmlDirectoryPage {
    /// Parses and statically checks the page's templates.
    pub fn new(compiled: &CompiledSchema) -> Result<PxmlDirectoryPage, Vec<pxml::PxmlError>> {
        let option_template =
            Template::parse("<option value=\"$subDir$\">$label$</option>").map_err(|e| vec![e])?;
        let env = TypeEnv::new().text("subDir").text("label");
        let errors = pxml::check_template(compiled, &option_template, &env);
        if !errors.is_empty() {
            return Err(errors);
        }
        Ok(PxmlDirectoryPage {
            compiled: compiled.clone(),
            option_template,
        })
    }

    /// Renders the page for `data` — the Fig. 10 program: template
    /// instantiations inside host-language control flow.
    pub fn render(&self, data: &DirectoryPageData) -> Result<String, pxml::InstantiateError> {
        let mut td = TypedDocument::new(self.compiled.clone());
        let wml = td.create_root("wml")?;
        let card = td.append_element(wml, "card")?;
        td.set_attribute(card, "id", "dirs")?;
        let p = td.append_element(card, "p")?;
        let b = td.append_element(p, "b")?;
        td.append_text(b, data.current_dir.clone())?;
        td.append_element(p, "br")?;
        let select = td.append_element(p, "select")?;
        td.set_attribute(select, "name", "directories")?;
        let parent = pxml::instantiate(
            &self.compiled,
            &self.option_template,
            &Bindings::new()
                .text("subDir", data.parent_dir.clone())
                .text("label", ".."),
        )?;
        td.import_element(select, &parent.doc, parent.root)?;
        for dir in &data.sub_dirs {
            let frag = pxml::instantiate(
                &self.compiled,
                &self.option_template,
                &Bindings::new()
                    .text("subDir", format!("{}/{dir}", data.current_dir))
                    .text("label", dir.clone()),
            )?;
            td.import_element(select, &frag.doc, frag.root)?;
        }
        td.append_element(p, "br")?;
        let doc = td.seal()?;
        let root = doc.root_element().expect("sealed page has a root");
        Ok(dom::serialize(&doc, root).expect("serialization"))
    }
}

/// The full-page WML constructor used by [`CompiledDirectoryPage`]:
/// the whole card is static except the heading text and the option list.
pub const DIRECTORY_PAGE_TEMPLATE: &str = "<wml><card id=\"dirs\"><p>\
     <b>$currentDir$</b><br/><select name=\"directories\">$options$</select>\
     <br/></p></card></wml>";

/// The per-directory option constructor (shared with the interpreter).
pub const DIRECTORY_OPTION_TEMPLATE: &str = "<option value=\"$subDir$\">$label$</option>";

/// The directory page lowered to compiled templates: the page shell and
/// the option row are each planned once; a render is a memcpy of the
/// static bytes with the heading escaped in and the pre-rendered option
/// rows spliced under the `<select>` content model.
pub struct CompiledDirectoryPage {
    page: CompiledTemplate,
    option: CompiledTemplate,
}

impl CompiledDirectoryPage {
    /// Checks and lowers the page and option templates.
    pub fn new(compiled: &CompiledSchema) -> Result<CompiledDirectoryPage, Vec<pxml::PxmlError>> {
        let page_t = Template::parse(DIRECTORY_PAGE_TEMPLATE).map_err(|e| vec![e])?;
        let option_t = Template::parse(DIRECTORY_OPTION_TEMPLATE).map_err(|e| vec![e])?;
        let page_env = TypeEnv::new()
            .text("currentDir")
            .element("options", "option");
        let option_env = TypeEnv::new().text("subDir").text("label");
        Ok(CompiledDirectoryPage {
            page: pxml::plan(compiled, &page_t, &page_env)?,
            option: pxml::plan(compiled, &option_t, &option_env)?,
        })
    }

    /// Renders the page for `data` through the compiled path.
    pub fn render(&self, data: &DirectoryPageData) -> Result<String, pxml::InstantiateError> {
        let mut options = Vec::with_capacity(data.sub_dirs.len() + 1);
        // one bindings map reused across the option loop: only the two
        // values change per row
        let mut row = Bindings::new()
            .text("subDir", data.parent_dir.clone())
            .text("label", "..");
        options.push(self.option.render_fragment(&row)?);
        for dir in &data.sub_dirs {
            row.set_text("subDir", format!("{}/{dir}", data.current_dir));
            row.set_text("label", dir.clone());
            options.push(self.option.render_fragment(&row)?);
        }
        self.page.render_to_string(
            &Bindings::new()
                .text("currentDir", data.current_dir.clone())
                .rendered_list("options", options),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MediaArchive;
    use schema::corpus::WML_XSD;

    fn data() -> DirectoryPageData {
        let archive = MediaArchive::generate(42, 4, 2);
        // lifetime: build data from a scoped cursor
        DirectoryPageData::from_media(&archive.root())
    }

    fn compiled() -> CompiledSchema {
        CompiledSchema::parse(WML_XSD).unwrap()
    }

    #[test]
    fn all_correct_backends_agree() {
        let c = compiled();
        let d = data();
        let s = render_string(&d);
        let dom_page = render_dom(&c, &d).unwrap();
        let vdom_page = render_vdom(&c, &d).unwrap();
        let pxml_page = PxmlDirectoryPage::new(&c).unwrap().render(&d).unwrap();
        let compiled_page = CompiledDirectoryPage::new(&c).unwrap().render(&d).unwrap();
        assert_eq!(s, dom_page);
        assert_eq!(dom_page, vdom_page);
        assert_eq!(vdom_page, pxml_page);
        assert_eq!(pxml_page, compiled_page);
    }

    #[test]
    fn compiled_page_handles_empty_and_hostile_directories() {
        let c = compiled();
        let page = CompiledDirectoryPage::new(&c).unwrap();
        let empty = DirectoryPageData {
            sub_dirs: Vec::new(),
            current_dir: "/workspace".into(),
            parent_dir: "/workspace".into(),
        };
        assert_eq!(page.render(&empty).unwrap(), render_string(&empty));
        let hostile = DirectoryPageData {
            sub_dirs: vec!["a<b&c".to_string()],
            current_dir: "/work \"quoted\"".into(),
            parent_dir: "/".into(),
        };
        assert_eq!(page.render(&hostile).unwrap(), render_string(&hostile));
    }

    #[test]
    fn string_page_is_valid_only_by_luck() {
        // the string page happens to be valid — prove it by parsing
        let c = compiled();
        let d = data();
        let page = render_string(&d);
        let doc = xmlparse::parse_document(&page).unwrap();
        assert!(validator::validate_document(&c, &doc).is_empty());
    }

    #[test]
    fn buggy_string_page_detected_only_downstream() {
        let d = data();
        let page = render_string_buggy(&d);
        // nothing stopped the generator; the output is not even well-formed
        assert!(xmlparse::parse_document(&page).is_err());
    }

    #[test]
    fn empty_directory_page() {
        let c = compiled();
        let d = DirectoryPageData {
            sub_dirs: Vec::new(),
            current_dir: "/workspace".into(),
            parent_dir: "/workspace".into(),
        };
        let page = render_vdom(&c, &d).unwrap();
        assert!(page.contains("<option value=\"/workspace\">..</option>"));
    }

    #[test]
    fn paths_with_markup_characters_are_escaped_everywhere() {
        let c = compiled();
        let d = DirectoryPageData {
            sub_dirs: vec!["a<b&c".to_string()],
            current_dir: "/work \"quoted\"".into(),
            parent_dir: "/".into(),
        };
        let s = render_string(&d);
        let v = render_vdom(&c, &d).unwrap();
        assert_eq!(s, v);
        assert!(v.contains("a&lt;b&amp;c"));
    }
}
