//! Importing untyped DOM fragments into a typed document.
//!
//! Every node of the fragment is replayed through the typed mutation API,
//! so importing *is* validating: the P-XML runtime (crate `pxml`) uses
//! this to instantiate pre-parsed templates, and tools can use it to lift
//! parsed documents into V-DOM.

use dom::{Document, NodeId, NodeKind};
use schema::CompiledSchema;
use xmlchars::is_xml_whitespace;

use crate::document::{TypedDocument, TypedElement};
use crate::error::VdomError;

impl TypedDocument {
    /// Imports the element subtree at `src_node` of `src` as the typed
    /// document's root element.
    pub fn import_root(
        &mut self,
        src: &Document,
        src_node: NodeId,
    ) -> Result<TypedElement, VdomError> {
        let name = src
            .tag_name(src_node)
            .map_err(|e| VdomError::Dom(e.to_string()))?
            .to_string();
        let root = self.create_root(&name)?;
        self.copy_into(src, src_node, root)?;
        Ok(root)
    }

    /// Imports the element subtree at `src_node` of `src` as a new child
    /// of `parent`.
    pub fn import_element(
        &mut self,
        parent: TypedElement,
        src: &Document,
        src_node: NodeId,
    ) -> Result<TypedElement, VdomError> {
        let name = src
            .tag_name(src_node)
            .map_err(|e| VdomError::Dom(e.to_string()))?
            .to_string();
        let el = self.append_element(parent, &name)?;
        self.copy_into(src, src_node, el)?;
        Ok(el)
    }

    fn copy_into(
        &mut self,
        src: &Document,
        src_node: NodeId,
        dst: TypedElement,
    ) -> Result<(), VdomError> {
        for attr in src
            .attributes(src_node)
            .map_err(|e| VdomError::Dom(e.to_string()))?
            .to_vec()
        {
            if &*attr.name == "xmlns" || attr.name.starts_with("xmlns:") {
                continue;
            }
            self.set_attribute(dst, &attr.name, attr.value)?;
        }
        for child in src
            .child_vec(src_node)
            .map_err(|e| VdomError::Dom(e.to_string()))?
        {
            match src.kind(child).map_err(|e| VdomError::Dom(e.to_string()))? {
                NodeKind::Element { .. } => {
                    self.import_element(dst, src, child)?;
                }
                NodeKind::Text(t) => {
                    // whitespace-only text between elements of element-only
                    // content is formatting, not data; where text is
                    // allowed it is significant and must be kept
                    if t.chars().all(is_xml_whitespace) && !self.allows_text(dst)? {
                        continue;
                    }
                    self.append_text(dst, t.clone())?;
                }
                // comments and PIs carry no schema meaning; skip
                _ => {}
            }
        }
        Ok(())
    }
}

/// Parses `source` as a document and lifts it into a typed document,
/// validating every construction step. Returns the typed document (not
/// yet sealed, so callers can keep building).
pub fn parse_typed(compiled: &CompiledSchema, source: &str) -> Result<TypedDocument, VdomError> {
    let doc = xmlparse::parse_document(source).map_err(|e| VdomError::Dom(e.to_string()))?;
    let root = doc.root_element().ok_or(VdomError::Dom("no root".into()))?;
    let mut td = TypedDocument::new(compiled.clone());
    td.import_root(&doc, root)?;
    Ok(td)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::corpus::{PURCHASE_ORDER_XML, PURCHASE_ORDER_XSD};

    #[test]
    fn paper_document_imports_cleanly() {
        let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
        let td = parse_typed(&compiled, PURCHASE_ORDER_XML).unwrap();
        let doc = td.seal().unwrap();
        assert!(validator::validate_document(&compiled, &doc).is_empty());
    }

    #[test]
    fn invalid_document_fails_during_import() {
        let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
        let bad = PURCHASE_ORDER_XML.replace("<quantity>1</quantity>", "<quantity>500</quantity>");
        let td = parse_typed(&compiled, &bad).unwrap();
        // quantity maxExclusive=100 is a finish-time (value) check
        assert!(td.seal().is_err());
    }

    #[test]
    fn structurally_invalid_fails_at_append() {
        let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
        let bad = "<purchaseOrder><items/></purchaseOrder>";
        assert!(matches!(
            parse_typed(&compiled, bad),
            Err(VdomError::ContentModel { .. })
        ));
    }

    #[test]
    fn fragment_import_under_parent() {
        let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
        let (frag, frag_root) = xmlparse::parse_fragment(
            "<shipTo country=\"US\"><name>A</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>",
        )
        .unwrap();
        let mut td = TypedDocument::new(compiled);
        let root = td.create_root("purchaseOrder").unwrap();
        let imported = td.import_element(root, &frag, frag_root).unwrap();
        td.finish(imported).unwrap();
        // billTo may not be imported where comment belongs
        let (frag2, r2) = xmlparse::parse_fragment("<zip>90952</zip>").unwrap();
        assert!(td.import_element(root, &frag2, r2).is_err());
    }
}
