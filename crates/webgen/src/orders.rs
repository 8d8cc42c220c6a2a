//! A purchase-order generation workload (the paper's Sect. 1 "XML
//! generators … for example generators for Xml documents serving as
//! views of data bases"): random order data rendered through each
//! authoring style, used by benches B1/B2.

use pxml::{Bindings, CompiledTemplate, InstantiateError, Template, TypeEnv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schema::CompiledSchema;
use validator::ValidationError;
use vdom::{TypedDocument, VdomError};

/// One address record.
#[derive(Debug, Clone)]
pub struct Address {
    /// Recipient name.
    pub name: String,
    /// Street line.
    pub street: String,
    /// City.
    pub city: String,
    /// State code.
    pub state: String,
    /// ZIP code.
    pub zip: String,
}

/// One order line.
#[derive(Debug, Clone)]
pub struct Item {
    /// Part number (SKU `\d{3}-[A-Z]{2}`).
    pub part_num: String,
    /// Product name.
    pub product_name: String,
    /// Quantity (1–99).
    pub quantity: u32,
    /// Price in dollars.
    pub us_price: String,
    /// Optional note.
    pub comment: Option<String>,
}

/// A complete order.
#[derive(Debug, Clone)]
pub struct Order {
    /// Ship-to address.
    pub ship_to: Address,
    /// Bill-to address.
    pub bill_to: Address,
    /// Optional order note.
    pub comment: Option<String>,
    /// Order lines.
    pub items: Vec<Item>,
    /// ISO order date.
    pub order_date: String,
}

const FIRST: &[&str] = &["Alice", "Robert", "Carol", "David", "Erin", "Frank"];
const LAST: &[&str] = &["Smith", "Jones", "Miller", "Nguyen", "Garcia", "Kim"];
const STREETS: &[&str] = &["Maple Street", "Oak Avenue", "Pine Road", "Elm Way"];
const CITIES: &[&str] = &["Mill Valley", "Old Town", "Springfield", "Riverside"];
const STATES: &[&str] = &["CA", "PA", "TX", "WA", "OR", "NY"];
const PRODUCTS: &[&str] = &["Lawnmower", "Baby Monitor", "Rake", "Sprinkler", "Hose"];

fn gen_address(rng: &mut StdRng) -> Address {
    Address {
        name: format!(
            "{} {}",
            FIRST[rng.random_range(0..FIRST.len())],
            LAST[rng.random_range(0..LAST.len())]
        ),
        street: format!(
            "{} {}",
            rng.random_range(1..999),
            STREETS[rng.random_range(0..STREETS.len())]
        ),
        city: CITIES[rng.random_range(0..CITIES.len())].to_string(),
        state: STATES[rng.random_range(0..STATES.len())].to_string(),
        zip: format!("{}", rng.random_range(10000..99999)),
    }
}

/// Generates a deterministic order with `item_count` lines.
pub fn generate_order(seed: u64, item_count: usize) -> Order {
    let mut rng = StdRng::seed_from_u64(seed);
    let items = (0..item_count)
        .map(|_| Item {
            part_num: format!(
                "{:03}-{}{}",
                rng.random_range(0..1000),
                (b'A' + rng.random_range(0..26u8)) as char,
                (b'A' + rng.random_range(0..26u8)) as char
            ),
            product_name: PRODUCTS[rng.random_range(0..PRODUCTS.len())].to_string(),
            quantity: rng.random_range(1..100),
            us_price: format!(
                "{}.{:02}",
                rng.random_range(1..500),
                rng.random_range(0..100)
            ),
            comment: if rng.random_bool(0.3) {
                Some("Ship with care".to_string())
            } else {
                None
            },
        })
        .collect();
    Order {
        ship_to: gen_address(&mut rng),
        bill_to: gen_address(&mut rng),
        comment: Some("Hurry, my lawn is going wild".to_string()),
        items,
        order_date: format!(
            "{:04}-{:02}-{:02}",
            rng.random_range(1999..2003),
            rng.random_range(1..13),
            rng.random_range(1..29)
        ),
    }
}

fn push_escaped(out: &mut String, s: &str) {
    out.push_str(&xmlchars::escape_text(s));
}

/// JSP-style string rendering: unchecked concatenation.
pub fn render_order_string(order: &Order) -> String {
    let mut out = String::with_capacity(512 + order.items.len() * 160);
    out.push_str("<purchaseOrder orderDate=\"");
    out.push_str(&order.order_date);
    out.push_str("\">");
    for (tag, a) in [("shipTo", &order.ship_to), ("billTo", &order.bill_to)] {
        out.push('<');
        out.push_str(tag);
        out.push_str(" country=\"US\"><name>");
        push_escaped(&mut out, &a.name);
        out.push_str("</name><street>");
        push_escaped(&mut out, &a.street);
        out.push_str("</street><city>");
        push_escaped(&mut out, &a.city);
        out.push_str("</city><state>");
        push_escaped(&mut out, &a.state);
        out.push_str("</state><zip>");
        push_escaped(&mut out, &a.zip);
        out.push_str("</zip></");
        out.push_str(tag);
        out.push('>');
    }
    if let Some(c) = &order.comment {
        out.push_str("<comment>");
        push_escaped(&mut out, c);
        out.push_str("</comment>");
    }
    if order.items.is_empty() {
        out.push_str("<items/></purchaseOrder>");
        return out;
    }
    out.push_str("<items>");
    for item in &order.items {
        out.push_str("<item partNum=\"");
        out.push_str(&xmlchars::escape_attribute(&item.part_num));
        out.push_str("\"><productName>");
        push_escaped(&mut out, &item.product_name);
        out.push_str("</productName><quantity>");
        out.push_str(&item.quantity.to_string());
        out.push_str("</quantity><USPrice>");
        out.push_str(&item.us_price);
        out.push_str("</USPrice>");
        if let Some(c) = &item.comment {
            out.push_str("<comment>");
            push_escaped(&mut out, c);
            out.push_str("</comment>");
        }
        out.push_str("</item>");
    }
    out.push_str("</items></purchaseOrder>");
    out
}

/// Generic DOM rendering + full runtime validation.
pub fn render_order_dom(
    compiled: &CompiledSchema,
    order: &Order,
) -> Result<String, Vec<ValidationError>> {
    let mut doc = dom::Document::new();
    build_order_dom(&mut doc, order);
    let errors = validator::validate_document(compiled, &doc);
    if errors.is_empty() {
        let root = doc.root_element().expect("root");
        Ok(dom::serialize(&doc, root).expect("serialize"))
    } else {
        Err(errors)
    }
}

/// Builds the order into an (unvalidated) generic DOM — used both by the
/// DOM back end and by the validation benches.
pub fn build_order_dom(doc: &mut dom::Document, order: &Order) {
    let root = doc.create_element("purchaseOrder").expect("name");
    let dn = doc.document_node();
    doc.append_child(dn, root).expect("attach");
    doc.set_attribute(root, "orderDate", order.order_date.clone())
        .expect("attr");
    for (tag, a) in [("shipTo", &order.ship_to), ("billTo", &order.bill_to)] {
        let addr = doc.create_element(tag).expect("name");
        doc.append_child(root, addr).expect("attach");
        doc.set_attribute(addr, "country", "US").expect("attr");
        for (child, value) in [
            ("name", &a.name),
            ("street", &a.street),
            ("city", &a.city),
            ("state", &a.state),
            ("zip", &a.zip),
        ] {
            let el = doc.create_element(child).expect("name");
            doc.append_child(addr, el).expect("attach");
            let t = doc.create_text(value.clone());
            doc.append_child(el, t).expect("attach");
        }
    }
    if let Some(c) = &order.comment {
        let el = doc.create_element("comment").expect("name");
        doc.append_child(root, el).expect("attach");
        let t = doc.create_text(c.clone());
        doc.append_child(el, t).expect("attach");
    }
    let items = doc.create_element("items").expect("name");
    doc.append_child(root, items).expect("attach");
    for item in &order.items {
        let el = doc.create_element("item").expect("name");
        doc.append_child(items, el).expect("attach");
        doc.set_attribute(el, "partNum", item.part_num.clone())
            .expect("attr");
        for (child, value) in [
            ("productName", item.product_name.clone()),
            ("quantity", item.quantity.to_string()),
            ("USPrice", item.us_price.clone()),
        ] {
            let c = doc.create_element(child).expect("name");
            doc.append_child(el, c).expect("attach");
            let t = doc.create_text(value);
            doc.append_child(c, t).expect("attach");
        }
        if let Some(note) = &item.comment {
            let c = doc.create_element("comment").expect("name");
            doc.append_child(el, c).expect("attach");
            let t = doc.create_text(note.clone());
            doc.append_child(c, t).expect("attach");
        }
    }
}

/// Typed V-DOM rendering: incremental checking, no separate validation.
pub fn render_order_vdom(compiled: &CompiledSchema, order: &Order) -> Result<String, VdomError> {
    let mut td = TypedDocument::new(compiled.clone());
    let root = td.create_root("purchaseOrder")?;
    td.set_attribute(root, "orderDate", order.order_date.clone())?;
    for (tag, a) in [("shipTo", &order.ship_to), ("billTo", &order.bill_to)] {
        let addr = td.append_element(root, tag)?;
        td.set_attribute(addr, "country", "US")?;
        for (child, value) in [
            ("name", &a.name),
            ("street", &a.street),
            ("city", &a.city),
            ("state", &a.state),
            ("zip", &a.zip),
        ] {
            let el = td.append_element(addr, child)?;
            td.append_text(el, value.clone())?;
        }
    }
    if let Some(c) = &order.comment {
        let el = td.append_element(root, "comment")?;
        td.append_text(el, c.clone())?;
    }
    let items = td.append_element(root, "items")?;
    for item in &order.items {
        let el = td.append_element(items, "item")?;
        td.set_attribute(el, "partNum", item.part_num.clone())?;
        for (child, value) in [
            ("productName", item.product_name.clone()),
            ("quantity", item.quantity.to_string()),
            ("USPrice", item.us_price.clone()),
        ] {
            let c = td.append_element(el, child)?;
            td.append_text(c, value)?;
        }
        if let Some(note) = &item.comment {
            let c = td.append_element(el, "comment")?;
            td.append_text(c, note.clone())?;
        }
    }
    let doc = td.seal()?;
    let root = doc.root_element().expect("root");
    Ok(dom::serialize(&doc, root).expect("serialize"))
}

/// The order page constructor: static markup with `$var$` holes for the
/// runtime data. `$comment$` and `$lines$` are element holes filled with
/// zero-or-one / zero-or-more pre-rendered fragments.
pub const ORDER_PAGE_TEMPLATE: &str = "<purchaseOrder orderDate=\"$date$\">\
     <shipTo country=\"US\"><name>$shipName$</name><street>$shipStreet$</street>\
     <city>$shipCity$</city><state>$shipState$</state><zip>$shipZip$</zip></shipTo>\
     <billTo country=\"US\"><name>$billName$</name><street>$billStreet$</street>\
     <city>$billCity$</city><state>$billState$</state><zip>$billZip$</zip></billTo>\
     $comment$<items>$lines$</items></purchaseOrder>";

/// One order line; `$note$` takes zero-or-one `<comment>` fragments.
pub const ORDER_ITEM_TEMPLATE: &str = "<item partNum=\"$partNum$\">\
     <productName>$productName$</productName><quantity>$quantity$</quantity>\
     <USPrice>$usPrice$</USPrice>$note$</item>";

/// A `<comment>` fragment.
pub const ORDER_COMMENT_TEMPLATE: &str = "<comment>$text$</comment>";

/// The type environment of [`ORDER_PAGE_TEMPLATE`].
pub fn order_page_env() -> TypeEnv {
    TypeEnv::new()
        .text("date")
        .text("shipName")
        .text("shipStreet")
        .text("shipCity")
        .text("shipState")
        .text("shipZip")
        .text("billName")
        .text("billStreet")
        .text("billCity")
        .text("billState")
        .text("billZip")
        .element("comment", "comment")
        .element("lines", "item")
}

/// The type environment of [`ORDER_ITEM_TEMPLATE`].
pub fn order_item_env() -> TypeEnv {
    TypeEnv::new()
        .text("partNum")
        .text("productName")
        .text("quantity")
        .text("usPrice")
        .element("note", "comment")
}

/// The type environment of [`ORDER_COMMENT_TEMPLATE`].
pub fn order_comment_env() -> TypeEnv {
    TypeEnv::new().text("text")
}

/// The compiled-template order renderer: the page, item, and comment
/// constructors are checked and lowered **once** ([`pxml::plan()`]); every
/// subsequent order renders through [`CompiledTemplate::render`] — static
/// bytes copied, holes escaped and spliced, with only the value-level
/// runtime residue (facets, fragment type and occurrence) still checked.
///
/// The same parsed templates drive [`render_interpreted`](Self::render_interpreted),
/// the `instantiate`-based oracle the differential tests compare against.
pub struct OrderTemplates {
    compiled: CompiledSchema,
    page: CompiledTemplate,
    item: CompiledTemplate,
    comment: CompiledTemplate,
    page_t: Template,
    item_t: Template,
    comment_t: Template,
}

impl OrderTemplates {
    /// Parses, checks, and lowers the three order constructors.
    pub fn new(compiled: &CompiledSchema) -> Result<OrderTemplates, Vec<pxml::PxmlError>> {
        let page_t = Template::parse(ORDER_PAGE_TEMPLATE).map_err(|e| vec![e])?;
        let item_t = Template::parse(ORDER_ITEM_TEMPLATE).map_err(|e| vec![e])?;
        let comment_t = Template::parse(ORDER_COMMENT_TEMPLATE).map_err(|e| vec![e])?;
        let page = pxml::plan(compiled, &page_t, &order_page_env())?;
        let item = pxml::plan(compiled, &item_t, &order_item_env())?;
        let comment = pxml::plan(compiled, &comment_t, &order_comment_env())?;
        Ok(OrderTemplates {
            compiled: compiled.clone(),
            page,
            item,
            comment,
            page_t,
            item_t,
            comment_t,
        })
    }

    /// The compiled page plan (for callers that bind their own data).
    pub fn page(&self) -> &CompiledTemplate {
        &self.page
    }

    fn page_bindings(order: &Order) -> Bindings {
        Bindings::new()
            .text("date", order.order_date.clone())
            .text("shipName", order.ship_to.name.clone())
            .text("shipStreet", order.ship_to.street.clone())
            .text("shipCity", order.ship_to.city.clone())
            .text("shipState", order.ship_to.state.clone())
            .text("shipZip", order.ship_to.zip.clone())
            .text("billName", order.bill_to.name.clone())
            .text("billStreet", order.bill_to.street.clone())
            .text("billCity", order.bill_to.city.clone())
            .text("billState", order.bill_to.state.clone())
            .text("billZip", order.bill_to.zip.clone())
    }

    fn item_bindings(item: &Item) -> Bindings {
        Bindings::new()
            .text("partNum", item.part_num.clone())
            .text("productName", item.product_name.clone())
            .text("quantity", item.quantity.to_string())
            .text("usPrice", item.us_price.clone())
    }

    /// Renders one order through the compiled path, appending to `out`.
    pub fn render_compiled_into(
        &self,
        order: &Order,
        out: &mut Vec<u8>,
    ) -> Result<(), InstantiateError> {
        let mut lines = Vec::with_capacity(order.items.len());
        // one bindings map reused across the line loop: only the values
        // change per item
        let mut row = Bindings::new();
        for item in &order.items {
            let note = match &item.comment {
                Some(c) => vec![self
                    .comment
                    .render_fragment(&Bindings::new().text("text", c.clone()))?],
                None => Vec::new(),
            };
            row.set_text("partNum", item.part_num.clone());
            row.set_text("productName", item.product_name.clone());
            row.set_text("quantity", item.quantity.to_string());
            row.set_text("usPrice", item.us_price.clone());
            row.set_rendered_list("note", note);
            lines.push(self.item.render_fragment(&row)?);
        }
        let comment = match &order.comment {
            Some(c) => vec![self
                .comment
                .render_fragment(&Bindings::new().text("text", c.clone()))?],
            None => Vec::new(),
        };
        let bindings = Self::page_bindings(order)
            .rendered_list("comment", comment)
            .rendered_list("lines", lines);
        self.page.render(&bindings, out)
    }

    /// Renders one order through the compiled path.
    pub fn render_compiled(&self, order: &Order) -> Result<String, InstantiateError> {
        let mut out = Vec::with_capacity(self.page.static_len() as usize + 64);
        self.render_compiled_into(order, &mut out)?;
        Ok(String::from_utf8(out).expect("rendered pages are UTF-8"))
    }

    /// Renders one order through the interpreter
    /// ([`pxml::instantiate()`]) — the differential oracle for
    /// [`render_compiled`](Self::render_compiled): same templates, same
    /// bindings, full V-DOM construction and seal per page.
    pub fn render_interpreted(&self, order: &Order) -> Result<String, InstantiateError> {
        let mut lines = Vec::with_capacity(order.items.len());
        for item in &order.items {
            let note = match &item.comment {
                Some(c) => vec![pxml::instantiate(
                    &self.compiled,
                    &self.comment_t,
                    &Bindings::new().text("text", c.clone()),
                )?],
                None => Vec::new(),
            };
            lines.push(pxml::instantiate(
                &self.compiled,
                &self.item_t,
                &Self::item_bindings(item).fragment_list("note", note),
            )?);
        }
        let comment = match &order.comment {
            Some(c) => vec![pxml::instantiate(
                &self.compiled,
                &self.comment_t,
                &Bindings::new().text("text", c.clone()),
            )?],
            None => Vec::new(),
        };
        let bindings = Self::page_bindings(order)
            .fragment_list("comment", comment)
            .fragment_list("lines", lines);
        let frag = pxml::instantiate(&self.compiled, &self.page_t, &bindings)?;
        frag.to_xml()
            .map_err(|e| InstantiateError::Binding(format!("serialize: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::corpus::PURCHASE_ORDER_XSD;

    fn compiled() -> CompiledSchema {
        CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap()
    }

    #[test]
    fn order_generation_is_deterministic() {
        let a = generate_order(1, 5);
        let b = generate_order(1, 5);
        assert_eq!(a.ship_to.name, b.ship_to.name);
        assert_eq!(a.items.len(), 5);
        assert_eq!(a.items[0].part_num, b.items[0].part_num);
    }

    #[test]
    fn backends_agree_and_validate() {
        let c = compiled();
        for n in [0, 1, 10] {
            let order = generate_order(99, n);
            let s = render_order_string(&order);
            let d = render_order_dom(&c, &order).unwrap();
            let v = render_order_vdom(&c, &order).unwrap();
            assert_eq!(s, d, "n={n}");
            assert_eq!(d, v, "n={n}");
            let doc = xmlparse::parse_document(&v).unwrap();
            assert!(validator::validate_document(&c, &doc).is_empty());
        }
    }

    #[test]
    fn compiled_templates_agree_with_every_backend() {
        let c = compiled();
        let tpl = OrderTemplates::new(&c).unwrap();
        for n in [0, 1, 10] {
            let order = generate_order(99, n);
            let s = render_order_string(&order);
            let compiled_page = tpl.render_compiled(&order).unwrap();
            let interpreted = tpl.render_interpreted(&order).unwrap();
            assert_eq!(compiled_page, s, "n={n}");
            assert_eq!(compiled_page, interpreted, "n={n}");
            let doc = xmlparse::parse_document(&compiled_page).unwrap();
            assert!(validator::validate_document(&c, &doc).is_empty());
        }
    }

    #[test]
    fn compiled_templates_reject_facet_violations_like_the_interpreter() {
        let c = compiled();
        let tpl = OrderTemplates::new(&c).unwrap();
        let mut order = generate_order(3, 2);
        order.items[1].part_num = "WRONG".to_string(); // fails the SKU pattern
        let ce = tpl.render_compiled(&order).unwrap_err();
        let ie = tpl.render_interpreted(&order).unwrap_err();
        assert_eq!(format!("{ce}"), format!("{ie}"));
    }

    #[test]
    fn hostile_order_data_is_escaped_identically() {
        let c = compiled();
        let tpl = OrderTemplates::new(&c).unwrap();
        let mut order = generate_order(7, 1);
        order.ship_to.name = "Ada <&> \"Lovelace\"".to_string();
        order.comment = Some("5 < 6 && ]]> ok".to_string());
        order.items[0].comment = Some("handle > with \"care\"".to_string());
        let compiled_page = tpl.render_compiled(&order).unwrap();
        let interpreted = tpl.render_interpreted(&order).unwrap();
        assert_eq!(compiled_page, interpreted);
        let doc = xmlparse::parse_document(&compiled_page).unwrap();
        assert!(validator::validate_document(&c, &doc).is_empty());
    }

    #[test]
    fn generated_skus_match_the_pattern() {
        let order = generate_order(5, 50);
        let sku = xsdregex::Regex::parse(r"\d{3}-[A-Z]{2}").unwrap();
        for item in &order.items {
            assert!(sku.is_match(&item.part_num), "{}", item.part_num);
            assert!(item.quantity >= 1 && item.quantity < 100);
        }
    }
}
