//! The simple-value error surface, pinned byte for byte: one table of
//! attribute values and leaf texts from the corpus schemas, each checked
//! by three engines. For every row the exact `Display` of every error is
//! fixed, as reported by streaming validation, by tree validation of the
//! parsed document, and by a patch session that sets the same value on
//! an otherwise valid document.
//!
//! The rows cover every facet kind and lexical failure the purchase-order
//! and WML schemas can produce (the `SKU` pattern, `quantity`'s
//! `positiveInteger` and `maxExclusive`, decimal prices and zips, dates,
//! the fixed `country`, the WML `align` enumeration, NCName, boolean and
//! anyURI attributes) plus values that only pass after whitespace
//! collapse.

use limits::Limits;
use schema::corpus::{PURCHASE_ORDER_XSD, WML_XSD};
use schema::CompiledSchema;
use validator::{validate_document, validate_str_streaming, DomPatch};
use webgen::DocSession;

/// Where a value goes: an attribute or the text of a leaf element, in a
/// one-line document of either schema whose other values are valid.
#[derive(Clone, Copy, Debug)]
enum Slot {
    PoOrderDate,
    PoCountry,
    PoZip,
    PoPartNum,
    PoQuantity,
    PoPrice,
    PoShipDate,
    WmlId,
    WmlAlign,
    WmlMultiple,
    WmlHref,
}

/// The placeholder each slot replaces, its valid default, the node path
/// of the element (attribute slots) or text node (text slots), and the
/// attribute name for attribute slots.
struct SlotInfo {
    key: &'static str,
    default: &'static str,
    path: &'static [usize],
    attribute: Option<&'static str>,
}

impl Slot {
    fn info(self) -> SlotInfo {
        let (key, default, path, attribute): (_, _, &'static [usize], _) = match self {
            Slot::PoOrderDate => ("{orderDate}", "1999-10-20", &[0], Some("orderDate")),
            Slot::PoCountry => ("{country}", "US", &[0, 0], Some("country")),
            Slot::PoZip => ("{zip}", "90952", &[0, 0, 4, 0], None),
            Slot::PoPartNum => ("{partNum}", "872-AA", &[0, 2, 0], Some("partNum")),
            Slot::PoQuantity => ("{quantity}", "1", &[0, 2, 0, 1, 0], None),
            Slot::PoPrice => ("{USPrice}", "148.95", &[0, 2, 0, 2, 0], None),
            Slot::PoShipDate => ("{shipDate}", "1999-05-21", &[0, 2, 0, 3, 0], None),
            Slot::WmlId => ("{id}", "c", &[0, 0], Some("id")),
            Slot::WmlAlign => ("{align}", "left", &[0, 0, 0], Some("align")),
            Slot::WmlMultiple => ("{multiple}", "true", &[0, 0, 0, 0], Some("multiple")),
            Slot::WmlHref => ("{href}", "x.wml", &[0, 0, 0, 1], Some("href")),
        };
        SlotInfo {
            key,
            default,
            path,
            attribute,
        }
    }

    fn is_po(self) -> bool {
        matches!(
            self,
            Slot::PoOrderDate
                | Slot::PoCountry
                | Slot::PoZip
                | Slot::PoPartNum
                | Slot::PoQuantity
                | Slot::PoPrice
                | Slot::PoShipDate
        )
    }

    fn all(self) -> &'static [Slot] {
        if self.is_po() {
            &[
                Slot::PoOrderDate,
                Slot::PoCountry,
                Slot::PoZip,
                Slot::PoPartNum,
                Slot::PoQuantity,
                Slot::PoPrice,
                Slot::PoShipDate,
            ]
        } else {
            &[
                Slot::WmlId,
                Slot::WmlAlign,
                Slot::WmlMultiple,
                Slot::WmlHref,
            ]
        }
    }

    /// The document with this slot set to `value` and every other slot
    /// at its default.
    fn document(self, value: &str) -> String {
        let template = if self.is_po() {
            "<purchaseOrder orderDate=\"{orderDate}\"><shipTo country=\"{country}\">\
             <name>Alice</name><street>123 Maple</street><city>Mill Valley</city>\
             <state>CA</state><zip>{zip}</zip></shipTo><billTo country=\"US\">\
             <name>Robert</name><street>8 Oak</street><city>Old Town</city>\
             <state>PA</state><zip>95819</zip></billTo><items>\
             <item partNum=\"{partNum}\"><productName>Lawnmower</productName>\
             <quantity>{quantity}</quantity><USPrice>{USPrice}</USPrice>\
             <shipDate>{shipDate}</shipDate></item></items></purchaseOrder>"
        } else {
            "<wml><card id=\"{id}\"><p align=\"{align}\">\
             <select name=\"d\" multiple=\"{multiple}\"><option value=\"v\">x</option></select>\
             <a href=\"{href}\">h</a></p></card></wml>"
        };
        let mut doc = template.to_string();
        for &slot in self.all() {
            let info = slot.info();
            let fill = if slot.info().key == self.info().key {
                value
            } else {
                info.default
            };
            doc = doc.replace(info.key, fill);
        }
        doc
    }
}

/// `(slot, value, every error's Display)`; an empty list means valid.
#[rustfmt::skip]
fn cases() -> Vec<(Slot, &'static str, Vec<&'static str>)> {
    vec![
        // purchase order: SKU pattern on item/@partNum
        (Slot::PoPartNum, "926-AA", vec![]),
        (Slot::PoPartNum, "926-aa", vec!["attribute partNum of <item>: value \"926-aa\" violates facet pattern(\\d{3}-[A-Z]{2}) at 1:302"]),
        (Slot::PoPartNum, "9266-AA", vec!["attribute partNum of <item>: value \"9266-AA\" violates facet pattern(\\d{3}-[A-Z]{2}) at 1:302"]),
        (Slot::PoPartNum, " 926-AA", vec!["attribute partNum of <item>: value \" 926-AA\" violates facet pattern(\\d{3}-[A-Z]{2}) at 1:302"]),
        // quantity: positiveInteger restricted by maxExclusive 100
        (Slot::PoQuantity, "99", vec![]),
        (Slot::PoQuantity, " 99 ", vec![]),
        (Slot::PoQuantity, "+7", vec![]),
        (Slot::PoQuantity, "100", vec!["content of <quantity>: value \"100\" violates facet maxExclusive(100) at 1:361"]),
        (Slot::PoQuantity, "150", vec!["content of <quantity>: value \"150\" violates facet maxExclusive(100) at 1:361"]),
        (Slot::PoQuantity, "0", vec!["content of <quantity>: \"0\" is not a valid xsd:positiveInteger (positiveInteger (> 0)) at 1:361"]),
        (Slot::PoQuantity, "-3", vec!["content of <quantity>: \"-3\" is not a valid xsd:positiveInteger (positiveInteger (> 0)) at 1:361"]),
        (Slot::PoQuantity, "1.5", vec!["content of <quantity>: \"1.5\" is not a valid xsd:positiveInteger (integer (no fraction part)) at 1:361"]),
        (Slot::PoQuantity, "1.0", vec!["content of <quantity>: \"1.0\" is not a valid xsd:positiveInteger (integer (no fraction part)) at 1:361"]),
        (Slot::PoQuantity, "five", vec!["content of <quantity>: \"five\" is not a valid xsd:positiveInteger (integer) at 1:361"]),
        (Slot::PoQuantity, "", vec!["content of <quantity>: \"\" is not a valid xsd:positiveInteger (integer) at 1:361"]),
        // USPrice and zip: xsd:decimal
        (Slot::PoPrice, "39.98", vec![]),
        (Slot::PoPrice, " 148.95\n", vec![]),
        (Slot::PoPrice, "-0.50", vec![]),
        (Slot::PoPrice, ".5", vec![]),
        (Slot::PoPrice, "1.2.3", vec!["content of <USPrice>: \"1.2.3\" is not a valid xsd:decimal (decimal) at 1:383"]),
        (Slot::PoPrice, "1e5", vec!["content of <USPrice>: \"1e5\" is not a valid xsd:decimal (decimal) at 1:383"]),
        (Slot::PoPrice, "$5", vec!["content of <USPrice>: \"$5\" is not a valid xsd:decimal (decimal) at 1:383"]),
        (Slot::PoZip, "00901", vec![]),
        (Slot::PoZip, "9095x", vec!["content of <zip>: \"9095x\" is not a valid xsd:decimal (decimal) at 1:145"]),
        // shipDate and orderDate: xsd:date
        (Slot::PoShipDate, "2000-02-29", vec![]),
        (Slot::PoShipDate, " 1999-05-21 ", vec![]),
        (Slot::PoShipDate, "1999-05-21Z", vec![]),
        (Slot::PoShipDate, "1999-05-21+05:00", vec![]),
        (Slot::PoShipDate, "1999-02-29", vec!["content of <shipDate>: \"1999-02-29\" is not a valid xsd:date (date) at 1:408"]),
        (Slot::PoShipDate, "1999-13-01", vec!["content of <shipDate>: \"1999-13-01\" is not a valid xsd:date (date) at 1:408"]),
        (Slot::PoShipDate, "99-05-21", vec!["content of <shipDate>: \"99-05-21\" is not a valid xsd:date (date) at 1:408"]),
        (Slot::PoShipDate, "1999-05-21+15:00", vec!["content of <shipDate>: \"1999-05-21+15:00\" is not a valid xsd:date (date) at 1:408"]),
        (Slot::PoOrderDate, "bad", vec!["attribute orderDate of <purchaseOrder>: \"bad\" is not a valid xsd:date (date) at 1:1"]),
        (Slot::PoOrderDate, "0000-01-01", vec!["attribute orderDate of <purchaseOrder>: \"0000-01-01\" is not a valid xsd:date (date) at 1:1"]),
        // country: NMTOKEN fixed to "US"
        (Slot::PoCountry, " US ", vec!["attribute country of <shipTo> is fixed to \"US\" but is \" US \" at 1:39"]),
        (Slot::PoCountry, "DE", vec!["attribute country of <shipTo> is fixed to \"US\" but is \"DE\" at 1:39"]),
        (Slot::PoCountry, "U S", vec!["attribute country of <shipTo>: \"U S\" is not a valid xsd:NMTOKEN (NMTOKEN) at 1:39", "attribute country of <shipTo> is fixed to \"US\" but is \"U S\" at 1:39"]),
        // WML: align is a token enumeration
        (Slot::WmlAlign, "center", vec![]),
        (Slot::WmlAlign, " right ", vec![]),
        (Slot::WmlAlign, "justify", vec!["attribute align of <p>: value \"justify\" violates facet enumeration(left | center | right) at 1:19"]),
        (Slot::WmlAlign, "Left", vec!["attribute align of <p>: value \"Left\" violates facet enumeration(left | center | right) at 1:19"]),
        // WML: NCName, boolean and anyURI attributes
        (Slot::WmlId, "card_1", vec![]),
        (Slot::WmlId, "1card", vec!["attribute id of <card>: \"1card\" is not a valid xsd:NCName (NCName) at 1:6"]),
        (Slot::WmlId, "a:b", vec!["attribute id of <card>: \"a:b\" is not a valid xsd:NCName (NCName) at 1:6"]),
        (Slot::WmlMultiple, "0", vec![]),
        (Slot::WmlMultiple, "yes", vec!["attribute multiple of <select>: \"yes\" is not a valid xsd:boolean (boolean (true/false/1/0)) at 1:35"]),
        (Slot::WmlHref, "a%20b.wml", vec![]),
        (Slot::WmlHref, "a%zzb", vec!["attribute href of <a>: \"a%zzb\" is not a valid xsd:anyURI (anyURI) at 1:105"]),
        (Slot::WmlHref, "a b", vec!["attribute href of <a>: \"a b\" is not a valid xsd:anyURI (anyURI) at 1:105"]),
    ]
}

fn shown(errors: &[validator::ValidationError]) -> Vec<String> {
    errors.iter().map(ToString::to_string).collect()
}

#[test]
fn simple_value_errors_are_pinned_across_engines() {
    let po = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
    let wml = CompiledSchema::parse(WML_XSD).unwrap();
    let mut failures = Vec::new();
    for (slot, value, expected) in cases() {
        let compiled = if slot.is_po() { &po } else { &wml };
        let doc = slot.document(value);
        let expected: Vec<String> = expected.iter().map(|s| s.to_string()).collect();

        let streamed = shown(&validate_str_streaming(compiled, &doc));
        let tree = shown(&validate_document(
            compiled,
            &xmlparse::parse_document(&doc).unwrap(),
        ));

        let info = slot.info();
        let base = slot.document(info.default);
        let mut session = DocSession::open("s", compiled.clone(), &base, Limits::default())
            .unwrap_or_else(|e| panic!("{slot:?}: the base document is invalid: {e:?}"));
        let patch = match info.attribute {
            Some(name) => DomPatch::SetAttr {
                at: info.path.to_vec(),
                name: name.to_string(),
                value: value.to_string(),
            },
            None => DomPatch::SetText {
                at: info.path.to_vec(),
                text: value.to_string(),
            },
        };
        let patched = session.apply(&patch).err().map(|e| e.to_string());
        let expected_patch = expected.first().map(|first| {
            format!(
                "patch rejected: {} violation(s); first: {first}",
                expected.len()
            )
        });

        if streamed != expected || tree != expected || patched != expected_patch {
            failures.push(format!(
                "{slot:?} {value:?}\n  expected: {expected:?}\n  streamed: {streamed:?}\n  \
                 tree:     {tree:?}\n  patched:  {patched:?}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
