//! Tests of the interface-model builder and normal form against the
//! paper's Sect. 3 examples, Fig. 6 and Appendix A.

use normalize::{build_model, normalize_schema, render_particle, FieldType, InterfaceKind};
use schema::corpus::*;
use schema::parse_schema;

#[test]
fn purchase_order_interfaces_exist() {
    let schema = parse_schema(PURCHASE_ORDER_XSD).unwrap();
    let model = build_model(&schema).unwrap();
    // Appendix A names
    for name in [
        "purchaseOrderElement",
        "commentElement",
        "PurchaseOrderTypeType",
        "USAddressType",
        "ItemsType",
        "SKU",
        "shipToElement",
        "billToElement",
        "itemsElement",
        "nameElement",
        "zipElement",
    ] {
        assert!(model.interface(name).is_some(), "{name} missing");
    }
}

#[test]
fn purchase_order_type_fields_match_appendix_a() {
    let schema = parse_schema(PURCHASE_ORDER_XSD).unwrap();
    let model = build_model(&schema).unwrap();
    let po = model.interface("PurchaseOrderTypeType").unwrap();
    let field_names: Vec<&str> = po.fields.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        field_names,
        ["shipTo", "billTo", "comment", "items", "orderDate"]
    );
    // comment is optional (minOccurs="0")
    let comment = po.fields.iter().find(|f| f.name == "comment").unwrap();
    assert!(comment.optional);
    assert_eq!(comment.ty, FieldType::Interface("commentElement".into()));
    // orderDate is an attribute of type date
    let od = po.fields.iter().find(|f| f.name == "orderDate").unwrap();
    assert!(od.from_attribute);
    assert_eq!(od.ty, FieldType::Primitive(schema::BuiltinType::Date));
}

#[test]
fn items_type_has_list_field() {
    let schema = parse_schema(PURCHASE_ORDER_XSD).unwrap();
    let model = build_model(&schema).unwrap();
    let items = model.interface("ItemsType").unwrap();
    let item = &items.fields[0];
    assert_eq!(item.name, "item");
    assert!(matches!(&item.ty, FieldType::List(inner)
        if **inner == FieldType::Interface("itemElement".into())));
    assert_eq!(item.bounds, Some((0, None)));
}

#[test]
fn sku_is_simple_restriction_of_string() {
    let schema = parse_schema(PURCHASE_ORDER_XSD).unwrap();
    let model = build_model(&schema).unwrap();
    let sku = model.interface("SKU").unwrap();
    assert_eq!(sku.kind, InterfaceKind::SimpleRestriction);
    assert_eq!(sku.extends, ["string"]);
}

#[test]
fn choice_group_gets_inherited_name_and_inheritance() {
    // the Fig. 6 reproduction
    let schema = parse_schema(CHOICE_PO_XSD).unwrap();
    let model = build_model(&schema).unwrap();
    let group = model.interface("PurchaseOrderTypeCC1Group").unwrap();
    assert_eq!(group.kind, InterfaceKind::Group);
    assert_eq!(
        group.choice_alternatives,
        ["singAddrElement", "twoAddrElement"]
    );
    // alternatives extend the group interface
    let sing = model.interface("singAddrElement").unwrap();
    assert!(sing
        .extends
        .contains(&"PurchaseOrderTypeCC1Group".to_string()));
    let two = model.interface("twoAddrElement").unwrap();
    assert!(two
        .extends
        .contains(&"PurchaseOrderTypeCC1Group".to_string()));
    // the type's field uses the group as its type (Fig. 6 line 6)
    let po = model.interface("PurchaseOrderTypeType").unwrap();
    let choice_field = &po.fields[0];
    assert_eq!(choice_field.name, "PurchaseOrderTypeCC1");
    assert_eq!(
        choice_field.ty,
        FieldType::Interface("PurchaseOrderTypeCC1Group".into())
    );
}

#[test]
fn evolution_keeps_choice_name_stable() {
    // Sect. 3: adding multAddr must not change the generated names
    let before = build_model(&parse_schema(CHOICE_PO_XSD).unwrap()).unwrap();
    let after = build_model(&parse_schema(CHOICE_PO_EVOLVED_XSD).unwrap()).unwrap();
    assert!(before.interface("PurchaseOrderTypeCC1Group").is_some());
    let evolved = after.interface("PurchaseOrderTypeCC1Group").unwrap();
    assert_eq!(
        evolved.choice_alternatives,
        ["singAddrElement", "twoAddrElement", "multAddrElement"]
    );
    // field names in the owning type unchanged
    let f_before: Vec<_> = before
        .interface("PurchaseOrderTypeType")
        .unwrap()
        .fields
        .iter()
        .map(|f| f.name.clone())
        .collect();
    let f_after: Vec<_> = after
        .interface("PurchaseOrderTypeType")
        .unwrap()
        .fields
        .iter()
        .map(|f| f.name.clone())
        .collect();
    assert_eq!(f_before, f_after);
}

#[test]
fn extension_becomes_inheritance() {
    let schema = parse_schema(ADDRESS_EXTENSION_XSD).unwrap();
    let model = build_model(&schema).unwrap();
    let us = model.interface("USAddressType").unwrap();
    assert_eq!(us.extends, ["AddressType"]);
    // own fields only (state, zip), base fields stay on AddressType
    let names: Vec<&str> = us.fields.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["state", "zip"]);
    let base = model.interface("AddressType").unwrap();
    let base_names: Vec<&str> = base.fields.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(base_names, ["name", "street", "city"]);
}

#[test]
fn substitution_groups_become_inheritance() {
    let schema = parse_schema(SUBSTITUTION_XSD).unwrap();
    let model = build_model(&schema).unwrap();
    let ship = model.interface("shipCommentElement").unwrap();
    assert!(ship.extends.contains(&"commentElement".to_string()));
    let cust = model.interface("customerCommentElement").unwrap();
    assert!(cust.extends.contains(&"commentElement".to_string()));
}

#[test]
fn named_group_yields_named_interface() {
    // Sect. 3: "this declaration yields a named interface AddressGroup
    // as a super type of singAddrElement/twoAddrElement"
    let schema = parse_schema(NAMED_GROUP_XSD).unwrap();
    let model = build_model(&schema).unwrap();
    let group = model.interface("AddressGroup").unwrap();
    assert_eq!(group.kind, InterfaceKind::Group);
    let sing = model.interface("singAddrElement").unwrap();
    assert!(sing.extends.contains(&"AddressGroup".to_string()));
}

#[test]
fn normal_form_lifts_nested_choice() {
    let schema = parse_schema(CHOICE_PO_XSD).unwrap();
    let nf = normalize_schema(&schema);
    assert_eq!(nf.generated_groups, ["PurchaseOrderTypeCC1"]);
    let group = nf.schema.groups.get("PurchaseOrderTypeCC1").unwrap();
    assert_eq!(render_particle(&group.particle), "(singAddr | twoAddr)");
    // the type now references the group
    match nf.schema.type_def("PurchaseOrderType").unwrap() {
        schema::TypeDef::Complex(ct) => match &ct.content {
            schema::ContentModel::ElementOnly(p) => {
                assert_eq!(
                    render_particle(p),
                    "(group:PurchaseOrderTypeCC1, ref:comment?, items)"
                );
            }
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
    // normalized schema still compiles and accepts the same language
    let normalized = schema::CompiledSchema::new(nf.schema).unwrap();
    let before = schema.content_expr("PurchaseOrderType").unwrap();
    let da = automata::ContentDfa::compile(&before).unwrap();
    let db = normalized.content_dfa("PurchaseOrderType").unwrap();
    for children in [
        vec!["singAddr", "comment", "items"],
        vec!["twoAddr", "items"],
        vec!["singAddr", "twoAddr", "items"],
        vec!["items"],
    ] {
        assert_eq!(
            da.accepts(children.iter().copied()),
            db.accepts(children.iter().copied()),
            "{children:?}"
        );
    }
}

#[test]
fn normal_form_is_idempotent() {
    let schema = parse_schema(CHOICE_PO_XSD).unwrap();
    let once = normalize_schema(&schema);
    let twice = normalize_schema(&once.schema);
    assert!(twice.generated_groups.is_empty());
}

#[test]
fn already_flat_schema_unchanged() {
    let schema = parse_schema(PURCHASE_ORDER_XSD).unwrap();
    let nf = normalize_schema(&schema);
    assert!(nf.generated_groups.is_empty());
}

#[test]
fn wml_model_builds() {
    let schema = parse_schema(WML_XSD).unwrap();
    let model = build_model(&schema).unwrap();
    for name in [
        "wmlElement",
        "WmlTypeType",
        "CardTypeType",
        "PTypeType",
        "SelectTypeType",
        "optionElement",
    ] {
        assert!(model.interface(name).is_some(), "{name} missing");
    }
    // select has a required name attribute
    let select = model.interface("SelectTypeType").unwrap();
    let name_attr = select.fields.iter().find(|f| f.name == "name").unwrap();
    assert!(name_attr.from_attribute);
    assert!(!name_attr.optional);
}
