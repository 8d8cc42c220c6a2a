//! Differential property tests for compiled templates: for every
//! template + bindings pair, `pxml::plan(...)` followed by
//! `CompiledTemplate::render` must produce exactly the bytes of
//! `pxml::instantiate(...)` followed by `Fragment::to_xml` — or reject
//! with the same typed error (single-fault inputs; the interpreter
//! validates bottom-up at seal, the compiled path in document order, so
//! only the first fault is contractually ordered).

use proptest::prelude::*;
use pxml::{Bindings, Template, TypeEnv};
use schema::corpus::{PURCHASE_ORDER_XSD, WML_XSD};
use schema::CompiledSchema;
use webgen::{generate_order, OrderTemplates};

fn po() -> CompiledSchema {
    CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap()
}

fn wml() -> CompiledSchema {
    CompiledSchema::parse(WML_XSD).unwrap()
}

/// Strings with every character class the escapers must handle: markup
/// metacharacters, `]]>`, lone carriage returns, quotes, emptiness.
fn hostile_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9 ]{0,12}",
        Just("<&>\"']]>".to_string()),
        Just("a]]>b".to_string()),
        Just("line\rreturn".to_string()),
        Just("\r".to_string()),
        Just(String::new()),
        "[^\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f]{0,16}",
    ]
}

/// Optional hostile string (models optional comment fields).
fn maybe_text() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), hostile_text().prop_map(Some)]
}

/// One compiled-vs-interpreted comparison on a template with text
/// bindings: identical bytes, or identical error messages.
fn assert_differential(
    compiled_schema: &CompiledSchema,
    source: &str,
    env: &TypeEnv,
    bindings: &Bindings,
) {
    let template = Template::parse(source).unwrap();
    let plan = pxml::plan(compiled_schema, &template, env).unwrap();
    let fast = plan.render_to_string(bindings);
    let slow = pxml::instantiate(compiled_schema, &template, bindings).and_then(|f| {
        f.to_xml()
            .map_err(|e| pxml::InstantiateError::Binding(format!("serialize: {e}")))
    });
    match (fast, slow) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "rendered bytes diverged"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "errors diverged"),
        (a, b) => panic!("one path accepted, the other rejected: compiled={a:?} interpreted={b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Orders with hostile values in every string-typed field render to
    /// identical bytes through the compiled path and the interpreter,
    /// and the page validates.
    #[test]
    fn compiled_orders_match_the_interpreter(
        seed in 0u64..500,
        items in 0usize..8,
        name in hostile_text(),
        street in hostile_text(),
        product in hostile_text(),
        order_comment in maybe_text(),
        item_comment in maybe_text(),
    ) {
        let c = po();
        let tpl = OrderTemplates::new(&c).unwrap();
        let mut order = generate_order(seed, items);
        order.ship_to.name = name;
        order.bill_to.street = street;
        order.comment = order_comment;
        if let Some(item) = order.items.first_mut() {
            item.product_name = product;
            item.comment = item_comment;
        }
        let fast = tpl.render_compiled(&order).unwrap();
        let slow = tpl.render_interpreted(&order).unwrap();
        prop_assert_eq!(&fast, &slow);
        if items == 0 {
            prop_assert!(fast.contains("<items/>"), "empty list must collapse: {}", fast);
        }
        let doc = xmlparse::parse_document(&fast).unwrap();
        prop_assert!(validator::validate_document(&c, &doc).is_empty());
    }

    /// A single injected fault (facet violation, bad date, bad SKU …)
    /// rejects both paths with the same typed error.
    #[test]
    fn single_faults_reject_identically(seed in 0u64..200, mutation in 0usize..5) {
        let c = po();
        let tpl = OrderTemplates::new(&c).unwrap();
        let mut order = generate_order(seed, 3);
        match mutation {
            0 => order.items[1].part_num = "no-sku".to_string(),
            1 => order.items[2].quantity = 100, // maxExclusive 100
            2 => order.items[0].us_price = "not a price".to_string(),
            3 => order.ship_to.zip = "zip?".to_string(),
            4 => order.order_date = "soon".to_string(),
            _ => unreachable!(),
        }
        let fast = tpl.render_compiled(&order).unwrap_err();
        let slow = tpl.render_interpreted(&order).unwrap_err();
        prop_assert_eq!(fast.to_string(), slow.to_string(), "mutation {}", mutation);
    }

    /// Attribute and simple-content holes with arbitrary values agree
    /// byte-for-byte (string-typed WML option rows, so any value is
    /// facet-legal and the comparison exercises pure escaping).
    #[test]
    fn wml_option_rows_agree(value in hostile_text(), label in hostile_text()) {
        let c = wml();
        let env = TypeEnv::new().text("v").text("l");
        let bindings = Bindings::new().text("v", value).text("l", label);
        assert_differential(&c, "<option value=\"$v$\">$l$</option>", &env, &bindings);
    }

    /// Multi-part attribute values (literal glue around two holes)
    /// agree: the URI facet either passes both or rejects both with the
    /// same error.
    #[test]
    fn interpolated_attributes_agree(host in "[a-z<&\" ]{0,8}", path in "[a-z%20 ]{0,8}") {
        let c = wml();
        let env = TypeEnv::new().text("host").text("path");
        let bindings = Bindings::new().text("host", host).text("path", path);
        assert_differential(
            &c,
            "<a href=\"http://$host$/media/$path$\">x</a>",
            &env,
            &bindings,
        );
    }

    /// Missing bindings reject both paths with the same message.
    #[test]
    fn missing_bindings_agree(which in 0usize..2) {
        let c = wml();
        let env = TypeEnv::new().text("v").text("l");
        let bindings = match which {
            0 => Bindings::new().text("l", "x"),
            1 => Bindings::new().text("v", "x"),
            _ => unreachable!(),
        };
        assert_differential(&c, "<option value=\"$v$\">$l$</option>", &env, &bindings);
    }
}

const SHIP_TO: &str = "<shipTo country=\"US\">$n$<street>s</street>\
     <city>c</city><state>st</state><zip>1</zip></shipTo>";

/// A template text run made only of Unicode spaces that are not XML
/// whitespace, in mixed content: the plan keeps it as text exactly like
/// the interpreter does.
#[test]
fn unicode_space_runs_in_mixed_content_agree() {
    let c = wml();
    let env = TypeEnv::new().text("a").text("b");
    let bindings = Bindings::new().text("a", "x").text("b", "y");
    for space in ["\u{A0}", "\u{3000}", " \u{A0}\n"] {
        let source = format!("<p>$a${space}$b$</p>");
        assert_differential(&c, &source, &env, &bindings);
    }
}

#[test]
fn fragment_splices_agree_with_the_interpreter() {
    let c = po();
    let env = TypeEnv::new().element("n", "name");
    let template = Template::parse(SHIP_TO).unwrap();
    let plan = pxml::plan(&c, &template, &env).unwrap();
    let name_t = Template::parse("<name>$who$</name>").unwrap();
    for who in ["Alice", "a<b&c\"", ""] {
        let frag = pxml::instantiate(&c, &name_t, &Bindings::new().text("who", who)).unwrap();
        let slow = pxml::instantiate(&c, &template, &Bindings::new().fragment("n", frag.clone()))
            .unwrap()
            .to_xml()
            .unwrap();
        // Fragment value and its pre-rendered form agree with the oracle
        let fast = plan
            .render_to_string(&Bindings::new().fragment("n", frag.clone()))
            .unwrap();
        assert_eq!(fast, slow, "who={who:?}");
        let rendered = frag.to_rendered().unwrap();
        let fast = plan
            .render_to_string(&Bindings::new().rendered("n", rendered))
            .unwrap();
        assert_eq!(fast, slow, "pre-rendered, who={who:?}");
    }
}

#[test]
fn occurrence_violations_agree_with_the_interpreter() {
    let c = po();
    let source = "<purchaseOrder orderDate=\"1999-10-20\">\
         <shipTo country=\"US\"><name>n</name><street>s</street><city>c</city>\
         <state>st</state><zip>1</zip></shipTo>\
         <billTo country=\"US\"><name>n</name><street>s</street><city>c</city>\
         <state>st</state><zip>1</zip></billTo>\
         $comment$<items/></purchaseOrder>";
    let env = TypeEnv::new().element("comment", "comment");
    let template = Template::parse(source).unwrap();
    let plan = pxml::plan(&c, &template, &env).unwrap();
    let comment_t = Template::parse("<comment>x</comment>").unwrap();
    let one = pxml::instantiate(&c, &comment_t, &Bindings::new()).unwrap();
    // zero and one comment: both paths accept with identical bytes
    for count in [0usize, 1] {
        let frags = vec![one.clone(); count];
        let fast = plan
            .render_to_string(&Bindings::new().fragment_list("comment", frags.clone()))
            .unwrap();
        let slow = pxml::instantiate(
            &c,
            &template,
            &Bindings::new().fragment_list("comment", frags),
        )
        .unwrap()
        .to_xml()
        .unwrap();
        assert_eq!(fast, slow, "count={count}");
    }
    // two comments overflow `comment?`: both reject with the same step
    let frags = vec![one.clone(), one.clone()];
    let fast = plan
        .render_to_string(&Bindings::new().fragment_list("comment", frags.clone()))
        .unwrap_err();
    let slow = pxml::instantiate(
        &c,
        &template,
        &Bindings::new().fragment_list("comment", frags),
    )
    .unwrap_err();
    assert_eq!(fast.to_string(), slow.to_string());
}

#[test]
fn mistyped_bindings_agree_with_the_interpreter() {
    let c = po();
    let env = TypeEnv::new().element("n", "name");
    let template = Template::parse(SHIP_TO).unwrap();
    let plan = pxml::plan(&c, &template, &env).unwrap();
    // a text value where element-only content expects a child
    let bindings = Bindings::new().text("n", "just text");
    let fast = plan.render_to_string(&bindings).unwrap_err();
    let slow = pxml::instantiate(&c, &template, &bindings).unwrap_err();
    assert_eq!(fast.to_string(), slow.to_string());
    // an element value in attribute position
    let attr_t = Template::parse(
        "<shipTo country=\"$n$\"><name>x</name><street>s</street>\
         <city>c</city><state>st</state><zip>1</zip></shipTo>",
    )
    .unwrap();
    let name_frag = pxml::instantiate(
        &c,
        &Template::parse("<name>x</name>").unwrap(),
        &Bindings::new(),
    )
    .unwrap();
    let attr_env = TypeEnv::new().text("n");
    let attr_plan = pxml::plan(&c, &attr_t, &attr_env).unwrap();
    let bindings = Bindings::new().fragment("n", name_frag);
    let fast = attr_plan.render_to_string(&bindings).unwrap_err();
    let slow = pxml::instantiate(&c, &attr_t, &bindings).unwrap_err();
    assert_eq!(fast.to_string(), slow.to_string());
}

/// A plan refuses templates the checker refuses, with the same errors.
#[test]
fn plan_rejects_what_the_checker_rejects() {
    let c = po();
    let bad = Template::parse("<shipTo country=\"US\"><zip>1</zip></shipTo>").unwrap();
    let env = TypeEnv::new();
    let check_errors = pxml::check_template(&c, &bad, &env);
    assert!(!check_errors.is_empty());
    let plan_errors = pxml::plan(&c, &bad, &env).unwrap_err();
    assert_eq!(
        format!("{check_errors:?}"),
        format!("{plan_errors:?}"),
        "plan must surface exactly the checker's errors"
    );
}
