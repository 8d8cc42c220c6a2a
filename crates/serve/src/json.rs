//! JSON rendering of validation verdicts — written by hand because the
//! service is std-only, and *canonical* so the conformance battery can
//! compare an HTTP response byte-for-byte against the JSON rendered
//! from a direct `validate_str_streaming` run: byte equality of the two
//! strings is exactly "same error kinds, same messages, same spans".
//!
//! The codec underneath — the string escaper and the strict parser the
//! session patch endpoint reads bodies with — is [`obs::json`], the
//! workspace's one JSON codec, re-exported here.

use limits::ResourceErrorKind;
pub use obs::json::{escape_into, parse_json, JsonValue};
use validator::{ValidationError, ValidationErrorKind};

fn span_into(out: &mut String, span: &Option<xmlchars::Span>) {
    match span {
        None => out.push_str("null"),
        Some(s) => {
            out.push_str(&format!(
                "{{\"start\":{{\"line\":{},\"column\":{},\"offset\":{}}},\
                 \"end\":{{\"line\":{},\"column\":{},\"offset\":{}}}}}",
                s.start.line,
                s.start.column,
                s.start.offset,
                s.end.line,
                s.end.column,
                s.end.offset,
            ));
        }
    }
}

/// The first resource-budget trip in `errors`, if any — the typed kind
/// the response's status code and `"resource"` field are derived from.
pub fn resource_kind(errors: &[ValidationError]) -> Option<&ResourceErrorKind> {
    errors.iter().find_map(|e| match &e.kind {
        ValidationErrorKind::Resource(kind) => Some(kind),
        _ => None,
    })
}

/// The HTTP status a verdict maps to: `413` when the input-size budget
/// tripped, `422` for any other resource trip (depth, attributes,
/// expansions, errors, deadline, cancellation), `200` otherwise — plain
/// invalidity is a *successful* validation whose answer is "invalid",
/// not a server-side failure.
pub fn status_for(errors: &[ValidationError]) -> u16 {
    match resource_kind(errors) {
        Some(ResourceErrorKind::InputTooLarge { .. }) => 413,
        Some(_) => 422,
        None => 200,
    }
}

/// Appends the verdict object body (everything between the braces) for
/// one document: `"valid":…,"resource":…,"errors":[…]`.
fn verdict_fields_into(out: &mut String, errors: &[ValidationError]) {
    out.push_str("\"valid\":");
    out.push_str(if errors.is_empty() { "true" } else { "false" });
    out.push_str(",\"resource\":");
    match resource_kind(errors) {
        None => out.push_str("null"),
        Some(kind) => escape_into(out, kind.label()),
    }
    out.push_str(",\"errors\":[");
    for (i, e) in errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kind\":");
        escape_into(out, e.kind.label());
        out.push_str(",\"message\":");
        escape_into(out, &e.kind.to_string());
        out.push_str(",\"span\":");
        span_into(out, &e.span);
        out.push('}');
    }
    out.push_str("]}");
}

/// The response body for one document's verdict.
pub fn verdict_json(schema: &str, errors: &[ValidationError]) -> String {
    let mut out = String::with_capacity(64 + errors.len() * 96);
    out.push_str("{\"schema\":");
    escape_into(&mut out, schema);
    out.push(',');
    verdict_fields_into(&mut out, errors);
    out
}

/// The response body for a batch: one verdict object per document, in
/// input order.
pub fn batch_json(schema: &str, lists: &[Vec<ValidationError>]) -> String {
    let mut out = String::with_capacity(64 + lists.len() * 128);
    out.push_str("{\"schema\":");
    escape_into(&mut out, schema);
    out.push_str(&format!(",\"docs\":{},\"results\":[", lists.len()));
    for (i, errors) in lists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        verdict_fields_into(&mut out, errors);
    }
    out.push_str("]}");
    out
}

/// A bare `{"error": …}` body for protocol- and routing-level failures.
pub fn error_json(message: &str) -> String {
    let mut out = String::from("{\"error\":");
    escape_into(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_verdict_is_compact() {
        assert_eq!(
            verdict_json("po", &[]),
            "{\"schema\":\"po\",\"valid\":true,\"resource\":null,\"errors\":[]}"
        );
    }

    #[test]
    fn resource_trip_sets_status_and_kind() {
        let errors = vec![ValidationError {
            kind: ValidationErrorKind::Resource(ResourceErrorKind::DepthExceeded { limit: 8 }),
            span: None,
        }];
        assert_eq!(status_for(&errors), 422);
        let body = verdict_json("po", &errors);
        assert!(body.contains("\"resource\":\"DepthExceeded\""), "{body}");
        assert!(body.contains("\"span\":null"), "{body}");
        let too_big = vec![ValidationError {
            kind: ValidationErrorKind::Resource(ResourceErrorKind::InputTooLarge {
                limit: 10,
                actual: 20,
            }),
            span: None,
        }];
        assert_eq!(status_for(&too_big), 413);
        assert_eq!(status_for(&[]), 200);
    }

    #[test]
    fn batch_renders_every_document_in_order() {
        let lists = vec![
            Vec::new(),
            vec![ValidationError {
                kind: ValidationErrorKind::NoRootElement,
                span: None,
            }],
        ];
        let body = batch_json("wml", &lists);
        assert!(body.starts_with("{\"schema\":\"wml\",\"docs\":2,\"results\":["));
        assert!(body.contains("\"valid\":true"));
        assert!(body.contains("\"kind\":\"NoRootElement\""));
    }
}
