//! Differential property tests for XML 1.0 §2.11 end-of-line handling
//! and the chunked feed path.
//!
//! Conformance means line-ending *representation* is invisible to the
//! application: the same document saved with LF, CRLF, or classic-Mac CR
//! line endings must produce the same events — same text, same attribute
//! values, same line/column positions — and the same validation errors.
//! Likewise, how a byte stream is cut into chunks must be invisible:
//! `FeedReader` over any split of a document must equal the whole-input
//! parse event-for-event, spans included.

use integration_tests::{event_stream, snapshot};
use proptest::prelude::*;
use schema::corpus::{PURCHASE_ORDER_XML, PURCHASE_ORDER_XSD, WML_XSD};
use schema::CompiledSchema;
use validator::{validate_chunks_streaming, validate_str_streaming};
use xmlparse::{BorrowedEvent, FeedReader};

fn po() -> CompiledSchema {
    CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap()
}

fn wml() -> CompiledSchema {
    CompiledSchema::parse(WML_XSD).unwrap()
}

/// A WML page with attacker-ish text, LF-separated.
fn wml_page(dirs: &[String]) -> String {
    webgen::render_string(&webgen::DirectoryPageData {
        sub_dirs: dirs.to_vec(),
        current_dir: "/media/archive".into(),
        parent_dir: "/media".into(),
    })
}

/// The full event stream as snapshots, or the error that ended it
/// (stringified, position dropped — CRLF translation moves byte
/// offsets).
fn events(src: &str) -> Result<Vec<String>, String> {
    event_stream(src, snapshot).map_err(|e| format!("{}", e.kind))
}

/// [`events`] with span byte offsets zeroed, keeping line/column: CRLF
/// re-encoding shifts offsets (two bytes per break) but must not move
/// the *character-accurate* positions.
fn events_without_offsets(src: &str) -> Result<Vec<String>, String> {
    event_stream(src, |e| {
        let mut e = e.clone();
        match &mut e {
            BorrowedEvent::StartElement { span, .. }
            | BorrowedEvent::EndElement { span, .. }
            | BorrowedEvent::Text { span, .. }
            | BorrowedEvent::Comment { span, .. }
            | BorrowedEvent::ProcessingInstruction { span, .. } => {
                span.start.offset = 0;
                span.end.offset = 0;
            }
            BorrowedEvent::Eof => {}
        }
        snapshot(&e)
    })
    .map_err(|e| format!("{}", e.kind))
}

/// Re-encodes an LF-only document with CRLF line endings.
fn to_crlf(src: &str) -> String {
    assert!(!src.contains('\r'), "translation expects LF-only input");
    src.replace('\n', "\r\n")
}

/// Re-encodes an LF-only document with classic-Mac CR line endings.
fn to_cr(src: &str) -> String {
    assert!(!src.contains('\r'), "translation expects LF-only input");
    src.replace('\n', "\r")
}

/// parse(CRLF doc) ≡ parse(LF doc): everything but byte offsets, which
/// legitimately differ. parse(CR doc) is byte-length-preserving, so it
/// must match *including* offsets.
fn assert_eol_invariant(src: &str) {
    let lf = events(src);
    let crlf = events_without_offsets(&to_crlf(src));
    let cr = events(&to_cr(src));
    match (lf, crlf, cr) {
        (Ok(lf), Ok(crlf), Ok(cr)) => {
            assert_eq!(
                events_without_offsets(src).unwrap(),
                crlf,
                "CRLF re-encoding changed the event stream of:\n{src}"
            );
            assert_eq!(lf, cr, "CR re-encoding changed the event stream of:\n{src}");
        }
        (lf, crlf, cr) => {
            // all three encodings must agree on rejection too
            let lf_err = lf.as_ref().err().cloned();
            assert_eq!(lf.is_err(), crlf.is_err(), "CRLF changed the verdict");
            assert_eq!(lf_err, cr.err(), "CR changed the verdict or error");
            let _ = crlf;
        }
    }
}

/// Chunked parse over `cuts` split points ≡ whole-input parse.
fn assert_chunks_invariant(src: &str, cuts: &[usize]) {
    let whole = events(src);
    let mut positions: Vec<usize> = cuts
        .iter()
        .map(|c| c % (src.len() + 1))
        .filter(|&p| src.is_char_boundary(p))
        .collect();
    positions.sort_unstable();
    positions.dedup();
    let bytes = src.as_bytes();
    let mut chunks = Vec::new();
    let mut prev = 0;
    for p in positions {
        chunks.push(&bytes[prev..p]);
        prev = p;
    }
    chunks.push(&bytes[prev..]);

    let mut fed = Vec::new();
    let mut feeder = FeedReader::new();
    let mut result = Ok(());
    'feed: {
        for chunk in &chunks {
            if let Err(e) = feeder.feed(chunk, |e| {
                fed.extend(snapshot(e));
                true
            }) {
                result = Err(format!("{}", e.kind));
                break 'feed;
            }
        }
        if let Err(e) = feeder.finish(|e| {
            fed.extend(snapshot(e));
            true
        }) {
            result = Err(format!("{}", e.kind));
        }
    }
    match (whole, result) {
        (Ok(whole), Ok(())) => {
            assert_eq!(fed, whole, "chunked parse diverged on:\n{src}");
        }
        (whole, result) => {
            assert_eq!(
                whole.err(),
                result.err(),
                "chunking changed the verdict on:\n{src}"
            );
        }
    }
}

#[test]
fn corpus_documents_are_eol_invariant() {
    assert_eol_invariant(PURCHASE_ORDER_XML);
    assert_eol_invariant(&wml_page(&["music".into(), "a & b".into()]));
    let order = webgen::render_order_string(&webgen::generate_order(17, 25));
    assert_eol_invariant(&order);
}

#[test]
fn corpus_validation_verdicts_are_eol_invariant() {
    // same validation errors — kinds and line/column — for every
    // re-encoding, on valid and broken documents alike
    for (compiled, src) in [
        (po(), PURCHASE_ORDER_XML.to_string()),
        (
            po(),
            PURCHASE_ORDER_XML.replace("<zip>90952</zip>", "<zip>nope</zip>"),
        ),
        (wml(), wml_page(&["x".into()])),
        (
            wml(),
            "<wml>stray<card id=\"c\"><p>ok</p></card></wml>".to_string(),
        ),
    ] {
        let strip = |errors: Vec<validator::ValidationError>| {
            errors
                .into_iter()
                .map(|e| {
                    (
                        format!("{}", e.kind),
                        e.span.map(|s| (s.start.line, s.start.column)),
                    )
                })
                .collect::<Vec<_>>()
        };
        let lf = strip(validate_str_streaming(&compiled, &src));
        let crlf = strip(validate_str_streaming(&compiled, &to_crlf(&src)));
        let cr = strip(validate_str_streaming(&compiled, &to_cr(&src)));
        assert_eq!(lf, crlf, "CRLF changed the verdict on:\n{src}");
        assert_eq!(lf, cr, "CR changed the verdict on:\n{src}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated purchase orders, any size: all three EOL encodings
    /// yield one event stream.
    #[test]
    fn generated_orders_are_eol_invariant(seed in 0u64..500, items in 1usize..12) {
        let order = webgen::render_order_string(&webgen::generate_order(seed, items));
        assert_eol_invariant(&order);
    }

    /// WML pages over adversarial directory names (entities, quotes,
    /// markup noise) stay EOL-invariant.
    #[test]
    fn generated_pages_are_eol_invariant(
        dirs in prop::collection::vec("[a-zA-Z0-9 <>&\"']{1,12}", 0..5),
    ) {
        assert_eol_invariant(&wml_page(&dirs));
    }

    /// Arbitrary markup-ish soup: whatever the parser's verdict, it must
    /// not depend on the line-ending encoding.
    #[test]
    fn markup_soup_is_eol_invariant(input in "[<>/a-z\"'= &;!?\\-\\[\\]\n]{0,80}") {
        assert_eol_invariant(&input);
    }

    /// Random chunk splits of generated orders ≡ the whole-input parse
    /// (spans and positions included, byte for byte).
    #[test]
    fn chunk_splits_equal_whole_parse(
        seed in 0u64..500,
        items in 1usize..10,
        cuts in prop::collection::vec(0usize..8192, 0..9),
    ) {
        let order = webgen::render_order_string(&webgen::generate_order(seed, items));
        assert_chunks_invariant(&order, &cuts);
    }

    /// Chunk splits of CRLF-encoded documents: the split may land inside
    /// a \r\n pair; normalization must still see it as one break.
    #[test]
    fn chunk_splits_equal_whole_parse_on_crlf(
        seed in 0u64..500,
        cuts in prop::collection::vec(0usize..4096, 0..9),
    ) {
        let order = to_crlf(&webgen::render_order_string(&webgen::generate_order(seed, 4)));
        assert_chunks_invariant(&order, &cuts);
    }

    /// Chunked validation ≡ whole-input validation, split anywhere.
    #[test]
    fn chunked_validation_equals_whole(
        seed in 0u64..500,
        items in 1usize..8,
        cuts in prop::collection::vec(0usize..8192, 0..6),
    ) {
        let compiled = po();
        let order = webgen::render_order_string(&webgen::generate_order(seed, items));
        let whole = validate_str_streaming(&compiled, &order);
        let mut positions: Vec<usize> = cuts
            .iter()
            .map(|c| c % (order.len() + 1))
            .filter(|&p| order.is_char_boundary(p))
            .collect();
        positions.sort_unstable();
        positions.dedup();
        let bytes = order.as_bytes();
        let mut chunks = Vec::new();
        let mut prev = 0;
        for p in positions {
            chunks.push(&bytes[prev..p]);
            prev = p;
        }
        chunks.push(&bytes[prev..]);
        prop_assert_eq!(validate_chunks_streaming(&compiled, chunks), whole);
    }
}
