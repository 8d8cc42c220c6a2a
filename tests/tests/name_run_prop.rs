//! Differential property test for the reader's byte-class runs: names,
//! in-tag whitespace and end tags.
//!
//! The reader advances over ASCII names and SP/HTAB runs by bytes, checks
//! an end tag by comparing bytes with the open name, and drops to its
//! per-character path for every byte `>= 0x80`, CR and LF. The documents
//! generated here mix those on purpose: element and attribute names with
//! ASCII and non-ASCII NameChars, SP/HTAB/LF/CR/CRLF inside start and end
//! tags, text with line breaks, and faults — end names that are a prefix
//! or an extension of the open name, a missing space before an
//! attribute, a stray character, a cut-off tail. Three things must hold:
//!
//! - every event span and every error position has the line and column
//!   recomputed from its byte offset under XML 1.0 §2.11 (`\r\n`, `\r`
//!   and `\n` each one break; a column counts characters);
//! - names are read whole, as the `char` predicates define them: every
//!   element name is a `Name` and is not followed by a NameChar, and no
//!   "expected" error stands between two NameChars;
//! - `FeedReader` cut at every byte yields the same events and the same
//!   error as the whole-input reader.

use integration_tests::snapshot;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmlchars::chars::{is_name_char, is_name_start_char};
use xmlchars::{Position, Span};
use xmlparse::{BorrowedEvent, FeedReader, ParseError, ParseErrorKind, Reader};

const NAME_STARTS: &[&str] = &["a", "b", "Z", "_", ":", "é", "À", "数", "\u{10000}"];
const NAME_CHARS: &[&str] = &[
    "a", "x", "Q", "0", "9", "-", ".", "_", ":", "·", "\u{301}", "\u{203F}", "é", "量",
];
const SPACES: &[&str] = &[" ", "\t", "\n", "\r", "\r\n"];
/// Characters that are never NameChars, ASCII and not.
const STRAYS: &[&str] = &["!", "×", "\u{A0}", "=", "/", "\u{2000}", "?"];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.random_range(0..from.len())]
}

fn name(rng: &mut StdRng) -> String {
    let mut name = pick(rng, NAME_STARTS).to_string();
    for _ in 0..rng.random_range(0..6usize) {
        name.push_str(pick(rng, NAME_CHARS));
    }
    name
}

/// `min..=min + 2` whitespace pieces, each SP, HTAB, LF, CR or CRLF.
fn spaces(rng: &mut StdRng, min: usize, out: &mut String) {
    for _ in 0..rng.random_range(min..=min + 2) {
        out.push_str(pick(rng, SPACES));
    }
}

/// The name an end tag closes `open` with: usually `open`, sometimes a
/// prefix of it, an extension of it, or another name.
fn end_name(rng: &mut StdRng, open: &str) -> String {
    if !rng.random_bool(0.1) {
        return open.to_string();
    }
    match rng.random_range(0..3u8) {
        0 => {
            let cut = open.char_indices().last().map_or(0, |(i, _)| i);
            open[..cut.max(1)].to_string()
        }
        1 => format!("{open}{}", pick(rng, NAME_CHARS)),
        _ => name(rng),
    }
}

fn element(rng: &mut StdRng, depth: usize, out: &mut String) {
    let tag = name(rng);
    out.push('<');
    out.push_str(&tag);
    for i in 0..rng.random_range(0..3usize) {
        // a missing space before an attribute is one of the faults
        let min = usize::from(!rng.random_bool(0.03));
        spaces(rng, min, out);
        out.push_str(&name(rng));
        out.push_str(&i.to_string());
        spaces(rng, 0, out);
        out.push('=');
        spaces(rng, 0, out);
        let quote = if rng.random_bool(0.5) { '"' } else { '\'' };
        out.push(quote);
        out.push_str(pick(rng, &["", "v", "a b", "x\r\ny", "é"]));
        out.push(quote);
    }
    spaces(rng, 0, out);
    if depth >= 3 || rng.random_bool(0.3) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..rng.random_range(0..4usize) {
        if rng.random_bool(0.4) {
            out.push_str(pick(rng, &["t", "\r\n  ", "\n\t", "x\ry", "é"]));
        } else {
            element(rng, depth + 1, out);
        }
    }
    out.push_str("</");
    out.push_str(&end_name(rng, &tag));
    spaces(rng, 0, out);
    out.push('>');
}

/// One generated document, sometimes with a stray character inserted
/// or its tail cut off.
fn document(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut doc = String::new();
    if rng.random_bool(0.3) {
        spaces(&mut rng, 1, &mut doc);
    }
    element(&mut rng, 0, &mut doc);
    let boundaries: Vec<usize> = (0..=doc.len())
        .filter(|&i| doc.is_char_boundary(i))
        .collect();
    let at = boundaries[rng.random_range(0..boundaries.len())];
    match rng.random_range(0..10u8) {
        0 => doc.insert_str(at, pick(&mut rng, STRAYS)),
        1 => doc.truncate(at),
        _ => {}
    }
    doc
}

/// Line and column of byte `offset` in `src`, recomputed from scratch:
/// `\r\n`, a lone `\r` and `\n` are each one line break (XML 1.0
/// §2.11), and a column counts characters.
fn recomputed(src: &str, offset: usize) -> (u32, u32) {
    let (mut line, mut column) = (1, 1);
    let mut prev_cr = false;
    for c in src[..offset].chars() {
        match c {
            '\n' if prev_cr => column = 1,
            '\n' | '\r' => {
                line += 1;
                column = 1;
            }
            _ => column += 1,
        }
        prev_cr = c == '\r';
    }
    (line, column)
}

fn assert_position(src: &str, at: Position, what: &str) {
    assert_eq!(
        (at.line, at.column),
        recomputed(src, at.offset),
        "{what} at byte {} of {src:?}",
        at.offset
    );
}

/// Holds an element name to the `char` predicates: a `Name`, and the
/// character after it in the source (`at` is its byte offset) is no
/// NameChar.
fn assert_whole_name(src: &str, name: &str, at: usize) {
    let mut chars = name.chars();
    assert!(
        chars.next().is_some_and(is_name_start_char) && chars.all(is_name_char),
        "{name:?} is not a Name in {src:?}"
    );
    assert_eq!(&src[at - name.len()..at], name, "{src:?}");
    let next = src[at..].chars().next();
    assert!(
        !next.is_some_and(is_name_char),
        "{name:?} stops short of {next:?} in {src:?}"
    );
}

fn span(e: &BorrowedEvent<'_, '_>) -> Option<Span> {
    match e {
        BorrowedEvent::StartElement { span, .. }
        | BorrowedEvent::EndElement { span, .. }
        | BorrowedEvent::Text { span, .. }
        | BorrowedEvent::Comment { span, .. }
        | BorrowedEvent::ProcessingInstruction { span, .. } => Some(*span),
        BorrowedEvent::Eof => None,
    }
}

/// The whole-input parse: every event snapshot, and the error that ended
/// it. Every span and the error position are checked on the way.
fn whole(src: &str) -> (Vec<String>, Option<ParseError>) {
    let mut reader = Reader::new(src);
    let mut events = Vec::new();
    loop {
        match reader.next_event_borrowed() {
            Ok(e) => {
                if let Some(span) = span(&e) {
                    assert_position(src, span.start, "span start");
                    assert_position(src, span.end, "span end");
                }
                match &e {
                    BorrowedEvent::StartElement { name, span, .. } => {
                        assert_whole_name(src, name, span.start.offset + 1 + name.len());
                    }
                    // a self-closing tag's end event spans the start tag
                    BorrowedEvent::EndElement { name, span }
                        if src[span.start.offset..].starts_with("</") =>
                    {
                        assert_whole_name(src, name, span.start.offset + 2 + name.len());
                    }
                    _ => {}
                }
                events.extend(snapshot(&e));
                if matches!(e, BorrowedEvent::Eof) {
                    return (events, None);
                }
            }
            Err(e) => {
                assert_position(src, e.position, &format!("error {e}"));
                if let ParseErrorKind::Expected { found, .. } = e.kind {
                    let before = src[..e.position.offset].chars().next_back();
                    assert!(
                        !(before.is_some_and(is_name_char) && is_name_char(found)),
                        "error {e} splits a name in {src:?}"
                    );
                }
                return (events, Some(e));
            }
        }
    }
}

/// The parse of `src` fed to a `FeedReader` as two chunks cut at byte
/// `cut` (inside a UTF-8 sequence too).
fn fed(src: &str, cut: usize) -> (Vec<String>, Option<ParseError>) {
    let (head, tail) = src.as_bytes().split_at(cut);
    let mut events = Vec::new();
    let mut feeder = FeedReader::new();
    let mut sink = |e: &BorrowedEvent<'_, '_>| {
        events.extend(snapshot(e));
        true
    };
    let error = feeder
        .feed(head, &mut sink)
        .and_then(|_| feeder.feed(tail, &mut sink))
        .and_then(|_| feeder.finish(&mut sink))
        .err();
    (events, error)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn positions_follow_offsets_and_chunking_changes_nothing(seed in 0u64..u64::MAX) {
        let src = document(seed);
        let want = whole(&src);
        for cut in 0..=src.len() {
            prop_assert_eq!(&fed(&src, cut), &want, "cut at byte {} of {:?}", cut, src);
        }
    }
}

/// The generator reaches what the property is about: non-ASCII names,
/// every in-tag line break, and both outcomes, with faults of each kind.
#[test]
fn generated_documents_cover_names_breaks_and_faults() {
    let docs: Vec<String> = (0..400).map(document).collect();
    let errors: Vec<String> = docs
        .iter()
        .filter_map(|d| whole(d).1.map(|e| format!("{:?}", e.kind)))
        .collect();
    assert!(docs.iter().any(|d| d.contains("<数") || d.contains("<é")));
    assert!(docs
        .iter()
        .any(|d| d.contains("\r\n/>") || d.contains("\r\n>")));
    assert!(docs.iter().any(|d| d.contains("\r>")));
    assert!(docs.iter().any(|d| d.contains("\t=")));
    assert!(
        errors.len() > 40 && errors.len() < 360,
        "{} errors",
        errors.len()
    );
    for kind in ["MismatchedTag", "Expected", "UnexpectedEof"] {
        assert!(
            errors.iter().any(|e| e.starts_with(kind)),
            "no {kind} error"
        );
    }
}
