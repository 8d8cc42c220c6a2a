//! The reader's name and tag errors, pinned: one table of small
//! documents, each with the exact `Display` of the error that ends it
//! (kind, line and column) and its byte offset. Names and tags are where
//! the tokenizer advances fastest, so this table is what holds their
//! error kinds and positions fixed: bad name-start bytes and bad name
//! characters, ASCII and not; a missing space before an attribute; tab,
//! LF, CR and CRLF inside start and end tags; end tags that are a prefix
//! or an extension of the open name; unmatched end tags; and input that
//! ends mid-name or mid-tag.
//!
//! Every row is also fed to `FeedReader` cut at every character boundary
//! and one character at a time: chunking must not move an error.

use integration_tests::{event_stream, snapshot};
use xmlparse::{FeedReader, ParseError};

/// One row: the document and the error that must end its parse, as
/// `"<kind> at <line>:<column> +<offset>"`, or `None` for a document
/// the reader must accept.
type Row = (&'static str, Option<&'static str>);

const ROWS: &[Row] = &[
    // ---- name starts --------------------------------------------------
    ("<1a/>", Some("expected name, found '1' at 1:2 +1")),
    ("<-a/>", Some("expected name, found '-' at 1:2 +1")),
    ("< a/>", Some("expected name, found ' ' at 1:2 +1")),
    ("<·a/>", Some("expected name, found '·' at 1:2 +1")),
    (
        "<\u{301}a/>",
        Some("expected name, found '\\u{301}' at 1:2 +1"),
    ),
    ("<a><1/></a>", Some("expected name, found '1' at 1:5 +4")),
    (
        "<a x=\"1\" 9=\"2\"/>",
        Some("expected attribute, '>' or '/>', found '9' at 1:10 +9"),
    ),
    ("<a></1a>", Some("expected name, found '1' at 1:6 +5")),
    ("<a></ a>", Some("expected name, found ' ' at 1:6 +5")),
    // ---- name characters mid-name ---------------------------------------
    (
        "<a!b/>",
        Some("expected attribute, '>' or '/>', found '!' at 1:3 +2"),
    ),
    (
        "<a×b/>",
        Some("expected attribute, '>' or '/>', found '×' at 1:3 +2"),
    ),
    (
        "<a\u{A0}b/>",
        Some("expected attribute, '>' or '/>', found '\\u{a0}' at 1:3 +2"),
    ),
    ("<a></a!>", Some("expected end tag, found '!' at 1:7 +6")),
    ("<a></a×>", Some("expected end tag, found '×' at 1:7 +6")),
    // non-ASCII NameChars are one column each, however many bytes
    ("<a·b></a·b>", None),
    ("<a\u{301}></a\u{301}>", None),
    ("<übermaß/>", None),
    ("<数量 単位=\"個\"/>", None),
    (
        "<a·b></a·b>x",
        Some("content after document root at 1:12 +13"),
    ),
    (
        "<数量 単位=\"個\"></数量>!",
        Some("content after document root at 1:17 +30"),
    ),
    (
        "<a\u{301}b></a\u{301}c>",
        Some("end tag </a\u{301}c> does not match start tag <a\u{301}b> at 1:12 +13"),
    ),
    ("<a.-_:9 b.-_:9=\"\"/>", None),
    (":a", Some("content after document root at 1:1 +0")),
    // ---- whitespace before attributes -----------------------------------
    (
        "<a x=\"1\"y=\"2\"/>",
        Some("expected whitespace before attribute, found 'y' at 1:9 +8"),
    ),
    (
        "<a x='1'é='2'/>",
        Some("expected whitespace before attribute, found 'é' at 1:9 +8"),
    ),
    (
        "<a x=\"1\"\u{A0}y=\"2\"/>",
        Some("expected attribute, '>' or '/>', found '\\u{a0}' at 1:9 +8"),
    ),
    ("<a\tx='1'\ny='2'\rz='3'\r\nw='4'/>", None),
    (
        "<a x = '1' y\t=\t'2'\r\n/>!",
        Some("content after document root at 2:3 +22"),
    ),
    // ---- tab, LF, CR and CRLF inside start and end tags -----------------
    (
        "<a\t></a\t>!",
        Some("content after document root at 1:10 +9"),
    ),
    (
        "<a\n></a\n>!",
        Some("content after document root at 3:2 +9"),
    ),
    (
        "<a\r></a\r>!",
        Some("content after document root at 3:2 +9"),
    ),
    (
        "<a\r\n></a\r\n>!",
        Some("content after document root at 3:2 +11"),
    ),
    (
        "<a\r\n\r\n\t x='1'\r\n/></b\r\n>",
        Some("end tag </b> with no open element at 5:2 +23"),
    ),
    (
        "<a\r\nx='1'\r\n!>",
        Some("expected attribute, '>' or '/>', found '!' at 3:1 +11"),
    ),
    (
        "<a\rx='1'\r!>",
        Some("expected attribute, '>' or '/>', found '!' at 3:1 +9"),
    ),
    (
        "<a\n\tx='1'\n\t!>",
        Some("expected attribute, '>' or '/>', found '!' at 3:2 +11"),
    ),
    (
        "<a></a\r\n\t!>",
        Some("expected end tag, found '!' at 2:2 +9"),
    ),
    (
        "<a></a\r\r\n\n>x",
        Some("content after document root at 4:2 +11"),
    ),
    (
        "<a\r\n/>\r\n<b/>",
        Some("content after document root at 3:1 +8"),
    ),
    // ---- end tags against the open name ---------------------------------
    (
        "<abc></ab>",
        Some("end tag </ab> does not match start tag <abc> at 1:11 +10"),
    ),
    (
        "<ab></abc>",
        Some("end tag </abc> does not match start tag <ab> at 1:11 +10"),
    ),
    (
        "<ab></ab-c>",
        Some("end tag </ab-c> does not match start tag <ab> at 1:12 +11"),
    ),
    (
        "<ab></ab·>",
        Some("end tag </ab·> does not match start tag <ab> at 1:11 +11"),
    ),
    (
        "<ab></aB>",
        Some("end tag </aB> does not match start tag <ab> at 1:10 +9"),
    ),
    (
        "<a><b></a></b>",
        Some("end tag </a> does not match start tag <b> at 1:11 +10"),
    ),
    (
        "<abc>\n  <x/>\n</ab \t>",
        Some("end tag </ab> does not match start tag <abc> at 3:8 +20"),
    ),
    ("<ab></ab\t\n \r\n>", None),
    ("<ab></ab/>", Some("expected end tag, found '/' at 1:9 +8")),
    (
        "<ab></ab x>",
        Some("expected end tag, found 'x' at 1:10 +9"),
    ),
    // ---- unmatched end tags ---------------------------------------------
    ("</a>", Some("end tag </a> with no open element at 1:5 +4")),
    (
        "<a/></a>",
        Some("end tag </a> with no open element at 1:9 +8"),
    ),
    (
        "<a></a></a>",
        Some("end tag </a> with no open element at 1:12 +11"),
    ),
    // ---- input ending mid-name or mid-tag -------------------------------
    ("<", Some("unexpected end of input in markup at 1:2 +1")),
    (
        "<abc",
        Some("unexpected end of input in start tag at 1:5 +4"),
    ),
    (
        "<a·",
        Some("unexpected end of input in start tag at 1:4 +4"),
    ),
    (
        "<a ",
        Some("unexpected end of input in start tag at 1:4 +3"),
    ),
    (
        "<a\r\n",
        Some("unexpected end of input in start tag at 2:1 +4"),
    ),
    (
        "<a x",
        Some("unexpected end of input in '=' in attribute at 1:5 +4"),
    ),
    (
        "<a x='1' y",
        Some("unexpected end of input in '=' in attribute at 1:11 +10"),
    ),
    (
        "<a/",
        Some("unexpected end of input in self-closing tag at 1:4 +3"),
    ),
    ("<a></", Some("unexpected end of input in name at 1:6 +5")),
    (
        "<abc></ab",
        Some("unexpected end of input in end tag at 1:10 +9"),
    ),
    (
        "<abc></abc",
        Some("unexpected end of input in end tag at 1:11 +10"),
    ),
    (
        "<abc></abcd",
        Some("unexpected end of input in end tag at 1:12 +11"),
    ),
    (
        "<abc></abc \r\n",
        Some("unexpected end of input in end tag at 2:1 +13"),
    ),
    (
        "<a·></a·",
        Some("unexpected end of input in end tag at 1:9 +10"),
    ),
];

/// The error that ends `src`'s whole-input parse, rendered as in the
/// table, or `None` if the document parses.
fn whole(src: &str) -> Option<String> {
    event_stream(src, snapshot).err().map(|e| render(&e))
}

fn render(e: &ParseError) -> String {
    format!("{e} +{}", e.position.offset)
}

/// Feeds `chunks` to a `FeedReader` and finishes: every event snapshot
/// delivered, and the error that ended the stream, if any.
fn fed(chunks: &[&[u8]]) -> (Vec<String>, Option<String>) {
    let mut events = Vec::new();
    let mut feeder = FeedReader::new();
    let mut sink = |e: &xmlparse::BorrowedEvent<'_, '_>| {
        events.extend(snapshot(e));
        true
    };
    for chunk in chunks {
        if let Err(e) = feeder.feed(chunk, &mut sink) {
            return (events, Some(render(&e)));
        }
    }
    let err = feeder.finish(&mut sink).err().map(|e| render(&e));
    (events, err)
}

/// The events a whole-input parse delivers before it ends (its error,
/// if any, dropped).
fn whole_events(src: &str) -> Vec<String> {
    let mut events = Vec::new();
    let _ = event_stream(src, |e| {
        events.extend(snapshot(e));
        None
    });
    events
}

#[test]
fn name_and_tag_errors_are_pinned() {
    let mut failures = Vec::new();
    for &(src, want) in ROWS {
        let got = whole(src);
        if got.as_deref() != want {
            failures.push(format!("{src:?}\n    want {want:?}\n    got  {got:?}"));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn chunking_never_moves_a_name_or_tag_error() {
    for &(src, _) in ROWS {
        let want = (whole_events(src), whole(src));
        let bytes = src.as_bytes();
        for cut in (0..=src.len()).filter(|&c| src.is_char_boundary(c)) {
            let got = fed(&[&bytes[..cut], &bytes[cut..]]);
            assert_eq!(got, want, "{src:?} cut at byte {cut}");
        }
        let singles: Vec<&[u8]> = bytes.chunks(1).collect();
        assert_eq!(fed(&singles), want, "{src:?} fed one byte at a time");
    }
}
