//! The pull reader: a hand-written, position-tracking XML tokenizer with
//! integrated well-formedness checking.
//!
//! The reader is zero-copy: [`Reader::next_event_borrowed`] yields
//! [`BorrowedEvent`]s whose names and text are slices of the input, with
//! `Cow` values that only become owned when entity resolution,
//! attribute-value normalization, or end-of-line normalization actually
//! rewrote something. It is the reader's only event stream; the tree
//! builder and the streaming validator both consume it.
//!
//! The reader advances by runs of ASCII bytes wherever it can, and
//! decodes a `char` only where a byte cannot settle the question. Every
//! byte of such a run is one byte, one column and never a line break, so
//! position tracking stays exact without decoding. There are two kinds
//! of run:
//!
//! - **Text runs.** Character data, attribute values, comments, CDATA
//!   and PI data run the [`crate::scan`] SWAR classifier: printable
//!   ASCII that is not a stop byte is consumed eight bytes per
//!   iteration.
//! - **Byte-class runs.** Inside tags, names and whitespace are measured
//!   with the [`xmlchars::chars::BYTE_CLASS`] table, one load per byte:
//!   an ASCII name is one NameChar run, in-tag whitespace one SP/HTAB
//!   run. `peek` hands out an ASCII byte as its `char` without decoding,
//!   and ASCII literals (`<`, `=`, `-->`…) are consumed by length. An end
//!   tag is checked by comparing its bytes with the innermost open name,
//!   plus one byte of lookahead that must be ASCII and no NameChar; any
//!   other end tag reads its name in full, so a mismatch is reported with
//!   the name and at the position the general path gives it.
//!
//! What stops a run drops to the per-character lane: markup,
//! references, controls, and every byte `>= 0x80`. CR and LF always take
//! that lane, one character at a time, because they move the line. A run
//! also stops at the end of the buffer; in feed mode whatever comes next
//! then asks for more input and the token is reparsed from its start.
//!
//! End-of-line handling is XML 1.0 §2.11-conformant: `\r\n` and lone
//! `\r` reach the application as a single `\n` in character content (and
//! in comments and PI data), count as exactly one line break in
//! positions, and collapse to a single space in attribute values (§2.11
//! runs before §3.3.3). Documents without a `\r` — the common case —
//! stay on the zero-copy path; a `\r` forces the owned lane for that one
//! run, counted by `owned_fallback_total`.

use std::borrow::Cow;

use limits::{Limits, ResourceErrorKind};
use xmlchars::chars::{
    class_run, is_name_char, is_name_start_char, is_xml_char, BYTE_CLASS, NAME, SPACE,
};
use xmlchars::{unescape, Position, Span, UnescapeError};

use crate::error::{ParseError, ParseErrorKind};
use crate::event::{BorrowedAttribute, BorrowedEvent};
use crate::scan;

/// The produced event before the attribute buffer is attached — an
/// internal form that does not borrow the reader, so bookkeeping can run
/// between production and hand-off.
enum RawEvent<'src> {
    Start {
        name: &'src str,
        self_closing: bool,
        span: Span,
    },
    End {
        name: &'src str,
        span: Span,
    },
    Text {
        text: Cow<'src, str>,
        span: Span,
    },
    Comment {
        text: Cow<'src, str>,
        span: Span,
    },
    Pi {
        target: &'src str,
        data: Cow<'src, str>,
        span: Span,
    },
    Eof,
}

/// The cross-chunk tokenizer state a suspended reader carries between
/// [`crate::FeedReader::feed`] calls: everything that outlives the
/// buffer the next chunk will be parsed from. Open-element names are
/// owned copies — the borrowed originals die when the consumed prefix
/// of the feed buffer is compacted away.
#[derive(Debug, Clone, Default)]
pub(crate) struct Suspended {
    pub(crate) open: Vec<String>,
    pub(crate) root_seen: bool,
    pub(crate) root_closed: bool,
    pub(crate) pos: Position,
    pub(crate) prev_cr: bool,
    pub(crate) expansions: u64,
    pub(crate) expansion_bytes: usize,
}

/// The state a feed-mode parse attempt must rewind on
/// [`ParseErrorKind::NeedMoreData`]: the cursor plus the budget
/// counters that may have advanced mid-token (attribute expansions run
/// before the start tag completes). Everything else — the open stack,
/// root flags, pending end — only mutates when an event completes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Checkpoint {
    pos: Position,
    prev_cr: bool,
    expansions: u64,
    expansion_bytes: usize,
}

/// A pull parser over a complete in-memory document.
///
/// Call [`Reader::next_event_borrowed`] repeatedly until `Eof`.
/// The reader enforces well-formedness: tag nesting, attribute
/// uniqueness, character legality, a single root element, and reference
/// syntax. Errors are fatal; after an error the reader should be
/// discarded. For input that arrives in chunks, see
/// [`crate::FeedReader`], which resumes this tokenizer across buffers.
pub struct Reader<'a> {
    src: &'a str,
    /// Absolute document offset of `src[0]` — always 0 for whole-input
    /// readers; the consumed-and-compacted byte count for feed-mode
    /// resumption, so positions and spans stay document-absolute.
    base: usize,
    pos: Position,
    /// Stack of open element names for nesting checks: borrowed slices
    /// of the source normally, owned copies when resumed across chunks.
    open: Vec<Cow<'a, str>>,
    /// Whether the root element has been seen and closed.
    root_closed: bool,
    /// Whether any root element has been opened yet.
    root_seen: bool,
    /// Queued end-element event for self-closing tags.
    pending_end: Option<(&'a str, Span)>,
    /// Reused per-start-tag attribute storage; borrowed events slice it.
    attr_buf: Vec<BorrowedAttribute<'a>>,
    /// Events produced so far (observability; flushed on drop).
    events_seen: u64,
    /// Events whose every string borrowed the source (observability).
    borrowed_events: u64,
    /// Events that needed an owned copy — entity expansion, attribute
    /// normalization, or EOL normalization rewrote something
    /// (observability).
    owned_fallback: u64,
    /// Whether an event ended in a parse error (observability).
    errored: bool,
    /// Resource budgets enforced while parsing ([`Limits::unbounded`]
    /// for [`Reader::new`], so ungoverned callers are byte-identical to
    /// pre-limits behavior).
    limits: Limits,
    /// Entity/character references resolved so far (budget accounting).
    expansions: u64,
    /// Cumulative bytes produced by reference expansion (budget
    /// accounting; the amplification guard).
    expansion_bytes: usize,
    /// Whether the up-front input-size budget has been checked yet.
    input_checked: bool,
    /// Whether the previously consumed character was `\r` — the one bit
    /// of lookbehind §2.11 needs so a following `\n` extends the same
    /// line break instead of opening a second one.
    prev_cr: bool,
    /// Feed mode: more input may arrive after `src`, so running off the
    /// end of the buffer means [`ParseErrorKind::NeedMoreData`], not a
    /// hard `UnexpectedEof` / `Eof`.
    feed_mode: bool,
    /// `pos.offset` at construction; metrics report the delta so a
    /// resumed reader counts only the bytes it consumed itself.
    start_offset: usize,
}

/// Bytes consumed and events produced flush to the metrics registry once
/// per reader, so the per-event cost of observability is a local `u64`
/// increment and the disabled cost is one atomic load at drop.
impl Drop for Reader<'_> {
    fn drop(&mut self) {
        if !obs::enabled() {
            return;
        }
        let metrics = obs::metrics();
        metrics
            .counter("xmlparse_events_total", "Parser events produced.")
            .inc_by(self.events_seen);
        metrics
            .counter(
                "xmlparse_bytes_total",
                "Source bytes consumed by the parser.",
            )
            .inc_by((self.pos.offset - self.start_offset) as u64);
        metrics
            .counter(
                "borrowed_events_total",
                "Events whose strings were all zero-copy slices of the source.",
            )
            .inc_by(self.borrowed_events);
        metrics
            .counter(
                "owned_fallback_total",
                "Events that required an owned copy (entity expansion, \
                 attribute-value normalization, or EOL normalization).",
            )
            .inc_by(self.owned_fallback);
        if self.errored {
            metrics
                .counter(
                    "xmlparse_errors_total",
                    "Documents rejected as not well-formed.",
                )
                .inc();
        }
    }
}

/// A point-in-time snapshot of one reader's throughput counters — the
/// per-document numbers the flight recorder's wide events carry, read
/// without waiting for the metrics flush at drop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReaderStats {
    /// Source bytes consumed so far.
    pub bytes: u64,
    /// Events produced so far.
    pub events: u64,
    /// Events whose every string borrowed the source.
    pub borrowed_events: u64,
    /// Events that needed an owned copy (entity expansion, attribute or
    /// EOL normalization).
    pub owned_events: u64,
}

impl ReaderStats {
    /// Accumulates another snapshot into this one — how
    /// [`crate::FeedReader`] totals the readers it resumes per chunk.
    pub fn absorb(&mut self, other: ReaderStats) {
        self.bytes += other.bytes;
        self.events += other.events;
        self.borrowed_events += other.borrowed_events;
        self.owned_events += other.owned_events;
    }
}

impl<'a> Reader<'a> {
    /// Creates a reader for a complete document, with no resource
    /// budgets ([`Limits::unbounded`]) — behavior is byte-identical to
    /// the pre-governance reader. Use [`Reader::with_limits`] on
    /// untrusted input.
    pub fn new(src: &'a str) -> Self {
        Reader::with_limits(src, Limits::unbounded())
    }

    /// Creates a reader that enforces `limits` while parsing: input
    /// size, element depth, per-element attribute count, attribute-value
    /// length, and entity-expansion volume. A tripped budget surfaces as
    /// [`ParseErrorKind::Resource`] at the position where it tripped;
    /// like every other reader error it is fatal.
    pub fn with_limits(src: &'a str, limits: Limits) -> Self {
        Reader {
            src,
            base: 0,
            pos: Position::START,
            open: Vec::new(),
            root_closed: false,
            root_seen: false,
            pending_end: None,
            attr_buf: Vec::new(),
            events_seen: 0,
            borrowed_events: 0,
            owned_fallback: 0,
            errored: false,
            limits,
            expansions: 0,
            expansion_bytes: 0,
            input_checked: false,
            prev_cr: false,
            feed_mode: false,
            start_offset: 0,
        }
    }

    /// Creates a reader for a fragment: leading/trailing whitespace and a
    /// missing XML declaration are fine, but exactly one element must span
    /// the content (as required of P-XML constructors). The grammar happens
    /// to coincide with [`Reader::new`]; the constructor exists so callers
    /// state their intent and fragment-specific rules have a home.
    pub fn fragment(src: &'a str) -> Self {
        Reader::new(src)
    }

    /// This reader's throughput counters so far. For a reader resumed
    /// from a checkpoint the byte count covers only this reader's own
    /// consumption (the same delta its metrics flush reports).
    pub fn stats(&self) -> ReaderStats {
        ReaderStats {
            bytes: (self.pos.offset - self.start_offset) as u64,
            events: self.events_seen,
            borrowed_events: self.borrowed_events,
            owned_events: self.owned_fallback,
        }
    }

    /// Rebuilds a reader over the current feed buffer from suspended
    /// cross-chunk state. `base` is the absolute document offset of
    /// `src[0]`; positions keep counting from the document start. The
    /// input-size budget is the feed driver's job (it sees the
    /// cumulative byte count), so it is marked already-checked here.
    pub(crate) fn resume(
        src: &'a str,
        base: usize,
        state: Suspended,
        limits: Limits,
        feed_mode: bool,
    ) -> Reader<'a> {
        Reader {
            src,
            base,
            pos: state.pos,
            open: state.open.into_iter().map(Cow::Owned).collect(),
            root_closed: state.root_closed,
            root_seen: state.root_seen,
            pending_end: None,
            attr_buf: Vec::new(),
            events_seen: 0,
            borrowed_events: 0,
            owned_fallback: 0,
            errored: false,
            limits,
            expansions: state.expansions,
            expansion_bytes: state.expansion_bytes,
            input_checked: true,
            prev_cr: state.prev_cr,
            feed_mode,
            start_offset: state.pos.offset,
        }
    }

    /// Extracts the cross-chunk state (consuming the reader; metrics
    /// still flush via `Drop`). Open-element names are copied out — the
    /// buffer they borrow is about to be compacted.
    pub(crate) fn suspend(mut self) -> Suspended {
        debug_assert!(
            self.pending_end.is_none(),
            "suspended with a queued end event; the pump must drain it"
        );
        Suspended {
            open: std::mem::take(&mut self.open)
                .into_iter()
                .map(Cow::into_owned)
                .collect(),
            root_seen: self.root_seen,
            root_closed: self.root_closed,
            pos: self.pos,
            prev_cr: self.prev_cr,
            expansions: self.expansions,
            expansion_bytes: self.expansion_bytes,
        }
    }

    /// Snapshots the rewindable cursor state before a feed-mode parse
    /// attempt.
    pub(crate) fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            pos: self.pos,
            prev_cr: self.prev_cr,
            expansions: self.expansions,
            expansion_bytes: self.expansion_bytes,
        }
    }

    /// Rewinds to `cp` after [`ParseErrorKind::NeedMoreData`] so the
    /// interrupted token reparses from its first byte once more input
    /// arrives.
    pub(crate) fn rollback(&mut self, cp: Checkpoint) {
        self.pos = cp.pos;
        self.prev_cr = cp.prev_cr;
        self.expansions = cp.expansions;
        self.expansion_bytes = cp.expansion_bytes;
    }

    /// Current position (for error reporting by embedding tools).
    pub fn position(&self) -> Position {
        self.pos
    }

    /// Names of currently open elements, outermost first.
    pub fn open_elements(&self) -> impl Iterator<Item = &str> {
        self.open.iter().map(|s| s.as_ref())
    }

    // ---- low-level cursor helpers --------------------------------------

    fn rest(&self) -> &'a str {
        &self.src[self.pos.offset - self.base..]
    }

    /// The absolute-offset slice `[start, end)` of the source.
    fn slice(&self, start: usize, end: usize) -> &'a str {
        &self.src[start - self.base..end - self.base]
    }

    /// The next byte, undecoded.
    #[inline]
    fn peek_byte(&self) -> Option<u8> {
        self.src
            .as_bytes()
            .get(self.pos.offset - self.base)
            .copied()
    }

    /// The next character. An ASCII byte is its own character; only a
    /// byte `>= 0x80` is decoded, out of line.
    #[inline]
    fn peek(&self) -> Option<char> {
        match self.peek_byte() {
            Some(b) if b.is_ascii() => Some(b as char),
            Some(_) => self.peek_non_ascii(),
            None => None,
        }
    }

    #[inline(never)]
    fn peek_non_ascii(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos.offset += c.len_utf8();
        match c {
            // the \n of a \r\n pair: the \r already opened the new line
            '\n' if self.prev_cr => self.pos.column = 1,
            '\n' | '\r' => {
                self.pos.line += 1;
                self.pos.column = 1;
            }
            _ => self.pos.column += 1,
        }
        self.prev_cr = c == '\r';
        Some(c)
    }

    /// Advances over a run of plain ASCII bytes — printable
    /// (`0x20..0x80`), none of `stops` — via the SWAR word scan. Every
    /// byte in such a run is exactly one column and one byte and never a
    /// line break, so position tracking stays exact without decoding;
    /// anything outside the run (markup, controls including `\r`,
    /// non-ASCII) is left for the caller's per-character path.
    #[inline]
    fn skip_plain_ascii(&mut self, stops: [u8; 2]) {
        let from = self.pos.offset - self.base;
        let to = scan::scan_plain(self.src.as_bytes(), from, stops);
        self.advance_ascii(to - from);
    }

    /// Advances over `run` bytes already known to be ASCII and free of
    /// line breaks: each is one byte and one column.
    #[inline]
    fn advance_ascii(&mut self, run: usize) {
        if run > 0 {
            self.pos.offset += run;
            self.pos.column += run as u32;
            self.prev_cr = false;
        }
    }

    /// Advances over the run of bytes of byte class `class` (see
    /// [`xmlchars::chars::BYTE_CLASS`]) at the cursor. Such a run is
    /// ASCII without line breaks, so it moves by bytes like
    /// [`Self::skip_plain_ascii`]; the run stops at the end of the
    /// buffer, at the first byte `>= 0x80` and at every byte outside the
    /// class, and the caller's per-character path takes over there.
    #[inline]
    fn skip_class_run(&mut self, class: u8) {
        let from = self.pos.offset - self.base;
        self.advance_ascii(class_run(&self.src.as_bytes()[from..], class));
    }

    /// Consumes `expected`, an ASCII byte other than CR or LF.
    #[inline]
    fn eat(&mut self, expected: u8, what: &'static str) -> Result<(), ParseError> {
        debug_assert!(expected.is_ascii() && !matches!(expected, b'\r' | b'\n'));
        if self.peek_byte() == Some(expected) {
            self.advance_ascii(1);
            Ok(())
        } else {
            Err(self.expected(what))
        }
    }

    /// The error for a token that is not `what`: the character found at
    /// the cursor, or the end of input.
    #[cold]
    fn expected(&self, what: &'static str) -> ParseError {
        match self.peek() {
            Some(found) => self.err(ParseErrorKind::Expected { what, found }),
            None => self.eof_err(what),
        }
    }

    /// Consumes `expected`, an ASCII literal without CR or LF.
    fn eat_str(&mut self, expected: &str, what: &'static str) -> Result<(), ParseError> {
        debug_assert!(expected.is_ascii() && !expected.contains(['\r', '\n']));
        let rest = self.rest();
        if rest.starts_with(expected) {
            self.advance_ascii(expected.len());
            Ok(())
        } else if self.feed_mode && rest.len() < expected.len() && expected.starts_with(rest) {
            Err(self.need_more())
        } else {
            Err(self.expected(what))
        }
    }

    /// Whether the input continues with `pat`. In feed mode, a buffer
    /// that ends mid-`pat` is ambiguous — the rest of the delimiter may
    /// be in the next chunk — so the attempt suspends with
    /// [`ParseErrorKind::NeedMoreData`] instead of guessing.
    fn lookahead(&self, pat: &'static str) -> Result<bool, ParseError> {
        let rest = self.rest();
        if rest.starts_with(pat) {
            Ok(true)
        } else if self.feed_mode && rest.len() < pat.len() && pat.starts_with(rest) {
            Err(self.need_more())
        } else {
            Ok(false)
        }
    }

    /// Skips XML whitespace: SP/HTAB runs by byte class, CR and LF one
    /// at a time through [`Self::bump`], which counts the line break.
    fn skip_whitespace(&mut self) {
        loop {
            self.skip_class_run(SPACE);
            if !matches!(self.peek_byte(), Some(b'\r' | b'\n')) {
                return;
            }
            self.bump();
        }
    }

    #[cold]
    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError::new(kind, self.pos)
    }

    #[cold]
    fn err_at(&self, kind: ParseErrorKind, at: Position) -> ParseError {
        ParseError::new(kind, at)
    }

    #[cold]
    fn need_more(&self) -> ParseError {
        ParseError::new(ParseErrorKind::NeedMoreData, self.pos)
    }

    /// End-of-input mid-construct: a hard error for a complete document,
    /// a suspension request in feed mode.
    #[cold]
    fn eof_err(&self, context: &'static str) -> ParseError {
        if self.feed_mode {
            self.need_more()
        } else {
            self.err(ParseErrorKind::UnexpectedEof { context })
        }
    }

    /// Builds a budget-violation error at `at`, counting the trip in
    /// `limit_trips_total`.
    #[cold]
    fn resource_err(&self, kind: ResourceErrorKind, at: Position) -> ParseError {
        limits::record_trip(&kind);
        ParseError::new(ParseErrorKind::Resource(kind), at)
    }

    /// Budget accounting for one text or attribute run whose references
    /// were actually expanded: `raw` is the pre-expansion slice (one `&`
    /// per reference), `expanded` the bytes the expansion produced.
    fn note_expansions(
        &mut self,
        raw: &str,
        expanded: usize,
        at: Position,
    ) -> Result<(), ParseError> {
        let refs = raw.bytes().filter(|&b| b == b'&').count() as u64;
        if refs == 0 {
            // an owned rewrite without references (attribute whitespace
            // or EOL normalization) is not expansion; nothing to account
            return Ok(());
        }
        self.expansions = self.expansions.saturating_add(refs);
        if self.expansions > self.limits.max_entity_expansions {
            return Err(self.resource_err(
                ResourceErrorKind::TooManyExpansions {
                    limit: self.limits.max_entity_expansions,
                },
                at,
            ));
        }
        self.expansion_bytes = self.expansion_bytes.saturating_add(expanded);
        if self.expansion_bytes > self.limits.max_expansion_bytes {
            return Err(self.resource_err(
                ResourceErrorKind::ExpansionTooLarge {
                    limit: self.limits.max_expansion_bytes,
                },
                at,
            ));
        }
        Ok(())
    }

    /// Reads a `Name`: ASCII NameChars by byte-class runs, a character
    /// `>= 0x80` decoded and checked on its own.
    fn read_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos.offset;
        match self.peek() {
            Some(c) if is_name_start_char(c) => {}
            _ => return Err(self.expected("name")),
        }
        loop {
            self.skip_class_run(NAME);
            match self.peek_byte() {
                Some(b) if !b.is_ascii() && self.peek().is_some_and(is_name_char) => {
                    self.bump();
                }
                _ => return Ok(self.slice(start, self.pos.offset)),
            }
        }
    }

    // ---- event production ----------------------------------------------

    /// Produces the next event as zero-copy slices of the source.
    ///
    /// The returned event borrows the reader (its attribute buffer is
    /// reused between start tags), so it must be dropped before the next
    /// call — the natural shape of a pull loop.
    pub fn next_event_borrowed(&mut self) -> Result<BorrowedEvent<'a, '_>, ParseError> {
        let raw = match self.next_event_inner() {
            Ok(raw) => raw,
            Err(e) => {
                // a feed-mode suspension is not a document error
                if !matches!(e.kind, ParseErrorKind::NeedMoreData) {
                    self.errored = true;
                }
                return Err(e);
            }
        };
        let fully_borrowed = match &raw {
            RawEvent::Text { text, .. }
            | RawEvent::Comment { text, .. }
            | RawEvent::Pi { data: text, .. } => matches!(text, Cow::Borrowed(_)),
            RawEvent::Start { .. } => !self
                .attr_buf
                .iter()
                .any(|a| matches!(a.value, Cow::Owned(_))),
            _ => true,
        };
        if !matches!(raw, RawEvent::Eof) {
            self.events_seen += 1;
            if fully_borrowed {
                self.borrowed_events += 1;
            } else {
                self.owned_fallback += 1;
            }
        }
        Ok(self.materialize(raw))
    }

    /// Attaches the shared attribute buffer to a raw start event.
    fn materialize(&self, raw: RawEvent<'a>) -> BorrowedEvent<'a, '_> {
        match raw {
            RawEvent::Start {
                name,
                self_closing,
                span,
            } => BorrowedEvent::StartElement {
                name,
                attributes: &self.attr_buf,
                self_closing,
                span,
            },
            RawEvent::End { name, span } => BorrowedEvent::EndElement { name, span },
            RawEvent::Text { text, span } => BorrowedEvent::Text { text, span },
            RawEvent::Comment { text, span } => BorrowedEvent::Comment { text, span },
            RawEvent::Pi { target, data, span } => {
                BorrowedEvent::ProcessingInstruction { target, data, span }
            }
            RawEvent::Eof => BorrowedEvent::Eof,
        }
    }

    fn next_event_inner(&mut self) -> Result<RawEvent<'a>, ParseError> {
        if !self.input_checked {
            self.input_checked = true;
            if self.src.len() > self.limits.max_input_bytes {
                return Err(self.resource_err(
                    ResourceErrorKind::InputTooLarge {
                        limit: self.limits.max_input_bytes,
                        actual: self.src.len(),
                    },
                    Position::START,
                ));
            }
        }
        if let Some((name, span)) = self.pending_end.take() {
            self.finish_element(name)?;
            return Ok(RawEvent::End { name, span });
        }
        // Outside the root element, skip whitespace-only text.
        if self.open.is_empty() {
            self.skip_whitespace();
        }
        match self.peek() {
            Some('<') => self.read_markup(),
            Some(_) => {
                if self.open.is_empty() {
                    return Err(self.err(ParseErrorKind::TrailingContent));
                }
                self.read_text()
            }
            None => self.finish_document(),
        }
    }

    fn finish_document(&mut self) -> Result<RawEvent<'a>, ParseError> {
        if self.feed_mode {
            // quiescent between chunks — not the end of the document
            return Err(self.need_more());
        }
        if !self.open.is_empty() {
            return Err(self.err(ParseErrorKind::UnclosedElements(
                self.open.iter().map(|s| s.to_string()).collect(),
            )));
        }
        if !self.root_seen {
            return Err(self.err(ParseErrorKind::NoRootElement));
        }
        Ok(RawEvent::Eof)
    }

    fn read_markup(&mut self) -> Result<RawEvent<'a>, ParseError> {
        let start = self.pos;
        self.eat(b'<', "markup")?;
        match self.peek_byte() {
            Some(b'?') => self.read_pi(start),
            Some(b'!') => {
                self.advance_ascii(1);
                if self.lookahead("--")? {
                    self.read_comment(start)
                } else if self.lookahead("[CDATA[")? {
                    self.read_cdata(start)
                } else if self.lookahead("DOCTYPE")? {
                    Err(self.err_at(ParseErrorKind::DoctypeUnsupported, start))
                } else {
                    Err(self.err(ParseErrorKind::IllegalSequence("<!")))
                }
            }
            Some(b'/') => {
                self.advance_ascii(1);
                self.read_end_tag(start)
            }
            None => Err(self.eof_err("markup")),
            _ => self.read_start_tag(start),
        }
    }

    fn read_start_tag(&mut self, start: Position) -> Result<RawEvent<'a>, ParseError> {
        if self.root_closed && self.open.is_empty() {
            return Err(self.err_at(ParseErrorKind::TrailingContent, start));
        }
        let name = self.read_name()?;
        if self.open.len() >= self.limits.max_depth {
            return Err(self.resource_err(
                ResourceErrorKind::DepthExceeded {
                    limit: self.limits.max_depth,
                },
                start,
            ));
        }
        self.attr_buf.clear();
        loop {
            let before = self.pos.offset;
            self.skip_whitespace();
            let had_space = self.pos.offset != before;
            match self.peek() {
                Some('>') => {
                    self.advance_ascii(1);
                    break;
                }
                Some('/') => {
                    self.advance_ascii(1);
                    self.eat(b'>', "self-closing tag")?;
                    let span = Span::new(start, self.pos);
                    self.open.push(Cow::Borrowed(name));
                    self.root_seen = true;
                    self.pending_end = Some((name, span));
                    return Ok(RawEvent::Start {
                        name,
                        self_closing: true,
                        span,
                    });
                }
                Some(c) if is_name_start_char(c) => {
                    if !had_space {
                        return Err(self.err(ParseErrorKind::Expected {
                            what: "whitespace before attribute",
                            found: c,
                        }));
                    }
                    if self.attr_buf.len() >= self.limits.max_attributes {
                        return Err(self.resource_err(
                            ResourceErrorKind::TooManyAttributes {
                                limit: self.limits.max_attributes,
                            },
                            self.pos,
                        ));
                    }
                    let attr = self.read_attribute()?;
                    if self.attr_buf.iter().any(|a| a.name == attr.name) {
                        return Err(
                            self.err(ParseErrorKind::DuplicateAttribute(attr.name.to_string()))
                        );
                    }
                    self.attr_buf.push(attr);
                }
                Some(c) => {
                    return Err(self.err(ParseErrorKind::Expected {
                        what: "attribute, '>' or '/>'",
                        found: c,
                    }))
                }
                None => {
                    return Err(self.eof_err("start tag"));
                }
            }
        }
        let span = Span::new(start, self.pos);
        self.open.push(Cow::Borrowed(name));
        self.root_seen = true;
        Ok(RawEvent::Start {
            name,
            self_closing: false,
            span,
        })
    }

    fn read_attribute(&mut self) -> Result<BorrowedAttribute<'a>, ParseError> {
        let name = self.read_name()?;
        self.skip_whitespace();
        self.eat(b'=', "'=' in attribute")?;
        self.skip_whitespace();
        let quote = match self.peek() {
            Some(q @ ('"' | '\'')) => {
                self.advance_ascii(1);
                q
            }
            Some(c) => {
                return Err(self.err(ParseErrorKind::Expected {
                    what: "quoted attribute value",
                    found: c,
                }))
            }
            None => {
                return Err(self.eof_err("attribute value"));
            }
        };
        let start = self.pos.offset;
        loop {
            self.skip_plain_ascii([quote as u8, b'<']);
            match self.peek() {
                Some(c) if c == quote => break,
                Some('<') => {
                    return Err(self.err(ParseErrorKind::Expected {
                        what: "attribute value character",
                        found: '<',
                    }))
                }
                Some(c) if !is_xml_char(c) => return Err(self.err(ParseErrorKind::IllegalChar(c))),
                Some(_) => {
                    self.bump();
                }
                None => {
                    return Err(self.eof_err("attribute value"));
                }
            }
        }
        let raw = self.slice(start, self.pos.offset);
        if raw.len() > self.limits.max_attr_value_bytes {
            return Err(self.resource_err(
                ResourceErrorKind::AttributeValueTooLong {
                    limit: self.limits.max_attr_value_bytes,
                    actual: raw.len(),
                },
                self.pos,
            ));
        }
        self.advance_ascii(1); // closing quote
        let value =
            normalize_attr_value(raw).map_err(|e| self.err(ParseErrorKind::Reference(e)))?;
        if let Cow::Owned(v) = &value {
            let expanded = v.len();
            self.note_expansions(raw, expanded, self.pos)?;
        }
        Ok(BorrowedAttribute { name, value })
    }

    /// Reads an end tag. The common case is checked by comparing bytes:
    /// the open element's name must follow `</`, and the byte after it
    /// must be ASCII and no NameChar. Anything else, including a compare
    /// that runs into the end of the buffer, takes the general path,
    /// which reads the name and reports a mismatch with its text.
    fn read_end_tag(&mut self, start: Position) -> Result<RawEvent<'a>, ParseError> {
        let name = match self.match_open_name() {
            Some(name) => name,
            None => self.read_name()?,
        };
        self.skip_whitespace();
        self.eat(b'>', "end tag")?;
        let span = Span::new(start, self.pos);
        self.finish_element(name)?;
        Ok(RawEvent::End { name, span })
    }

    /// Consumes the innermost open element's name if the input continues
    /// with it followed by an ASCII non-NameChar, returning the source
    /// slice it matched.
    #[inline]
    fn match_open_name(&mut self) -> Option<&'a str> {
        let open = self.open.last()?.as_bytes();
        let from = self.pos.offset - self.base;
        let rest = &self.src.as_bytes()[from..];
        let after = *rest.get(open.len())?;
        if !after.is_ascii()
            || BYTE_CLASS[after as usize] & NAME != 0
            || rest[..open.len()] != *open
        {
            return None;
        }
        let name = &self.src[from..from + open.len()];
        // a name holds no line break: its width in columns is its
        // character count
        self.pos.offset += open.len();
        self.pos.column += name.chars().count() as u32;
        self.prev_cr = false;
        Some(name)
    }

    fn finish_element(&mut self, name: &str) -> Result<(), ParseError> {
        match self.open.pop() {
            Some(open) if open == name => {
                if self.open.is_empty() {
                    self.root_closed = true;
                }
                Ok(())
            }
            Some(open) => Err(self.err(ParseErrorKind::MismatchedTag {
                open: open.into_owned(),
                close: name.to_string(),
            })),
            None => Err(self.err(ParseErrorKind::UnmatchedEndTag(name.to_string()))),
        }
    }

    fn read_text(&mut self) -> Result<RawEvent<'a>, ParseError> {
        let start = self.pos;
        let begin = self.pos.offset;
        let mut saw_cr = false;
        loop {
            self.skip_plain_ascii([b'<', b']']);
            match self.peek() {
                Some('<') => break,
                None => {
                    if self.feed_mode {
                        // the run may continue in the next chunk; hold it
                        return Err(self.need_more());
                    }
                    break;
                }
                Some(']') => {
                    if self.lookahead("]]>")? {
                        return Err(self.err(ParseErrorKind::IllegalSequence("]]>")));
                    }
                    self.bump();
                }
                Some('\r') => {
                    saw_cr = true;
                    self.bump();
                }
                Some(c) if !is_xml_char(c) => return Err(self.err(ParseErrorKind::IllegalChar(c))),
                Some(_) => {
                    self.bump();
                }
            }
        }
        let raw = self.slice(begin, self.pos.offset);
        let text = if saw_cr {
            // §2.11 slow lane: \r\n / \r become \n before references
            // resolve, so &#13; still yields a literal carriage return
            let normalized = normalize_eol(raw);
            Cow::Owned(
                unescape(&normalized)
                    .map_err(|e| self.err(ParseErrorKind::Reference(e)))?
                    .into_owned(),
            )
        } else {
            unescape(raw).map_err(|e| self.err(ParseErrorKind::Reference(e)))?
        };
        if let Cow::Owned(t) = &text {
            let expanded = t.len();
            self.note_expansions(raw, expanded, start)?;
        }
        Ok(RawEvent::Text {
            text,
            span: Span::new(start, self.pos),
        })
    }

    fn read_comment(&mut self, start: Position) -> Result<RawEvent<'a>, ParseError> {
        self.eat_str("--", "comment opener")?;
        let begin = self.pos.offset;
        let mut saw_cr = false;
        loop {
            self.skip_plain_ascii([b'-', b'-']);
            if self.lookahead("-->")? {
                break;
            }
            if self.rest().starts_with("--") {
                return Err(self.err(ParseErrorKind::IllegalSequence("-- inside comment")));
            }
            match self.peek() {
                Some('\r') => {
                    saw_cr = true;
                    self.bump();
                }
                Some(c) if is_xml_char(c) => {
                    self.bump();
                }
                Some(c) => return Err(self.err(ParseErrorKind::IllegalChar(c))),
                None => return Err(self.eof_err("comment")),
            }
        }
        let raw = self.slice(begin, self.pos.offset);
        let text = if saw_cr {
            Cow::Owned(normalize_eol(raw))
        } else {
            Cow::Borrowed(raw)
        };
        self.eat_str("-->", "comment closer")?;
        Ok(RawEvent::Comment {
            text,
            span: Span::new(start, self.pos),
        })
    }

    fn read_cdata(&mut self, start: Position) -> Result<RawEvent<'a>, ParseError> {
        self.eat_str("[CDATA[", "CDATA opener")?;
        if self.open.is_empty() {
            return Err(self.err_at(ParseErrorKind::TrailingContent, start));
        }
        let begin = self.pos.offset;
        let mut saw_cr = false;
        loop {
            self.skip_plain_ascii([b']', b']']);
            if self.lookahead("]]>")? {
                break;
            }
            match self.peek() {
                Some('\r') => {
                    saw_cr = true;
                    self.bump();
                }
                Some(c) if is_xml_char(c) => {
                    self.bump();
                }
                Some(c) => return Err(self.err(ParseErrorKind::IllegalChar(c))),
                None => {
                    return Err(self.eof_err("CDATA section"));
                }
            }
        }
        let raw = self.slice(begin, self.pos.offset);
        let text = if saw_cr {
            Cow::Owned(normalize_eol(raw))
        } else {
            Cow::Borrowed(raw)
        };
        self.eat_str("]]>", "CDATA closer")?;
        Ok(RawEvent::Text {
            text,
            span: Span::new(start, self.pos),
        })
    }

    fn read_pi(&mut self, start: Position) -> Result<RawEvent<'a>, ParseError> {
        self.eat(b'?', "processing instruction")?;
        let target = self.read_name()?;
        if target.eq_ignore_ascii_case("xml") && start.offset != 0 {
            return Err(self.err_at(
                ParseErrorKind::IllegalSequence("XML declaration not at start"),
                start,
            ));
        }
        self.skip_whitespace();
        let begin = self.pos.offset;
        let mut saw_cr = false;
        loop {
            self.skip_plain_ascii([b'?', b'?']);
            if self.lookahead("?>")? {
                break;
            }
            match self.peek() {
                Some('\r') => {
                    saw_cr = true;
                    self.bump();
                }
                Some(c) if is_xml_char(c) => {
                    self.bump();
                }
                Some(c) => return Err(self.err(ParseErrorKind::IllegalChar(c))),
                None => {
                    return Err(self.eof_err("processing instruction"));
                }
            }
        }
        let raw = self.slice(begin, self.pos.offset);
        let data = if saw_cr {
            Cow::Owned(normalize_eol(raw))
        } else {
            Cow::Borrowed(raw)
        };
        self.eat_str("?>", "PI closer")?;
        let span = Span::new(start, self.pos);
        if target.eq_ignore_ascii_case("xml") {
            // Swallow the XML declaration and continue with the next event
            // (the inner form, so the wrapper counts the event only once).
            return self.next_event_inner();
        }
        Ok(RawEvent::Pi { target, data, span })
    }
}

/// XML 1.0 §2.11 end-of-line normalization: every `\r\n` pair and every
/// lone `\r` becomes a single `\n`. Runs on raw source slices *before*
/// reference resolution, so `&#13;` still delivers a literal `\r`.
fn normalize_eol(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = String::with_capacity(raw.len());
    let mut seg = 0;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'\r' {
            out.push_str(&raw[seg..i]);
            out.push('\n');
            i += 1;
            if i < bytes.len() && bytes[i] == b'\n' {
                i += 1;
            }
            seg = i;
        } else {
            i += 1;
        }
    }
    out.push_str(&raw[seg..]);
    out
}

/// Attribute-value normalization (XML 1.0 §3.3.3 after §2.11): line
/// breaks — `\r\n` counting as *one* — and tabs become single spaces,
/// then references are resolved. Borrows when the value needed neither —
/// the zero-copy fast path. Because §2.11 runs first, a literal `\r\n`
/// in a value yields one space, while `&#13;`/`&#10;` still deliver the
/// control characters themselves.
fn normalize_attr_value(raw: &str) -> Result<Cow<'_, str>, UnescapeError> {
    if raw.bytes().any(|b| matches!(b, b'\t' | b'\n' | b'\r')) {
        let bytes = raw.as_bytes();
        let mut normalized = String::with_capacity(raw.len());
        let mut seg = 0;
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\r' => {
                    normalized.push_str(&raw[seg..i]);
                    normalized.push(' ');
                    i += 1;
                    if i < bytes.len() && bytes[i] == b'\n' {
                        i += 1;
                    }
                    seg = i;
                }
                b'\t' | b'\n' => {
                    normalized.push_str(&raw[seg..i]);
                    normalized.push(' ');
                    i += 1;
                    seg = i;
                }
                _ => i += 1,
            }
        }
        normalized.push_str(&raw[seg..]);
        return Ok(Cow::Owned(unescape(&normalized)?.into_owned()));
    }
    unescape(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `r` through `Eof`, keeping what `keep` returns per event.
    fn pull<T>(
        mut r: Reader<'_>,
        mut keep: impl FnMut(BorrowedEvent<'_, '_>) -> Option<T>,
    ) -> Result<Vec<T>, ParseError> {
        let mut out = Vec::new();
        loop {
            let e = r.next_event_borrowed()?;
            let done = matches!(e, BorrowedEvent::Eof);
            out.extend(keep(e));
            if done {
                return Ok(out);
            }
        }
    }

    /// Every event's `Debug` rendering, `Eof` included (a `Cow` prints
    /// the same borrowed or owned).
    fn events(src: &str) -> Result<Vec<String>, ParseError> {
        pull(Reader::new(src), |e| Some(format!("{e:?}")))
    }

    /// One token per event: `+start`, `-end`, `"text"`, `<!--comment-->`,
    /// `<?target data?>`.
    fn token(e: BorrowedEvent<'_, '_>) -> Option<String> {
        match e {
            BorrowedEvent::StartElement { name, .. } => Some(format!("+{name}")),
            BorrowedEvent::EndElement { name, .. } => Some(format!("-{name}")),
            BorrowedEvent::Text { text, .. } => Some(format!("\"{text}\"")),
            BorrowedEvent::Comment { text, .. } => Some(format!("<!--{text}-->")),
            BorrowedEvent::ProcessingInstruction { target, data, .. } => {
                Some(format!("<?{target} {data}?>"))
            }
            BorrowedEvent::Eof => None,
        }
    }

    /// [`token`] per event, `Eof` dropped.
    fn names(src: &str) -> Vec<String> {
        pull(Reader::new(src), token).unwrap()
    }

    /// The attribute values of the first start tag.
    fn first_attr_values(src: &str) -> Vec<String> {
        let mut tags = pull(Reader::new(src), |e| match e {
            BorrowedEvent::StartElement { attributes, .. } => {
                Some(attributes.iter().map(|a| a.value.to_string()).collect())
            }
            _ => None,
        })
        .unwrap();
        tags.swap_remove(0)
    }

    /// Every text run with its span.
    fn texts(src: &str) -> Vec<(String, Span)> {
        pull(Reader::new(src), |e| match e {
            BorrowedEvent::Text { text, span } => Some((text.into_owned(), span)),
            _ => None,
        })
        .unwrap()
    }

    #[test]
    fn simple_document() {
        assert_eq!(
            names("<a><b>hi</b></a>"),
            ["+a", "+b", "\"hi\"", "-b", "-a"]
        );
    }

    #[test]
    fn self_closing_emits_end_event() {
        assert_eq!(names("<a><b/></a>"), ["+a", "+b", "-b", "-a"]);
    }

    #[test]
    fn attributes_parsed_and_normalized() {
        let values = first_attr_values("<a x=\"1\" y='two &amp; three'\n z=\"a\tb\"/>");
        assert_eq!(values, ["1", "two & three", "a b"]); // tab normalized
    }

    #[test]
    fn crlf_in_attribute_value_is_one_space() {
        // §2.11 before §3.3.3: the pair is one line break, so one space
        let values = first_attr_values("<a v=\"x\r\ny\" w=\"p\rq\" u=\"m\r\n\nn\"/>");
        assert_eq!(values, ["x y", "p q", "m  n"]); // \r\n then \n: two breaks
    }

    #[test]
    fn char_refs_to_whitespace_survive_attr_normalization() {
        // §3.3.3: references to #xD/#xA/#x9 are NOT normalized
        assert_eq!(
            first_attr_values("<a v=\"x&#13;&#10;&#9;y\"/>"),
            ["x\r\n\ty"]
        );
    }

    #[test]
    fn eol_normalized_in_text() {
        assert_eq!(names("<a>x\r\ny\rz\n</a>"), ["+a", "\"x\ny\nz\n\"", "-a"]);
    }

    #[test]
    fn eol_normalized_in_cdata() {
        assert_eq!(
            names("<a><![CDATA[x\r\ny\rz]]></a>"),
            ["+a", "\"x\ny\nz\"", "-a"]
        );
    }

    #[test]
    fn eol_normalized_in_comments_and_pis() {
        assert_eq!(
            names("<a><!--l1\r\nl2\rl3--><?pi d1\r\nd2?></a>"),
            ["+a", "<!--l1\nl2\nl3-->", "<?pi d1\nd2?>", "-a"]
        );
    }

    #[test]
    fn char_ref_cr_survives_in_text() {
        // &#13; resolves after §2.11, so the literal CR reaches content
        assert_eq!(names("<a>x&#13;y</a>"), ["+a", "\"x\ry\"", "-a"]);
    }

    #[test]
    fn cr_only_document_counts_lines() {
        // classic-Mac line endings: every error position used to say line 1
        let err = events("<a>\r  <b>\r</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MismatchedTag { .. }));
        assert_eq!(err.position.line, 3);
    }

    #[test]
    fn crlf_counts_one_line_break() {
        let err = events("<a>\r\n<b>\r\n</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MismatchedTag { .. }));
        assert_eq!(err.position.line, 3);
        // and the column restarts after the pair
        let span = texts("<a>\r\nxy</a>")[0].1;
        assert_eq!((span.end.line, span.end.column), (2, 3));
    }

    #[test]
    fn cr_text_falls_back_to_owned_and_is_counted() {
        let src = "<a>line1\r\nline2</a>";
        let mut r = Reader::new(src);
        r.next_event_borrowed().unwrap();
        match r.next_event_borrowed().unwrap() {
            BorrowedEvent::Text { text, .. } => {
                assert!(matches!(text, Cow::Owned(_)));
                assert_eq!(text, "line1\nline2");
            }
            other => panic!("unexpected {other:?}"),
        }
        while !matches!(r.next_event_borrowed().unwrap(), BorrowedEvent::Eof) {}
        assert_eq!(r.owned_fallback, 1);
    }

    #[test]
    fn borrowed_events_slice_the_source() {
        let src = "<a x=\"plain\">text</a>";
        let mut r = Reader::new(src);
        match r.next_event_borrowed().unwrap() {
            BorrowedEvent::StartElement {
                name, attributes, ..
            } => {
                assert_eq!(name, "a");
                assert!(matches!(attributes[0].value, Cow::Borrowed(_)));
                assert_eq!(attributes[0].value, "plain");
            }
            other => panic!("unexpected {other:?}"),
        }
        match r.next_event_borrowed().unwrap() {
            BorrowedEvent::Text { text, .. } => {
                assert!(matches!(text, Cow::Borrowed(_)));
                assert_eq!(text, "text");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn entity_values_fall_back_to_owned() {
        let mut r = Reader::new("<a x=\"1 &amp; 2\">a &lt; b</a>");
        match r.next_event_borrowed().unwrap() {
            BorrowedEvent::StartElement { attributes, .. } => {
                assert!(matches!(attributes[0].value, Cow::Owned(_)));
                assert_eq!(attributes[0].value, "1 & 2");
            }
            other => panic!("unexpected {other:?}"),
        }
        match r.next_event_borrowed().unwrap() {
            BorrowedEvent::Text { text, .. } => {
                assert!(matches!(text, Cow::Owned(_)));
                assert_eq!(text, "a < b");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn borrowed_stream_matches_owned_stream() {
        // entity-bearing events fall back to owned copies; they must
        // resolve exactly like the borrowed ones around them
        let src = "<?xml version=\"1.0\"?><root a=\"v\">\n  <child b='1 &gt; 0'>x &amp; y</child>\n  <!-- note --><![CDATA[raw <>]]><?pi data?>\n  <empty/>\n</root>";
        assert_eq!(
            names(src),
            [
                "+root",
                "\"\n  \"",
                "+child",
                "\"x & y\"",
                "-child",
                "\"\n  \"",
                "<!-- note -->",
                "\"raw <>\"",
                "<?pi data?>",
                "\"\n  \"",
                "+empty",
                "-empty",
                "\"\n\"",
                "-root",
            ]
        );
        let mut r = Reader::new(src);
        let mut owned = Vec::new();
        loop {
            let e = r.next_event_borrowed().unwrap();
            match &e {
                BorrowedEvent::Eof => break,
                BorrowedEvent::StartElement { attributes, .. } if !e.is_fully_borrowed() => {
                    owned.extend(attributes.iter().map(|a| a.value.to_string()));
                }
                BorrowedEvent::Text { text, .. } if !e.is_fully_borrowed() => {
                    owned.push(text.to_string());
                }
                _ => assert!(e.is_fully_borrowed(), "{e:?}"),
            }
        }
        assert_eq!(owned, ["1 > 0", "x & y"]);
        assert_eq!(r.stats().owned_events, 2);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = events("<a x=\"1\" x=\"2\"/>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn mismatched_tags_rejected_with_position() {
        let err = events("<a><b></a></b>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MismatchedTag { .. }));
        assert_eq!(err.position.line, 1);
    }

    #[test]
    fn unclosed_elements_rejected() {
        let err = events("<a><b>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnclosedElements(ref v) if v == &["a", "b"]));
    }

    #[test]
    fn second_root_rejected() {
        let err = events("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::TrailingContent));
    }

    #[test]
    fn no_root_rejected() {
        let err = events("   \n  ").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::NoRootElement));
    }

    #[test]
    fn cdata_folds_into_text() {
        assert_eq!(
            names("<a><![CDATA[<raw> & text]]></a>"),
            ["+a", "\"<raw> & text\"", "-a"]
        );
    }

    #[test]
    fn comments_and_pis() {
        assert_eq!(
            names("<?xml version=\"1.0\"?><!-- top --><a><?php echo?></a>"),
            ["<!-- top -->", "+a", "<?php echo?>", "-a"]
        );
    }

    #[test]
    fn double_dash_in_comment_rejected() {
        let err = events("<a><!-- bad -- comment --></a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::IllegalSequence(_)));
    }

    #[test]
    fn doctype_rejected_clearly() {
        let err = events("<!DOCTYPE html><a/>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DoctypeUnsupported));
    }

    #[test]
    fn cdata_end_in_text_rejected() {
        let err = events("<a>bad ]]> text</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::IllegalSequence("]]>")));
    }

    #[test]
    fn bad_entity_rejected() {
        let err = events("<a>&nope;</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Reference(_)));
    }

    #[test]
    fn positions_track_lines() {
        let err = events("<a>\n  <b>\n</a>").unwrap_err();
        assert_eq!(err.position.line, 3);
    }

    #[test]
    fn positions_track_lines_through_multiline_text_and_values() {
        // newlines inside text runs and attribute values go through the
        // byte-sweep fast path's slow lane; line accounting must survive
        let err = events("<a v=\"one\ntwo\">line\nline\nline<b>\n</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MismatchedTag { .. }));
        assert_eq!(err.position.line, 5);
    }

    #[test]
    fn non_ascii_text_positions_count_chars() {
        // '€' is one column but three bytes; a following error must sit
        // at the character-accurate column
        let (text, span) = texts("<a>€€€</a>").swap_remove(0);
        assert_eq!(text, "€€€");
        assert_eq!(span.end.column, span.start.column + 3);
    }

    #[test]
    fn long_text_runs_cross_word_boundaries_cleanly() {
        // runs longer than the 16-byte SWAR stride, with stops planted
        // at every alignment relative to the run start
        for pad in 0..17 {
            let text = format!("{}&amp;{}", "x".repeat(pad), "y".repeat(40));
            let src = format!("<a>{text}</a>");
            assert_eq!(texts(&src)[0].0, text.replace("&amp;", "&"), "pad {pad}");
        }
    }

    fn limited_events(src: &str, limits: Limits) -> Result<Vec<String>, ParseError> {
        pull(Reader::with_limits(src, limits), |e| Some(format!("{e:?}")))
    }

    #[test]
    fn input_size_budget_trips_before_parsing() {
        let err = limited_events("<a>hello</a>", Limits::unbounded().with_max_input_bytes(4))
            .unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Resource(ResourceErrorKind::InputTooLarge {
                limit: 4,
                actual: 12
            })
        ));
        assert_eq!(err.position.offset, 0);
    }

    #[test]
    fn depth_budget_trips_at_the_offending_tag() {
        let err = limited_events("<a><b><c/></b></a>", Limits::unbounded().with_max_depth(2))
            .unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Resource(ResourceErrorKind::DepthExceeded { limit: 2 })
        ));
        // the budget trips at <c>, which sits on line 1 past <a><b>
        assert_eq!(err.position.offset, 6);
    }

    #[test]
    fn depth_budget_ignores_siblings() {
        // 100 self-closing siblings never accumulate depth
        let src = format!("<a>{}</a>", "<b/>".repeat(100));
        assert!(limited_events(&src, Limits::unbounded().with_max_depth(2)).is_ok());
    }

    #[test]
    fn attribute_count_budget_trips() {
        let src = "<a p=\"1\" q=\"2\" r=\"3\"/>";
        let err = limited_events(src, Limits::unbounded().with_max_attributes(2)).unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Resource(ResourceErrorKind::TooManyAttributes { limit: 2 })
        ));
        assert!(limited_events(src, Limits::unbounded().with_max_attributes(3)).is_ok());
    }

    #[test]
    fn attribute_value_budget_trips_on_raw_length() {
        let src = "<a v=\"0123456789\"/>";
        let err =
            limited_events(src, Limits::unbounded().with_max_attr_value_bytes(8)).unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Resource(ResourceErrorKind::AttributeValueTooLong {
                limit: 8,
                actual: 10
            })
        ));
    }

    #[test]
    fn expansion_count_budget_trips() {
        let src = format!("<a>{}</a>", "&amp;".repeat(10));
        let err =
            limited_events(&src, Limits::unbounded().with_max_entity_expansions(9)).unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Resource(ResourceErrorKind::TooManyExpansions { limit: 9 })
        ));
        assert!(limited_events(&src, Limits::unbounded().with_max_entity_expansions(10)).is_ok());
    }

    #[test]
    fn expansion_bytes_budget_counts_cumulative_output() {
        // each run expands to 3 bytes ("a&b"); the third run crosses 8
        let src = "<r><x>a&amp;b</x><x>a&amp;b</x><x>a&amp;b</x></r>";
        let err = limited_events(src, Limits::unbounded().with_max_expansion_bytes(8)).unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Resource(ResourceErrorKind::ExpansionTooLarge { limit: 8 })
        ));
        assert!(limited_events(src, Limits::unbounded().with_max_expansion_bytes(9)).is_ok());
    }

    #[test]
    fn whitespace_normalization_is_not_expansion() {
        // owned rewrite with zero references: no expansion accounting
        let src = "<a v=\"x\ty\"/>";
        assert!(limited_events(src, Limits::unbounded().with_max_expansion_bytes(0)).is_ok());
    }

    #[test]
    fn eol_normalization_is_not_expansion() {
        let src = "<a>x\r\ny</a>";
        assert!(limited_events(src, Limits::unbounded().with_max_expansion_bytes(0)).is_ok());
    }

    #[test]
    fn default_limits_accept_ordinary_documents() {
        let src = "<po date=\"1999-10-20\"><item part=\"a &amp; b\">2 &lt; 3</item></po>";
        assert_eq!(
            limited_events(src, Limits::default()).unwrap(),
            events(src).unwrap()
        );
    }

    #[test]
    fn purchase_order_smoke() {
        let src = "<purchaseOrder orderDate=\"1999-10-20\">\n  <shipTo country=\"US\">\n    <name>Alice Smith</name>\n  </shipTo>\n</purchaseOrder>";
        assert_eq!(names(src)[0], "+purchaseOrder");
        assert_eq!(first_attr_values(src), ["1999-10-20"]);
    }

    #[test]
    fn normalize_eol_unit() {
        assert_eq!(normalize_eol("a\r\nb"), "a\nb");
        assert_eq!(normalize_eol("a\rb"), "a\nb");
        assert_eq!(normalize_eol("\r\r\n\r"), "\n\n\n");
        assert_eq!(normalize_eol("plain"), "plain");
        assert_eq!(normalize_eol("a\r\n\nb"), "a\n\nb");
    }

    #[test]
    fn normalize_attr_value_unit() {
        assert_eq!(normalize_attr_value("a\r\nb").unwrap(), "a b");
        assert_eq!(normalize_attr_value("a\rb").unwrap(), "a b");
        assert_eq!(normalize_attr_value("a\r\n\nb").unwrap(), "a  b");
        assert_eq!(normalize_attr_value("a\t\r\n\rb").unwrap(), "a   b");
        assert!(matches!(
            normalize_attr_value("plain").unwrap(),
            Cow::Borrowed(_)
        ));
    }
}
