//! Chunked ("push") input: parse documents larger than memory.
//!
//! [`FeedReader`] accepts raw bytes in arbitrary slices via
//! [`feed`](FeedReader::feed) and delivers the same event stream — same
//! text, same spans, same line/column positions, same errors — as a
//! whole-input [`Reader`] over the concatenation. Only the *unconsumed
//! suffix* of the input (at most one in-flight token plus the current
//! chunk) is buffered, so an O(depth) consumer such as
//! `validator::StreamingValidator` runs in memory independent of
//! document length.
//!
//! How it works: each `feed` appends to an internal buffer and resumes
//! the tokenizer over it in *feed mode*, where running off the end of
//! the buffer mid-token yields the internal
//! [`ParseErrorKind::NeedMoreData`] instead of a hard end-of-input
//! error. The attempt then rolls back to the token's first byte, the
//! tokenizer's cross-chunk state (open-element stack, position, EOL
//! lookbehind, expansion budgets) is suspended, and the consumed prefix
//! of the buffer is compacted away. Multi-byte delimiters that straddle
//! a chunk edge (`]]>`, `-->`, `?>`, `<![CDATA[`…) are handled by the
//! tokenizer's feed-mode lookahead: a buffer that ends on a proper
//! prefix of a delimiter suspends rather than guesses. Split UTF-8
//! sequences are stitched before decoding ([`FeedReader::feed`] takes
//! `&[u8]`, the one entry point where invalid UTF-8 is even
//! representable — it surfaces as [`ParseErrorKind::InvalidUtf8`]).
//! Split `\r\n` pairs need no special casing: a text run is only
//! emitted once its terminating `<` is buffered, so §2.11 normalization
//! always sees the whole run.
//!
//! Because a suspended attempt reparses its partial token from the
//! start on the next feed, a single token (one text run, one tag) that
//! spans many chunks costs O(token·chunks) re-scans. Tokens are tiny
//! next to sensible chunk sizes (64 KiB+), so in practice each byte is
//! scanned ~once; the B12 bench measures exactly this end-to-end.

use limits::{Limits, ResourceErrorKind};

use crate::error::{ParseError, ParseErrorKind};
use crate::event::BorrowedEvent;
use crate::reader::{Reader, ReaderStats, Suspended};

/// How a pump pass over the buffered input ended.
enum Pump {
    /// Ran out of buffered input mid-token; suspended for more.
    Suspended,
    /// The sink returned `false`; no further events wanted.
    Stopped,
    /// The document completed (finish mode only).
    Done,
}

/// An incremental parser fed with byte chunks; see the module docs.
///
/// Events are delivered to a sink closure during [`feed`](Self::feed) /
/// [`finish`](Self::finish) — they borrow the internal buffer, which
/// mutates between calls, so they cannot be returned by value. The sink
/// returns `true` to keep parsing; `false` abandons the rest of the
/// stream (the reader discards its buffer and ignores further feeds).
///
/// ```
/// use xmlparse::{BorrowedEvent, FeedReader};
///
/// let mut text = String::new();
/// let mut feeder = FeedReader::new();
/// for chunk in ["<doc><item>a", "b</item", "></doc>"] {
///     feeder
///         .feed(chunk.as_bytes(), |event| {
///             if let BorrowedEvent::Text { text: t, .. } = event {
///                 text.push_str(t);
///             }
///             true
///         })
///         .unwrap();
/// }
/// feeder.finish(|_| true).unwrap();
/// assert_eq!(text, "ab");
/// ```
pub struct FeedReader {
    /// The unconsumed window of the document, always valid UTF-8.
    buf: String,
    /// Incomplete trailing UTF-8 sequence from the last chunk (0–3
    /// bytes), stitched to the front of the next chunk.
    utf8_tail: Vec<u8>,
    /// Absolute document offset of `buf[0]`.
    base: usize,
    /// The tokenizer's cross-chunk state.
    state: Suspended,
    limits: Limits,
    /// Cumulative bytes fed — the chunked analogue of the whole-input
    /// `max_input_bytes` check.
    total_bytes: usize,
    /// The sink asked to stop; further input is discarded.
    stopped: bool,
    /// Terminal error, latched so every later call re-reports it.
    error: Option<ParseError>,
    /// Cumulative throughput counters across every resumed tokenizer
    /// pass (each pass reports only its own delta).
    stats: ReaderStats,
}

impl FeedReader {
    /// A feed reader with no resource budgets ([`Limits::unbounded`]).
    pub fn new() -> Self {
        FeedReader::with_limits(Limits::unbounded())
    }

    /// A feed reader enforcing `limits` — the same parse-side budgets as
    /// [`Reader::with_limits`](crate::Reader::with_limits), with
    /// `max_input_bytes` applied to the *cumulative* feed total (the
    /// whole-input check sees the full document up front; the chunked
    /// one trips on the feed that crosses the ceiling).
    pub fn with_limits(limits: Limits) -> Self {
        FeedReader {
            buf: String::new(),
            utf8_tail: Vec::new(),
            base: 0,
            state: Suspended::default(),
            limits,
            total_bytes: 0,
            stopped: false,
            error: None,
            stats: ReaderStats::default(),
        }
    }

    /// The tokenizer's current position — the end of the last completed
    /// event (document-absolute, so it keeps growing across chunks).
    pub fn position(&self) -> xmlchars::Position {
        self.state.pos
    }

    /// Bytes currently buffered (the unconsumed suffix: at most one
    /// in-flight token plus the latest chunk).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() + self.utf8_tail.len()
    }

    /// Cumulative throughput counters over every chunk so far — the
    /// chunked analogue of [`Reader::stats`](crate::Reader::stats),
    /// carried by the flight recorder's wide events.
    pub fn stats(&self) -> ReaderStats {
        self.stats
    }

    /// Re-arms the reader for a fresh document, keeping the configured
    /// [`Limits`]. Everything per-document resets: the cumulative input
    /// budget (`max_input_bytes` counts from zero again), the expansion
    /// budgets, the tokenizer's cross-chunk state, buffered bytes,
    /// positions, throughput counters, a latched terminal error, and a
    /// sink-requested stop.
    ///
    /// Without this, a reader reused across requests on one keep-alive
    /// connection keeps charging each request's bytes against the *same*
    /// cumulative budget: the Nth request is rejected with
    /// `InputTooLarge` even though each individual document is far under
    /// the ceiling.
    pub fn reset(&mut self) {
        *self = FeedReader::with_limits(self.limits.clone());
    }

    /// Appends a chunk and delivers every event it completes to
    /// `on_event`. Returns `Ok(true)` to keep feeding, `Ok(false)` if
    /// the sink stopped the stream, and `Err` on the first (terminal)
    /// parse error. An empty chunk is a no-op.
    pub fn feed<F>(&mut self, chunk: &[u8], mut on_event: F) -> Result<bool, ParseError>
    where
        F: FnMut(&BorrowedEvent<'_, '_>) -> bool,
    {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if self.stopped {
            return Ok(false);
        }
        self.total_bytes = self.total_bytes.saturating_add(chunk.len());
        if self.total_bytes > self.limits.max_input_bytes {
            let kind = ResourceErrorKind::InputTooLarge {
                limit: self.limits.max_input_bytes,
                actual: self.total_bytes,
            };
            limits::record_trip(&kind);
            return Err(self.latch(ParseErrorKind::Resource(kind)));
        }
        self.ingest(chunk)?;
        self.pump(false, &mut on_event)
    }

    /// Marks the end of input: delivers the remaining events (including
    /// `Eof`) and runs the end-of-document checks a whole-input reader
    /// would — a mid-token truncation is now a hard `UnexpectedEof`, an
    /// unterminated element a hard `UnclosedElements`. The reader stays
    /// usable for post-mortem queries ([`stats`](Self::stats),
    /// [`position`](Self::position)) afterwards; a second `finish` is a
    /// no-op (or re-reports the latched error).
    pub fn finish<F>(&mut self, mut on_event: F) -> Result<(), ParseError>
    where
        F: FnMut(&BorrowedEvent<'_, '_>) -> bool,
    {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if self.stopped {
            return Ok(());
        }
        if !self.utf8_tail.is_empty() {
            // the document ended inside a multi-byte sequence
            return Err(self.latch(ParseErrorKind::InvalidUtf8));
        }
        let result = self.pump(true, &mut on_event).map(|_| ());
        self.stopped = true;
        result
    }

    /// Stitches `chunk` onto the buffer, carrying an incomplete trailing
    /// UTF-8 sequence (at most 3 bytes) over to the next call.
    fn ingest(&mut self, chunk: &[u8]) -> Result<(), ParseError> {
        let mut rest = chunk;
        if !self.utf8_tail.is_empty() {
            // complete the pending sequence byte by byte: a UTF-8
            // character is at most 4 bytes, so this loop runs ≤ 3 times
            while !rest.is_empty() {
                self.utf8_tail.push(rest[0]);
                rest = &rest[1..];
                match std::str::from_utf8(&self.utf8_tail) {
                    Ok(s) => {
                        self.buf.push_str(s);
                        self.utf8_tail.clear();
                        break;
                    }
                    Err(e) if e.error_len().is_none() && self.utf8_tail.len() < 4 => continue,
                    Err(_) => return Err(self.latch(ParseErrorKind::InvalidUtf8)),
                }
            }
        }
        match std::str::from_utf8(rest) {
            Ok(s) => self.buf.push_str(s),
            Err(e) => {
                let valid = e.valid_up_to();
                self.buf
                    .push_str(std::str::from_utf8(&rest[..valid]).expect("validated prefix"));
                if e.error_len().is_some() {
                    return Err(self.latch(ParseErrorKind::InvalidUtf8));
                }
                self.utf8_tail.extend_from_slice(&rest[valid..]);
            }
        }
        Ok(())
    }

    /// Resumes the tokenizer over the buffered window and drains every
    /// completable event into `on_event`, then suspends and compacts.
    fn pump<F>(&mut self, at_end: bool, on_event: &mut F) -> Result<bool, ParseError>
    where
        F: FnMut(&BorrowedEvent<'_, '_>) -> bool,
    {
        let mut reader = Reader::resume(
            &self.buf,
            self.base,
            self.state.clone(),
            self.limits.clone(),
            !at_end,
        );
        let outcome = loop {
            let cp = reader.checkpoint();
            match reader.next_event_borrowed() {
                Ok(BorrowedEvent::Eof) => {
                    on_event(&BorrowedEvent::Eof);
                    break Pump::Done;
                }
                Ok(event) => {
                    if !on_event(&event) {
                        break Pump::Stopped;
                    }
                }
                Err(e) if matches!(e.kind, ParseErrorKind::NeedMoreData) => {
                    reader.rollback(cp);
                    break Pump::Suspended;
                }
                Err(e) => {
                    self.stats.absorb(reader.stats());
                    drop(reader);
                    self.error = Some(e.clone());
                    return Err(e);
                }
            }
        };
        // each resumed pass reports only its own delta; total them here
        self.stats.absorb(reader.stats());
        match outcome {
            Pump::Stopped | Pump::Done => {
                drop(reader);
                self.stopped = true;
                self.buf = String::new();
                self.utf8_tail = Vec::new();
                Ok(matches!(outcome, Pump::Done))
            }
            Pump::Suspended => {
                self.state = reader.suspend();
                let consumed = self.state.pos.offset - self.base;
                self.buf.drain(..consumed);
                self.base += consumed;
                Ok(true)
            }
        }
    }

    /// Records `kind` as the terminal error at the current position and
    /// returns it; every later `feed`/`finish` re-reports it.
    fn latch(&mut self, kind: ParseErrorKind) -> ParseError {
        let e = ParseError::new(kind, self.state.pos);
        self.error = Some(e.clone());
        e
    }
}

impl Default for FeedReader {
    fn default() -> Self {
        FeedReader::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reader;

    /// Every event (including `Eof`) of a whole-input parse, as its
    /// `Debug` rendering (a `Cow` prints the same borrowed or owned).
    fn whole_events(src: &str) -> Result<Vec<String>, ParseError> {
        let mut r = Reader::new(src);
        let mut out = Vec::new();
        loop {
            let e = r.next_event_borrowed()?;
            out.push(format!("{e:?}"));
            if matches!(e, BorrowedEvent::Eof) {
                return Ok(out);
            }
        }
    }

    /// Every event of a chunked parse over `chunks`, rendered likewise.
    fn feed_events(chunks: &[&[u8]]) -> Result<Vec<String>, ParseError> {
        let mut out = Vec::new();
        let mut feeder = FeedReader::new();
        for chunk in chunks {
            feeder.feed(chunk, |e| {
                out.push(format!("{e:?}"));
                true
            })?;
        }
        feeder.finish(|e| {
            out.push(format!("{e:?}"));
            true
        })?;
        Ok(out)
    }

    /// Chunked parse at a fixed chunk size must equal the whole-input
    /// parse event-for-event — text, spans, positions.
    fn assert_split_equals_whole(src: &str, size: usize) {
        let whole = whole_events(src).expect("whole parse");
        let chunks: Vec<&[u8]> = src.as_bytes().chunks(size).collect();
        let fed = feed_events(&chunks).expect("chunked parse");
        assert_eq!(fed, whole, "chunk size {size} diverged on:\n{src}");
    }

    const DOC: &str = "<?xml version=\"1.0\"?><!-- head -->\n<order date=\"2024-01-01\">\n  <item qty=\"1 &amp; 2\">caf\u{e9} &lt;3</item>\n  <note><![CDATA[a ]] b ]]]></note>\n  <?track a?><empty/>\n</order>";

    #[test]
    fn every_chunk_size_matches_whole_input() {
        for size in 1..=DOC.len() {
            assert_split_equals_whole(DOC, size);
        }
    }

    #[test]
    fn crlf_documents_survive_any_split() {
        // \r\n pairs and lone \r straddling chunk edges still normalize
        // and count lines exactly like the whole-input parse
        let src = "<a v=\"x\r\ny\">l1\r\nl2\rl3<b>inner</b>\r</a>";
        for size in 1..=src.len() {
            assert_split_equals_whole(src, size);
        }
    }

    #[test]
    fn delimiters_split_across_chunks() {
        // cut exactly inside "-->", "]]>", "?>", "<![CDATA[", "</", "/>"
        let src = "<a><!--c--><![CDATA[x]]><?p d?><e/></a>";
        for size in 1..=src.len() {
            assert_split_equals_whole(src, size);
        }
    }

    #[test]
    fn multibyte_utf8_split_across_chunks() {
        let src = "<a>\u{20AC}\u{1F600}\u{e9}</a>"; // 3-, 4-, 2-byte sequences
        for size in 1..=src.len() {
            assert_split_equals_whole(src, size);
        }
    }

    #[test]
    fn invalid_utf8_is_reported() {
        let mut feeder = FeedReader::new();
        let err = feeder.feed(b"<a>\xFF</a>", |_| true).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::InvalidUtf8));
        // latched: the next feed re-reports
        let err = feeder.feed(b"<b/>", |_| true).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::InvalidUtf8));
    }

    #[test]
    fn truncated_multibyte_at_finish_is_invalid() {
        let mut feeder = FeedReader::new();
        feeder.feed(b"<a>\xE2\x82", |_| true).unwrap(); // half a €
        let err = feeder.finish(|_| true).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::InvalidUtf8));
    }

    #[test]
    fn truncated_document_fails_at_finish() {
        let mut feeder = FeedReader::new();
        feeder.feed(b"<a><b>text", |_| true).unwrap();
        let err = feeder.finish(|_| true).unwrap_err();
        assert!(
            matches!(err.kind, ParseErrorKind::UnclosedElements(ref v) if v == &["a", "b"]),
            "{err}"
        );
    }

    #[test]
    fn truncated_tag_fails_at_finish() {
        let mut feeder = FeedReader::new();
        feeder.feed(b"<a><b attr=\"v", |_| true).unwrap();
        let err = feeder.finish(|_| true).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedEof { .. }));
    }

    #[test]
    fn empty_input_reports_no_root() {
        let err = feed_events(&[]).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::NoRootElement));
    }

    #[test]
    fn malformed_document_fails_mid_feed() {
        let mut feeder = FeedReader::new();
        let err = feeder
            .feed(b"<a></b>", |_| true)
            .expect_err("mismatch must surface");
        assert!(matches!(err.kind, ParseErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn sink_stop_discards_the_rest() {
        let mut feeder = FeedReader::new();
        let cont = feeder.feed(b"<a><b/><c/></a>", |_| false).unwrap();
        assert!(!cont);
        assert_eq!(feeder.buffered_bytes(), 0);
        assert!(!feeder.feed(b"more", |_| true).unwrap());
        feeder.finish(|_| panic!("no events after stop")).unwrap();
    }

    #[test]
    fn cumulative_input_budget_trips_across_chunks() {
        let mut feeder = FeedReader::with_limits(Limits::unbounded().with_max_input_bytes(10));
        feeder.feed(b"<a>12345", |_| true).unwrap();
        let err = feeder.feed(b"678</a>", |_| true).unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Resource(ResourceErrorKind::InputTooLarge {
                limit: 10,
                actual: 15
            })
        ));
    }

    #[test]
    fn buffer_stays_bounded_by_token_size() {
        // stream many small elements; the buffer must track the largest
        // unconsumed token, not the document
        let mut feeder = FeedReader::new();
        feeder.feed(b"<list>", |_| true).unwrap();
        for i in 0..1000 {
            let item = format!("<i n=\"{i}\">value {i}</i>");
            feeder.feed(item.as_bytes(), |_| true).unwrap();
            assert!(
                feeder.buffered_bytes() < 64,
                "buffer grew to {} at item {i}",
                feeder.buffered_bytes()
            );
        }
        feeder.feed(b"</list>", |_| true).unwrap();
        feeder.finish(|_| true).unwrap();
    }

    #[test]
    fn reset_rearms_the_cumulative_budgets() {
        // regression: a reader reused across keep-alive requests used to
        // keep charging every request against one cumulative budget, so
        // documents individually under the ceiling were rejected once
        // their *total* crossed it
        let doc = b"<a>0123456789</a>"; // 17 bytes, under the 24-byte cap
        let mut feeder = FeedReader::with_limits(Limits::unbounded().with_max_input_bytes(24));
        // first request's body parses fine; no `finish` — the reader sits
        // suspended between requests, as a reused connection buffer would
        feeder.feed(doc, |_| true).unwrap();
        // without reset the second document's bytes are charged against
        // the same cumulative budget and trip it, even though each
        // document alone is well under the ceiling
        let err = feeder.feed(doc, |_| true).unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Resource(ResourceErrorKind::InputTooLarge { limit: 24, .. })
        ));
        // reset clears the latched error and re-arms the byte budget; the
        // same document now parses clean, repeatedly
        for _ in 0..3 {
            feeder.reset();
            assert_eq!(feeder.buffered_bytes(), 0);
            assert_eq!(feeder.position(), xmlchars::Position::START);
            let events = {
                let mut out = Vec::new();
                feeder
                    .feed(doc, |e| {
                        out.push(format!("{e:?}"));
                        true
                    })
                    .unwrap();
                feeder.finish(|_| true).unwrap();
                out
            };
            assert_eq!(
                events,
                whole_events("<a>0123456789</a>").unwrap()[..events.len()]
            );
        }
    }

    #[test]
    fn reset_rearms_after_a_sink_stop_and_expansion_budget() {
        let mut feeder = FeedReader::with_limits(Limits::unbounded().with_max_entity_expansions(4));
        // stop the sink mid-document: further feeds are ignored…
        assert!(!feeder.feed(b"<a><b/></a>", |_| false).unwrap());
        assert!(!feeder.feed(b"<c/>", |_| true).unwrap());
        // …until a reset re-opens the stream
        feeder.reset();
        feeder.feed(b"<a>&amp;&lt;&gt;", |_| true).unwrap();
        feeder.reset();
        // the expansion count restarts at zero: 3 references fit again
        feeder.feed(b"<a>&amp;&lt;&gt;</a>", |_| true).unwrap();
        feeder.finish(|_| true).unwrap();
    }

    #[test]
    fn positions_are_document_absolute() {
        let mut feeder = FeedReader::new();
        let mut last_line = 0;
        for chunk in [&b"<a>\n\n\n"[..], &b"<b/>"[..], &b"\n</a>"[..]] {
            feeder
                .feed(chunk, |e| {
                    if let BorrowedEvent::StartElement { name, span, .. } = e {
                        if *name == "b" {
                            last_line = span.start.line;
                        }
                    }
                    true
                })
                .unwrap();
        }
        feeder.finish(|_| true).unwrap();
        assert_eq!(last_line, 4);
    }

    #[test]
    fn expansion_budget_spans_chunks() {
        // 5 references per chunk; the cumulative count must trip
        let mut feeder = FeedReader::with_limits(Limits::unbounded().with_max_entity_expansions(8));
        feeder.feed(b"<a>", |_| true).unwrap();
        feeder.feed("&amp;".repeat(5).as_bytes(), |_| true).unwrap();
        feeder.feed(b"<x/>", |_| true).unwrap(); // flushes the text run
        let mut result = feeder.feed("&amp;".repeat(5).as_bytes(), |_| true);
        if result.is_ok() {
            // the run is still buffered; its completion trips the budget
            result = feeder.feed(b"</a>", |_| true);
        }
        let err = result.unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Resource(ResourceErrorKind::TooManyExpansions { limit: 8 })
        ));
    }
}
