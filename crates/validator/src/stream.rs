//! The validation engine. [`StreamingValidator`] is the one place the
//! schema's rules are stated: it consumes element events — start (name,
//! attributes, span), text, end — and checks attributes at element open,
//! steps the parent's content DFA per child, checks text placement per
//! text run, and checks buffered simple values at element close.
//!
//! Two event sources drive it:
//!
//! * the pull parser's zero-copy events, via [`StreamingValidator::feed`]
//!   and the `validate_*_streaming` entry points, without ever
//!   materializing a [`dom::Document`];
//! * a walk over a [`dom::Document`], for
//!   [`validate_document`](crate::validate_document) and the patch
//!   rechecks of [`crate::patch`]. The walk keeps an explicit stack, so
//!   tree depth costs heap, not call stack, and its text events borrow
//!   the document's strings.
//!
//! Both sources produce the same error list (kinds *and* spans) for a
//! parsed document; `tests/tests/streaming_prop.rs` and
//! `tests/tests/zero_copy_prop.rs` hold this differentially. Nodes built
//! programmatically carry no span, so their errors have none.
//!
//! The validator keeps only a stack of open-element frames: element
//! name, start span, and either a content-model DFA matcher (complex
//! content) or a text buffer plus the simple-type plan it is checked
//! against (simple content). Memory is O(depth + deepest buffered leaf
//! text), so arbitrarily long documents validate in constant space.
//!
//! A subtree that cannot be checked (undeclared child or root, abstract
//! root, child of simple content, unusable content plan) has no frames:
//! one counter holds how many elements are open inside it. Its starts
//! and ends only move the counter, with no name lookup, and its text only
//! feeds an enclosing simple element's value, so a hostile subtree costs
//! O(1) memory and O(1) work per event however deep it nests.
//!
//! The parser path is **allocation-free and lock-free**: the schema's
//! precomputed [`SymIndex`] resolves a child element in one step,
//! [`SymIndex::child_named`], which finds the parent type's child table
//! by its integer key and compares the tag's bytes with the names there,
//! answering the child's symbol and [`ElemPlan`] together; only the root
//! element's name is hashed, once per document. The content DFA steps by
//! that symbol (a name the type admits no plan for takes the string
//! step, which reports the rich error); attribute values and leaf text are
//! checked against simple-type plans resolved when the index was built,
//! and leaf text buffers as a borrowed slice of the source. The global
//! symbol table is read only to spell a name into an error. For a valid,
//! entity-free document nothing is copied or allocated between the start
//! tag and the error check — `tests/tests/alloc_smoke.rs` holds this at
//! exactly zero allocations per event, typed values included.

use std::borrow::Cow;

use automata::{DfaMatcher, Matcher};
use dom::{Document, NodeId, NodeKind, NodeView};
use limits::Limits;
use schema::{CompiledSchema, ContentPlan, ElemPlan, RootPlan, SimpleCheck, SymIndex};
use symbols::Sym;
use xmlchars::{is_xml_whitespace, Span};
use xmlparse::{BorrowedEvent, FeedReader, ParseError, ParseErrorKind, Reader};

use crate::error::{ValidationError, ValidationErrorKind};
use crate::{check_attributes_declared, check_simple_text, parsed_span, AttrView};

/// Buffered character data of a simple-content frame. Starts borrowing
/// the source; promotes to an owned buffer only when a second text run
/// arrives (split by a comment, PI, CDATA boundary, or a skipped child)
/// or when the text itself needed entity expansion.
enum TextBuf<'src> {
    Empty,
    Borrowed(&'src str),
    Owned(String),
}

impl<'src> TextBuf<'src> {
    fn as_str(&self) -> &str {
        match self {
            TextBuf::Empty => "",
            TextBuf::Borrowed(s) => s,
            TextBuf::Owned(s) => s,
        }
    }

    fn push(&mut self, run: TextRun<'src, '_>) {
        match self {
            TextBuf::Empty => {
                *self = match run {
                    TextRun::Zero(Cow::Borrowed(s)) => TextBuf::Borrowed(s),
                    TextRun::Zero(Cow::Owned(s)) => TextBuf::Owned(s),
                    TextRun::Copy(s) => TextBuf::Owned(s.to_string()),
                }
            }
            TextBuf::Borrowed(prev) => {
                let run = run.as_str();
                let mut s = String::with_capacity(prev.len() + run.len());
                s.push_str(prev);
                s.push_str(run);
                *self = TextBuf::Owned(s);
            }
            TextBuf::Owned(buf) => buf.push_str(run.as_str()),
        }
    }
}

/// One text run on its way into the validator: a `Cow` that lives as
/// long as the validator (source or document text, storable as-is), or a
/// transient borrow from a chunk window (copied only if a simple-content
/// frame actually buffers it).
enum TextRun<'src, 't> {
    Zero(Cow<'src, str>),
    Copy(&'t str),
}

impl TextRun<'_, '_> {
    fn as_str(&self) -> &str {
        match self {
            TextRun::Zero(c) => c,
            TextRun::Copy(s) => s,
        }
    }
}

/// An open-element frame: the two checked regimes for an element's
/// content. Frames carry their name as an interned symbol — every checked
/// element is declared somewhere in the schema and therefore interned at
/// index build time. Skipped subtrees have no frames. Spans are `None`
/// for programmatic nodes.
enum Frame<'a, 'src> {
    /// Complex element-only or mixed content: child names step a DFA.
    Complex {
        name: Sym,
        /// The complex type's interned name — the key for child plan
        /// lookups.
        type_sym: Sym,
        matcher: DfaMatcher,
        mixed: bool,
        /// Cleared by the first failed DFA step; suppresses the
        /// close-time completeness check.
        content_ok: bool,
        span: Option<Span>,
    },
    /// Simple-typed content: text buffers until the close tag, then
    /// validates (whitespace → built-in → facets) in one shot.
    Simple {
        name: Sym,
        /// The simple type to check the text against at close, borrowed
        /// from the schema's plan.
        check: &'a SimpleCheck,
        text: TextBuf<'src>,
        span: Option<Span>,
    },
}

/// An incremental validator over element events.
///
/// Feed the parser's zero-copy events via [`feed`](Self::feed); collect
/// the violations with [`finish`](Self::finish) (or inspect them
/// mid-stream with [`errors`](Self::errors)). The event source is
/// typically [`xmlparse::Reader`]; [`validate_str_streaming`] wires the
/// two together.
///
/// `'src` is the source buffer the events borrow; buffered leaf text
/// keeps borrowing it.
pub struct StreamingValidator<'a, 'src> {
    /// The schema's precomputed symbol-keyed dispatch plans.
    index: &'a SymIndex,
    stack: Vec<Frame<'a, 'src>>,
    /// Elements open inside the outermost skipped subtree. Skipped
    /// elements nest only inside each other, so they are always the
    /// innermost open elements and need no frames.
    skip: usize,
    errors: Vec<ValidationError>,
    saw_root: bool,
    /// Deepest element nesting seen (observability; histogram-recorded
    /// when the stream finishes).
    max_depth: usize,
    /// The collection-side budgets this validator enforces: the error
    /// cap after every event, deadline/cancellation before every event
    /// (only when [`Limits::has_clock`] — otherwise the clock is never
    /// read).
    limits: Limits,
    /// Set once a budget trips; all further events are ignored and the
    /// error list ends with its [`ValidationErrorKind::Resource`] marker.
    tripped: bool,
    /// Events seen since the last clock read; see
    /// [`CLOCK_STRIDE`](Self::CLOCK_STRIDE).
    clock_events: u32,
}

impl<'a, 'src> StreamingValidator<'a, 'src> {
    /// A validator with an empty stack, ready for a document's events,
    /// under the resource budget `limits`, reading the schema's
    /// [`SymIndex`]. The validator enforces the collection-side budgets
    /// (`max_errors`, deadline, cancellation); the parse-side budgets
    /// belong to [`xmlparse::Reader::with_limits`]. [`Limits::default`]'s
    /// ceilings are far above anything a legitimate document produces, so
    /// results under it are byte-identical to an unbounded run.
    pub fn new(compiled: &'a CompiledSchema, limits: Limits) -> StreamingValidator<'a, 'src> {
        StreamingValidator {
            index: compiled.sym_index(),
            stack: Vec::new(),
            skip: 0,
            errors: Vec::new(),
            saw_root: false,
            max_depth: 0,
            limits,
            tripped: false,
            clock_events: 0,
        }
    }

    /// Consumes one zero-copy event. Buffered leaf text borrows the
    /// source (`'src`) instead of being copied. Events must arrive in the
    /// order the reader produced them; `Eof` is accepted and ignored.
    /// Once a budget trips ([`tripped`](Self::tripped)), events are
    /// discarded.
    pub fn feed(&mut self, event: BorrowedEvent<'src, '_>) {
        // the element and text events dispatch here directly: routing them
        // through `feed_transient` measurably slows the hot path
        match event {
            BorrowedEvent::StartElement {
                name,
                attributes,
                span,
                ..
            } => self.step(Some(span), |v| v.on_start(name, attributes, Some(span))),
            BorrowedEvent::EndElement { span, .. } => self.step(Some(span), Self::on_end),
            BorrowedEvent::Text { text, span } => {
                self.step(Some(span), |v| v.on_text(TextRun::Zero(text), Some(span)))
            }
            event => self.feed_transient(&event),
        }
    }

    /// [`feed`](Self::feed) for an event whose source does *not* outlive
    /// the validator — the chunked path, where events borrow a window
    /// that mutates between chunks. Leaf text of simple-content frames is
    /// copied when buffered; everything else stays allocation-free. The
    /// two cannot be one method: storing a borrowed text run needs it to
    /// live for `'src`, and a window event's text does not.
    fn feed_transient(&mut self, event: &BorrowedEvent<'_, '_>) {
        let span = match event {
            BorrowedEvent::StartElement { span, .. }
            | BorrowedEvent::EndElement { span, .. }
            | BorrowedEvent::Text { span, .. }
            | BorrowedEvent::Comment { span, .. }
            | BorrowedEvent::ProcessingInstruction { span, .. } => Some(*span),
            BorrowedEvent::Eof => None,
        };
        self.step(span, |v| match event {
            BorrowedEvent::StartElement {
                name, attributes, ..
            } => v.on_start(name, attributes, span),
            BorrowedEvent::EndElement { .. } => v.on_end(),
            BorrowedEvent::Text { text, .. } => v.on_text(TextRun::Copy(text), span),
            // comments and PIs are always permitted
            _ => {}
        });
    }

    /// Walks the subtrees rooted at `nodes`, in order, as events: a start
    /// per element, a text event per text node (the text borrowed from
    /// `doc`), an end per element. Comments and PIs are skipped, as in
    /// the parsed stream; spans follow [`node_span`](crate::node_span),
    /// read with the kind and children in one lookup per node. Iterative:
    /// the `open` stack holds one sibling cursor per open element.
    pub(crate) fn walk(&mut self, doc: &'src Document, nodes: &[NodeId]) {
        let mut open = vec![nodes.iter()];
        while let Some(siblings) = open.last_mut() {
            match siblings.next() {
                Some(&node) => match doc.view(node) {
                    Ok(NodeView {
                        kind: NodeKind::Element { name, attributes },
                        span,
                        children,
                    }) => {
                        let span = parsed_span(span);
                        self.step(span, |v| v.on_start(name, attributes, span));
                        open.push(children.iter());
                    }
                    Ok(NodeView {
                        kind: NodeKind::Text(text),
                        span,
                        ..
                    }) => {
                        let span = parsed_span(span);
                        self.step(span, |v| {
                            v.on_text(TextRun::Zero(Cow::Borrowed(text.as_str())), span)
                        });
                    }
                    _ => {}
                },
                None => {
                    open.pop();
                    if !open.is_empty() {
                        self.step(None, Self::on_end);
                    }
                }
            }
            if self.tripped {
                return;
            }
        }
    }

    /// Runs one event's checks between the budget gate and the error
    /// cap; every event source goes through here.
    fn step(&mut self, span: Option<Span>, checks: impl FnOnce(&mut Self)) {
        if self.gate(span) {
            return;
        }
        checks(self);
        self.enforce_error_cap();
    }

    /// How many events may pass between clock reads when a deadline or
    /// cancel token is set. Power of two; at streaming throughput this
    /// bounds expiry-detection latency to microseconds while keeping the
    /// `Instant::now()` syscall off all but 1/32 of event gates (B11's
    /// `*-deadline` rows measure exactly this trade).
    const CLOCK_STRIDE: u32 = 32;

    /// The per-event budget gate: `true` means drop the event. Reads the
    /// clock only when the budget actually carries a deadline or token —
    /// and then only every [`CLOCK_STRIDE`](Self::CLOCK_STRIDE)th event,
    /// starting with the first — so the default hot path costs two
    /// predictable branches.
    fn gate(&mut self, span: Option<Span>) -> bool {
        if self.tripped {
            return true;
        }
        if self.limits.has_clock() {
            let due = self.clock_events & (Self::CLOCK_STRIDE - 1) == 0;
            self.clock_events = self.clock_events.wrapping_add(1);
            if due {
                if let Some(kind) = self.limits.expired_kind() {
                    limits::record_trip(&kind);
                    self.errors.push(ValidationError::at_opt(
                        ValidationErrorKind::Resource(kind),
                        span,
                    ));
                    self.tripped = true;
                    return true;
                }
            }
        }
        false
    }

    /// Applies `max_errors` after an event's checks ran: the list is cut
    /// to the exact prefix an unbounded run would have started with, plus
    /// one [`ValidationErrorKind::Resource`] marker carrying the span of
    /// the first suppressed error.
    fn enforce_error_cap(&mut self) {
        if !self.tripped && crate::cap_errors(&mut self.errors, &self.limits) {
            self.tripped = true;
        }
    }

    /// Whether a resource budget has tripped; once `true`, further events
    /// are ignored and the error list is final apart from metrics flushes.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// The violations found so far.
    pub fn errors(&self) -> &[ValidationError] {
        &self.errors
    }

    /// Number of violations found so far — the cheap mid-stream abort
    /// check (no error list is cloned or drained).
    pub fn error_count(&self) -> usize {
        self.errors.len()
    }

    /// Number of currently open elements, skipped ones included.
    pub fn depth(&self) -> usize {
        self.stack.len() + self.skip
    }

    /// Deepest element nesting seen so far — the number the per-document
    /// wide event and the `validator_stream_max_depth` histogram report.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Finishes the document and returns all violations. Reports
    /// [`ValidationErrorKind::NoRootElement`] if no element was ever fed.
    /// A tripped stream skips that check — the budget stopped the run, so
    /// "no root seen" proves nothing.
    pub fn finish(mut self) -> Vec<ValidationError> {
        self.check_root_seen();
        self.flush_metrics();
        self.errors
    }

    /// Abandons the stream, keeping the violations found so far.
    pub fn into_errors(self) -> Vec<ValidationError> {
        self.flush_metrics();
        self.errors
    }

    fn check_root_seen(&mut self) {
        if !self.saw_root && !self.tripped {
            self.errors
                .push(ValidationError::nowhere(ValidationErrorKind::NoRootElement));
        }
    }

    /// Records this stream's error population and depth once, at the
    /// terminal call ([`finish`](Self::finish) / [`into_errors`](Self::into_errors)
    /// — both consume the validator, so this cannot double-count).
    fn flush_metrics(&self) {
        if !obs::enabled() {
            return;
        }
        crate::record_errors("streaming", &self.errors);
        obs::metrics()
            .histogram(
                "validator_stream_max_depth",
                "Deepest element nesting per streamed document.",
                obs::DEPTH_BUCKETS,
            )
            .observe(self.max_depth as f64);
    }

    fn on_start<A: AttrView>(&mut self, name: &str, attributes: &[A], span: Option<Span>) {
        // documents name only what the schema declares (plus hostile
        // noise); a name outside the index cannot be valid anywhere, and
        // the frozen table never grows, so attacker input stays O(1)
        let index = self.index;
        if self.skip > 0 {
            self.skip += 1;
        } else if let Some(parent) = self.stack.last_mut() {
            match parent {
                Frame::Complex {
                    name: parent_name,
                    type_sym,
                    matcher,
                    content_ok,
                    ..
                } => {
                    // a name without a plan here takes the string step,
                    // which still advances a model that has the name
                    let child = index.child_named(*type_sym, name);
                    if *content_ok && !child.is_some_and(|(s, _)| matcher.try_step_sym(s)) {
                        // the cold path: re-step by string for the rich
                        // error (a failed step leaves the state unchanged,
                        // so the re-step sees the exact same state)
                        if let Err(e) = matcher.step(name) {
                            *content_ok = false;
                            self.errors.push(ValidationError::at_opt(
                                ValidationErrorKind::UnexpectedChild {
                                    parent: symbols::name(*parent_name).to_string(),
                                    child: name.to_string(),
                                    expected: e.expected,
                                },
                                span,
                            ));
                        }
                    }
                    // enter declared children regardless, so nested errors
                    // surface too; undeclared ones were just reported
                    match child {
                        Some((s, plan)) => self.open(s, plan, attributes, span),
                        None => self.skip = 1,
                    }
                }
                Frame::Simple {
                    name: parent_name, ..
                } => {
                    self.errors.push(ValidationError::at_opt(
                        ValidationErrorKind::UnexpectedChild {
                            parent: symbols::name(*parent_name).to_string(),
                            child: name.to_string(),
                            expected: Vec::new(),
                        },
                        span,
                    ));
                    self.skip = 1;
                }
            }
        } else {
            self.saw_root = true;
            let sym = index.sym(name);
            match sym.and_then(|s| index.root(s).map(|p| (s, p))) {
                Some((_, RootPlan::Abstract)) => {
                    self.errors.push(ValidationError::at_opt(
                        ValidationErrorKind::AbstractElement(name.to_string()),
                        span,
                    ));
                    self.skip = 1;
                }
                Some((s, RootPlan::Elem(plan))) => self.open(s, plan, attributes, span),
                None => {
                    self.errors.push(ValidationError::at_opt(
                        ValidationErrorKind::UndeclaredRoot(name.to_string()),
                        span,
                    ));
                    self.skip = 1;
                }
            }
        }
        self.max_depth = self.max_depth.max(self.depth());
    }

    /// Runs the element-open checks (abstract type, attributes) against a
    /// precomputed plan and pushes the frame.
    fn open<A: AttrView>(
        &mut self,
        name: Sym,
        plan: &'a ElemPlan,
        attributes: &[A],
        span: Option<Span>,
    ) {
        if let Some(type_name) = &plan.abstract_type {
            self.errors.push(ValidationError::at_opt(
                ValidationErrorKind::AbstractType(type_name.clone()),
                span,
            ));
        }
        check_attributes_declared(
            || symbols::name(name).to_string(),
            attributes,
            &plan.attrs,
            span,
            &mut self.errors,
        );
        let frame = match &plan.content {
            ContentPlan::Simple(check) => Frame::Simple {
                name,
                check,
                text: TextBuf::Empty,
                span,
            },
            ContentPlan::Complex {
                type_sym,
                dfa,
                mixed,
            } => Frame::Complex {
                name,
                type_sym: *type_sym,
                matcher: dfa.start(),
                mixed: *mixed,
                content_ok: true,
                span,
            },
        };
        self.stack.push(frame);
    }

    fn on_text(&mut self, text: TextRun<'src, '_>, span: Option<Span>) {
        // The top frame decides: inside a skipped subtree it still buffers
        // simple content (a simple element's value is all its descendant
        // text) but checks no text placement. Prolog/epilog text meets no
        // frame.
        match self.stack.last_mut() {
            Some(Frame::Simple { text: buffer, .. }) => buffer.push(text),
            Some(Frame::Complex {
                name, mixed: false, ..
            }) if self.skip == 0 && !text.as_str().chars().all(is_xml_whitespace) => {
                let element = symbols::name(*name).to_string();
                self.errors.push(ValidationError::at_opt(
                    ValidationErrorKind::TextNotAllowed { element },
                    span,
                ));
            }
            _ => {}
        }
    }

    fn on_end(&mut self) {
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        let frame = match self.stack.pop() {
            Some(f) => f,
            // unmatched end tag: the reader rejects this before we see it
            None => return,
        };
        match frame {
            Frame::Simple {
                name,
                check,
                text,
                span,
            } => {
                check_simple_text(
                    || symbols::name(name).to_string(),
                    check,
                    text.as_str(),
                    span,
                    &mut self.errors,
                );
            }
            Frame::Complex {
                name,
                matcher,
                content_ok,
                span,
                ..
            } => {
                if content_ok && !matcher.is_accepting() {
                    self.errors.push(ValidationError::at_opt(
                        ValidationErrorKind::IncompleteContent {
                            element: symbols::name(name).to_string(),
                            expected: matcher.expected(),
                        },
                        span,
                    ));
                }
            }
        }
    }
}

/// Validates a whole tree by walking its root element into a validator
/// under `limits`. Returns the errors and whether a budget tripped.
/// Records no streaming metrics: the caller meters the run as a tree
/// validation.
pub(crate) fn walk_document(
    compiled: &CompiledSchema,
    doc: &Document,
    limits: &Limits,
) -> (Vec<ValidationError>, bool) {
    let mut v = StreamingValidator::new(compiled, limits.clone());
    if let Some(root) = doc.root_element() {
        v.walk(doc, std::slice::from_ref(&root));
    }
    v.check_root_seen();
    (v.errors, v.tripped)
}

/// The errors of the element subtree at `node` alone, walked into a
/// fresh unbounded validator. With a plan, `node` opens under it as the
/// element `sym` — a child whose parent's frame is not on the stack;
/// without one, `node` is dispatched as the document root.
pub(crate) fn check_subtree(
    compiled: &CompiledSchema,
    doc: &Document,
    node: NodeId,
    plan: Option<(Sym, &ElemPlan)>,
) -> Vec<ValidationError> {
    let mut v = StreamingValidator::new(compiled, Limits::unbounded());
    let Some((sym, plan)) = plan else {
        v.walk(doc, std::slice::from_ref(&node));
        return v.errors;
    };
    if let Ok(NodeView {
        kind: NodeKind::Element { attributes, .. },
        span,
        children,
    }) = doc.view(node)
    {
        v.open(sym, plan, attributes, parsed_span(span));
        v.walk(doc, children);
        v.on_end();
    }
    v.errors
}

/// Parses and validates `src` in one streaming pass, without building a
/// tree — end to end on the zero-copy path: borrowed events, symbol-keyed
/// dispatch, borrowed text buffers. Parse failures surface as a trailing
/// [`ValidationErrorKind::NotWellFormed`] after whatever violations the
/// valid prefix already produced.
///
/// `limits` is the resource budget: the reader enforces the parse-side
/// ceilings, the validator the collection-side ones, and a trip ends the
/// stream with a single [`ValidationErrorKind::Resource`] marker after
/// whatever errors the governed prefix already produced.
/// [`Limits::default`] is generous enough that legitimate documents
/// validate byte-identically to an unbounded run, tight enough that
/// hostile input is rejected in bounded time and memory.
pub fn validate_str_streaming(
    compiled: &CompiledSchema,
    src: &str,
    limits: &Limits,
) -> Vec<ValidationError> {
    let span = obs::span!("validate.stream");
    let (errors, tally) = validate_str_streaming_inner(compiled, src, limits);
    // one end-of-run clock read, shared by the trace record, the latency
    // histogram, and the wide event's total
    let elapsed = span.finish();
    record_stream_run("stream", elapsed, tally, &errors);
    errors
}

/// What a streaming run knew about its document besides the error list —
/// the raw material for its wide event, captured just before the reader
/// and validator are consumed.
struct DocTally {
    stats: xmlparse::ReaderStats,
    max_depth: u64,
}

fn validate_str_streaming_inner(
    compiled: &CompiledSchema,
    src: &str,
    limits: &Limits,
) -> (Vec<ValidationError>, DocTally) {
    let mut reader = Reader::with_limits(src, limits.clone());
    let mut validator = StreamingValidator::new(compiled, limits.clone());
    loop {
        let outcome = reader.next_event_borrowed();
        match outcome {
            Ok(BorrowedEvent::Eof) => {
                let tally = DocTally {
                    stats: reader.stats(),
                    max_depth: validator.max_depth() as u64,
                };
                return (validator.finish(), tally);
            }
            Ok(event) => {
                validator.feed(event);
                if validator.tripped() {
                    // the budget marker is already the last error; stop
                    // pulling events so a hostile tail costs nothing
                    let tally = DocTally {
                        stats: reader.stats(),
                        max_depth: validator.max_depth() as u64,
                    };
                    return (validator.into_errors(), tally);
                }
            }
            Err(e) => {
                let tally = DocTally {
                    stats: reader.stats(),
                    max_depth: validator.max_depth() as u64,
                };
                return (terminal_parse_error(validator, e), tally);
            }
        }
    }
}

/// Ends a streaming run on a fatal parse error: appends the terminal
/// error ([`parse_failure`]) to whatever violations the valid prefix
/// already produced. `into_errors()` has already flushed the validator's
/// own tallies; the synthesized terminal error must be recorded
/// separately or it would go unmetered.
fn terminal_parse_error(
    validator: StreamingValidator<'_, '_>,
    e: ParseError,
) -> Vec<ValidationError> {
    let mut errors = validator.into_errors();
    let terminal = parse_failure(e);
    crate::record_errors("streaming", std::slice::from_ref(&terminal));
    errors.push(terminal);
    errors
}

/// The error a fatal parse failure reports, whichever way the text came
/// in (streamed, or parsed into a tree for a session): a typed
/// `Resource` for a parse-side budget trip — the reader already counted
/// it — and `NotWellFormed` with the failure's kind otherwise, both at
/// the failure's position as a point span.
pub(crate) fn parse_failure(e: ParseError) -> ValidationError {
    let span = Span {
        start: e.position,
        end: e.position,
    };
    let kind = match e.kind {
        ParseErrorKind::Resource(kind) => ValidationErrorKind::Resource(kind),
        kind => ValidationErrorKind::NotWellFormed(kind.to_string()),
    };
    ValidationError::at(kind, span)
}

/// Validates input arriving as byte chunks — same checks, same error
/// list (kinds *and* spans) as [`validate_str_streaming`] over the
/// chunks' concatenation, but in memory bounded by element depth plus
/// one in-flight token: the chunked-parse path for documents larger
/// than memory. In `limits`, `max_input_bytes` governs the *cumulative*
/// fed byte count, so the budget holds even though no single chunk
/// exceeds it.
pub fn validate_chunks_streaming<'c>(
    compiled: &CompiledSchema,
    chunks: impl IntoIterator<Item = &'c [u8]>,
    limits: &Limits,
) -> Vec<ValidationError> {
    let span = obs::span!("validate.stream.chunks");
    let fed = validate_feed(compiled, limits, span, "stream.chunks", |push| {
        for chunk in chunks {
            if !push(chunk) {
                break;
            }
        }
        Ok::<(), std::convert::Infallible>(())
    });
    match fed {
        Ok(errors) => errors,
        Err(never) => match never {},
    }
}

/// Validates a byte stream pulled from `input` — [`validate_chunks_streaming`]
/// over the reader's own buffer, one chunk per `fill_buf`, so a
/// multi-gigabyte file (or socket) validates in O(depth) memory without
/// ever being resident or copied. Wrap a plain [`std::io::Read`] in
/// [`std::io::BufReader::with_capacity`] to choose the chunk size. I/O
/// errors are the caller's problem and propagate as `Err` (`Interrupted`
/// reads are retried); parse and validation problems come back in the
/// usual error list. `limits` governs as for [`validate_chunks_streaming`].
pub fn validate_read_streaming<R: std::io::BufRead>(
    compiled: &CompiledSchema,
    mut input: R,
    limits: &Limits,
) -> std::io::Result<Vec<ValidationError>> {
    let span = obs::span!("validate.stream.read");
    validate_feed(compiled, limits, span, "stream.read", |push| loop {
        let chunk = match input.fill_buf() {
            Ok([]) => return Ok(()),
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let (n, more) = (chunk.len(), push(chunk));
        input.consume(n);
        if !more {
            return Ok(());
        }
    })
}

/// The feed loop shared by the chunk and reader entry points: `source`
/// pushes byte chunks through one [`FeedReader`] into one validator
/// until it runs dry or `push` returns `false` (parse error or budget
/// trip). A source error ends the run unrecorded and is returned as is.
fn validate_feed<E>(
    compiled: &CompiledSchema,
    limits: &Limits,
    span: obs::SpanGuard,
    entry: &'static str,
    source: impl FnOnce(&mut dyn FnMut(&[u8]) -> bool) -> Result<(), E>,
) -> Result<Vec<ValidationError>, E> {
    let mut feeder = FeedReader::with_limits(limits.clone());
    let mut validator = StreamingValidator::new(compiled, limits.clone());
    let mut outcome: Result<bool, ParseError> = Ok(true);
    let mut sink = |event: &BorrowedEvent<'_, '_>| {
        validator.feed_transient(event);
        !validator.tripped()
    };
    source(&mut |chunk| {
        outcome = feeder.feed(chunk, &mut sink);
        matches!(outcome, Ok(true))
    })?;
    if let Ok(true) = outcome {
        outcome = feeder.finish(&mut sink).map(|_| true);
    }
    let tally = DocTally {
        stats: feeder.stats(),
        max_depth: validator.max_depth() as u64,
    };
    let errors = match outcome {
        // a completed document finishes the validator (root check
        // included), a stopped or tripped stream keeps what it found, a
        // parse error appends its terminal marker
        Ok(true) if !validator.tripped() => validator.finish(),
        Ok(_) => validator.into_errors(),
        Err(e) => terminal_parse_error(validator, e),
    };
    let elapsed = span.finish();
    record_stream_run(entry, elapsed, tally, &errors);
    Ok(errors)
}

/// The per-run observability flush shared by every streaming entry
/// point: latency histogram and rejection counter when metrics are on,
/// a per-document wide event when the flight recorder is on. `elapsed`
/// comes from the entry point's single span-finish clock read, so every
/// surface reports the same duration.
fn record_stream_run(
    entry: &'static str,
    elapsed: Option<std::time::Duration>,
    tally: DocTally,
    errors: &[ValidationError],
) {
    let limit_trips = errors
        .iter()
        .filter(|e| matches!(e.kind, ValidationErrorKind::Resource(_)))
        .count() as u64;
    if obs::enabled() {
        if let Some(elapsed) = elapsed {
            obs::metrics()
                .histogram(
                    "validator_stream_seconds",
                    "Streaming (parse + validate) latency per document.",
                    obs::DURATION_BUCKETS,
                )
                .observe_duration(elapsed);
        }
        if limit_trips > 0 {
            limits::record_rejected();
        }
    }
    if obs::trace::enabled() {
        let outcome = if limit_trips > 0 {
            obs::trace::Outcome::ResourceTripped
        } else if errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::NotWellFormed(_)))
        {
            obs::trace::Outcome::Malformed
        } else if !errors.is_empty() {
            obs::trace::Outcome::Invalid
        } else {
            obs::trace::Outcome::Valid
        };
        let total = elapsed.unwrap_or_default();
        obs::trace::record_wide_event(obs::trace::WideEvent {
            entry,
            bytes: tally.stats.bytes,
            events: tally.stats.events,
            max_depth: tally.max_depth,
            borrowed_events: tally.stats.borrowed_events,
            owned_events: tally.stats.owned_events,
            error_count: errors.len() as u64,
            limit_trips,
            outcome,
            // parse and validation are fused on the streaming path, so
            // the run is one phase; the trace tree has the fine structure
            phases: vec![(entry, total)],
            total,
            attrs: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_document;
    use limits::{CancelToken, ResourceErrorKind};
    use schema::corpus::{PURCHASE_ORDER_XML, PURCHASE_ORDER_XSD, WML_XSD};
    use std::time::{Duration, Instant};

    fn po() -> CompiledSchema {
        CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap()
    }

    fn wml() -> CompiledSchema {
        CompiledSchema::parse(WML_XSD).unwrap()
    }

    /// Both validators on the same source; asserts full agreement
    /// (kinds *and* spans) and returns the streaming list.
    fn both(compiled: &CompiledSchema, src: &str) -> Vec<ValidationError> {
        let streamed = validate_str_streaming(compiled, src, &Limits::default());
        let doc = xmlparse::parse_document(src).expect("well-formed test input");
        let treed = validate_document(compiled, &doc);
        assert_eq!(streamed, treed, "validators disagree on:\n{src}");
        streamed
    }

    #[test]
    fn paper_document_is_valid() {
        assert!(both(&po(), PURCHASE_ORDER_XML).is_empty());
    }

    #[test]
    fn mixed_content_allows_text() {
        let errors = both(
            &wml(),
            "<wml><card id=\"c\"><p>hello <b>bold</b> world<br/></p></card></wml>",
        );
        assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn wrong_child_order_detected() {
        let src = PURCHASE_ORDER_XML
            .replacen("<shipTo", "<billTo", 1)
            .replacen("</shipTo>", "</billTo>", 1);
        let errors = validate_str_streaming(&po(), &src, &Limits::default());
        assert!(errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::UnexpectedChild { .. })));
    }

    #[test]
    fn bad_simple_value_detected_with_position() {
        let src = PURCHASE_ORDER_XML.replace("<zip>90952</zip>", "<zip>not a number</zip>");
        let errors = both(&po(), &src);
        assert_eq!(errors.len(), 1, "{errors:#?}");
        assert!(matches!(
            errors[0].kind,
            ValidationErrorKind::SimpleType { .. }
        ));
        assert!(errors[0].span.unwrap().start.line > 1);
    }

    #[test]
    fn attribute_violations_detected() {
        let src = PURCHASE_ORDER_XML
            .replace("orderDate=\"1999-10-20\"", "orderDate=\"soon\" bogus=\"x\"")
            .replace("country=\"US\"", "country=\"DE\"")
            .replace(" partNum=\"872-AA\"", "");
        let errors = both(&po(), &src);
        for expect in [
            |k: &ValidationErrorKind| matches!(k, ValidationErrorKind::AttributeValue { .. }),
            |k: &ValidationErrorKind| matches!(k, ValidationErrorKind::UndeclaredAttribute { .. }),
            |k: &ValidationErrorKind| matches!(k, ValidationErrorKind::FixedAttribute { .. }),
            |k: &ValidationErrorKind| matches!(k, ValidationErrorKind::MissingAttribute { .. }),
        ] {
            assert!(errors.iter().any(|e| expect(&e.kind)), "{errors:#?}");
        }
    }

    #[test]
    fn incomplete_content_detected() {
        let src = PURCHASE_ORDER_XML.replacen("<zip>90952</zip>", "", 1);
        let errors = both(&po(), &src);
        assert!(errors.iter().any(|e| matches!(
            &e.kind,
            ValidationErrorKind::IncompleteContent { expected, .. }
                if expected.contains(&"zip".to_string())
        )));
    }

    #[test]
    fn text_in_element_only_content_detected() {
        let errors = both(&wml(), "<wml>stray<card id=\"c\"><p>fine</p></card></wml>");
        assert!(errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::TextNotAllowed { .. })));
    }

    #[test]
    fn undeclared_root_detected() {
        let errors = both(&po(), "<unknownRoot/>");
        assert!(matches!(
            errors[0].kind,
            ValidationErrorKind::UndeclaredRoot(_)
        ));
    }

    #[test]
    fn undeclared_subtree_consumed_without_validation() {
        // the bogus subtree is reported once at its open tag; its inner
        // garbage is not separately validated (same as the tree walk)
        let src = PURCHASE_ORDER_XML.replace(
            "<comment>Hurry, my lawn is going wild</comment>",
            "<bogus><zip>still not checked</zip></bogus>",
        );
        let errors = both(&po(), &src);
        assert_eq!(errors.len(), 1, "{errors:#?}");
        assert!(matches!(
            &errors[0].kind,
            ValidationErrorKind::UnexpectedChild { child, .. } if child == "bogus"
        ));
    }

    #[test]
    fn malformed_input_reported_not_well_formed() {
        let errors = validate_str_streaming(
            &po(),
            "<purchaseOrder><shipTo></purchaseOrder>",
            &Limits::default(),
        );
        assert!(matches!(
            errors.last().unwrap().kind,
            ValidationErrorKind::NotWellFormed(_)
        ));
    }

    #[test]
    fn duplicate_attributes_rejected_before_validation() {
        // duplicates are a well-formedness violation caught by the parser
        // (reader::DuplicateAttribute), so neither validator ever sees
        // them; the streaming entry point reports the rejection honestly
        let errors = validate_str_streaming(
            &po(),
            "<purchaseOrder orderDate=\"1999-10-20\" orderDate=\"1999-10-21\"/>",
            &Limits::default(),
        );
        assert!(matches!(
            &errors.last().unwrap().kind,
            ValidationErrorKind::NotWellFormed(m) if m.contains("duplicate attribute")
        ));
    }

    #[test]
    fn empty_input_reports_missing_root() {
        let errors = validate_str_streaming(&po(), "", &Limits::default());
        assert!(!errors.is_empty());
    }

    #[test]
    fn memory_is_bounded_by_depth_not_length() {
        // feed a long flat document event by event; the stack never grows
        // beyond the element depth
        let compiled = wml();
        let mut page = String::from("<wml><card id=\"c\"><p><select name=\"d\">");
        for i in 0..2000 {
            page.push_str(&format!("<option value=\"{i}\">o{i}</option>"));
        }
        page.push_str("</select></p></card></wml>");
        let mut v = StreamingValidator::new(&compiled, Limits::default());
        let mut max_depth = 0;
        feed_source(&mut v, &page, |v| max_depth = max_depth.max(v.depth()));
        assert!(max_depth <= 5, "depth grew to {max_depth}");
        assert!(v.finish().is_empty());
    }

    #[test]
    fn borrowed_and_transient_feeding_agree() {
        // the two feeding modes run the same machinery; hold them to the
        // same error list on a document that exercises every frame kind
        let compiled = po();
        let src = PURCHASE_ORDER_XML
            .replace("orderDate=\"1999-10-20\"", "orderDate=\"soon\"")
            .replace("<zip>90952</zip>", "<zip>nope</zip>");
        let borrowed = validate_str_streaming(&compiled, &src, &Limits::default());
        let mut reader = Reader::new(src.as_str());
        let mut v = StreamingValidator::new(&compiled, Limits::default());
        loop {
            match reader.next_event_borrowed().unwrap() {
                BorrowedEvent::Eof => break,
                event => v.feed_transient(&event),
            }
        }
        assert_eq!(v.finish(), borrowed);
    }

    #[test]
    fn error_count_tracks_errors_without_collecting() {
        let compiled = po();
        let mut v = StreamingValidator::new(&compiled, Limits::default());
        assert_eq!(v.error_count(), 0);
        let mut counts = Vec::new();
        feed_source(&mut v, "<purchaseOrder><junk/></purchaseOrder>", |v| {
            counts.push(v.error_count())
        });
        // <junk> is rejected at its start tag, the second event
        assert_eq!(counts, [0, 1, 1, 1], "{:#?}", v.errors());
        assert_eq!(v.error_count(), v.errors().len());
        assert_eq!(v.finish().len(), 1);
    }

    #[test]
    fn feed_and_errors_are_incremental() {
        let compiled = po();
        let mut v = StreamingValidator::new(&compiled, Limits::default());
        feed_source(&mut v, "<purchaseOrder><junk/></purchaseOrder>", |_| {});
        // <junk> rejected mid-stream, before finish()
        assert!(v
            .errors()
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::UnexpectedChild { .. })));
        v.finish();
    }

    /// Feeds every event of `src` through [`StreamingValidator::feed`],
    /// reporting the depth after each, and returns the validator unfinished.
    fn feed_source<'a, 'src>(
        v: &mut StreamingValidator<'a, 'src>,
        src: &'src str,
        mut after_each: impl FnMut(&StreamingValidator<'a, 'src>),
    ) {
        let mut reader = Reader::new(src);
        loop {
            match reader.next_event_borrowed().unwrap() {
                BorrowedEvent::Eof => break,
                event => {
                    v.feed(event);
                    after_each(v);
                }
            }
        }
    }

    /// A document producing a deterministic flood of validation errors:
    /// every `<item/>` is declared but missing its required `partNum`
    /// and its required children.
    fn error_flood(items: usize) -> String {
        let mut src = String::from("<purchaseOrder><items>");
        for _ in 0..items {
            src.push_str("<item/>");
        }
        src.push_str("</items></purchaseOrder>");
        src
    }

    #[test]
    fn default_budget_is_byte_identical_to_unbounded() {
        let compiled = po();
        for src in [
            PURCHASE_ORDER_XML.to_string(),
            PURCHASE_ORDER_XML.replace("<zip>90952</zip>", "<zip>x</zip>"),
            error_flood(20),
        ] {
            assert_eq!(
                validate_str_streaming(&compiled, &src, &Limits::unbounded()),
                validate_str_streaming(&compiled, &src, &Limits::default()),
                "default limits changed the verdict on:\n{src}"
            );
        }
    }

    #[test]
    fn error_cap_yields_exact_prefix_plus_marker() {
        let compiled = po();
        let src = error_flood(30);
        let unbounded = validate_str_streaming(&compiled, &src, &Limits::unbounded());
        assert!(unbounded.len() > 20, "flood too small: {}", unbounded.len());
        let capped = validate_str_streaming(&compiled, &src, &Limits::default().with_max_errors(8));
        assert_eq!(capped.len(), 9, "{capped:#?}");
        assert_eq!(&capped[..8], &unbounded[..8]);
        let marker = capped.last().unwrap();
        assert!(matches!(
            marker.kind,
            ValidationErrorKind::Resource(ResourceErrorKind::TooManyErrors { limit: 8 })
        ));
        // the marker sits where the first suppressed error would have
        assert_eq!(marker.span, unbounded[8].span);
    }

    #[test]
    fn fed_error_accumulation_is_capped() {
        let compiled = po();
        let src = error_flood(500);
        let mut v = StreamingValidator::new(&compiled, Limits::default().with_max_errors(8));
        feed_source(&mut v, &src, |_| {});
        assert!(v.tripped());
        assert_eq!(v.error_count(), 9, "{:#?}", v.errors());
        let errors = v.finish();
        assert_eq!(errors.len(), 9);
        assert!(matches!(
            errors.last().unwrap().kind,
            ValidationErrorKind::Resource(ResourceErrorKind::TooManyErrors { limit: 8 })
        ));
        // the list was cut as soon as the cap tripped; its backing
        // allocation never grew with the flood
        assert!(errors.capacity() <= 64, "capacity {}", errors.capacity());
    }

    #[test]
    fn past_deadline_trips_on_first_event() {
        let compiled = po();
        let budget = Limits::default().with_deadline(Instant::now() - Duration::from_millis(10));
        let errors = validate_str_streaming(&compiled, PURCHASE_ORDER_XML, &budget);
        assert_eq!(errors.len(), 1, "{errors:#?}");
        assert!(matches!(
            errors[0].kind,
            ValidationErrorKind::Resource(ResourceErrorKind::DeadlineExceeded)
        ));
        // anchored at the event that observed the expiry
        assert!(errors[0].span.is_some());
    }

    #[test]
    fn cancellation_stops_the_stream() {
        let compiled = po();
        let token = CancelToken::new();
        token.cancel();
        let budget = Limits::default().with_cancel_token(&token);
        let errors = validate_str_streaming(&compiled, PURCHASE_ORDER_XML, &budget);
        assert_eq!(errors.len(), 1, "{errors:#?}");
        assert!(matches!(
            errors[0].kind,
            ValidationErrorKind::Resource(ResourceErrorKind::Cancelled)
        ));
    }

    #[test]
    fn parser_budget_trip_surfaces_typed_not_as_well_formedness() {
        let compiled = po();
        let budget = Limits::default().with_max_depth(2);
        let errors = validate_str_streaming(&compiled, PURCHASE_ORDER_XML, &budget);
        let last = errors.last().unwrap();
        assert!(
            matches!(
                last.kind,
                ValidationErrorKind::Resource(ResourceErrorKind::DepthExceeded { limit: 2 })
            ),
            "{errors:#?}"
        );
        assert!(last.span.is_some());
        assert!(!errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::NotWellFormed(_))));
    }

    #[test]
    fn chunked_validation_matches_whole_input() {
        // every error list — kinds and spans — must be identical to the
        // whole-input run, whatever the chunk granularity
        let compiled = po();
        for src in [
            PURCHASE_ORDER_XML.to_string(),
            PURCHASE_ORDER_XML.replace("<zip>90952</zip>", "<zip>not a zip</zip>"),
            PURCHASE_ORDER_XML.replace("orderDate=\"1999-10-20\"", "orderDate=\"soon\""),
            error_flood(30),
        ] {
            let whole = validate_str_streaming(&compiled, &src, &Limits::default());
            for size in [1, 3, 7, 64, 4096] {
                let chunks: Vec<&[u8]> = src.as_bytes().chunks(size).collect();
                assert_eq!(
                    validate_chunks_streaming(&compiled, chunks, &Limits::default()),
                    whole,
                    "chunk size {size} diverged on:\n{src}"
                );
            }
        }
    }

    #[test]
    fn chunked_validation_reports_malformed_input() {
        let compiled = po();
        let src = "<purchaseOrder><shipTo></purchaseOrder>";
        let whole = validate_str_streaming(&compiled, src, &Limits::default());
        let chunks: Vec<&[u8]> = src.as_bytes().chunks(5).collect();
        assert_eq!(
            validate_chunks_streaming(&compiled, chunks, &Limits::default()),
            whole
        );
        // a truncated stream is an UnexpectedEof the whole-input parse
        // of the prefix would also report
        let errors = validate_chunks_streaming(
            &compiled,
            [&b"<purchaseOrder><shipTo"[..]],
            &Limits::default(),
        );
        assert!(matches!(
            errors.last().unwrap().kind,
            ValidationErrorKind::NotWellFormed(_)
        ));
    }

    #[test]
    fn read_streaming_matches_whole_input() {
        let compiled = po();
        let whole = validate_str_streaming(&compiled, PURCHASE_ORDER_XML, &Limits::default());
        let via_read =
            validate_read_streaming(&compiled, PURCHASE_ORDER_XML.as_bytes(), &Limits::default())
                .unwrap();
        assert_eq!(via_read, whole);
    }

    /// Replays a script of `read` outcomes: `Ok` chunks are served whole,
    /// errors are returned once each.
    struct ScriptedRead(std::collections::VecDeque<std::io::Result<&'static [u8]>>);

    impl std::io::Read for ScriptedRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Ok(chunk)) => {
                    assert!(chunk.len() <= buf.len());
                    buf[..chunk.len()].copy_from_slice(chunk);
                    Ok(chunk.len())
                }
                Some(Err(e)) => Err(e),
            }
        }
    }

    #[test]
    fn read_streaming_retries_interrupted_and_returns_other_io_errors() {
        use std::io::{BufReader, Error, ErrorKind};
        let compiled = po();
        let whole = validate_str_streaming(&compiled, PURCHASE_ORDER_XML, &Limits::default());
        let (head, tail) = PURCHASE_ORDER_XML.as_bytes().split_at(100);
        let interrupted = BufReader::new(ScriptedRead(
            [
                Err(Error::from(ErrorKind::Interrupted)),
                Ok(head),
                Err(Error::from(ErrorKind::Interrupted)),
                Ok(tail),
            ]
            .into(),
        ));
        assert_eq!(
            validate_read_streaming(&compiled, interrupted, &Limits::default()).unwrap(),
            whole
        );
        let broken = BufReader::new(ScriptedRead(
            [Ok(head), Err(Error::other("link down")), Ok(tail)].into(),
        ));
        let err = validate_read_streaming(&compiled, broken, &Limits::default()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Other);
        assert_eq!(err.to_string(), "link down");
    }

    #[test]
    fn chunked_input_budget_is_cumulative() {
        let compiled = po();
        let budget = Limits::default().with_max_input_bytes(64);
        let big = error_flood(100);
        let chunks: Vec<&[u8]> = big.as_bytes().chunks(16).collect();
        let errors = validate_chunks_streaming(&compiled, chunks, &budget);
        assert!(
            matches!(
                errors.last().unwrap().kind,
                ValidationErrorKind::Resource(ResourceErrorKind::InputTooLarge { limit: 64, .. })
            ),
            "{errors:#?}"
        );
    }

    #[test]
    fn tripped_stream_skips_missing_root_report() {
        let compiled = po();
        let token = CancelToken::new();
        token.cancel();
        let mut v = StreamingValidator::new(&compiled, Limits::default().with_cancel_token(&token));
        feed_source(&mut v, PURCHASE_ORDER_XML, |_| {});
        let errors = v.finish();
        // only the cancellation marker — no misleading NoRootElement
        assert_eq!(errors.len(), 1, "{errors:#?}");
        assert!(matches!(
            errors[0].kind,
            ValidationErrorKind::Resource(ResourceErrorKind::Cancelled)
        ));
    }
}
