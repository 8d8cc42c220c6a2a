//! `validate-stream`: bytes in, verdict out, through
//! `SchemaRegistry::validate_streaming` — no DOM, no socket.
//!
//! The traced run climbs a ladder over the same documents, each rung a
//! deeper public call, so a layer's self time is the difference between
//! adjacent rungs:
//!
//! - L0 `xmlparse::scan::scan_plain` over every byte;
//! - L1 drain `Reader::next_event_borrowed`;
//! - L2 L1 plus `symbols::lookup` and `SymIndex::root`/`child` dispatch;
//! - L3 L2 plus `ContentDfa::start` and `DfaMatcher::try_step_sym`;
//! - L4 `SchemaRegistry::validate_streaming`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use automata::DfaMatcher;
use schema::{CompiledSchema, ContentPlan, ElemPlan, RootPlan};
use symbols::Sym;
use validator::ValidationError;
use webgen::SchemaRegistry;
use xmlparse::{BorrowedEvent, Reader};

use crate::gen::{self, Doc, Scale};
use crate::measure::{ns_since, quantile, Minima, Outcome};
use crate::spans::{self, ItemMinima, Tracer};
use crate::Metric;

/// Rung span names, L0 to L4.
const RUNGS: [&str; 5] = [
    "xmlparse.scan",
    "xmlparse.reader",
    "schema.symtab",
    "automata.dfa",
    "validator.stream",
];

/// The corpus with each document's oracle-checked verdict.
pub struct ValidateStream {
    docs: Vec<Doc>,
    expected: Vec<Vec<ValidationError>>,
    bytes: usize,
}

/// Work counts of one pass over the corpus.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LadderCounts {
    /// Reader events.
    pub events: u64,
    /// Events that needed an owned copy (entities, CRLF).
    pub owned_events: u64,
    /// DFA steps taken at L3.
    pub dfa_steps: u64,
    /// Validation errors reported at L4.
    pub errors: u64,
}

impl ValidateStream {
    /// Generates the corpus for `seed` and fixes every document's
    /// verdict, checked against its generated expectation and against
    /// the tree engine (`parse_document` + `validate_document`).
    pub fn prepare(reg: &SchemaRegistry, seed: u64, scale: &Scale, outcome: &mut Outcome) -> Self {
        let docs = gen::stream_corpus(seed, scale);
        let mut expected = Vec::with_capacity(docs.len());
        for (i, doc) in docs.iter().enumerate() {
            let stream = reg
                .validate_streaming(doc.schema, &doc.text)
                .expect("corpus schemas are registered");
            let compiled = reg.get(doc.schema).expect("registered");
            let tree = match xmlparse::parse_document(&doc.text) {
                Ok(tree) => validator::validate_document(&compiled, &tree),
                Err(e) => {
                    outcome.check(false, || format!("doc {i}: tree parse failed: {e}"));
                    expected.push(stream);
                    continue;
                }
            };
            outcome.check(doc.expect.admits(&stream) && stream == tree, || {
                format!(
                    "doc {i}: expected {:?}, stream {:?}, tree {:?}",
                    doc.expect,
                    stream.first().map(|e| e.kind.label()),
                    tree.first().map(|e| e.kind.label())
                )
            });
            expected.push(stream);
        }
        let bytes = docs.iter().map(|d| d.text.len()).sum();
        ValidateStream {
            docs,
            expected,
            bytes,
        }
    }

    /// Number of timed items (documents).
    pub fn items(&self) -> usize {
        self.docs.len()
    }

    /// One round: every document validated once, each time folded into
    /// its minimum. With a tracer, each validation runs inside a span,
    /// and the time folded in includes the span's cost.
    pub fn round(
        &self,
        reg: &SchemaRegistry,
        minima: &mut Minima,
        outcome: &mut Outcome,
        mut tracer: Option<&mut Tracer>,
    ) {
        for (i, doc) in self.docs.iter().enumerate() {
            let start = Instant::now();
            let op = spans::new_op(&mut tracer);
            let errors = spans::maybe(&mut tracer, RUNGS[4], i, op, || {
                reg.validate_streaming(doc.schema, black_box(&doc.text))
            });
            minima.record(i, ns_since(start));
            outcome.check(errors.as_ref() == Some(&self.expected[i]), || {
                format!("doc {i}: verdict changed between rounds")
            });
        }
    }

    /// `ops_per_s`, `mib_per_s`, latency and open percentiles over the
    /// documents (every document is one open-to-verdict).
    pub fn end_to_end(&self, minima: &Minima) -> Vec<Metric> {
        let total = minima.sum_s(|_| true);
        let lat = minima.sorted_us(|_| true);
        vec![
            Metric::new("ops_per_s", "1/s", minima.len() as f64 / total),
            Metric::new("mib_per_s", "MiB/s", self.bytes as f64 / total / 1048576.0),
            Metric::new("latency_p50_us", "us", quantile(&lat, 0.5)),
            Metric::new("latency_p99_us", "us", quantile(&lat, 0.99)),
            Metric::new("open_p50_us", "us", quantile(&lat, 0.5)),
        ]
    }

    /// One traced round of the ladder: one pass over the corpus per
    /// rung, L0 to L4, each document's rung in its own span. Every rung
    /// meets a document one corpus pass after it was last touched, as
    /// the untraced rounds do, so no rung reads it warm from the rung
    /// before. A document's spans share one operation id. The first
    /// round's work is added to `counts`.
    pub fn trace_round(
        &self,
        reg: &SchemaRegistry,
        round: usize,
        tracer: &mut Tracer,
        outcome: &mut Outcome,
        counts: &mut LadderCounts,
    ) {
        let ops: Vec<u64> = self.docs.iter().map(|_| tracer.new_op()).collect();
        let first = round == 0;
        for (rung, &name) in RUNGS.iter().enumerate() {
            for (i, doc) in self.docs.iter().enumerate() {
                let compiled = reg.get(doc.schema).expect("registered");
                let text = doc.text.as_str();
                let op = ops[i];
                match rung {
                    0 => {
                        tracer.span(name, i, op, || black_box(scan(text.as_bytes())));
                    }
                    1 => {
                        let (events, owned) = tracer.span(name, i, op, || drain(text));
                        if first {
                            counts.events += events;
                            counts.owned_events += owned;
                        }
                    }
                    2 => {
                        tracer.span(name, i, op, || dispatch(&compiled, text, false));
                    }
                    3 => {
                        let steps = tracer.span(name, i, op, || dispatch(&compiled, text, true));
                        if first {
                            counts.dfa_steps += steps;
                        }
                    }
                    _ => {
                        let errors =
                            tracer.span(name, i, op, || reg.validate_streaming(doc.schema, text));
                        outcome.check(errors.as_ref() == Some(&self.expected[i]), || {
                            format!("doc {i}: traced verdict differs")
                        });
                        if first {
                            counts.errors += self.expected[i].len() as u64;
                        }
                    }
                }
            }
        }
    }

    /// The ladder's per-layer metrics.
    pub fn layers(
        &self,
        minima: &BTreeMap<&'static str, ItemMinima>,
        counts: &LadderCounts,
    ) -> Vec<Metric> {
        let rung: Vec<f64> = RUNGS.iter().map(|r| spans::sum_ns(minima.get(r))).collect();
        let events = counts.events.max(1) as f64;
        vec![
            Metric::new(
                "xmlparse.scan.mib_per_s",
                "MiB/s",
                self.bytes as f64 / (rung[0] / 1e9) / 1048576.0,
            ),
            Metric::new(
                "xmlparse.reader.self_ns_per_event",
                "ns",
                (rung[1] - rung[0]) / events,
            ),
            Metric::new(
                "schema.symtab.self_ns_per_event",
                "ns",
                (rung[2] - rung[1]) / events,
            ),
            Metric::new(
                "automata.dfa.self_ns_per_step",
                "ns",
                (rung[3] - rung[2]) / counts.dfa_steps.max(1) as f64,
            ),
            Metric::new(
                "validator.stream.self_ns_per_event",
                "ns",
                (rung[4] - rung[3]) / events,
            ),
            Metric::new("xmlparse.reader.events", "count", counts.events as f64),
            Metric::new(
                "xmlparse.reader.owned_events",
                "count",
                counts.owned_events as f64,
            ),
            Metric::new("automata.dfa.steps", "count", counts.dfa_steps as f64),
            Metric::new("validator.stream.errors", "count", counts.errors as f64),
        ]
    }
}

/// L0: every byte through the SWAR plain-run classifier; returns the
/// number of stops.
fn scan(bytes: &[u8]) -> usize {
    let mut pos = 0;
    let mut stops = 0;
    while pos < bytes.len() {
        pos = xmlparse::scan::scan_plain(bytes, pos, [b'<', b'>']) + 1;
        stops += 1;
    }
    stops
}

/// L1: drains the borrowed event stream; returns (events, owned events).
fn drain(text: &str) -> (u64, u64) {
    let mut reader = Reader::new(text);
    loop {
        match reader.next_event_borrowed() {
            Ok(BorrowedEvent::Eof) | Err(_) => break,
            Ok(event) => {
                black_box(&event);
            }
        }
    }
    let stats = reader.stats();
    (stats.events, stats.owned_events)
}

/// An open element at L2/L3: its complex type and content matcher, or
/// nothing to dispatch on.
enum Frame {
    Complex(Sym, Option<DfaMatcher>),
    Other,
}

fn frame(plan: &ElemPlan, step: bool) -> Frame {
    match &plan.content {
        ContentPlan::Complex { type_sym, dfa, .. } => {
            Frame::Complex(*type_sym, step.then(|| dfa.start()))
        }
        _ => Frame::Other,
    }
}

/// L2 (`step == false`): events plus symbol lookup and open-plan
/// dispatch. L3 (`step == true`): additionally starts each content DFA
/// and steps it per child. Returns the number of DFA steps.
fn dispatch(compiled: &CompiledSchema, text: &str, step: bool) -> u64 {
    let index = compiled.sym_index();
    let mut reader = Reader::new(text);
    let mut stack: Vec<Frame> = Vec::with_capacity(16);
    let mut steps = 0u64;
    loop {
        match reader.next_event_borrowed() {
            Ok(BorrowedEvent::StartElement { name, .. }) => {
                let sym = symbols::lookup(name);
                let next = match (stack.last_mut(), sym) {
                    (None, Some(s)) => match index.root(s) {
                        Some(RootPlan::Elem(plan)) => frame(plan, step),
                        _ => Frame::Other,
                    },
                    (Some(Frame::Complex(type_sym, matcher)), Some(s)) => {
                        if let Some(m) = matcher {
                            black_box(m.try_step_sym(s));
                            steps += 1;
                        }
                        match index.child(*type_sym, s) {
                            Some(plan) => frame(plan, step),
                            None => Frame::Other,
                        }
                    }
                    _ => Frame::Other,
                };
                stack.push(next);
            }
            Ok(BorrowedEvent::EndElement { .. }) => {
                stack.pop();
            }
            Ok(BorrowedEvent::Eof) | Err(_) => break,
            Ok(_) => {}
        }
    }
    steps
}
