//! A steady benchmark of the validation, editing and serving stack.
//!
//! Three workloads drive the public APIs of `webgen`, `validator`,
//! `xmlparse`, `pxml` and `serve`:
//!
//! - `validate-stream`: streaming validation of a seeded PO/WML corpus;
//! - `edit-session`: patch sessions — tree parse and validation at open,
//!   incremental revalidation per patch;
//! - `http-mixed`: one keep-alive client against `serve::Server`.
//!
//! Every operation is timed best-of-R over interleaved rounds (see
//! [`measure`]) and every answer is checked. A separate traced run
//! ([`spans`]) gives the per-layer numbers. `README.md` in this
//! directory explains the method and each metric.

use std::sync::Arc;
use std::time::Instant;

use webgen::SchemaRegistry;

pub mod edit_session;
pub mod gen;
pub mod http_mixed;
pub mod measure;
pub mod spans;
pub mod validate_stream;

use edit_session::{EditSession, PatchCounts};
use gen::Scale;
use http_mixed::HttpMixed;
use measure::{Minima, Outcome};
use spans::Tracer;
use validate_stream::{LadderCounts, ValidateStream};

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Streaming validation of a seeded corpus.
    ValidateStream,
    /// Patch sessions on seeded purchase orders.
    EditSession,
    /// Mixed HTTP traffic against the server.
    HttpMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ValidateStream,
        Workload::EditSession,
        Workload::HttpMixed,
    ];

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Its command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ValidateStream => "validate-stream",
            Workload::EditSession => "edit-session",
            Workload::HttpMixed => "http-mixed",
        }
    }

    /// Rounds of a run lasting about `seconds` on a 2-vCPU host. The
    /// count depends only on `seconds`, so a run's work is fixed.
    pub fn rounds(self, seconds: u64) -> usize {
        let per_second = match self {
            Workload::ValidateStream => 7.0,
            Workload::EditSession => 16.0,
            Workload::HttpMixed => 11.0,
        };
        ((seconds as f64 * per_second).round() as usize).max(3)
    }

    /// Rounds of this workload's family in a traced run.
    pub fn trace_rounds(self, seconds: u64) -> usize {
        (self.rounds(seconds) / 8).max(2)
    }
}

/// The set-up a user pays once per process: compile the corpus
/// schemas and warm every content model and dispatch table.
pub fn corpus_registry() -> Arc<SchemaRegistry> {
    let reg = SchemaRegistry::with_corpus().expect("corpus schemas compile");
    for name in ["purchase-order", "wml", "xhtml"] {
        reg.get(name).expect("corpus schema registered").warm();
    }
    Arc::new(reg)
}

/// A workload with its inputs generated and every answer fixed.
pub enum Prepared {
    /// `validate-stream`.
    Stream(ValidateStream),
    /// `edit-session`.
    Edit(EditSession),
    /// `http-mixed`, with its server running.
    Http(Box<HttpMixed>),
}

impl Prepared {
    /// Generates `workload`'s inputs for `seed` and checks every
    /// expected answer against its oracle.
    pub fn new(
        reg: &Arc<SchemaRegistry>,
        workload: Workload,
        seed: u64,
        scale: &Scale,
        outcome: &mut Outcome,
    ) -> std::io::Result<Prepared> {
        Ok(match workload {
            Workload::ValidateStream => {
                Prepared::Stream(ValidateStream::prepare(reg, seed, scale, outcome))
            }
            Workload::EditSession => {
                Prepared::Edit(EditSession::prepare(reg, seed, scale, outcome))
            }
            Workload::HttpMixed => Prepared::Http(Box::new(HttpMixed::prepare(
                reg.clone(),
                seed,
                scale,
                outcome,
            )?)),
        })
    }

    /// Number of timed items.
    pub fn items(&self) -> usize {
        match self {
            Prepared::Stream(w) => w.items(),
            Prepared::Edit(w) => w.items(),
            Prepared::Http(w) => w.items(),
        }
    }

    /// One round: every item once, each folded into its minimum. With
    /// a tracer, each item runs inside a span whose cost is timed with
    /// it.
    pub fn round(
        &mut self,
        reg: &SchemaRegistry,
        minima: &mut Minima,
        outcome: &mut Outcome,
        tracer: Option<&mut Tracer>,
    ) {
        match self {
            Prepared::Stream(w) => w.round(reg, minima, outcome, tracer),
            Prepared::Edit(w) => w.round(reg, minima, outcome, tracer),
            Prepared::Http(w) => w.measure_round(minima, outcome, tracer),
        }
    }

    /// How the summed minima split between kinds of item, for the log
    /// (`validate-stream` has one kind).
    pub fn split(&self, minima: &Minima) -> Option<String> {
        match self {
            Prepared::Stream(_) => None,
            Prepared::Edit(w) => Some(w.split(minima)),
            Prepared::Http(w) => Some(w.split(minima)),
        }
    }

    /// The end-to-end metrics the workload defines.
    pub fn end_to_end(&self, minima: &Minima) -> Vec<Metric> {
        match self {
            Prepared::Stream(w) => w.end_to_end(minima),
            Prepared::Edit(w) => w.end_to_end(minima),
            Prepared::Http(w) => w.end_to_end(minima),
        }
    }
}

/// The result of one run, before the process-level metrics are added.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted and failed.
    pub outcome: Outcome,
    /// The metrics measured.
    pub metrics: Vec<Metric>,
    /// Human-readable lines for the log.
    pub log: Vec<String>,
}

/// An untraced run: prepares `workload`'s inputs for `seed`, then times
/// `rounds` rounds, calling `between` after each. Gives every end-to-end
/// metric except `setup_s` and `peak_rss_mib`, which belong to the
/// process.
pub fn run_untraced(
    reg: &Arc<SchemaRegistry>,
    workload: Workload,
    seed: u64,
    scale: &Scale,
    rounds: usize,
    between: &mut dyn FnMut(usize, &mut Outcome),
) -> std::io::Result<Run> {
    let mut run = Run::default();
    let mut prepared = Prepared::new(reg, workload, seed, scale, &mut run.outcome)?;
    let start = Instant::now();
    let mut minima = Minima::new(prepared.items());
    for round in 0..rounds {
        prepared.round(reg, &mut minima, &mut run.outcome, None);
        between(round, &mut run.outcome);
    }
    run.metrics = prepared.end_to_end(&minima);
    run.log.push(format!(
        "{}: {} items x {rounds} rounds, best of {rounds} per item; measured in {:.2} s",
        workload.name(),
        minima.len(),
        start.elapsed().as_secs_f64()
    ));
    run.log.extend(prepared.split(&minima));
    Ok(run)
}

/// The traced run. The layer suite of every family runs under spans,
/// each over its own seeded inputs, so every per-layer metric exists
/// whichever workload is named. Then the named workload's own rounds
/// run again, alternately without and with a span around every timed
/// operation: the difference of the two sums of minima is the tracing
/// overhead. Returns the run and the recorded spans.
pub fn run_traced(
    reg: &Arc<SchemaRegistry>,
    workload: Workload,
    seed: u64,
    scale: &Scale,
    seconds: u64,
) -> std::io::Result<(Run, Tracer)> {
    let mut run = Run::default();
    let mut tracer = Tracer::new();
    let out = &mut run.outcome;

    let stream = ValidateStream::prepare(reg, seed, scale, out);
    let edit = EditSession::prepare(reg, seed, scale, out);
    let mut http = HttpMixed::prepare(reg.clone(), seed, scale, out)?;
    let mut ladder = LadderCounts::default();
    let mut patches = PatchCounts::default();
    for family in Workload::ALL {
        for round in 0..family.trace_rounds(seconds) {
            match family {
                Workload::ValidateStream => {
                    stream.trace_round(reg, round, &mut tracer, out, &mut ladder)
                }
                Workload::EditSession => {
                    edit.trace_round(reg, round, &mut tracer, out, &mut patches)
                }
                Workload::HttpMixed => http.trace_round(&mut tracer, out),
            }
        }
    }
    let minima = tracer.item_minima();
    let mut metrics = stream.layers(&minima, &ladder);
    metrics.extend(edit.layers(&minima, &patches));
    metrics.extend(http.layers(&minima));

    let items = match workload {
        Workload::ValidateStream => stream.items(),
        Workload::EditSession => edit.items(),
        Workload::HttpMixed => http.items(),
    };
    let mut named_round =
        |minima: &mut Minima, out: &mut Outcome, tracer: Option<&mut Tracer>| match workload {
            Workload::ValidateStream => stream.round(reg, minima, out, tracer),
            Workload::EditSession => edit.round(reg, minima, out, tracer),
            Workload::HttpMixed => http.measure_round(minima, out, tracer),
        };
    let mut plain = Minima::new(items);
    let mut traced = Minima::new(items);
    // its spans reuse the layer names; kept apart from the written ones
    let mut overhead_spans = Tracer::new();
    let rounds = workload.trace_rounds(seconds);
    for round in 0..rounds {
        // alternate which of the pair goes first, so neither always
        // meets the items right after the other has touched them
        for traced_turn in [round % 2 == 1, round % 2 == 0] {
            if traced_turn {
                named_round(&mut traced, out, Some(&mut overhead_spans));
            } else {
                named_round(&mut plain, out, None);
            }
        }
    }
    let (plain_ns, traced_ns) = (plain.sum_s(|_| true) * 1e9, traced.sum_s(|_| true) * 1e9);
    metrics.push(Metric::new(
        "bench.trace.overhead_pct",
        "%",
        (traced_ns - plain_ns) / plain_ns * 100.0,
    ));
    run.metrics = metrics;
    run.log.push(format!(
        "trace: {} layer spans; rounds validate-stream {}, edit-session {}, \
         http-mixed {}; {} overhead: {rounds} untraced rounds {:.3} ms vs {rounds} traced \
         {:.3} ms (sums of per-item minima, rounds alternated)",
        tracer.len(),
        Workload::ValidateStream.trace_rounds(seconds),
        Workload::EditSession.trace_rounds(seconds),
        Workload::HttpMixed.trace_rounds(seconds),
        workload.name(),
        plain_ns / 1e6,
        traced_ns / 1e6
    ));
    Ok((run, tracer))
}

/// The end-to-end metric names and units, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("mib_per_s", "MiB/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("open_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];
