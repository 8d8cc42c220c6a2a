//! `edit-session`: open a patchable session on a purchase order with
//! `SchemaRegistry::open_session` (tree parse + tree validation), then
//! run a fixed patch script through `DocSession::apply`
//! (`validator::patch`), commits beside rejections.
//!
//! Every round reopens every session, so each patch meets the same
//! document state in every round and its verdict must repeat exactly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use limits::Limits;
use schema::CompiledSchema;
use validator::{DomPatch, NewNode, PatchError};
use webgen::SchemaRegistry;

use crate::gen::{self, PatchKind, Scale, SessionSpec};
use crate::measure::{ns_since, quantile, Minima, Outcome};
use crate::spans::{self, ItemMinima, Tracer};
use crate::Metric;

const SCHEMA: &str = "purchase-order";

/// The sessions with every patch's oracle-checked result.
pub struct EditSession {
    sessions: Vec<SessionSpec>,
    /// Per session, the result of each scripted patch.
    expected: Vec<Vec<Result<(), PatchError>>>,
    /// Index of each session's first patch in the flat patch list.
    first_patch: Vec<usize>,
    patches: usize,
    bytes: usize,
}

/// Work counts of one pass over the sessions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PatchCounts {
    /// Sum over patches of the nodes each one rechecked.
    pub nodes_rechecked: u64,
    /// Patches committed.
    pub applied: u64,
    /// Patches rejected.
    pub rejected: u64,
}

/// Checks every scripted patch of `spec` against an independent oracle:
/// the same patch applied with `apply_unchecked` to a twin tree, which
/// is then fully revalidated with `validate_document`. Returns the
/// incremental results.
pub fn oracle_check(
    reg: &SchemaRegistry,
    what: &str,
    spec: &SessionSpec,
    outcome: &mut Outcome,
) -> Vec<Result<(), PatchError>> {
    let compiled = reg.get(SCHEMA).expect("registered");
    let mut session = match reg.open_session(SCHEMA, &spec.text, Limits::default()) {
        Ok(s) => s,
        Err(e) => {
            outcome.check(false, || format!("{what}: open failed: {e}"));
            return Vec::new();
        }
    };
    let mut tree = xmlparse::parse_document(&spec.text).expect("session documents parse");
    outcome.check(
        validator::validate_document(&compiled, &tree).is_empty(),
        || format!("{what}: tree engine rejects the opened document"),
    );
    let mut results = Vec::with_capacity(spec.script.len());
    for (j, p) in spec.script.iter().enumerate() {
        let result = session.apply(&p.patch);
        let mut twin = tree.clone();
        let oracle = match validator::apply_unchecked(&mut twin, &p.patch) {
            Ok(()) => {
                let errors = validator::validate_document(&compiled, &twin);
                if errors.is_empty() {
                    Ok(())
                } else {
                    Err(PatchError::Invalid(errors))
                }
            }
            Err(e) => Err(e),
        };
        let admitted = match (&result, p.expect) {
            (Ok(()), gen::Expect::Valid) => true,
            (Err(PatchError::Invalid(errors)), expect) => expect.admits(errors),
            _ => false,
        };
        outcome.check(admitted && result == oracle, || {
            format!(
                "{what} patch {j}: {result:?} (oracle {oracle:?}, expected {:?})",
                p.expect
            )
        });
        if result.is_ok() {
            tree = twin;
        }
        results.push(result);
    }
    results
}

impl EditSession {
    /// Generates the sessions for `seed` and fixes every patch result.
    pub fn prepare(reg: &SchemaRegistry, seed: u64, scale: &Scale, outcome: &mut Outcome) -> Self {
        let sessions = gen::edit_sessions(seed, scale);
        let expected = sessions
            .iter()
            .enumerate()
            .map(|(s, spec)| oracle_check(reg, &format!("session {s}"), spec, outcome))
            .collect();
        let mut first_patch = Vec::with_capacity(sessions.len());
        let mut patches = 0;
        for spec in &sessions {
            first_patch.push(patches);
            patches += spec.script.len();
        }
        let bytes = sessions
            .iter()
            .map(|s| {
                s.text.len()
                    + s.script
                        .iter()
                        .map(|p| p.patch.payload_bytes())
                        .sum::<usize>()
            })
            .sum();
        EditSession {
            sessions,
            expected,
            first_patch,
            patches,
            bytes,
        }
    }

    /// Number of timed items: every open (the first items) and every
    /// patch.
    pub fn items(&self) -> usize {
        self.sessions.len() + self.patches
    }

    /// One round: every session opened afresh and its script applied,
    /// each open and each patch folded into its minimum. With a tracer,
    /// each open and each patch runs inside a span, and the time folded
    /// in includes the span's cost.
    pub fn round(
        &self,
        reg: &SchemaRegistry,
        minima: &mut Minima,
        outcome: &mut Outcome,
        mut tracer: Option<&mut Tracer>,
    ) {
        let opens = self.sessions.len();
        for (s, spec) in self.sessions.iter().enumerate() {
            let limits = Limits::default();
            let op = spans::new_op(&mut tracer);
            let start = Instant::now();
            let opened = spans::maybe(&mut tracer, "webgen.session.open", s, op, || {
                reg.open_session(SCHEMA, black_box(&spec.text), limits)
            });
            minima.record(s, ns_since(start));
            let Ok(mut session) = opened else {
                outcome.check(false, || format!("session {s}: open failed"));
                continue;
            };
            outcome.attempted += 1;
            for (j, p) in spec.script.iter().enumerate() {
                let item = opens + self.first_patch[s] + j;
                let start = Instant::now();
                let result = spans::maybe(&mut tracer, apply_span(p.kind), item, op, || {
                    session.apply(black_box(&p.patch))
                });
                minima.record(item, ns_since(start));
                outcome.check(result == self.expected[s][j], || {
                    format!("session {s} patch {j}: result changed between rounds")
                });
            }
        }
    }

    /// How the summed minima split between opens and each patch kind,
    /// for the log.
    pub fn split(&self, minima: &Minima) -> String {
        let opens = self.sessions.len();
        let total = minima.sum_s(|_| true);
        let mut kinds = vec![PatchKind::SetText; opens];
        kinds.extend(
            self.sessions
                .iter()
                .flat_map(|s| s.script.iter().map(|p| p.kind)),
        );
        let mut parts = vec![format!(
            "open {:.1} %",
            minima.sum_s(|i| i < opens) / total * 100.0
        )];
        for kind in PatchKind::ALL {
            let share = minima.sum_s(|i| i >= opens && kinds[i] == kind) / total;
            parts.push(format!("{} {:.1} %", kind.name(), share * 100.0));
        }
        format!("share of summed minima: {}", parts.join(", "))
    }

    /// End-to-end metrics. Latency percentiles are over patches only;
    /// `open_p50_us` is the median session open.
    pub fn end_to_end(&self, minima: &Minima) -> Vec<Metric> {
        let opens = self.sessions.len();
        let total = minima.sum_s(|_| true);
        let lat = minima.sorted_us(|i| i >= opens);
        let open = minima.sorted_us(|i| i < opens);
        vec![
            Metric::new("ops_per_s", "1/s", minima.len() as f64 / total),
            Metric::new("mib_per_s", "MiB/s", self.bytes as f64 / total / 1048576.0),
            Metric::new("latency_p50_us", "us", quantile(&lat, 0.5)),
            Metric::new("latency_p99_us", "us", quantile(&lat, 0.99)),
            Metric::new("open_p50_us", "us", quantile(&open, 0.5)),
        ]
    }

    /// One traced round: per session, spans around the open and around
    /// a separate tree parse and tree validation of the same text, then
    /// each patch (and each appended fragment's parse on its own). Even
    /// rounds open first, odd rounds parse and validate first, so each
    /// of the three has samples from both positions and its minimum is
    /// taken with the text equally warm. The first round's work is
    /// added to `counts`.
    pub fn trace_round(
        &self,
        reg: &SchemaRegistry,
        round: usize,
        tracer: &mut Tracer,
        outcome: &mut Outcome,
        counts: &mut PatchCounts,
    ) {
        let compiled = reg.get(SCHEMA).expect("registered");
        let limits = Limits::default();
        for (s, spec) in self.sessions.iter().enumerate() {
            let op = tracer.new_op();
            tracer.enter("edit.session", s, op);
            let open = |tracer: &mut Tracer| {
                tracer.span("webgen.session.open", s, op, || {
                    reg.open_session(SCHEMA, &spec.text, Limits::default())
                })
            };
            let opened = if round.is_multiple_of(2) {
                let opened = open(tracer);
                self.tree_pass(&compiled, s, op, tracer, outcome);
                opened
            } else {
                self.tree_pass(&compiled, s, op, tracer, outcome);
                open(tracer)
            };
            let Ok(mut session) = opened else {
                outcome.check(false, || format!("session {s}: traced open failed"));
                tracer.exit();
                continue;
            };
            for (j, p) in spec.script.iter().enumerate() {
                let item = self.first_patch[s] + j;
                if let DomPatch::AppendChild {
                    child: NewNode::Element { xml },
                    ..
                } = &p.patch
                {
                    let fragment = tracer.span("xmlparse.fragment.parse", item, op, || {
                        xmlparse::parse_fragment_with_limits(xml, &limits)
                    });
                    outcome.check(fragment.is_ok(), || format!("patch {item}: fragment"));
                }
                let result = tracer.span(apply_span(p.kind), item, op, || session.apply(&p.patch));
                outcome.check(result == self.expected[s][j], || {
                    format!("session {s} patch {j}: traced result differs")
                });
                if round == 0 {
                    counts.nodes_rechecked += session.validator().nodes_rechecked() as u64;
                }
            }
            if round == 0 {
                counts.applied += session.validator().applied_total();
                counts.rejected += session.validator().rejected_total();
            }
            tracer.exit();
        }
    }

    /// Session `s`'s text through `parse_document` and
    /// `validate_document`, each in its own span.
    fn tree_pass(
        &self,
        compiled: &CompiledSchema,
        s: usize,
        op: u64,
        tracer: &mut Tracer,
        outcome: &mut Outcome,
    ) {
        let text = &self.sessions[s].text;
        let tree = tracer.span("xmlparse.tree.parse", s, op, || {
            xmlparse::parse_document(text)
        });
        let valid = tree.is_ok_and(|tree| {
            tracer
                .span("validator.tree.validate", s, op, || {
                    validator::validate_document(compiled, &tree)
                })
                .is_empty()
        });
        outcome.check(valid, || format!("session {s}: tree verdict"));
    }

    /// The per-layer metrics of the session layers.
    pub fn layers(
        &self,
        minima: &BTreeMap<&'static str, ItemMinima>,
        counts: &PatchCounts,
    ) -> Vec<Metric> {
        let get = |name: &str| minima.get(name);
        // the open's residue, per session: open − parse − validate
        let residue: Vec<f64> = (0..self.sessions.len() as u32)
            .filter_map(|s| {
                let at = |name: &str| get(name).and_then(|m| m.get(&s)).map(|&v| v as f64);
                Some(
                    at("webgen.session.open")?
                        - at("xmlparse.tree.parse")?
                        - at("validator.tree.validate")?,
                )
            })
            .map(|ns| ns / 1e3)
            .collect();
        let mut out = vec![
            Metric::new(
                "xmlparse.tree.parse_us",
                "us",
                spans::median_us(get("xmlparse.tree.parse")),
            ),
            Metric::new(
                "validator.tree.validate_us",
                "us",
                spans::median_us(get("validator.tree.validate")),
            ),
            Metric::new(
                "webgen.session.open_residue_us",
                "us",
                if residue.is_empty() {
                    0.0
                } else {
                    crate::measure::median(residue)
                },
            ),
        ];
        for kind in PatchKind::ALL {
            out.push(Metric::new(
                &format!("validator.patch.apply_us.{}", kind.name()),
                "us",
                spans::median_us(get(apply_span(kind))),
            ));
        }
        out.extend([
            Metric::new(
                "xmlparse.fragment.parse_us",
                "us",
                spans::median_us(get("xmlparse.fragment.parse")),
            ),
            Metric::new(
                "validator.patch.nodes_rechecked",
                "count",
                counts.nodes_rechecked as f64,
            ),
            Metric::new("validator.patch.applied", "count", counts.applied as f64),
            Metric::new("validator.patch.rejected", "count", counts.rejected as f64),
        ]);
        out
    }
}

/// The span name of a patch apply, by kind.
fn apply_span(kind: PatchKind) -> &'static str {
    match kind {
        PatchKind::SetText => "validator.patch.apply.set_text",
        PatchKind::SetAttr => "validator.patch.apply.set_attr",
        PatchKind::Append => "validator.patch.apply.append",
        PatchKind::Remove => "validator.patch.apply.remove",
        PatchKind::Reject => "validator.patch.apply.reject",
    }
}
