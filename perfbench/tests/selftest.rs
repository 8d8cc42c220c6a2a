//! Self-tests of the benchmark: answers are right, counts repeat for a
//! seed, the traced run reports its overhead, and `BENCHMARK.json`
//! lists exactly what the runner prints.

use perfbench::gen::Scale;
use perfbench::{corpus_registry, run_traced, run_untraced, Metric, Run, Workload, END_TO_END};
use serve::json::{parse_json, JsonValue};

fn counts(run: &Run) -> Vec<(String, f64)> {
    run.metrics
        .iter()
        .filter(|m| m.unit == "count")
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<(&str, &str)> {
    metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect()
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let src = include_str!("../../BENCHMARK.json");
    let json = parse_json(src).expect("BENCHMARK.json parses");
    json.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn same_seed_gives_identical_counts_and_the_trace_reports_its_overhead() {
    let reg = corpus_registry();
    for workload in Workload::ALL {
        let (a, spans) = run_traced(&reg, workload, 11, &Scale::SMALL, 1).expect("traced run");
        let (b, _) = run_traced(&reg, workload, 11, &Scale::SMALL, 1).expect("traced run");
        assert_eq!(a.outcome.failed, 0, "{:?}", a.outcome.notes);
        assert_eq!(b.outcome.failed, 0, "{:?}", b.outcome.notes);
        let counts_a = counts(&a);
        assert!(counts_a.len() >= 10, "{counts_a:?}");
        assert!(counts_a.iter().all(|(_, v)| *v > 0.0), "{counts_a:?}");
        assert_eq!(counts_a, counts(&b), "{}", workload.name());
        assert!(!spans.is_empty());
        let overhead = a
            .metrics
            .iter()
            .find(|m| m.name == "bench.trace.overhead_pct")
            .expect("overhead reported");
        assert!(overhead.value.is_finite());
        assert!(a.log.iter().any(|l| l.contains("untraced")), "{:?}", a.log);
    }
}

#[test]
fn untraced_runs_answer_correctly() {
    let reg = corpus_registry();
    for workload in Workload::ALL {
        let mut rounds_seen = 0;
        let run = run_untraced(&reg, workload, 5, &Scale::SMALL, 3, &mut |_, _| {
            rounds_seen += 1
        })
        .expect("untraced run");
        assert_eq!(
            run.outcome.failed,
            0,
            "{}: {:?}",
            workload.name(),
            run.outcome.notes
        );
        assert!(run.outcome.attempted > 0);
        assert_eq!(rounds_seen, 3);
        assert!(run
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
    }
}

#[test]
fn benchmark_json_lists_what_the_runner_prints() {
    let reg = corpus_registry();
    // the runner adds setup_s and peak_rss_mib around the workload's own
    let run = run_untraced(
        &reg,
        Workload::EditSession,
        1,
        &Scale::SMALL,
        2,
        &mut |_, _| {},
    )
    .expect("untraced run");
    let mut printed: Vec<(&str, &str)> = vec![("setup_s", "s")];
    printed.extend(names(&run.metrics));
    printed.push(("peak_rss_mib", "MiB"));
    assert_eq!(printed, END_TO_END.to_vec());
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);

    let (traced, _) =
        run_traced(&reg, Workload::HttpMixed, 1, &Scale::SMALL, 1).expect("traced run");
    let mut layers: Vec<(String, String)> = traced
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    // the runner adds the host probe
    layers.push(("host.probe_us".into(), "us".into()));
    assert_eq!(declared("per_layer"), layers);
}
