//! Benchmark runner.
//!
//! ```text
//! perfbench --workload <validate-stream|edit-session|http-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints log lines, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Spans of a traced run are written to `.bench_out/`.

use std::process::{Command, ExitCode};
use std::time::Instant;

use perfbench::gen::Scale;
use perfbench::measure::{self, Outcome};
use perfbench::{corpus_registry, http_mixed, run_traced, run_untraced, Metric, Run, Workload};

/// Cold child processes per `setup_s` figure.
const SETUP_CHILDREN: usize = 31;

/// Host-probe repetitions at each end of a run.
const PROBE_REPS: usize = 25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <validate-stream|edit-session|http-mixed> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| (1..=600).contains(&s))
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The child side of `setup_s`: times the once-per-process set-up of
/// `workload` in this fresh process and prints it in nanoseconds.
fn setup_child(workload: &str) -> ExitCode {
    let Some(workload) = Workload::parse(workload) else {
        return usage("bad setup child");
    };
    let start = Instant::now();
    let reg = corpus_registry();
    let server = match workload {
        Workload::HttpMixed => match http_mixed::start_server(reg) {
            Ok(server) => Some(server),
            Err(e) => {
                eprintln!("perfbench: server start failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => None,
    };
    let ns = start.elapsed().as_nanos();
    println!("{ns}");
    if let Some(server) = server {
        server.drain();
    }
    ExitCode::SUCCESS
}

/// One cold set-up sample: re-executes this binary as a child, so the
/// process-global intern tables start empty; seconds, or `None` if the
/// child failed.
fn setup_sample(workload: Workload) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--setup-child", workload.name()])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let ns: f64 = String::from_utf8(out.stdout).ok()?.trim().parse().ok()?;
    Some(ns / 1e9)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--setup-child") {
        return setup_child(argv.get(1).map_or("", String::as_str));
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    let probe_start = measure::host_probe_us(PROBE_REPS);
    let scale = Scale::FULL;

    let reg = corpus_registry();
    let mut setup = Vec::with_capacity(SETUP_CHILDREN);
    let result = if args.trace {
        run_traced(&reg, args.workload, args.seed, &scale, args.seconds).map(|(run, tracer)| {
            // one file per workload, replaced by its next traced run
            let path =
                std::path::PathBuf::from(format!(".bench_out/spans-{}.tsv", args.workload.name()));
            match tracer.write_tsv(&path) {
                Ok(()) => println!("spans of seed {}: {}", args.seed, path.display()),
                Err(e) => println!("spans not written: {e}"),
            }
            run
        })
    } else {
        // set-up children are spread evenly over the rounds, so they
        // sample the host across the whole run, not one moment of it
        let rounds = args.workload.rounds(args.seconds);
        let mut between = |round: usize, outcome: &mut Outcome| {
            if (round + 1) * SETUP_CHILDREN / rounds > round * SETUP_CHILDREN / rounds {
                let sample = setup_sample(args.workload);
                outcome.check(sample.is_some(), || "set-up child failed".into());
                setup.extend(sample);
            }
        };
        run_untraced(&reg, args.workload, args.seed, &scale, rounds, &mut between)
    };
    let mut run: Run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let probe_end = measure::host_probe_us(PROBE_REPS);

    if args.trace {
        run.metrics.push(Metric::new(
            "host.probe_us",
            "us",
            probe_start.min(probe_end),
        ));
    } else {
        run.log.push(format!(
            "setup_s: median of {} cold child processes",
            setup.len()
        ));
        let setup_s = if setup.is_empty() {
            0.0
        } else {
            measure::median(setup)
        };
        run.metrics.insert(0, Metric::new("setup_s", "s", setup_s));
        run.metrics
            .push(Metric::new("peak_rss_mib", "MiB", measure::peak_rss_mib()));
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &run.log {
        println!("{line}");
    }
    println!("host.probe_us start {probe_start:.3} end {probe_end:.3} (diagnostic only)");
    for note in &run.outcome.notes {
        println!("FAILED: {note}");
    }
    let finite = run.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.outcome.failed == 0 && finite,
        run.outcome.attempted.max(1),
        run.outcome.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
