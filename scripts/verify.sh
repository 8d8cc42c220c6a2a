#!/usr/bin/env bash
# Full local verification: the tier-1 gate (ROADMAP.md) plus formatting
# and lint walls. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> zero-copy pipeline gates (allocation smoke + differential props)"
# The alloc smoke asserts 0 heap allocations per event on entity-free
# documents, typed purchase-order values included; the zero-copy props
# hold the reader's borrowed event stream equal to the tree
# parse_document builds (re-walked as events) and streaming ≡ tree
# validation across the corpora; simple_values pins every simple-value
# error's text across streaming, tree and patch validation. alloc_smoke
# also caps parse_document's allocations on a 400-item order (no
# allocation per name), and open_from_text holds the session open from
# text equal to parse-then-validate, error for error, and the tree
# builder linear in the number of distinct names. value_kernel pins
# SimplePlan::check's verdict and exact error text row by row: every
# built-in, every facet kind, bounds beyond i64, dates, NaN/INF,
# non-ASCII patterns and each whitespace mode.
cargo test -q -p integration-tests --test alloc_smoke --test zero_copy_prop \
  --test simple_values --test xml_whitespace --test open_from_text
cargo test -q -p schema --test value_kernel

echo "==> facet bounds parsed once, when the plan is built"
# Range facets compare the value their built-in parsed against bounds a
# SimplePlan parsed when it was built, so the checking code in facets.rs
# (cut at its first column-0 #[cfg(test)]) parses no bound or value per
# check through the built-in's ordered_value.
facets_src="$(sed '/^#\[cfg(test)\]/,$d' crates/schema/src/facets.rs)"
if grep -n 'ordered_value(' <<<"$facets_src"; then
  echo "facets.rs parses range bounds per check again (see above)" >&2
  exit 1
fi

echo "==> one tree builder, one session open"
# xmlparse's TreeBuilder grows trees through Document::append_new, and a
# session opens from text only through IncrementalValidator::open: the
# non-test code of tree.rs makes no checked append_child/set_attribute
# calls, and webgen's session layer never parses a tree itself.
tree_src="$(sed '/^#\[cfg(test)\]/,$d' crates/xmlparse/src/tree.rs)"
session_src="$(sed '/^#\[cfg(test)\]/,$d' crates/webgen/src/session.rs)"
if grep -nE 'append_child\(|set_attribute\(' <<<"$tree_src" \
    || grep -nE 'parse_document' <<<"$session_src"; then
  echo "a second tree-building path or a two-pass session open is back (see above)" >&2
  exit 1
fi

echo "==> simple types compiled once, no global symbol lookups in the validator"
# The validator resolves element names through the schema's frozen
# SymIndex and checks values against the SimplePlans built with it: the
# global symbol table's lookup and the by-name simple-value wrappers stay
# out of crates/validator/src, and the per-value restriction-chain walk
# (simple_view) stays gone from crates/schema/src.
if grep -rnE 'symbols::lookup\(|check_simple_value\(|validate_simple_value\(' crates/validator/src \
    || grep -rnE 'fn simple_view\b' crates/schema/src; then
  echo "the validator resolves names or simple types per value again (see above)" >&2
  exit 1
fi

echo "==> one frozen schema table, std locks only"
# CompiledSchema answers every per-type question from its frozen
# SymIndex, so compiled.rs keeps no reader-writer lock outside its tests
# (cut at the first column-0 #[cfg(test)]), and the vendored parking_lot
# shim stays deleted: every lock in the workspace is std::sync's.
compiled_src="$(sed '/^#\[cfg(test)\]/,$d' crates/schema/src/compiled.rs)"
if grep -rn --include='*.rs' --include='Cargo.toml' 'parking_lot' crates tests examples \
    || { [ -e vendor/parking_lot ] && echo "vendor/parking_lot exists"; } \
    || grep -n 'RwLock' <<<"$compiled_src"; then
  echo "a lock-guarded schema cache or the parking_lot shim is back (see above)" >&2
  exit 1
fi

echo "==> one automaton per content model, built with the schema"
# CompiledSchema::new builds the index eagerly (compiled.rs keeps no
# OnceLock), and intern_dfa is the one place a content model is expanded
# and Glushkov-constructed: the unique-particle-attribution check runs on
# the automaton the subset construction then uses. So schema's non-test
# code calls no ContentDfa::compile and has one Glushkov::construct call
# site, Schema::check (resolve.rs) never mentions Glushkov, and the
# content plans no checked schema can produce (Broken, Unknown) stay gone
# with the UnknownType error they reported.
schema_src="$(for f in $(find crates/schema/src -name '*.rs' | sort); do
  sed '/^#\[cfg(test)\]/,$d' "$f" | sed "s|^|$f: |"
done)"
resolve_src="$(sed '/^#\[cfg(test)\]/,$d' crates/schema/src/resolve.rs)"
constructs="$(grep -cF 'Glushkov::construct(' <<<"$schema_src" || true)"
if grep -rnE --include='*.rs' 'ContentPlan::(Broken|Unknown)|UnknownType' crates tests \
    || grep -F 'ContentDfa::compile(' <<<"$schema_src" \
    || grep -n 'Glushkov' <<<"$resolve_src" \
    || grep -n 'OnceLock' <<<"$compiled_src" \
    || [ "$constructs" -gt 1 ]; then
  echo "a second content-model construction or an impossible content plan is back" \
    "(see above; $constructs Glushkov::construct call sites in crates/schema/src)" >&2
  exit 1
fi

echo "==> rules are decided once, in the index"
# V-DOM, the P-XML checker and the template compiler read each element's
# rules (content regime, abstractness, declared attributes with their
# value checks) from the ElemPlans of the schema's SymIndex, the ones the
# validators read: pxml keeps no classify of its own, and the non-test
# code of crates/core/src and crates/pxml/src (each file cut at its first
# column-0 #[cfg(test)]) never matches on a schema ContentModel.
typed_src="$(for f in $(find crates/core/src crates/pxml/src -name '*.rs' | sort); do
  sed '/^#\[cfg(test)\]/,$d' "$f" | sed "s|^|$f: |"
done)"
if grep -rn 'fn classify' crates/pxml/src || grep -F 'ContentModel::' <<<"$typed_src"; then
  echo "V-DOM or P-XML decides a schema rule outside the index's element plans" \
    "(see above)" >&2
  exit 1
fi

echo "==> one JSON codec, one event type"
# obs::json holds the workspace's only JSON parser and string escaper
# (a JSON escaper is recognised by its \u00XX control-character
# format), and the reader exposes only the borrowed event stream.
count() { grep -rhE --include='*.rs' "$1" crates | wc -l; }
if [ "$(count 'fn parse_json\b')" -gt 1 ] || [ "$(count '\\\\u\{:04x\}')" -gt 1 ]; then
  echo "more than one JSON parser or string escaper under crates/:" >&2
  grep -rnE --include='*.rs' 'fn parse_json\b|\\\\u\{:04x\}' crates >&2
  exit 1
fi
if grep -rnE --include='*.rs' 'pub enum Event\b|fn next_event\(' crates; then
  echo "an owned event type or Reader::next_event is back under crates/" >&2
  exit 1
fi

echo "==> one response writer in serve"
# serve's handlers return a Reply and handle_connection writes it; the
# only other write_response call is refuse_connection's over-cap 503,
# which runs on the acceptor before a request exists. Only non-test code
# counts: each file is cut at its first column-0 #[cfg(test)].
serve_src="$(for f in $(find crates/serve/src -name '*.rs' | sort); do
  sed '/^#\[cfg(test)\]/,$d' "$f"
done)"
writes="$(grep -E 'write_response\(' <<<"$serve_src" | grep -vc 'fn write_response(' || true)"
if grep -nE 'fn respond\b' <<<"$serve_src" || [ "$writes" -gt 2 ]; then
  echo "serve writes responses outside handle_connection ($writes write_response calls):" >&2
  grep -rnE 'write_response\(' crates/serve/src >&2
  exit 1
fi

echo "==> one write per response, one read-timeout site in serve's wire layer"
# http.rs encodes a response's head and body into one buffer and sends it
# with a single write, and sets the socket read timeout only in Conn::arm,
# which skips the syscall while the armed slice still fits the deadline.
wire="$(sed '/^#\[cfg(test)\]/,$d' crates/serve/src/http.rs)"
for call in 'write_all(' 'set_read_timeout('; do
  n="$(grep -cF "$call" <<<"$wire" || true)"
  if [ "$n" -gt 1 ]; then
    echo "crates/serve/src/http.rs has $n $call call sites outside its tests:" >&2
    grep -nF "$call" crates/serve/src/http.rs >&2
    exit 1
  fi
done

echo "==> one span store"
# The flight recorder's bounded per-thread rings are the only place spans
# are kept; obs::enable() is the metrics switch. A second, unbounded span
# store (a sink trait, a collecting sink, its install functions) stays
# gone from the code.
if grep -rnE 'SpanSink|CollectingSink|SpanRecord|install_collector|fn install\(' \
    crates examples tests; then
  echo "a second span store is back (see above)" >&2
  exit 1
fi

echo "==> one entry point per input shape"
# The streaming entry points and the StreamingValidator and
# IncrementalValidator constructors take Limits as a parameter, so no
# _with_limits twin of them comes back; the registry holds schemas only,
# and page generators own their compiled templates. Only non-test code
# counts: crates/*/tests is skipped and every other file is cut at its
# first column-0 #[cfg(test)].
twins="$(for f in $(find crates -name '*.rs' -not -path 'crates/*/tests/*' | sort); do
  sed '/^#\[cfg(test)\]/,$d' "$f" \
    | grep -nE 'fn validate_(str|chunks|read)_streaming_with_limits\b|fn validate_streaming_with_limits\b|\b(compile_template|render_page|TemplateError|PageError|registry_template_total)\b' \
    | sed "s|^|$f:|" || true
done
for f in crates/validator/src/stream.rs crates/validator/src/patch.rs; do
  sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'fn with_limits\b' | sed "s|^|$f:|" || true
done)"
if [ -n "$twins" ]; then
  echo "$twins" >&2
  echo "a _with_limits twin or the registry template cache is back (see above)" >&2
  exit 1
fi

echo "==> cargo build --release -p examples --bins"
cargo build --release -p examples --bins

echo "==> xmlstat smoke run"
out="$(cargo run -q --release -p examples --bin xmlstat)"
for needle in "xmlparse_events_total" "schema_compile_seconds" \
    "validator_tree_seconds" "validator_stream_seconds" \
    "pxml_templates_checked_total" "registry_validate_seconds" \
    "borrowed_events_total" "owned_fallback_total" \
    "symbols_interned_total" "symbol_table_bytes" \
    "# TYPE xmlparse_events_total counter"; do
  if ! grep -q "$needle" <<<"$out"; then
    echo "xmlstat output is missing '$needle'" >&2
    exit 1
  fi
done

echo "==> xmldiag smoke run (flight recorder + Chrome trace golden gate)"
# xmldiag self-validates its Chrome export before writing it (strict B/E
# nesting per thread, required ph/ts/pid/tid fields, zero orphaned
# parent links) and asserts every pool-worker span parents into the
# export, so the smoke run IS the trace-format gate; the greps below
# pin the wide-event and summary surfaces on top.
trace_out="$(mktemp /tmp/xmldiag_trace.XXXXXX.json)"
out="$(cargo run -q --release -p examples --bin xmldiag -- --chrome "$trace_out")"
for needle in "wide event: entry=stream" "outcome=valid" "outcome=malformed" \
    "== trace phases (top-down) ==" "pool.queue_wait" "validate.stream" \
    "== quantile estimates (from histogram buckets) ==" \
    "chrome trace OK"; do
  if ! grep -q "$needle" <<<"$out"; then
    echo "xmldiag output is missing '$needle'" >&2
    exit 1
  fi
done
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$trace_out" 2>/dev/null \
  || { echo "exported Chrome trace is not valid JSON" >&2; exit 1; }
rm -f "$trace_out"

echo "==> trace export gate (ctx propagation at 1/2/8 threads + wraparound + golden)"
cargo test -q -p integration-tests --test trace_export

echo "==> parallel stress pass (RUST_TEST_THREADS=8)"
# Run the concurrency-sensitive suites with 8 test threads so the
# parallel validator, the DFA intern table, and the obs aggregation race
# against each other as hard as this host allows.
RUST_TEST_THREADS=8 cargo test -q -p integration-tests \
  --test parallel_prop --test intern_stress --test obs_metrics
RUST_TEST_THREADS=8 cargo test -q -p pool -p webgen registry

echo "==> 32-thread parallel smoke on the corpora"
out="$(cargo run -q --release -p examples --bin parallel_batch -- 32)"
for needle in "threads=32" "pool_steals_total" "pool_queue_wait_seconds" \
    "schema_dfa_compiled_total"; do
  if ! grep -q "$needle" <<<"$out"; then
    echo "parallel_batch output is missing '$needle'" >&2
    exit 1
  fi
done
if grep -q "invalid, threads=32" <<<"$out" && ! grep -q " 0 invalid, threads=32" <<<"$out"; then
  echo "parallel_batch reported invalid documents on a valid corpus" >&2
  exit 1
fi

echo "==> hostile corpus pass (wall-clock bounded)"
# Every committed adversarial document must be rejected with a typed
# ResourceError inside its latency budget; `timeout` is a belt-and-braces
# wall-clock ceiling on the whole battery in case a limit regresses into
# a hang instead of a slow rejection.
timeout 120 cargo test -q -p integration-tests --test hostile_corpus

echo "==> governance gates (differential props + deterministic fuzz smoke)"
# limits_prop holds default ≡ unbounded on legitimate corpora and
# tight-budget runs ≡ prefix-plus-marker; fuzz_smoke drives fixed-seed
# LCG-mangled documents through the governed validator (no panic, no
# error-list overshoot, bounded per-document latency) and re-feeds every
# mangled document chunk-wise at LCG-chosen cut points, asserting the
# chunked verdict matches the whole-input one.
timeout 300 cargo test -q -p integration-tests --test limits_prop --test fuzz_smoke

echo "==> reader gates (EOL conformance, byte-class runs, tag error positions)"
# eol_prop re-encodes the corpora and generated documents with CRLF and
# lone-CR line endings and holds parse/validation results identical to
# the LF originals (XML 1.0 §2.11), then splits documents at random byte
# positions — inside tags, entities, \r\n pairs, UTF-8 sequences — and
# holds the FeedReader event stream equal to the whole-input parse.
# name_run_prop generates documents with ASCII and non-ASCII names and
# SP/HTAB/LF/CR/CRLF inside tags and holds every span and error position
# to line/column recomputed from its byte offset, names to the char
# predicates, and FeedReader at every byte cut to the whole-input reader;
# tag_error_positions pins the kind, line, column and offset of every
# name and tag error in one table, whole and chunked.
timeout 300 cargo test -q -p integration-tests --test eol_prop --test name_run_prop \
  --test tag_error_positions

echo "==> hardened batch smoke (typed rejection + cancellation metrics)"
out="$(timeout 120 cargo run -q --release -p examples --bin hardened_batch)"
for needle in "limit_trips_total" "docs_rejected_total" "batch_cancelled_total" \
    "TooManyExpansions" "TooManyAttributes" "DepthExceeded"; do
  if ! grep -q "$needle" <<<"$out"; then
    echo "hardened_batch output is missing '$needle'" >&2
    exit 1
  fi
done

echo "==> HTTP serving gate (socket-level conformance + torture + drain)"
# The conformance battery holds HTTP verdicts byte-equivalent to the
# library's streaming validator across the corpus; the torture battery
# throws malformed requests, slowloris drips, chunk-boundary splits and
# oversized lengths at the wire layer; the error battery pins status,
# content type, body and Connection header of every error branch; the
# drain tests complete in-flight work at 2 and 8 workers; the metrics
# binary reconciles exported counters against the exact traffic sent;
# obs_heap_flat holds an observed server's live heap flat (< 64 KiB)
# over 20,000 keep-alive validate requests.
timeout 120 cargo test -q -p serve
timeout 300 cargo test -q -p integration-tests \
  --test http_e2e --test http_torture --test http_errors --test http_drain --test http_metrics \
  --test obs_heap_flat

echo "==> xmlserved smoke run (boot on an ephemeral port + scripted sweep)"
# Boots the service end-to-end as a process and drives the request sweep
# over loopback: valid/invalid/hostile documents, an oversized declared
# length refused before the body is read, a batch, a schema hot-swap,
# and a /metrics scrape — the binary exits non-zero on any unexpected
# status, and `timeout` bounds the whole boot-serve-drain cycle.
out="$(timeout 120 cargo run -q --release -p examples --bin xmlserved -- --self-test)"
for needle in "hostile document typed rejection -> 422" \
    "oversized declared length refused before read -> 413" \
    "schema hot-swap -> 200" "malformed request line -> 400" \
    'metrics export http_requests_total{code="200"}' \
    "self-test ok: graceful drain" "xmlserved self-test OK"; do
  if ! grep -qF "$needle" <<<"$out"; then
    echo "xmlserved self-test output is missing '$needle'" >&2
    exit 1
  fi
done

echo "==> incremental revalidation gate (differential + hostile + resume audit + sessions)"
# patch_prop holds the incremental verdict (error kinds AND spans) equal
# to full revalidation over an independently patched tree across random
# patch sequences, with byte-identical rollback on rejection; resume_audit
# proves ContentDfa::resume behaviorally identical to stepping from state
# 0 at every split point of every corpus content model; patch_hostile
# throws metacharacters, unserializable comments/PIs, wrong-namespace
# QNames and patch floods at the validator; http_session drives the
# /v1/session endpoints socket-level including expiry, capacity and a
# drain that completes an in-flight patch.
timeout 300 cargo test -q -p integration-tests \
  --test patch_prop --test patch_hostile --test resume_audit --test http_session
timeout 120 cargo test -q -p validator patch
timeout 120 cargo test -q -p webgen session

echo "==> compiled template gate (plan ≡ interpreter differential battery)"
# The battery holds CompiledTemplate::render byte-identical to
# instantiate(...).to_xml() — or the identical typed error — across
# hostile values (markup metacharacters, ]]>, lone \r, empty strings),
# injected facet faults, fragment/pre-rendered splices, and occurrence
# overflows; the pxml and webgen suites pin the plan lowering and the
# compiled page generators underneath.
timeout 120 cargo test -q -p pxml
timeout 120 cargo test -q -p integration-tests --test pxml_compile_prop
timeout 120 cargo test -q -p webgen compiled

echo "==> benchmark self-test (perfbench oracle + BENCHMARK.json agreement)"
# perfbench is a workspace of its own; its self-test runs every workload
# once untraced and checks each answer against an oracle built from
# validate_document and apply_unchecked, so engine changes that alter a
# verdict fail here before they skew a measurement.
timeout 600 cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> rustdoc gate (every package under crates/, warnings are errors)"
# A private, ambiguous, redundant or unresolved intra-doc link fails
# here. The vendored shims under vendor/ stand in for external crates
# and are not documented.
doc_pkgs=()
for manifest in crates/*/Cargo.toml; do
  doc_pkgs+=(-p "$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)")
done
RUSTDOCFLAGS=-Dwarnings cargo doc -q --no-deps "${doc_pkgs[@]}"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> verify OK"
