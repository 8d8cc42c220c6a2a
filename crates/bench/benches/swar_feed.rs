//! **B12 — SWAR scanning and chunked feed** (group `B12-swar-feed`).
//!
//! Two questions, one bench:
//!
//! * What does the u64 SWAR sweep buy over the byte-at-a-time loop it
//!   replaced? `scan-swar` vs `scan-scalar` run the two classifiers over
//!   the same buffers — an unbroken plain-ASCII run (peak rate), 79-char
//!   LF-terminated prose lines (realistic text), and a rendered 1000-item
//!   purchase order (markup-dense worst case, runs of a few dozen bytes).
//!   The acceptance bar is SWAR ≥ 1.3× scalar on the LF-only text-heavy
//!   inputs.
//! * What does chunked feeding cost against the whole-input borrowed
//!   parse? `feed-chunked` drives the same document through `FeedReader`
//!   in 64 KiB chunks; `whole-borrowed` is the PR 4 baseline path.
//!
//! Before the criterion groups run, a one-shot pass streams a **1 GiB**
//! synthetic purchase order (a repeated `<item>` block between one
//! prefix and one suffix — never materialized in memory) through
//! `FeedReader` alone and through `validate_chunks_streaming`, printing
//! GB/s; EXPERIMENTS.md B12 records those numbers. Peak buffering stays
//! at one token regardless of stream size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

use bench::po_schema;
use limits::Limits;
use xmlparse::scan::{scan_plain, scan_plain_scalar};
use xmlparse::{BorrowedEvent, FeedReader, Reader};

/// Walks a whole buffer with the given classifier the way the reader
/// does: take the plain run, step over the stop byte, repeat.
fn sweep(bytes: &[u8], scan: fn(&[u8], usize, [u8; 2]) -> usize) -> usize {
    let mut pos = 0;
    let mut runs = 0;
    while pos < bytes.len() {
        let next = scan(bytes, pos, [b'<', b']']);
        pos = if next == pos { pos + 1 } else { next };
        runs += 1;
    }
    runs
}

fn drain_borrowed(src: &str) -> usize {
    let mut reader = Reader::new(src);
    let mut events = 0;
    loop {
        match reader
            .next_event_borrowed()
            .expect("bench corpus is well-formed")
        {
            BorrowedEvent::Eof => return events,
            _ => events += 1,
        }
    }
}

fn drain_fed(chunks: &[&[u8]]) -> usize {
    // FeedReader delivers Eof to the sink; skip it to match drain_borrowed
    let mut events = 0;
    let mut count = |e: &BorrowedEvent<'_, '_>| {
        if !matches!(e, BorrowedEvent::Eof) {
            events += 1;
        }
        true
    };
    let mut feeder = FeedReader::new();
    for chunk in chunks {
        feeder
            .feed(chunk, &mut count)
            .expect("bench corpus is well-formed");
    }
    feeder
        .finish(&mut count)
        .expect("bench corpus is well-formed");
    events
}

/// (prefix, repeatable `<item>…</item>` block of ~256 KiB, suffix): a
/// purchase order whose `<items>` section can be repeated to any length
/// without ever holding the whole document in memory.
fn stream_parts() -> (String, String, String) {
    let one = webgen::render_order_string(&webgen::generate_order(17, 1));
    let open = one.find("<items>").expect("items") + "<items>".len();
    let close = one.find("</items>").expect("items close");
    let item = &one[open..close];
    (
        one[..open].to_string(),
        item.repeat(256 * 1024 / item.len() + 1),
        one[close..].to_string(),
    )
}

/// One-shot GiB-scale pass, printed rather than criterion-timed: a
/// multi-second single iteration is better reported directly than
/// sampled.
fn gigabyte_pass() {
    const TARGET: usize = 1 << 30;
    let (prefix, block, suffix) = stream_parts();
    let reps = (TARGET - prefix.len() - suffix.len()) / block.len() + 1;
    let total = prefix.len() + reps * block.len() + suffix.len();

    // parse only
    let started = Instant::now();
    let mut events = 0u64;
    let mut peak_buffered = 0;
    let mut feeder = FeedReader::with_limits(Limits::unbounded());
    let mut push = |chunk: &[u8], feeder: &mut FeedReader| {
        feeder
            .feed(chunk, |_| {
                events += 1;
                true
            })
            .expect("synthetic stream is well-formed");
    };
    push(prefix.as_bytes(), &mut feeder);
    for _ in 0..reps {
        push(block.as_bytes(), &mut feeder);
        peak_buffered = peak_buffered.max(feeder.buffered_bytes());
    }
    push(suffix.as_bytes(), &mut feeder);
    feeder.finish(|_| true).expect("stream is well-formed");
    let parse_secs = started.elapsed().as_secs_f64();
    eprintln!(
        "B12 feed-parse: {:.2} GiB in {parse_secs:.2}s = {:.3} GB/s \
         ({events} events, peak buffer {peak_buffered} B)",
        total as f64 / (1u64 << 30) as f64,
        total as f64 / 1e9 / parse_secs,
    );

    // parse + O(depth) streaming validation
    let po = po_schema();
    po.warm();
    let chunks = std::iter::once(prefix.as_bytes())
        .chain(std::iter::repeat_n(block.as_bytes(), reps))
        .chain(std::iter::once(suffix.as_bytes()));
    let started = Instant::now();
    let errors = validator::validate_chunks_streaming(&po, chunks, &Limits::unbounded());
    let validate_secs = started.elapsed().as_secs_f64();
    assert!(errors.is_empty(), "synthetic stream must validate");
    eprintln!(
        "B12 feed-validate: {:.2} GiB in {validate_secs:.2}s = {:.3} GB/s",
        total as f64 / (1u64 << 30) as f64,
        total as f64 / 1e9 / validate_secs,
    );
}

fn swar_feed(c: &mut Criterion) {
    gigabyte_pass();

    let mut group = c.benchmark_group("B12-swar-feed");
    group.sample_size(20);

    // classifier head-to-head on three byte distributions
    let unbroken = "the quick brown fox jumps over the lazy dog ".repeat(24_000);
    let prose =
        "a line of ordinary prose text, just under eighty columns wide as usual\n".repeat(15_000);
    let markup = webgen::render_order_string(&webgen::generate_order(17, 1000));
    for (name, buf) in [
        ("unbroken-run", unbroken.as_str()),
        ("prose-lines", prose.as_str()),
        ("markup-dense", markup.as_str()),
    ] {
        let bytes = buf.as_bytes();
        assert_eq!(sweep(bytes, scan_plain), sweep(bytes, scan_plain_scalar));
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("scan-swar", name), &bytes, |b, bytes| {
            b.iter(|| black_box(sweep(bytes, scan_plain)))
        });
        group.bench_with_input(BenchmarkId::new("scan-scalar", name), &bytes, |b, bytes| {
            b.iter(|| black_box(sweep(bytes, scan_plain_scalar)))
        });
    }

    // chunked feed vs whole-input borrowed parse, same document
    let chunks: Vec<&[u8]> = markup.as_bytes().chunks(64 * 1024).collect();
    assert_eq!(drain_fed(&chunks), drain_borrowed(&markup));
    group.throughput(Throughput::Bytes(markup.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("feed-chunked", 1000),
        &chunks,
        |b, chunks| b.iter(|| black_box(drain_fed(chunks))),
    );
    group.bench_with_input(
        BenchmarkId::new("whole-borrowed", 1000),
        &markup,
        |b, xml| b.iter(|| black_box(drain_borrowed(xml))),
    );
    group.finish();
}

criterion_group!(benches, swar_feed);
criterion_main!(benches);
