//! Deterministic fuzz smoke test, std-only: a fixed-seed LCG drives
//! byte-level mutations of seed documents through the governed streaming
//! validator. This is not a coverage-guided fuzzer — it is a cheap,
//! reproducible battery (same seeds, same cases, every run, including
//! `scripts/verify.sh`) asserting the crash-safety contract of
//! `Limits::default()`: no panic, no error-list overshoot past
//! `max_errors + 1`, and no pathological per-document latency, for
//! arbitrarily mangled input.

use std::time::{Duration, Instant};

use limits::Limits;
use schema::corpus::{PURCHASE_ORDER_XML, PURCHASE_ORDER_XSD, WML_XSD};
use schema::CompiledSchema;
use validator::{validate_chunks_streaming, validate_str_streaming};

/// Knuth's MMIX multiplier; full-period over u64, seeded per corpus so
/// every run of every checkout mutates identically.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() >> 33) as usize % bound.max(1)
    }
}

/// Applies 1–8 random byte-level edits: overwrite, XML-noise splice,
/// deletion, or internal duplication. Lossy re-decoding keeps the input
/// a `&str` (the validator's contract) while still exercising mangled
/// multi-byte sequences via replacement characters.
fn mutate(rng: &mut Lcg, seed_doc: &str) -> String {
    let mut bytes = seed_doc.as_bytes().to_vec();
    const SPLICES: &[&[u8]] = &[
        b"<",
        b">",
        b"&",
        b"\"",
        b"<!--",
        b"]]>",
        b"<![CDATA[",
        b"&#x41;",
        b"&amp;",
        b"<?pi?>",
        b"</",
        b"<a b=\"",
        b"\x80\xb5",
    ];
    for _ in 0..1 + rng.below(8) {
        if bytes.is_empty() {
            bytes.extend_from_slice(b"<x/>");
        }
        let at = rng.below(bytes.len());
        match rng.below(4) {
            0 => bytes[at] = (rng.next() >> 40) as u8,
            1 => {
                let splice = SPLICES[rng.below(SPLICES.len())];
                bytes.splice(at..at, splice.iter().copied());
            }
            2 => {
                let len = rng.below(16).min(bytes.len() - at);
                bytes.drain(at..at + len);
            }
            _ => {
                let len = rng.below(32).min(bytes.len() - at);
                let dup: Vec<u8> = bytes[at..at + len].to_vec();
                bytes.splice(at..at, dup);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn per_doc_budget() -> Duration {
    if cfg!(debug_assertions) {
        Duration::from_millis(800)
    } else {
        Duration::from_millis(100)
    }
}

/// Splits `doc` into 1–9 chunks at LCG-chosen *byte* positions — cuts
/// may land inside multi-byte sequences, CRLF pairs, or tags, which is
/// exactly what the feed path must absorb.
fn random_chunks<'d>(rng: &mut Lcg, doc: &'d str) -> Vec<&'d [u8]> {
    let bytes = doc.as_bytes();
    let mut cuts: Vec<usize> = (0..rng.below(9))
        .map(|_| rng.below(bytes.len() + 1))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut chunks = Vec::with_capacity(cuts.len() + 1);
    let mut prev = 0;
    for cut in cuts {
        chunks.push(&bytes[prev..cut]);
        prev = cut;
    }
    chunks.push(&bytes[prev..]);
    chunks
}

fn smoke(compiled: &CompiledSchema, seed_doc: &str, seed: u64, cases: usize) {
    let max_errors = limits::Limits::default().max_errors;
    let mut rng = Lcg(seed);
    for case in 0..cases {
        let doc = mutate(&mut rng, seed_doc);
        let started = Instant::now();
        let errors = validate_str_streaming(compiled, &doc, &Limits::default());
        let elapsed = started.elapsed();
        assert!(
            errors.len() <= max_errors + 1,
            "case {case}: collected {} errors past the cap of {max_errors}",
            errors.len()
        );
        assert!(
            elapsed < per_doc_budget(),
            "case {case}: {elapsed:?} on {} bytes:\n{doc}",
            doc.len()
        );
        // the same mangled document fed chunk-wise must neither panic
        // nor change the verdict, wherever the cuts land
        let chunked =
            validate_chunks_streaming(compiled, random_chunks(&mut rng, &doc), &Limits::default());
        assert_eq!(
            chunked, errors,
            "case {case}: chunked validation diverged on:\n{doc}"
        );
    }
}

#[test]
fn mangled_purchase_orders_never_panic_or_overshoot() {
    let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
    smoke(&compiled, PURCHASE_ORDER_XML, 0x5eed_0001, 200);
}

#[test]
fn mangled_wml_pages_never_panic_or_overshoot() {
    let compiled = CompiledSchema::parse(WML_XSD).unwrap();
    let page = webgen::render_string(&webgen::DirectoryPageData {
        sub_dirs: vec!["music".into(), "video & more".into(), "incoming".into()],
        current_dir: "/media/archive".into(),
        parent_dir: "/media".into(),
    });
    smoke(&compiled, &page, 0x5eed_0002, 100);
}

#[test]
fn mangled_hostile_corpus_stays_typed_and_bounded() {
    // mutations of already-adversarial input must degrade just as
    // gracefully as mutations of legitimate documents
    let compiled = CompiledSchema::parse(PURCHASE_ORDER_XSD).unwrap();
    for (i, hostile) in [
        include_str!("../corpora/hostile/billion_laughs.xml"),
        include_str!("../corpora/hostile/deep_nesting.xml"),
        include_str!("../corpora/hostile/many_attributes.xml"),
        include_str!("../corpora/hostile/quadratic_blowup.xml"),
    ]
    .iter()
    .enumerate()
    {
        smoke(&compiled, hostile, 0x5eed_0100 + i as u64, 25);
    }
}
