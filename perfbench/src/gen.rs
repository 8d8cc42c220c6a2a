//! Seeded inputs for the three workloads.
//!
//! Everything here is a pure function of the seed and a [`Scale`]. Sizes
//! are drawn one per stratum of a log spread, and the share of mutated
//! and "messy" (entity or CRLF) documents is an exact count, so the size
//! distribution — and with it every throughput and percentile — barely
//! moves from seed to seed while the document contents do.

use validator::{DomPatch, NewNode};

/// Input sizes for one run. [`Scale::FULL`] is what the benchmark
/// measures; the self-tests use [`Scale::SMALL`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Documents in the `validate-stream` corpus.
    pub stream_docs: usize,
    /// Sessions opened per `edit-session` round.
    pub sessions: usize,
    /// 16-patch blocks in each session's script.
    pub blocks_per_session: usize,
    /// Smallest and largest purchase order of a session, in items.
    pub session_items: (usize, usize),
    /// `POST /v1/validate` requests per `http-mixed` round, invalid ones
    /// included.
    pub http_validates: usize,
    /// How many of those carry one known mutation.
    pub http_invalid: usize,
    /// Deep-nesting requests (answered 422) per round.
    pub http_hostile: usize,
    /// `GET /v1/page/orders/…` requests per round.
    pub http_pages: usize,
    /// Sessions opened over HTTP per round (12 patches each).
    pub http_sessions: usize,
}

impl Scale {
    /// The measured configuration: at least a thousand timed items per
    /// workload, so p99 has ten items beyond it.
    ///
    /// `edit-session` runs 24 blocks (384 patches) per session, so that
    /// the summed patch minima are of the same order as the summed open
    /// minima and `ops_per_s` moves with either path.
    ///
    /// `http-mixed` gives each of the three routes it drives (validate,
    /// page, session patch) a third of the timed requests: no record of
    /// real traffic exists to weight them, and with equal thirds the
    /// median request lies inside the middle route's population rather
    /// than on a boundary between two. Within the validate third the
    /// valid/invalid/hostile split is 8:1:1, the profile of the repo's
    /// HTTP load bench (B14).
    pub const FULL: Scale = Scale {
        stream_docs: 1024,
        sessions: 24,
        blocks_per_session: 24,
        session_items: (50, 400),
        http_validates: 324,
        http_invalid: 36,
        http_hostile: 36,
        http_pages: 360,
        http_sessions: 28,
    };

    /// A quick configuration for tests.
    pub const SMALL: Scale = Scale {
        stream_docs: 48,
        sessions: 3,
        blocks_per_session: 1,
        session_items: (20, 60),
        http_validates: 18,
        http_invalid: 2,
        http_hostile: 2,
        http_pages: 8,
        http_sessions: 2,
    };
}

/// SplitMix64: small, fast and the same on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two inputs
    /// drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible for the
    /// small ranges used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }

    /// `count` distinct flags set among `n` positions.
    pub fn flags(&mut self, n: usize, count: usize) -> Vec<bool> {
        let mut v: Vec<bool> = (0..n).map(|i| i < count).collect();
        self.shuffle(&mut v);
        v
    }
}

/// `n` sizes spread log-uniformly over `lo..=hi` — the midpoint of each
/// of `n` equal strata — in seeded order. The multiset of sizes is the
/// same for every seed; only which document gets which size changes.
pub fn log_spread(rng: &mut Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let (lo_f, hi_f) = (lo as f64, hi as f64 + 1.0);
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| {
            let u = (i as f64 + 0.5) / n as f64;
            ((lo_f * (hi_f / lo_f).powf(u)) as usize).clamp(lo, hi)
        })
        .collect();
    rng.shuffle(&mut sizes);
    sizes
}

/// What an operation must answer, fixed when its input is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Valid by construction (a committed patch, a clean document).
    Valid,
    /// Carries one known mutation; the first error has this kind label.
    Invalid(&'static str),
}

impl Expect {
    /// Whether `errors` is the answer this expectation allows.
    pub fn admits(self, errors: &[validator::ValidationError]) -> bool {
        match self {
            Expect::Valid => errors.is_empty(),
            Expect::Invalid(label) => errors.first().is_some_and(|e| e.kind.label() == label),
        }
    }
}

/// One document with its schema and expected verdict.
#[derive(Debug, Clone)]
pub struct Doc {
    /// Registry name of the schema.
    pub schema: &'static str,
    /// The document text.
    pub text: String,
    /// The verdict it was built to get.
    pub expect: Expect,
}

/// How a document is dirtied on top of its clean rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Messy {
    Clean,
    Entities,
    Crlf,
}

/// How a document is mutated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    None,
    UnexpectedChild,
    BadFacet,
}

/// The offset just past the `n`-th (0-based) occurrence of `needle`.
fn after_nth(text: &str, needle: &str, n: usize) -> usize {
    let mut at = 0;
    for _ in 0..=n {
        at += text[at..].find(needle).expect("needle occurs n+1 times") + needle.len();
    }
    at
}

/// A purchase order of `items` lines, messy and mutated as asked.
fn po_doc(rng: &mut Rng, items: usize, messy: Messy, mutation: Mutation) -> Doc {
    let mut order = webgen::generate_order(rng.next_u64(), items);
    if messy == Messy::Entities {
        // `&` and `<` render as references: the reader's owned fallback
        order.comment = Some("Hurry & water the <lawn>".into());
        for item in order.items.iter_mut().filter(|i| i.comment.is_some()) {
            item.comment = Some("Fragile & heavy".into());
        }
    }
    let mut text = webgen::render_order_string(&order);
    if messy == Messy::Crlf {
        // raw CRLF inside character data: end-of-line normalization
        text = text.replacen("Hurry, my lawn", "Hurry,\r\nmy lawn", 1);
    }
    let k = rng.below(items.max(1));
    let expect = match mutation {
        Mutation::None => Expect::Valid,
        Mutation::UnexpectedChild if items > 0 => {
            text.insert_str(after_nth(&text, "</productName>", k), "<bogus/>");
            Expect::Invalid("UnexpectedChild")
        }
        Mutation::BadFacet if items > 0 => {
            // quantity is a positiveInteger below 100
            let start = after_nth(&text, "<quantity>", k);
            let end = start + text[start..].find('<').expect("quantity close");
            text.replace_range(start..end, "100");
            Expect::Invalid("SimpleType")
        }
        Mutation::UnexpectedChild | Mutation::BadFacet => {
            text = text.replacen("<items/>", "<items><bogus/></items>", 1);
            Expect::Invalid("UnexpectedChild")
        }
    };
    Doc {
        schema: "purchase-order",
        text,
        expect,
    }
}

/// A WML directory page listing `breadth` subdirectories.
fn wml_doc(rng: &mut Rng, breadth: usize, messy: Messy, mutation: Mutation) -> Doc {
    let base = format!("/media/{:04x}", rng.below(0x10000));
    let data = webgen::DirectoryPageData {
        sub_dirs: (0..breadth)
            .map(|_| format!("d{:06x}", rng.below(1 << 24)))
            .collect(),
        current_dir: if messy == Messy::Entities {
            format!("{base}/R&D <new>")
        } else {
            base.clone()
        },
        parent_dir: "/media".into(),
    };
    let mut text = webgen::render_string(&data);
    if messy == Messy::Crlf {
        text = text.replacen("..</option>", "..\r\n</option>", 1);
    }
    let expect = match mutation {
        Mutation::None => Expect::Valid,
        Mutation::UnexpectedChild => {
            // an option outside its select
            text = text.replacen("<p>", "<p><option value=\"x\">stray</option>", 1);
            Expect::Invalid("UnexpectedChild")
        }
        Mutation::BadFacet => {
            // align is an enumeration of left/center/right
            text = text.replacen("<p>", "<p align=\"middle\">", 1);
            Expect::Invalid("AttributeValue")
        }
    };
    Doc {
        schema: "wml",
        text,
        expect,
    }
}

/// Mixes `n` documents: 5/8 purchase orders over `po_items`, 3/8 WML
/// pages over `wml_breadth`, exactly `invalid` mutated and about 1/10
/// messy.
fn doc_mix(
    rng: &mut Rng,
    n: usize,
    invalid: usize,
    po_items: (usize, usize),
    wml_breadth: (usize, usize),
) -> Vec<Doc> {
    let n_po = n * 5 / 8;
    let mut po_sizes = log_spread(rng, n_po, po_items.0, po_items.1).into_iter();
    let mut wml_sizes = log_spread(rng, n - n_po, wml_breadth.0, wml_breadth.1).into_iter();
    let is_po = rng.flags(n, n_po);
    let mutated = rng.flags(n, invalid);
    let messy = rng.flags(n, n / 10);
    (0..n)
        .map(|i| {
            let mutation = match (mutated[i], rng.below(2)) {
                (false, _) => Mutation::None,
                (true, 0) => Mutation::UnexpectedChild,
                (true, _) => Mutation::BadFacet,
            };
            let messy = match (messy[i], rng.below(2)) {
                (false, _) => Messy::Clean,
                (true, 0) => Messy::Entities,
                (true, _) => Messy::Crlf,
            };
            if is_po[i] {
                po_doc(rng, po_sizes.next().expect("po size"), messy, mutation)
            } else {
                wml_doc(rng, wml_sizes.next().expect("wml size"), messy, mutation)
            }
        })
        .collect()
}

/// The `validate-stream` corpus: purchase orders of 1–300 items and WML
/// pages of breadth 2–64.
pub fn stream_corpus(seed: u64, scale: &Scale) -> Vec<Doc> {
    let n = scale.stream_docs;
    doc_mix(&mut Rng::new(seed, 1), n, n / 8, (1, 300), (2, 64))
}

/// What a scripted patch exercises; the per-layer timings are split by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatchKind {
    /// A committed `set_text`.
    SetText,
    /// A committed `set_attr`.
    SetAttr,
    /// A committed append of a new item.
    Append,
    /// The committed removal of that item.
    Remove,
    /// Any patch the session must reject.
    Reject,
}

impl PatchKind {
    /// Every kind, in report order.
    pub const ALL: [PatchKind; 5] = [
        PatchKind::SetText,
        PatchKind::SetAttr,
        PatchKind::Append,
        PatchKind::Remove,
        PatchKind::Reject,
    ];

    /// The metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            PatchKind::SetText => "set_text",
            PatchKind::SetAttr => "set_attr",
            PatchKind::Append => "append",
            PatchKind::Remove => "remove",
            PatchKind::Reject => "reject",
        }
    }
}

/// One patch of a session script with its expected verdict.
#[derive(Debug, Clone)]
pub struct ScriptedPatch {
    /// What it exercises.
    pub kind: PatchKind,
    /// The patch.
    pub patch: DomPatch,
    /// Whether it must commit, or which error kind rejects it.
    pub expect: Expect,
}

/// A purchase order to open as a session, and the patches to run on it.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The document text.
    pub text: String,
    /// The patch script, applied in order.
    pub script: Vec<ScriptedPatch>,
}

/// Units of a script block. A pair is an append immediately undone, so
/// the item count every later path relies on stays fixed.
#[derive(Clone, Copy)]
enum Unit {
    Quantity,
    ProductName,
    PartNum,
    OrderDate,
    AppendRemove,
    BadQuantity,
    BadPartNum,
    SecondShipTo,
}

/// A 16-patch block: 11 committed edits, one append/remove pair and
/// one rejection of each kind. The cheap edits are a clear majority, so
/// the median patch falls inside one population rather than on the
/// boundary between two, where it would jump with the host.
const BLOCK16: &[(Unit, usize)] = &[
    (Unit::Quantity, 5),
    (Unit::ProductName, 3),
    (Unit::PartNum, 2),
    (Unit::OrderDate, 1),
    (Unit::AppendRemove, 1),
    (Unit::BadQuantity, 1),
    (Unit::BadPartNum, 1),
    (Unit::SecondShipTo, 1),
];

/// The 12-patch block an HTTP session runs.
const BLOCK12: &[(Unit, usize)] = &[
    (Unit::Quantity, 3),
    (Unit::ProductName, 1),
    (Unit::PartNum, 2),
    (Unit::OrderDate, 1),
    (Unit::AppendRemove, 1),
    (Unit::BadQuantity, 1),
    (Unit::BadPartNum, 1),
    (Unit::SecondShipTo, 1),
];

const PRODUCTS: &[&str] = &["Lawnmower", "Baby Monitor", "Rake", "Sprinkler", "Hose"];

fn part_num(rng: &mut Rng) -> String {
    format!(
        "{:03}-{}{}",
        rng.below(1000),
        (b'A' + rng.below(26) as u8) as char,
        (b'A' + rng.below(26) as u8) as char
    )
}

/// Builds the script for a purchase order of `items` (> 0) lines, as
/// rendered by `webgen::render_order_string`: the root is child 0 of
/// the document node, `items` is child 3 of the root, and an item's
/// children are productName, quantity, USPrice[, comment].
fn script(
    rng: &mut Rng,
    items: usize,
    blocks: usize,
    block: &[(Unit, usize)],
) -> Vec<ScriptedPatch> {
    let mut units: Vec<Unit> = Vec::new();
    for _ in 0..blocks {
        for &(unit, count) in block {
            units.extend(std::iter::repeat_n(unit, count));
        }
    }
    rng.shuffle(&mut units);
    let mut out = Vec::new();
    for unit in units {
        let k = rng.below(items);
        let item = vec![0, 3, k];
        let text_of = |child: usize| vec![0, 3, k, child, 0];
        let committed = |kind, patch| ScriptedPatch {
            kind,
            patch,
            expect: Expect::Valid,
        };
        let rejected = |patch, label| ScriptedPatch {
            kind: PatchKind::Reject,
            patch,
            expect: Expect::Invalid(label),
        };
        match unit {
            Unit::Quantity => out.push(committed(
                PatchKind::SetText,
                DomPatch::SetText {
                    at: text_of(1),
                    text: (1 + rng.below(99)).to_string(),
                },
            )),
            Unit::ProductName => out.push(committed(
                PatchKind::SetText,
                DomPatch::SetText {
                    at: text_of(0),
                    text: PRODUCTS[rng.below(PRODUCTS.len())].into(),
                },
            )),
            Unit::PartNum => out.push(committed(
                PatchKind::SetAttr,
                DomPatch::SetAttr {
                    at: item,
                    name: "partNum".into(),
                    value: part_num(rng),
                },
            )),
            Unit::OrderDate => out.push(committed(
                PatchKind::SetAttr,
                DomPatch::SetAttr {
                    at: vec![0],
                    name: "orderDate".into(),
                    value: format!("2001-{:02}-{:02}", 1 + rng.below(12), 1 + rng.below(28)),
                },
            )),
            Unit::AppendRemove => {
                let xml = format!(
                    "<item partNum=\"{}\"><productName>Extra</productName>\
                     <quantity>{}</quantity><USPrice>{}.99</USPrice></item>",
                    part_num(rng),
                    1 + rng.below(99),
                    1 + rng.below(400)
                );
                out.push(committed(
                    PatchKind::Append,
                    DomPatch::AppendChild {
                        at: vec![0, 3],
                        child: NewNode::Element { xml },
                    },
                ));
                out.push(committed(
                    PatchKind::Remove,
                    DomPatch::RemoveChild {
                        at: vec![0, 3],
                        index: items,
                    },
                ));
            }
            Unit::BadQuantity => out.push(rejected(
                DomPatch::SetText {
                    at: text_of(1),
                    text: ["0", "100", "250"][rng.below(3)].into(),
                },
                "SimpleType",
            )),
            Unit::BadPartNum => out.push(rejected(
                DomPatch::SetAttr {
                    at: item,
                    name: "partNum".into(),
                    value: format!("{}-ab", rng.below(100)),
                },
                "AttributeValue",
            )),
            Unit::SecondShipTo => out.push(rejected(
                DomPatch::InsertChild {
                    at: vec![0],
                    index: 1,
                    child: NewNode::Element {
                        xml: "<shipTo country=\"US\"><name>Second</name><street>1 Elm Way\
                              </street><city>Old Town</city><state>OR</state>\
                              <zip>97001</zip></shipTo>"
                            .into(),
                    },
                },
                "UnexpectedChild",
            )),
        }
    }
    out
}

fn session_spec(
    rng: &mut Rng,
    items: usize,
    messy: bool,
    blocks: usize,
    block: &[(Unit, usize)],
) -> SessionSpec {
    let doc = po_doc(
        rng,
        items,
        if messy { Messy::Entities } else { Messy::Clean },
        Mutation::None,
    );
    SessionSpec {
        text: doc.text,
        script: script(rng, items, blocks, block),
    }
}

/// The `edit-session` inputs: purchase orders of 50–400 items, about
/// 1/10 with entity references, each with a script of 16-patch blocks.
pub fn edit_sessions(seed: u64, scale: &Scale) -> Vec<SessionSpec> {
    let rng = &mut Rng::new(seed, 2);
    let (lo, hi) = scale.session_items;
    let sizes = log_spread(rng, scale.sessions, lo, hi);
    let messy = rng.flags(scale.sessions, scale.sessions.div_ceil(10));
    sizes
        .into_iter()
        .zip(messy)
        .map(|(items, messy)| session_spec(rng, items, messy, scale.blocks_per_session, BLOCK16))
        .collect()
}

/// One timed unit of the `http-mixed` traffic.
#[derive(Debug, Clone)]
pub enum HttpUnit {
    /// `POST /v1/validate/{schema}` with a document.
    Validate(Doc),
    /// `POST /v1/validate/wml` with a document nested past the depth budget.
    Hostile(String),
    /// `GET /v1/page/orders/{seed}/{count}`.
    Page {
        /// Order seed.
        seed: u64,
        /// Order lines.
        count: usize,
    },
    /// `POST /v1/session/purchase-order`, the session's patches, then an
    /// untimed `DELETE`.
    Session(SessionSpec),
}

/// A document nested `depth` deep, past the default depth budget
/// (1024): the server must answer 422 with the library's typed verdict.
fn hostile_doc(depth: usize) -> String {
    let mut text = String::from("<wml><card><p>");
    text.push_str(&"<b>".repeat(depth));
    text.push_str(&"</b>".repeat(depth));
    text.push_str("</p></card></wml>");
    text
}

/// The `http-mixed` traffic for one round, in the seeded order every
/// round replays: small PO/WML validations (some invalid), deep-nesting
/// documents, compiled order pages and patch sessions, in the shares
/// [`Scale::FULL`] explains.
pub fn http_mix(seed: u64, scale: &Scale) -> Vec<HttpUnit> {
    let rng = &mut Rng::new(seed, 3);
    let n = scale.http_validates;
    let mut units: Vec<HttpUnit> = doc_mix(rng, n, scale.http_invalid, (1, 8), (2, 8))
        .into_iter()
        .map(HttpUnit::Validate)
        .collect();
    let depths = log_spread(rng, scale.http_hostile, 1100, 1300);
    units.extend(
        depths
            .into_iter()
            .map(|d| HttpUnit::Hostile(hostile_doc(d))),
    );
    let counts = log_spread(rng, scale.http_pages, 1, 16);
    units.extend(counts.into_iter().map(|count| HttpUnit::Page {
        seed: rng.next_u64() >> 1,
        count,
    }));
    let sizes = log_spread(rng, scale.http_sessions, 4, 24);
    let messy = rng.flags(scale.http_sessions, scale.http_sessions.div_ceil(10));
    for (items, messy) in sizes.into_iter().zip(messy) {
        units.push(HttpUnit::Session(session_spec(
            rng, items, messy, 1, BLOCK12,
        )));
    }
    rng.shuffle(&mut units);
    units
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_spread_is_seeded_order_over_fixed_sizes() {
        let a = log_spread(&mut Rng::new(7, 0), 100, 1, 300);
        let b = log_spread(&mut Rng::new(7, 0), 100, 1, 300);
        let mut c = log_spread(&mut Rng::new(8, 0), 100, 1, 300);
        assert_eq!(a, b);
        assert_ne!(a, c);
        c.sort_unstable();
        let mut a = a;
        a.sort_unstable();
        assert_eq!(a, c, "every seed draws the same sizes");
        assert!(a.iter().all(|&s| (1..=300).contains(&s)));
        assert!(a.iter().any(|&s| s < 5) && a.iter().any(|&s| s > 200));
    }

    #[test]
    fn mix_shares_are_exact() {
        let docs = stream_corpus(3, &Scale::SMALL);
        let invalid = docs.iter().filter(|d| d.expect != Expect::Valid).count();
        assert_eq!(invalid, Scale::SMALL.stream_docs / 8);
    }
}
