//! Process-global QName intern table.
//!
//! The paper's compile-ahead-of-time pitch (Sect. 6) is that schema
//! knowledge pays its cost once, before any document arrives. This crate
//! extends that to *names*: every element and attribute QName a schema
//! declares is interned once into a global append-only table, and from
//! then on the runtime compares and hashes `Sym` — a `u32` — instead of
//! strings.
//!
//! Two entry points with deliberately different contracts:
//!
//! * [`intern`] adds to the table. Only **schema-side** code calls
//!   this, when a schema's `SymIndex` is built: the set of declared
//!   names is bounded by schema size, so the table cannot grow without
//!   bound.
//! * [`lookup`] never adds: a name no schema declared resolves to
//!   `None`, and a hostile document cannot bloat the table no matter how
//!   many distinct names it invents. Validation does not call it per
//!   element: each schema's `SymIndex` freezes its own `name → Sym` map
//!   when it is built, so the document-side hot path takes no lock, and
//!   [`name`] is read only to spell a symbol into an error message.
//!
//! The table is global (consistent with the process-global DFA intern
//! table in `schema::compiled`), so `Sym`s are stable across schemas:
//! two schemas that both declare `shipTo` agree on its symbol, and the
//! shared interned DFAs can carry `Sym`-keyed transitions.
//!
//! Interned strings are leaked (`Box::leak`): the table is append-only
//! and lives for the process, so each name is one small allocation,
//! once, ever. `symbol_table_bytes` reports the cumulative cost.
//!
//! The table sits behind a `std::sync::RwLock`. A lock poisoned by a
//! panicking holder is recovered rather than propagated, so one failed
//! thread cannot wedge symbol resolution for every other.

use std::collections::HashMap;
use std::sync::{LazyLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An interned QName: a dense `u32` index into the global table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The raw index (dense, starting at 0, in interning order).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(name(*self))
    }
}

#[derive(Default)]
struct Table {
    by_name: HashMap<&'static str, Sym>,
    names: Vec<&'static str>,
    /// Cumulative bytes of leaked name storage (string bytes only; the
    /// index structures are bookkeeping, not payload).
    bytes: usize,
}

static TABLE: LazyLock<RwLock<Table>> = LazyLock::new(Default::default);

// The table only grows, and a holder that panics mid-update leaves at
// worst an unused trailing name, so a poisoned lock is recovered rather
// than propagated.
fn read() -> RwLockReadGuard<'static, Table> {
    TABLE.read().unwrap_or_else(PoisonError::into_inner)
}

fn write() -> RwLockWriteGuard<'static, Table> {
    TABLE.write().unwrap_or_else(PoisonError::into_inner)
}

/// Interns `name`, returning its stable symbol. Idempotent; the second
/// intern of a name is a read-lock lookup.
///
/// Schema-side only: callers must ensure the set of interned names is
/// bounded (e.g. by schema size). Document text should use [`lookup`].
pub fn intern(name: &str) -> Sym {
    if let Some(&sym) = read().by_name.get(name) {
        return sym;
    }
    let mut t = write();
    // racing interner may have won between the locks
    if let Some(&sym) = t.by_name.get(name) {
        return sym;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    let sym = Sym(u32::try_from(t.names.len()).expect("symbol table overflow"));
    t.names.push(leaked);
    t.by_name.insert(leaked, sym);
    t.bytes += leaked.len();
    if obs::enabled() {
        let metrics = obs::metrics();
        metrics
            .counter(
                "symbols_interned_total",
                "QNames interned into the process-global symbol table.",
            )
            .inc();
        metrics
            .gauge(
                "symbol_table_bytes",
                "Cumulative bytes of interned QName storage.",
            )
            .set(t.bytes as i64);
    }
    sym
}

/// Looks `name` up without interning. `None` means the name has never
/// been declared by any schema — on the validation path that is exactly
/// the "undeclared element" case.
#[inline]
pub fn lookup(name: &str) -> Option<Sym> {
    read().by_name.get(name).copied()
}

/// The interned string for `sym`.
///
/// # Panics
/// If `sym` did not come from [`intern`] in this process.
pub fn name(sym: Sym) -> &'static str {
    read().names[sym.0 as usize]
}

/// Number of symbols interned so far.
pub fn count() -> usize {
    read().names.len()
}

/// Cumulative bytes of interned name storage.
pub fn table_bytes() -> usize {
    read().bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = intern("symtest-shipTo");
        let b = intern("symtest-shipTo");
        assert_eq!(a, b);
        assert_eq!(name(a), "symtest-shipTo");
    }

    #[test]
    fn distinct_names_distinct_syms() {
        let a = intern("symtest-a");
        let b = intern("symtest-b");
        assert_ne!(a, b);
        assert_eq!(name(a), "symtest-a");
        assert_eq!(name(b), "symtest-b");
    }

    #[test]
    fn lookup_never_interns() {
        let before = count();
        assert_eq!(lookup("symtest-never-declared-xyzzy"), None);
        assert_eq!(count(), before);
        let sym = intern("symtest-declared");
        assert_eq!(lookup("symtest-declared"), Some(sym));
    }

    #[test]
    fn table_bytes_grows_with_interning() {
        let before = table_bytes();
        intern("symtest-bytes-probe-0123456789");
        assert!(table_bytes() >= before);
    }

    #[test]
    fn display_prints_name() {
        let s = intern("symtest-display");
        assert_eq!(s.to_string(), "symtest-display");
    }

    #[test]
    fn concurrent_intern_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| intern("symtest-race")))
            .collect();
        let syms: Vec<Sym> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }
}
