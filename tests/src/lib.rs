//! Cross-crate integration tests live in this package's `tests/`
//! directory; see `tests/tests/figures.rs` for the figure-by-figure
//! reproduction of the paper's artifacts. This library holds the few
//! helpers several of those test files share.

use xmlparse::{BorrowedEvent, ParseError, Reader};

/// Pulls `src`'s whole event stream through
/// [`Reader::next_event_borrowed`], keeping what `keep` returns for each
/// event up to and including `Eof`, or the error that ended the stream.
/// Borrowed events die with the next pull; these owned snapshots are
/// what lets streams from different readers be compared.
pub fn event_stream(
    src: &str,
    mut keep: impl FnMut(&BorrowedEvent<'_, '_>) -> Option<String>,
) -> Result<Vec<String>, ParseError> {
    let mut reader = Reader::new(src);
    let mut out = Vec::new();
    loop {
        let e = reader.next_event_borrowed()?;
        out.extend(keep(&e));
        if matches!(e, BorrowedEvent::Eof) {
            return Ok(out);
        }
    }
}

/// The full-fidelity snapshot of one event: its `Debug` rendering —
/// every name, attribute, text, flag and span. A `Cow` prints the same
/// whether it borrowed or owned, so two readers agree on a snapshot
/// exactly when they agree on the event.
pub fn snapshot(e: &BorrowedEvent<'_, '_>) -> Option<String> {
    Some(format!("{e:?}"))
}
