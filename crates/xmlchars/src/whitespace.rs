//! Whitespace normalization per the XML Schema `whiteSpace` facet.
//!
//! Simple-type validation (crate `schema`) normalizes lexical values with
//! one of the three modes before applying the remaining facets, exactly as
//! XML Schema Part 2 prescribes.

use std::borrow::Cow;

/// The three values of the `whiteSpace` facet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WhiteSpaceMode {
    /// Keep the value as is (`xsd:string`).
    #[default]
    Preserve,
    /// Replace each tab/CR/LF by a space (`xsd:normalizedString`).
    Replace,
    /// Replace, then collapse runs of spaces and trim (`xsd:token` and all
    /// types derived from it, including numbers and dates).
    Collapse,
}

impl WhiteSpaceMode {
    /// Applies this mode to `value`.
    #[inline]
    pub fn apply<'a>(self, value: &'a str) -> Cow<'a, str> {
        match self {
            WhiteSpaceMode::Preserve => Cow::Borrowed(value),
            WhiteSpaceMode::Replace => replace(value),
            WhiteSpaceMode::Collapse => collapse(value),
        }
    }
}

/// The three whitespace characters `replace` and `collapse` rewrite
/// besides the space itself. All are ASCII, so no UTF-8 sequence holds
/// one of their bytes and the passes below can work byte by byte.
fn is_tab_or_eol(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | b'\r')
}

/// `replace` normalization: each `#x9 | #xA | #xD` becomes a space.
/// One byte pass; the value is borrowed when it holds none of them.
pub fn replace(value: &str) -> Cow<'_, str> {
    if !value.bytes().any(is_tab_or_eol) {
        return Cow::Borrowed(value);
    }
    Cow::Owned(value.replace(['\t', '\n', '\r'], " "))
}

/// `collapse` normalization: `replace`, then collapse space runs and trim.
/// One byte pass; the value is borrowed when it is already collapsed (no
/// tab, CR or LF, no leading, trailing or doubled space).
pub fn collapse(value: &str) -> Cow<'_, str> {
    // a space at the start or after another space is redundant
    let mut after_space = true;
    for b in value.bytes() {
        match b {
            b' ' if after_space => return collapsed(value),
            b' ' => after_space = true,
            b if is_tab_or_eol(b) => return collapsed(value),
            _ => after_space = false,
        }
    }
    // so is one at the end
    if after_space && !value.is_empty() {
        return collapsed(value);
    }
    Cow::Borrowed(value)
}

/// The collapsed copy of a value that is not already collapsed.
fn collapsed(value: &str) -> Cow<'_, str> {
    let mut out = String::with_capacity(value.len());
    for word in value
        .split([' ', '\t', '\n', '\r'])
        .filter(|word| !word.is_empty())
    {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(word);
    }
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserve_is_identity() {
        let v = "  a\tb\n";
        assert_eq!(WhiteSpaceMode::Preserve.apply(v), v);
    }

    #[test]
    fn replace_maps_each_ws_char_to_space() {
        assert_eq!(replace("a\tb\nc\rd"), "a b c d");
        assert_eq!(replace(" a  b "), " a  b ");
        assert!(matches!(replace("plain"), Cow::Borrowed(_)));
    }

    #[test]
    fn collapse_trims_and_collapses() {
        assert_eq!(collapse("  a \t b\n\nc  "), "a b c");
        assert_eq!(collapse(""), "");
        assert_eq!(collapse("   "), "");
        assert_eq!(collapse("already clean"), "already clean");
        assert!(matches!(collapse("already clean"), Cow::Borrowed(_)));
    }

    #[test]
    fn collapse_handles_single_char() {
        assert_eq!(collapse(" x"), "x");
        assert_eq!(collapse("x "), "x");
        assert_eq!(collapse(" "), "");
        assert!(matches!(collapse("x"), Cow::Borrowed(_)));
    }

    #[test]
    fn only_tab_cr_lf_and_space_are_whitespace() {
        // U+00A0 and U+2003 are Unicode spaces, not XML whitespace
        assert!(matches!(collapse("a\u{A0}b"), Cow::Borrowed(_)));
        assert_eq!(collapse(" \u{A0} a\u{2003}\r\nb "), "\u{A0} a\u{2003} b");
        assert_eq!(replace("\u{A0}\t\u{A0}"), "\u{A0} \u{A0}");
        assert!(matches!(collapse("é è"), Cow::Borrowed(_)));
        assert!(matches!(replace("é  è "), Cow::Borrowed(_)));
    }
}
