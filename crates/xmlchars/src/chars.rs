//! XML 1.0 character classes.
//!
//! The predicates below implement the `Char`, `S`, `NameStartChar` and
//! `NameChar` productions of XML 1.0 (Fifth Edition). They are used by the
//! parser for well-formedness checking and by the schema layer for
//! validating `NCName`/`NMTOKEN` lexical values.
//!
//! Beside them sits one byte-class table, [`BYTE_CLASS`], derived from
//! the same predicates at compile time: for every ASCII byte, whether it
//! is a `NameStartChar`, a `NameChar`, or in-line whitespace (SP/HTAB).
//! Bytes `>= 0x80` have no class. [`class_run`] measures a run of one
//! class with one table load per byte; it is the fast path for ASCII
//! names and in-tag whitespace, and the `char` predicates stay the
//! definition for everything else.

/// Returns `true` if `c` is a legal XML 1.0 `Char`.
///
/// Production \[2\]: `#x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
/// [#x10000-#x10FFFF]`.
#[inline]
pub fn is_xml_char(c: char) -> bool {
    matches!(c,
        '\u{9}' | '\u{A}' | '\u{D}'
        | '\u{20}'..='\u{D7FF}'
        | '\u{E000}'..='\u{FFFD}'
        | '\u{10000}'..='\u{10FFFF}')
}

/// Returns `true` if `c` is XML whitespace (production \[3\] `S`).
#[inline]
pub fn is_xml_whitespace(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\r' | '\n')
}

/// Returns `true` if `c` may start an XML `Name` (production \[4\]).
#[inline]
pub const fn is_name_start_char(c: char) -> bool {
    matches!(c,
        ':' | '_'
        | 'A'..='Z' | 'a'..='z'
        | '\u{C0}'..='\u{D6}' | '\u{D8}'..='\u{F6}' | '\u{F8}'..='\u{2FF}'
        | '\u{370}'..='\u{37D}' | '\u{37F}'..='\u{1FFF}'
        | '\u{200C}'..='\u{200D}' | '\u{2070}'..='\u{218F}'
        | '\u{2C00}'..='\u{2FEF}' | '\u{3001}'..='\u{D7FF}'
        | '\u{F900}'..='\u{FDCF}' | '\u{FDF0}'..='\u{FFFD}'
        | '\u{10000}'..='\u{EFFFF}')
}

/// Returns `true` if `c` may continue an XML `Name` (production \[4a\]).
#[inline]
pub const fn is_name_char(c: char) -> bool {
    is_name_start_char(c)
        || matches!(c,
            '-' | '.' | '0'..='9'
            | '\u{B7}' | '\u{300}'..='\u{36F}' | '\u{203F}'..='\u{2040}')
}

/// [`BYTE_CLASS`] bit: the byte is an ASCII `NameStartChar`.
pub const NAME_START: u8 = 1;
/// [`BYTE_CLASS`] bit: the byte is an ASCII `NameChar`.
pub const NAME: u8 = 2;
/// [`BYTE_CLASS`] bit: the byte is in-line whitespace, SP or HTAB. CR
/// and LF are `S` too but break lines, so they stay off the table.
pub const SPACE: u8 = 4;

/// The class bits of every byte: [`NAME_START`], [`NAME`] and [`SPACE`]
/// for ASCII bytes as the `char` predicates define them, nothing for
/// bytes `>= 0x80`, which only a decoded `char` can classify.
pub static BYTE_CLASS: [u8; 256] = byte_classes();

const fn byte_classes() -> [u8; 256] {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 0x80 {
        let c = b as u8 as char;
        if is_name_start_char(c) {
            table[b] |= NAME_START;
        }
        if is_name_char(c) {
            table[b] |= NAME;
        }
        if c == ' ' || c == '\t' {
            table[b] |= SPACE;
        }
        b += 1;
    }
    table
}

/// The length of the run of bytes at the front of `bytes` that all have
/// a bit of `class` in [`BYTE_CLASS`]. Every byte of such a run is one
/// ASCII character, so the run length is also its width in columns.
#[inline]
pub fn class_run(bytes: &[u8], class: u8) -> usize {
    bytes
        .iter()
        .position(|&b| BYTE_CLASS[b as usize] & class == 0)
        .unwrap_or(bytes.len())
}

/// Returns `true` if `s` is a non-empty XML `Name`. The ASCII prefix is
/// checked through [`BYTE_CLASS`]; decoding starts at the first byte
/// the table cannot settle.
pub fn is_name(s: &str) -> bool {
    let (head, tail) = s.split_at(class_run(s.as_bytes(), NAME));
    let mut chars = tail.chars();
    let starts = match head.bytes().next() {
        Some(b) => BYTE_CLASS[b as usize] & NAME_START != 0,
        None => matches!(chars.next(), Some(c) if is_name_start_char(c)),
    };
    starts && chars.all(is_name_char)
}

/// Returns `true` if `s` is a non-empty `NMTOKEN` (every char a `NameChar`).
pub fn is_nmtoken(s: &str) -> bool {
    !s.is_empty() && s.chars().all(is_name_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_is_exactly_the_four_s_chars() {
        for c in [' ', '\t', '\r', '\n'] {
            assert!(is_xml_whitespace(c));
        }
        assert!(!is_xml_whitespace('\u{A0}'));
        assert!(!is_xml_whitespace('\u{B}'));
    }

    #[test]
    fn control_chars_are_not_xml_chars() {
        assert!(!is_xml_char('\u{0}'));
        assert!(!is_xml_char('\u{8}'));
        assert!(!is_xml_char('\u{B}'));
        assert!(!is_xml_char('\u{1F}'));
        assert!(is_xml_char('\u{9}'));
        assert!(is_xml_char(' '));
    }

    #[test]
    fn surrogate_gap_is_excluded() {
        // chars can't encode surrogates directly; check the boundaries.
        assert!(is_xml_char('\u{D7FF}'));
        assert!(is_xml_char('\u{E000}'));
        assert!(is_xml_char('\u{FFFD}'));
        assert!(!is_xml_char('\u{FFFE}'));
        assert!(!is_xml_char('\u{FFFF}'));
    }

    #[test]
    fn names_accept_colon_and_underscore_starts() {
        assert!(is_name("purchaseOrder"));
        assert!(is_name("_private"));
        assert!(is_name("xsd:element"));
        assert!(is_name("a-b.c1"));
        assert!(!is_name(""));
        assert!(!is_name("1abc"));
        assert!(!is_name("-abc"));
        assert!(!is_name("a b"));
    }

    #[test]
    fn nmtoken_allows_leading_digit_and_dash() {
        assert!(is_nmtoken("007"));
        assert!(is_nmtoken("-x-"));
        assert!(is_nmtoken("US"));
        assert!(!is_nmtoken(""));
        assert!(!is_nmtoken("a b"));
    }

    #[test]
    fn byte_classes_agree_with_the_char_predicates() {
        for b in 0..=u8::MAX {
            let class = BYTE_CLASS[b as usize];
            let c = b as char;
            if b.is_ascii() {
                assert_eq!(class & NAME_START != 0, is_name_start_char(c), "{b:#04x}");
                assert_eq!(class & NAME != 0, is_name_char(c), "{b:#04x}");
                assert_eq!(
                    class & SPACE != 0,
                    is_xml_whitespace(c) && c != '\r' && c != '\n',
                    "{b:#04x}"
                );
            } else {
                assert_eq!(class, 0, "{b:#04x} is not ASCII");
            }
        }
    }

    #[test]
    fn class_runs_stop_at_the_first_byte_outside_the_class() {
        assert_eq!(class_run(b"po:item-1.x>", NAME), 11);
        assert_eq!(class_run(b" \t \r\n", SPACE), 3);
        assert_eq!(class_run("ab\u{B7}c".as_bytes(), NAME), 2);
        assert_eq!(class_run(b"", NAME), 0);
    }

    #[test]
    fn names_with_non_ascii_after_an_ascii_prefix() {
        assert!(is_name("a\u{B7}b"));
        assert!(is_name("a\u{301}"));
        assert!(is_name("\u{C0}1"));
        assert!(!is_name("\u{B7}a"));
        assert!(!is_name("a\u{D7}"));
        assert!(!is_name("ab!"));
        assert!(!is_name("9\u{C0}"));
    }

    #[test]
    fn unicode_letters_are_name_chars() {
        assert!(is_name("übermaß"));
        assert!(is_name("数量"));
        assert!(is_name_char('\u{B7}'));
        assert!(!is_name_start_char('\u{B7}'));
    }
}
