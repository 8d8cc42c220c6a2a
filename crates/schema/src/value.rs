//! Typed values for the simple-type system: an exact decimal, a date, and
//! helpers for the integer family. Range facets (`minInclusive` …) compare
//! *values*, not lexical strings, so these types implement total orders.
//!
//! Values are parsed in one pass over their bytes. A range bound is parsed
//! once, when its simple type's plan is built, into exact decimal digits
//! (or a [`Date`], or an `f64`); a value then costs one parse and one
//! comparison per bound. Decimals of different integer-digit counts
//! compare by the count alone.

use std::cmp::Ordering;
use std::fmt;

/// An exact decimal: sign, integer digits and fraction digits, normalized
/// (no leading zeros in the integer part, no trailing zeros in the
/// fraction). Covers `xsd:decimal` and the whole integer family with
/// unbounded precision, as the spec requires.
///
/// A borrowed view: the digit runs are slices of the lexical value, so
/// parsing and comparing never allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decimal<'a> {
    negative: bool,
    /// Integer digits, most significant first; empty means 0.
    int_digits: &'a str,
    /// Fraction digits, most significant first; no trailing zeros.
    frac_digits: &'a str,
}

/// Error parsing a lexical decimal/integer/date.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexicalError {
    /// The offending lexical value.
    pub lexical: String,
    /// The expected value-space description.
    pub expected: &'static str,
}

impl fmt::Display for LexicalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} is not a valid {}", self.lexical, self.expected)
    }
}

impl std::error::Error for LexicalError {}

impl<'a> Decimal<'a> {
    /// Parses an `xsd:decimal` lexical value: optional sign, digits,
    /// optional fraction. At least one digit must be present.
    pub fn parse(lexical: &'a str) -> Result<Decimal<'a>, LexicalError> {
        Decimal::scan(lexical)
            .map(|(d, _)| d)
            .ok_or_else(|| LexicalError {
                lexical: lexical.to_string(),
                expected: "decimal",
            })
    }

    /// [`parse`](Self::parse) in one pass over the bytes, also telling
    /// whether a decimal point was written (an integer type rejects one
    /// even in `5.` or `5.0`); `None` when the value is not a decimal.
    /// Always inlined, so the result is built where its caller keeps it
    /// instead of being returned through memory and copied.
    #[inline(always)]
    pub(crate) fn scan(lexical: &'a str) -> Option<(Decimal<'a>, bool)> {
        let b = lexical.as_bytes();
        let (negative, start) = match b.first() {
            Some(b'-') => (true, 1),
            Some(b'+') => (false, 1),
            _ => (false, 0),
        };
        let mut at = start;
        while at < b.len() && b[at] == b'0' {
            at += 1;
        }
        let int_start = at;
        while at < b.len() && b[at].is_ascii_digit() {
            at += 1;
        }
        let int_end = at;
        let point = at < b.len() && b[at] == b'.';
        let frac_start = at + usize::from(point);
        let mut frac_end = frac_start;
        if point {
            at += 1;
            while at < b.len() && b[at].is_ascii_digit() {
                at += 1;
                if b[at - 1] != b'0' {
                    frac_end = at;
                }
            }
        }
        // a stray byte, or no digit on either side of the point
        if at != b.len() || (int_end == start && at == frac_start) {
            return None;
        }
        // every byte is ASCII, so these split no character
        let int_digits = &lexical[int_start..int_end];
        let frac_digits = &lexical[frac_start..frac_end];
        let zero = int_digits.is_empty() && frac_digits.is_empty();
        let decimal = Decimal {
            negative: negative && !zero,
            int_digits,
            frac_digits,
        };
        Some((decimal, point))
    }

    /// The whole number spelled `digits` (no sign, no leading zero; empty
    /// for 0), negated when `negative`.
    pub(crate) const fn whole(negative: bool, digits: &'a str) -> Decimal<'a> {
        Decimal {
            negative,
            int_digits: digits,
            frac_digits: "",
        }
    }

    /// Whether the value is an integer (empty fraction).
    pub fn is_integer(&self) -> bool {
        self.frac_digits.is_empty()
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.int_digits.is_empty() && self.frac_digits.is_empty()
    }

    /// Whether the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        !self.negative && !self.is_zero()
    }

    /// Whether the value is negative.
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// Total count of significant digits (`totalDigits` facet).
    pub fn total_digits(&self) -> usize {
        let n = self.int_digits.len() + self.frac_digits.len();
        if n == 0 {
            1 // zero has one digit
        } else {
            n
        }
    }

    /// Count of fraction digits (`fractionDigits` facet).
    pub fn fraction_digits(&self) -> usize {
        self.frac_digits.len()
    }
}

impl fmt::Display for Decimal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negative {
            write!(f, "-")?;
        }
        if self.int_digits.is_empty() {
            write!(f, "0")?;
        } else {
            write!(f, "{}", self.int_digits)?;
        }
        if !self.frac_digits.is_empty() {
            write!(f, ".{}", self.frac_digits)?;
        }
        Ok(())
    }
}

impl PartialOrd for Decimal<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.negative, other.negative) {
            (false, true) => return Ordering::Greater,
            (true, false) => return Ordering::Less,
            _ => {}
        }
        let mag = self.cmp_magnitude(other);
        if self.negative {
            mag.reverse()
        } else {
            mag
        }
    }
}

impl Decimal<'_> {
    fn cmp_magnitude(&self, other: &Self) -> Ordering {
        // equal-length digit runs compare lexicographically exactly as
        // their values do; so do fraction runs without trailing zeros
        self.int_digits
            .len()
            .cmp(&other.int_digits.len())
            .then_with(|| self.int_digits.cmp(other.int_digits))
            .then_with(|| self.frac_digits.cmp(other.frac_digits))
    }
}

/// A decimal range bound, parsed once when its plan is built: an owned
/// [`Decimal`].
#[derive(Debug, Clone)]
pub(crate) struct DecimalBound {
    negative: bool,
    int_digits: String,
    frac_digits: String,
}

impl DecimalBound {
    /// Parses a facet's bound; `None` when it is not a decimal.
    pub(crate) fn parse(lexical: &str) -> Option<DecimalBound> {
        let (d, _) = Decimal::scan(lexical)?;
        Some(DecimalBound {
            negative: d.negative,
            int_digits: d.int_digits.to_string(),
            frac_digits: d.frac_digits.to_string(),
        })
    }

    /// The bound as a borrowed decimal.
    pub(crate) fn as_decimal(&self) -> Decimal<'_> {
        Decimal {
            negative: self.negative,
            int_digits: &self.int_digits,
            frac_digits: &self.frac_digits,
        }
    }
}

/// An `xsd:date` value: proleptic Gregorian year/month/day (timezones are
/// accepted lexically and ignored for ordering, which suffices for the
/// schema corpus in this reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Date {
    /// Year (may be negative; never 0 per the spec).
    pub year: i32,
    /// Month 1–12.
    pub month: u8,
    /// Day 1–31, validated against the month.
    pub day: u8,
}

impl Date {
    /// Parses `[-]CCYY-MM-DD` with optional `Z`/`±hh:mm` timezone.
    pub fn parse(lexical: &str) -> Result<Date, LexicalError> {
        Date::scan(lexical).ok_or_else(|| LexicalError {
            lexical: lexical.to_string(),
            expected: "date (CCYY-MM-DD)",
        })
    }

    /// [`parse`](Self::parse) in one pass over the bytes; `None` when the
    /// value is not a date.
    pub(crate) fn scan(lexical: &str) -> Option<Date> {
        let mut b = lexical.as_bytes();
        // strip a timezone suffix only when it is lexically valid, so
        // digit garbage after the day fails the date instead of vanishing
        if let Some(rest) = b.strip_suffix(b"Z") {
            b = rest;
        } else if b.len() > 6 && valid_tz(&b[b.len() - 6..]) {
            b = &b[..b.len() - 6];
        }
        let (negative_year, b) = match b.strip_prefix(b"-") {
            Some(rest) => (true, rest),
            None => (false, b),
        };
        // CCYY+ '-' MM '-' DD, digits only: no sign inside a field
        let year_len = b.iter().position(|&c| c == b'-')?;
        let (y, md) = b.split_at(year_len);
        let [b'-', m1, m2, b'-', d1, d2] = *md else {
            return None;
        };
        // 5+-digit years carry no leading zero, so more than ten digits
        // exceed i32 (and a zero-padded long year fails either way)
        if y.len() < 4 || (y.len() > 4 && y[0] == b'0') || y.len() > 10 {
            return None;
        }
        let mut year = 0i64;
        for &c in y {
            if !c.is_ascii_digit() {
                return None;
            }
            year = year * 10 + i64::from(c - b'0');
        }
        if ![m1, m2, d1, d2].iter().all(u8::is_ascii_digit) {
            return None;
        }
        // year 0000 is not a valid XSD 1.0 year
        let year = i32::try_from(year).ok().filter(|&y| y != 0)?;
        let year = if negative_year { -year } else { year };
        let month = (m1 - b'0') * 10 + (m2 - b'0');
        let day = (d1 - b'0') * 10 + (d2 - b'0');
        if !(1..=12).contains(&month) || day < 1 || day > days_in_month(year, month) {
            return None;
        }
        Some(Date { year, month, day })
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A lexically valid `±hh:mm` timezone suffix: sign, two digits, colon,
/// two digits, with the offset in range (`hh ≤ 13` with any minutes, or
/// exactly `14:00` — the XSD extreme).
fn valid_tz(b: &[u8]) -> bool {
    if b.len() != 6 || !(b[0] == b'+' || b[0] == b'-') || b[3] != b':' {
        return false;
    }
    if ![b[1], b[2], b[4], b[5]].iter().all(|c| c.is_ascii_digit()) {
        return false;
    }
    let hh = (b[1] - b'0') * 10 + (b[2] - b'0');
    let mm = (b[4] - b'0') * 10 + (b[5] - b'0');
    (hh < 14 && mm <= 59) || (hh == 14 && mm == 0)
}

fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap_year(year) => 29,
        2 => 28,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(s: &str) -> Decimal<'_> {
        Decimal::parse(s).unwrap()
    }

    #[test]
    fn decimal_parsing_and_normalization() {
        assert_eq!(dec("007.500"), dec("7.5"));
        assert_eq!(dec("-0"), dec("0"));
        assert_eq!(dec("+3"), dec("3"));
        assert_eq!(dec(".5"), dec("0.5"));
        assert_eq!(dec("5."), dec("5"));
        assert!(Decimal::parse("").is_err());
        assert!(Decimal::parse(".").is_err());
        assert!(Decimal::parse("1.2.3").is_err());
        assert!(Decimal::parse("1e5").is_err());
        assert!(Decimal::parse("--1").is_err());
    }

    #[test]
    fn decimal_ordering() {
        assert!(dec("2") < dec("10"));
        assert!(dec("-10") < dec("-2"));
        assert!(dec("-1") < dec("1"));
        assert!(dec("1.5") < dec("1.51"));
        assert!(dec("99.99") < dec("100"));
        assert!(dec("148.95") > dec("39.98"));
        assert_eq!(dec("1.50").cmp(&dec("1.5")), Ordering::Equal);
        assert!(dec("0") < dec("0.001"));
        assert!(dec("-0.5") < dec("0"));
    }

    #[test]
    fn decimal_predicates_and_digit_counts() {
        assert!(dec("42").is_integer());
        assert!(!dec("42.1").is_integer());
        assert!(dec("0").is_zero());
        assert!(dec("1").is_positive());
        assert!(!dec("0").is_positive());
        assert!(dec("-3").is_negative());
        assert_eq!(dec("123.45").total_digits(), 5);
        assert_eq!(dec("123.45").fraction_digits(), 2);
        assert_eq!(dec("0").total_digits(), 1);
    }

    #[test]
    fn decimal_display_roundtrip() {
        for s in ["0", "-1.5", "123.456", "99"] {
            assert_eq!(dec(s).to_string(), s);
        }
        assert_eq!(dec("007.50").to_string(), "7.5");
    }

    #[test]
    fn date_parsing() {
        let d = Date::parse("1999-05-21").unwrap();
        assert_eq!((d.year, d.month, d.day), (1999, 5, 21));
        assert!(Date::parse("1999-05-21Z").is_ok());
        assert!(Date::parse("1999-05-21+05:00").is_ok());
        assert!(Date::parse("1999-13-01").is_err());
        assert!(Date::parse("1999-02-29").is_err()); // not a leap year
        assert!(Date::parse("2000-02-29").is_ok()); // leap year
        assert!(Date::parse("1900-02-29").is_err()); // century non-leap
        assert!(Date::parse("99-05-21").is_err());
        assert!(Date::parse("0000-01-01").is_err());
        assert!(Date::parse("not-a-date").is_err());
        // multi-byte char straddling the would-be timezone offset must
        // reject, not panic on a non-boundary slice (found by fuzz_smoke)
        assert!(Date::parse("1999-\u{FFFD}5-21").is_err());
    }

    #[test]
    fn date_year_rejects_signs_and_zero_padding() {
        // a leading '+' is not part of the XSD date lexical space, even
        // though str::parse::<i32> would swallow it
        assert!(Date::parse("+2024-01-01").is_err());
        assert!(Date::parse("2024-+1-01").is_err());
        assert!(Date::parse("2024-01-+1").is_err());
        // year zero doesn't exist, no matter how it's padded
        assert!(Date::parse("00000-01-01").is_err());
        assert!(Date::parse("000000-01-01").is_err());
        // 5+-digit years must not carry leading zeros
        assert!(Date::parse("02024-01-01").is_err());
        assert!(Date::parse("-02024-01-01").is_err());
        // but genuine 5-digit years and negative years are fine
        assert_eq!(Date::parse("12024-01-01").unwrap().year, 12024);
        assert_eq!(Date::parse("-0044-03-15").unwrap().year, -44);
    }

    #[test]
    fn date_timezone_suffix_must_be_digits_in_range() {
        assert!(Date::parse("2024-01-01+ab:cd").is_err());
        assert!(Date::parse("2024-01-01+15:00").is_err());
        assert!(Date::parse("2024-01-01-14:01").is_err());
        assert!(Date::parse("2024-01-01+13:60").is_err());
        assert!(Date::parse("2024-01-01+14:00").is_ok());
        assert!(Date::parse("2024-01-01-14:00").is_ok());
        assert!(Date::parse("2024-01-01-00:00").is_ok());
        assert!(Date::parse("2024-01-01+05:59").is_ok());
    }

    #[test]
    fn date_ordering() {
        let a = Date::parse("1999-05-21").unwrap();
        let b = Date::parse("1999-10-20").unwrap();
        let c = Date::parse("2000-01-01").unwrap();
        assert!(a < b && b < c);
    }
}
