//! Typed values for the simple-type system: an exact decimal, a date, and
//! helpers for the integer family. Range facets (`minInclusive` …) compare
//! *values*, not lexical strings, so these types implement total orders.

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
        let err = || LexicalError {
            lexical: lexical.to_string(),
            expected: "decimal",
        };
        let mut s = lexical;
        let negative = if let Some(rest) = s.strip_prefix('-') {
            s = rest;
            true
        } else if let Some(rest) = s.strip_prefix('+') {
            s = rest;
            false
        } else {
            false
        };
        let (int_part, frac_part) = s.split_once('.').unwrap_or((s, ""));
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(err());
        }
        if !int_part.bytes().all(|b| b.is_ascii_digit())
            || !frac_part.bytes().all(|b| b.is_ascii_digit())
        {
            return Err(err());
        }
        let int_digits = int_part.trim_start_matches('0');
        let frac_digits = frac_part.trim_end_matches('0');
        let is_zero = int_digits.is_empty() && frac_digits.is_empty();
        Ok(Decimal {
            negative: negative && !is_zero,
            int_digits,
            frac_digits,
        })
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
        let err = || LexicalError {
            lexical: lexical.to_string(),
            expected: "date (CCYY-MM-DD)",
        };
        let mut s = lexical;
        // strip timezone suffix — only when it is lexically valid, so
        // digit garbage after the day fails the date parse instead of
        // vanishing silently
        if let Some(rest) = s.strip_suffix('Z') {
            s = rest;
        } else if s.len() > 6 {
            // s.get(): the offset may split a multi-byte char in mangled
            // input, which is merely not-a-timezone, not a panic
            if let Some(tail) = s.get(s.len() - 6..) {
                if valid_tz(tail) {
                    s = &s[..s.len() - 6];
                }
            }
        }
        let negative_year = s.starts_with('-');
        let body = if negative_year { &s[1..] } else { s };
        let mut parts = body.split('-');
        let (Some(y), Some(m), Some(d), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(err());
        };
        if y.len() < 4 || m.len() != 2 || d.len() != 2 {
            return Err(err());
        }
        // digits only: `str::parse` alone would admit an embedded sign
        // ("+2024-01-01", "2024-+1-01")
        if ![y, m, d]
            .iter()
            .all(|part| part.bytes().all(|b| b.is_ascii_digit()))
        {
            return Err(err());
        }
        let year: i32 = y.parse().map_err(|_| err())?;
        if year == 0 {
            // year 0000 is not a valid XSD 1.0 year, however many digits
            // it is written with
            return Err(err());
        }
        if y.len() > 4 && y.starts_with('0') {
            // 5+-digit years must not carry leading zeros
            return Err(err());
        }
        let year = if negative_year { -year } else { year };
        let month: u8 = m.parse().map_err(|_| err())?;
        let day: u8 = d.parse().map_err(|_| err())?;
        if !(1..=12).contains(&month) {
            return Err(err());
        }
        if day < 1 || day > days_in_month(year, month) {
            return Err(err());
        }
        Ok(Date { year, month, day })
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
fn valid_tz(tail: &str) -> bool {
    let b = tail.as_bytes();
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
