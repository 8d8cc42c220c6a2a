//! Constraining facets for simple-type restrictions (XML Schema Part 2,
//! §4.3), and the checking machinery applied after whitespace
//! normalization.
//!
//! The schema reader keeps each facet as written ([`Facet`]). A
//! [`SimplePlan`](crate::SimplePlan) compiles its facets against the
//! built-in at the bottom of its restriction chain once, parsing every
//! range bound into that built-in's value space; checking a value then
//! compares the value its built-in already parsed with those bounds.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use xmlchars::WhiteSpaceMode;
use xsdregex::{Dfa, Regex};

use crate::builtin::{BuiltinType, Parsed};
use crate::value::{scan_float, Date, Decimal, DecimalBound};

/// One constraining facet.
#[derive(Debug, Clone)]
pub enum Facet {
    /// Exact length in characters.
    Length(u64),
    /// Minimum length in characters.
    MinLength(u64),
    /// Maximum length in characters.
    MaxLength(u64),
    /// The value must match the pattern (compiled once; DFA cached).
    Pattern(CompiledPattern),
    /// The value must equal one of the enumerated lexical values.
    Enumeration(Vec<String>),
    /// Overrides the whitespace normalization mode.
    WhiteSpace(WhiteSpaceMode),
    /// `value ≤ bound`.
    MaxInclusive(String),
    /// `value < bound`.
    MaxExclusive(String),
    /// `value ≥ bound`.
    MinInclusive(String),
    /// `value > bound`.
    MinExclusive(String),
    /// Maximum number of significant digits.
    TotalDigits(u64),
    /// Maximum number of fraction digits.
    FractionDigits(u64),
}

/// A pattern facet holding both the source regex and a DFA for fast
/// repeated matching. Shared: clones (one per simple-type plan that
/// inherits the facet) point at the same compiled automaton.
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    compiled: Arc<(Regex, Dfa)>,
}

impl CompiledPattern {
    /// Compiles a pattern facet value.
    pub fn new(pattern: &str) -> Result<Self, xsdregex::ParsePatternError> {
        let regex = Regex::parse(pattern)?;
        let dfa = regex.dfa();
        Ok(CompiledPattern {
            compiled: Arc::new((regex, dfa)),
        })
    }

    /// The original pattern.
    pub fn pattern(&self) -> &str {
        self.compiled.0.pattern()
    }

    /// Anchored match.
    pub fn is_match(&self, value: &str) -> bool {
        self.compiled.1.is_match(value)
    }
}

/// A facet violation: which facet failed and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FacetViolation {
    /// Name of the facet (`"pattern"`, `"maxExclusive"`, …).
    pub facet: &'static str,
    /// The constraint that was violated, rendered for messages.
    pub constraint: String,
    /// The offending (normalized) value.
    pub value: String,
}

impl fmt::Display for FacetViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value {:?} violates facet {}({})",
            self.value, self.facet, self.constraint
        )
    }
}

impl std::error::Error for FacetViolation {}

impl Facet {
    /// The facet's XSD element name.
    pub fn name(&self) -> &'static str {
        match self {
            Facet::Length(_) => "length",
            Facet::MinLength(_) => "minLength",
            Facet::MaxLength(_) => "maxLength",
            Facet::Pattern(_) => "pattern",
            Facet::Enumeration(_) => "enumeration",
            Facet::WhiteSpace(_) => "whiteSpace",
            Facet::MaxInclusive(_) => "maxInclusive",
            Facet::MaxExclusive(_) => "maxExclusive",
            Facet::MinInclusive(_) => "minInclusive",
            Facet::MinExclusive(_) => "minExclusive",
            Facet::TotalDigits(_) => "totalDigits",
            Facet::FractionDigits(_) => "fractionDigits",
        }
    }
}

/// A facet compiled for one plan: the facet as read, with a range
/// facet's bound parsed in the plan's built-in value space.
#[derive(Debug, Clone)]
pub(crate) struct FacetCheck {
    facet: Facet,
    /// The range bound; [`Bound::Never`] for the other facets, which
    /// never read it.
    bound: Bound,
}

/// A range bound in its built-in's value space.
#[derive(Debug, Clone)]
enum Bound {
    /// Decimal and the integer family.
    Decimal(DecimalBound),
    /// Float and double.
    Double(f64),
    /// Date.
    Date(Date),
    /// The bound does not parse in the built-in, or the built-in has no
    /// comparable values: every value fails the facet.
    Never,
}

impl Bound {
    /// Parses `text` in `base`'s value space.
    fn parse(text: &str, base: BuiltinType) -> Bound {
        let parsed = if base.derives_from(BuiltinType::Decimal) {
            DecimalBound::parse(text).map(Bound::Decimal)
        } else {
            match base {
                BuiltinType::Float | BuiltinType::Double => scan_float(text).map(Bound::Double),
                BuiltinType::Date => Date::scan(text).map(Bound::Date),
                _ => None,
            }
        };
        parsed.unwrap_or(Bound::Never)
    }

    /// Whether `value` orders against this bound as `accept` asks; never
    /// when they do not compare (a `NaN`, or a bound that never passes).
    fn admits(&self, value: &Parsed<'_>, accept: fn(Ordering) -> bool) -> bool {
        let ordering = match (value, self) {
            (Parsed::Decimal(v), Bound::Decimal(b)) => Some(v.cmp(&b.as_decimal())),
            (Parsed::Double(v), Bound::Double(b)) => v.partial_cmp(b),
            (Parsed::Date(v), Bound::Date(b)) => Some(v.cmp(b)),
            _ => None,
        };
        ordering.is_some_and(accept)
    }
}

impl FacetCheck {
    /// Compiles `facet` for values of the built-in `base`.
    pub(crate) fn compile(facet: &Facet, base: BuiltinType) -> FacetCheck {
        let bound = match facet {
            Facet::MaxInclusive(text)
            | Facet::MaxExclusive(text)
            | Facet::MinInclusive(text)
            | Facet::MinExclusive(text) => Bound::parse(text, base),
            _ => Bound::Never,
        };
        FacetCheck {
            facet: facet.clone(),
            bound,
        }
    }

    /// Checks a normalized `value`, which its built-in parsed as
    /// `parsed`. The digit facets read the decimal the built-in parsed,
    /// or parse one for any other built-in (a value that is not a decimal
    /// fails them).
    #[inline]
    pub(crate) fn check(&self, value: &str, parsed: &Parsed<'_>) -> Result<(), FacetViolation> {
        let char_len = || value.chars().count() as u64;
        let decimal = || match parsed {
            Parsed::Decimal(v) => Some(*v),
            _ => Decimal::parse(value).ok(),
        };
        let ok = match &self.facet {
            Facet::Length(n) => char_len() == *n,
            Facet::MinLength(n) => char_len() >= *n,
            Facet::MaxLength(n) => char_len() <= *n,
            Facet::Pattern(p) => p.is_match(value),
            Facet::Enumeration(allowed) => allowed.iter().any(|a| a == value),
            // applied before any facet is checked
            Facet::WhiteSpace(_) => true,
            Facet::MaxInclusive(_) => self.bound.admits(parsed, Ordering::is_le),
            Facet::MaxExclusive(_) => self.bound.admits(parsed, Ordering::is_lt),
            Facet::MinInclusive(_) => self.bound.admits(parsed, Ordering::is_ge),
            Facet::MinExclusive(_) => self.bound.admits(parsed, Ordering::is_gt),
            Facet::TotalDigits(n) => decimal().is_some_and(|d| d.total_digits() as u64 <= *n),
            Facet::FractionDigits(n) => decimal().is_some_and(|d| d.fraction_digits() as u64 <= *n),
        };
        if ok {
            Ok(())
        } else {
            Err(self.violation(value))
        }
    }

    /// The violation this facet reports for `value`.
    #[cold]
    fn violation(&self, value: &str) -> FacetViolation {
        let constraint = match &self.facet {
            Facet::Length(n)
            | Facet::MinLength(n)
            | Facet::MaxLength(n)
            | Facet::TotalDigits(n)
            | Facet::FractionDigits(n) => n.to_string(),
            Facet::Pattern(p) => p.pattern().to_string(),
            Facet::Enumeration(allowed) => allowed.join(" | "),
            Facet::WhiteSpace(_) => String::new(),
            Facet::MaxInclusive(text)
            | Facet::MaxExclusive(text)
            | Facet::MinInclusive(text)
            | Facet::MinExclusive(text) => text.clone(),
        };
        FacetViolation {
            facet: self.facet.name(),
            constraint,
            value: value.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compiles `facet` for `base` and checks a value `base` accepts.
    fn check(facet: Facet, value: &str, base: BuiltinType) -> Result<(), FacetViolation> {
        let parsed = base.parse(value).expect("a value of the base type");
        FacetCheck::compile(&facet, base).check(value, &parsed)
    }

    #[test]
    fn length_facets_count_chars_not_bytes() {
        let len3 = |v| check(Facet::Length(3), v, BuiltinType::String);
        assert!(len3("abc").is_ok());
        assert!(len3("äöü").is_ok());
        assert!(len3("ab").is_err());
        assert!(check(Facet::MinLength(2), "ab", BuiltinType::String).is_ok());
        assert!(check(Facet::MinLength(2), "a", BuiltinType::String).is_err());
        assert!(check(Facet::MaxLength(2), "ab", BuiltinType::String).is_ok());
        assert!(check(Facet::MaxLength(2), "abc", BuiltinType::String).is_err());
    }

    #[test]
    fn pattern_facet_sku() {
        let sku = || Facet::Pattern(CompiledPattern::new(r"\d{3}-[A-Z]{2}").unwrap());
        assert!(check(sku(), "926-AA", BuiltinType::String).is_ok());
        let err = check(sku(), "926-aa", BuiltinType::String).unwrap_err();
        assert_eq!(err.facet, "pattern");
        assert_eq!(err.constraint, r"\d{3}-[A-Z]{2}");
    }

    #[test]
    fn enumeration_facet() {
        let f = || Facet::Enumeration(vec!["US".into(), "DE".into()]);
        assert!(check(f(), "US", BuiltinType::NmToken).is_ok());
        assert!(check(f(), "FR", BuiltinType::NmToken).is_err());
    }

    #[test]
    fn quantity_from_the_paper() {
        // positiveInteger with maxExclusive 100 (Fig. 3, quantity)
        let q = |v| {
            check(
                Facet::MaxExclusive("100".into()),
                v,
                BuiltinType::PositiveInteger,
            )
        };
        assert!(q("1").is_ok());
        assert!(q("99").is_ok());
        assert!(q("100").is_err());
        assert!(q("150").is_err());
    }

    #[test]
    fn range_facets_on_decimals_and_dates() {
        assert!(check(Facet::MinInclusive("0".into()), "0", BuiltinType::Decimal).is_ok());
        assert!(check(Facet::MinExclusive("0".into()), "0", BuiltinType::Decimal).is_err());
        let before_2000 = || Facet::MaxInclusive("1999-12-31".into());
        assert!(check(before_2000(), "1999-05-21", BuiltinType::Date).is_ok());
        assert!(check(before_2000(), "2000-01-01", BuiltinType::Date).is_err());
    }

    #[test]
    fn digit_facets() {
        assert!(check(Facet::TotalDigits(5), "123.45", BuiltinType::Decimal).is_ok());
        assert!(check(Facet::TotalDigits(4), "123.45", BuiltinType::Decimal).is_err());
        assert!(check(Facet::FractionDigits(2), "1.23", BuiltinType::Decimal).is_ok());
        assert!(check(Facet::FractionDigits(1), "1.23", BuiltinType::Decimal).is_err());
    }

    #[test]
    fn range_on_unordered_type_fails_cleanly() {
        let err = check(Facet::MaxInclusive("z".into()), "a", BuiltinType::String).unwrap_err();
        assert_eq!(err.facet, "maxInclusive");
        assert_eq!(err.constraint, "z");
    }
}
