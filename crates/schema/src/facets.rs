//! Constraining facets for simple-type restrictions (XML Schema Part 2,
//! §4.3), and the checking machinery applied after whitespace
//! normalization.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use xmlchars::WhiteSpaceMode;
use xsdregex::{Dfa, Regex};

use crate::builtin::BuiltinType;

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

    /// Checks a normalized value against this facet, in the context of
    /// the primitive `base` type (needed to interpret range bounds).
    pub fn check(&self, value: &str, base: BuiltinType) -> Result<(), FacetViolation> {
        let fail = |constraint: String| FacetViolation {
            facet: self.name(),
            constraint,
            value: value.to_string(),
        };
        let char_len = || value.chars().count() as u64;
        match self {
            Facet::Length(n) => (char_len() == *n)
                .then_some(())
                .ok_or_else(|| fail(n.to_string())),
            Facet::MinLength(n) => (char_len() >= *n)
                .then_some(())
                .ok_or_else(|| fail(n.to_string())),
            Facet::MaxLength(n) => (char_len() <= *n)
                .then_some(())
                .ok_or_else(|| fail(n.to_string())),
            Facet::Pattern(p) => p
                .is_match(value)
                .then_some(())
                .ok_or_else(|| fail(p.pattern().to_string())),
            Facet::Enumeration(allowed) => allowed
                .iter()
                .any(|a| a == value)
                .then_some(())
                .ok_or_else(|| fail(allowed.join(" | "))),
            Facet::WhiteSpace(_) => Ok(()), // handled during normalization
            Facet::MaxInclusive(bound) => {
                check_range(value, bound, base, Ordering::is_le).map_err(|()| fail(bound.clone()))
            }
            Facet::MaxExclusive(bound) => {
                check_range(value, bound, base, Ordering::is_lt).map_err(|()| fail(bound.clone()))
            }
            Facet::MinInclusive(bound) => {
                check_range(value, bound, base, Ordering::is_ge).map_err(|()| fail(bound.clone()))
            }
            Facet::MinExclusive(bound) => {
                check_range(value, bound, base, Ordering::is_gt).map_err(|()| fail(bound.clone()))
            }
            Facet::TotalDigits(n) => {
                let d = crate::value::Decimal::parse(value).map_err(|_| fail(n.to_string()))?;
                (d.total_digits() as u64 <= *n)
                    .then_some(())
                    .ok_or_else(|| fail(n.to_string()))
            }
            Facet::FractionDigits(n) => {
                let d = crate::value::Decimal::parse(value).map_err(|_| fail(n.to_string()))?;
                (d.fraction_digits() as u64 <= *n)
                    .then_some(())
                    .ok_or_else(|| fail(n.to_string()))
            }
        }
    }
}

/// Compares `value` with `bound` in `base`'s value space; both parse as
/// borrowed views, so a range check allocates nothing.
fn check_range(
    value: &str,
    bound: &str,
    base: BuiltinType,
    accept: impl Fn(Ordering) -> bool,
) -> Result<(), ()> {
    let v = base.ordered_value(value).ok_or(())?;
    let b = base.ordered_value(bound).ok_or(())?;
    match v.partial_cmp(&b) {
        Some(ord) if accept(ord) => Ok(()),
        _ => Err(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_facets_count_chars_not_bytes() {
        let f = Facet::Length(3);
        assert!(f.check("abc", BuiltinType::String).is_ok());
        assert!(f.check("äöü", BuiltinType::String).is_ok());
        assert!(f.check("ab", BuiltinType::String).is_err());
        assert!(Facet::MinLength(2).check("ab", BuiltinType::String).is_ok());
        assert!(Facet::MinLength(2).check("a", BuiltinType::String).is_err());
        assert!(Facet::MaxLength(2).check("ab", BuiltinType::String).is_ok());
        assert!(Facet::MaxLength(2)
            .check("abc", BuiltinType::String)
            .is_err());
    }

    #[test]
    fn pattern_facet_sku() {
        let f = Facet::Pattern(CompiledPattern::new(r"\d{3}-[A-Z]{2}").unwrap());
        assert!(f.check("926-AA", BuiltinType::String).is_ok());
        let err = f.check("926-aa", BuiltinType::String).unwrap_err();
        assert_eq!(err.facet, "pattern");
        assert_eq!(err.constraint, r"\d{3}-[A-Z]{2}");
    }

    #[test]
    fn enumeration_facet() {
        let f = Facet::Enumeration(vec!["US".into(), "DE".into()]);
        assert!(f.check("US", BuiltinType::NmToken).is_ok());
        assert!(f.check("FR", BuiltinType::NmToken).is_err());
    }

    #[test]
    fn quantity_from_the_paper() {
        // positiveInteger with maxExclusive 100 (Fig. 3, quantity)
        let f = Facet::MaxExclusive("100".into());
        assert!(f.check("1", BuiltinType::PositiveInteger).is_ok());
        assert!(f.check("99", BuiltinType::PositiveInteger).is_ok());
        assert!(f.check("100", BuiltinType::PositiveInteger).is_err());
        assert!(f.check("150", BuiltinType::PositiveInteger).is_err());
    }

    #[test]
    fn range_facets_on_decimals_and_dates() {
        assert!(Facet::MinInclusive("0".into())
            .check("0", BuiltinType::Decimal)
            .is_ok());
        assert!(Facet::MinExclusive("0".into())
            .check("0", BuiltinType::Decimal)
            .is_err());
        assert!(Facet::MaxInclusive("1999-12-31".into())
            .check("1999-05-21", BuiltinType::Date)
            .is_ok());
        assert!(Facet::MaxInclusive("1999-12-31".into())
            .check("2000-01-01", BuiltinType::Date)
            .is_err());
    }

    #[test]
    fn digit_facets() {
        assert!(Facet::TotalDigits(5)
            .check("123.45", BuiltinType::Decimal)
            .is_ok());
        assert!(Facet::TotalDigits(4)
            .check("123.45", BuiltinType::Decimal)
            .is_err());
        assert!(Facet::FractionDigits(2)
            .check("1.23", BuiltinType::Decimal)
            .is_ok());
        assert!(Facet::FractionDigits(1)
            .check("1.23", BuiltinType::Decimal)
            .is_err());
    }

    #[test]
    fn range_on_unordered_type_fails_cleanly() {
        let err = Facet::MaxInclusive("z".into())
            .check("a", BuiltinType::String)
            .unwrap_err();
        assert_eq!(err.facet, "maxInclusive");
    }
}
