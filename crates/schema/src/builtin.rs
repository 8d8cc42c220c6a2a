//! The built-in simple types of XML Schema Part 2 used by the paper's
//! schemas, with their whitespace behaviour, lexical validation and
//! derivation hierarchy.

use xmlchars::chars::{is_name, is_nmtoken};
use xmlchars::WhiteSpaceMode;

use crate::value::{Date, Decimal};

/// A built-in simple type.
///
/// The set covers everything the paper's schemas and examples touch
/// (string family, decimal/integer family, boolean, date family, name
/// tokens, anyURI) — a deliberate profile of Part 2, not the full list of
/// 44 types. Unknown built-ins are rejected by the schema reader with a
/// clear error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variant names are the XSD type names
pub enum BuiltinType {
    AnySimpleType,
    String,
    NormalizedString,
    Token,
    Language,
    Name,
    NCName,
    NmToken,
    AnyUri,
    Boolean,
    Decimal,
    Integer,
    NonPositiveInteger,
    NegativeInteger,
    NonNegativeInteger,
    PositiveInteger,
    Long,
    Int,
    Short,
    Byte,
    UnsignedLong,
    UnsignedInt,
    UnsignedShort,
    UnsignedByte,
    Float,
    Double,
    Date,
    DateTime,
    Time,
    GYear,
}

impl BuiltinType {
    /// Looks up a built-in by its XSD local name (e.g. `"positiveInteger"`).
    pub fn by_name(name: &str) -> Option<BuiltinType> {
        use BuiltinType::*;
        Some(match name {
            "anySimpleType" => AnySimpleType,
            "string" => String,
            "normalizedString" => NormalizedString,
            "token" => Token,
            "language" => Language,
            "Name" => Name,
            "NCName" => NCName,
            "NMTOKEN" => NmToken,
            "anyURI" => AnyUri,
            "boolean" => Boolean,
            "decimal" => Decimal,
            "integer" => Integer,
            "nonPositiveInteger" => NonPositiveInteger,
            "negativeInteger" => NegativeInteger,
            "nonNegativeInteger" => NonNegativeInteger,
            "positiveInteger" => PositiveInteger,
            "long" => Long,
            "int" => Int,
            "short" => Short,
            "byte" => Byte,
            "unsignedLong" => UnsignedLong,
            "unsignedInt" => UnsignedInt,
            "unsignedShort" => UnsignedShort,
            "unsignedByte" => UnsignedByte,
            "float" => Float,
            "double" => Double,
            "date" => Date,
            "dateTime" => DateTime,
            "time" => Time,
            "gYear" => GYear,
            _ => return None,
        })
    }

    /// The XSD local name of this type.
    pub fn name(self) -> &'static str {
        use BuiltinType::*;
        match self {
            AnySimpleType => "anySimpleType",
            String => "string",
            NormalizedString => "normalizedString",
            Token => "token",
            Language => "language",
            Name => "Name",
            NCName => "NCName",
            NmToken => "NMTOKEN",
            AnyUri => "anyURI",
            Boolean => "boolean",
            Decimal => "decimal",
            Integer => "integer",
            NonPositiveInteger => "nonPositiveInteger",
            NegativeInteger => "negativeInteger",
            NonNegativeInteger => "nonNegativeInteger",
            PositiveInteger => "positiveInteger",
            Long => "long",
            Int => "int",
            Short => "short",
            Byte => "byte",
            UnsignedLong => "unsignedLong",
            UnsignedInt => "unsignedInt",
            UnsignedShort => "unsignedShort",
            UnsignedByte => "unsignedByte",
            Float => "float",
            Double => "double",
            Date => "date",
            DateTime => "dateTime",
            Time => "time",
            GYear => "gYear",
        }
    }

    /// The immediate base type in the derivation hierarchy
    /// (`None` for `anySimpleType`).
    pub fn base(self) -> Option<BuiltinType> {
        use BuiltinType::*;
        Some(match self {
            AnySimpleType => return None,
            String | Boolean | Decimal | Float | Double | Date | DateTime | Time | GYear
            | AnyUri => AnySimpleType,
            NormalizedString => String,
            Token => NormalizedString,
            Language | Name | NmToken => Token,
            NCName => Name,
            Integer => Decimal,
            NonPositiveInteger | NonNegativeInteger | Long => Integer,
            NegativeInteger => NonPositiveInteger,
            PositiveInteger | UnsignedLong => NonNegativeInteger,
            Int => Long,
            Short => Int,
            Byte => Short,
            UnsignedInt => UnsignedLong,
            UnsignedShort => UnsignedInt,
            UnsignedByte => UnsignedShort,
        })
    }

    /// Whether `self` is `other` or derives (transitively) from it.
    pub fn derives_from(self, other: BuiltinType) -> bool {
        let mut cur = Some(self);
        while let Some(t) = cur {
            if t == other {
                return true;
            }
            cur = t.base();
        }
        false
    }

    /// The whitespace normalization applied before validation.
    pub fn whitespace(self) -> WhiteSpaceMode {
        use BuiltinType::*;
        match self {
            String | AnySimpleType => WhiteSpaceMode::Preserve,
            NormalizedString => WhiteSpaceMode::Replace,
            _ => WhiteSpaceMode::Collapse,
        }
    }

    /// Validates a whitespace-normalized lexical value against this
    /// type's lexical and value space. Returns a description of the
    /// expected form on failure.
    pub fn validate(self, value: &str) -> Result<(), &'static str> {
        use BuiltinType::*;
        match self {
            AnySimpleType | String | NormalizedString | Token => Ok(()),
            Language => {
                // RFC 3066-ish: subtags of 1-8 alphanumerics separated by '-'
                let ok = !value.is_empty()
                    && value.split('-').all(|part| {
                        (1..=8).contains(&part.len())
                            && part.bytes().all(|b| b.is_ascii_alphanumeric())
                    })
                    && value
                        .split('-')
                        .next()
                        .is_some_and(|p| p.bytes().all(|b| b.is_ascii_alphabetic()));
                ok.then_some(()).ok_or("language tag")
            }
            Name => is_name(value).then_some(()).ok_or("XML Name"),
            NCName => (is_name(value) && !value.contains(':'))
                .then_some(())
                .ok_or("NCName"),
            NmToken => is_nmtoken(value).then_some(()).ok_or("NMTOKEN"),
            AnyUri => {
                // per the spec nearly everything is a valid anyURI; reject
                // only whitespace (already collapsed) and unpaired '%'
                let bad_escape = value.as_bytes().windows(3).any(|w| {
                    w[0] == b'%' && !(w[1].is_ascii_hexdigit() && w[2].is_ascii_hexdigit())
                }) || value.ends_with('%')
                    || (value.len() >= 2 && value.as_bytes()[value.len() - 2] == b'%');
                (!value.contains(' ') && !bad_escape)
                    .then_some(())
                    .ok_or("anyURI")
            }
            Boolean => matches!(value, "true" | "false" | "1" | "0")
                .then_some(())
                .ok_or("boolean (true/false/1/0)"),
            Decimal => crate::value::Decimal::parse(value)
                .map(|_| ())
                .map_err(|_| "decimal"),
            Integer | NonPositiveInteger | NegativeInteger | NonNegativeInteger
            | PositiveInteger | Long | Int | Short | Byte | UnsignedLong | UnsignedInt
            | UnsignedShort | UnsignedByte => self.validate_integer(value),
            Float | Double => {
                if matches!(value, "NaN" | "INF" | "-INF") {
                    return Ok(());
                }
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|_| !value.contains(char::is_whitespace))
                    .map(|_| ())
                    .ok_or("floating-point number")
            }
            Date => crate::value::Date::parse(value)
                .map(|_| ())
                .map_err(|_| "date"),
            DateTime => {
                let (date_part, time_part) =
                    value.split_once('T').ok_or("dateTime (date 'T' time)")?;
                crate::value::Date::parse(date_part).map_err(|_| "dateTime (bad date part)")?;
                validate_time(time_part)
                    .then_some(())
                    .ok_or("dateTime (bad time part)")
            }
            Time => validate_time(value).then_some(()).ok_or("time (hh:mm:ss)"),
            GYear => {
                let body = value.strip_prefix('-').unwrap_or(value);
                (body.len() >= 4 && body.bytes().all(|b| b.is_ascii_digit()))
                    .then_some(())
                    .ok_or("gYear")
            }
        }
    }

    fn validate_integer(self, value: &str) -> Result<(), &'static str> {
        use BuiltinType::*;
        let d = crate::value::Decimal::parse(value).map_err(|_| "integer")?;
        if !d.is_integer() || value.contains('.') {
            return Err("integer (no fraction part)");
        }
        let in_i = |lo: i128, hi: i128| -> bool {
            value
                .trim_start_matches('+')
                .parse::<i128>()
                .map(|v| v >= lo && v <= hi)
                .unwrap_or(false)
        };
        let ok = match self {
            Integer => true,
            NonPositiveInteger => !d.is_positive(),
            NegativeInteger => d.is_negative(),
            NonNegativeInteger => !d.is_negative(),
            PositiveInteger => d.is_positive(),
            Long => in_i(i64::MIN as i128, i64::MAX as i128),
            Int => in_i(i32::MIN as i128, i32::MAX as i128),
            Short => in_i(i16::MIN as i128, i16::MAX as i128),
            Byte => in_i(i8::MIN as i128, i8::MAX as i128),
            UnsignedLong => in_i(0, u64::MAX as i128),
            UnsignedInt => in_i(0, u32::MAX as i128),
            UnsignedShort => in_i(0, u16::MAX as i128),
            UnsignedByte => in_i(0, u8::MAX as i128),
            _ => unreachable!("validate_integer called for integer family only"),
        };
        ok.then_some(()).ok_or(match self {
            NonPositiveInteger => "nonPositiveInteger (≤ 0)",
            NegativeInteger => "negativeInteger (< 0)",
            NonNegativeInteger => "nonNegativeInteger (≥ 0)",
            PositiveInteger => "positiveInteger (> 0)",
            Long | Int | Short | Byte | UnsignedLong | UnsignedInt | UnsignedShort
            | UnsignedByte => "integer within the type's range",
            _ => "integer",
        })
    }

    /// Whether values of this type support ordered range facets.
    pub fn is_ordered(self) -> bool {
        use BuiltinType::*;
        self.derives_from(Decimal)
            || matches!(self, Float | Double | Date | DateTime | Time | GYear)
    }

    /// Parses the value for ordered comparison; `None` when unordered or
    /// the lexical value is invalid.
    pub fn ordered_value(self, value: &str) -> Option<OrderedValue<'_>> {
        use BuiltinType::*;
        if self.derives_from(Decimal) {
            return crate::value::Decimal::parse(value)
                .ok()
                .map(OrderedValue::Decimal);
        }
        match self {
            Float | Double => value.parse::<f64>().ok().map(OrderedValue::Double),
            Date => crate::value::Date::parse(value)
                .ok()
                .map(OrderedValue::Date),
            _ => None,
        }
    }
}

/// A parsed value usable in range-facet comparisons.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum OrderedValue<'a> {
    /// Exact decimal (decimal + integer family), borrowing the lexical
    /// value's digits.
    Decimal(Decimal<'a>),
    /// IEEE double (float/double).
    Double(f64),
    /// Calendar date.
    Date(Date),
}

fn validate_time(value: &str) -> bool {
    // hh:mm:ss(.fff)? with optional timezone
    let mut s = value;
    if let Some(rest) = s.strip_suffix('Z') {
        s = rest;
    } else if s.len() > 6 {
        let tail = &s[s.len() - 6..];
        if (tail.starts_with('+') || tail.starts_with('-')) && tail.as_bytes()[3] == b':' {
            s = &s[..s.len() - 6];
        }
    }
    let (hms, frac) = match s.split_once('.') {
        Some((a, b)) => (a, Some(b)),
        None => (s, None),
    };
    if let Some(f) = frac {
        if f.is_empty() || !f.bytes().all(|b| b.is_ascii_digit()) {
            return false;
        }
    }
    let parts: Vec<&str> = hms.split(':').collect();
    if parts.len() != 3 || parts.iter().any(|p| p.len() != 2) {
        return false;
    }
    let nums: Option<Vec<u8>> = parts.iter().map(|p| p.parse().ok()).collect();
    match nums {
        Some(v) => v[0] <= 24 && v[1] <= 59 && v[2] <= 59,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name_roundtrips() {
        for name in ["string", "decimal", "positiveInteger", "NMTOKEN", "date"] {
            let t = BuiltinType::by_name(name).unwrap();
            assert_eq!(t.name(), name);
        }
        assert!(BuiltinType::by_name("noSuchType").is_none());
    }

    #[test]
    fn derivation_hierarchy() {
        use BuiltinType::*;
        assert!(PositiveInteger.derives_from(Integer));
        assert!(PositiveInteger.derives_from(Decimal));
        assert!(PositiveInteger.derives_from(AnySimpleType));
        assert!(!PositiveInteger.derives_from(String));
        assert!(NCName.derives_from(Token));
        assert!(Byte.derives_from(Long));
        assert!(!Decimal.derives_from(Integer));
    }

    #[test]
    fn whitespace_modes() {
        assert_eq!(BuiltinType::String.whitespace(), WhiteSpaceMode::Preserve);
        assert_eq!(
            BuiltinType::NormalizedString.whitespace(),
            WhiteSpaceMode::Replace
        );
        assert_eq!(BuiltinType::Decimal.whitespace(), WhiteSpaceMode::Collapse);
    }

    #[test]
    fn integer_family_validation() {
        use BuiltinType::*;
        assert!(PositiveInteger.validate("1").is_ok());
        assert!(PositiveInteger.validate("0").is_err());
        assert!(PositiveInteger.validate("-1").is_err());
        assert!(NonNegativeInteger.validate("0").is_ok());
        assert!(NegativeInteger.validate("-5").is_ok());
        assert!(NegativeInteger.validate("5").is_err());
        assert!(Integer.validate("12345678901234567890123").is_ok()); // unbounded
        assert!(Integer.validate("1.5").is_err());
        assert!(Byte.validate("127").is_ok());
        assert!(Byte.validate("128").is_err());
        assert!(UnsignedByte.validate("255").is_ok());
        assert!(UnsignedByte.validate("256").is_err());
        assert!(UnsignedByte.validate("-1").is_err());
    }

    #[test]
    fn boolean_and_float() {
        use BuiltinType::*;
        for v in ["true", "false", "1", "0"] {
            assert!(Boolean.validate(v).is_ok());
        }
        assert!(Boolean.validate("TRUE").is_err());
        assert!(Double.validate("1.5e10").is_ok());
        assert!(Double.validate("NaN").is_ok());
        assert!(Double.validate("-INF").is_ok());
        assert!(Double.validate("abc").is_err());
    }

    #[test]
    fn dates_and_times() {
        use BuiltinType::*;
        assert!(Date.validate("1999-05-21").is_ok());
        assert!(Date.validate("1999-05-32").is_err());
        assert!(DateTime.validate("1999-05-21T13:20:00").is_ok());
        assert!(DateTime.validate("1999-05-21T25:00:00").is_err());
        assert!(DateTime.validate("1999-05-21").is_err());
        assert!(Time.validate("13:20:00").is_ok());
        assert!(Time.validate("13:20:00.5Z").is_ok());
        assert!(Time.validate("13:20").is_err());
        assert!(GYear.validate("1999").is_ok());
        assert!(GYear.validate("99").is_err());
    }

    #[test]
    fn names_and_tokens() {
        use BuiltinType::*;
        assert!(NmToken.validate("US").is_ok());
        assert!(NmToken.validate("a b").is_err());
        assert!(Name.validate("xsd:element").is_ok());
        assert!(NCName.validate("xsd:element").is_err());
        assert!(NCName.validate("element").is_ok());
        assert!(Language.validate("en").is_ok());
        assert!(Language.validate("en-US").is_ok());
        assert!(Language.validate("123").is_err());
        assert!(Language.validate("toolongsubtag1").is_err());
    }

    #[test]
    fn any_uri() {
        use BuiltinType::*;
        assert!(AnyUri.validate("http://example.com/a%20b").is_ok());
        assert!(AnyUri.validate("relative/path#frag").is_ok());
        assert!(AnyUri.validate("bad%zz").is_err());
        assert!(AnyUri.validate("trailing%1").is_err());
    }

    #[test]
    fn ordered_values_compare() {
        use BuiltinType::*;
        let a = Decimal.ordered_value("39.98").unwrap();
        let b = Decimal.ordered_value("148.95").unwrap();
        assert!(a < b);
        let x = Date.ordered_value("1999-05-21").unwrap();
        let y = Date.ordered_value("1999-10-20").unwrap();
        assert!(x < y);
        assert!(String.ordered_value("a").is_none());
    }
}
