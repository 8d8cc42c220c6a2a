//! The built-in simple types of XML Schema Part 2 used by the paper's
//! schemas, with their whitespace behaviour, lexical validation and
//! derivation hierarchy.

use xmlchars::chars::{is_name, is_nmtoken};
use xmlchars::WhiteSpaceMode;

use crate::value::Date;

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

    /// Whether every string is a valid value of this type (the string
    /// family up to `token`, and `anySimpleType`).
    pub(crate) fn accepts_every_string(self) -> bool {
        use BuiltinType::*;
        matches!(self, AnySimpleType | String | NormalizedString | Token)
    }

    /// Validates a whitespace-normalized lexical value against this
    /// type's lexical and value space. Returns a description of the
    /// expected form on failure.
    pub fn validate(self, value: &str) -> Result<(), &'static str> {
        self.parse(value).map(|_| ())
    }

    /// Parses a whitespace-normalized lexical value once, checking it
    /// against this type's lexical and value space, and keeps what the
    /// range and digit facets compare. Returns a description of the
    /// expected form on failure. Inlined into the plan's check, which
    /// then reads the parsed value where it was built.
    #[inline]
    pub(crate) fn parse(self, value: &str) -> Result<Parsed<'_>, &'static str> {
        use BuiltinType::*;
        match self {
            AnySimpleType | String | NormalizedString | Token => Ok(Parsed::Other),
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
                ok.then_some(Parsed::Other).ok_or("language tag")
            }
            Name => is_name(value).then_some(Parsed::Other).ok_or("XML Name"),
            NCName => (is_name(value) && !value.contains(':'))
                .then_some(Parsed::Other)
                .ok_or("NCName"),
            NmToken => is_nmtoken(value).then_some(Parsed::Other).ok_or("NMTOKEN"),
            AnyUri => {
                // per the spec nearly everything is a valid anyURI; reject
                // only whitespace (already collapsed) and unpaired '%'
                let bad_escape = value.as_bytes().windows(3).any(|w| {
                    w[0] == b'%' && !(w[1].is_ascii_hexdigit() && w[2].is_ascii_hexdigit())
                }) || value.ends_with('%')
                    || (value.len() >= 2 && value.as_bytes()[value.len() - 2] == b'%');
                (!value.contains(' ') && !bad_escape)
                    .then_some(Parsed::Other)
                    .ok_or("anyURI")
            }
            Boolean => matches!(value, "true" | "false" | "1" | "0")
                .then_some(Parsed::Other)
                .ok_or("boolean (true/false/1/0)"),
            Decimal => crate::value::Decimal::scan(value)
                .map(|(d, _)| Parsed::Decimal(d))
                .ok_or("decimal"),
            Integer | NonPositiveInteger | NegativeInteger | NonNegativeInteger
            | PositiveInteger | Long | Int | Short | Byte | UnsignedLong | UnsignedInt
            | UnsignedShort | UnsignedByte => self.parse_integer(value).map(Parsed::Decimal),
            Float | Double => crate::value::scan_float(value)
                .map(Parsed::Double)
                .ok_or("floating-point number"),
            Date => crate::value::Date::scan(value)
                .map(Parsed::Date)
                .ok_or("date"),
            DateTime => {
                let (date_part, time_part) =
                    value.split_once('T').ok_or("dateTime (date 'T' time)")?;
                crate::value::Date::scan(date_part).ok_or("dateTime (bad date part)")?;
                validate_time(time_part)
                    .then_some(Parsed::Other)
                    .ok_or("dateTime (bad time part)")
            }
            Time => validate_time(value)
                .then_some(Parsed::Other)
                .ok_or("time (hh:mm:ss)"),
            GYear => {
                let body = value.strip_prefix('-').unwrap_or(value);
                (body.len() >= 4 && body.bytes().all(|b| b.is_ascii_digit()))
                    .then_some(Parsed::Other)
                    .ok_or("gYear")
            }
        }
    }

    /// An integer-family value: a decimal without a point, inside the
    /// type's range. Always inlined, like the decimal parse inside it.
    #[inline(always)]
    fn parse_integer(self, value: &str) -> Result<crate::value::Decimal<'_>, &'static str> {
        use BuiltinType::*;
        let Some((v, point)) = crate::value::Decimal::scan(value) else {
            return Err("integer");
        };
        if point {
            return Err("integer (no fraction part)");
        }
        let [lo, hi] = self.integer_range();
        if lo.is_some_and(|lo| v < lo) || hi.is_some_and(|hi| v > hi) {
            return Err(match self {
                NonPositiveInteger => "nonPositiveInteger (≤ 0)",
                NegativeInteger => "negativeInteger (< 0)",
                NonNegativeInteger => "nonNegativeInteger (≥ 0)",
                PositiveInteger => "positiveInteger (> 0)",
                _ => "integer within the type's range",
            });
        }
        Ok(v)
    }

    /// The inclusive value range of an integer type, low end first
    /// (`None`: unbounded that side).
    fn integer_range(self) -> [Option<crate::value::Decimal<'static>>; 2] {
        use BuiltinType::*;
        let whole = |digits| Some(crate::value::Decimal::whole(false, digits));
        let negated = |digits| Some(crate::value::Decimal::whole(true, digits));
        match self {
            Long => [negated("9223372036854775808"), whole("9223372036854775807")],
            Int => [negated("2147483648"), whole("2147483647")],
            Short => [negated("32768"), whole("32767")],
            Byte => [negated("128"), whole("127")],
            NonPositiveInteger => [None, whole("")],
            NegativeInteger => [None, negated("1")],
            NonNegativeInteger => [whole(""), None],
            PositiveInteger => [whole("1"), None],
            UnsignedLong => [whole(""), whole("18446744073709551615")],
            UnsignedInt => [whole(""), whole("4294967295")],
            UnsignedShort => [whole(""), whole("65535")],
            UnsignedByte => [whole(""), whole("255")],
            _ => [None, None],
        }
    }
}

/// A value as its built-in parsed it: what range facets compare, or
/// nothing for types they cannot order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Parsed<'a> {
    /// Exact decimal (decimal and the integer family), borrowing the
    /// lexical value's digits.
    Decimal(crate::value::Decimal<'a>),
    /// IEEE double (float/double).
    Double(f64),
    /// Calendar date.
    Date(Date),
    /// Any other type: valid, with nothing kept.
    Other,
}

fn validate_time(value: &str) -> bool {
    // hh:mm:ss(.fff)? with optional timezone
    let mut s = value;
    if let Some(rest) = s.strip_suffix('Z') {
        s = rest;
    } else if s.len() > 6 {
        // s.get(): the offset may split a multi-byte char, which is
        // merely not-a-timezone
        if let Some(tail) = s.get(s.len() - 6..) {
            if (tail.starts_with('+') || tail.starts_with('-')) && tail.as_bytes()[3] == b':' {
                s = &s[..s.len() - 6];
            }
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
        // hour 24 only as the end of the day: 24:00:00, zero fraction
        Some(v) => {
            (v[0] < 24 && v[1] <= 59 && v[2] <= 59)
                || (v == [24, 0, 0] && frac.is_none_or(|f| f.bytes().all(|b| b == b'0')))
        }
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
        let (Ok(Parsed::Decimal(a)), Ok(Parsed::Decimal(b))) =
            (Decimal.parse("39.98"), Decimal.parse("148.95"))
        else {
            panic!("decimals parse");
        };
        assert!(a < b);
        let (Ok(Parsed::Date(x)), Ok(Parsed::Date(y))) =
            (Date.parse("1999-05-21"), Date.parse("1999-10-20"))
        else {
            panic!("dates parse");
        };
        assert!(x < y);
        assert!(matches!(String.parse("a"), Ok(Parsed::Other)));
    }

    #[test]
    fn time_offsets_inside_multibyte_chars_reject() {
        use BuiltinType::*;
        // the would-be timezone offset lands inside 'é'
        assert!(Time.validate("1:00:00é00000").is_err());
        assert!(DateTime.validate("1999-05-21T1:00:00é00000").is_err());
    }
}
