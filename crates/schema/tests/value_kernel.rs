//! The simple-value kernel, pinned row by row: one synthetic schema with
//! one simple type per facet shape, and a table of raw values checked by
//! [`SimplePlan::check`]. Every row fixes `Ok` or the exact `Display` of
//! the error, so the kernel's verdicts, its error order (the built-in's
//! lexical check, then facets most derived first) and the normalized
//! value inside each message cannot drift.
//!
//! The rows cover every built-in the schema reader accepts, every facet
//! kind, range bounds that do not parse in the base type and range
//! facets on unordered built-ins (both fail every value), decimals and
//! bounds beyond `i64`, signs, `-0`, leading zeros, `5.` and `.5`, the
//! bounded integer types at their edges ±1, dates with timezones, leap
//! days and five-digit years, hour 24 (only `24:00:00`), `NaN` and `INF`
//! and the Rust spellings XSD lacks (`inf`, `nan`), patterns over non-ASCII
//! input, and tab, CR, LF, doubled spaces and U+00A0 under each
//! whitespace mode.

use schema::{BuiltinType, CompiledSchema, SimplePlan, TypeRef};

/// One named simple type per facet shape: `(name, base, facets)`.
#[rustfmt::skip]
const TYPES: &[(&str, &str, &str)] = &[
    // length facets count characters, not bytes
    ("Len3", "xsd:string", r#"<xsd:length value="3"/>"#),
    ("MinLen2", "xsd:string", r#"<xsd:minLength value="2"/>"#),
    ("MaxLen2", "xsd:string", r#"<xsd:maxLength value="2"/>"#),
    // patterns: ASCII classes, non-ASCII classes and wildcards
    ("Sku", "xsd:string", r#"<xsd:pattern value="\d{3}-[A-Z]{2}"/>"#),
    ("Accented", "xsd:string", r#"<xsd:pattern value="[a-zé]+"/>"#),
    ("AnyTwo", "xsd:string", r#"<xsd:pattern value="..x?"/>"#),
    ("NotA", "xsd:string", r#"<xsd:pattern value="[^a]+"/>"#),
    ("Letters", "xsd:token", r#"<xsd:pattern value="\w+( \w+)*"/>"#),
    // enumerations compare lexical values after normalization
    (
        "AlignStr",
        "xsd:string",
        r#"<xsd:enumeration value="left"/><xsd:enumeration value="center"/>"#,
    ),
    (
        "AlignTok",
        "xsd:token",
        r#"<xsd:enumeration value="left"/><xsd:enumeration value="center"/>"#,
    ),
    (
        "DecEnum",
        "xsd:decimal",
        r#"<xsd:enumeration value="1.0"/><xsd:enumeration value="2"/>"#,
    ),
    // each whitespace mode, shown through a facet that every value fails
    ("PreserveShow", "xsd:string", r#"<xsd:maxLength value="0"/>"#),
    (
        "ReplaceShow",
        "xsd:normalizedString",
        r#"<xsd:maxLength value="0"/>"#,
    ),
    ("CollapseShow", "xsd:token", r#"<xsd:maxLength value="0"/>"#),
    (
        "StrCollapse",
        "xsd:string",
        r#"<xsd:whiteSpace value="collapse"/><xsd:maxLength value="0"/>"#,
    ),
    (
        "TokPreserve",
        "xsd:token",
        r#"<xsd:whiteSpace value="preserve"/><xsd:maxLength value="0"/>"#,
    ),
    (
        "StrReplace",
        "xsd:string",
        r#"<xsd:whiteSpace value="replace"/><xsd:maxLength value="0"/>"#,
    ),
    // digit facets parse a decimal whatever the base
    ("Total5", "xsd:decimal", r#"<xsd:totalDigits value="5"/>"#),
    ("Frac2", "xsd:decimal", r#"<xsd:fractionDigits value="2"/>"#),
    ("StrTotal2", "xsd:string", r#"<xsd:totalDigits value="2"/>"#),
    ("IntFrac0", "xsd:integer", r#"<xsd:fractionDigits value="0"/>"#),
    // range facets in each ordered value space
    ("Quantity", "xsd:positiveInteger", r#"<xsd:maxExclusive value="100"/>"#),
    (
        "DecRange",
        "xsd:decimal",
        r#"<xsd:minExclusive value="-0.5"/><xsd:maxInclusive value="100.5"/>"#,
    ),
    ("DecMax10", "xsd:decimal", r#"<xsd:maxInclusive value="+010.00"/>"#),
    ("DecMin5", "xsd:decimal", r#"<xsd:minInclusive value="5."/>"#),
    ("DecMaxHalf", "xsd:decimal", r#"<xsd:maxExclusive value=".5"/>"#),
    ("IntMinHalf", "xsd:integer", r#"<xsd:minInclusive value="1.5"/>"#),
    (
        "BigDec",
        "xsd:decimal",
        r#"<xsd:maxInclusive value="99999999999999999999.5"/>"#,
    ),
    (
        "BigIntLow",
        "xsd:integer",
        r#"<xsd:minExclusive value="-18446744073709551616"/>"#,
    ),
    (
        "ULongBelowMax",
        "xsd:unsignedLong",
        r#"<xsd:maxExclusive value="18446744073709551615"/>"#,
    ),
    ("ByteNonNeg", "xsd:byte", r#"<xsd:minInclusive value="0"/>"#),
    (
        "IntWide",
        "xsd:int",
        r#"<xsd:maxInclusive value="99999999999"/>"#,
    ),
    ("NegZero", "xsd:decimal", r#"<xsd:minInclusive value="-0"/>"#),
    ("DateMax", "xsd:date", r#"<xsd:maxInclusive value="1999-12-31"/>"#),
    ("DateMinTz", "xsd:date", r#"<xsd:minExclusive value="2000-02-29Z"/>"#),
    ("FloatMax", "xsd:float", r#"<xsd:maxInclusive value="100"/>"#),
    ("DoubleMinNaN", "xsd:double", r#"<xsd:minInclusive value="NaN"/>"#),
    ("DoubleMaxInf", "xsd:double", r#"<xsd:maxExclusive value="INF"/>"#),
    // bounds that do not parse in the base type: every value fails
    ("DecBadBound", "xsd:decimal", r#"<xsd:maxInclusive value="abc"/>"#),
    ("DecSpacedBound", "xsd:decimal", r#"<xsd:maxInclusive value=" 10"/>"#),
    ("IntBadBound", "xsd:integer", r#"<xsd:minInclusive value="1e3"/>"#),
    ("DateBadBound", "xsd:date", r#"<xsd:maxInclusive value="1999-1-1"/>"#),
    ("FloatBadBound", "xsd:float", r#"<xsd:minExclusive value="one"/>"#),
    ("FloatInfBound", "xsd:float", r#"<xsd:maxInclusive value="inf"/>"#),
    // range facets on unordered built-ins: every value fails
    ("StrRange", "xsd:string", r#"<xsd:maxInclusive value="z"/>"#),
    ("BoolRange", "xsd:boolean", r#"<xsd:minInclusive value="0"/>"#),
    (
        "DateTimeRange",
        "xsd:dateTime",
        r#"<xsd:maxInclusive value="2000-01-01T00:00:00"/>"#,
    ),
    ("TimeRange", "xsd:time", r#"<xsd:minInclusive value="00:00:00"/>"#),
    ("GYearRange", "xsd:gYear", r#"<xsd:maxInclusive value="2000"/>"#),
    // a restriction chain: the derived facets report first
    ("Code", "xsd:string", r#"<xsd:pattern value="[A-Z]+"/>"#),
    (
        "ShortCode",
        "Code",
        r#"<xsd:maxLength value="3"/><xsd:whiteSpace value="collapse"/>"#,
    ),
    (
        "SmallQuantity",
        "Quantity",
        r#"<xsd:maxInclusive value="10"/><xsd:minExclusive value="2"/>"#,
    ),
    (
        "Everything",
        "xsd:decimal",
        r#"<xsd:totalDigits value="4"/><xsd:fractionDigits value="1"/><xsd:minInclusive value="1"/><xsd:maxExclusive value="500"/><xsd:pattern value="[0-9.]+"/><xsd:enumeration value="1.5"/><xsd:enumeration value="400"/><xsd:enumeration value="600"/><xsd:enumeration value="1.25"/>"#,
    ),
];

/// `(type, raw value, None for Ok or the exact error text)`. A type
/// starting `xsd:` is the built-in itself.
type Row = (&'static str, &'static str, Option<&'static str>);

#[rustfmt::skip]
const ROWS: &[Row] = &[
    ("xsd:anySimpleType", " a\tb ", None),
    ("xsd:string", "  x  ", None),
    ("xsd:normalizedString", "a\tb\nc", None),
    ("xsd:token", "  a \t  b  ", None),
    ("xsd:token", "", None),
    ("xsd:language", "en-US", None),
    ("xsd:language", " en ", None),
    ("xsd:language", "123", Some("\"123\" is not a valid xsd:language (language tag)")),
    ("xsd:language", "toolongsubtag", Some("\"toolongsubtag\" is not a valid xsd:language (language tag)")),
    ("xsd:Name", "xsd:element", None),
    ("xsd:Name", "1abc", Some("\"1abc\" is not a valid xsd:Name (XML Name)")),
    ("xsd:NCName", "element", None),
    ("xsd:NCName", "a:b", Some("\"a:b\" is not a valid xsd:NCName (NCName)")),
    ("xsd:NMTOKEN", " US ", None),
    ("xsd:NMTOKEN", "a b", Some("\"a b\" is not a valid xsd:NMTOKEN (NMTOKEN)")),
    ("xsd:anyURI", "http://example.com/a%20b", None),
    ("xsd:anyURI", "bad%zz", Some("\"bad%zz\" is not a valid xsd:anyURI (anyURI)")),
    ("xsd:anyURI", "trailing%1", Some("\"trailing%1\" is not a valid xsd:anyURI (anyURI)")),
    ("xsd:boolean", "true", None),
    ("xsd:boolean", " 0 ", None),
    ("xsd:boolean", "TRUE", Some("\"TRUE\" is not a valid xsd:boolean (boolean (true/false/1/0))")),
    ("xsd:decimal", "+1.50", None),
    ("xsd:decimal", "-0", None),
    ("xsd:decimal", "007", None),
    ("xsd:decimal", "5.", None),
    ("xsd:decimal", ".5", None),
    ("xsd:decimal", "-.5", None),
    ("xsd:decimal", "123456789012345678901234567890.123456789", None),
    ("xsd:decimal", ".", Some("\".\" is not a valid xsd:decimal (decimal)")),
    ("xsd:decimal", "", Some("\"\" is not a valid xsd:decimal (decimal)")),
    ("xsd:decimal", "1e5", Some("\"1e5\" is not a valid xsd:decimal (decimal)")),
    ("xsd:decimal", "--1", Some("\"--1\" is not a valid xsd:decimal (decimal)")),
    ("xsd:decimal", "+-1", Some("\"+-1\" is not a valid xsd:decimal (decimal)")),
    ("xsd:decimal", "1.2.3", Some("\"1.2.3\" is not a valid xsd:decimal (decimal)")),
    ("xsd:decimal", "1 2", Some("\"1 2\" is not a valid xsd:decimal (decimal)")),
    ("xsd:decimal", "١٢", Some("\"١٢\" is not a valid xsd:decimal (decimal)")),
    ("xsd:integer", "12345678901234567890123", None),
    ("xsd:integer", "-12345678901234567890123", None),
    ("xsd:integer", "+0", None),
    ("xsd:integer", "5.", Some("\"5.\" is not a valid xsd:integer (integer (no fraction part))")),
    ("xsd:integer", "1.0", Some("\"1.0\" is not a valid xsd:integer (integer (no fraction part))")),
    ("xsd:integer", ".0", Some("\".0\" is not a valid xsd:integer (integer (no fraction part))")),
    ("xsd:integer", "abc", Some("\"abc\" is not a valid xsd:integer (integer)")),
    ("xsd:nonPositiveInteger", "0", None),
    ("xsd:nonPositiveInteger", "-0", None),
    ("xsd:nonPositiveInteger", "1", Some("\"1\" is not a valid xsd:nonPositiveInteger (nonPositiveInteger (≤ 0))")),
    ("xsd:nonPositiveInteger", "-99999999999999999999999", None),
    ("xsd:negativeInteger", "-1", None),
    ("xsd:negativeInteger", "0", Some("\"0\" is not a valid xsd:negativeInteger (negativeInteger (< 0))")),
    ("xsd:negativeInteger", "-0", Some("\"-0\" is not a valid xsd:negativeInteger (negativeInteger (< 0))")),
    ("xsd:negativeInteger", "-0.0", Some("\"-0.0\" is not a valid xsd:negativeInteger (integer (no fraction part))")),
    ("xsd:nonNegativeInteger", "+0", None),
    ("xsd:nonNegativeInteger", "-0", None),
    ("xsd:nonNegativeInteger", "-1", Some("\"-1\" is not a valid xsd:nonNegativeInteger (nonNegativeInteger (≥ 0))")),
    ("xsd:positiveInteger", "1", None),
    ("xsd:positiveInteger", "+007", None),
    ("xsd:positiveInteger", "0", Some("\"0\" is not a valid xsd:positiveInteger (positiveInteger (> 0))")),
    ("xsd:positiveInteger", "000", Some("\"000\" is not a valid xsd:positiveInteger (positiveInteger (> 0))")),
    ("xsd:positiveInteger", "-1", Some("\"-1\" is not a valid xsd:positiveInteger (positiveInteger (> 0))")),
    ("xsd:positiveInteger", "99999999999999999999999", None),
    ("xsd:long", "9223372036854775807", None),
    ("xsd:long", "9223372036854775808", Some("\"9223372036854775808\" is not a valid xsd:long (integer within the type's range)")),
    ("xsd:long", "-9223372036854775808", None),
    ("xsd:long", "-9223372036854775809", Some("\"-9223372036854775809\" is not a valid xsd:long (integer within the type's range)")),
    ("xsd:long", "+0009223372036854775807", None),
    ("xsd:long", "000000000000000000000000000000000000000000001", None),
    ("xsd:int", "2147483647", None),
    ("xsd:int", "2147483648", Some("\"2147483648\" is not a valid xsd:int (integer within the type's range)")),
    ("xsd:int", "-2147483648", None),
    ("xsd:int", "-2147483649", Some("\"-2147483649\" is not a valid xsd:int (integer within the type's range)")),
    ("xsd:short", "32767", None),
    ("xsd:short", "32768", Some("\"32768\" is not a valid xsd:short (integer within the type's range)")),
    ("xsd:short", "-32768", None),
    ("xsd:short", "-32769", Some("\"-32769\" is not a valid xsd:short (integer within the type's range)")),
    ("xsd:byte", "127", None),
    ("xsd:byte", "128", Some("\"128\" is not a valid xsd:byte (integer within the type's range)")),
    ("xsd:byte", "-128", None),
    ("xsd:byte", "-129", Some("\"-129\" is not a valid xsd:byte (integer within the type's range)")),
    ("xsd:unsignedLong", "18446744073709551615", None),
    ("xsd:unsignedLong", "18446744073709551616", Some("\"18446744073709551616\" is not a valid xsd:unsignedLong (integer within the type's range)")),
    ("xsd:unsignedLong", "-0", None),
    ("xsd:unsignedLong", "-1", Some("\"-1\" is not a valid xsd:unsignedLong (integer within the type's range)")),
    ("xsd:unsignedInt", "4294967295", None),
    ("xsd:unsignedInt", "4294967296", Some("\"4294967296\" is not a valid xsd:unsignedInt (integer within the type's range)")),
    ("xsd:unsignedShort", "65535", None),
    ("xsd:unsignedShort", "65536", Some("\"65536\" is not a valid xsd:unsignedShort (integer within the type's range)")),
    ("xsd:unsignedByte", "255", None),
    ("xsd:unsignedByte", "+255", None),
    ("xsd:unsignedByte", "000255", None),
    ("xsd:unsignedByte", "256", Some("\"256\" is not a valid xsd:unsignedByte (integer within the type's range)")),
    ("xsd:unsignedByte", "-1", Some("\"-1\" is not a valid xsd:unsignedByte (integer within the type's range)")),
    ("xsd:unsignedByte", "1.", Some("\"1.\" is not a valid xsd:unsignedByte (integer (no fraction part))")),
    ("xsd:float", "1.5e10", None),
    ("xsd:float", "NaN", None),
    ("xsd:float", "INF", None),
    ("xsd:float", "-INF", None),
    ("xsd:float", "inf", Some("\"inf\" is not a valid xsd:float (floating-point number)")),
    ("xsd:float", "infinity", Some("\"infinity\" is not a valid xsd:float (floating-point number)")),
    ("xsd:float", "+inf", Some("\"+inf\" is not a valid xsd:float (floating-point number)")),
    ("xsd:float", "nan", Some("\"nan\" is not a valid xsd:float (floating-point number)")),
    ("xsd:float", "-inf", Some("\"-inf\" is not a valid xsd:float (floating-point number)")),
    ("xsd:double", "+INF", Some("\"+INF\" is not a valid xsd:double (floating-point number)")),
    ("xsd:double", "5.", None),
    ("xsd:double", "1.E+2", None),
    ("xsd:float", "+1", None),
    ("xsd:float", "abc", Some("\"abc\" is not a valid xsd:float (floating-point number)")),
    ("xsd:float", "1 2", Some("\"1 2\" is not a valid xsd:float (floating-point number)")),
    ("xsd:double", "-0", None),
    ("xsd:double", "1e400", None),
    ("xsd:double", ".5e-3", None),
    ("xsd:double", "0x10", Some("\"0x10\" is not a valid xsd:double (floating-point number)")),
    ("xsd:date", "1999-05-21", None),
    ("xsd:date", " 1999-05-21 ", None),
    ("xsd:date", "1999-05-21Z", None),
    ("xsd:date", "1999-05-21+05:00", None),
    ("xsd:date", "1999-05-21-14:00", None),
    ("xsd:date", "1999-05-21+14:01", Some("\"1999-05-21+14:01\" is not a valid xsd:date (date)")),
    ("xsd:date", "1999-05-21+15:00", Some("\"1999-05-21+15:00\" is not a valid xsd:date (date)")),
    ("xsd:date", "1999-05-21+ab:cd", Some("\"1999-05-21+ab:cd\" is not a valid xsd:date (date)")),
    ("xsd:date", "2000-02-29", None),
    ("xsd:date", "2024-02-29-05:00", None),
    ("xsd:date", "1999-02-29", Some("\"1999-02-29\" is not a valid xsd:date (date)")),
    ("xsd:date", "1900-02-29", Some("\"1900-02-29\" is not a valid xsd:date (date)")),
    ("xsd:date", "1999-04-31", Some("\"1999-04-31\" is not a valid xsd:date (date)")),
    ("xsd:date", "1999-13-01", Some("\"1999-13-01\" is not a valid xsd:date (date)")),
    ("xsd:date", "1999-00-10", Some("\"1999-00-10\" is not a valid xsd:date (date)")),
    ("xsd:date", "12024-01-01", None),
    ("xsd:date", "02024-01-01", Some("\"02024-01-01\" is not a valid xsd:date (date)")),
    ("xsd:date", "-0044-03-15", None),
    ("xsd:date", "-12024-01-01Z", None),
    ("xsd:date", "0000-01-01", Some("\"0000-01-01\" is not a valid xsd:date (date)")),
    ("xsd:date", "+2024-01-01", Some("\"+2024-01-01\" is not a valid xsd:date (date)")),
    ("xsd:date", "2024-+1-01", Some("\"2024-+1-01\" is not a valid xsd:date (date)")),
    ("xsd:date", "99-05-21", Some("\"99-05-21\" is not a valid xsd:date (date)")),
    ("xsd:date", "2147483647-12-31", None),
    ("xsd:date", "2147483648-01-01", Some("\"2147483648-01-01\" is not a valid xsd:date (date)")),
    ("xsd:date", "1999-�5-21", Some("\"1999-�5-21\" is not a valid xsd:date (date)")),
    ("xsd:date", "1999-05-21ZZ", Some("\"1999-05-21ZZ\" is not a valid xsd:date (date)")),
    ("xsd:dateTime", "1999-05-21T13:20:00", None),
    ("xsd:dateTime", "1999-05-21T25:00:00", Some("\"1999-05-21T25:00:00\" is not a valid xsd:dateTime (dateTime (bad time part))")),
    ("xsd:dateTime", "1999-05-21", Some("\"1999-05-21\" is not a valid xsd:dateTime (dateTime (date 'T' time))")),
    ("xsd:time", "13:20:00.5Z", None),
    ("xsd:time", "13:20", Some("\"13:20\" is not a valid xsd:time (time (hh:mm:ss))")),
    ("xsd:time", "24:00:00", None),
    ("xsd:time", "24:00:00.000Z", None),
    ("xsd:time", "24:30:00", Some("\"24:30:00\" is not a valid xsd:time (time (hh:mm:ss))")),
    ("xsd:time", "24:00:01", Some("\"24:00:01\" is not a valid xsd:time (time (hh:mm:ss))")),
    ("xsd:time", "24:00:00.5", Some("\"24:00:00.5\" is not a valid xsd:time (time (hh:mm:ss))")),
    ("xsd:dateTime", "1999-05-21T24:00:00", None),
    ("xsd:dateTime", "1999-05-21T24:30:00", Some("\"1999-05-21T24:30:00\" is not a valid xsd:dateTime (dateTime (bad time part))")),
    ("xsd:dateTime", "1999-05-21T24:00:01", Some("\"1999-05-21T24:00:01\" is not a valid xsd:dateTime (dateTime (bad time part))")),
    ("xsd:dateTime", "1999-05-21T24:00:00.5", Some("\"1999-05-21T24:00:00.5\" is not a valid xsd:dateTime (dateTime (bad time part))")),
    ("xsd:gYear", "1999", None),
    ("xsd:gYear", "99", Some("\"99\" is not a valid xsd:gYear (gYear)")),
    ("Len3", "abc", None),
    ("Len3", "äöü", None),
    ("Len3", "ab", Some("value \"ab\" violates facet length(3)")),
    ("MinLen2", "ab", None),
    ("MinLen2", "é", Some("value \"é\" violates facet minLength(2)")),
    ("MaxLen2", "ab", None),
    ("MaxLen2", "abc", Some("value \"abc\" violates facet maxLength(2)")),
    ("Sku", "926-AA", None),
    ("Sku", "926-aa", Some("value \"926-aa\" violates facet pattern(\\d{3}-[A-Z]{2})")),
    ("Sku", "926-ÄA", Some("value \"926-ÄA\" violates facet pattern(\\d{3}-[A-Z]{2})")),
    ("Sku", "926-AA\n", Some("value \"926-AA\\n\" violates facet pattern(\\d{3}-[A-Z]{2})")),
    ("Sku", "", Some("value \"\" violates facet pattern(\\d{3}-[A-Z]{2})")),
    ("Accented", "café", None),
    ("Accented", "caféX", Some("value \"caféX\" violates facet pattern([a-zé]+)")),
    ("Accented", "é", None),
    ("AnyTwo", "日本", None),
    ("AnyTwo", "日本x", None),
    ("AnyTwo", "日", Some("value \"日\" violates facet pattern(..x?)")),
    ("AnyTwo", "a\u{10ffff}", None),
    ("NotA", "xyz", None),
    ("NotA", "\u{10ffff}", None),
    ("NotA", "xay", Some("value \"xay\" violates facet pattern([^a]+)")),
    ("Letters", " Grüße   aus Köln ", None),
    ("Letters", "Grüße!", Some("value \"Grüße!\" violates facet pattern(\\w+( \\w+)*)")),
    ("AlignStr", "center", None),
    ("AlignStr", " center ", Some("value \" center \" violates facet enumeration(left | center)")),
    ("AlignStr", "justify", Some("value \"justify\" violates facet enumeration(left | center)")),
    ("AlignTok", " center ", None),
    ("AlignTok", "Center", Some("value \"Center\" violates facet enumeration(left | center)")),
    ("DecEnum", "1.0", None),
    ("DecEnum", "1", Some("value \"1\" violates facet enumeration(1.0 | 2)")),
    ("DecEnum", "2", None),
    ("PreserveShow", "\t a\r\n b  \u{a0}", Some("value \"\\t a\\r\\n b  \\u{a0}\" violates facet maxLength(0)")),
    ("PreserveShow", "", None),
    ("ReplaceShow", "\t a\r\n b  \u{a0}", Some("value \"  a   b  \\u{a0}\" violates facet maxLength(0)")),
    ("CollapseShow", "\t a\r\n b  \u{a0}", Some("value \"a b \\u{a0}\" violates facet maxLength(0)")),
    ("CollapseShow", "a  b", Some("value \"a b\" violates facet maxLength(0)")),
    ("CollapseShow", "\u{a0}a\u{a0}", Some("value \"\\u{a0}a\\u{a0}\" violates facet maxLength(0)")),
    ("CollapseShow", " \t\r\n ", None),
    ("StrCollapse", "\t a\r\n b  \u{a0}", Some("value \"a b \\u{a0}\" violates facet maxLength(0)")),
    ("TokPreserve", "\t a\r\n b  \u{a0}", Some("value \"\\t a\\r\\n b  \\u{a0}\" violates facet maxLength(0)")),
    ("StrReplace", "\t a\r\n b  \u{a0}", Some("value \"  a   b  \\u{a0}\" violates facet maxLength(0)")),
    ("Total5", "123.45", None),
    ("Total5", "0001234.5000", None),
    ("Total5", "1234.56", Some("value \"1234.56\" violates facet totalDigits(5)")),
    ("Total5", "-0.00000", None),
    ("Frac2", "1.230", None),
    ("Frac2", "1.234", Some("value \"1.234\" violates facet fractionDigits(2)")),
    ("StrTotal2", "12", None),
    ("StrTotal2", "abc", Some("value \"abc\" violates facet totalDigits(2)")),
    ("StrTotal2", "123", Some("value \"123\" violates facet totalDigits(2)")),
    ("IntFrac0", "42", None),
    ("Quantity", "1", None),
    ("Quantity", " 99 ", None),
    ("Quantity", "100", Some("value \"100\" violates facet maxExclusive(100)")),
    ("Quantity", "150", Some("value \"150\" violates facet maxExclusive(100)")),
    ("Quantity", "0", Some("\"0\" is not a valid xsd:positiveInteger (positiveInteger (> 0))")),
    ("Quantity", "five", Some("\"five\" is not a valid xsd:positiveInteger (integer)")),
    ("Quantity", "99.0", Some("\"99.0\" is not a valid xsd:positiveInteger (integer (no fraction part))")),
    ("DecRange", "-0.4", None),
    ("DecRange", "-0.5", Some("value \"-0.5\" violates facet minExclusive(-0.5)")),
    ("DecRange", "100.5", None),
    ("DecRange", "100.50001", Some("value \"100.50001\" violates facet maxInclusive(100.5)")),
    ("DecRange", ".0", None),
    ("DecMax10", "+010", None),
    ("DecMax10", "0010.000", None),
    ("DecMax10", "10.0001", Some("value \"10.0001\" violates facet maxInclusive(+010.00)")),
    ("DecMax10", "-0", None),
    ("DecMin5", "5.", None),
    ("DecMin5", "4.999", Some("value \"4.999\" violates facet minInclusive(5.)")),
    ("DecMaxHalf", ".4", None),
    ("DecMaxHalf", "0.5", Some("value \"0.5\" violates facet maxExclusive(.5)")),
    ("IntMinHalf", "1", Some("value \"1\" violates facet minInclusive(1.5)")),
    ("IntMinHalf", "2", None),
    ("BigDec", "99999999999999999999", None),
    ("BigDec", "99999999999999999999.5", None),
    ("BigDec", "99999999999999999999.51", Some("value \"99999999999999999999.51\" violates facet maxInclusive(99999999999999999999.5)")),
    ("BigDec", "100000000000000000000", Some("value \"100000000000000000000\" violates facet maxInclusive(99999999999999999999.5)")),
    ("BigDec", "-100000000000000000000", None),
    ("BigIntLow", "-18446744073709551615", None),
    ("BigIntLow", "-18446744073709551616", Some("value \"-18446744073709551616\" violates facet minExclusive(-18446744073709551616)")),
    ("BigIntLow", "99999999999999999999999999", None),
    ("ULongBelowMax", "18446744073709551614", None),
    ("ULongBelowMax", "18446744073709551615", Some("value \"18446744073709551615\" violates facet maxExclusive(18446744073709551615)")),
    ("ByteNonNeg", "0", None),
    ("ByteNonNeg", "-1", Some("value \"-1\" violates facet minInclusive(0)")),
    ("ByteNonNeg", "-0", None),
    ("IntWide", "2147483647", None),
    ("IntWide", "2147483648", Some("\"2147483648\" is not a valid xsd:int (integer within the type's range)")),
    ("NegZero", "0", None),
    ("NegZero", "-0.0", None),
    ("NegZero", "-0.1", Some("value \"-0.1\" violates facet minInclusive(-0)")),
    ("DateMax", "1999-05-21", None),
    ("DateMax", "1999-12-31", None),
    ("DateMax", "2000-01-01", Some("value \"2000-01-01\" violates facet maxInclusive(1999-12-31)")),
    ("DateMax", "1999-12-31-14:00", None),
    ("DateMinTz", "2000-02-29", Some("value \"2000-02-29\" violates facet minExclusive(2000-02-29Z)")),
    ("DateMinTz", "2000-03-01+05:00", None),
    ("FloatMax", "100", None),
    ("FloatMax", "1e2", None),
    ("FloatMax", "100.0001", Some("value \"100.0001\" violates facet maxInclusive(100)")),
    ("FloatMax", "NaN", Some("value \"NaN\" violates facet maxInclusive(100)")),
    ("FloatMax", "INF", Some("value \"INF\" violates facet maxInclusive(100)")),
    ("FloatMax", "-INF", None),
    ("DoubleMinNaN", "1", Some("value \"1\" violates facet minInclusive(NaN)")),
    ("DoubleMinNaN", "NaN", Some("value \"NaN\" violates facet minInclusive(NaN)")),
    ("DoubleMaxInf", "1e308", None),
    ("DoubleMaxInf", "INF", Some("value \"INF\" violates facet maxExclusive(INF)")),
    ("DecBadBound", "1", Some("value \"1\" violates facet maxInclusive(abc)")),
    ("DecSpacedBound", "1", Some("value \"1\" violates facet maxInclusive( 10)")),
    ("IntBadBound", "5000", Some("value \"5000\" violates facet minInclusive(1e3)")),
    ("DateBadBound", "1999-01-01", Some("value \"1999-01-01\" violates facet maxInclusive(1999-1-1)")),
    ("FloatBadBound", "1", Some("value \"1\" violates facet minExclusive(one)")),
    ("FloatInfBound", "1", Some("value \"1\" violates facet maxInclusive(inf)")),
    ("StrRange", "a", Some("value \"a\" violates facet maxInclusive(z)")),
    ("BoolRange", "1", Some("value \"1\" violates facet minInclusive(0)")),
    ("DateTimeRange", "1999-05-21T13:20:00", Some("value \"1999-05-21T13:20:00\" violates facet maxInclusive(2000-01-01T00:00:00)")),
    ("TimeRange", "13:20:00", Some("value \"13:20:00\" violates facet minInclusive(00:00:00)")),
    ("GYearRange", "1999", Some("value \"1999\" violates facet maxInclusive(2000)")),
    ("Code", "AB", None),
    ("Code", "ab", Some("value \"ab\" violates facet pattern([A-Z]+)")),
    ("ShortCode", " AB\n", None),
    ("ShortCode", " abcd ", Some("value \"abcd\" violates facet maxLength(3)")),
    ("ShortCode", "ab", Some("value \"ab\" violates facet pattern([A-Z]+)")),
    ("SmallQuantity", "5", None),
    ("SmallQuantity", "2", Some("value \"2\" violates facet minExclusive(2)")),
    ("SmallQuantity", "11", Some("value \"11\" violates facet maxInclusive(10)")),
    ("SmallQuantity", "100", Some("value \"100\" violates facet maxInclusive(10)")),
    ("SmallQuantity", "0", Some("\"0\" is not a valid xsd:positiveInteger (positiveInteger (> 0))")),
    ("Everything", "1.5", None),
    ("Everything", "400", None),
    ("Everything", "400.0", Some("value \"400.0\" violates facet enumeration(1.5 | 400 | 600 | 1.25)")),
    ("Everything", "1.25", Some("value \"1.25\" violates facet fractionDigits(1)")),
    ("Everything", "600", Some("value \"600\" violates facet maxExclusive(500)")),
    ("Everything", "0.5", Some("value \"0.5\" violates facet minInclusive(1)")),
    ("Everything", "12345", Some("value \"12345\" violates facet totalDigits(4)")),
];

fn schema() -> CompiledSchema {
    let mut xsd = String::from(r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">"#);
    for (name, base, facets) in TYPES {
        xsd.push_str(&format!(
            r#"<xsd:simpleType name="{name}"><xsd:restriction base="{base}">{facets}</xsd:restriction></xsd:simpleType>"#
        ));
    }
    xsd.push_str("</xsd:schema>");
    CompiledSchema::parse(&xsd).unwrap()
}

fn plan(compiled: &CompiledSchema, ty: &str) -> std::sync::Arc<SimplePlan> {
    let type_ref = match ty.strip_prefix("xsd:") {
        Some(builtin) => TypeRef::Builtin(BuiltinType::by_name(builtin).expect(ty)),
        None => TypeRef::Named(ty.to_string()),
    };
    compiled.simple_plan(&type_ref).expect(ty)
}

fn verdict(plan: &SimplePlan, raw: &str) -> Option<String> {
    plan.check(raw).err().map(|e| e.to_string())
}

#[test]
fn every_row_keeps_its_verdict() {
    let compiled = schema();
    let mut wrong = Vec::new();
    for &(ty, raw, expected) in ROWS {
        let got = verdict(&plan(&compiled, ty), raw);
        if got.as_deref() != expected {
            wrong.push(format!("    ({ty:?}, {raw:?}, {got:?}),"));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {} rows differ; their actual verdicts:\n{}",
        wrong.len(),
        ROWS.len(),
        wrong.join("\n")
    );
}

#[test]
fn every_type_and_builtin_has_a_row() {
    let covered: std::collections::HashSet<&str> = ROWS.iter().map(|row| row.0).collect();
    for (name, _, _) in TYPES {
        assert!(covered.contains(name), "no row for type {name}");
    }
    for builtin in BUILTINS {
        assert!(
            covered.contains(format!("xsd:{builtin}").as_str()),
            "no row for xsd:{builtin}"
        );
    }
}

/// Every built-in the schema reader accepts.
const BUILTINS: &[&str] = &[
    "anySimpleType",
    "string",
    "normalizedString",
    "token",
    "language",
    "Name",
    "NCName",
    "NMTOKEN",
    "anyURI",
    "boolean",
    "decimal",
    "integer",
    "nonPositiveInteger",
    "negativeInteger",
    "nonNegativeInteger",
    "positiveInteger",
    "long",
    "int",
    "short",
    "byte",
    "unsignedLong",
    "unsignedInt",
    "unsignedShort",
    "unsignedByte",
    "float",
    "double",
    "date",
    "dateTime",
    "time",
    "gYear",
];

#[test]
fn the_builtin_list_is_the_readers() {
    for name in BUILTINS {
        assert_eq!(
            BuiltinType::by_name(name).map(BuiltinType::name),
            Some(*name)
        );
    }
}
