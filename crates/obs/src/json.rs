//! The workspace's one JSON codec, std-only: a string escaper for the
//! hand-rendered output side (Chrome trace export, HTTP verdict bodies)
//! and a strict parser for the input side (trace validation, session
//! patch bodies).
//!
//! The parser favors clarity over speed: full strict syntax, a nesting
//! cap instead of recursion-depth trust, surrogate pairs checked, raw
//! control bytes in strings rejected, objects kept as ordered pairs.

/// Appends `s` as a JSON string literal (quotes included).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// `[ … ]`
    Array(Vec<JsonValue>),
    /// `{ … }`, insertion-ordered.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum container nesting [`parse_json`] accepts.
const JSON_MAX_DEPTH: usize = 64;

/// Parses one JSON document (a value with nothing but whitespace after
/// it). Errors are human-readable one-liners.
pub fn parse_json(src: &str) -> Result<JsonValue, String> {
    let mut p = JsonParser {
        bytes: src.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.at));
    }
    Ok(value)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.at) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > JSON_MAX_DEPTH {
            return Err("JSON nested too deeply".into());
        }
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(format!("unexpected {:?} at byte {}", b as char, self.at)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.at;
        if self.bytes.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        while matches!(
            self.bytes.get(self.at),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii digits");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let unit = self.hex4()?;
                            // surrogate pairs: a high surrogate must be
                            // followed by \uDC00..DFFF
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if self.bytes.get(self.at + 1) != Some(&b'\\')
                                    || self.bytes.get(self.at + 2) != Some(&b'u')
                                {
                                    return Err("lone high surrogate".into());
                                }
                                self.at += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("bad low surrogate".into());
                                }
                                let cp = 0x10000
                                    + ((unit as u32 - 0xD800) << 10)
                                    + (low as u32 - 0xDC00);
                                char::from_u32(cp).ok_or("bad surrogate pair")?
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err("lone low surrogate".into());
                            } else {
                                char::from_u32(unit as u32).ok_or("bad \\u escape")?
                            };
                            out.push(c);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.at))
                }
                Some(_) => {
                    // copy one UTF-8 scalar (input is a &str, so this is
                    // always well-formed)
                    let rest = std::str::from_utf8(&self.bytes[self.at..]).expect("utf-8 input");
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        self.at += 1; // past 'u'
        let end = self.at + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.at..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let unit = u16::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.at = end - 1; // the shared `+= 1` after the match finishes it
        Ok(unit)
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\re\tf\u{1}g");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\"");
    }

    #[test]
    fn json_parser_round_trips_patch_shapes() {
        let v =
            parse_json("{\"op\":\"set_text\",\"path\":[0, 2],\"text\":\"a\\u00e9\\n\\\"b\\\"\"}")
                .unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("set_text"));
        let path: Vec<usize> = v
            .get("path")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_usize().unwrap())
            .collect();
        assert_eq!(path, vec![0, 2]);
        assert_eq!(v.get("text").unwrap().as_str(), Some("aé\n\"b\""));
        // surrogate pairs decode
        let v = parse_json("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // malformed inputs are rejected, not mangled
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"\\ud800\"",
            "nul",
            "1 2",
            "{\"a\":1",
            "\"unterminated",
            "1e999",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?}");
        }
        // deep nesting trips the cap instead of the stack
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse_json(&ok).is_ok());
    }
}
