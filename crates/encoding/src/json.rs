//! A JSON document model, recursive-descent parser and serializer.
//!
//! The REST interfaces in the workspace (network controller north-bound API,
//! Verification Manager endpoints, IAS report bodies) exchange JSON. This
//! module provides an owned [`Json`] value, a strict parser ([`parse`]) and a
//! deterministic serializer (object keys keep insertion order).
//!
//! Numbers are stored as either `i64` or `f64`; this is sufficient for the
//! protocol fields used in the workspace (ports, counts, timestamps,
//! latencies).

use crate::EncodingError;

/// Maximum nesting depth accepted by the parser, guarding against stack
/// exhaustion from adversarial input on the REST surface.
pub const MAX_DEPTH: usize = 64;

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integral number (serialized without a decimal point).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Build an empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Insert or replace a field on an object; panics if `self` is not an
    /// object (programming error, not input error).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Object(fields) => {
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value.into();
                } else {
                    fields.push((key.to_string(), value.into()));
                }
            }
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    /// Fluent variant of [`Json::set`].
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.set(key, value);
        self
    }

    /// Field lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Index lookup on arrays.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Array(items) => items.get(index),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

impl std::fmt::Display for Json {
    /// Serialize to a compact string (no whitespace).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write_value(self, &mut out);
        f.write_str(&out)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n as i64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as i64)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        // Large u64s (e.g. hashes) must be transported as strings instead.
        Json::Int(n as i64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Array(iter.into_iter().map(Into::into).collect())
    }
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Float(x) => {
            if x.is_finite() {
                let s = format!("{x}");
                out.push_str(&s);
                // Keep floats distinguishable from ints on the wire.
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Object(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, EncodingError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(EncodingError::Malformed(format!(
            "trailing data at byte {}",
            parser.pos
        )));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, EncodingError> {
        let b = self.peek().ok_or(EncodingError::UnexpectedEnd)?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), EncodingError> {
        let got = self.bump()?;
        if got != b {
            return Err(EncodingError::Malformed(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char,
                self.pos - 1,
                got as char
            )));
        }
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Json, EncodingError> {
        if depth > MAX_DEPTH {
            return Err(EncodingError::TooDeep(MAX_DEPTH));
        }
        self.skip_ws();
        match self.peek().ok_or(EncodingError::UnexpectedEnd)? {
            b'{' => self.object(depth),
            b'[' => self.array(depth),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            b'n' => self.keyword("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(EncodingError::InvalidCharacter {
                position: self.pos,
                byte: other,
            }),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, EncodingError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(EncodingError::Malformed(format!(
                "invalid keyword at byte {}",
                self.pos
            )))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, EncodingError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(Json::Object(fields)),
                other => {
                    return Err(EncodingError::InvalidCharacter {
                        position: self.pos - 1,
                        byte: other,
                    })
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, EncodingError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(Json::Array(items)),
                other => {
                    return Err(EncodingError::InvalidCharacter {
                        position: self.pos - 1,
                        byte: other,
                    })
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, EncodingError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let cp = self.hex4()?;
                        if (0xd800..0xdc00).contains(&cp) {
                            // High surrogate: a low surrogate must follow.
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let lo = self.hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(EncodingError::Malformed("unpaired surrogate".into()));
                            }
                            let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                            out.push(char::from_u32(c).ok_or_else(|| {
                                EncodingError::Malformed("bad surrogate pair".into())
                            })?);
                        } else if (0xdc00..0xe000).contains(&cp) {
                            return Err(EncodingError::Malformed("unpaired surrogate".into()));
                        } else {
                            out.push(
                                char::from_u32(cp).ok_or_else(|| {
                                    EncodingError::Malformed("bad codepoint".into())
                                })?,
                            );
                        }
                    }
                    other => {
                        return Err(EncodingError::InvalidCharacter {
                            position: self.pos - 1,
                            byte: other,
                        })
                    }
                },
                b if b < 0x20 => {
                    return Err(EncodingError::Malformed(
                        "control character in string".into(),
                    ))
                }
                b if b < 0x80 => out.push(b as char),
                b => {
                    // Multi-byte UTF-8: re-decode from the source slice.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or(EncodingError::InvalidCharacter {
                        position: start,
                        byte: b,
                    })?;
                    if start + len > self.bytes.len() {
                        return Err(EncodingError::UnexpectedEnd);
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| EncodingError::Malformed("invalid utf-8".into()))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, EncodingError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump()?;
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => {
                    return Err(EncodingError::InvalidCharacter {
                        position: self.pos - 1,
                        byte: b,
                    })
                }
            };
            v = (v << 4) | d as u32;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, EncodingError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: "0" or non-zero digit followed by digits.
        match self.bump()? {
            b'0' => {}
            b'1'..=b'9' => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            other => {
                return Err(EncodingError::InvalidCharacter {
                    position: self.pos - 1,
                    byte: other,
                })
            }
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(EncodingError::Malformed("digit expected after '.'".into()));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(EncodingError::Malformed(
                    "digit expected in exponent".into(),
                ));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| EncodingError::Malformed(format!("bad float: {e}")))
        } else {
            match text.parse::<i64>() {
                Ok(n) => Ok(Json::Int(n)),
                // Out-of-range integers degrade to floats rather than failing.
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|e| EncodingError::Malformed(format!("bad number: {e}"))),
            }
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().at(0), Some(&Json::Int(1)));
        assert_eq!(
            doc.get("a").unwrap().at(1).unwrap().get("b"),
            Some(&Json::Null)
        );
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("line\nquote\" \\ tab\t unicode \u{263a} nul\u{0001}".into());
        let text = original.to_string();
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Json::Str("A\u{e9}".into()));
        // Surrogate pair for U+1F600.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("\u{1f600}".into()));
    }

    #[test]
    fn rejects_unpaired_surrogates() {
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("1 2").is_err());
        assert!(parse("{} x").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[", "\"", "{\"a\"}", "{\"a\":}", "[1,]", "{,}", "01", "1.", "--1", "+1",
            "tru", "nul", "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(parse(&deep), Err(EncodingError::TooDeep(MAX_DEPTH)));
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn object_builder_and_lookup() {
        let doc = Json::object()
            .with("name", "tee-1")
            .with("port", 8443i64)
            .with("ratio", 0.5)
            .with("ok", true)
            .with("tags", vec![Json::from("a"), Json::from("b")]);
        assert_eq!(doc.get("port").and_then(Json::as_i64), Some(8443));
        assert_eq!(doc.get("ratio").and_then(Json::as_f64), Some(0.5));
        assert_eq!(doc.get("tags").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut doc = Json::object().with("a", 1i64);
        doc.set("a", 2i64);
        assert_eq!(doc.get("a").and_then(Json::as_i64), Some(2));
        assert_eq!(doc.as_object().unwrap().len(), 1);
    }

    #[test]
    fn serialization_roundtrip() {
        let doc = Json::object()
            .with("list", (0..5i64).collect::<Json>())
            .with(
                "nested",
                Json::object().with("f", 2.25).with("n", Json::Null),
            );
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn float_serialization_keeps_type() {
        // A whole-valued float must not be re-read as an Int.
        let v = Json::Float(3.0);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn huge_integer_degrades_to_float() {
        let doc = parse("123456789012345678901234567890").unwrap();
        assert!(matches!(doc, Json::Float(_)));
    }
}
