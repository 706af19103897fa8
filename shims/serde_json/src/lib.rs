//! Minimal `serde_json`: a hand-written JSON parser and writer over the
//! shim `serde`'s `Content` tree, a dynamic [`Value`] type, and the
//! `to_string`/`to_string_pretty`/`to_vec`/`from_str`/`from_slice`
//! entry points. Object keys keep insertion order, so output for a
//! given value is deterministic byte-for-byte.

use serde::{Content, Deserialize, Serialize};

/// Parse or shape-mismatch failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Dynamically-typed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Object member lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as an i64, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) if *v <= i64::MAX as u64 => Some(*v as i64),
            _ => None,
        }
    }

    /// The value as an f64, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

// A single integer comparison impl, so `value["k"] == 1` infers u64.
impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

fn value_to_content(v: &Value) -> Content {
    match v {
        Value::Null => Content::Null,
        Value::Bool(b) => Content::Bool(*b),
        Value::U64(n) => Content::U64(*n),
        Value::I64(n) => Content::I64(*n),
        Value::F64(n) => Content::F64(*n),
        Value::String(s) => Content::Str(s.clone()),
        Value::Array(items) => Content::Seq(items.iter().map(value_to_content).collect()),
        Value::Object(entries) => Content::Map(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), value_to_content(v)))
                .collect(),
        ),
    }
}

fn content_to_value(c: &Content) -> Value {
    match c {
        Content::Null => Value::Null,
        Content::Bool(b) => Value::Bool(*b),
        Content::U64(n) => Value::U64(*n),
        Content::I64(n) => Value::I64(*n),
        Content::F64(n) => Value::F64(*n),
        Content::Str(s) => Value::String(s.clone()),
        Content::Seq(items) => Value::Array(items.iter().map(content_to_value).collect()),
        Content::Map(entries) => Value::Object(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), content_to_value(v)))
                .collect(),
        ),
    }
}

impl Serialize for Value {
    fn to_content(&self) -> Content {
        value_to_content(self)
    }
}

impl Deserialize for Value {
    fn from_content(c: &Content) -> Result<Self, String> {
        Ok(content_to_value(c))
    }
}

// ---- writer ----

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is shortest-round-trip and always keeps a decimal
        // point or exponent, so the value re-parses as a float.
        out.push_str(&format!("{v:?}"));
    } else {
        // Real serde_json refuses non-finite floats; a diagnostic dump
        // is more useful than a panic here.
        out.push_str("null");
    }
}

fn write_compact(out: &mut String, c: &Content) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::F64(v) => write_f64(out, *v),
        Content::Str(s) => escape_into(out, s),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                write_compact(out, v);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, c: &Content, indent: usize) {
    let pad = "  ".repeat(indent);
    let inner_pad = "  ".repeat(indent + 1);
    match c {
        Content::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&inner_pad);
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push(']');
        }
        Content::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&inner_pad);
                escape_into(out, k);
                out.push_str(": ");
                write_pretty(out, v, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

/// Compact JSON text for `value`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&mut out, &value.to_content());
    Ok(out)
}

/// Human-readable (2-space indented) JSON text for `value`.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_content(), 0);
    Ok(out)
}

/// Compact JSON bytes for `value`.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

// ---- parser ----

/// Nesting budget of one parse, the real crate's: the 128th open
/// container is refused, so untrusted bytes cannot recurse the parser
/// off the stack.
const RECURSION_LIMIT: u32 = 128;

struct Parser<'s> {
    bytes: &'s [u8],
    pos: usize,
}

impl<'s> Parser<'s> {
    fn err<T>(&self, msg: &str) -> Result<T, Error> {
        Err(Error(format!("{msg} at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            self.err(&format!("expected `{kw}`"))
        }
    }

    fn parse_value(&mut self, depth: u32) -> Result<Content, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth <= 1 => self.err("recursion limit exceeded"),
            Some(b'n') => {
                self.expect_keyword("null")?;
                Ok(Content::Null)
            }
            Some(b't') => {
                self.expect_keyword("true")?;
                Ok(Content::Bool(true))
            }
            Some(b'f') => {
                self.expect_keyword("false")?;
                Ok(Content::Bool(false))
            }
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                loop {
                    items.push(self.parse_value(depth - 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Content::Seq(items));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value(depth - 1)?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Content::Map(entries));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(Error("truncated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, however many bytes.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error("invalid UTF-8".into()))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return self.err("truncated \\u escape");
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error("invalid \\u escape".into()))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| Error("invalid \\u escape".into()))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Content::F64)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(Content::I64)
                .ok_or_else(|| Error(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Content::U64)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        }
    }
}

fn parse(bytes: &[u8]) -> Result<Content, Error> {
    let mut p = Parser { bytes, pos: 0 };
    let v = p.parse_value(RECURSION_LIMIT)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

/// Parses `s` into a `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    from_slice(s.as_bytes())
}

/// Parses `bytes` into a `T`.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let content = parse(bytes)?;
    T::from_content(&content).map_err(Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let v: Value =
            from_str(r#"{"a": 1, "b": [-2, 1.5, "x\n", true, null], "c": {}}"#).unwrap();
        assert_eq!(v["a"], 1);
        assert_eq!(v["b"].as_array().unwrap().len(), 5);
        assert_eq!(v["missing"], Value::Null);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn nesting_past_the_recursion_limit_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nested(127)).is_ok());
        let err = from_str::<Value>(&nested(128)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        assert!(from_slice::<Value>(&vec![b'['; 200_000]).is_err());
        assert!(from_str::<Value>(&r#"{"k":"#.repeat(200_000)).is_err());
    }

    #[test]
    fn pretty_format_is_indented() {
        let v: Value = from_str(r#"{"k":[1,2]}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(pretty, "{\n  \"k\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn floats_keep_their_point() {
        let text = to_string(&vec![1.0f64, 0.5]).unwrap();
        assert_eq!(text, "[1.0,0.5]");
        let back: Vec<f64> = from_str(&text).unwrap();
        assert_eq!(back, vec![1.0, 0.5]);
    }
}
