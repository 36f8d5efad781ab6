//! `complx-json` — the workspace's one JSON implementation: a minimal
//! document model with a hand-rolled serializer and parser.
//!
//! The crate has no dependencies, so the instrumentation layer
//! (`complx-obs`, which re-exports it) and everything above it can use
//! it. It implements exactly the subset of JSON the run reports, JSONL
//! event streams and bench snapshots need: objects with ordered keys,
//! arrays, strings, booleans, integers and floats. Non-finite floats
//! serialize as `null` (JSON has no NaN/Inf). The parser accepts any RFC 8259 document
//! produced by the serializer (and standard JSON generally) nested at most
//! [`MAX_DEPTH`] deep, so a hostile input is an error, not a stack
//! overflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    forbid(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    ),
    deny(clippy::float_cmp, clippy::float_cmp_const)
)]

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum JsonValue {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is exactly an integer (serialized without a decimal
    /// point, so counters round-trip exactly).
    Int(i64),
    /// A floating-point number. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order is preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs.
    pub fn object(fields: Vec<(&str, JsonValue)>) -> Self {
        JsonValue::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (`Int` and `Num` both qualify).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an integer (floats qualify only when exactly integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string (no trailing newline).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation (no trailing newline).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                for _ in 0..w * depth {
                    out.push(' ');
                }
            }
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Num(n) => {
                if n.is_finite() {
                    // `{:?}` prints the shortest representation that parses
                    // back to the same f64 (and always includes `.` or `e`).
                    let _ = write!(out, "{n:?}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::from(v as u64)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        if v <= i64::MAX as u64 {
            JsonValue::Int(v as i64)
        } else {
            JsonValue::Num(v as f64)
        }
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The workspace writes
/// documents at most a handful of levels deep; the bound only exists so a
/// hostile input cannot overflow the parser's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Trailing whitespace is allowed; trailing garbage
/// and nesting deeper than [`MAX_DEPTH`] are errors.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, ParseError>,
    ) -> Result<JsonValue, ParseError> {
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // serializer; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
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
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = JsonValue::object(vec![
            ("name", "a\"b\\c\nd".into()),
            ("count", 42i64.into()),
            ("ratio", 0.1f64.into()),
            ("big", 1.5e300f64.into()),
            ("ok", true.into()),
            ("none", JsonValue::Null),
            (
                "items",
                JsonValue::Arr(vec![1i64.into(), 2i64.into(), "x".into()]),
            ),
            ("empty_obj", JsonValue::Obj(vec![])),
            ("empty_arr", JsonValue::Arr(vec![])),
        ]);
        for text in [doc.to_json_string(), doc.to_json_pretty()] {
            assert_eq!(parse(&text).expect("parses"), doc, "text: {text}");
        }
    }

    #[test]
    fn integers_round_trip_exactly() {
        for v in [0i64, -1, i64::MAX, i64::MIN + 1] {
            let text = JsonValue::Int(v).to_json_string();
            assert_eq!(parse(&text).expect("parses"), JsonValue::Int(v));
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, -2.5e-8, 1e300, 123456.789] {
            let text = JsonValue::Num(v).to_json_string();
            assert_eq!(parse(&text).expect("parses"), JsonValue::Num(v));
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).to_json_string(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).to_json_string(), "null");
    }

    #[test]
    fn accessors_work() {
        let doc = parse(r#"{"a": 1, "b": "s", "c": [true], "d": 2.5}"#).expect("parses");
        assert_eq!(doc.get("a").and_then(JsonValue::as_i64), Some(1));
        assert_eq!(doc.get("b").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(
            doc.get("c").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(doc.get("d").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "\"abc",
            "{\"a\" 1}",
            "1 2",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.message.contains("nesting"), "{err}");
        // Far past the bound: an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line1\nline2\ttab \"quoted\" back\\slash \u{1} unicode β";
        let text = JsonValue::Str(s.to_string()).to_json_string();
        assert_eq!(parse(&text).expect("parses"), JsonValue::Str(s.to_string()));
    }
}
