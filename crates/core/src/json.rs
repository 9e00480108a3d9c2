//! Minimal JSON support for the static configuration file.
//!
//! The build environment is offline, so `serde`/`serde_json` are not
//! available; this module provides the small subset [`crate::NetConfig`]
//! needs: a strict recursive-descent parser producing a [`Json`] tree, plus
//! string escaping for serialization. It is not a general-purpose JSON
//! library (no streaming, no number fidelity beyond `f64`).

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; exact for integers below 2^53).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// Parse or type-conversion failure.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    msg: String,
    field: Option<&'static str>,
}

impl JsonError {
    fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into(), field: None }
    }

    /// Error for a document whose top level is not an object.
    pub fn not_an_object() -> Self {
        JsonError::new("expected a JSON object at the top level")
    }

    /// Error for an integer field whose value does not fit its type.
    pub(crate) fn out_of_range(field: &'static str, value: u64, max: impl fmt::Display) -> Self {
        JsonError::new(format!("{value} is out of range (max {max})")).in_field(field)
    }

    /// The same error, attributed to configuration field `field`.
    pub(crate) fn in_field(self, field: &'static str) -> Self {
        JsonError { msg: format!("`{field}`: {}", self.msg), field: Some(field) }
    }

    /// The configuration field the error is about, when it names one.
    pub fn field(&self) -> Option<&'static str> {
        self.field
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// The value as a string, or a type error.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as an unsigned integer, or a type error.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which itself does not fit.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => Ok(*n as u64),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => {
                Err(JsonError::new(format!("{n} is out of range (max {})", u64::MAX)))
            }
            other => Err(JsonError::new(format!("expected unsigned integer, got {other:?}"))),
        }
    }

    /// The value as a bool, or a type error.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {other:?}"))),
        }
    }

    /// The value as a number, or a type error.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(JsonError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// The value as an array slice, or a type error.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::new(format!("expected array, got {other:?}"))),
        }
    }

    /// The value as an object's field list (source order), or a type error.
    pub fn as_obj(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(JsonError::new(format!("expected object, got {other:?}"))),
        }
    }

    /// Field `key` of an object (first occurrence), if present. `None` both
    /// for a missing key and for a non-object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    /// Compact rendering with a deterministic number format: integers below
    /// 2^53 print without a decimal point, everything else uses Rust's
    /// shortest-round-trip `f64` formatting — so `parse(render(v))`
    /// reproduces `v` exactly and repeated parse/render cycles are
    /// byte-stable (the property scenario and checkpoint files rely on).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write!(f, "{}", escape(s)),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Pretty-print a value with two-space indentation.
///
/// Uses the same deterministic number and string rendering as the compact
/// [`Json`] `Display` impl, so `parse(pretty(v))` reproduces `v` exactly;
/// only the whitespace differs. Scenario and checkpoint files are written
/// in this form so they diff cleanly under version control.
pub fn pretty(v: &Json) -> String {
    let mut out = String::new();
    pretty_into(v, 0, &mut out);
    out
}

fn pretty_into(v: &Json, indent: usize, out: &mut String) {
    match v {
        Json::Arr(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                for _ in 0..indent + 2 {
                    out.push(' ');
                }
                pretty_into(item, indent + 2, out);
            }
            out.push('\n');
            for _ in 0..indent {
                out.push(' ');
            }
            out.push(']');
        }
        Json::Obj(fields) if !fields.is_empty() => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                for _ in 0..indent + 2 {
                    out.push(' ');
                }
                out.push_str(&escape(k));
                out.push_str(": ");
                pretty_into(item, indent + 2, out);
            }
            out.push('\n');
            for _ in 0..indent {
                out.push(' ');
            }
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so without a bound a request line of a few
/// hundred kilobytes of `[` overflows the stack; scenario and checkpoint
/// documents nest well under ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed, nothing
/// else; at most [`MAX_DEPTH`] levels of nesting).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::new(format!("trailing garbage at byte {}", p.pos)));
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
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, JsonError> {
        let b = self.peek().ok_or_else(|| JsonError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        let got = self.bump()?;
        if got != b {
            return Err(JsonError::new(format!(
                "expected '{}' at byte {}, got '{}'",
                b as char,
                self.pos - 1,
                got as char
            )));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => {
                Err(JsonError::new(format!("unexpected '{}' at byte {}", c as char, self.pos)))
            }
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(Json::Obj(fields)),
                c => {
                    return Err(JsonError::new(format!(
                        "expected ',' or '}}' at byte {}, got '{}'",
                        self.pos - 1,
                        c as char
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(Json::Arr(items)),
                c => {
                    return Err(JsonError::new(format!(
                        "expected ',' or ']' at byte {}, got '{}'",
                        self.pos - 1,
                        c as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let c = self.bump()? as char;
                            code = code * 16
                                + c.to_digit(16).ok_or_else(|| {
                                    JsonError::new(format!("bad \\u escape at byte {}", self.pos))
                                })?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    c => {
                        return Err(JsonError::new(format!(
                            "bad escape '\\{}' at byte {}",
                            c as char,
                            self.pos - 1
                        )))
                    }
                },
                c if c < 0x20 => {
                    return Err(JsonError::new(format!(
                        "raw control byte in string at {}",
                        self.pos - 1
                    )))
                }
                c => {
                    // Re-assemble UTF-8 continuation bytes verbatim.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let len = if c >= 0xF0 {
                            4
                        } else if c >= 0xE0 {
                            3
                        } else {
                            2
                        };
                        if start + len > self.bytes.len() {
                            return Err(JsonError::new("truncated UTF-8 sequence"));
                        }
                        let s = std::str::from_utf8(&self.bytes[start..start + len])
                            .map_err(|_| JsonError::new("invalid UTF-8 in string"))?;
                        out.push_str(s);
                        self.pos = start + len;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number scan only accepts ASCII bytes");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::new(format!("bad number '{text}' at byte {start}")))
    }
}

/// Escape a string for inclusion in JSON output (adds quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5}}"#)
            .expect("literal is valid JSON");
        let Json::Obj(fields) = v else { panic!("not an object") };
        assert_eq!(fields[0], ("a".into(), Json::Num(1.0)));
        assert_eq!(
            fields[1].1,
            Json::Arr(vec![Json::Bool(true), Json::Null, Json::Str("x\n".into())])
        );
        assert_eq!(fields[2].1, Json::Obj(vec![("d".into(), Json::Num(-2.5))]));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{not json").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded() -> Result<(), JsonError> {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(100_000)).is_err(), "deep input must be refused, not overflow");
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        let mut v = parse(&nest(MAX_DEPTH))?;
        let mut depth = 0;
        while let Json::Arr(mut items) = v {
            depth += 1;
            v = items.pop().unwrap_or(Json::Null);
        }
        assert_eq!(depth, MAX_DEPTH);
        let objs = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objs).is_ok());
        let objs = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse(&objs).is_err());
        Ok(())
    }

    #[test]
    fn escape_round_trips() {
        let s = "line\n\"quoted\"\tüñî";
        let parsed = parse(&escape(s)).expect("escape output is valid JSON");
        assert_eq!(parsed, Json::Str(s.to_string()));
    }

    #[test]
    fn typed_accessors() {
        let v = parse(r#"{"n": 3, "s": "hi", "b": false}"#).expect("literal is valid JSON");
        let Json::Obj(f) = v else { unreachable!() };
        assert_eq!(f[0].1.as_u64().expect("n is a number"), 3);
        assert_eq!(f[1].1.as_str().expect("s is a string"), "hi");
        assert!(!f[2].1.as_bool().expect("b is a bool"));
        assert!(f[0].1.as_str().is_err());
        assert!(f[1].1.as_u64().is_err());
        assert!(Json::Num(-1.0).as_u64().is_err());
        assert!(Json::Num(1.5).as_u64().is_err());
    }
}
