//! The JSON document model shared by the vendored `serde` and
//! `serde_json`: a value tree, an exact-integer number type, a
//! renderer, and a recursive-descent parser.

use std::fmt;

/// A JSON number, keeping 64-bit integers exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative (or any signed) integer.
    I(i64),
    /// Floating point.
    F(f64),
}

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// As u64 when losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(Number::U(n)) => Some(*n),
            Value::Num(Number::I(n)) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// As i64 when losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(Number::I(n)) => Some(*n),
            Value::Num(Number::U(n)) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// As f64 (integers convert; `null` reads as NaN so non-finite
    /// floats round-trip through their `null` serialization).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(Number::F(x)) => Some(*x),
            Value::Num(Number::U(n)) => Some(*n as f64),
            Value::Num(Number::I(n)) => Some(*n as f64),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// As an object's pairs.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// As an array's items.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// One-word description for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Look up a field in an object's pairs (missing field reads as
/// `Null`, so `Option` fields can be omitted).
pub fn obj_get<'a>(pairs: &'a [(String, Value)], key: &str) -> &'a Value {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or(&Value::Null)
}

/// Serialization / deserialization failure.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    /// An error with a literal message.
    pub fn msg(m: impl Into<String>) -> Error {
        Error { message: m.into() }
    }

    /// A type-mismatch error.
    pub fn ty(expected: &str, got: &Value) -> Error {
        Error {
            message: format!("expected {expected}, got {}", got.kind()),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Copy each run of bytes that need no escape in one push; every
    // byte that does is ASCII, so run boundaries are char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => out.push_str(&format!("\\u{b:04x}")),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_number(out: &mut String, n: &Number) {
    match n {
        Number::U(v) => out.push_str(&v.to_string()),
        Number::I(v) => out.push_str(&v.to_string()),
        Number::F(x) => {
            if x.is_finite() {
                out.push_str(&x.to_string());
            } else {
                // serde_json's behaviour: non-finite floats become null.
                out.push_str("null");
            }
        }
    }
}

/// Render compactly.
pub fn render(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(out, n),
        Value::Str(s) => write_escaped(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
    }
}

/// Render with two-space indentation.
pub fn render_pretty(v: &Value, out: &mut String, indent: usize) {
    let pad = |out: &mut String, n: usize| {
        for _ in 0..n {
            out.push_str("  ");
        }
    };
    match v {
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                render_pretty(item, out, indent + 1);
            }
            out.push('\n');
            pad(out, indent);
            out.push(']');
        }
        Value::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                write_escaped(out, k);
                out.push_str(": ");
                render_pretty(item, out, indent + 1);
            }
            out.push('\n');
            pad(out, indent);
            out.push('}');
        }
        other => render(other, out),
    }
}

// ---------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
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
            Err(Error::msg(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::msg("unexpected end of input")),
            Some(b'n') => {
                if self.literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::msg("bad literal"))
                }
            }
            Some(b't') => {
                if self.literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::msg("bad literal"))
                }
            }
            Some(b'f') => {
                if self.literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::msg("bad literal"))
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(Error::msg("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.value()?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(pairs));
                        }
                        _ => return Err(Error::msg("expected ',' or '}'")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::msg("bad \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::msg("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the run up to the next quote or escape,
                    // validating it once.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::msg("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
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
            .map_err(|_| Error::msg("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::msg("invalid number"));
        }
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if stripped.parse::<u64>().is_ok() || text.parse::<i64>().is_ok() {
                    if let Ok(i) = text.parse::<i64>() {
                        return Ok(Value::Num(Number::I(i)));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Num(Number::U(u)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Num(Number::F(f)))
            .map_err(|_| Error::msg("invalid number"))
    }
}

/// Parse a complete JSON document.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg("trailing characters after JSON value"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(s: &str) -> String {
        let mut rendered = String::new();
        write_escaped(&mut rendered, s);
        match parse(&rendered) {
            Ok(Value::Str(back)) => back,
            other => panic!("{rendered:?} parsed as {other:?}"),
        }
    }

    #[test]
    fn strings_round_trip_escapes_and_utf8() {
        for s in [
            "",
            "plain",
            "q\"b\\s/n\nr\rt\t",
            "\u{1}\u{1f} \u{7f}",
            "héllo ✓ 𝄞 end",
            "\\\\\"\"",
        ] {
            assert_eq!(round_trip(s), s);
        }
        let mut out = String::new();
        write_escaped(&mut out, "a\"\\\n\r\t\u{1}é");
        assert_eq!(out, "\"a\\\"\\\\\\n\\r\\t\\u0001é\"");
        assert_eq!(
            parse(r#""\u00e9\u0041\/\b\f✓""#).expect("parses"),
            Value::Str("éA/\u{8}\u{c}✓".to_string())
        );
    }

    #[test]
    fn megabyte_string_round_trips_in_linear_time() {
        let s = "lint line ✓ \"quoted\" \\ tab\t\n".repeat(40_000);
        assert!(s.len() > 1_000_000);
        let start = std::time::Instant::now();
        assert!(round_trip(&s) == s);
        let took = start.elapsed();
        assert!(took.as_secs_f64() < 2.0, "1 MB string took {took:?}");
    }

    #[test]
    fn bad_strings_are_rejected() {
        for doc in ["\"abc", "\"abc\\", "\"\\x\"", "\"\\u12\"", "\"\\ud800\""] {
            assert!(parse(doc).is_err(), "{doc:?} must not parse");
        }
        // `parse` takes `&str`; invalid UTF-8 reaches the parser only
        // through its bytes.
        for bytes in [&b"\"a\xff\""[..], b"\"\xe2\x9c\"", b"\"ok\\n\xc3\""] {
            let mut p = Parser { bytes, pos: 0 };
            assert!(p.string().is_err(), "{bytes:?} must not parse");
        }
    }
}
