//! `sinr-wire`: a dependency-free, canonical JSON-subset wire format.
//!
//! The serialization seam of the workspace (scenario submissions, run
//! reports, streamed round traces) in the same spirit as the in-tree
//! `crates/rand` shim: the container has no registry, so the format is
//! implemented here rather than pulled in as `serde_json`.
//!
//! # Canonical form
//!
//! [`Value::encode`] emits a *canonical* byte string: no whitespace,
//! object fields in the order the encoder pushed them, integers in plain
//! decimal, floats through Rust's shortest round-trip `Display`. Two
//! properties follow, and the golden tests in
//! `crates/core/src/sim/wire.rs` and `tests/roundtrip.rs` pin them:
//!
//! 1. **encode → parse → encode is byte-identical** for every value this
//!    crate can produce (the server's determinism contract extends over
//!    the wire: byte-identical reports stay byte-identical as text).
//! 2. Numbers survive exactly: `u64` values (seeds!) round-trip through
//!    [`Value::UInt`] without passing through `f64`, and finite floats
//!    round-trip bit-exactly via shortest-display parsing.
//!
//! Note that canonical-form identity is a *byte* property, not a
//! [`Value`]-tree property: `Float(1.0)` encodes as `1`, which parses
//! back as `UInt(1)`. Schema-directed decoders therefore read numbers
//! through the coercing accessors ([`Value::as_f64`] accepts any numeric
//! variant) rather than matching variants directly.
//!
//! Non-finite floats have no JSON representation; [`Value::encode`]
//! writes them as `null` (the codecs upstream never produce them).
//!
//! # Grammar
//!
//! The accepted grammar is standard JSON restricted to UTF-8 input:
//! `null`, `true`/`false`, numbers (with optional fraction/exponent),
//! strings with `\" \\ \/ \b \f \n \r \t \uXXXX` escapes (surrogate
//! pairs supported), arrays, and objects. Parsing is recursive descent
//! with an explicit depth limit of [`MAX_DEPTH`] so untrusted input
//! cannot overflow the stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Libraries return data; binaries print (README.md "Static analysis").
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

use std::fmt;

/// Maximum nesting depth the parser accepts (arrays + objects combined).
pub const MAX_DEPTH: usize = 64;

/// A JSON value with exact integer variants.
///
/// Unsigned and signed integers are kept apart from floats so 64-bit
/// seeds and counters survive the wire without rounding through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no sign, no fraction/exponent).
    UInt(u64),
    /// A negative integer literal (no fraction/exponent).
    Int(i64),
    /// A number literal carrying a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: ordered field list (the canonical encoder writes the
    /// fields in exactly this order; no hashing anywhere).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Canonical encoding: no whitespace, fields in stored order.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// As [`Value::encode`], appending to an existing buffer.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(u) => {
                let mut buf = itoa_u64(*u);
                out.push_str(buf.as_str_mut());
            }
            Value::Int(i) => {
                if *i < 0 {
                    out.push('-');
                    let mut buf = itoa_u64(i.unsigned_abs());
                    out.push_str(buf.as_str_mut());
                } else {
                    let mut buf = itoa_u64(*i as u64);
                    out.push_str(buf.as_str_mut());
                }
            }
            Value::Float(x) => {
                if x.is_finite() {
                    // Shortest round-trip representation; parses back to
                    // the identical f64 (or to UInt/Int when the value
                    // happens to be integral — the coercing accessors
                    // absorb that).
                    use fmt::Write as _;
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => encode_str(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(key, out);
                    out.push(':');
                    val.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `input`; trailing content (other than
    /// whitespace) is an error.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after value"));
        }
        Ok(v)
    }

    /// The value as `u64`, coercing from any integer variant.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `usize`, coercing from any integer variant.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }

    /// The value as `i64`, coercing from any integer variant.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::UInt(u) => i64::try_from(*u).ok(),
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `f64`, coercing from any numeric variant (canonical
    /// encoding strips the fraction from integral floats, so decoders of
    /// float-typed fields must accept integer literals).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object field list.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up `key` in an object (first match; `None` for non-objects
    /// and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Stack buffer for u64 decimal formatting (avoids a `format!` heap
/// allocation on the hot encode path).
struct Itoa {
    buf: [u8; 20],
    start: usize,
}

impl Itoa {
    fn as_str_mut(&mut self) -> &str {
        // Digits are ASCII by construction.
        std::str::from_utf8(&self.buf[self.start..]).unwrap_or("0")
    }
}

fn itoa_u64(mut v: u64) -> Itoa {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    Itoa { buf, start: i }
}

fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where the failure was detected.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so any byte run inside it is
                // valid UTF-8 as long as it starts and ends on char
                // boundaries — '"' and '\\' are ASCII, so it does.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let b = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired high surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired high surrogate"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                };
                out.push(c);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("bad hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err("expected digit"));
        }
        // Leading zeros are rejected (canonical form has none).
        if self.pos - int_start > 1 && self.bytes[int_start] == b'0' {
            return Err(self.err("leading zero in number"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digit in exponent"));
            }
        }
        // The slice is ASCII digits/sign/dot/exponent by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            let x: f64 = text.parse().map_err(|_| self.err("invalid float"))?;
            Ok(Value::Float(x))
        } else if negative {
            match text.parse::<i64>() {
                Ok(i) => Ok(Value::Int(i)),
                // Magnitude overflow: fall back to float like JSON does.
                Err(_) => {
                    let x: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
                    Ok(Value::Float(x))
                }
            }
        } else {
            match text.parse::<u64>() {
                Ok(u) => Ok(Value::UInt(u)),
                Err(_) => {
                    let x: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
                    Ok(Value::Float(x))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> String {
        let text = v.encode();
        let back = Value::parse(&text).expect("canonical text parses");
        assert_eq!(back.encode(), text, "encode->parse->encode not stable");
        text
    }

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(roundtrip(&Value::Null), "null");
        assert_eq!(roundtrip(&Value::Bool(true)), "true");
        assert_eq!(roundtrip(&Value::Bool(false)), "false");
        assert_eq!(roundtrip(&Value::UInt(0)), "0");
        assert_eq!(roundtrip(&Value::UInt(u64::MAX)), "18446744073709551615");
        assert_eq!(roundtrip(&Value::Int(-42)), "-42");
        assert_eq!(roundtrip(&Value::Int(i64::MIN)), "-9223372036854775808");
        assert_eq!(
            roundtrip(&Value::Str("hi \"there\"\n".into())),
            r#""hi \"there\"\n""#
        );
    }

    #[test]
    fn u64_exactness() {
        // A value f64 cannot represent: must survive via UInt.
        let v = Value::UInt(u64::MAX - 1);
        let back = Value::parse(&v.encode()).unwrap();
        assert_eq!(back.as_u64(), Some(u64::MAX - 1));
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        for x in [
            0.5,
            -1.25e-7,
            std::f64::consts::PI,
            1e300,
            f64::MIN_POSITIVE,
        ] {
            let text = Value::Float(x).encode();
            let back = Value::parse(&text).unwrap();
            let y = back.as_f64().unwrap();
            assert_eq!(y.to_bits(), x.to_bits(), "float {x} corrupted to {y}");
        }
        // Integral floats canonicalise to integer literals — the accessor
        // coerces back.
        let text = Value::Float(2.0).encode();
        assert_eq!(text, "2");
        assert_eq!(Value::parse(&text).unwrap().as_f64(), Some(2.0));
        // Non-finite floats degrade to null.
        assert_eq!(Value::Float(f64::NAN).encode(), "null");
        assert_eq!(Value::Float(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn containers_roundtrip() {
        let v = Value::Object(vec![
            ("seed".into(), Value::UInt(2014)),
            ("name".into(), Value::str("nos-broadcast")),
            (
                "xs".into(),
                Value::Array(vec![Value::UInt(1), Value::Null, Value::Bool(false)]),
            ),
            (
                "nested".into(),
                Value::Object(vec![("k".into(), Value::Float(0.25))]),
            ),
        ]);
        let text = roundtrip(&v);
        assert_eq!(
            text,
            r#"{"seed":2014,"name":"nos-broadcast","xs":[1,null,false],"nested":{"k":0.25}}"#
        );
        let back = Value::parse(&text).unwrap();
        assert_eq!(back.get("seed").and_then(Value::as_u64), Some(2014));
        assert_eq!(
            back.get("name").and_then(Value::as_str),
            Some("nos-broadcast")
        );
        assert_eq!(back.get("missing"), None);
    }

    #[test]
    fn whitespace_and_escapes_accepted() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"\\u0041\\u00e9\\ud83d\\ude00\" } ")
            .unwrap();
        assert_eq!(v.get("b").and_then(Value::as_str), Some("Aé😀"));
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "01",
            "1.",
            "1e",
            "\"abc",
            "\"\\q\"",
            "{\"a\":1,}",
            "[1] x",
            "\"\\ud800\"",
            "nul",
            "-",
        ] {
            assert!(
                Value::parse(bad).is_err(),
                "accepted malformed input {bad:?}"
            );
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Value::parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(Value::parse(&ok).is_ok());
    }
}
