//! Minimal JSON reader/writer for the wire protocol.
//!
//! The workspace builds offline with no JSON crate, so the service
//! speaks JSON through this ~400 line module: a recursive-descent
//! parser into [`Value`] and
//! an escaping writer. It covers exactly what `mcr-req v1` /
//! `mcr-resp v1` need — objects, arrays, strings with `\uXXXX`
//! escapes, integers/floats, booleans, null — and rejects everything
//! else with a position-carrying error.
//!
//! Both directions are one linear pass. [`parse`] takes `&str`, so the
//! input is UTF-8-validated once by whoever built it; string literals
//! are then decoded a maximal run of plain bytes at a time (a run ends
//! only at `"`, `\` or a control byte, all ASCII, so each run is a
//! char-boundary slice copied with one `push_str`). [`escape`] and
//! [`ObjWriter`] copy plain runs the same way and write only the
//! characters that need it as escapes. A multi-megabyte inline graph
//! therefore costs a few milliseconds to decode, not minutes.

// Wire parsing must never panic on hostile bytes; CI runs clippy with
// -D warnings, so these lints are a gate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Object keys keep only the last duplicate, in
/// sorted order (BTreeMap) — fine for a protocol that never relies on
/// key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All JSON numbers; integers that fit i64 are exact.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Moves the string under `key` out of an object, leaving the key
    /// absent; `None` (and the key removed) when it holds no string.
    pub fn take_str(&mut self, key: &str) -> Option<String> {
        match self {
            Value::Obj(m) => match m.remove(key) {
                Some(Value::Str(s)) => Some(s),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    pub at: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut pos = 0usize;
    let v = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(v)
}

fn err(at: usize, message: &str) -> JsonError {
    JsonError {
        at,
        message: message.to_string(),
    }
}

const MAX_DEPTH: usize = 64;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while let Some(c) = b.get(*pos) {
        if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(src: &str, pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    let b = src.as_bytes();
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(src, pos, depth + 1)? {
                    Value::Str(s) => s,
                    _ => return Err(err(*pos, "object key must be a string")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected `:` after object key"));
                }
                *pos += 1;
                let val = parse_value(src, pos, depth + 1)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}` in object")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(arr));
            }
            loop {
                arr.push(parse_value(src, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(arr));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]` in array")),
                }
            }
        }
        Some(b'"') => parse_string(src, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, JsonError> {
    if b.get(*pos..*pos + lit.len()) == Some(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while b
        .get(*pos)
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(b.get(start..*pos).unwrap_or(b""))
        .map_err(|_| err(start, "invalid number"))?;
    let n: f64 = text.parse().map_err(|_| err(start, "invalid number"))?;
    if !n.is_finite() {
        return Err(err(start, "number out of range"));
    }
    Ok(Value::Num(n))
}

/// Decodes a string literal starting at its opening quote. Plain text
/// is copied a maximal run at a time: a run ends only at `"`, `\` or a
/// byte below 0x20, all ASCII, so every run is a char-boundary slice of
/// `src` and needs no UTF-8 check of its own.
fn parse_string(src: &str, pos: &mut usize) -> Result<String, JsonError> {
    let b = src.as_bytes();
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        let start = *pos;
        while b
            .get(*pos)
            .is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20)
        {
            *pos += 1;
        }
        // Both ends sit on ASCII bytes (or the end of input), so the
        // slice is on char boundaries and cannot fail.
        out.push_str(&src[start..*pos]);
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogates are not paired here; the protocol
                        // never emits them. Replace to stay lossless-ish.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => return Err(err(*pos, "raw control character in string")),
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s`, escaped, to `out`. Plain text is copied a maximal run at
/// a time; only `"`, `\` and control characters break a run, and each
/// becomes its short escape or `\u00XX`.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut start = 0;
    for (i, c) in s.bytes().enumerate() {
        let short = match c {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\t' => Some("\\t"),
            b'\r' => Some("\\r"),
            c if c < 0x20 => None,
            _ => continue,
        };
        // `i` indexes an ASCII byte, so both slice ends are char
        // boundaries.
        out.push_str(&s[start..i]);
        match short {
            Some(esc) => out.push_str(esc),
            None => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(c >> 4)]));
                out.push(char::from(HEX[usize::from(c & 0xf)]));
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// Incremental JSON object writer: `Writer::obj().str("k", "v")...`.
/// Key order is emission order, so response layouts are stable.
#[derive(Default)]
pub struct ObjWriter {
    buf: String,
    first: bool,
}

impl ObjWriter {
    pub fn new() -> ObjWriter {
        ObjWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn i64(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn null(mut self, k: &str) -> Self {
        self.key(k);
        self.buf.push_str("null");
        self
    }

    /// Raw pre-encoded JSON (arrays, nested objects).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    pub fn opt_str(self, k: &str, v: Option<&str>) -> Self {
        match v {
            Some(v) => self.str(k, v),
            None => self.null(k),
        }
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let text = r#"{"schema":"mcr-req v1","id":3,"op":"solve","graph":"p mcr 2 2\na 1 2 4 1\n","maximize":false,"epsilon":1.5e-6,"deadline_ms":null,"cycle":[0,2]}"#;
        let v = parse(text).expect("parses");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("mcr-req v1"));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(
            v.get("graph").and_then(Value::as_str),
            Some("p mcr 2 2\na 1 2 4 1\n")
        );
        assert_eq!(v.get("maximize").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("deadline_ms"), Some(&Value::Null));
        assert_eq!(
            v.get("cycle"),
            Some(&Value::Arr(vec![Value::Num(0.0), Value::Num(2.0)]))
        );
    }

    #[test]
    fn writer_output_parses_back() {
        let s = ObjWriter::new()
            .str("schema", "mcr-resp v1")
            .u64("id", 7)
            .str("lambda", "5/2")
            .f64("lambda_f64", 2.5)
            .bool("ok", true)
            .null("error")
            .raw("cycle", "[1,2,3]")
            .finish();
        let v = parse(&s).expect("writer output is valid json");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("lambda_f64").and_then(Value::as_f64), Some(2.5));
        assert_eq!(v.get("error"), Some(&Value::Null));
    }

    #[test]
    fn escapes_survive_round_trip() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let s = ObjWriter::new().str("k", nasty).finish();
        let v = parse(&s).expect("parses");
        assert_eq!(v.get("k").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1} trailing",
            "nul",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    /// The per-`char` escaper the run-based [`escape`] replaced, kept as
    /// the reference its output must match byte for byte.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn malformed_strings_keep_their_error_offsets_and_messages() {
        let long = "a".repeat(4096);
        let cases: Vec<(String, usize, &str)> = vec![
            ("\"abc".into(), 4, "unterminated string"),
            ("{\"k\":\"abc".into(), 9, "unterminated string"),
            ("\"é".into(), 3, "unterminated string"),
            ("\"a\u{1}b\"".into(), 2, "raw control character in string"),
            ("\"é\u{0}\"".into(), 3, "raw control character in string"),
            ("\"a\\qb\"".into(), 3, "invalid escape"),
            ("\"a\\".into(), 3, "invalid escape"),
            ("\"\\é\"".into(), 2, "invalid escape"),
            ("\"\\u12\"".into(), 2, "truncated \\u escape"),
            ("\"\\u1é".into(), 2, "truncated \\u escape"),
            // The four bytes after `\u` cut `é` in half: not UTF-8.
            ("\"\\u123é\"".into(), 2, "truncated \\u escape"),
            ("\"\\u12é\"".into(), 2, "invalid \\u escape"),
            ("\"\\uzzzz\"".into(), 2, "invalid \\u escape"),
            (
                format!("\"{long}\u{1f}\""),
                4097,
                "raw control character in string",
            ),
            (
                format!("\"é😀{long}\n\""),
                4103,
                "raw control character in string",
            ),
            (format!("{{\"k\":\"{long}\\x\"}}"), 4103, "invalid escape"),
            (format!("\"{long}"), 4097, "unterminated string"),
        ];
        for (text, at, message) in cases {
            let want = JsonError {
                at,
                message: message.to_string(),
            };
            assert_eq!(parse(&text), Err(want), "{text:?}");
        }
    }

    #[test]
    fn multi_byte_utf8_mixes_with_escapes() {
        let text = "\"é\\n😀\\u00e9\u{80}\\t\u{7ff}\\\"\\u0080\\u07FF\\ud800/\\/\"";
        let want = "é\n😀é\u{80}\t\u{7ff}\"\u{80}\u{7ff}\u{fffd}//";
        assert_eq!(parse(text), Ok(Value::Str(want.to_string())));
        let s = "é😀\u{80}\u{7ff}\u{800}\u{ffff}\u{10ffff}\"\\\n\u{1}";
        assert_eq!(escape(s), escape_per_char(s));
        let doc = ObjWriter::new().str("k", s).finish();
        assert_eq!(
            parse(&doc)
                .expect("parses")
                .get("k")
                .and_then(Value::as_str),
            Some(s)
        );
    }

    /// Seeded random strings over an alphabet weighted towards the bytes
    /// the codec treats specially: every control character, `"`, `\`,
    /// and one- to four-byte UTF-8 scalars.
    fn random_string(state: &mut u64) -> String {
        let mut next = || {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *state >> 33
        };
        let special = [
            '"',
            '\\',
            '/',
            'é',
            '😀',
            '\u{80}',
            '\u{7ff}',
            '\u{800}',
            '\u{ffff}',
            '\u{10ffff}',
        ];
        let len = match next() % 8 {
            0 => 0,
            7 => 2000 + next() as usize % 4000,
            _ => next() as usize % 64,
        };
        (0..len)
            .map(|_| match next() % 6 {
                0 => char::from_u32((next() % 0x20) as u32).unwrap_or('?'),
                1 => special[next() as usize % special.len()],
                2 => char::from_u32((next() % 0x11_0000) as u32).unwrap_or('\u{fffd}'),
                _ => char::from_u32(0x20 + (next() % 0x5f) as u32).unwrap_or('?'),
            })
            .collect()
    }

    #[test]
    fn seeded_random_strings_round_trip_and_escape_like_the_reference() {
        let mut state = 0x5EED_u64;
        let mut strings: Vec<String> = (0..1500).map(|_| random_string(&mut state)).collect();
        strings.push((0u8..0x20).map(char::from).collect());
        for s in &strings {
            assert_eq!(escape(s), escape_per_char(s), "{s:?}");
            // Keys and values go through the same escaper; the writer's
            // bytes are what the journal stores, so they must not move.
            let doc = ObjWriter::new().str(s, s).finish();
            let e = escape_per_char(s);
            assert_eq!(doc, format!("{{\"{e}\":\"{e}\"}}"));
            let want = Value::Obj(BTreeMap::from([(s.clone(), Value::Str(s.clone()))]));
            assert_eq!(parse(&doc), Ok(want));
        }
    }
}
