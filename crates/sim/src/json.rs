//! A minimal JSON reader and writer for the workspace's artifacts.
//!
//! The workspace is hermetic (no crates-io dependencies, so no serde);
//! every `BENCH_*.json` / `LoadReport::to_json` artifact is emitted
//! through [`JsonWriter`] and read back by [`JsonValue::parse`] — the
//! `harness diff` regression gate and the golden-file schema tests both
//! parse through here, and emit→parse round-trips under test.
//!
//! Scope: the JSON the repo writes. Objects, arrays, strings with the
//! escapes the writer produces, `null`, booleans, and f64 numbers.
//! Object member order is preserved (artifacts are written in a
//! deterministic order and diffs want to report in it).

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null` (also how the writers encode NaN/infinity).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// All JSON numbers, as f64 (the precision the writers emit).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Flattens the tree into `(dotted.path, leaf)` pairs, in source
    /// order. Array elements use their index as the path segment
    /// (`cells.3.mos`); the root itself contributes the empty path when
    /// it is a leaf. This is the shape the diff engine and the schema
    /// tests compare.
    pub fn flatten(&self) -> Vec<(String, &JsonValue)> {
        let mut out = Vec::new();
        self.flatten_into(String::new(), &mut out);
        out
    }

    fn flatten_into<'a>(&'a self, path: String, out: &mut Vec<(String, &'a JsonValue)>) {
        let join = |path: &str, seg: &str| {
            if path.is_empty() {
                seg.to_owned()
            } else {
                format!("{path}.{seg}")
            }
        };
        match self {
            JsonValue::Object(members) => {
                for (k, v) in members {
                    v.flatten_into(join(&path, k), out);
                }
            }
            JsonValue::Array(items) => {
                for (i, v) in items.iter().enumerate() {
                    v.flatten_into(join(&path, &i.to_string()), out);
                }
            }
            leaf => out.push((path, leaf)),
        }
    }
}

/// A parse failure, with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the document.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
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

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never appear in the repo's
                            // artifacts; map unpaired surrogates to the
                            // replacement character instead of failing.
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is &str, so
                    // the bytes are valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| b & 0xC0 == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| self.err("malformed number"))
    }
}

/// An `f64` as a JSON number: shortest round-trip digits with a
/// fraction or exponent always present (`1.0`), `null` for NaN and
/// infinity, which JSON cannot represent.
#[derive(Clone, Copy, Debug)]
pub struct JsonF64(pub f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{:?}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// One open container of a [`JsonWriter`].
struct Open {
    close: char,
    inline: bool,
    empty: bool,
}

/// A streaming JSON writer with the two layouts the repo's artifacts
/// use: **block** containers put each member on its own line, indented
/// two spaces per open block container; **inline** containers keep
/// their members on one line, separated by `", "`. The writer places
/// every comma, newline and indent, so call sites only name members
/// and values:
///
/// ```
/// use vgprs_sim::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("n").u64(3);
/// w.key("h").begin_inline_object().key("p99").f64(7.0).end();
/// w.end();
/// assert_eq!(w.finish(), "{\n  \"n\": 3,\n  \"h\": {\"p99\": 7.0}\n}\n");
/// ```
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    open: Vec<Open>,
    /// Open block containers — the current indent level.
    depth: usize,
    /// A key was just written; the next value belongs on its line.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Positions the output for the next member or element.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some(top) = self.open.last_mut() else {
            return;
        };
        let (inline, first) = (top.inline, std::mem::take(&mut top.empty));
        if !first {
            self.out.push(',');
        }
        if !inline {
            self.newline();
        } else if !first {
            self.out.push(' ');
        }
    }

    fn begin(&mut self, open: char, close: char, inline: bool) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.open.push(Open {
            close,
            inline,
            empty: true,
        });
        self.depth += usize::from(!inline);
        self
    }

    /// Opens a block object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.begin('{', '}', false)
    }

    /// Opens a block array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.begin('[', ']', false)
    }

    /// Opens a one-line object.
    pub fn begin_inline_object(&mut self) -> &mut Self {
        self.begin('{', '}', true)
    }

    /// Opens a one-line array.
    pub fn begin_inline_array(&mut self) -> &mut Self {
        self.begin('[', ']', true)
    }

    /// Closes the innermost open container.
    ///
    /// # Panics
    ///
    /// Panics when nothing is open.
    pub fn end(&mut self) -> &mut Self {
        let top = self.open.pop().expect("end() without an open container");
        if !top.inline {
            self.depth -= 1;
            if !top.empty {
                self.newline();
            }
        }
        self.out.push(top.close);
        self
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Writes an object member's name; the next call supplies its value.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.separate();
        self.quoted(name);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    fn value(&mut self, v: impl fmt::Display) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{v}");
        self
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.value(v)
    }

    /// `true` / `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.value(v)
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value("null")
    }

    /// A float in shortest round-trip form with a fraction always
    /// present (`1.0`), the report style; non-finite becomes `null`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.value(JsonF64(v))
    }

    /// A float in shortest round-trip form without a forced fraction
    /// (`1`, `0.3`), the style of the harness's configuration echoes;
    /// non-finite becomes `null`.
    pub fn f64_short(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.value(v)
        } else {
            self.null()
        }
    }

    /// A float rounded to `places` decimals; non-finite becomes `null`.
    pub fn f64_fixed(&mut self, v: f64, places: usize) -> &mut Self {
        if v.is_finite() {
            self.value(format_args!("{v:.places$}"))
        } else {
            self.null()
        }
    }

    /// A 64-bit fingerprint as a 16-digit hex string (a JSON number
    /// would lose everything above 2^53).
    pub fn hex64(&mut self, v: u64) -> &mut Self {
        self.value(format_args!("\"{v:016x}\""))
    }

    /// An escaped string.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.separate();
        self.quoted(s);
        self
    }

    /// The finished document, newline-terminated.
    ///
    /// # Panics
    ///
    /// Panics when a container is still open.
    pub fn finish(mut self) -> String {
        assert!(self.open.is_empty(), "finish() with an open container");
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" -1.5e3 ").unwrap(), JsonValue::Number(-1500.0));
        assert_eq!(
            JsonValue::parse("\"a\\nb\\u0041\"").unwrap(),
            JsonValue::String("a\nbA".into())
        );
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let v = JsonValue::parse(
            r#"{"b": [1, {"x": 2}, []], "a": {"k": "v"}, "n": null}"#,
        )
        .unwrap();
        let JsonValue::Object(members) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["b", "a", "n"], "member order preserved");
        assert_eq!(v.get("a").and_then(|a| a.get("k")).and_then(JsonValue::as_str), Some("v"));
        assert_eq!(
            v.get("b").and_then(JsonValue::as_array).map(<[JsonValue]>::len),
            Some(3)
        );
    }

    #[test]
    fn flatten_produces_dotted_paths() {
        let v = JsonValue::parse(r#"{"kpis": {"mos": 4.2, "h": {"p99": 7}}, "cells": [{"x": 1}, {"x": 2}]}"#)
            .unwrap();
        let flat: Vec<(String, f64)> = v
            .flatten()
            .into_iter()
            .filter_map(|(p, leaf)| leaf.as_f64().map(|x| (p, x)))
            .collect();
        assert_eq!(
            flat,
            vec![
                ("kpis.mos".to_owned(), 4.2),
                ("kpis.h.p99".to_owned(), 7.0),
                ("cells.0.x".to_owned(), 1.0),
                ("cells.1.x".to_owned(), 2.0),
            ]
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
