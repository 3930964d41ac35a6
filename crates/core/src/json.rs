//! Minimal JSON value model, writer and parser.
//!
//! The workspace's experiment pipeline emits one shared JSON results
//! schema (see `suu-bench`), and instances have a canonical JSON wire form
//! (see [`crate::SuuInstance::to_json`]). No serialization crate is
//! available offline, so this module provides the small, total subset of
//! JSON the workspace needs: objects, arrays, strings, bools, null, and
//! numbers split into unsigned integers (seeds, trial counts, makespans —
//! kept exact up to `u64::MAX`) and `f64`s.
//!
//! Writing is deterministic: object keys keep insertion order, floats use
//! Rust's shortest round-trip formatting. [`Json::to_canonical`] is the
//! content-addressing form: compact, with object keys sorted bytewise at
//! every level, so two values that differ only in key order (or
//! whitespace, once parsed) hash identically. Parsing is strict JSON:
//! nesting depth is bounded, the number grammar follows RFC 8259 (no
//! leading zeros, no bare `5.`/`1e`), numbers that overflow `f64` are
//! errors rather than infinities, and `\u` surrogate pairs combine (lone
//! surrogates are rejected).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer (kept exact; serialized without a decimal
    /// point).
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object (builder entry point).
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Builder-style field insert; replaces an existing key.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => {
                let key = key.into();
                let value = value.into();
                if let Some(slot) = fields.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key, value));
                }
                self
            }
            _ => panic!("Json::field on a non-object"),
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a `u64` (only exact integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact serialization.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization (2-space indent, trailing newline).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Canonical serialization for content addressing: compact, with
    /// object keys sorted **bytewise** at every nesting level (arrays
    /// keep their order — it is meaningful). Values that differ only in
    /// object key order produce identical canonical bytes, so hashing
    /// this form (e.g. with [`crate::fnv1a`]) yields a stable content
    /// address. Duplicate keys (possible in parsed input) are kept in
    /// first-occurrence order among themselves.
    pub fn to_canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    fn write_canonical(&self, out: &mut String) {
        match self {
            Json::Obj(fields) => {
                let mut order: Vec<usize> = (0..fields.len()).collect();
                order.sort_by(|&a, &b| fields[a].0.as_bytes().cmp(fields[b].0.as_bytes()));
                out.push('{');
                for (pos, &i) in order.iter().enumerate() {
                    if pos > 0 {
                        out.push(',');
                    }
                    write_escaped(out, &fields[i].0);
                    out.push(':');
                    fields[i].1.write_canonical(out);
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_canonical(out);
                }
                out.push(']');
            }
            other => other.write(out, None, 0),
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Num(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d)
                })
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d)
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = format!("{v}");
        out.push_str(&s);
        // `{}` prints integral floats without a decimal point; keep the
        // float-ness visible in the wire form.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Parse failure: what and where (byte offset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Description of the problem.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting depth [`parse`] accepts. The recursive
/// descent otherwise turns adversarially deep inputs (`[[[[…`) into a
/// stack-overflow abort instead of an `Err` — found by the round-trip
/// fuzz in `proptests.rs`.
pub const MAX_PARSE_DEPTH: usize = 128;

/// Parse a strict-JSON document (one value, trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_PARSE_DEPTH}")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` as one slice. Both
            // delimiters are ASCII, so the run is whole scalars and each
            // input byte is visited once.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped on `\`: one escape.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self.hex_escape()?;
                            match code {
                                // High surrogate: a low surrogate escape
                                // must follow; the pair combines into one
                                // supplementary-plane scalar.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                        || self.bytes.get(self.pos + 2) != Some(&b'u')
                                    {
                                        return Err(self.err("unpaired high surrogate"));
                                    }
                                    self.pos += 2;
                                    let low = self.hex_escape()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(
                                        char::from_u32(combined)
                                            .expect("surrogate pair maps to a valid scalar"),
                                    );
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(self.err("unpaired low surrogate"));
                                }
                                _ => out.push(
                                    char::from_u32(code)
                                        .expect("non-surrogate BMP code point is a valid scalar"),
                                ),
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Read the 4 hex digits of a `\uXXXX` escape. On entry `pos` is at
    /// the `u`; on exit it is at the last hex digit (the caller's shared
    /// `pos += 1` then steps past it).
    fn hex_escape(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// RFC 8259 number grammar: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    /// Leading zeros, a bare sign, `5.` and `1e` are rejected; so are
    /// finite-looking numbers whose `f64` value overflows to infinity
    /// (JSON has no `Inf`, and silently round-tripping to `null` would
    /// corrupt content-addressed documents).
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digit_run();
        match int_digits {
            0 => return Err(self.err("expected digit")),
            1 => {}
            _ if self.bytes[self.pos - int_digits] == b'0' => {
                return Err(self.err("leading zero in number"))
            }
            _ => {}
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if self.digit_run() == 0 {
                return Err(self.err("expected digit after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digit_run() == 0 {
                return Err(self.err("expected digit in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        let value: f64 = text
            .parse()
            .map_err(|_| self.err(format!("bad number {text:?}")))?;
        if !value.is_finite() {
            return Err(self.err(format!("number {text:?} overflows f64")));
        }
        Ok(Json::Num(value))
    }

    fn digit_run(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let doc = Json::obj()
            .field("name", "suu")
            .field("trials", 100u64)
            .field("mean", 3.5)
            .field("ok", true)
            .field("tags", vec!["a", "b"]);
        assert_eq!(doc.get("name").unwrap().as_str(), Some("suu"));
        assert_eq!(doc.get("trials").unwrap().as_u64(), Some(100));
        assert_eq!(doc.get("mean").unwrap().as_f64(), Some(3.5));
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("tags").unwrap().as_array().unwrap().len(), 2);
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn field_replaces_existing_key() {
        let doc = Json::obj().field("k", 1u64).field("k", 2u64);
        assert_eq!(doc.get("k").unwrap().as_u64(), Some(2));
        assert_eq!(doc.to_compact(), r#"{"k":2}"#);
    }

    #[test]
    fn compact_and_pretty_roundtrip() {
        let doc = Json::obj()
            .field("a", vec![1u64, 2, 3])
            .field("b", Json::obj().field("nested", Json::Null))
            .field("s", "line\n\"quote\"");
        for text in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc, "from {text}");
        }
    }

    #[test]
    fn integers_stay_exact() {
        let big = u64::MAX;
        let doc = Json::obj().field("seed", big);
        let parsed = parse(&doc.to_compact()).unwrap();
        assert_eq!(parsed.get("seed").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn floats_keep_float_form() {
        assert_eq!(Json::Num(2.0).to_compact(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Json::Num(2.0));
        assert_eq!(parse("2").unwrap(), Json::UInt(2));
        assert_eq!(parse("-3.25e2").unwrap(), Json::Num(-325.0));
        assert_eq!(parse("-7").unwrap(), Json::Num(-7.0));
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn parse_errors_carry_offsets() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        let err = parse("[1, x]").unwrap_err();
        assert!(err.offset >= 4, "offset {}", err.offset);
    }

    #[test]
    fn unicode_and_escapes() {
        let doc = Json::Str("héllo → \u{1}".to_string());
        let text = doc.to_compact();
        assert_eq!(parse(&text).unwrap(), doc);
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".to_string()));
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_error() {
        // Escaped surrogate pairs combine into one supplementary scalar.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".to_string())
        );
        assert_eq!(
            parse(r#""\ud834\udd1e""#).unwrap(),
            Json::Str("\u{1D11E}".to_string())
        );
        // Raw (unescaped) astral characters also pass through.
        assert_eq!(parse("\"😀\"").unwrap(), Json::Str("😀".to_string()));
        for bad in [
            r#""\ud83d""#,       // high with nothing after
            r#""\ud83dx""#,      // high followed by a plain char
            r#""\ud83d\n""#,     // high followed by a non-\u escape
            r#""\ud83d\ud83d""#, // high followed by another high
            r#""\ude00""#,       // lone low
            r#""\u12""#,         // truncated hex
            r#""\uzzzz""#,       // non-hex
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn string_values_and_error_offsets_are_pinned() {
        // Multi-byte scalars, every escape, surrogate pairs and raw
        // control characters (accepted verbatim), alone and mixed.
        for (text, value) in [
            ("\"é\"", "é"),
            ("\"→\"", "→"),
            ("\"😀\"", "😀"),
            ("\"aé→😀z\"", "aé→😀z"),
            (r#""\"\\\/\b\f\n\r\t""#, "\"\\/\u{8}\u{c}\n\r\t"),
            (r#""\u0041\u00e9\u20AC\uffff""#, "Aé€\u{ffff}"),
            (r#""\ud83d\ude00x\uD834\uDD1E""#, "😀x\u{1D11E}"),
            ("\"\u{1}\t\n\u{1f}\u{7f}\"", "\u{1}\t\n\u{1f}\u{7f}"),
            ("\"é\\n→\\\"😀\"", "é\n→\"😀"),
            ("\"\"", ""),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Str(value.to_string()), "{text}");
        }
        // The same documents as object keys.
        let doc = parse("{\"é→😀\\t\":1}").unwrap();
        assert_eq!(doc.get("é→😀\t").and_then(Json::as_u64), Some(1));
        // Errors keep their message and byte offset.
        for (text, message, offset) in [
            ("\"abc", "unterminated string", 4),
            ("\"é", "unterminated string", 3),
            ("\"😀→", "unterminated string", 8),
            ("[\"a\",\"é", "unterminated string", 8),
            ("\"😀\\", "bad escape", 6),
            ("\"é\\q\"", "bad escape", 4),
            (r#""\u12""#, "bad \\u escape", 2),
            (r#""\uzzzz""#, "bad \\u escape", 2),
            (r#""→\ud83d""#, "unpaired high surrogate", 9),
            (r#""\ud83dx""#, "unpaired high surrogate", 6),
            (r#""\ud83d\ud83d""#, "invalid low surrogate", 12),
            (r#""\ude00""#, "unpaired low surrogate", 6),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                (message, offset),
                "{text}"
            );
        }
    }

    #[test]
    fn string_parsing_is_linear_in_the_input() {
        // 200,000 short strings, about 4 MB: a parser that rescans the
        // rest of the input per character takes hours here.
        let text = format!(
            "[{}]",
            (0..200_000)
                .map(|i| format!("\"k{i:07}-é→😀\""))
                .collect::<Vec<_>>()
                .join(",")
        );
        assert!(text.len() > 4_000_000, "{}", text.len());
        let started = std::time::Instant::now();
        let doc = parse(&text).unwrap();
        let elapsed = started.elapsed();
        let items = doc.as_array().unwrap();
        assert_eq!(items.len(), 200_000);
        assert_eq!(items[199_999].as_str(), Some("k0199999-é→😀"));
        assert!(elapsed.as_secs() < 10, "took {elapsed:?}");
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let mut evil = String::new();
        for _ in 0..100_000 {
            evil.push('[');
        }
        let err = parse(&evil).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Same guard on objects.
        let mut evil = String::new();
        for _ in 0..100_000 {
            evil.push_str("{\"k\":");
        }
        assert!(parse(&evil).is_err());
        // Depth *within* the limit stays accepted — including after a
        // deep subtree closed (depth is released on the way out).
        let depth = MAX_PARSE_DEPTH - 1;
        let fine = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&fine).is_ok());
        let two_arms = format!(
            "[{}1{},{}2{}]",
            "[".repeat(depth - 1),
            "]".repeat(depth - 1),
            "[".repeat(depth - 1),
            "]".repeat(depth - 1)
        );
        assert!(parse(&two_arms).is_ok());
    }

    #[test]
    fn strict_number_grammar() {
        for bad in [
            "-", "5.", ".5", "1e", "1e+", "01", "-01", "00", "1.2e", "+1", "1e309", "-1e309",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
        for (text, value) in [
            ("0", Json::UInt(0)),
            ("-0", Json::Num(-0.0)),
            ("0.5", Json::Num(0.5)),
            ("10", Json::UInt(10)),
            ("1e2", Json::Num(100.0)),
            ("1E-2", Json::Num(0.01)),
            ("-3.25e2", Json::Num(-325.0)),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn canonical_sorts_keys_at_every_level() {
        let a = Json::obj()
            .field("zeta", 1u64)
            .field("alpha", Json::obj().field("b", 2u64).field("a", 3u64))
            .field("mid", vec![Json::obj().field("y", 4u64).field("x", 5u64)]);
        let b = Json::obj()
            .field("mid", vec![Json::obj().field("x", 5u64).field("y", 4u64)])
            .field("alpha", Json::obj().field("a", 3u64).field("b", 2u64))
            .field("zeta", 1u64);
        assert_eq!(a.to_canonical(), b.to_canonical());
        assert_eq!(
            a.to_canonical(),
            r#"{"alpha":{"a":3,"b":2},"mid":[{"x":5,"y":4}],"zeta":1}"#
        );
        // Canonical text is itself valid JSON that parses to the sorted
        // tree (and re-canonicalizes to the same bytes).
        let reparsed = parse(&a.to_canonical()).unwrap();
        assert_eq!(reparsed.to_canonical(), a.to_canonical());
        // Arrays keep their order — they are sequences, not sets.
        assert_ne!(
            Json::Arr(vec![Json::UInt(1), Json::UInt(2)]).to_canonical(),
            Json::Arr(vec![Json::UInt(2), Json::UInt(1)]).to_canonical()
        );
    }
}
