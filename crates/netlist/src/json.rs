//! Minimal JSON support for the wire formats: the netlist schema in
//! [`crate::wire`] and the `serve` binary's line-delimited protocol
//! (which imports this module directly).
//!
//! The workspace builds offline against a stub `serde`, so the wire
//! format is parsed and emitted by hand. This is a complete little JSON
//! implementation — objects, arrays, strings with escapes, numbers,
//! booleans, null — but tuned for protocol use: objects preserve no
//! duplicate keys (last wins) and numbers are `f64`.
//!
//! Emitted numbers round-trip bit-exactly: integers below 10^15 print
//! without a fraction and other finite values use Rust's shortest
//! round-trip `f64` formatting, so `parse(v.to_string()) == v` — the
//! property the netlist export/import cycle and the fingerprint-keyed
//! caches rely on.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. `BTreeMap` so emitted key order is deterministic.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum container nesting depth accepted by [`parse`]. The parser is
/// recursive-descent over attacker-controlled input, so unbounded
/// nesting would be a stack-overflow vector; protocol requests are at
/// most a few levels deep.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document, requiring it to span the whole input
/// (trailing whitespace allowed). Rejects documents nested deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one whole UTF-8 scalar, not one byte.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected , or ] at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected : at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return Err(format!("expected , or }} at byte {pos}", pos = *pos)),
        }
    }
}

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes).
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::String(s) => write!(f, "\"{}\"", escape(s)),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(map) => {
                f.write_str("{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{value}", escape(key))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Convenience builder for response objects.
#[derive(Debug, Default)]
pub struct ObjectBuilder {
    map: BTreeMap<String, Json>,
}

impl ObjectBuilder {
    /// Starts an empty object.
    pub fn new() -> ObjectBuilder {
        ObjectBuilder::default()
    }

    /// Inserts a member (builder style).
    pub fn set(mut self, key: &str, value: Json) -> ObjectBuilder {
        self.map.insert(key.to_string(), value);
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Object(self.map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_protocol_request() {
        let value = parse(r#"{"op":"submit","circuit":"tiny","deadline_ms":60000,"svg":true}"#)
            .expect("parse");
        assert_eq!(value.get("op").and_then(Json::as_str), Some("submit"));
        assert_eq!(
            value.get("deadline_ms").and_then(Json::as_f64),
            Some(60000.0)
        );
        assert_eq!(value.get("svg").and_then(Json::as_bool), Some(true));
        assert!(value.get("missing").is_none());
    }

    #[test]
    fn parses_nested_values_and_escapes() {
        let value = parse(r#"{"a":[1,2.5,-3e2,null],"s":"a\"b\\c\ndA"}"#).expect("parse");
        let items = value.get("a").and_then(Json::as_array).expect("array");
        assert_eq!(items[2], Json::Number(-300.0));
        assert_eq!(items[3], Json::Null);
        assert_eq!(value.get("s").and_then(Json::as_str), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse(r#"{"a":1} trailing"#).is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn rejects_pathological_nesting_without_overflowing() {
        // 100k opening brackets must produce an error, not a stack
        // overflow — the depth cap trips long before the recursion bites.
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        // Shallow nesting well under the cap still parses.
        let ok = format!("{}1{}", "[".repeat(16), "]".repeat(16));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn display_round_trips() {
        let value = parse(r#"{"b":true,"n":1.5,"s":"x\ny","v":[1,{"k":null}]}"#).expect("parse");
        let text = value.to_string();
        assert_eq!(parse(&text).expect("reparse"), value);
    }

    #[test]
    fn builder_emits_deterministic_objects() {
        let obj = ObjectBuilder::new()
            .set("ok", Json::Bool(true))
            .set("job", Json::Number(1.0))
            .build();
        assert_eq!(obj.to_string(), r#"{"job":1,"ok":true}"#);
    }
}
