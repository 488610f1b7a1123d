//! Offline stand-in for `serde_json`.
//!
//! Provides the entry points the workspace uses: [`to_string`] (serialization through the
//! shim's `serde::Serialize`), [`from_str`] into a dynamically typed [`Value`], and
//! [`from_value`] from a `Value` into any `serde::Deserialize` type.

#![forbid(unsafe_code)]

pub use serde::{DeError, Value};

use std::collections::BTreeMap;
use std::fmt;

/// The deepest nesting of arrays and objects [`from_str`] accepts, as in upstream
/// `serde_json`: the parser recurses once per level, so an unbounded document could exhaust
/// the stack of whichever thread parses it.
pub const MAX_DEPTH: usize = 128;

/// A serialization/parsing error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` as a JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize_json(&mut out);
    Ok(out)
}

/// Decodes a parsed document into a typed value.
pub fn from_value<T: serde::Deserialize>(value: &Value) -> Result<T, DeError> {
    T::from_value(value)
}

/// Parses a JSON document into a [`Value`]; arrays and objects may nest at most
/// [`MAX_DEPTH`] levels deep.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error(format!("trailing characters at offset {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value; `depth` counts the arrays and objects enclosing it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(Error(format!("nesting deeper than {MAX_DEPTH} levels at offset {pos}")));
    }
    match bytes.get(*pos) {
        None => Err(Error("unexpected end of input".into())),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error(format!("expected , or ] at offset {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error(format!("expected : at offset {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(map));
                    }
                    _ => return Err(Error(format!("expected , or }} at offset {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(Error(format!("invalid literal at offset {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error(format!("expected string at offset {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error("unterminated string".into())),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error("truncated \\u escape".into()))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| Error("invalid \\u escape".into()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error("invalid \\u escape".into()))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(Error("invalid escape".into())),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input came from &str, so boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).unwrap_or("\u{fffd}"));
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error("invalid number".into()))?;
    // Integer literals are kept exact (f64 would corrupt 64-bit values beyond 2^53).
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Value::Integer(i));
        }
    }
    text.parse::<f64>().map(Value::Number).map_err(|_| Error(format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = from_str(r#"{"label":"x","metrics":{"m":1.5},"ok":true,"xs":[1,2,null]}"#).unwrap();
        assert_eq!(v["label"], "x");
        assert_eq!(v["metrics"]["m"], 1.5);
        assert_eq!(v["ok"], true);
        assert_eq!(v["xs"][1], 2.0);
        assert_eq!(v["xs"][2], Value::Null);
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn roundtrips_shim_serialization() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("k".to_string(), 2.5f64);
        let json = to_string(&map).unwrap();
        assert_eq!(from_str(&json).unwrap()["k"], 2.5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("12 34").is_err());
        assert!(from_str("nul").is_err());
    }

    #[test]
    fn parses_strings_with_escapes() {
        let v = from_str(r#""a\"bA\n""#).unwrap();
        assert_eq!(v, "a\"bA\n");
    }

    #[test]
    fn integers_beyond_f64_precision_round_trip_exactly() {
        // 2^63 + 1 is not representable in f64; the Integer variant keeps it exact.
        let big: u64 = (1 << 63) + 1;
        let v = from_str(&to_string(&big).unwrap()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v, big);
        // Negative integers and plain floats keep working.
        assert_eq!(from_str("-42").unwrap().as_i64(), Some(-42));
        assert_eq!(from_str("-42").unwrap().as_f64(), Some(-42.0));
        assert_eq!(from_str("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(from_str("3").unwrap().as_f64(), Some(3.0));
        // Exponent literals parse as floats but still convert when integral and in range.
        assert_eq!(from_str("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(from_str("2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(from_str(&nested(MAX_DEPTH)).is_ok());
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(from_str(&objects).is_ok());
        let err = from_str(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // A 1 MiB bomb is refused at level 129 instead of overflowing the parsing thread's
        // stack; a small stack shows the recursion really stops there.
        let bomb = "[".repeat(1 << 20);
        let result = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || from_str(&bomb))
            .unwrap()
            .join()
            .unwrap();
        assert!(result.is_err());
    }
}
