//! The JSON writer for the workspace's `serde_json` shim.
//!
//! The shim has no [`Value`] serializer, so [`render`] is the writer: stable 2-space-indented
//! JSON with objects in key order.  [`Entry`] builds the objects it renders (the shim has no
//! `json!` macro).  The serve daemon's documents and the repository benchmark's reports are
//! written through it.

use serde_json::Value;
use std::collections::BTreeMap;

/// Renders a [`Value`] as stable, 2-space-indented JSON (objects in key order).  The
/// inverse of the shim's `serde_json::from_str` up to insignificant whitespace and
/// integer-vs-float representation of whole numbers.
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    render_into(value, 0, &mut out);
    out
}

fn render_into(value: &Value, indent: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Integer(i) => out.push_str(&i.to_string()),
        Value::Number(n) => {
            if n.is_finite() {
                out.push_str(&format!("{n}"));
            } else {
                // JSON has no NaN/Infinity literal; readers treat them as absent data.
                out.push_str("null");
            }
        }
        Value::String(s) => render_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push('\n');
                push_indent(indent + 1, out);
                render_into(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                out.push('\n');
                push_indent(indent + 1, out);
                render_string(key, out);
                out.push_str(": ");
                render_into(item, indent + 1, out);
                if i + 1 < map.len() {
                    out.push(',');
                }
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
    }
}

fn push_indent(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
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
    out.push('"');
}

/// A small builder for entry objects (the shim has no `json!` macro).
#[derive(Clone, Debug, Default)]
pub struct Entry(BTreeMap<String, Value>);

impl Entry {
    /// An empty entry.
    pub fn new() -> Entry {
        Entry::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Entry {
        self.0.insert(key.to_string(), Value::String(value.to_string()));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: i128) -> Entry {
        self.0.insert(key.to_string(), Value::Integer(value));
        self
    }

    /// Adds a float field.
    pub fn num(mut self, key: &str, value: f64) -> Entry {
        self.0.insert(key.to_string(), Value::Number(value));
        self
    }

    /// Adds an arbitrary [`Value`] field.
    pub fn val(mut self, key: &str, value: Value) -> Entry {
        self.0.insert(key.to_string(), value);
        self
    }

    /// The finished object.
    pub fn build(self) -> Value {
        Value::Object(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderer_output_reparses() {
        let value = Entry::new()
            .str("name", "a \"quoted\"\nlabel")
            .int("big", (1i128 << 63) + 1)
            .num("rate", 2.5)
            .val("list", Value::Array(vec![Value::Null, Value::Bool(true)]))
            .val("empty", Value::Object(BTreeMap::new()))
            .build();
        let reparsed = serde_json::from_str(&render(&value)).unwrap();
        assert_eq!(reparsed, value);
    }
}
