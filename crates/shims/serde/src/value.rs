//! [`Value`], the data model both traits meet at: what `serde_json::from_str` parses and
//! what [`crate::Deserialize`] decodes from.

use std::collections::BTreeMap;

/// A dynamically typed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-integer (or out-of-range) number, stored as `f64`.
    Number(f64),
    /// An integer literal, stored exactly (`i128` covers the full `u64` and `i64` ranges, so
    /// 64-bit seeds round-trip without the 2⁵³ precision loss of `f64`).
    Integer(i128),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with string keys.
    Object(BTreeMap<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    /// The kind of value, as an error message names it ("a string", "null", …).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) | Value::Integer(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content, when this is a number (lossy for integers beyond 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The exact unsigned-integer content, when this is an in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Integer(i) => u64::try_from(*i).ok(),
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The exact signed-integer content, when this is an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => i64::try_from(*i).ok(),
            Value::Number(n) if n.fract() == 0.0 && n.abs() <= (1u64 << 53) as f64 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The boolean content, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object member by key, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! impl_value_int_eq {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                match self {
                    Value::Integer(i) => *i == *other as i128,
                    Value::Number(n) => *n == *other as f64,
                    _ => false,
                }
            }
        }
    )*};
}

impl_value_int_eq!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
