//! Offline stand-in for `serde`.
//!
//! The build environment has no access to crates.io, so this workspace vendors a minimal
//! serialization facility under the `serde` name, with JSON as its only format (see the
//! sibling `serde_json` shim, which parses text and re-exports [`Value`]):
//!
//! * [`Serialize`] writes JSON directly into a `String`;
//! * [`Deserialize`] decodes a type from a parsed [`Value`], reporting failures as a
//!   [`DeError`] that names the field path of the offending value.
//!
//! The derive macros live in the sibling `serde_derive` proc-macro crate and are re-exported
//! here, mirroring upstream serde's `derive` feature.  Both follow serde's JSON data model, so
//! a derived type decodes exactly what its derived `Serialize` writes.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

mod value;

pub use value::Value;

use std::fmt;

/// A type that can write itself as JSON.
///
/// The derive macro emits field-by-field implementations matching upstream serde's JSON data
/// model: structs as objects, unit enum variants as strings, data-carrying variants as
/// externally tagged single-key objects.
pub trait Serialize {
    /// Appends the JSON encoding of `self` to `out`.
    fn serialize_json(&self, out: &mut String);
}

/// A type that can decode itself from a parsed JSON [`Value`].
///
/// The derive macro reads what the `Serialize` derive writes: structs from objects (unknown
/// keys ignored; a missing field is an error unless it is an `Option`, which decodes as
/// `None`, or is marked `#[serde(default)]`), unit enum variants from strings, and
/// data-carrying variants from externally tagged single-key objects.
pub trait Deserialize: Sized {
    /// Decodes `v`, or says what is wrong with it and where.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Why a [`Value`] does not decode: a message and the path to the offending value, written
/// as field names and element indices from the document root (`config.k`,
/// `fault_schedule.epochs[1].plan`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeError {
    path: String,
    message: String,
}

impl DeError {
    /// An error at the value being decoded (empty path).
    pub fn new(message: impl Into<String>) -> Self {
        DeError { path: String::new(), message: message.into() }
    }

    /// "expected `what`, found …", naming the kind of value found.
    pub fn expected(what: &str, found: &Value) -> Self {
        DeError::new(format!("expected {what}, found {}", found.kind()))
    }

    /// Prefixes the path with a field name or an `[index]` segment, as the error propagates
    /// out of the container that holds the offending value.
    pub fn within(mut self, segment: &str) -> Self {
        if !(self.path.is_empty() || self.path.starts_with('[')) {
            self.path.insert(0, '.');
        }
        self.path.insert_str(0, segment);
        self
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for DeError {}

/// The building blocks the `Deserialize` derive expands to.
#[doc(hidden)]
pub mod de {
    use super::{DeError, Deserialize, Value};
    use std::collections::BTreeMap;

    /// The members of an object.
    pub fn object(v: &Value) -> Result<&BTreeMap<String, Value>, DeError> {
        match v {
            Value::Object(map) => Ok(map),
            other => Err(DeError::expected("an object", other)),
        }
    }

    /// A required member; an absent one decodes as `null`, so only `Option` fields may be
    /// left out.
    pub fn field<T: Deserialize>(obj: &BTreeMap<String, Value>, key: &str) -> Result<T, DeError> {
        match obj.get(key) {
            Some(v) => T::from_value(v),
            None => T::from_value(&Value::Null).map_err(|_| DeError::new("missing field")),
        }
        .map_err(|e| e.within(key))
    }

    /// A `#[serde(default)]` member: absent or `null` gives `T::default()`.
    pub fn field_or_default<T: Deserialize + Default>(
        obj: &BTreeMap<String, Value>,
        key: &str,
    ) -> Result<T, DeError> {
        match obj.get(key) {
            None | Some(Value::Null) => Ok(T::default()),
            Some(v) => T::from_value(v).map_err(|e| e.within(key)),
        }
    }

    /// An externally tagged enum: a bare string (unit variant) or a single-key object
    /// `{"Variant": payload}`.
    pub fn variant(v: &Value) -> Result<(&str, Option<&Value>), DeError> {
        match v {
            Value::String(tag) => Ok((tag, None)),
            Value::Object(map) if map.len() == 1 => {
                let (tag, payload) = map.iter().next().expect("one entry");
                Ok((tag, Some(payload)))
            }
            other => Err(DeError::expected("an enum (string or single-key object)", other)),
        }
    }

    /// The payload of a data-carrying variant.
    pub fn payload<'v>(tag: &str, payload: Option<&'v Value>) -> Result<&'v Value, DeError> {
        payload.ok_or_else(|| DeError::new(format!("variant `{tag}` needs fields")))
    }

    /// The elements of a tuple variant's payload array, which must hold exactly `len`.
    pub fn elements(v: &Value, len: usize) -> Result<&[Value], DeError> {
        match v {
            Value::Array(items) if items.len() == len => Ok(items),
            other => Err(DeError::expected(&format!("an array of {len} elements"), other)),
        }
    }

    /// Element `i` of a tuple payload.
    pub fn element<T: Deserialize>(items: &[Value], i: usize) -> Result<T, DeError> {
        T::from_value(&items[i]).map_err(|e| e.within(&format!("[{i}]")))
    }

    /// The error for a tag no variant carries.
    pub fn unknown_variant(tag: &str) -> DeError {
        DeError::new(format!("unknown variant `{tag}`"))
    }
}

/// Escapes and appends a string literal body (without the surrounding quotes).
pub fn escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
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
}

macro_rules! impl_serialize_display {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}

impl_serialize_display!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            // JSON has no NaN/Inf; serde_json emits null for them.
            out.push_str("null");
        }
    }
}

impl Serialize for f32 {
    fn serialize_json(&self, out: &mut String) {
        f64::from(*self).serialize_json(out);
    }
}

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for char {
    fn serialize_json(&self, out: &mut String) {
        out.push('"');
        let mut buf = [0u8; 4];
        escape_into(self.encode_utf8(&mut buf), out);
        out.push('"');
    }
}

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        out.push('"');
        escape_into(self, out);
        out.push('"');
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        self.as_str().serialize_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize_json(out),
            None => out.push_str("null"),
        }
    }
}

fn serialize_seq<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self.iter(), out);
    }
}

/// Types usable as JSON object keys.
pub trait MapKey {
    /// Appends the key (quoted) to `out`.
    fn write_key(&self, out: &mut String);
}

impl MapKey for String {
    fn write_key(&self, out: &mut String) {
        self.as_str().write_key(out);
    }
}

impl MapKey for str {
    fn write_key(&self, out: &mut String) {
        out.push('"');
        escape_into(self, out);
        out.push('"');
    }
}

impl<K: MapKey + ?Sized> MapKey for &K {
    fn write_key(&self, out: &mut String) {
        (**self).write_key(out);
    }
}

macro_rules! impl_int_map_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn write_key(&self, out: &mut String) {
                out.push('"');
                out.push_str(&self.to_string());
                out.push('"');
            }
        }
    )*};
}

impl_int_map_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn serialize_map<'a, K: MapKey + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        k.write_key(out);
        out.push(':');
        v.serialize_json(out);
    }
    out.push('}');
}

impl<K: MapKey, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize_json(&self, out: &mut String) {
        serialize_map(self.iter(), out);
    }
}

impl<K: MapKey, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn serialize_json(&self, out: &mut String) {
        serialize_map(self.iter(), out);
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$n.serialize_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
    )*};
}

impl_serialize_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl Deserialize for u64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_u64().ok_or_else(|| DeError::expected("an unsigned integer", v))
    }
}

macro_rules! impl_deserialize_narrow_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = u64::from_value(v)?;
                <$t>::try_from(n)
                    .map_err(|_| DeError::new(format!("{n} exceeds {}", stringify!($t))))
            }
        }
    )*};
}

impl_deserialize_narrow_uint!(u8, u16, usize);

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64().ok_or_else(|| DeError::expected("a number", v))
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::expected("a boolean", v))
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str().map(str::to_string).ok_or_else(|| DeError::expected("a string", v))
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            v => T::from_value(v).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => (0..items.len()).map(|i| de::element(items, i)).collect(),
            other => Err(DeError::expected("an array", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Serialize;
    use std::collections::BTreeMap;

    fn to_json<T: Serialize>(v: &T) -> String {
        let mut out = String::new();
        v.serialize_json(&mut out);
        out
    }

    #[test]
    fn primitives_and_containers_serialize_as_json() {
        assert_eq!(to_json(&5u64), "5");
        assert_eq!(to_json(&true), "true");
        assert_eq!(to_json(&"a\"b"), "\"a\\\"b\"");
        assert_eq!(to_json(&vec![1, 2, 3]), "[1,2,3]");
        assert_eq!(to_json(&Some(1.5f64)), "1.5");
        assert_eq!(to_json(&None::<u8>), "null");
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 2u32);
        assert_eq!(to_json(&m), "{\"k\":2}");
        assert_eq!(to_json(&(1u8, "x")), "[1,\"x\"]");
    }
}
