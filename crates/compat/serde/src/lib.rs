//! Offline stand-in for `serde` (see `crates/compat/` for the rationale).
//!
//! The build environment cannot reach crates.io, so the workspace ships a
//! small self-contained serialisation layer under the same crate name. It is
//! API-compatible with the subset of serde the workspace uses:
//!
//! * `#[derive(Serialize, Deserialize)]` on named-field structs, newtype
//!   structs and fieldless enums (via the sibling `serde_derive` shim);
//! * `serde_json::{to_string, to_string_pretty, from_str, Value}` in the
//!   sibling `serde_json` shim.
//!
//! Unlike real serde there is no `Serializer`/`Deserializer` abstraction:
//! [`Serialize`] renders to an owned [`Value`] tree and [`Deserialize`] reads
//! from one. For the workspace's payloads (simulation summaries, service
//! protocol messages — all small) the intermediate tree is not a bottleneck,
//! and it keeps the shim a few hundred lines.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A JSON-like value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer too large for `i64`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Map),
}

/// An insertion-ordered string-keyed map (JSON object).
///
/// Backed by a `Vec` of entries: the workspace's objects are small (tens of
/// keys), lookups are rare, and preserving declaration order makes the JSON
/// output stable and readable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Creates an empty map with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        Map {
            entries: Vec::with_capacity(n),
        }
    }

    /// Inserts a key, replacing any existing entry with the same key.
    pub fn insert(&mut self, key: String, value: Value) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterator over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl Value {
    /// Member lookup on objects; `None` for any other kind of value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any kind of number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Serialisation/deserialisation error: a message with optional context
/// breadcrumbs accumulated as errors propagate out of nested values.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn msg(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }

    /// Wraps an error with a location breadcrumb (used by the derive).
    pub fn context(location: &str, inner: Error) -> Self {
        Error {
            message: format!("{location}: {}", inner.message),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Renders `self` into a [`Value`] tree.
pub trait Serialize {
    /// The value-tree form of `self`.
    fn to_value(&self) -> Value;
}

/// Reconstructs `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses `v`, reporting a descriptive [`Error`] on shape mismatch.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// As [`Deserialize::from_value`], for a tree the caller is done
    /// with: a `Value` is taken as it is rather than copied.
    fn from_owned(v: Value) -> Result<Self, Error> {
        Self::from_value(&v)
    }
}

// ---------------------------------------------------------------------------
// Serialize impls for primitives and containers
// ---------------------------------------------------------------------------

macro_rules! serialize_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}
serialize_signed!(i8, i16, i32, i64, isize);

macro_rules! serialize_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as u64;
                match i64::try_from(v) {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::UInt(v),
                }
            }
        }
    )*};
}
serialize_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.clone(), v.to_value());
        }
        Value::Object(m)
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort keys so the output is deterministic.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        let mut m = Map::new();
        for k in keys {
            m.insert(k.clone(), self[k].to_value());
        }
        Value::Object(m)
    }
}

macro_rules! serialize_tuple {
    ($(($($name:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    )+};
}
serialize_tuple!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3),);

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

// ---------------------------------------------------------------------------
// Deserialize impls
// ---------------------------------------------------------------------------

macro_rules! deserialize_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::msg(format!("{i} out of range for {}", stringify!($t)))),
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| Error::msg(format!("{u} out of range for {}", stringify!($t)))),
                    other => Err(Error::msg(format!(
                        "expected integer, got {other:?}"
                    ))),
                }
            }
        }
    )*};
}
deserialize_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::msg(format!("expected number, got {v:?}")))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::msg(format!("expected bool, got {v:?}")))
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::msg(format!("expected string, got {v:?}")))
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::msg(format!("expected array, got {v:?}")))?;
        arr.iter().map(T::from_value).collect()
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::msg(format!("expected object, got {v:?}")))?;
        obj.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::msg(format!("expected object, got {v:?}")))?;
        obj.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

macro_rules! deserialize_tuple {
    ($(($($name:ident . $idx:tt),+ ; $len:expr)),+ $(,)?) => {$(
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let arr = v
                    .as_array()
                    .ok_or_else(|| Error::msg(format!("expected array, got {v:?}")))?;
                if arr.len() != $len {
                    return Err(Error::msg(format!(
                        "expected array of length {}, got {}", $len, arr.len()
                    )));
                }
                Ok(($($name::from_value(&arr[$idx])?,)+))
            }
        }
    )+};
}
deserialize_tuple!(
    (A.0; 1),
    (A.0, B.1; 2),
    (A.0, B.1, C.2; 3),
    (A.0, B.1, C.2, D.3; 4),
);

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }

    fn from_owned(v: Value) -> Result<Self, Error> {
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_insertion_order_and_replaces() {
        let mut m = Map::new();
        m.insert("b".into(), Value::Int(1));
        m.insert("a".into(), Value::Int(2));
        m.insert("b".into(), Value::Int(3));
        let keys: Vec<&String> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(m.get("b"), Some(&Value::Int(3)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn primitive_round_trips() {
        assert_eq!(u64::from_value(&17u64.to_value()).unwrap(), 17);
        assert_eq!(i32::from_value(&(-4i32).to_value()).unwrap(), -4);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_value()).unwrap(),
            "hi".to_string()
        );
        assert_eq!(
            Vec::<u32>::from_value(&vec![1u32, 2].to_value()).unwrap(),
            vec![1, 2]
        );
        assert_eq!(
            Option::<u32>::from_value(&Value::Null).unwrap(),
            None::<u32>
        );
        assert_eq!(
            <(u32, String)>::from_value(&(7u32, "x".to_string()).to_value()).unwrap(),
            (7, "x".to_string())
        );
    }

    #[test]
    fn numbers_coerce_across_kinds() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(3.0).as_i64(), None);
        assert_eq!(Value::UInt(u64::MAX).as_i64(), None);
        assert_eq!(Value::UInt(5).as_i64(), Some(5));
    }

    #[test]
    fn errors_accumulate_context() {
        let e = Error::context("Foo.bar", Error::msg("expected integer"));
        assert_eq!(e.to_string(), "Foo.bar: expected integer");
    }
}
