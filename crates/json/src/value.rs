//! The owned JSON document model.

use std::collections::BTreeMap;
use std::fmt;

use crate::serializer::to_string;

/// A parsed JSON value.
///
/// Objects preserve insertion order via a `Vec` of pairs — field order matters
/// for round-tripping and for the Mison parser's speculative field positions.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number. Integers within `i64` range are kept exact.
    Number(JsonNumber),
    /// A string (already unescaped).
    String(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object: ordered list of `(key, value)` pairs.
    Object(Vec<(String, JsonValue)>),
}

/// A JSON number: exact integer when possible, otherwise a double.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JsonNumber {
    /// Exact signed integer.
    Int(i64),
    /// IEEE-754 double.
    Float(f64),
}

impl JsonNumber {
    /// The value as an `f64` (lossy for very large integers).
    pub fn as_f64(self) -> f64 {
        match self {
            JsonNumber::Int(i) => i as f64,
            JsonNumber::Float(f) => f,
        }
    }

    /// The value as an `i64`, when it is an exact integer in range.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            JsonNumber::Int(i) => Some(i),
            JsonNumber::Float(f) => {
                // `i64::MAX as f64` is 2^63, one past the range: exclusive.
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f < i64::MAX as f64 {
                    Some(f as i64)
                } else {
                    None
                }
            }
        }
    }
}

impl fmt::Display for JsonNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonNumber::Int(i) => write!(f, "{i}"),
            JsonNumber::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{:.1}", x)
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

impl JsonValue {
    /// Shorthand constructor for an object from pairs.
    pub fn object(pairs: Vec<(String, JsonValue)>) -> Self {
        JsonValue::Object(pairs)
    }

    /// `true` if the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Borrow the string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric content as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric content as `i64`, if this is an exactly-integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Borrow the elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(v) => Some(v),
            _ => None,
        }
    }

    /// Look up a field by name (first match wins, as in Hive).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Index into an array.
    pub fn index(&self, i: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Array(v) => v.get(i),
            _ => None,
        }
    }

    /// Number of immediate children (object fields or array elements).
    pub fn len(&self) -> usize {
        match self {
            JsonValue::Array(v) => v.len(),
            JsonValue::Object(p) => p.len(),
            _ => 0,
        }
    }

    /// `true` when [`JsonValue::len`] is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the way Hive's `get_json_object` renders results: strings are
    /// returned raw (no quotes), other scalars in their literal form, and
    /// containers re-serialized compactly.
    pub fn to_hive_string(&self) -> String {
        match self {
            JsonValue::String(s) => s.clone(),
            JsonValue::Null => "null".to_string(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Number(n) => n.to_string(),
            other => to_string(other),
        }
    }

    /// Maximum nesting depth of the value (a scalar has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            JsonValue::Array(v) => 1 + v.iter().map(JsonValue::depth).max().unwrap_or(0),
            JsonValue::Object(p) => 1 + p.iter().map(|(_, v)| v.depth()).max().unwrap_or(0),
            _ => 1,
        }
    }

    /// Total number of leaf properties, used by the data generators to match
    /// Table II's "property number in JSON" column.
    pub fn property_count(&self) -> usize {
        match self {
            JsonValue::Object(p) => p
                .iter()
                .map(|(_, v)| match v {
                    JsonValue::Object(_) | JsonValue::Array(_) => v.property_count(),
                    _ => 1,
                })
                .sum(),
            JsonValue::Array(v) => v.iter().map(JsonValue::property_count).sum(),
            _ => 1,
        }
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}
impl From<i64> for JsonValue {
    fn from(i: i64) -> Self {
        JsonValue::Number(JsonNumber::Int(i))
    }
}
impl From<f64> for JsonValue {
    fn from(f: f64) -> Self {
        JsonValue::Number(JsonNumber::Float(f))
    }
}
impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}
impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}
impl From<BTreeMap<String, JsonValue>> for JsonValue {
    fn from(m: BTreeMap<String, JsonValue>) -> Self {
        JsonValue::Object(m.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonValue {
        JsonValue::Object(vec![
            ("id".to_string(), JsonValue::from(7i64)),
            (
                "item".to_string(),
                JsonValue::Object(vec![
                    ("name".to_string(), JsonValue::from("apple")),
                    ("tags".to_string(), JsonValue::from(vec!["a", "b"])),
                ]),
            ),
        ])
    }

    #[test]
    fn get_and_index_navigate() {
        let v = sample();
        assert_eq!(v.get("id").unwrap().as_i64(), Some(7));
        let tags = v.get("item").unwrap().get("tags").unwrap();
        assert_eq!(tags.index(1).unwrap().as_str(), Some("b"));
        assert_eq!(tags.index(2), None);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn depth_and_property_count() {
        let v = sample();
        assert_eq!(v.depth(), 4); // object -> object -> array -> scalar
        assert_eq!(v.property_count(), 4); // id, name, 2 tags
        assert_eq!(JsonValue::Null.depth(), 1);
    }

    #[test]
    fn hive_string_rendering() {
        assert_eq!(JsonValue::from("x").to_hive_string(), "x");
        assert_eq!(JsonValue::from(3i64).to_hive_string(), "3");
        assert_eq!(JsonValue::Bool(true).to_hive_string(), "true");
        assert_eq!(JsonValue::Null.to_hive_string(), "null");
        assert_eq!(JsonValue::from(vec![1i64, 2]).to_hive_string(), "[1,2]");
    }

    #[test]
    fn number_conversions() {
        assert_eq!(JsonNumber::Int(5).as_f64(), 5.0);
        assert_eq!(JsonNumber::Float(5.0).as_i64(), Some(5));
        assert_eq!(JsonNumber::Float(5.5).as_i64(), None);
        assert_eq!(
            JsonNumber::Float(-9_223_372_036_854_775_808.0).as_i64(),
            Some(i64::MIN)
        );
        assert_eq!(
            JsonNumber::Float(9_223_372_036_854_775_808.0).as_i64(),
            None
        );
        assert_eq!(JsonNumber::Int(5).to_string(), "5");
        assert_eq!(JsonNumber::Float(2.5).to_string(), "2.5");
        assert_eq!(JsonNumber::Float(2.0).to_string(), "2.0");
    }

    #[test]
    fn duplicate_keys_first_wins() {
        let v = JsonValue::Object(vec![
            ("k".to_string(), JsonValue::from(1i64)),
            ("k".to_string(), JsonValue::from(2i64)),
        ]);
        assert_eq!(v.get("k").unwrap().as_i64(), Some(1));
    }
}
