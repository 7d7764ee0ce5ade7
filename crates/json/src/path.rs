//! A JSONPath dialect matching Hive/Spark's `get_json_object`.
//!
//! Supported syntax (the subset used by warehouse queries in the paper):
//!
//! * `$` — the root document
//! * `.field` or `['field']` — object member access
//! * `[n]` — array index
//! * `[*]` — all array elements (returns an array)
//!
//! Paths are parsed once and reused across millions of records, so the
//! compiled representation is a flat `Vec<Step>`.

use std::fmt;

use crate::error::{JsonError, Result};
use crate::value::JsonValue;

/// One navigation step in a compiled JSONPath.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Step {
    /// `.name` — object field access.
    Field(String),
    /// `[n]` — array index.
    Index(usize),
    /// `[*]` — wildcard over array elements.
    Wildcard,
}

/// A compiled JSONPath expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JsonPath {
    steps: Vec<Step>,
    text: String,
}

impl JsonPath {
    /// Parse a JSONPath expression like `$.store.book[0].title`.
    pub fn parse(text: &str) -> Result<Self> {
        let bytes = text.as_bytes();
        if bytes.first() != Some(&b'$') {
            return Err(JsonError::InvalidPath {
                reason: format!("path must start with '$': {text}"),
            });
        }
        let mut steps = Vec::new();
        let mut i = 1usize;
        while i < bytes.len() {
            match bytes[i] {
                b'.' => {
                    i += 1;
                    let start = i;
                    while i < bytes.len() && bytes[i] != b'.' && bytes[i] != b'[' {
                        i += 1;
                    }
                    if start == i {
                        return Err(JsonError::InvalidPath {
                            reason: format!("empty field name in {text}"),
                        });
                    }
                    steps.push(Step::Field(text[start..i].to_string()));
                }
                b'[' => {
                    i += 1;
                    if i < bytes.len() && bytes[i] == b'*' {
                        i += 1;
                        if i >= bytes.len() || bytes[i] != b']' {
                            return Err(JsonError::InvalidPath {
                                reason: format!("expected ']' after '*' in {text}"),
                            });
                        }
                        i += 1;
                        steps.push(Step::Wildcard);
                    } else if i < bytes.len() && (bytes[i] == b'\'' || bytes[i] == b'"') {
                        let quote = bytes[i];
                        i += 1;
                        let start = i;
                        while i < bytes.len() && bytes[i] != quote {
                            i += 1;
                        }
                        if i >= bytes.len() {
                            return Err(JsonError::InvalidPath {
                                reason: format!("unterminated quoted field in {text}"),
                            });
                        }
                        let name = text[start..i].to_string();
                        i += 1; // closing quote
                        if i >= bytes.len() || bytes[i] != b']' {
                            return Err(JsonError::InvalidPath {
                                reason: format!("expected ']' after quoted field in {text}"),
                            });
                        }
                        i += 1;
                        steps.push(Step::Field(name));
                    } else {
                        let start = i;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                        if start == i || i >= bytes.len() || bytes[i] != b']' {
                            return Err(JsonError::InvalidPath {
                                reason: format!("bad array index in {text}"),
                            });
                        }
                        let idx: usize =
                            text[start..i].parse().map_err(|_| JsonError::InvalidPath {
                                reason: format!("array index overflow in {text}"),
                            })?;
                        i += 1;
                        steps.push(Step::Index(idx));
                    }
                }
                _ => {
                    return Err(JsonError::InvalidPath {
                        reason: format!("unexpected character at offset {i} in {text}"),
                    })
                }
            }
        }
        Ok(JsonPath {
            steps,
            text: text.to_string(),
        })
    }

    /// The original textual form.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The compiled steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps (path length / nesting requirement).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` for the bare `$` path.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Evaluate against a parsed document. Returns `None` when any step does
    /// not match (Hive semantics: missing key / out-of-range index / type
    /// mismatch all yield NULL).
    pub fn eval<'v>(&self, root: &'v JsonValue) -> Option<EvalResult<'v>> {
        let mut cur = root;
        for (si, step) in self.steps.iter().enumerate() {
            match step {
                Step::Field(name) => cur = cur.get(name)?,
                Step::Index(i) => cur = cur.index(*i)?,
                Step::Wildcard => {
                    let items = cur.as_array()?;
                    let rest = &self.steps[si + 1..];
                    let mut collected = Vec::new();
                    for item in items {
                        if let Some(v) = eval_steps(item, rest) {
                            collected.push(v.into_owned());
                        }
                    }
                    return Some(EvalResult::Owned(JsonValue::Array(collected)));
                }
            }
        }
        Some(EvalResult::Borrowed(cur))
    }
}

/// Evaluate many paths against one already-parsed document, returning the
/// Hive string rendering of each (entry `i` answers `paths[i]`; `None` on a
/// miss).
///
/// This is the Jackson-mode half of intra-query shared parsing: the caller
/// pays one DOM parse and amortizes it over every path the query needs from
/// the document. Each entry is exactly what
/// [`crate::get_json_object`] would return for the same `(json, path)`
/// pair — the per-path evaluation is the same `eval` + `to_hive_string`
/// machinery, only the parse is shared.
pub fn eval_many(root: &JsonValue, paths: &[JsonPath]) -> Vec<Option<String>> {
    paths
        .iter()
        .map(|p| p.eval(root).map(|v| v.to_hive_string()))
        .collect()
}

fn eval_steps<'v>(root: &'v JsonValue, steps: &[Step]) -> Option<EvalResult<'v>> {
    let mut cur = root;
    for (si, step) in steps.iter().enumerate() {
        match step {
            Step::Field(name) => cur = cur.get(name)?,
            Step::Index(i) => cur = cur.index(*i)?,
            Step::Wildcard => {
                let items = cur.as_array()?;
                let rest = &steps[si + 1..];
                let mut collected = Vec::new();
                for item in items {
                    if let Some(v) = eval_steps(item, rest) {
                        collected.push(v.into_owned());
                    }
                }
                return Some(EvalResult::Owned(JsonValue::Array(collected)));
            }
        }
    }
    Some(EvalResult::Borrowed(cur))
}

/// Result of a path evaluation: a borrow into the document for plain
/// navigation, or an owned array for wildcard flattening.
#[derive(Debug, PartialEq)]
pub enum EvalResult<'v> {
    /// A reference into the evaluated document.
    Borrowed(&'v JsonValue),
    /// A freshly built value (wildcard results).
    Owned(JsonValue),
}

impl<'v> EvalResult<'v> {
    /// Borrow the underlying value.
    pub fn as_value(&self) -> &JsonValue {
        match self {
            EvalResult::Borrowed(v) => v,
            EvalResult::Owned(v) => v,
        }
    }

    /// Convert into an owned [`JsonValue`].
    pub fn into_owned(self) -> JsonValue {
        match self {
            EvalResult::Borrowed(v) => v.clone(),
            EvalResult::Owned(v) => v,
        }
    }

    /// Shortcut for `as_value().as_str()`.
    pub fn as_str(&self) -> Option<&str> {
        self.as_value().as_str()
    }

    /// Shortcut for `as_value().as_i64()`.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_value().as_i64()
    }

    /// Shortcut for `as_value().as_f64()`.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_value().as_f64()
    }

    /// Render as Hive's `get_json_object` would.
    pub fn to_hive_string(&self) -> String {
        self.as_value().to_hive_string()
    }
}

impl fmt::Display for JsonPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn parse_simple_paths() {
        let p = JsonPath::parse("$.a.b").unwrap();
        assert_eq!(
            p.steps(),
            &[Step::Field("a".into()), Step::Field("b".into())]
        );
        assert_eq!(p.text(), "$.a.b");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn parse_indexed_and_quoted() {
        let p = JsonPath::parse("$.a[3]['b c'][\"d\"][*]").unwrap();
        assert_eq!(
            p.steps(),
            &[
                Step::Field("a".into()),
                Step::Index(3),
                Step::Field("b c".into()),
                Step::Field("d".into()),
                Step::Wildcard,
            ]
        );
    }

    #[test]
    fn parse_root_only() {
        let p = JsonPath::parse("$").unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "", "a.b", "$.", "$[", "$[x]", "$['a", "$['a']x", "$..a", "$[*",
        ] {
            assert!(JsonPath::parse(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn eval_navigates() {
        let doc = parse(r#"{"a":{"b":[10,20,{"c":"deep"}]}}"#).unwrap();
        let p = JsonPath::parse("$.a.b[2].c").unwrap();
        assert_eq!(p.eval(&doc).unwrap().as_str(), Some("deep"));
        let p = JsonPath::parse("$.a.b[1]").unwrap();
        assert_eq!(p.eval(&doc).unwrap().as_i64(), Some(20));
    }

    #[test]
    fn eval_missing_yields_none() {
        let doc = parse(r#"{"a":{"b":[1]}}"#).unwrap();
        for path in ["$.x", "$.a.x", "$.a.b[5]", "$.a.b.c", "$.a[0]"] {
            let p = JsonPath::parse(path).unwrap();
            assert!(p.eval(&doc).is_none(), "expected None for {path}");
        }
    }

    #[test]
    fn eval_root_returns_document() {
        let doc = parse(r#"{"a":1}"#).unwrap();
        let p = JsonPath::parse("$").unwrap();
        assert_eq!(p.eval(&doc).unwrap().as_value(), &doc);
    }

    #[test]
    fn wildcard_collects_matches() {
        let doc = parse(r#"{"items":[{"p":1},{"q":9},{"p":3}]}"#).unwrap();
        let p = JsonPath::parse("$.items[*].p").unwrap();
        let got = p.eval(&doc).unwrap().into_owned();
        assert_eq!(got, parse("[1,3]").unwrap());
    }

    #[test]
    fn wildcard_on_non_array_is_none() {
        let doc = parse(r#"{"items":{"p":1}}"#).unwrap();
        let p = JsonPath::parse("$.items[*]").unwrap();
        assert!(p.eval(&doc).is_none());
    }

    #[test]
    fn nested_wildcards() {
        let doc = parse(r#"{"a":[[1,2],[3]]}"#).unwrap();
        let p = JsonPath::parse("$.a[*][*]").unwrap();
        let got = p.eval(&doc).unwrap().into_owned();
        assert_eq!(got, parse("[[1,2],[3]]").unwrap());
    }

    #[test]
    fn get_json_object_renders_hive_strings() {
        let json = r#"{"a":{"b":"v"},"n":5}"#;
        let eval = |path: &str| crate::get_json_object(json, &JsonPath::parse(path).unwrap());
        assert_eq!(eval("$.a.b").unwrap(), "v");
        assert_eq!(eval("$.n").unwrap(), "5");
        assert_eq!(eval("$.missing"), None);
    }

    #[test]
    fn display_round_trips() {
        let text = "$.a[0]['b']";
        let p = JsonPath::parse(text).unwrap();
        assert_eq!(p.to_string(), text);
    }
}
