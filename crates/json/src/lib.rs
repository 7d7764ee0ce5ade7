//! JSON substrate for the Maxson reproduction.
//!
//! This crate provides everything the rest of the workspace needs to work
//! with raw JSON text, built from scratch:
//!
//! * [`value::JsonValue`] — an owned JSON document model (the output of a
//!   full "Jackson-style" parse).
//! * [`parser`] — a recursive-descent DOM parser, standing in for Jackson,
//!   the default JSON parser of SparkSQL in the paper.
//! * [`serializer`] — compact and pretty writers for [`value::JsonValue`].
//! * [`path`] — a JSONPath dialect matching Hive/Spark's
//!   `get_json_object(column, '$.a.b[0]')`, with both a DOM evaluator and a
//!   raw-string evaluator.
//! * [`kernels`] — runtime-dispatched structural kernels (AVX2 / 64-bit
//!   SWAR / scalar) building the quote-escape-colon-brace bitmaps
//!   and running the prefilter's substring search; every tier is proven
//!   bit-identical to the scalar reference.
//! * [`mison`] — a structural-index parser in the style of Mison (Li et al.,
//!   VLDB 2017), its bitmaps built by [`kernels`]. It extracts individual
//!   fields without materializing a DOM, which is the "fast parser"
//!   baseline of the paper's Fig. 15.
//! * [`tape`] — a two-stage tape parser in the style of On-Demand JSON
//!   (Keiser & Lemire, VLDB 2021): the Mison structural index drives a
//!   typed tape whose skip markers let path navigation hop over unqueried
//!   subtrees without materializing them.
//!
//! # Quick example
//!
//! ```
//! use maxson_json::{parse, path::JsonPath};
//!
//! let doc = parse(r#"{"item": {"name": "apple", "price": 2}}"#).unwrap();
//! let path = JsonPath::parse("$.item.name").unwrap();
//! assert_eq!(path.eval(&doc).unwrap().as_str(), Some("apple"));
//! ```

pub mod error;
pub mod kernels;
pub mod mison;
pub mod parser;
pub mod path;
pub mod serializer;
pub mod sparser;
pub mod tape;
pub mod value;

pub use error::{JsonError, Result};
pub use parser::{parse, Parser};
pub use path::JsonPath;
pub use serializer::{to_string, to_string_pretty};
pub use sparser::RawFilter;
pub use value::JsonValue;

/// Parse a document and evaluate a JSONPath against it, returning the value
/// rendered the way Hive's `get_json_object` renders it (scalars unquoted,
/// containers re-serialized), or `None` when the path does not match.
///
/// This is the "full parse" cost model: the entire document is parsed even
/// when only one field is needed — exactly the redundancy Maxson removes.
pub fn get_json_object(json: &str, path: &JsonPath) -> Option<String> {
    let doc = parse(json).ok()?;
    let v = path.eval(&doc)?;
    Some(v.to_hive_string())
}

/// Parse a document **once** and evaluate every path against the shared DOM
/// (entry `i` answers `paths[i]`). Invalid JSON yields all-`None`, matching
/// what [`get_json_object`] returns per path.
///
/// This is the intra-query shared-parse entry point: a query needing K
/// fields from one JSON column pays one parse instead of K.
pub fn get_json_objects(json: &str, paths: &[JsonPath]) -> Vec<Option<String>> {
    match parse(json) {
        Ok(doc) => path::eval_many(&doc, paths),
        Err(_) => vec![None; paths.len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_json_object_scalar_is_unquoted() {
        let p = JsonPath::parse("$.a").unwrap();
        assert_eq!(get_json_object(r#"{"a":"x"}"#, &p).unwrap(), "x");
        let p = JsonPath::parse("$.n").unwrap();
        assert_eq!(get_json_object(r#"{"n":42}"#, &p).unwrap(), "42");
    }

    #[test]
    fn get_json_object_container_is_serialized() {
        let p = JsonPath::parse("$.a").unwrap();
        assert_eq!(get_json_object(r#"{"a":[1,2]}"#, &p).unwrap(), "[1,2]");
    }

    #[test]
    fn get_json_object_missing_path_is_none() {
        let p = JsonPath::parse("$.zzz").unwrap();
        assert_eq!(get_json_object(r#"{"a":1}"#, &p), None);
    }

    #[test]
    fn get_json_object_invalid_json_is_none() {
        let p = JsonPath::parse("$.a").unwrap();
        assert_eq!(get_json_object("{oops", &p), None);
    }

    /// The shared-parse entry point must agree per path with the per-call
    /// one, including on misses and invalid documents.
    #[test]
    fn get_json_objects_matches_per_call_results() {
        let paths: Vec<JsonPath> = ["$.a", "$.n", "$.zzz", "$.o.x"]
            .iter()
            .map(|p| JsonPath::parse(p).unwrap())
            .collect();
        for json in [
            r#"{"a":"x","n":42,"o":{"x":[1,2]}}"#,
            r#"{"a":null}"#,
            "{oops",
            "",
        ] {
            let shared = get_json_objects(json, &paths);
            let naive: Vec<Option<String>> =
                paths.iter().map(|p| get_json_object(json, p)).collect();
            assert_eq!(shared, naive, "doc {json:?}");
        }
    }
}
