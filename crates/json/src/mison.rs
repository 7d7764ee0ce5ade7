//! A structural-index JSON field projector in the style of Mison
//! (Li et al., VLDB 2017).
//!
//! Mison avoids building a DOM. It scans the raw bytes once to build
//! *structural bitmaps* — one bit per input byte marking quotes, colons,
//! braces and brackets — through the dispatched [`crate::kernels`] tier
//! (AVX2 intrinsics, portable SWAR, or the scalar reference, selected
//! at runtime), then derives a *leveled colon index*: for every
//! structural colon, its byte position and nesting depth, plus a matching
//! table from every open bracket to its close. Locating a field is then a
//! scan over the colons of one level only; the value text is sliced out of
//! the record without parsing unrelated fields.
//!
//! The behaviour class this reproduces (needed by the paper's Fig. 15):
//!
//! * projecting a handful of fields is much faster than a full DOM parse
//!   (no per-field `String`/`Vec` materialization),
//! * the per-record index construction cost remains, so caching parsed
//!   values (Maxson) still wins when the same path is parsed repeatedly.

use crate::kernels;
use crate::parser::Parser;
use crate::path::{JsonPath, Step};
use crate::value::JsonValue;

/// Structural index over one record: string-interior bitmap, leveled colon
/// positions, and bracket matching.
#[derive(Debug)]
pub struct StructuralIndex<'a> {
    input: &'a [u8],
    /// Bit set for bytes inside string literals (between unescaped quotes).
    in_string: Vec<u64>,
    /// `(byte position, depth)` of every structural colon, in byte order.
    /// Depth 1 = directly inside the root object.
    colons: Vec<(u32, u32)>,
    /// `(open position, close position)` for every structural bracket pair,
    /// sorted by open position.
    pairs: Vec<(u32, u32)>,
    /// Depth just *inside* each open bracket, parallel to `pairs`.
    inner_depth: Vec<u32>,
}

#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

impl<'a> StructuralIndex<'a> {
    /// Build the structural index for one JSON record in two passes: the
    /// dispatched kernel builds the string-interior and structural bitmaps
    /// (pass 1), then a word-at-a-time walk over the set structural bits
    /// derives leveled colons and bracket matching (pass 2).
    pub fn build(input: &'a str) -> Self {
        Self::from_bitmaps(
            input,
            kernels::build_structural_with(kernels::active(), input.as_bytes()),
        )
    }

    fn from_bitmaps(input: &'a str, bitmaps: kernels::Bitmaps) -> Self {
        let bytes = input.as_bytes();
        let kernels::Bitmaps {
            in_string,
            structural,
            ..
        } = bitmaps;

        // Pass 2: leveled colons and bracket matching. The kernel already
        // masked string interiors out of `structural`, so this visits only
        // the (sparse) structural bytes via a trailing-zeros walk instead
        // of probing the bitmap per byte.
        let mut colons = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut inner_depth: Vec<u32> = Vec::new();
        let mut stack: Vec<usize> = Vec::new(); // indexes into `pairs`
        let mut depth = 0u32;
        for (w, &word) in structural.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                let i = (w << 6) + m.trailing_zeros() as usize;
                m &= m - 1;
                match bytes[i] {
                    b'{' | b'[' => {
                        depth += 1;
                        stack.push(pairs.len());
                        pairs.push((i as u32, u32::MAX));
                        inner_depth.push(depth);
                    }
                    b'}' | b']' => {
                        depth = depth.saturating_sub(1);
                        if let Some(idx) = stack.pop() {
                            pairs[idx].1 = i as u32;
                        }
                    }
                    // Only `:` remains; the kernel marks exactly these five.
                    _ => colons.push((i as u32, depth)),
                }
            }
        }
        StructuralIndex {
            input: bytes,
            in_string,
            colons,
            pairs,
            inner_depth,
        }
    }

    /// `true` when byte `i` lies strictly inside a string literal.
    pub fn is_in_string(&self, i: usize) -> bool {
        get_bit(&self.in_string, i)
    }

    /// Byte offset of the quote closing the string opened by the quote at
    /// `open`, read off an `in_string` bitmap over `len` input bytes: every
    /// byte after an opening quote is string-interior until the closing
    /// quote, so that quote is the first clear bit after `open` — found a
    /// word at a time, no byte of the string is looked at. `None` when the
    /// string runs to the end of the input. `open` must be a quote outside
    /// any string (a structural position), which is where
    /// [`Self::value_end`] stands.
    fn closing_quote(in_string: &[u64], len: usize, open: usize) -> Option<usize> {
        let from = open + 1;
        let mut w = from / 64;
        // Bits below `from` in the first word count as set (not candidates).
        let mut clear = !*in_string.get(w)? & (u64::MAX << (from % 64));
        while clear == 0 {
            w += 1;
            clear = !*in_string.get(w)?;
        }
        // The tail word's bits past the input are clear: bound by `len`.
        Some(w * 64 + clear.trailing_zeros() as usize).filter(|&close| close < len)
    }

    /// Index into `pairs` of the bracket opening at `pos`, if any.
    fn pair_at(&self, pos: usize) -> Option<usize> {
        self.pairs
            .binary_search_by_key(&(pos as u32), |&(open, _)| open)
            .ok()
    }

    /// Byte offset of the close bracket matching the open bracket at `open`.
    pub fn matching_close(&self, open: usize) -> Option<usize> {
        let idx = self.pair_at(open)?;
        let close = self.pairs[idx].1;
        (close != u32::MAX).then_some(close as usize)
    }

    /// Locate the value span of an object field named `key` inside the
    /// object starting at byte `obj_start` (which must be `{`).
    ///
    /// Returns `(value_start, value_end)` byte offsets (end exclusive), or
    /// `None` when the field is absent.
    pub fn find_field(&self, obj_start: usize, key: &str) -> Option<(usize, usize)> {
        if self.input.get(obj_start) != Some(&b'{') {
            return None;
        }
        let pair_idx = self.pair_at(obj_start)?;
        let obj_end = self.pairs[pair_idx].1;
        if obj_end == u32::MAX {
            return None;
        }
        let level = self.inner_depth[pair_idx];
        // Colons are sorted by position: binary search the window.
        let lo = self.colons.partition_point(|&(p, _)| p <= obj_start as u32);
        let hi = self.colons.partition_point(|&(p, _)| p < obj_end);
        for &(colon, d) in &self.colons[lo..hi] {
            if d != level {
                continue;
            }
            let colon = colon as usize;
            let kspan = self.key_span_before(colon)?;
            if &self.input[kspan.0..kspan.1] == key.as_bytes() {
                let vstart = self.skip_ws_after(colon + 1);
                let vend = self.value_end(vstart, obj_end as usize)?;
                return Some((vstart, vend));
            }
        }
        None
    }

    /// Span of the key string (without quotes) whose closing quote precedes
    /// `colon`.
    fn key_span_before(&self, colon: usize) -> Option<(usize, usize)> {
        let mut i = colon;
        while i > 0 {
            i -= 1;
            match self.input[i] {
                b' ' | b'\t' | b'\n' | b'\r' => continue,
                b'"' => {
                    let end = i;
                    // Walk back to the opening quote: the first quote byte
                    // not marked string-interior.
                    let mut j = i;
                    while j > 0 {
                        j -= 1;
                        if self.input[j] == b'"' && !self.is_in_string(j) {
                            return Some((j + 1, end));
                        }
                    }
                    return None;
                }
                _ => return None,
            }
        }
        None
    }

    fn skip_ws_after(&self, mut i: usize) -> usize {
        while i < self.input.len() && matches!(self.input[i], b' ' | b'\t' | b'\n' | b'\r') {
            i += 1;
        }
        i
    }

    /// End (exclusive) of the value starting at `vstart`, bounded by
    /// `limit` (the enclosing object's close bracket).
    fn value_end(&self, vstart: usize, limit: usize) -> Option<usize> {
        match *self.input.get(vstart)? {
            b'{' | b'[' => self.matching_close(vstart).map(|c| c + 1),
            b'"' => Self::closing_quote(&self.in_string, self.input.len(), vstart).map(|c| c + 1),
            _ => {
                // Scalar: runs until a raw comma/close outside strings.
                let mut i = vstart;
                while i < limit {
                    let b = self.input[i];
                    if (b == b',' || b == b'}' || b == b']') && !self.is_in_string(i) {
                        break;
                    }
                    i += 1;
                }
                let mut end = i;
                while end > vstart && matches!(self.input[end - 1], b' ' | b'\t' | b'\n' | b'\r') {
                    end -= 1;
                }
                Some(end)
            }
        }
    }
}

/// A Mison-style projector: given a set of JSONPaths, extracts their values
/// from raw records without a full DOM parse.
///
/// Paths with nested object steps are resolved by descending through the
/// same index. Wildcards and array indexes fall back to parsing just the
/// sliced subtree with the DOM parser (still far less text than the full
/// record).
#[derive(Debug)]
pub struct MisonProjector;

impl MisonProjector {
    /// Project a single path out of `record` (builds a fresh index).
    pub fn project_path(record: &str, path: &JsonPath) -> Option<String> {
        let index = StructuralIndex::build(record);
        let root = index.skip_ws_after(0);
        project_one(record, &index, root, path.steps())
    }

    /// Project many paths out of `record` over **one** structural index —
    /// the Mison-mode half of intra-query shared parsing. Entry `i` answers
    /// `paths[i]` and is byte-identical to what [`Self::project_path`] would
    /// return for the same pair: both go through the same `project_one`
    /// probe, only the index build is shared.
    pub fn project_paths(record: &str, paths: &[JsonPath]) -> Vec<Option<String>> {
        let index = StructuralIndex::build(record);
        let root = index.skip_ws_after(0);
        paths
            .iter()
            .map(|p| project_one(record, &index, root, p.steps()))
            .collect()
    }
}

fn project_one(
    record: &str,
    index: &StructuralIndex<'_>,
    obj_start: usize,
    steps: &[Step],
) -> Option<String> {
    match steps.first() {
        None => {
            let end = index.value_end(obj_start, record.len())?;
            render_slice(&record[obj_start..end])
        }
        Some(Step::Field(name)) => {
            let (vs, ve) = index.find_field(obj_start, name)?;
            let rest = &steps[1..];
            if rest.is_empty() {
                render_slice(&record[vs..ve])
            } else if record.as_bytes().get(vs) == Some(&b'{')
                && matches!(rest.first(), Some(Step::Field(_)))
            {
                // Recurse with the same index, scoped to the sub-object.
                project_one(record, index, vs, rest)
            } else {
                // Array step or non-object: parse just the slice.
                let sub = &record[vs..ve];
                let doc = crate::parse(sub).ok()?;
                let sub_path = steps_to_path(rest);
                sub_path.eval(&doc).map(|v| v.to_hive_string())
            }
        }
        Some(_) => {
            // Root-level array step: parse the slice.
            let end = index.value_end(obj_start, record.len())?;
            let doc = crate::parse(&record[obj_start..end]).ok()?;
            let sub_path = steps_to_path(steps);
            sub_path.eval(&doc).map(|v| v.to_hive_string())
        }
    }
}

pub(crate) fn steps_to_path(steps: &[Step]) -> JsonPath {
    let mut text = String::from("$");
    for s in steps {
        match s {
            Step::Field(f) => {
                text.push('.');
                text.push_str(f);
            }
            Step::Index(i) => {
                text.push_str(&format!("[{i}]"));
            }
            Step::Wildcard => text.push_str("[*]"),
        }
    }
    JsonPath::parse(&text).expect("reconstructed path is valid")
}

/// Render a raw value slice the way `get_json_object` renders values:
/// strings unescaped and unquoted, containers compactly re-serialized,
/// scalars normalized through the value model.
fn render_slice(slice: &str) -> Option<String> {
    let trimmed = slice.trim();
    match trimmed.as_bytes().first()? {
        b'"' => {
            // Fast path: no escapes -> borrow directly.
            let inner = &trimmed[1..];
            if let Some(end) = memchr_quote(inner) {
                if end + 2 == trimmed.len() && !inner[..end].contains('\\') {
                    return Some(inner[..end].to_string());
                }
            }
            let mut p = Parser::new(trimmed);
            p.parse_string().ok()
        }
        b'{' | b'[' => {
            let v: JsonValue = crate::parse(trimmed).ok()?;
            Some(crate::to_string(&v))
        }
        // Scalars are normalized through the value model so that number
        // rendering matches the DOM path exactly (e.g. `-2.5e3` -> `-2500.0`).
        _ => {
            let v: JsonValue = crate::parse(trimmed).ok()?;
            Some(v.to_hive_string())
        }
    }
}

/// Position of the first unescaped quote in `s`, treating any backslash as
/// a disqualifier (the caller falls back to the full unescape).
fn memchr_quote(s: &str) -> Option<usize> {
    s.bytes().position(|b| b == b'"')
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORD: &str = r#"{"item_id": 1, "item_name": "apple, or \"fruit\"", "nested": {"a": {"b": 9}, "arr": [1,2,3]}, "turnover": 20.5, "flag": true, "nothing": null}"#;

    fn project(path: &str) -> Option<String> {
        let p = JsonPath::parse(path).unwrap();
        MisonProjector::project_path(RECORD, &p)
    }

    #[test]
    fn top_level_scalars() {
        assert_eq!(project("$.item_id").unwrap(), "1");
        assert_eq!(project("$.turnover").unwrap(), "20.5");
        assert_eq!(project("$.flag").unwrap(), "true");
        assert_eq!(project("$.nothing").unwrap(), "null");
    }

    #[test]
    fn string_with_commas_and_escaped_quotes() {
        assert_eq!(project("$.item_name").unwrap(), "apple, or \"fruit\"");
    }

    #[test]
    fn nested_object_navigation() {
        assert_eq!(project("$.nested.a.b").unwrap(), "9");
        assert_eq!(project("$.nested.a").unwrap(), r#"{"b":9}"#);
    }

    #[test]
    fn array_access_falls_back_to_slice_parse() {
        assert_eq!(project("$.nested.arr[1]").unwrap(), "2");
        assert_eq!(project("$.nested.arr").unwrap(), "[1,2,3]");
    }

    #[test]
    fn missing_fields_are_none() {
        assert_eq!(project("$.zzz"), None);
        assert_eq!(project("$.nested.zzz"), None);
        assert_eq!(project("$.nested.arr[9]"), None);
    }

    #[test]
    fn matches_dom_oracle_on_varied_records() {
        let records = [
            r#"{"a":1}"#,
            r#"{"a":{"b":{"c":[true,false]}},"d":"x:y,{z}"}"#,
            r#"{ "s" : "he said \"hi\"" , "n" : -2.5e3 }"#,
            r#"{"empty":{},"arr":[],"deep":{"x":{"y":{"z":"w"}}}}"#,
        ];
        let paths = [
            "$.a",
            "$.a.b.c",
            "$.d",
            "$.s",
            "$.n",
            "$.empty",
            "$.arr",
            "$.deep.x.y.z",
        ];
        for rec in records {
            for path in paths {
                let p = JsonPath::parse(path).unwrap();
                let dom = crate::get_json_object(rec, &p);
                let mison = MisonProjector::project_path(rec, &p);
                assert_eq!(mison, dom, "record={rec} path={path}");
            }
        }
    }

    #[test]
    fn multi_path_projection() {
        let paths = vec![
            JsonPath::parse("$.item_id").unwrap(),
            JsonPath::parse("$.missing").unwrap(),
            JsonPath::parse("$.nested.a.b").unwrap(),
        ];
        let got = MisonProjector::project_paths(RECORD, &paths);
        assert_eq!(
            got,
            vec![Some("1".to_string()), None, Some("9".to_string())]
        );
    }

    #[test]
    fn structural_index_masks_strings() {
        let idx = StructuralIndex::build(r#"{"k":"a,b:{c}"}"#);
        // The colon inside the string must not be structural.
        assert_eq!(idx.colons.len(), 1);
        assert_eq!(idx.pairs.len(), 1);
        assert_eq!(idx.pairs[0], (0, 14));
    }

    #[test]
    fn in_string_bitmap_boundaries() {
        let s = r#"{"ab":1}"#;
        let idx = StructuralIndex::build(s);
        assert!(idx.is_in_string(2)); // 'a'
        assert!(idx.is_in_string(3)); // 'b'
        assert!(!idx.is_in_string(0)); // '{'
        assert!(!idx.is_in_string(5)); // ':'
    }

    #[test]
    fn colon_depths_are_leveled() {
        let idx = StructuralIndex::build(r#"{"a":{"b":1},"c":2}"#);
        let depths: Vec<u32> = idx.colons.iter().map(|&(_, d)| d).collect();
        assert_eq!(depths, vec![1, 2, 1]);
    }

    #[test]
    fn bracket_matching() {
        let s = r#"{"a":[1,{"b":2}],"c":{}}"#;
        let idx = StructuralIndex::build(s);
        assert_eq!(idx.matching_close(0), Some(s.len() - 1));
        let arr_open = s.find('[').unwrap();
        assert_eq!(idx.matching_close(arr_open), Some(s.find(']').unwrap()));
        assert_eq!(idx.matching_close(3), None, "non-bracket position");
    }

    #[test]
    fn escaped_quote_handling_in_keys_and_values() {
        let s = r#"{"we\"ird": "va\\l", "x": 1}"#;
        let idx = StructuralIndex::build(s);
        let p = JsonPath::parse("$.x").unwrap();
        assert_eq!(project_one(s, &idx, 0, p.steps()).unwrap(), "1");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "perf comparison only meaningful with optimizations"
    )]
    fn faster_than_dom_on_single_field_projection() {
        // Build a moderately large record (~4KB, 200 fields) and project a
        // single early field many times. The structural index must beat the
        // full DOM parse — the property Fig. 15 depends on.
        let mut record = String::from("{");
        for i in 0..200 {
            if i > 0 {
                record.push(',');
            }
            record.push_str(&format!("\"field{i}\": \"value-{i}-padding-padding\""));
        }
        record.push('}');
        let path = JsonPath::parse("$.field3").unwrap();
        let reps = 200;

        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            assert!(crate::get_json_object(&record, &path).is_some());
        }
        let dom = t0.elapsed();

        let t1 = std::time::Instant::now();
        for _ in 0..reps {
            assert!(MisonProjector::project_path(&record, &path).is_some());
        }
        let mison = t1.elapsed();
        assert!(
            mison < dom,
            "structural index ({mison:?}) should beat DOM parse ({dom:?})"
        );
    }

    /// One shared index must answer every path exactly like a fresh
    /// per-path index does, including misses, nested fields, array steps,
    /// and malformed records.
    #[test]
    fn project_paths_matches_per_path_projection() {
        let paths: Vec<JsonPath> = ["$.a", "$.o.x", "$.arr[1]", "$.zzz"]
            .iter()
            .map(|p| JsonPath::parse(p).unwrap())
            .collect();
        for record in [
            r#"{"a": "x", "o": {"x": 7}, "arr": [10, 20]}"#,
            r#"{"a": null}"#,
            "{broken",
            "",
        ] {
            let shared = MisonProjector::project_paths(record, &paths);
            let naive: Vec<Option<String>> = paths
                .iter()
                .map(|p| MisonProjector::project_path(record, p))
                .collect();
            assert_eq!(shared, naive, "record {record:?}");
        }
    }
}
