//! A two-stage tape parser in the style of On-Demand JSON
//! (Keiser & Lemire, VLDB 2021).
//!
//! Stage 1 is the dispatched [`crate::kernels`] bitmap build; of its output
//! the tape reads only the string-interior bitmap (the colon/bracket index
//! Mison layers on top is never built). Stage 2 walks the bytes once to
//! build a *typed tape*: one entry per JSON node carrying its kind, its raw
//! byte span, and a **skip marker** — the tape index one past the node's
//! whole subtree. Path navigation then follows skip markers: probing
//! `$.f12` hops key→key in O(1) per sibling, never materializing (or even
//! re-scanning) the subtrees of the eleven fields it jumps over. The
//! entries jumped over are counted as `nodes_skipped`, surfaced through
//! `ExecMetrics` and EXPLAIN ANALYZE.
//!
//! Strings — most of a document's bytes — cost stage 2 a word at a time:
//! the closing quote is the first clear bit of the string-interior bitmap
//! after the opening quote (`StructuralIndex::closing_quote`, a
//! `trailing_zeros` walk), and the body is checked eight bytes per step for
//! "any byte below 0x20 or a backslash"; only a chunk that trips that test
//! goes through the per-byte escape/surrogate checker. The bitmaps and the
//! node vector are recycled through a per-thread scratch, so a worker that
//! builds one tape after another allocates for none of them.
//!
//! The build validates exactly the document set the DOM parser
//! ([`crate::parse`]) accepts — same depth limit, number grammar,
//! escape/surrogate rules, and trailing-data rejection — so
//! `TapeDoc::build(..).is_err()` iff `parse(..).is_err()` and the engine's
//! NULL-on-malformed semantics are byte-identical across parser modes.
//! What the tape *defers* is materialization: no `String`/`Vec`/`JsonValue`
//! is built for any node the query never touches. Queried leaves render
//! straight out of the input span into `Arc<str>` cells; only a queried
//! container (or a wildcard step) falls back to DOM-parsing its slice,
//! which keeps rendering byte-identical to the Jackson path.

use std::cell::RefCell;
use std::sync::Arc;

use crate::error::{JsonError, Result};
use crate::kernels::{self, Bitmaps};
use crate::mison::{steps_to_path, StructuralIndex};
use crate::parser::{Parser, MAX_DEPTH};
use crate::path::{JsonPath, Step};

/// What one tape entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// `{...}` — children alternate Key / value-subtree.
    Object,
    /// `[...]` — children are value subtrees.
    Array,
    /// An object key (span includes the quotes).
    Key,
    /// A string value (span includes the quotes).
    String,
    /// A number literal.
    Number,
    /// `true`.
    True,
    /// `false`.
    False,
    /// `null`.
    Null,
}

/// One tape entry: kind, raw byte span, and the skip marker.
///
/// Invariants (checked by `debug_assert`s and the differential suite):
/// * entries appear in document order; a container's children occupy
///   `idx+1 .. skip` contiguously;
/// * `skip` is the index one past the node's subtree — for scalars and keys
///   that is the next entry, for containers it jumps the whole subtree;
/// * a `Key` entry's `skip` jumps past its *value* subtree too (key at `k`,
///   value at `k+1`, next key — or object end — at `skip`).
#[derive(Debug, Clone, Copy)]
pub struct TapeNode {
    /// Entry kind.
    pub kind: NodeKind,
    /// Byte offset of the token's first byte.
    pub start: u32,
    /// Byte offset one past the token (for containers: past the close
    /// bracket).
    pub end: u32,
    /// Tape index one past this entry's subtree.
    pub skip: u32,
}

/// Work counters for one navigation: how many tape entries skip markers
/// jumped over without visiting.
#[derive(Debug, Default, Clone, Copy)]
pub struct TapeStats {
    /// Tape entries never visited because a skip marker hopped over them
    /// (non-matching siblings' subtrees, and the remainder of a container
    /// once the target child is found).
    pub nodes_skipped: u64,
}

/// A built tape over one record. Borrows the input; rendered values copy
/// only the queried span into an `Arc<str>`.
#[derive(Debug)]
pub struct TapeDoc<'a> {
    input: &'a str,
    nodes: Vec<TapeNode>,
}

/// What one thread's tape builds hand from one document to the next: the
/// stage-1 bitmaps (dead once the build returns) and the node vector of the
/// last dropped tape.
#[derive(Default)]
struct Scratch {
    bitmaps: Bitmaps,
    nodes: Vec<TapeNode>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Entries a recycled vector may hold (a 1 MiB node vector, bitmaps of a
/// 4 MiB document): one giant document does not pin its scratch to the
/// thread for good.
const RETAIN: usize = 1 << 16;

impl Drop for TapeDoc<'_> {
    /// Leave the node vector for this thread's next build. `try_with`: a
    /// tape dropped during thread teardown just frees its vector.
    fn drop(&mut self) {
        let mut nodes = std::mem::take(&mut self.nodes);
        nodes.clear();
        let _ = SCRATCH.try_with(|scratch| {
            if let Ok(mut scratch) = scratch.try_borrow_mut() {
                let capacity = nodes.capacity();
                if capacity > scratch.nodes.capacity() && capacity <= RETAIN {
                    scratch.nodes = nodes;
                }
            }
        });
    }
}

impl<'a> TapeDoc<'a> {
    /// Build the tape for one record: string-interior bitmap first, then
    /// one validating walk that emits typed entries. Errors on exactly the
    /// inputs [`crate::parse`] errors on.
    pub fn build(input: &'a str) -> Result<TapeDoc<'a>> {
        let mut scratch = SCRATCH.with(RefCell::take);
        kernels::build_bitmaps_into(kernels::active(), input.as_bytes(), &mut scratch.bitmaps);
        let mut b = Builder {
            bytes: input.as_bytes(),
            pos: 0,
            in_string: &scratch.bitmaps.in_string,
            nodes: std::mem::take(&mut scratch.nodes),
        };
        let built = b.document();
        // The tape (or, on error, its drop) carries the node vector on.
        let tape = TapeDoc {
            input,
            nodes: b.nodes,
        };
        if scratch.bitmaps.in_string.capacity() <= RETAIN {
            SCRATCH.with(|s| s.borrow_mut().bitmaps = scratch.bitmaps);
        }
        built.map(|()| tape)
    }

    /// Number of tape entries (the root value's subtree).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The tape entries, in document order.
    pub fn nodes(&self) -> &[TapeNode] {
        &self.nodes
    }

    /// Evaluate one path, rendering the result the way `get_json_object`
    /// does. Skipped-entry counts accumulate into `stats`.
    pub fn eval_path(&self, path: &JsonPath, stats: &mut TapeStats) -> Option<Arc<str>> {
        self.eval_steps(0, path.steps(), stats)
    }

    /// Evaluate many paths off this one tape (the tape-mode half of
    /// intra-query shared parsing). Entry `i` answers `paths[i]`, exactly
    /// as [`Self::eval_path`] would.
    pub fn eval_paths(&self, paths: &[JsonPath], stats: &mut TapeStats) -> Vec<Option<Arc<str>>> {
        paths.iter().map(|p| self.eval_path(p, stats)).collect()
    }

    fn eval_steps(
        &self,
        mut node: usize,
        steps: &[Step],
        stats: &mut TapeStats,
    ) -> Option<Arc<str>> {
        for (si, step) in steps.iter().enumerate() {
            match step {
                Step::Field(name) => {
                    if self.nodes[node].kind != NodeKind::Object {
                        return None;
                    }
                    node = self.find_field(node, name, stats)?;
                }
                Step::Index(want) => {
                    if self.nodes[node].kind != NodeKind::Array {
                        return None;
                    }
                    node = self.find_index(node, *want, stats)?;
                }
                Step::Wildcard => {
                    // Wildcards collect across elements; materialize just
                    // this subtree and finish with the DOM evaluator (same
                    // fallback the Mison projector uses).
                    let doc = crate::parse(self.span(node)).ok()?;
                    let rest = steps_to_path(&steps[si..]);
                    return rest.eval(&doc).map(|v| Arc::from(v.to_hive_string()));
                }
            }
        }
        Some(self.render(node))
    }

    /// First-wins field lookup (Hive semantics, matching `JsonValue::get`
    /// and the Mison colon scan): probe keys in document order, jump each
    /// non-matching value subtree via its skip marker, return the first
    /// match's value entry.
    fn find_field(&self, obj: usize, name: &str, stats: &mut TapeStats) -> Option<usize> {
        let end = self.nodes[obj].skip as usize;
        let mut k = obj + 1;
        while k < end {
            let key = self.nodes[k];
            debug_assert_eq!(key.kind, NodeKind::Key);
            let value = k + 1;
            let next = key.skip as usize;
            if self.key_matches(&key, name) {
                // Everything after the matched value is never visited.
                stats.nodes_skipped += (end - next) as u64;
                return Some(value);
            }
            // The non-matching value's subtree is hopped over unvisited
            // (the key entry itself was examined).
            stats.nodes_skipped += (next - value) as u64;
            k = next;
        }
        None
    }

    /// Array element lookup: hop `want` sibling subtrees, return the
    /// element's entry.
    fn find_index(&self, arr: usize, want: usize, stats: &mut TapeStats) -> Option<usize> {
        let end = self.nodes[arr].skip as usize;
        let mut child = arr + 1;
        let mut i = 0usize;
        while child < end {
            let next = self.nodes[child].skip as usize;
            if i == want {
                stats.nodes_skipped += (end - next) as u64;
                return Some(child);
            }
            stats.nodes_skipped += (next - child) as u64;
            child = next;
            i += 1;
        }
        None
    }

    fn key_matches(&self, key: &TapeNode, name: &str) -> bool {
        let raw = &self.input[key.start as usize + 1..key.end as usize - 1];
        if !raw.contains('\\') {
            return raw == name;
        }
        // Escaped key: unescape through the validated string machinery.
        let quoted = &self.input[key.start as usize..key.end as usize];
        Parser::new(quoted)
            .parse_string()
            .map(|s| s == name)
            .unwrap_or(false)
    }

    fn span(&self, node: usize) -> &'a str {
        let n = &self.nodes[node];
        &self.input[n.start as usize..n.end as usize]
    }

    /// Render one entry the way `get_json_object` renders values: strings
    /// unescaped/unquoted straight from the span, scalars normalized
    /// through the value model, containers re-serialized compactly.
    fn render(&self, node: usize) -> Arc<str> {
        let text = self.span(node);
        match self.nodes[node].kind {
            NodeKind::String => {
                let inner = &text[1..text.len() - 1];
                if !inner.contains('\\') {
                    Arc::from(inner)
                } else {
                    Arc::from(
                        Parser::new(text)
                            .parse_string()
                            .expect("string span validated at build"),
                    )
                }
            }
            NodeKind::Number => Arc::from(
                Parser::new(text)
                    .parse_number()
                    .expect("number span validated at build")
                    .to_hive_string(),
            ),
            NodeKind::True => Arc::from("true"),
            NodeKind::False => Arc::from("false"),
            NodeKind::Null => Arc::from("null"),
            NodeKind::Object | NodeKind::Array => {
                let v = crate::parse(text).expect("container span validated at build");
                Arc::from(crate::to_string(&v))
            }
            NodeKind::Key => unreachable!("keys are never rendered as values"),
        }
    }
}

/// Build one tape and evaluate one path. Invalid documents yield `None`,
/// matching [`crate::get_json_object`].
pub fn project_path(record: &str, path: &JsonPath, stats: &mut TapeStats) -> Option<Arc<str>> {
    TapeDoc::build(record).ok()?.eval_path(path, stats)
}

/// Build one tape and evaluate many paths off it. Invalid documents yield
/// all-`None`, matching [`crate::get_json_objects`].
pub fn project_paths(
    record: &str,
    paths: &[JsonPath],
    stats: &mut TapeStats,
) -> Vec<Option<Arc<str>>> {
    match TapeDoc::build(record) {
        Ok(tape) => tape.eval_paths(paths, stats),
        Err(_) => vec![None; paths.len()],
    }
}

/// The stage-2 walk: mirrors the DOM parser's control flow token for token
/// (same depth accounting, same grammar checks) but emits tape entries
/// instead of building values, using the string-interior bitmap for string
/// ends.
struct Builder<'a, 'i> {
    bytes: &'a [u8],
    pos: usize,
    in_string: &'i [u64],
    nodes: Vec<TapeNode>,
}

impl Builder<'_, '_> {
    fn document(&mut self) -> Result<()> {
        self.value(0)?;
        self.skip_ws();
        if self.pos < self.bytes.len() {
            return Err(JsonError::TrailingData { offset: self.pos });
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, expected: &'static str) -> Result<()> {
        match self.peek() {
            Some(x) if x == b => {
                self.pos += 1;
                Ok(())
            }
            found => Err(JsonError::UnexpectedChar {
                offset: self.pos,
                found,
                expected,
            }),
        }
    }

    fn value(&mut self, depth: usize) -> Result<()> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep { limit: MAX_DEPTH });
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.container(NodeKind::Object, depth),
            Some(b'[') => self.container(NodeKind::Array, depth),
            Some(b'"') => {
                let start = self.pos;
                self.string_span()?;
                self.push_scalar(NodeKind::String, start);
                Ok(())
            }
            Some(b't') => self.keyword("true", NodeKind::True),
            Some(b'f') => self.keyword("false", NodeKind::False),
            Some(b'n') => self.keyword("null", NodeKind::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            found => Err(JsonError::UnexpectedChar {
                offset: self.pos,
                found,
                expected: "a JSON value",
            }),
        }
    }

    fn push_scalar(&mut self, kind: NodeKind, start: usize) {
        let idx = self.nodes.len();
        self.nodes.push(TapeNode {
            kind,
            start: start as u32,
            end: self.pos as u32,
            skip: (idx + 1) as u32,
        });
    }

    fn keyword(&mut self, kw: &'static str, kind: NodeKind) -> Result<()> {
        let start = self.pos;
        let end = self.pos + kw.len();
        if self.bytes.len() >= end && &self.bytes[self.pos..end] == kw.as_bytes() {
            self.pos = end;
            self.push_scalar(kind, start);
            Ok(())
        } else {
            Err(JsonError::UnexpectedChar {
                offset: self.pos,
                found: self.peek(),
                expected: "a JSON keyword (true/false/null)",
            })
        }
    }

    fn container(&mut self, kind: NodeKind, depth: usize) -> Result<()> {
        let idx = self.nodes.len();
        let start = self.pos;
        self.nodes.push(TapeNode {
            kind,
            start: start as u32,
            end: 0,
            skip: 0,
        });
        match kind {
            NodeKind::Object => self.object_body(depth)?,
            NodeKind::Array => self.array_body(depth)?,
            _ => unreachable!(),
        }
        self.nodes[idx].end = self.pos as u32;
        self.nodes[idx].skip = self.nodes.len() as u32;
        Ok(())
    }

    fn object_body(&mut self, depth: usize) -> Result<()> {
        self.expect(b'{', "'{'")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let kstart = self.pos;
            self.string_span()?;
            let kidx = self.nodes.len();
            self.nodes.push(TapeNode {
                kind: NodeKind::Key,
                start: kstart as u32,
                end: self.pos as u32,
                skip: 0,
            });
            self.skip_ws();
            self.expect(b':', "':'")?;
            self.value(depth + 1)?;
            self.nodes[kidx].skip = self.nodes.len() as u32;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                found => {
                    return Err(JsonError::UnexpectedChar {
                        offset: self.pos,
                        found,
                        expected: "',' or '}'",
                    })
                }
            }
        }
    }

    fn array_body(&mut self, depth: usize) -> Result<()> {
        self.expect(b'[', "'['")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                found => {
                    return Err(JsonError::UnexpectedChar {
                        offset: self.pos,
                        found,
                        expected: "',' or ']'",
                    })
                }
            }
        }
    }

    /// Consume one string token. The closing quote comes from the
    /// string-interior bitmap (stage 1); the interior is then validated
    /// against the DOM parser's escape/surrogate/control rules without
    /// materializing the unescaped text.
    fn string_span(&mut self) -> Result<()> {
        self.expect(b'"', "'\"'")?;
        let close = StructuralIndex::closing_quote(self.in_string, self.bytes.len(), self.pos - 1)
            .ok_or(JsonError::UnexpectedEof { context: "string" })?;
        self.validate_string_body(self.pos, close)?;
        self.pos = close + 1;
        Ok(())
    }

    /// Validate `bytes[start..end]` eight bytes per step; a chunk holding a
    /// control byte or a backslash (and the tail shorter than a chunk) goes
    /// through [`Self::validate_bytes`], which reports what a per-byte walk
    /// of the whole body would: clean chunks hold nothing to report.
    fn validate_string_body(&self, start: usize, end: usize) -> Result<()> {
        let mut pos = start;
        while pos < end {
            if let Some(chunk) = self.bytes[..end].get(pos..pos + 8) {
                let w = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
                if !kernels::has_control_or_backslash(w) {
                    pos += 8;
                    continue;
                }
            }
            pos = self.validate_bytes(pos, (pos + 8).min(end), end)?;
        }
        Ok(())
    }

    /// The per-byte checker: validate from `pos` until `stop` is reached
    /// (an escape sequence may carry past it, never past `end`, the closing
    /// quote) and return where it stopped.
    fn validate_bytes(&self, mut pos: usize, stop: usize, end: usize) -> Result<usize> {
        while pos < stop {
            let b = self.bytes[pos];
            if b == b'\\' {
                pos += 1;
                if pos >= end {
                    return Err(JsonError::UnexpectedEof {
                        context: "string escape",
                    });
                }
                let esc = self.bytes[pos];
                pos += 1;
                match esc {
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                    b'u' => {
                        let cp = self.hex4(&mut pos, end)?;
                        if (0xD800..0xDC00).contains(&cp) {
                            // High surrogate: requires an immediate \uXXXX
                            // low surrogate.
                            if pos + 1 < end
                                && self.bytes[pos] == b'\\'
                                && self.bytes[pos + 1] == b'u'
                            {
                                pos += 2;
                                let low = self.hex4(&mut pos, end)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(JsonError::InvalidString {
                                        offset: pos,
                                        reason: "unpaired surrogate",
                                    });
                                }
                            } else {
                                return Err(JsonError::InvalidString {
                                    offset: pos,
                                    reason: "unpaired surrogate",
                                });
                            }
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(JsonError::InvalidString {
                                offset: pos,
                                reason: "unpaired low surrogate",
                            });
                        }
                    }
                    _ => {
                        return Err(JsonError::InvalidString {
                            offset: pos - 1,
                            reason: "unknown escape",
                        })
                    }
                }
            } else if b < 0x20 {
                return Err(JsonError::InvalidString {
                    offset: pos,
                    reason: "raw control character",
                });
            } else {
                pos += 1;
            }
        }
        Ok(pos)
    }

    fn hex4(&self, pos: &mut usize, end: usize) -> Result<u32> {
        if *pos + 4 > end {
            return Err(JsonError::UnexpectedEof {
                context: "unicode escape",
            });
        }
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bytes[*pos];
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => {
                    return Err(JsonError::InvalidString {
                        offset: *pos,
                        reason: "bad hex digit in unicode escape",
                    })
                }
            };
            v = v * 16 + d;
            *pos += 1;
        }
        Ok(v)
    }

    /// Consume one number token, enforcing the DOM parser's grammar
    /// (no leading zeros, no bare `.`/exponent). Conversion is deferred to
    /// rendering: every grammar-valid JSON number parses as `f64`.
    fn number(&mut self) -> Result<()> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(JsonError::InvalidNumber { offset: start }),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::InvalidNumber { offset: start });
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::InvalidNumber { offset: start });
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.push_scalar(NodeKind::Number, start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tape_get(json: &str, path: &str) -> Option<String> {
        let p = JsonPath::parse(path).unwrap();
        let mut stats = TapeStats::default();
        project_path(json, &p, &mut stats).map(|s| s.to_string())
    }

    const RECORD: &str = r#"{"item_id": 1, "item_name": "apple, or \"fruit\"", "nested": {"a": {"b": 9}, "arr": [1,2,3]}, "turnover": 20.5, "flag": true, "nothing": null}"#;

    #[test]
    fn scalars_and_containers_render_like_jackson() {
        assert_eq!(tape_get(RECORD, "$.item_id").unwrap(), "1");
        assert_eq!(
            tape_get(RECORD, "$.item_name").unwrap(),
            "apple, or \"fruit\""
        );
        assert_eq!(tape_get(RECORD, "$.nested.a.b").unwrap(), "9");
        assert_eq!(tape_get(RECORD, "$.nested.a").unwrap(), r#"{"b":9}"#);
        assert_eq!(tape_get(RECORD, "$.nested.arr[1]").unwrap(), "2");
        assert_eq!(tape_get(RECORD, "$.nested.arr").unwrap(), "[1,2,3]");
        assert_eq!(tape_get(RECORD, "$.turnover").unwrap(), "20.5");
        assert_eq!(tape_get(RECORD, "$.flag").unwrap(), "true");
        assert_eq!(tape_get(RECORD, "$.nothing").unwrap(), "null");
        assert_eq!(tape_get(RECORD, "$.zzz"), None);
        assert_eq!(tape_get(RECORD, "$.nested.arr[9]"), None);
    }

    /// The tape must agree with the DOM oracle on every (record, path)
    /// pair, including misses, wildcards, and malformed records.
    #[test]
    fn matches_dom_oracle() {
        let records = [
            RECORD,
            r#"{"a":1}"#,
            r#"{"a":{"b":{"c":[true,false]}},"d":"x:y,{z}"}"#,
            r#"{ "s" : "he said \"hi\"" , "n" : -2.5e3 }"#,
            r#"{"empty":{},"arr":[],"deep":{"x":{"y":{"z":"w"}}}}"#,
            r#"{"items":[{"p":1},{"q":9},{"p":3}]}"#,
            r#"{"k":1,"k":2}"#,
            r#"{"we\"ird": "va\\l", "x": 1}"#,
            r#"[10, {"a": 20}, 30]"#,
            r#""bare string""#,
            "42",
            "null",
            "{broken",
            r#"{"a":1} x"#,
            "",
        ];
        let paths = [
            "$",
            "$.a",
            "$.a.b.c",
            "$.a.b.c[1]",
            "$.d",
            "$.s",
            "$.n",
            "$.empty",
            "$.arr",
            "$.deep.x.y.z",
            "$.items[*].p",
            "$.items[2].p",
            "$.k",
            "$.we\"ird",
            "$[1].a",
            "$[0]",
            "$.x",
        ];
        for rec in records {
            for path in paths {
                let Ok(p) = JsonPath::parse(path) else {
                    continue;
                };
                let dom = crate::get_json_object(rec, &p);
                let mut stats = TapeStats::default();
                let tape = project_path(rec, &p, &mut stats).map(|s| s.to_string());
                assert_eq!(tape, dom, "record={rec} path={path}");
            }
        }
    }

    /// Build must accept/reject exactly the DOM parser's document set.
    #[test]
    fn build_errors_mirror_dom_parser() {
        let cases = [
            "",
            "{",
            "[",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1,}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"abc",
            "{\"a\":1} x",
            "nul",
            "+1",
            "\u{1}",
            "\"a\u{1}b\"",
            r#""\ud83d""#,
            r#""\udc00""#,
            r#""😀""#,
            r#""\uZZZZ""#,
            r#""\q""#,
            "9223372036854775807",
            "92233720368547758080",
            "-0",
            "1e999",
            "5e-324",
            " \t\r\n{ \"a\" : [ 1 , 2 ] }\n ",
            r#"{"k":"a,b:{c}"}"#,
        ];
        for case in cases {
            assert_eq!(
                TapeDoc::build(case).is_err(),
                crate::parse(case).is_err(),
                "accept/reject drift on {case:?}"
            );
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(TapeDoc::build(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(TapeDoc::build(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_are_first_wins() {
        assert_eq!(tape_get(r#"{"k":1,"k":2}"#, "$.k").unwrap(), "1");
        assert_eq!(
            tape_get(r#"{"a":{"k":"x","k":"y"},"k":9}"#, "$.a.k").unwrap(),
            "x"
        );
    }

    #[test]
    fn skip_markers_jump_unqueried_subtrees() {
        let json = r#"{"big":{"x":[1,2,3],"y":{"z":1}},"tail":5}"#;
        let mut stats = TapeStats::default();
        let p = JsonPath::parse("$.tail").unwrap();
        assert_eq!(project_path(json, &p, &mut stats).unwrap().as_ref(), "5");
        // The whole "big" subtree (object + x-key/array/3 numbers +
        // y-key/object/z-key/number) is jumped over, never visited.
        assert!(stats.nodes_skipped >= 8, "got {}", stats.nodes_skipped);

        // Probing the first field skips the tail instead.
        let mut stats2 = TapeStats::default();
        let p2 = JsonPath::parse("$.big.x[0]").unwrap();
        assert_eq!(project_path(json, &p2, &mut stats2).unwrap().as_ref(), "1");
        assert!(stats2.nodes_skipped > 0);
    }

    #[test]
    fn eval_paths_matches_per_path_eval() {
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
            let mut stats = TapeStats::default();
            let shared = project_paths(record, &paths, &mut stats);
            let naive: Vec<Option<Arc<str>>> = paths
                .iter()
                .map(|p| project_path(record, p, &mut TapeStats::default()))
                .collect();
            assert_eq!(shared, naive, "record {record:?}");
        }
    }

    #[test]
    fn tape_layout_invariants_hold() {
        let json = r#"{"a":[1,{"b":2}],"c":{},"d":"s"}"#;
        let tape = TapeDoc::build(json).unwrap();
        let nodes = tape.nodes();
        assert_eq!(nodes[0].kind, NodeKind::Object);
        assert_eq!(nodes[0].skip as usize, nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            assert!(n.skip as usize > i, "skip must advance at entry {i}");
            assert!(n.skip as usize <= nodes.len());
            assert!(n.end > n.start, "non-empty span at entry {i}");
        }
    }

    #[test]
    fn escaped_keys_compare_unescaped() {
        let json = r#"{"we\"ird": 7, "tape": 8}"#;
        assert_eq!(tape_get(json, "$.we\"ird").unwrap(), "7");
        assert_eq!(tape_get(json, "$.tape").unwrap(), "8");
    }
}
