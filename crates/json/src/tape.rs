//! A validating projection walk in the style of On-Demand JSON
//! (Keiser & Lemire, VLDB 2021): one pass over a document's bytes both
//! checks it and finds the value of every wanted path. No tape, and no
//! DOM, is built.
//!
//! Stage 1 is the dispatched [`crate::kernels`] bitmap build. Of its output
//! the walk reads two bitmaps (the colon/bracket index Mison layers on top
//! is never built): the token index, which marks where every token starts
//! — each `{` `}` `[` `]` `:` `,` and string quote outside strings, and the
//! first byte of each scalar — and the escape bitmap, which marks every
//! byte inside a string that is below 0x20 or a backslash. Stage 2,
//! [`project`], walks the tokens once, carrying a [`PathSet`]: the wanted
//! paths compiled into a trie. At an object bound to a trie node, each key is
//! probed against all the names wanted there (a hash probe per key, none
//! once every name is bound); the first occurrence of a name binds it, and
//! its value is walked bound to that name's own trie node. Everything else
//! is walked only to be validated. A bound value is kept as a byte span,
//! and the spans are rendered and handed out only after the whole
//! document has validated, so a document that turns malformed after its
//! last wanted value still answers nothing.
//!
//! `nodes_skipped` counts what evaluating each path on its own would hop
//! over without visiting, on a tape of one entry per value and one per
//! key: the values of the keys a field step probes past, the members after
//! its match, every element but the one an index step wants. The walk sees
//! every value, so it counts each subtree's entries and computes each
//! match's hop from those counts. The counter is surfaced through
//! `ExecMetrics` and EXPLAIN ANALYZE.
//!
//! Stage 2 never scans for a token. It moves from one token to the next by
//! the token bitmap's next set bit (a `trailing_zeros` step, a word at a
//! time), so whitespace costs nothing, and what lies between two tokens is
//! known without looking: whitespace, a string's body (a string ends at
//! the token after its opening quote), or the rest of a scalar's run of
//! bytes. A string body — most of a document's bytes — is looked at only
//! where the escape bitmap has a bit, and not at all when a document has
//! none. A number is checked over its known span, up to eight bytes in one
//! word test, falling back to the per-byte grammar. The bitmaps and the
//! span table are recycled through a per-thread scratch, so a worker that
//! projects one document after another allocates for none of them.
//!
//! The walk accepts exactly the document set the DOM parser
//! ([`crate::parse`]) accepts — same depth limit, number grammar,
//! escape/surrogate rules, and trailing-data rejection — so [`project`]
//! fails iff `parse` fails and the engine's NULL-on-malformed semantics are
//! byte-identical across parser modes. No `String`/`Vec`/`JsonValue` is
//! built for a value no path wants. A wanted leaf is handed out as a `&str`
//! of the input span when it already is its rendering (a string without
//! escapes, most number literals, `true`/`false`/`null`), else rendered
//! into a reused buffer; only a wanted container (or a wildcard step)
//! falls back to DOM-parsing its slice, which keeps rendering
//! byte-identical to the Jackson path.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::error::{JsonError, Result};
use crate::kernels::{self, Bitmaps};
use crate::mison::steps_to_path;
use crate::parser::{Parser, MAX_DEPTH};
use crate::path::{JsonPath, Step};
use crate::value::JsonValue;

/// Work counters of projections.
#[derive(Debug, Default, Clone, Copy)]
pub struct TapeStats {
    /// Entries — one per value and one per key — that evaluating each path
    /// on its own would pass over without visiting: the values of the keys
    /// a field step probes past, the rest of a container once the wanted
    /// child is found, the whole of one that lacks it. Summed over the
    /// paths of every document that validated.
    pub nodes_skipped: u64,
}

/// What one thread's projections hand from one document to the next.
#[derive(Default)]
struct Scratch {
    /// Stage 1's output, dead once the walk returns.
    bitmaps: Bitmaps,
    /// Per [`PathSet`] node, the value bound to it.
    bound: Vec<Binding>,
    /// The last stamp handed out.
    stamp: u32,
    /// An escaped key's unescaped name.
    key: String,
    /// Rendered values that are not a span of the input.
    render: String,
}

impl Scratch {
    /// A stamp no entry of `bound` holds yet.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.bound.fill(Binding::default());
            self.stamp = 1;
        }
        self.stamp
    }
}

/// The value a [`PathSet`] node is bound to, by its byte span; stale unless
/// `stamp` is the running projection's.
#[derive(Debug, Default, Clone, Copy)]
struct Binding {
    stamp: u32,
    start: usize,
    end: usize,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Capacity a recycled buffer may keep (64 Ki bitmap words cover a 4 MiB
/// document): one giant document does not pin its scratch to the thread
/// for good.
const RETAIN: usize = 1 << 16;

/// The one projection: validate `record` and find the value of every path
/// of `set` in one walk over its bytes. Once the whole document has
/// validated, `emit(i, value)` is called for every path `i` of the set
/// that has a value, rendered the way `get_json_object` renders it, and
/// `stats` gets what evaluating each path on its own would count. A
/// malformed document emits and counts nothing: the walk rejects exactly
/// what [`crate::parse`] rejects, with its error (except that a `\u`
/// escape cut short by the closing quote is reported as the end of input).
///
/// The first occurrence of a name binds it (Hive semantics, like
/// `JsonValue::get`), even when its value is a scalar and a longer path
/// wanted an object. Index steps are exact; a wildcard finishes its path
/// with the DOM evaluator on that subtree. `value` borrows the input or a
/// reused buffer: a string without escapes and a number literal that is
/// already its rendering are not copied. Over an empty set the walk only
/// validates.
pub fn project(
    record: &str,
    set: &PathSet,
    stats: &mut TapeStats,
    mut emit: impl FnMut(usize, &str),
) -> Result<()> {
    let mut scratch = SCRATCH.with(RefCell::take);
    kernels::build_bitmaps_into(kernels::active(), record.as_bytes(), &mut scratch.bitmaps);
    if scratch.bound.len() < set.nodes.len() {
        scratch.bound.resize(set.nodes.len(), Binding::default());
    }
    let stamp = scratch.next_stamp();
    let mut walk = Walk {
        input: record,
        bytes: record.as_bytes(),
        tokens: &scratch.bitmaps.tokens,
        at: 0,
        word: 0,
        bits: scratch.bitmaps.tokens.first().copied().unwrap_or(0),
        pos: 0,
        escapes: &scratch.bitmaps.escapes,
        dirty: scratch.bitmaps.escapes.iter().any(|&w| w != 0),
        set,
        bound: &mut scratch.bound,
        stamp,
        key: &mut scratch.key,
        skipped: 0,
    };
    walk.advance();
    let walked = walk.document();
    if walked.is_ok() {
        stats.nodes_skipped += walk.skipped;
        for t in 0..set.nodes.len() {
            let b = scratch.bound[t];
            if b.stamp != stamp || set.nodes[t].first_end == NONE {
                continue;
            }
            let text = &record[b.start..b.end];
            // Rendered once, however many paths end here.
            let rendered = set
                .ends_at(t)
                .any(|end| end.rest.is_none())
                .then(|| render(text, &mut scratch.render));
            for end in set.ends_at(t) {
                match &end.rest {
                    None => emit(end.slot, rendered.expect("rendered above")),
                    Some(rest) => {
                        let doc = crate::parse(text).expect("span validated by the walk");
                        if let Some(value) = rest.eval(&doc) {
                            emit(end.slot, &value.to_hive_string());
                        }
                    }
                }
            }
        }
    }
    if scratch.bitmaps.tokens.capacity() > RETAIN {
        scratch.bitmaps = Bitmaps::default();
    }
    if scratch.render.capacity() > RETAIN {
        scratch.render = String::new();
    }
    SCRATCH.with(|s| s.replace(scratch));
    walked
}

/// Evaluate one path, as [`project`] over a set of that path alone.
/// Invalid documents yield `None`, matching [`crate::get_json_object`].
pub fn project_path(record: &str, path: &JsonPath, stats: &mut TapeStats) -> Option<Arc<str>> {
    project_paths(record, std::slice::from_ref(path), stats).pop()?
}

/// Evaluate many paths in one [`project`] walk: entry `i` answers
/// `paths[i]`. Invalid documents yield all-`None`, matching
/// [`crate::get_json_objects`].
pub fn project_paths(
    record: &str,
    paths: &[JsonPath],
    stats: &mut TapeStats,
) -> Vec<Option<Arc<str>>> {
    let mut out = vec![None; paths.len()];
    // A malformed document emits nothing: every path stays `None`.
    let _ = project(record, &PathSet::new(paths), stats, |i, value| {
        out[i] = Some(Arc::from(value));
    });
    out
}

/// Render the value spanning `text` the way `get_json_object` renders
/// values: strings unescaped and unquoted, scalars in their Hive form,
/// containers re-serialized compactly. A value's kind is its first byte.
/// The result borrows `text` where it is the input's own bytes, and `buf`
/// otherwise.
fn render<'b>(text: &'b str, buf: &'b mut String) -> &'b str {
    match text.as_bytes()[0] {
        b'"' => {
            let inner = &text[1..text.len() - 1];
            if !inner.contains('\\') {
                return inner;
            }
            buf.clear();
            Parser::new(text)
                .parse_string_into(buf)
                .expect("string span validated by the walk");
        }
        // The span is the keyword itself.
        b't' | b'f' | b'n' => return text,
        b'{' | b'[' => {
            buf.clear();
            let v = crate::parse(text).expect("container span validated by the walk");
            crate::serializer::write_value(buf, &v);
        }
        _ if is_hive_rendering(text) => return text,
        _ => {
            buf.clear();
            let JsonValue::Number(n) = Parser::new(text)
                .parse_number()
                .expect("number span validated by the walk")
            else {
                unreachable!("a number literal parses as a number")
            };
            let _ = write!(buf, "{n}");
        }
    }
    buf
}

/// `true` when number literal `text` is already its Hive rendering
/// (`JsonNumber`'s `Display` of the parsed value), so it is copied, not
/// parsed and formatted:
/// * an integer (no fraction or exponent) of at most 18 digits, which
///   fits an `i64`, other than `-0`;
/// * a decimal without an exponent of at most 15 digits, whose fraction
///   is `0` or does not end in `0`, other than `-0.0`. Fifteen digits
///   survive the trip through an `f64`, so the shortest digits that
///   print the parsed value are the literal's own, and a fraction of `0`
///   prints as the `{:.1}` of an integral value below 10^15.
///
/// The grammar already rules out leading zeros.
fn is_hive_rendering(text: &str) -> bool {
    let unsigned = text.strip_prefix('-').unwrap_or(text);
    let (int, frac) = match unsigned.split_once('.') {
        Some((int, frac)) => (int, Some(frac)),
        None => (unsigned, None),
    };
    let digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
    match frac {
        None => int.len() <= 18 && digits(int) && text != "-0",
        Some(frac) => {
            int.len() + frac.len() <= 15
                && digits(frac)
                && (frac == "0" || !frac.ends_with('0'))
                && text != "-0.0"
        }
    }
}

/// End of a sibling or end list.
const NONE: u32 = u32::MAX;

/// How a [`PathSet`] node is reached from its parent.
#[derive(Debug, Clone, Copy)]
enum Edge {
    /// The root, `$`.
    Root,
    /// `.name`, the name being `PathSet::names[start..start + len]`.
    Field { start: u32, len: u32 },
    /// `[n]`.
    Index(usize),
}

/// One node of a [`PathSet`]: a step some wanted path takes.
#[derive(Debug, Clone)]
struct TrieNode {
    edge: Edge,
    /// Children, as a list through `next_sibling`.
    first_child: u32,
    next_sibling: u32,
    /// Paths ending here, as a list through [`PathEnd::next`].
    first_end: u32,
    /// Paths ending in this node's subtree, its own included.
    below: u64,
    /// Children reached by a field step.
    fields: u32,
    /// Paths ending in the subtrees of the field children.
    field_below: u64,
    /// Paths ending in the subtrees of the index children.
    index_below: u64,
    /// One past the largest index child's index (0 without index children).
    index_end: usize,
    /// Bit `min(len, 63)` set for the name length of every field child:
    /// many keys of an object are rejected on their length alone.
    field_lens: u64,
    /// The field children's open-addressing table:
    /// `PathSet::table[table..table + table_mask + 1]`.
    table: u32,
    table_mask: u32,
}

impl TrieNode {
    fn new(edge: Edge) -> Self {
        TrieNode {
            edge,
            first_child: NONE,
            next_sibling: NONE,
            first_end: NONE,
            below: 0,
            fields: 0,
            field_below: 0,
            index_below: 0,
            index_end: 0,
            field_lens: 0,
            table: 0,
            table_mask: 0,
        }
    }
}

/// A wanted path that ends at a [`PathSet`] node.
#[derive(Debug, Clone)]
struct PathEnd {
    /// The path's index in the set.
    slot: usize,
    next: u32,
    /// From a wildcard on, the rest of the path, which the DOM evaluates
    /// on the node's subtree.
    rest: Option<JsonPath>,
}

/// A list of JSONPaths compiled into a trie for [`project`]: each
/// node is one field or index step and knows which paths end there, so
/// one walk over a document answers every path. Paths sharing a prefix
/// share its nodes; a path listed twice ends twice at the same node.
#[derive(Debug, Clone)]
pub struct PathSet {
    /// Node 0 is the root, `$`; a parent comes before its children.
    nodes: Vec<TrieNode>,
    ends: Vec<PathEnd>,
    /// The field names of every field edge, back to back.
    names: String,
    /// Every node's field-child table, back to back: `(name hash, child)`
    /// slots, a child's found from its name's [`name_hash`] by linear
    /// probing; empty slots hold child [`NONE`].
    table: Vec<(u32, u32)>,
}

impl PathSet {
    /// Compile `paths`; entry `i` of a projection answers `paths[i]`.
    pub fn new(paths: &[JsonPath]) -> PathSet {
        let steps: usize = paths.iter().map(JsonPath::len).sum();
        let name_bytes = paths
            .iter()
            .flat_map(JsonPath::steps)
            .map(|step| match step {
                Step::Field(name) => name.len(),
                _ => 0,
            })
            .sum();
        let mut set = PathSet {
            nodes: Vec::with_capacity(1 + steps),
            ends: Vec::with_capacity(paths.len()),
            names: String::with_capacity(name_bytes),
            table: Vec::new(),
        };
        set.nodes.push(TrieNode::new(Edge::Root));
        for (slot, path) in paths.iter().enumerate() {
            let mut node = 0;
            set.nodes[0].below += 1;
            let mut rest = None;
            for (si, step) in path.steps().iter().enumerate() {
                node = match step {
                    Step::Field(name) => set.child(node, Some(name), 0),
                    Step::Index(i) => set.child(node, None, *i),
                    Step::Wildcard => {
                        rest = Some(steps_to_path(&path.steps()[si..]));
                        break;
                    }
                };
                set.nodes[node].below += 1;
            }
            set.ends.push(PathEnd {
                slot,
                next: set.nodes[node].first_end,
                rest,
            });
            set.nodes[node].first_end = (set.ends.len() - 1) as u32;
        }
        let table_size = |n: &TrieNode| match n.fields {
            0 => 0,
            fields => (2 * fields as usize).next_power_of_two(),
        };
        set.table = vec![(0, NONE); set.nodes.iter().map(table_size).sum()];
        let mut start = 0;
        for node in 0..set.nodes.len() {
            let size = table_size(&set.nodes[node]);
            set.nodes[node].table = start as u32;
            set.nodes[node].table_mask = size.saturating_sub(1) as u32;
            let mut child = set.nodes[node].first_child;
            while child != NONE {
                let (edge, below, next) = {
                    let c = &set.nodes[child as usize];
                    (c.edge, c.below, c.next_sibling)
                };
                if let Some(name) = set.name(edge) {
                    let hash = name_hash(name.as_bytes());
                    let mut at = hash as usize;
                    while set.table[start + (at & (size - 1))].1 != NONE {
                        at += 1;
                    }
                    set.table[start + (at & (size - 1))] = (hash, child);
                }
                let n = &mut set.nodes[node];
                match edge {
                    Edge::Index(i) => {
                        n.index_below += below;
                        n.index_end = n.index_end.max(i + 1);
                    }
                    _ => n.field_below += below,
                }
                child = next;
            }
            start += size;
        }
        set
    }

    fn name(&self, edge: Edge) -> Option<&str> {
        match edge {
            Edge::Field { start, len } => Some(&self.names[start as usize..(start + len) as usize]),
            _ => None,
        }
    }

    /// The paths ending at `node`.
    fn ends_at(&self, node: usize) -> impl Iterator<Item = &PathEnd> + '_ {
        let mut e = self.nodes[node].first_end;
        std::iter::from_fn(move || {
            let end = self.ends.get(e as usize)?;
            e = end.next;
            Some(end)
        })
    }

    fn children(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let mut next = self.nodes[node].first_child;
        std::iter::from_fn(move || {
            let child = (next != NONE).then_some(next as usize)?;
            next = self.nodes[child].next_sibling;
            Some(child)
        })
    }

    /// The child of `parent` reached by field `name` (or, without a name,
    /// by index `index`), added if it is new.
    fn child(&mut self, parent: usize, name: Option<&str>, index: usize) -> usize {
        let found = self
            .children(parent)
            .find(|&c| match (self.nodes[c].edge, name) {
                (Edge::Index(i), None) => i == index,
                (edge @ Edge::Field { len, .. }, Some(name)) => {
                    len as usize == name.len() && self.name(edge) == Some(name)
                }
                _ => false,
            });
        if let Some(child) = found {
            return child;
        }
        let edge = match name {
            Some(name) => {
                let start = self.names.len() as u32;
                self.names.push_str(name);
                let p = &mut self.nodes[parent];
                p.fields += 1;
                p.field_lens |= 1 << name.len().min(63);
                Edge::Field {
                    start,
                    len: name.len() as u32,
                }
            }
            None => Edge::Index(index),
        };
        let child = self.nodes.len();
        self.nodes.push(TrieNode {
            next_sibling: self.nodes[parent].first_child,
            ..TrieNode::new(edge)
        });
        self.nodes[parent].first_child = child as u32;
        child
    }

    /// The child of `node` reached by index `index`, or [`NONE`].
    fn index(&self, node: usize, index: usize) -> u32 {
        self.children(node)
            .find(|&c| matches!(self.nodes[c].edge, Edge::Index(i) if i == index))
            .map_or(NONE, |c| c as u32)
    }

    /// The field child of `node` named `name`.
    fn field(&self, node: usize, name: &[u8]) -> Option<usize> {
        let n = &self.nodes[node];
        if n.field_lens & 1 << name.len().min(63) == 0 {
            return None;
        }
        let hash = name_hash(name);
        let mut at = hash;
        loop {
            let (slot_hash, child) = self.table[(n.table + (at & n.table_mask)) as usize];
            if child == NONE {
                return None;
            }
            if slot_hash == hash {
                let Edge::Field { start, len } = self.nodes[child as usize].edge else {
                    unreachable!("field tables hold field children")
                };
                if &self.names.as_bytes()[start as usize..(start + len) as usize] == name {
                    return Some(child as usize);
                }
            }
            at = at.wrapping_add(1);
        }
    }
}

/// A field name's hash (the Fx word step over its bytes and length), in
/// the bits a power-of-two table indexes with.
fn name_hash(name: &[u8]) -> u32 {
    let mut h = name.len() as u64;
    for word in name.chunks(8) {
        let w = word.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    (h >> 32) as u32
}

/// The first set bit of `words` in `from..end`.
fn next_bit(words: &[u64], from: usize, end: usize) -> Option<usize> {
    if from >= end {
        return None;
    }
    let mut w = from / 64;
    let mut m = words[w] & (u64::MAX << (from % 64));
    while m == 0 {
        w += 1;
        if w * 64 >= end {
            return None;
        }
        m = words[w];
    }
    Some(w * 64 + m.trailing_zeros() as usize).filter(|&bit| bit < end)
}

/// `UnexpectedChar` at `offset`.
fn unexpected(offset: usize, found: Option<u8>, expected: &'static str) -> JsonError {
    JsonError::UnexpectedChar {
        offset,
        found,
        expected,
    }
}

/// One [`project`] call's stage-2 walk: mirrors the DOM parser's control
/// flow token for token (same depth accounting, same grammar checks, same
/// errors), but reads where each token starts — and where each string
/// ends — from stage 1's token index instead of scanning for it, and binds
/// every value a path of the set reaches to that path's trie node.
struct Walk<'a> {
    input: &'a str,
    bytes: &'a [u8],
    /// Stage 1's token bitmap ([`Bitmaps::tokens`]).
    tokens: &'a [u64],
    /// The next token's offset, the input's length once none is left.
    at: usize,
    /// The word of `tokens` holding `at`, and its bits after `at`.
    word: usize,
    bits: u64,
    /// Where the last token consumed ends.
    pos: usize,
    escapes: &'a [u64],
    /// Some string body holds an escape-class byte: without one, no body
    /// needs a look.
    dirty: bool,
    set: &'a PathSet,
    bound: &'a mut [Binding],
    stamp: u32,
    key: &'a mut String,
    /// The set's `nodes_skipped` so far.
    skipped: u64,
}

impl Walk<'_> {
    fn document(&mut self) -> Result<()> {
        self.value(0, 0)?;
        match self.peek() {
            (_, None) => Ok(()),
            (offset, Some(_)) => Err(JsonError::TrailingData { offset }),
        }
    }

    /// The next token's offset and first byte (`None` at the end of the
    /// input). Between the end of the last token and the next indexed
    /// offset lies only whitespace — unless the last token was a scalar
    /// whose grammar stopped inside its run of bytes, and then the rest of
    /// the run is the next token, which no grammar rule accepts.
    #[inline(always)]
    fn peek(&self) -> (usize, Option<u8>) {
        let at = self.at;
        if self.pos != at && !matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            return (self.pos, Some(self.bytes[self.pos]));
        }
        (at, self.bytes.get(at).copied())
    }

    /// Move `at` to the next token.
    #[inline(always)]
    fn advance(&mut self) {
        while self.bits == 0 {
            self.word += 1;
            match self.tokens.get(self.word) {
                Some(&bits) => self.bits = bits,
                None => {
                    self.at = self.bytes.len();
                    return;
                }
            }
        }
        self.at = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
    }

    /// Consume the one-byte token at `at`, the next indexed one.
    #[inline(always)]
    fn step(&mut self, at: usize) {
        self.pos = at + 1;
        self.advance();
    }

    /// Walk one value bound to set node `t` (or to none, [`NONE`]) and
    /// return the entries of its subtree: one per value and one per key.
    #[inline(always)]
    fn value(&mut self, depth: usize, t: u32) -> Result<u64> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep { limit: MAX_DEPTH });
        }
        let (start, found) = self.peek();
        let entries = match found {
            Some(b'{') => self.object(start, depth, t)?,
            Some(b'[') => self.array(start, depth, t)?,
            Some(b'"') => self.string(start).map(|_| 1)?,
            Some(b't') => self.keyword(start, "true").map(|()| 1)?,
            Some(b'f') => self.keyword(start, "false").map(|()| 1)?,
            Some(b'n') => self.keyword(start, "null").map(|()| 1)?,
            Some(b'-' | b'0'..=b'9') => self.number(start).map(|()| 1)?,
            found => return Err(unexpected(start, found, "a JSON value")),
        };
        if t != NONE {
            self.bound[t as usize] = Binding {
                stamp: self.stamp,
                start,
                end: self.pos,
            };
        }
        Ok(entries)
    }

    fn keyword(&mut self, start: usize, kw: &'static str) -> Result<()> {
        let end = start + kw.len();
        if self.bytes.get(start..end) != Some(kw.as_bytes()) {
            return Err(unexpected(
                start,
                Some(self.bytes[start]),
                "a JSON keyword (true/false/null)",
            ));
        }
        self.pos = end;
        self.advance();
        Ok(())
    }

    /// Walk the object opening at `start`, bound to set node `t`. Each key
    /// is probed against `t`'s field children until all are bound; the
    /// first occurrence of a wanted name walks its value bound to that
    /// child.
    #[inline(never)]
    fn object(&mut self, start: usize, depth: usize, t: u32) -> Result<u64> {
        self.step(start);
        if let (at, Some(b'}')) = self.peek() {
            self.step(at);
            return Ok(1);
        }
        let set = self.set;
        let wanted = match t {
            NONE => 0,
            t => set.nodes[t as usize].fields,
        };
        let (mut entries, mut members, mut bound) = (1u64, 0u64, 0u32);
        // Over the bound names: what each one's hop leaves out (the keys
        // before it, its own key and value), times the paths below it.
        let (mut kept, mut bound_below) = (0u64, 0u64);
        loop {
            let key = match self.peek() {
                (key, Some(b'"')) => key,
                (offset, found) => return Err(unexpected(offset, found, "'\"'")),
            };
            let escaped = self.string(key)?;
            let child = match bound < wanted {
                true => self.probe(t, key, escaped),
                false => NONE,
            };
            match self.peek() {
                (at, Some(b':')) => self.step(at),
                (offset, found) => return Err(unexpected(offset, found, "':'")),
            }
            let size = self.value(depth + 1, child)?;
            if child != NONE {
                let below = set.nodes[child as usize].below;
                bound += 1;
                kept += (members + 1 + size) * below;
                bound_below += below;
            }
            members += 1;
            entries += 1 + size;
            match self.peek() {
                (at, Some(b',')) => self.step(at),
                (at, Some(b'}')) => {
                    self.step(at);
                    break;
                }
                (offset, found) => return Err(unexpected(offset, found, "',' or '}'")),
            }
        }
        if wanted > 0 {
            // On its own, a bound name's lookup hops every entry of the
            // object but the keys before it and its own member; an unbound
            // name's hops every value.
            let below = set.nodes[t as usize].field_below;
            self.skipped += (entries - 1) * below - kept - members * (below - bound_below);
        }
        Ok(entries)
    }

    /// The field child of set node `t` named by the key token from `start`
    /// to here (`escaped` when its body holds an escape), unless an
    /// earlier key of the object bound it already.
    fn probe(&mut self, t: u32, start: usize, escaped: bool) -> u32 {
        let quoted = &self.input[start..self.pos];
        let name = if escaped {
            self.key.clear();
            Parser::new(quoted)
                .parse_string_into(self.key)
                .expect("key validated by the walk");
            self.key.as_bytes()
        } else {
            &quoted.as_bytes()[1..quoted.len() - 1]
        };
        match self.set.field(t as usize, name) {
            Some(c) if self.bound[c].stamp != self.stamp => c as u32,
            _ => NONE,
        }
    }

    /// Walk the array opening at `start`, bound to set node `t`; the
    /// element at each of `t`'s index children is walked bound to that
    /// child.
    #[inline(never)]
    fn array(&mut self, start: usize, depth: usize, t: u32) -> Result<u64> {
        self.step(start);
        if let (at, Some(b']')) = self.peek() {
            self.step(at);
            return Ok(1);
        }
        let set = self.set;
        let index_end = match t {
            NONE => 0,
            t => set.nodes[t as usize].index_end,
        };
        let (mut entries, mut i) = (1u64, 0usize);
        // Over the elements found: their entries times the paths below.
        let mut kept = 0u64;
        loop {
            let child = match i < index_end {
                true => set.index(t as usize, i),
                false => NONE,
            };
            let size = self.value(depth + 1, child)?;
            if child != NONE {
                kept += size * set.nodes[child as usize].below;
            }
            entries += size;
            i += 1;
            match self.peek() {
                (at, Some(b',')) => self.step(at),
                (at, Some(b']')) => {
                    self.step(at);
                    break;
                }
                (offset, found) => return Err(unexpected(offset, found, "',' or ']'")),
            }
        }
        if index_end > 0 {
            // On its own, an index step hops every element but its own; a
            // missing one hops them all.
            self.skipped += (entries - 1) * set.nodes[t as usize].index_below - kept;
        }
        Ok(entries)
    }

    /// Consume the string token whose opening quote is at `start`, and
    /// return whether its body holds an escape. The closing quote is the
    /// next indexed offset; the body is validated against the DOM parser's
    /// escape/surrogate/control rules without materializing the unescaped
    /// text, looking only at the bytes stage 1 put in the escape class
    /// (below 0x20, or a backslash): what lies between them is valid.
    #[inline(always)]
    fn string(&mut self, start: usize) -> Result<bool> {
        self.advance();
        let close = self.at;
        if close == self.bytes.len() {
            return Err(JsonError::UnexpectedEof { context: "string" });
        }
        let mut escaped = false;
        if self.dirty {
            let mut pos = start + 1;
            while let Some(hit) = next_bit(self.escapes, pos, close) {
                pos = self.escape_class_byte(hit, close)?;
                escaped = true;
            }
        }
        self.pos = close + 1;
        self.advance();
        Ok(escaped)
    }

    /// Check the escape-class byte at `pos` of a string body ending at
    /// `end`, the closing quote: a backslash must begin a valid escape (a
    /// `\u` one may run past `pos`, never past `end`), and a byte below
    /// 0x20 is an error. Returns where the next byte to check starts.
    fn escape_class_byte(&self, mut pos: usize, end: usize) -> Result<usize> {
        if self.bytes[pos] != b'\\' {
            return Err(JsonError::InvalidString {
                offset: pos,
                reason: "raw control character",
            });
        }
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
                    // High surrogate: requires an immediate \uXXXX low
                    // surrogate.
                    if pos + 1 < end && self.bytes[pos] == b'\\' && self.bytes[pos + 1] == b'u' {
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

    /// Consume the number token at `start`, enforcing the DOM parser's
    /// grammar (no leading zeros, no bare `.`/exponent). Conversion is
    /// deferred to rendering: every grammar-valid JSON number parses as
    /// `f64`.
    fn number(&mut self, start: usize) -> Result<()> {
        self.advance();
        // Up to the next token: the number's run, then any whitespace.
        if short_plain_number(self.bytes, start, self.at) {
            self.pos = self.at;
            return Ok(());
        }
        let bytes = self.bytes;
        let at = |i: usize| bytes.get(i).copied();
        let digits = |mut i: usize| {
            while matches!(at(i), Some(b'0'..=b'9')) {
                i += 1;
            }
            i
        };
        let mut pos = start + usize::from(at(start) == Some(b'-'));
        pos = match at(pos) {
            Some(b'0') => pos + 1,
            Some(b'1'..=b'9') => digits(pos + 1),
            _ => return Err(JsonError::InvalidNumber { offset: start }),
        };
        if at(pos) == Some(b'.') {
            if !matches!(at(pos + 1), Some(b'0'..=b'9')) {
                return Err(JsonError::InvalidNumber { offset: start });
            }
            pos = digits(pos + 1);
        }
        if matches!(at(pos), Some(b'e' | b'E')) {
            pos += 1 + usize::from(matches!(at(pos + 1), Some(b'+' | b'-')));
            if !matches!(at(pos), Some(b'0'..=b'9')) {
                return Err(JsonError::InvalidNumber { offset: start });
            }
            pos = digits(pos);
        }
        self.pos = pos;
        Ok(())
    }
}

/// `true` when `bytes[start..end]` is, all of it, a number literal without
/// sign or exponent of at most eight bytes — digits, or digits, a point and
/// digits, without a leading zero — checked a word at a time. Anything
/// else is left to the per-byte grammar. Every number of the ten workload
/// tables takes this test, and serial validate-only over them is ≈ 7 %
/// slower through the grammar alone (EXPERIMENTS row 23).
fn short_plain_number(bytes: &[u8], start: usize, end: usize) -> bool {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let len = end - start;
    let Some(word) = bytes.get(start..start + 8) else {
        return false;
    };
    if len > 8 {
        return false;
    }
    let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
    // Bit 7 of a byte is set where the byte is not a digit: `x` is below
    // 10 exactly for the digits, and adding 0x76 to its low seven bits
    // carries into bit 7 from 10 on, never into the next byte.
    let x = w ^ (LO * u64::from(b'0'));
    let odd = ((x & (LO * 0x7F)).wrapping_add(LO * 0x76) | x) & HI & (u64::MAX >> (64 - 8 * len));
    let leading_zero = w as u8 == b'0';
    if odd == 0 {
        return len == 1 || !leading_zero;
    }
    // One point, with digits on both sides.
    let p = odd.trailing_zeros() as usize / 8;
    odd & (odd - 1) == 0
        && bytes[start + p] == b'.'
        && p >= 1
        && p + 1 < len
        && (p == 1 || !leading_zero)
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

    /// The walk over no paths, which only validates.
    fn validate(json: &str) -> Result<()> {
        project(
            json,
            &PathSet::new(&[]),
            &mut TapeStats::default(),
            |_, _| {},
        )
    }

    /// The walk must accept/reject exactly the DOM parser's document set,
    /// with the DOM parser's error.
    #[test]
    fn walk_errors_mirror_dom_parser() {
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
                validate(case).err(),
                crate::parse(case).err(),
                "accept/reject drift on {case:?}"
            );
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(
            validate(&deep),
            Err(JsonError::TooDeep { limit: MAX_DEPTH })
        );
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(validate(&ok).is_ok());
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
        // y-key/object/z-key/number) is what a lookup of "tail" hops.
        assert!(stats.nodes_skipped >= 8, "got {}", stats.nodes_skipped);

        // Probing the first field skips the tail instead.
        let mut stats2 = TapeStats::default();
        let p2 = JsonPath::parse("$.big.x[0]").unwrap();
        assert_eq!(project_path(json, &p2, &mut stats2).unwrap().as_ref(), "1");
        assert!(stats2.nodes_skipped > 0);
    }

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
            let mut stats = TapeStats::default();
            let shared = project_paths(record, &paths, &mut stats);
            let naive: Vec<Option<Arc<str>>> = paths
                .iter()
                .map(|p| project_path(record, p, &mut TapeStats::default()))
                .collect();
            assert_eq!(shared, naive, "record {record:?}");
        }
    }

    /// Every literal the renderer copies is what parsing and formatting
    /// it would give, and the ones it must not copy are formatted.
    #[test]
    fn number_literals_copied_only_when_they_are_their_rendering() {
        let format = |text: &str| match Parser::new(text).parse_number().unwrap() {
            JsonValue::Number(n) => n.to_string(),
            _ => unreachable!(),
        };
        let mut literals: Vec<String> = [
            "0",
            "-0",
            "7",
            "-7",
            "123456789012345678",
            "-123456789012345678",
            "1234567890123456789",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "0.0",
            "-0.0",
            "3.0",
            "3.00",
            "3.10",
            "1.50",
            "0.1",
            "0.001",
            "-12.25",
            "12.25",
            "1e2",
            "1E2",
            "1.5e3",
            "-0.5",
            "99999999999999.0",
            "999999999999999.0",
            "1000000000000000.0",
            "0.30000000000000004",
            "0.123456789012345",
            "0.1234567890123456",
            "5e-324",
            "1e999",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let int = x % 10u64.pow((x >> 60) as u32 % 16);
            let frac_digits = (x >> 40) as usize % 9;
            let frac = format!(
                "{:0width$}",
                (x >> 8) % 10u64.pow(frac_digits as u32),
                width = frac_digits
            );
            let sign = if x & 1 == 1 { "-" } else { "" };
            literals.push(match frac_digits {
                0 => format!("{sign}{int}"),
                _ => format!("{sign}{int}.{frac}"),
            });
        }
        let mut copied = 0;
        for text in &literals {
            if is_hive_rendering(text) {
                assert_eq!(format(text), *text, "copied {text} is not its rendering");
                copied += 1;
            }
        }
        assert!(copied > 10_000, "only {copied} literals took the copy");
        for text in [
            "-0",
            "-0.0",
            "3.00",
            "1.50",
            "1e2",
            "9223372036854775808",
            "1000000000000000.0",
        ] {
            assert!(!is_hive_rendering(text), "{text} must be formatted");
        }
    }

    /// The word test takes a span only where the per-byte grammar takes
    /// all of it, and the walk agrees with the DOM parser either way.
    #[test]
    fn short_plain_numbers_agree_with_the_grammar() {
        let alphabet = b"0159.-eE+ x";
        let mut texts: Vec<String> = vec![String::new()];
        for _ in 0..4 {
            let longer: Vec<String> = (texts.iter())
                .flat_map(|t| alphabet.iter().map(move |&b| format!("{t}{}", b as char)))
                .collect();
            texts.extend(longer);
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = 5 + (x % 5) as usize;
            let text: String = (0..len)
                .map(|i| b"0123456789."[(x >> (4 * i)) as usize % 11] as char)
                .collect();
            texts.push(text);
        }
        let mut taken = 0;
        for text in texts.iter().filter(|t| !t.is_empty()) {
            // Eight readable bytes from the start, as inside a document.
            let padded = format!("{text}]        ");
            if short_plain_number(padded.as_bytes(), 0, text.len()) {
                assert!(crate::parse(text).is_ok(), "{text:?} taken");
                taken += 1;
            }
            assert_eq!(validate(text), crate::parse(text).map(|_| ()), "{text:?}");
            let array = format!("[{text}]");
            assert_eq!(
                validate(&array),
                crate::parse(&array).map(|_| ()),
                "{array:?}"
            );
        }
        assert!(taken > 1_000, "only {taken} spans took the word test");
        for text in ["0", "7", "12345", "12.25", "0.5", "99999999", "1234.567"] {
            let padded = format!("{text}]        ");
            assert!(
                short_plain_number(padded.as_bytes(), 0, text.len()),
                "{text}"
            );
        }
        for text in [
            "01",
            "1.",
            "00.5",
            "01.5",
            "1.2.3",
            "-1",
            "1e5",
            "123456789",
        ] {
            let padded = format!("{text}]        ");
            assert!(
                !short_plain_number(padded.as_bytes(), 0, text.len()),
                "{text}"
            );
        }
    }

    #[test]
    fn escaped_keys_compare_unescaped() {
        let json = r#"{"we\"ird": 7, "tape": 8}"#;
        assert_eq!(tape_get(json, "$.we\"ird").unwrap(), "7");
        assert_eq!(tape_get(json, "$.tape").unwrap(), "8");
    }
}
