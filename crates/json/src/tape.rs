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
//! Every path query is one **projection pass** ([`TapeDoc::project`]): the
//! wanted paths are compiled into a trie ([`PathSet`]), and each object on
//! the way is scanned once, key by key in document order, against all the
//! names wanted at that level (a hash probe per key) — not once per path.
//! The first occurrence of a name binds it; a level stops scanning once
//! every name it wants is bound. `nodes_skipped` still counts what each
//! path would hop on its own, computed from each match's position.
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
//! is built for any node the query never touches. A queried leaf is handed
//! out as a `&str` of the input span when it already is its rendering (a
//! string without escapes, most number literals, `true`/`false`/`null`),
//! else rendered into a reused buffer; only a queried container (or a
//! wildcard step) falls back to DOM-parsing its slice, which keeps
//! rendering byte-identical to the Jackson path.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::error::{JsonError, Result};
use crate::kernels::{self, Bitmaps};
use crate::mison::{steps_to_path, StructuralIndex};
use crate::parser::{Parser, MAX_DEPTH};
use crate::path::{JsonPath, Step};
use crate::value::JsonValue;

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

/// A built tape over one record. Borrows the input; a projection hands
/// out each queried value as a `&str`, which the caller copies once.
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
        self.eval_paths(std::slice::from_ref(path), stats).pop()?
    }

    /// Evaluate many paths off this one tape (the tape-mode half of
    /// intra-query shared parsing). Entry `i` answers `paths[i]`, exactly
    /// as [`Self::eval_path`] would.
    pub fn eval_paths(&self, paths: &[JsonPath], stats: &mut TapeStats) -> Vec<Option<Arc<str>>> {
        self.eval_set(&PathSet::new(paths), stats)
    }

    /// [`Self::eval_paths`] over paths compiled once: entry `i` answers
    /// the set's path `i`.
    pub fn eval_set(&self, set: &PathSet, stats: &mut TapeStats) -> Vec<Option<Arc<str>>> {
        let mut out = vec![None; set.len()];
        self.project(set, stats, |slot, value| out[slot] = Some(Arc::from(value)));
        out
    }

    /// The one projection pass: walk the tape once against `set`, calling
    /// `emit(i, value)` for every path `i` of the set that has a value,
    /// rendered the way `get_json_object` renders it. A path without a
    /// value is not emitted.
    ///
    /// Each object on the way is scanned once, in document order, for all
    /// the names wanted there; the first occurrence of a name wins (Hive
    /// semantics, like `JsonValue::get`), even when its value is a scalar
    /// and a longer path wanted an object, and the scan stops once every
    /// wanted name is bound. Index steps hop to their element; a wildcard
    /// finishes its path with the DOM evaluator on that subtree. `value`
    /// borrows the input or a reused buffer: a string without escapes and
    /// an integer literal that is already its rendering are not copied.
    /// `stats` gets what evaluating each path on its own would count.
    pub fn project(&self, set: &PathSet, stats: &mut TapeStats, emit: impl FnMut(usize, &str)) {
        let mut scratch = PROJECTION.with(RefCell::take);
        if scratch.seen.len() < set.nodes.len() {
            scratch.seen.resize(set.nodes.len(), 0);
        }
        let mut walk = Walk {
            tape: self,
            set,
            scratch: &mut scratch,
            stats,
            emit,
        };
        walk.visit(0, 0, 0);
        if scratch.render.capacity() <= RETAIN {
            PROJECTION.with(|p| p.replace(scratch));
        }
    }

    fn span(&self, node: usize) -> &'a str {
        let n = &self.nodes[node];
        &self.input[n.start as usize..n.end as usize]
    }

    /// The name of key entry `key`: its span without the quotes, or for a
    /// key holding an escape the unescaped text, written into `buf`.
    fn key_name<'b>(&'b self, key: &TapeNode, buf: &'b mut String) -> &'b [u8] {
        let raw = &self.input.as_bytes()[key.start as usize + 1..key.end as usize - 1];
        if !raw.contains(&b'\\') {
            return raw;
        }
        buf.clear();
        let quoted = &self.input[key.start as usize..key.end as usize];
        Parser::new(quoted)
            .parse_string_into(buf)
            .expect("key span validated at build");
        buf.as_bytes()
    }

    /// Render one entry the way `get_json_object` renders values: strings
    /// unescaped and unquoted, scalars in their Hive form, containers
    /// re-serialized compactly. The result borrows the input where it is
    /// the input's own bytes, and `buf` otherwise.
    fn render<'b>(&'b self, node: usize, buf: &'b mut String) -> &'b str {
        let text = self.span(node);
        match self.nodes[node].kind {
            NodeKind::String => {
                let inner = &text[1..text.len() - 1];
                if !inner.contains('\\') {
                    return inner;
                }
                buf.clear();
                Parser::new(text)
                    .parse_string_into(buf)
                    .expect("string span validated at build");
            }
            NodeKind::Number if is_hive_rendering(text) => return text,
            NodeKind::Number => {
                buf.clear();
                let JsonValue::Number(n) = Parser::new(text)
                    .parse_number()
                    .expect("number span validated at build")
                else {
                    unreachable!("a number literal parses as a number")
                };
                let _ = write!(buf, "{n}");
            }
            // The span is the keyword itself.
            NodeKind::True | NodeKind::False | NodeKind::Null => return text,
            NodeKind::Object | NodeKind::Array => {
                buf.clear();
                let v = crate::parse(text).expect("container span validated at build");
                crate::serializer::write_value(buf, &v);
            }
            NodeKind::Key => unreachable!("keys are never rendered as values"),
        }
        buf
    }
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

/// A list of JSONPaths compiled into a trie for [`TapeDoc::project`]: each
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
                let c = &set.nodes[child as usize];
                if let Some(name) = set.name(c.edge) {
                    let hash = name_hash(name.as_bytes());
                    let mut at = hash as usize;
                    while set.table[start + (at & (size - 1))].1 != NONE {
                        at += 1;
                    }
                    set.table[start + (at & (size - 1))] = (hash, child);
                }
                child = c.next_sibling;
            }
            start += size;
        }
        set
    }

    /// Number of paths in the set.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` for a set of no paths.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn name(&self, edge: Edge) -> Option<&str> {
        match edge {
            Edge::Field { start, len } => Some(&self.names[start as usize..(start + len) as usize]),
            _ => None,
        }
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

/// What one thread's projections hand from one document to the next.
#[derive(Default)]
struct Projection {
    /// Rendered values that are not a span of the input.
    render: String,
    /// An escaped key's unescaped name.
    key: String,
    /// Per set node, the stamp of the object scan that bound it.
    seen: Vec<u32>,
    /// The last stamp handed out.
    stamp: u32,
}

impl Projection {
    /// A stamp no node of `seen` holds yet.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.stamp
    }
}

thread_local! {
    static PROJECTION: RefCell<Projection> = RefCell::new(Projection::default());
}

/// One [`TapeDoc::project`] call in progress.
struct Walk<'w, 'a, F> {
    tape: &'w TapeDoc<'a>,
    set: &'w PathSet,
    scratch: &'w mut Projection,
    stats: &'w mut TapeStats,
    emit: F,
}

impl<F: FnMut(usize, &str)> Walk<'_, '_, F> {
    /// Set node `t` is bound to tape entry `v`; evaluating each path
    /// through `t` on its own would so far have skipped `acc` entries.
    fn visit(&mut self, t: usize, v: usize, acc: u64) {
        let (tape, set) = (self.tape, self.set);
        let ends = || {
            let mut e = set.nodes[t].first_end;
            std::iter::from_fn(move || {
                let end = set.ends.get(e as usize)?;
                e = end.next;
                Some(end)
            })
        };
        // Rendered once, however many paths end here.
        let rendered = ends()
            .any(|end| end.rest.is_none())
            .then(|| tape.render(v, &mut self.scratch.render));
        for end in ends() {
            self.stats.nodes_skipped += acc;
            match &end.rest {
                None => (self.emit)(end.slot, rendered.expect("rendered above")),
                Some(rest) => {
                    if let Some(value) = crate::parse(tape.span(v))
                        .ok()
                        .and_then(|doc| rest.eval(&doc).map(|v| v.to_hive_string()))
                    {
                        (self.emit)(end.slot, &value);
                    }
                }
            }
        }
        if set.nodes[t].first_child == NONE {
            return;
        }
        match tape.nodes[v].kind {
            NodeKind::Object => self.object(t, v, acc),
            NodeKind::Array => self.array(t, v, acc),
            // No step goes on from a scalar: each path through a child
            // stops here.
            _ => {
                for c in set.children(t) {
                    self.stats.nodes_skipped += acc * set.nodes[c].below;
                }
            }
        }
    }

    /// Scan object `v`'s keys once for the field children of `t`.
    fn object(&mut self, t: usize, v: usize, acc: u64) {
        let (tape, set) = (self.tape, self.set);
        let end = tape.nodes[v].skip as usize;
        let wanted = set.nodes[t].fields;
        let stamp = self.scratch.next_stamp();
        let (mut bound, mut keys) = (0, 0usize);
        let mut k = v + 1;
        while bound < wanted && k < end {
            let key = tape.nodes[k];
            debug_assert_eq!(key.kind, NodeKind::Key);
            let next = key.skip as usize;
            let name = tape.key_name(&key, &mut self.scratch.key);
            if let Some(c) = set.field(t, name) {
                if self.scratch.seen[c] != stamp {
                    self.scratch.seen[c] = stamp;
                    bound += 1;
                    // On its own, the lookup hops the value subtrees of the
                    // `keys` keys before this one, then everything after
                    // the matched value.
                    let hopped = (k - v - 1 - keys) + (end - next);
                    self.visit(c, k + 1, acc + hopped as u64);
                }
            }
            keys += 1;
            k = next;
        }
        // A name still unbound was looked for over the whole object, which
        // hops every value subtree. Index steps go on from an array only.
        let values = (end - v - 1 - keys) as u64;
        for c in set.children(t) {
            let node = &set.nodes[c];
            match node.edge {
                Edge::Field { .. } if self.scratch.seen[c] == stamp => {}
                Edge::Field { .. } => self.stats.nodes_skipped += (acc + values) * node.below,
                _ => self.stats.nodes_skipped += acc * node.below,
            }
        }
    }

    /// Hop to each index child of `t` in array `v`.
    fn array(&mut self, t: usize, v: usize, acc: u64) {
        let (tape, set) = (self.tape, self.set);
        let end = tape.nodes[v].skip as usize;
        for child in set.children(t) {
            let Edge::Index(want) = set.nodes[child].edge else {
                self.stats.nodes_skipped += acc * set.nodes[child].below;
                continue;
            };
            let mut element = v + 1;
            let mut i = 0;
            while element < end && i < want {
                element = tape.nodes[element].skip as usize;
                i += 1;
            }
            if element < end {
                // The elements before it, then everything after it.
                let next = tape.nodes[element].skip as usize;
                let hopped = (element - v - 1) + (end - next);
                self.visit(child, element, acc + hopped as u64);
            } else {
                self.stats.nodes_skipped += (acc + (end - v - 1) as u64) * set.nodes[child].below;
            }
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

    #[test]
    fn escaped_keys_compare_unescaped() {
        let json = r#"{"we\"ird": 7, "tape": 8}"#;
        assert_eq!(tape_get(json, "$.we\"ird").unwrap(), "7");
        assert_eq!(tape_get(json, "$.tape").unwrap(), "8");
    }
}
