//! The scalar cell type shared by storage and the query engine.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One scalar value in a row. `Null` is a first-class member so that missing
/// JSONPath evaluations and SQL NULL semantics compose naturally.
///
/// Strings are `Arc<str>`: cloning a cell never copies the text, so one
/// decoded column buffer is shared by every downstream consumer (scan
/// provider, shared-parse slots, the Maxson combiner's paired readers, the
/// online LRU) instead of being re-allocated per row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// SQL NULL / missing JSON field.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string, shared (clone = refcount bump, not a copy).
    Str(Arc<str>),
}

impl Cell {
    /// `true` iff this is [`Cell::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// The integer content, with Float/Str coercion attempted (Hive-style
    /// lax typing used when comparing JSON-extracted strings to numbers).
    pub fn coerce_i64(&self) -> Option<i64> {
        match self {
            Cell::Int(i) => Some(*i),
            Cell::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            Cell::Str(s) => s.trim().parse().ok(),
            Cell::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// The float content, with Int/Str coercion attempted.
    pub fn coerce_f64(&self) -> Option<f64> {
        match self {
            Cell::Int(i) => Some(*i as f64),
            Cell::Float(f) => Some(*f),
            Cell::Str(s) => s.trim().parse().ok(),
            Cell::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Cell::Null => None,
        }
    }

    /// Borrow the string content if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Cell::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render for display / CSV-ish output. NULL renders as the empty
    /// string, matching Hive CLI output.
    pub fn render(&self) -> String {
        match self {
            Cell::Null => String::new(),
            Cell::Bool(b) => b.to_string(),
            Cell::Int(i) => i.to_string(),
            Cell::Float(f) => format!("{f}"),
            Cell::Str(s) => s.to_string(),
        }
    }

    /// Approximate in-memory/serialized size in bytes; used by the scoring
    /// function's `B_j` (average size of a cached value).
    pub fn byte_size(&self) -> usize {
        match self {
            Cell::Null => 1,
            Cell::Bool(_) => 1,
            Cell::Int(_) => 8,
            Cell::Float(_) => 8,
            Cell::Str(s) => s.len(),
        }
    }

    /// Three-valued SQL comparison. Returns `None` when either side is NULL
    /// or the types cannot be compared.
    pub fn sql_cmp(&self, other: &Cell) -> Option<Ordering> {
        match (self, other) {
            (Cell::Null, _) | (_, Cell::Null) => None,
            (Cell::Bool(a), Cell::Bool(b)) => Some(a.cmp(b)),
            (Cell::Str(a), Cell::Str(b)) => {
                // Prefer numeric comparison when both sides parse as numbers
                // (JSON-extracted values are strings).
                match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
                    (Ok(x), Ok(y)) => x.partial_cmp(&y),
                    _ => Some(a.as_ref().cmp(b.as_ref())),
                }
            }
            (a, b) => {
                let (x, y) = (a.coerce_f64()?, b.coerce_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// A total ordering for sorting: NULLs first, then by value. Used by
    /// ORDER BY and group-key normalization.
    pub fn total_cmp(&self, other: &Cell) -> Ordering {
        fn rank(c: &Cell) -> u8 {
            match c {
                Cell::Null => 0,
                Cell::Bool(_) => 1,
                Cell::Int(_) | Cell::Float(_) => 2,
                Cell::Str(_) => 3,
            }
        }
        match (self, other) {
            (Cell::Null, Cell::Null) => Ordering::Equal,
            (Cell::Bool(a), Cell::Bool(b)) => a.cmp(b),
            (Cell::Int(a), Cell::Int(b)) => a.cmp(b),
            // Numeric strings (the output of get_json_object) sort
            // numerically; numeric strings sort before non-numeric ones so
            // the ordering stays total.
            (Cell::Str(a), Cell::Str(b)) => {
                match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
                    (Ok(x), Ok(y)) => x.total_cmp(&y),
                    (Ok(_), Err(_)) => Ordering::Less,
                    (Err(_), Ok(_)) => Ordering::Greater,
                    (Err(_), Err(_)) => a.as_ref().cmp(b.as_ref()),
                }
            }
            (Cell::Int(a), Cell::Float(b)) => (*a as f64).total_cmp(b),
            (Cell::Float(a), Cell::Int(b)) => a.total_cmp(&(*b as f64)),
            (Cell::Float(a), Cell::Float(b)) => a.total_cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// A hashable normalized key string for group-by / join hash maps.
    ///
    /// Retained as the reference semantics for [`CellKey`]/[`RowKey`] (and
    /// for offline consumers that want a printable key); the execution hot
    /// paths hash cells directly instead of building this string.
    pub fn key_string(&self) -> String {
        match self {
            Cell::Null => "\u{0}N".to_string(),
            Cell::Bool(b) => format!("b{b}"),
            Cell::Int(i) => format!("n{}", *i as f64),
            Cell::Float(f) => format!("n{f}"),
            Cell::Str(s) => format!("s{s}"),
        }
    }
}

/// `f64` bits with NaN canonicalized, so the bit pattern is an equality
/// class identifier exactly matching `key_string`'s number formatting:
/// shortest-roundtrip formatting is injective on non-NaN values (`-0` and
/// `0` render differently and keep distinct bits), and every NaN renders
/// as `NaN` (so every NaN must collapse to one bit pattern here).
fn key_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

/// Hash one cell with the same equality classes as [`Cell::key_string`],
/// without allocating: a type tag byte, then the normalized content.
/// Int/Float share a tag and hash as normalized `f64` bits, mirroring
/// `key_string`'s `n{value as f64}` formatting.
fn key_hash_cell<H: Hasher>(cell: &Cell, state: &mut H) {
    match cell {
        Cell::Null => state.write_u8(0),
        Cell::Bool(b) => {
            state.write_u8(1);
            state.write_u8(u8::from(*b));
        }
        Cell::Int(i) => {
            state.write_u8(2);
            state.write_u64(key_f64_bits(*i as f64));
        }
        Cell::Float(f) => {
            state.write_u8(2);
            state.write_u64(key_f64_bits(*f));
        }
        Cell::Str(s) => {
            state.write_u8(3);
            state.write(s.as_bytes());
            // Length terminator so ("ab","c") never collides with ("a","bc")
            // inside a multi-cell key.
            state.write_u8(0xff);
        }
    }
}

/// Equality with the same classes as comparing [`Cell::key_string`] output.
fn key_eq_cell(a: &Cell, b: &Cell) -> bool {
    match (a, b) {
        (Cell::Null, Cell::Null) => true,
        (Cell::Bool(x), Cell::Bool(y)) => x == y,
        (Cell::Str(x), Cell::Str(y)) => x == y,
        (x @ (Cell::Int(_) | Cell::Float(_)), y @ (Cell::Int(_) | Cell::Float(_))) => {
            let fx = match x {
                Cell::Int(i) => *i as f64,
                Cell::Float(f) => *f,
                _ => unreachable!(),
            };
            let fy = match y {
                Cell::Int(i) => *i as f64,
                Cell::Float(f) => *f,
                _ => unreachable!(),
            };
            key_f64_bits(fx) == key_f64_bits(fy)
        }
        _ => false,
    }
}

/// An allocation-free hash-map key over a single cell (join keys, COUNT
/// DISTINCT). Hash and equality follow [`Cell::key_string`]'s equivalence
/// classes — `Int(2)` and `Float(2.0)` are the same key — without building
/// the string.
#[derive(Debug, Clone)]
pub struct CellKey(pub Cell);

impl Hash for CellKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        key_hash_cell(&self.0, state);
    }
}

impl PartialEq for CellKey {
    fn eq(&self, other: &Self) -> bool {
        key_eq_cell(&self.0, &other.0)
    }
}

impl Eq for CellKey {}

/// Borrowed form of [`RowKey`]: lets hash maps be probed with a `&[Cell]`
/// scratch row without allocating an owned key for the lookup.
#[derive(Debug)]
#[repr(transparent)]
pub struct RowKeySlice([Cell]);

impl RowKeySlice {
    /// View a cell slice as a key. The crate's one `unsafe` block.
    #[allow(unsafe_code)]
    pub fn new(cells: &[Cell]) -> &RowKeySlice {
        // SAFETY: RowKeySlice is a repr(transparent) wrapper over [Cell].
        unsafe { &*(cells as *const [Cell] as *const RowKeySlice) }
    }

    /// The underlying cells.
    pub fn cells(&self) -> &[Cell] {
        &self.0
    }
}

impl Hash for RowKeySlice {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.len());
        for c in &self.0 {
            key_hash_cell(c, state);
        }
    }
}

impl PartialEq for RowKeySlice {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| key_eq_cell(a, b))
    }
}

impl Eq for RowKeySlice {}

/// An owned multi-cell hash-map key (GROUP BY, DISTINCT) with
/// [`Cell::key_string`]-compatible hash/equality and no per-row string
/// build. Probe maps with [`RowKeySlice`] to stay allocation-free on hits.
#[derive(Debug, Clone)]
pub struct RowKey(pub Vec<Cell>);

impl RowKey {
    /// The underlying cells.
    pub fn cells(&self) -> &[Cell] {
        &self.0
    }

    /// Consume into the underlying cells.
    pub fn into_cells(self) -> Vec<Cell> {
        self.0
    }
}

impl Borrow<RowKeySlice> for RowKey {
    fn borrow(&self) -> &RowKeySlice {
        RowKeySlice::new(&self.0)
    }
}

impl Hash for RowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let slice: &RowKeySlice = self.borrow();
        slice.hash(state);
    }
}

impl PartialEq for RowKey {
    fn eq(&self, other: &Self) -> bool {
        let a: &RowKeySlice = self.borrow();
        let b: &RowKeySlice = other.borrow();
        a == b
    }
}

impl Eq for RowKey {}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Null => f.write_str("NULL"),
            other => f.write_str(&other.render()),
        }
    }
}

impl From<i64> for Cell {
    fn from(i: i64) -> Self {
        Cell::Int(i)
    }
}
impl From<f64> for Cell {
    fn from(f: f64) -> Self {
        Cell::Float(f)
    }
}
impl From<bool> for Cell {
    fn from(b: bool) -> Self {
        Cell::Bool(b)
    }
}
impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Str(Arc::from(s))
    }
}
impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Str(Arc::from(s))
    }
}
impl From<Arc<str>> for Cell {
    fn from(s: Arc<str>) -> Self {
        Cell::Str(s)
    }
}
impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(o: Option<T>) -> Self {
        o.map_or(Cell::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn coercions() {
        assert_eq!(Cell::Str(" 42 ".into()).coerce_i64(), Some(42));
        assert_eq!(Cell::Float(3.0).coerce_i64(), Some(3));
        assert_eq!(Cell::Float(3.5).coerce_i64(), None);
        assert_eq!(Cell::Str("2.5".into()).coerce_f64(), Some(2.5));
        assert_eq!(Cell::Null.coerce_f64(), None);
        assert_eq!(Cell::Bool(true).coerce_i64(), Some(1));
    }

    #[test]
    fn sql_cmp_null_propagates() {
        assert_eq!(Cell::Null.sql_cmp(&Cell::Int(1)), None);
        assert_eq!(Cell::Int(1).sql_cmp(&Cell::Null), None);
    }

    #[test]
    fn sql_cmp_numeric_strings_compare_numerically() {
        // "9" > "10" lexicographically but 9 < 10 numerically; JSON-extracted
        // values must compare numerically for Q2/Q9-style predicates.
        assert_eq!(
            Cell::Str("9".into()).sql_cmp(&Cell::Str("10".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            Cell::Str("abc".into()).sql_cmp(&Cell::Str("abd".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            Cell::Str("15".into()).sql_cmp(&Cell::Int(10)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn total_cmp_orders_nulls_first() {
        let mut cells = vec![Cell::Int(2), Cell::Null, Cell::Int(1)];
        cells.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(cells, vec![Cell::Null, Cell::Int(1), Cell::Int(2)]);
    }

    #[test]
    fn group_keys_normalize_numeric_types() {
        assert_eq!(Cell::Int(2).key_string(), Cell::Float(2.0).key_string());
    }

    #[test]
    fn string_cells_share_one_buffer() {
        let a = Cell::from("shared document");
        let b = a.clone();
        let (Cell::Str(x), Cell::Str(y)) = (&a, &b) else {
            panic!("string cells");
        };
        assert!(Arc::ptr_eq(x, y), "clone must share, not copy");
    }

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// CellKey/RowKey must partition cells into exactly key_string's
    /// equivalence classes: equal strings <=> equal keys (and equal hashes).
    #[test]
    fn cell_key_matches_key_string_classes() {
        let samples = [
            Cell::Null,
            Cell::Bool(false),
            Cell::Bool(true),
            Cell::Int(0),
            Cell::Int(2),
            Cell::Int(-7),
            Cell::Float(2.0),
            Cell::Float(2.5),
            Cell::Float(0.0),
            Cell::Float(-0.0),
            Cell::Float(f64::NAN),
            Cell::Float(f64::INFINITY),
            Cell::Float(f64::NEG_INFINITY),
            Cell::Str("".into()),
            Cell::Str("2".into()),
            Cell::Str("true".into()),
            Cell::Str("\u{0}N".into()),
            Cell::Float(9_007_199_254_740_993i64 as f64),
            Cell::Int(9_007_199_254_740_993), // loses precision as f64
        ];
        for a in &samples {
            for b in &samples {
                let str_eq = a.key_string() == b.key_string();
                let key_eq = CellKey(a.clone()) == CellKey(b.clone());
                assert_eq!(str_eq, key_eq, "{a:?} vs {b:?}");
                if key_eq {
                    assert_eq!(
                        hash_of(&CellKey(a.clone())),
                        hash_of(&CellKey(b.clone())),
                        "{a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_key_probes_without_owning() {
        let mut groups: HashMap<RowKey, u64> = HashMap::new();
        groups.insert(RowKey(vec![Cell::Int(2), Cell::from("x")]), 10);
        let scratch = [Cell::Float(2.0), Cell::from("x")];
        assert_eq!(groups.get(RowKeySlice::new(&scratch)), Some(&10));
        let miss = [Cell::Float(2.5), Cell::from("x")];
        assert_eq!(groups.get(RowKeySlice::new(&miss)), None);
    }

    #[test]
    fn row_key_string_boundaries_do_not_collide() {
        let mut seen: HashSet<RowKey> = HashSet::new();
        seen.insert(RowKey(vec![Cell::from("ab"), Cell::from("c")]));
        assert!(!seen.contains(RowKeySlice::new(&[Cell::from("a"), Cell::from("bc")])));
        assert!(seen.contains(RowKeySlice::new(&[Cell::from("ab"), Cell::from("c")])));
    }

    #[test]
    fn render_and_display() {
        assert_eq!(Cell::Null.render(), "");
        assert_eq!(Cell::Null.to_string(), "NULL");
        assert_eq!(Cell::Int(-3).render(), "-3");
        assert_eq!(Cell::from("x").render(), "x");
        assert_eq!(Cell::from(Some(1i64)).render(), "1");
        assert_eq!(Cell::from(None::<i64>), Cell::Null);
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Cell::Int(1).byte_size(), 8);
        assert_eq!(Cell::Str("abcd".into()).byte_size(), 4);
        assert_eq!(Cell::Null.byte_size(), 1);
    }
}
