//! In-memory column vectors.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::cell::Cell;
use crate::encoding::{
    read_str, read_varint, rle_decode_i64_with, rle_encode_i64, skip_str, write_bitmap, write_f64,
    write_str, write_varint, Bitmap, DictHash,
};
use crate::error::{Result, StorageError};
use crate::schema::ColumnType;

/// A typed column of values with a validity mask, the unit of encoding in a
/// row group.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Int64 column: validity + values (invalid slots hold 0).
    Int64 {
        /// Per-row validity (false = NULL).
        valid: Vec<bool>,
        /// Row values; unspecified where invalid.
        values: Vec<i64>,
    },
    /// Float64 column.
    Float64 {
        /// Per-row validity (false = NULL).
        valid: Vec<bool>,
        /// Row values; unspecified where invalid.
        values: Vec<f64>,
    },
    /// String column. Values are `Arc<str>` so handing a cell to the
    /// engine shares the decoded buffer instead of copying the text.
    Utf8 {
        /// Per-row validity (false = NULL).
        valid: Vec<bool>,
        /// Row values; empty where invalid.
        values: Vec<Arc<str>>,
    },
    /// Boolean column.
    Bool {
        /// Per-row validity (false = NULL).
        valid: Vec<bool>,
        /// Row values; false where invalid.
        values: Vec<bool>,
    },
}

thread_local! {
    /// This thread's empty string: NULL slots and empty values clone it
    /// instead of allocating one `Arc` header each.
    static EMPTY: Arc<str> = Arc::from("");
}

/// `s` as a column value: one allocation and one copy, or for the empty
/// string a clone of the thread's shared one.
fn shared_str(s: &str) -> Arc<str> {
    if s.is_empty() {
        EMPTY.with(Arc::clone)
    } else {
        Arc::from(s)
    }
}

impl ColumnData {
    /// An empty column of the given type.
    pub fn empty(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int64 => ColumnData::Int64 {
                valid: Vec::new(),
                values: Vec::new(),
            },
            ColumnType::Float64 => ColumnData::Float64 {
                valid: Vec::new(),
                values: Vec::new(),
            },
            ColumnType::Utf8 => ColumnData::Utf8 {
                valid: Vec::new(),
                values: Vec::new(),
            },
            ColumnType::Bool => ColumnData::Bool {
                valid: Vec::new(),
                values: Vec::new(),
            },
        }
    }

    /// The column's physical type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnData::Int64 { .. } => ColumnType::Int64,
            ColumnData::Float64 { .. } => ColumnType::Float64,
            ColumnData::Utf8 { .. } => ColumnType::Utf8,
            ColumnData::Bool { .. } => ColumnType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64 { valid, .. }
            | ColumnData::Float64 { valid, .. }
            | ColumnData::Utf8 { valid, .. }
            | ColumnData::Bool { valid, .. } => valid.len(),
        }
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a cell, coercing Int into Float64 columns.
    pub fn push(&mut self, cell: &Cell, column_name: &str) -> Result<()> {
        match (self, cell) {
            (ColumnData::Int64 { valid, values }, Cell::Int(v)) => {
                valid.push(true);
                values.push(*v);
            }
            (ColumnData::Int64 { valid, values }, Cell::Null) => {
                valid.push(false);
                values.push(0);
            }
            (ColumnData::Float64 { valid, values }, Cell::Float(v)) => {
                valid.push(true);
                values.push(*v);
            }
            (ColumnData::Float64 { valid, values }, Cell::Int(v)) => {
                valid.push(true);
                values.push(*v as f64);
            }
            (ColumnData::Float64 { valid, values }, Cell::Null) => {
                valid.push(false);
                values.push(0.0);
            }
            (ColumnData::Utf8 { valid, values }, Cell::Str(s)) => {
                valid.push(true);
                values.push(s.clone());
            }
            (ColumnData::Utf8 { valid, values }, Cell::Null) => {
                valid.push(false);
                values.push(shared_str(""));
            }
            (ColumnData::Bool { valid, values }, Cell::Bool(b)) => {
                valid.push(true);
                values.push(*b);
            }
            (ColumnData::Bool { valid, values }, Cell::Null) => {
                valid.push(false);
                values.push(false);
            }
            (col, cell) => {
                return Err(StorageError::TypeMismatch {
                    column: column_name.to_string(),
                    expected: col.column_type().name(),
                    found: format!("{cell:?}"),
                })
            }
        }
        Ok(())
    }

    /// Append rows `range` of `other`. The writer checks a chunk's type
    /// against the schema before it calls this.
    pub(crate) fn extend_from(&mut self, other: &ColumnData, range: std::ops::Range<usize>) {
        match (self, other) {
            (
                ColumnData::Int64 { valid, values },
                ColumnData::Int64 {
                    valid: v,
                    values: x,
                },
            ) => {
                valid.extend_from_slice(&v[range.clone()]);
                values.extend_from_slice(&x[range]);
            }
            (
                ColumnData::Float64 { valid, values },
                ColumnData::Float64 {
                    valid: v,
                    values: x,
                },
            ) => {
                valid.extend_from_slice(&v[range.clone()]);
                values.extend_from_slice(&x[range]);
            }
            (
                ColumnData::Utf8 { valid, values },
                ColumnData::Utf8 {
                    valid: v,
                    values: x,
                },
            ) => {
                valid.extend_from_slice(&v[range.clone()]);
                values.extend_from_slice(&x[range]);
            }
            (
                ColumnData::Bool { valid, values },
                ColumnData::Bool {
                    valid: v,
                    values: x,
                },
            ) => {
                valid.extend_from_slice(&v[range.clone()]);
                values.extend_from_slice(&x[range]);
            }
            (col, other) => unreachable!(
                "{} chunk appended to a {} column",
                other.column_type().name(),
                col.column_type().name()
            ),
        }
    }

    /// Read row `i` as a [`Cell`].
    pub fn get(&self, i: usize) -> Cell {
        match self {
            ColumnData::Int64 { valid, values } => {
                if valid[i] {
                    Cell::Int(values[i])
                } else {
                    Cell::Null
                }
            }
            ColumnData::Float64 { valid, values } => {
                if valid[i] {
                    Cell::Float(values[i])
                } else {
                    Cell::Null
                }
            }
            ColumnData::Utf8 { valid, values } => {
                if valid[i] {
                    Cell::Str(Arc::clone(&values[i]))
                } else {
                    Cell::Null
                }
            }
            ColumnData::Bool { valid, values } => {
                if valid[i] {
                    Cell::Bool(values[i])
                } else {
                    Cell::Null
                }
            }
        }
    }

    /// Move the values of `rows` (strictly ascending indexes) out as cells,
    /// leaving this column empty: a string cell takes the column's `Arc`
    /// instead of sharing it, and the values of other rows are dropped.
    pub fn take_cells(&mut self, rows: &[u32]) -> Vec<Cell> {
        fn take<T>(
            valid: &mut Vec<bool>,
            values: &mut Vec<T>,
            rows: &[u32],
            cell: fn(T) -> Cell,
        ) -> Vec<Cell> {
            let valid = std::mem::take(valid);
            let mut values = std::mem::take(values).into_iter();
            let mut next = 0;
            rows.iter()
                .map(|&row| {
                    let row = row as usize;
                    let value = values.nth(row - next).expect("row index in range");
                    next = row + 1;
                    if valid[row] {
                        cell(value)
                    } else {
                        Cell::Null
                    }
                })
                .collect()
        }
        match self {
            ColumnData::Int64 { valid, values } => take(valid, values, rows, Cell::Int),
            ColumnData::Float64 { valid, values } => take(valid, values, rows, Cell::Float),
            ColumnData::Utf8 { valid, values } => take(valid, values, rows, Cell::Str),
            ColumnData::Bool { valid, values } => take(valid, values, rows, Cell::Bool),
        }
    }

    /// Encode into `out`. Layout: null bitmap, then type-specific stream.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_rows(0..self.len(), out);
    }

    /// Encode rows `rows` into `out`, as [`ColumnData::encode`] encodes a
    /// column holding just those rows.
    pub(crate) fn encode_rows(&self, rows: Range<usize>, out: &mut Vec<u8>) {
        match self {
            ColumnData::Int64 { valid, values } => {
                write_bitmap(out, &valid[rows.clone()]);
                rle_encode_i64(&values[rows], out);
            }
            ColumnData::Float64 { valid, values } => {
                write_bitmap(out, &valid[rows.clone()]);
                write_varint(out, rows.len() as u64);
                for &v in &values[rows] {
                    write_f64(out, v);
                }
            }
            ColumnData::Utf8 { valid, values } => {
                let values = &values[rows.clone()];
                write_bitmap(out, &valid[rows]);
                write_varint(out, values.len() as u64);
                // Dictionary encoding (like ORC's DICTIONARY_V2) when the
                // column is repetitive enough to pay off; plain otherwise.
                if let Some((dict, indexes)) = dictionary(values) {
                    out.push(1); // dictionary stream
                    write_varint(out, dict.len() as u64);
                    for d in &dict {
                        write_str(out, d);
                    }
                    rle_encode_i64(&indexes, out);
                } else {
                    out.push(0); // plain stream
                    for v in values {
                        write_str(out, v);
                    }
                }
            }
            ColumnData::Bool { valid, values } => {
                write_bitmap(out, &valid[rows.clone()]);
                write_bitmap(out, &values[rows]);
            }
        }
    }

    /// Decode a column of `ty` from `buf`, advancing `pos`: the unselected
    /// case of [`ColumnData::decode_into`] on an empty column.
    pub fn decode(ty: ColumnType, buf: &[u8], pos: &mut usize) -> Result<Self> {
        let mut out = ColumnData::empty(ty);
        out.decode_into(buf, pos, None)?;
        Ok(out)
    }

    /// Decode one encoded chunk of this column's type from `buf`, appending
    /// its rows to `self` and advancing `pos` past the chunk: every row, or
    /// with `select` — ascending chunk-local row indexes — only those.
    /// Returns the chunk's row count. Each kept string is copied out of
    /// `buf` once; a skipped one is stepped over unvalidated.
    ///
    /// Every count in the chunk is checked against the bytes that must back
    /// it before it sizes anything; room for the values is the caller's to
    /// reserve (`NorcFile::read_columns_at` does, once for all kept chunks).
    /// On an error `self` may hold part of the chunk; callers drop it.
    pub fn decode_into(
        &mut self,
        buf: &[u8],
        pos: &mut usize,
        select: Option<&[u32]>,
    ) -> Result<usize> {
        let validity = chunk_validity(buf, pos, select)?;
        let rows = validity.len();
        match self {
            ColumnData::Int64 { valid, values } => {
                validity.append_to(valid, select);
                rle_decode_i64_with(buf, pos, rows, select, |v| {
                    values.push(v);
                    Ok(())
                })?;
            }
            ColumnData::Float64 { valid, values } => {
                check_count(buf, pos, rows, "float")?;
                let raw = rows
                    .checked_mul(8)
                    .and_then(|len| pos.checked_add(len))
                    .and_then(|end| buf.get(*pos..end))
                    .ok_or_else(|| StorageError::corrupt("f64 truncated"))?;
                *pos += raw.len();
                let at = |r: usize| {
                    let bytes = raw[r * 8..r * 8 + 8].try_into();
                    f64::from_le_bytes(bytes.expect("the slice is eight bytes long"))
                };
                validity.append_to(valid, select);
                match select {
                    None => values.extend((0..rows).map(at)),
                    Some(select) => values.extend(select.iter().map(|&r| at(r as usize))),
                }
            }
            ColumnData::Utf8 { valid, values } => {
                validity.append_to(valid, select);
                // Rows sharing a dictionary entry share one allocation in
                // memory too.
                decode_str_stream(buf, pos, validity, select, shared_str, |value| {
                    values.push(value.unwrap_or_else(|| shared_str("")));
                })?;
            }
            ColumnData::Bool { valid, values } => {
                let bits = Bitmap::read(buf, pos)?;
                if bits.len() != rows {
                    return Err(StorageError::corrupt("bool column length mismatch"));
                }
                validity.append_to(valid, select);
                bits.append_to(values, select);
            }
        }
        Ok(rows)
    }

    /// Reserve room for `rows` more rows.
    pub(crate) fn reserve(&mut self, rows: usize) {
        match self {
            ColumnData::Int64 { valid, values } => {
                valid.reserve(rows);
                values.reserve(rows);
            }
            ColumnData::Float64 { valid, values } => {
                valid.reserve(rows);
                values.reserve(rows);
            }
            ColumnData::Utf8 { valid, values } => {
                valid.reserve(rows);
                values.reserve(rows);
            }
            ColumnData::Bool { valid, values } => {
                valid.reserve(rows);
                values.reserve(rows);
            }
        }
    }

    /// The rows at `rows` (indexes into this column), as a new column.
    pub fn gather(&self, rows: &[u32]) -> ColumnData {
        fn pick<T: Clone>(from: &[T], rows: &[u32]) -> Vec<T> {
            rows.iter().map(|&r| from[r as usize].clone()).collect()
        }
        match self {
            ColumnData::Int64 { valid, values } => ColumnData::Int64 {
                valid: pick(valid, rows),
                values: pick(values, rows),
            },
            ColumnData::Float64 { valid, values } => ColumnData::Float64 {
                valid: pick(valid, rows),
                values: pick(values, rows),
            },
            ColumnData::Utf8 { valid, values } => ColumnData::Utf8 {
                valid: pick(valid, rows),
                values: pick(values, rows),
            },
            ColumnData::Bool { valid, values } => ColumnData::Bool {
                valid: pick(valid, rows),
                values: pick(values, rows),
            },
        }
    }

    /// Approximate decoded byte footprint (for cache budget accounting).
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnData::Int64 { values, .. } => values.len() * 8,
            ColumnData::Float64 { values, .. } => values.len() * 8,
            ColumnData::Utf8 { values, .. } => values.iter().map(|s| s.len()).sum::<usize>(),
            ColumnData::Bool { values, .. } => values.len(),
        }
    }
}

/// The dictionary of a string column — its distinct values in order of
/// first appearance — and each row's index into it, when at most half of
/// the rows hold a new value. The probe stops at the first value past that
/// share, where the plain stream is certain: a column of unique values (a
/// cache column, mostly) is hashed only halfway.
fn dictionary(values: &[Arc<str>]) -> Option<(Vec<&str>, Vec<i64>)> {
    if values.is_empty() {
        return None;
    }
    // Sized for the most entries a dictionary may hold: no probe regrows.
    let most = values.len() / 2 + 1;
    let mut dict: Vec<&str> = Vec::with_capacity(most);
    let mut index_of: HashMap<&str, usize, DictHash> =
        HashMap::with_capacity_and_hasher(most, DictHash);
    let mut indexes: Vec<i64> = Vec::with_capacity(values.len());
    for v in values {
        let idx = *index_of.entry(v.as_ref()).or_insert_with(|| {
            dict.push(v.as_ref());
            dict.len() - 1
        });
        if dict.len() * 2 > values.len() {
            return None;
        }
        indexes.push(idx as i64);
    }
    Some((dict, indexes))
}

/// The validity bitmap that opens every chunk, checked against the
/// highest row `select` wants.
fn chunk_validity<'b>(
    buf: &'b [u8],
    pos: &mut usize,
    select: Option<&[u32]>,
) -> Result<Bitmap<'b>> {
    let validity = Bitmap::read(buf, pos)?;
    if select.is_some_and(|s| s.last().is_some_and(|&r| r as usize >= validity.len())) {
        return Err(StorageError::corrupt("chunk row count mismatch"));
    }
    Ok(validity)
}

/// Float and string streams repeat the chunk's row count.
fn check_count(buf: &[u8], pos: &mut usize, rows: usize, what: &str) -> Result<()> {
    if read_varint(buf, pos)? == rows as u64 {
        Ok(())
    } else {
        Err(StorageError::corrupt(format!(
            "{what} column length mismatch"
        )))
    }
}

/// Decode one encoded Utf8 chunk from `buf`, advancing `pos` past it, and
/// hand each kept row's value to `visit` in row order — every row, or with
/// `select` (ascending chunk-local row indexes) only those; `None` is a
/// NULL. The values are `&str`s borrowed from `buf`: nothing is copied.
/// Returns the chunk's row count.
pub(crate) fn decode_strs<'b>(
    buf: &'b [u8],
    pos: &mut usize,
    select: Option<&[u32]>,
    visit: impl FnMut(Option<&'b str>),
) -> Result<usize> {
    let validity = chunk_validity(buf, pos, select)?;
    decode_str_stream(buf, pos, validity, select, |s| s, visit)?;
    Ok(validity.len())
}

/// The one string-stream decoder, behind [`decode_strs`] and
/// [`ColumnData::decode_into`]: `make` turns each plain string and each
/// dictionary entry into a value once, and `visit` gets each kept row's
/// value (a clone of its entry's, for a dictionary row). A skipped plain
/// string is stepped over unvalidated.
///
/// Every count in the stream is checked against the bytes that must back
/// it before it sizes anything.
fn decode_str_stream<'b, T: Clone>(
    buf: &'b [u8],
    pos: &mut usize,
    validity: Bitmap<'_>,
    select: Option<&[u32]>,
    make: impl Fn(&'b str) -> T,
    mut visit: impl FnMut(Option<T>),
) -> Result<()> {
    let rows = validity.len();
    check_count(buf, pos, rows, "string")?;
    let mode = *buf
        .get(*pos)
        .ok_or_else(|| StorageError::corrupt("string stream mode truncated"))?;
    *pos += 1;
    // Every plain string and every dictionary entry costs at least its
    // length byte.
    let left = buf.len() - *pos;
    match mode {
        0 => {
            if rows > left {
                return Err(StorageError::corrupt("string truncated"));
            }
            let mut wanted = select.map(|s| s.iter().peekable());
            for i in 0..rows {
                let keep = wanted
                    .as_mut()
                    .is_none_or(|w| w.next_if(|&&r| r as usize == i).is_some());
                if keep && validity.get(i) {
                    visit(Some(make(read_str(buf, pos)?)));
                } else {
                    skip_str(buf, pos)?;
                    if keep {
                        visit(None);
                    }
                }
            }
        }
        1 => {
            let dict_len = read_varint(buf, pos)?;
            if dict_len > left as u64 {
                return Err(StorageError::corrupt("dictionary longer than its chunk"));
            }
            let dict = (0..dict_len)
                .map(|_| read_str(buf, pos).map(&make))
                .collect::<Result<Vec<T>>>()?;
            // How many indexes were decoded: the next one's row is
            // `select[next]`, or `next` itself without a selection.
            let mut next = 0usize;
            rle_decode_i64_with(buf, pos, rows, select, |i| {
                let entry = usize::try_from(i)
                    .ok()
                    .and_then(|i| dict.get(i))
                    .ok_or_else(|| StorageError::corrupt("dictionary index out of range"))?;
                let row = select.map_or(next, |s| s[next] as usize);
                next += 1;
                visit(validity.get(row).then(|| entry.clone()));
                Ok(())
            })?;
        }
        m => {
            return Err(StorageError::corrupt(format!(
                "unknown string stream mode {m}"
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(col: &ColumnData) -> ColumnData {
        let mut buf = Vec::new();
        col.encode(&mut buf);
        let mut pos = 0;
        let back = ColumnData::decode(col.column_type(), &buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        back
    }

    #[test]
    fn int_column_round_trip_with_nulls() {
        let mut col = ColumnData::empty(ColumnType::Int64);
        for c in [
            Cell::Int(1),
            Cell::Null,
            Cell::Int(-5),
            Cell::Int(-5),
            Cell::Int(-5),
        ] {
            col.push(&c, "c").unwrap();
        }
        let back = round_trip(&col);
        assert_eq!(back.get(0), Cell::Int(1));
        assert_eq!(back.get(1), Cell::Null);
        assert_eq!(back.get(4), Cell::Int(-5));
    }

    #[test]
    fn float_column_accepts_ints() {
        let mut col = ColumnData::empty(ColumnType::Float64);
        col.push(&Cell::Int(3), "c").unwrap();
        col.push(&Cell::Float(2.5), "c").unwrap();
        col.push(&Cell::Null, "c").unwrap();
        let back = round_trip(&col);
        assert_eq!(back.get(0), Cell::Float(3.0));
        assert_eq!(back.get(1), Cell::Float(2.5));
        assert_eq!(back.get(2), Cell::Null);
    }

    #[test]
    fn string_and_bool_round_trip() {
        let mut s = ColumnData::empty(ColumnType::Utf8);
        s.push(&Cell::Str("a\"b".into()), "c").unwrap();
        s.push(&Cell::Null, "c").unwrap();
        let back = round_trip(&s);
        assert_eq!(back.get(0), Cell::Str("a\"b".into()));
        assert_eq!(back.get(1), Cell::Null);

        let mut b = ColumnData::empty(ColumnType::Bool);
        b.push(&Cell::Bool(true), "c").unwrap();
        b.push(&Cell::Bool(false), "c").unwrap();
        b.push(&Cell::Null, "c").unwrap();
        let back = round_trip(&b);
        assert_eq!(back.get(0), Cell::Bool(true));
        assert_eq!(back.get(2), Cell::Null);
    }

    /// The taken cells are the selected rows' `get`, and a string cell is
    /// the column's own buffer, not a second reference to it.
    #[test]
    fn take_cells_moves_the_selected_values_out() {
        let mut ints = ColumnData::empty(ColumnType::Int64);
        let mut strs = ColumnData::empty(ColumnType::Utf8);
        for i in 0..6 {
            let null = i % 4 == 3;
            ints.push(&if null { Cell::Null } else { Cell::Int(i) }, "c")
                .unwrap();
            strs.push(
                &if null {
                    Cell::Null
                } else {
                    Cell::from(format!("s{i}"))
                },
                "c",
            )
            .unwrap();
        }
        let rows = [1, 3, 4, 5];
        for col in [&mut ints, &mut strs] {
            let expected: Vec<Cell> = rows.iter().map(|&r| col.get(r as usize)).collect();
            assert_eq!(col.take_cells(&rows), expected);
            assert_eq!(col.len(), 0, "the column is left empty");
        }
        let mut one = ColumnData::empty(ColumnType::Utf8);
        one.push(&Cell::from("only"), "c").unwrap();
        let Cell::Str(s) = &one.take_cells(&[0])[0] else {
            panic!("a string cell");
        };
        assert_eq!(Arc::strong_count(s), 1);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut col = ColumnData::empty(ColumnType::Int64);
        let err = col.push(&Cell::Str("x".into()), "mycol").unwrap_err();
        assert!(err.to_string().contains("mycol"));
    }

    #[test]
    fn empty_column_round_trip() {
        for ty in [
            ColumnType::Int64,
            ColumnType::Float64,
            ColumnType::Utf8,
            ColumnType::Bool,
        ] {
            let col = ColumnData::empty(ty);
            let back = round_trip(&col);
            assert_eq!(back.len(), 0);
            assert!(back.is_empty());
        }
    }

    #[test]
    fn chunks_decode_in_place_whole_or_at_a_selection() {
        let mut plain = ColumnData::empty(ColumnType::Utf8);
        let mut dict = ColumnData::empty(ColumnType::Utf8);
        let mut ints = ColumnData::empty(ColumnType::Int64);
        let mut floats = ColumnData::empty(ColumnType::Float64);
        let mut bools = ColumnData::empty(ColumnType::Bool);
        for i in 0..20i64 {
            let null = i % 6 == 1;
            let cell = |c: Cell| if null { Cell::Null } else { c };
            plain.push(&cell(Cell::from(format!("v{i}"))), "c").unwrap();
            dict.push(&cell(Cell::from(["a", "b"][i as usize % 2])), "c")
                .unwrap();
            ints.push(&cell(Cell::Int(i / 5)), "c").unwrap();
            floats
                .push(&cell(Cell::Float(i as f64 / 2.0)), "c")
                .unwrap();
            bools.push(&cell(Cell::Bool(i % 3 == 0)), "c").unwrap();
        }
        for col in [plain, dict, ints, floats, bools] {
            let mut buf = Vec::new();
            col.encode(&mut buf);
            // Appending: two chunks land one after the other.
            let mut twice = ColumnData::empty(col.column_type());
            for _ in 0..2 {
                let mut pos = 0;
                assert_eq!(twice.decode_into(&buf, &mut pos, None).unwrap(), 20);
                assert_eq!(pos, buf.len());
            }
            let all: Vec<u32> = (0..20).chain(0..20).collect();
            assert_eq!(twice, col.gather(&all));
            for select in [vec![], vec![0, 1, 2], vec![1, 7, 13, 19], (0..20).collect()] {
                let mut at = ColumnData::empty(col.column_type());
                let mut pos = 0;
                at.decode_into(&buf, &mut pos, Some(&select)).unwrap();
                assert_eq!(
                    pos,
                    buf.len(),
                    "a selected decode still ends past the chunk"
                );
                assert_eq!(at, col.gather(&select), "select {select:?}");
            }
            // A selection made for a longer chunk is a corrupt chunk.
            let mut at = ColumnData::empty(col.column_type());
            assert!(at.decode_into(&buf, &mut 0, Some(&[3, 20])).is_err());
        }
    }

    #[test]
    fn null_and_empty_strings_share_one_buffer() {
        let mut col = ColumnData::empty(ColumnType::Utf8);
        for c in [Cell::Null, Cell::from("x"), Cell::Null, Cell::from("")] {
            col.push(&c, "c").unwrap();
        }
        let mut buf = Vec::new();
        col.encode(&mut buf);
        let back = ColumnData::decode(ColumnType::Utf8, &buf, &mut 0).unwrap();
        let values = |col: &ColumnData| match col {
            ColumnData::Utf8 { values, .. } => values.clone(),
            _ => unreachable!(),
        };
        // Pushed NULLs share the thread's empty string; a pushed cell keeps
        // the buffer it came with.
        assert!(Arc::ptr_eq(&values(&col)[0], &values(&col)[2]));
        let decoded = values(&back);
        assert!(Arc::ptr_eq(&decoded[0], &decoded[2]));
        assert!(Arc::ptr_eq(&decoded[0], &decoded[3]));
        assert_eq!(back.get(3), Cell::from(""), "an empty string is not a NULL");
    }

    #[test]
    fn byte_size_reflects_content() {
        let mut col = ColumnData::empty(ColumnType::Utf8);
        col.push(&Cell::Str("abcd".into()), "c").unwrap();
        col.push(&Cell::Str("ef".into()), "c").unwrap();
        assert_eq!(col.byte_size(), 6);
    }
}

#[cfg(test)]
mod dict_tests {
    use super::*;

    fn utf8_col(values: &[&str]) -> ColumnData {
        let mut col = ColumnData::empty(ColumnType::Utf8);
        for v in values {
            col.push(&Cell::from(*v), "c").unwrap();
        }
        col
    }

    fn round_trip(col: &ColumnData) -> (ColumnData, usize) {
        let mut buf = Vec::new();
        col.encode(&mut buf);
        let mut pos = 0;
        let back = ColumnData::decode(col.column_type(), &buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        (back, buf.len())
    }

    #[test]
    fn repetitive_strings_use_dictionary_and_shrink() {
        let repetitive: Vec<&str> = std::iter::repeat_n(["alpha", "beta", "gamma"], 100)
            .flatten()
            .collect();
        let col = utf8_col(&repetitive);
        let (back, dict_size) = round_trip(&col);
        assert_eq!(back, col);
        // Plain encoding is ~300 entries x (1 length byte + 4-5 chars)
        // ~= 2 KB; the dictionary stream stores 3 strings + 1 index byte
        // per row.
        assert!(
            dict_size < 700,
            "dictionary stream should compress, got {dict_size} bytes"
        );
    }

    #[test]
    fn unique_strings_stay_plain() {
        let unique: Vec<String> = (0..50).map(|i| format!("value-{i}")).collect();
        let refs: Vec<&str> = unique.iter().map(String::as_str).collect();
        let col = utf8_col(&refs);
        let mut buf = Vec::new();
        col.encode(&mut buf);
        // Mode byte follows bitmap + count; find it by decoding prefix.
        let mut pos = 0;
        let _ = Bitmap::read(&buf, &mut pos).unwrap();
        let _ = crate::encoding::read_varint(&buf, &mut pos).unwrap();
        assert_eq!(buf[pos], 0, "unique values must use the plain stream");
        let (back, _) = round_trip(&col);
        assert_eq!(back, col);
    }

    /// The probe that stops early picks what counting every distinct value
    /// picks — a dictionary exactly when at most half the rows are distinct
    /// — wherever the new values fall in the column.
    #[test]
    fn dictionary_choice_is_the_half_rule_in_any_order() {
        for rows in 1..24usize {
            for distinct in 1..=rows {
                let front: Vec<String> = (0..rows)
                    .map(|i| format!("v{}", i.min(distinct - 1)))
                    .collect();
                let back: Vec<String> = (0..rows)
                    .map(|i| format!("v{}", (i + distinct).saturating_sub(rows)))
                    .collect();
                let cycled: Vec<String> = (0..rows).map(|i| format!("v{}", i % distinct)).collect();
                for values in [front, back, cycled] {
                    let refs: Vec<&str> = values.iter().map(String::as_str).collect();
                    let col = utf8_col(&refs);
                    let mut buf = Vec::new();
                    col.encode(&mut buf);
                    let mut pos = 0;
                    let _ = Bitmap::read(&buf, &mut pos).unwrap();
                    let _ = crate::encoding::read_varint(&buf, &mut pos).unwrap();
                    assert_eq!(buf[pos] == 1, distinct * 2 <= rows, "{values:?}");
                    assert_eq!(round_trip(&col).0, col);
                }
            }
        }
    }

    #[test]
    fn dictionary_with_nulls_round_trips() {
        let mut col = ColumnData::empty(ColumnType::Utf8);
        for i in 0..40 {
            if i % 5 == 0 {
                col.push(&Cell::Null, "c").unwrap();
            } else {
                col.push(&Cell::from(format!("k{}", i % 3)), "c").unwrap();
            }
        }
        let (back, _) = round_trip(&col);
        assert_eq!(back, col);
        assert_eq!(back.get(0), Cell::Null);
        assert_eq!(back.get(1), Cell::Str("k1".into()));
    }

    #[test]
    fn corrupt_dictionary_mode_detected() {
        let col = utf8_col(&["a", "a", "a", "a"]);
        let mut buf = Vec::new();
        col.encode(&mut buf);
        // Find the mode byte and corrupt it.
        let mut pos = 0;
        let _ = Bitmap::read(&buf, &mut pos).unwrap();
        let _ = crate::encoding::read_varint(&buf, &mut pos).unwrap();
        buf[pos] = 9;
        let mut dpos = 0;
        assert!(ColumnData::decode(ColumnType::Utf8, &buf, &mut dpos).is_err());
    }
}
