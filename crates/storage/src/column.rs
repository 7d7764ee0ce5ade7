//! In-memory column vectors.

use std::sync::Arc;

use crate::cell::Cell;
use crate::encoding::{
    read_bitmap, read_f64, read_str, read_varint, rle_decode_i64, rle_encode_i64, write_bitmap,
    write_f64, write_str, write_varint,
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
                values.push(Arc::from(""));
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

    /// Encode into `out`. Layout: null bitmap, then type-specific stream.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ColumnData::Int64 { valid, values } => {
                write_bitmap(out, valid);
                rle_encode_i64(values, out);
            }
            ColumnData::Float64 { valid, values } => {
                write_bitmap(out, valid);
                write_varint(out, values.len() as u64);
                for &v in values {
                    write_f64(out, v);
                }
            }
            ColumnData::Utf8 { valid, values } => {
                write_bitmap(out, valid);
                write_varint(out, values.len() as u64);
                // Dictionary encoding (like ORC's DICTIONARY_V2) when the
                // column is repetitive enough to pay off; plain otherwise.
                let mut dict: Vec<&str> = Vec::new();
                let mut index_of: std::collections::HashMap<&str, usize> =
                    std::collections::HashMap::new();
                let mut indexes: Vec<i64> = Vec::with_capacity(values.len());
                for v in values {
                    let idx = *index_of.entry(v.as_ref()).or_insert_with(|| {
                        dict.push(v.as_ref());
                        dict.len() - 1
                    });
                    indexes.push(idx as i64);
                }
                let use_dict = !values.is_empty() && dict.len() * 2 <= values.len();
                if use_dict {
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
                write_bitmap(out, valid);
                write_bitmap(out, values);
            }
        }
    }

    /// Decode a column of `ty` from `buf`, advancing `pos`.
    pub fn decode(ty: ColumnType, buf: &[u8], pos: &mut usize) -> Result<Self> {
        let valid = read_bitmap(buf, pos)?;
        match ty {
            ColumnType::Int64 => {
                let values = rle_decode_i64(buf, pos)?;
                if values.len() != valid.len() {
                    return Err(StorageError::corrupt("int column length mismatch"));
                }
                Ok(ColumnData::Int64 { valid, values })
            }
            ColumnType::Float64 => {
                let n = read_varint(buf, pos)? as usize;
                if n != valid.len() {
                    return Err(StorageError::corrupt("float column length mismatch"));
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(read_f64(buf, pos)?);
                }
                Ok(ColumnData::Float64 { valid, values })
            }
            ColumnType::Utf8 => {
                let n = read_varint(buf, pos)? as usize;
                if n != valid.len() {
                    return Err(StorageError::corrupt("string column length mismatch"));
                }
                let mode = *buf
                    .get(*pos)
                    .ok_or_else(|| StorageError::corrupt("string stream mode truncated"))?;
                *pos += 1;
                let values = match mode {
                    0 => {
                        let mut values = Vec::with_capacity(n);
                        for _ in 0..n {
                            values.push(Arc::<str>::from(read_str(buf, pos)?));
                        }
                        values
                    }
                    1 => {
                        let dict_len = read_varint(buf, pos)? as usize;
                        let mut dict: Vec<Arc<str>> = Vec::with_capacity(dict_len);
                        for _ in 0..dict_len {
                            dict.push(Arc::from(read_str(buf, pos)?));
                        }
                        let indexes = rle_decode_i64(buf, pos)?;
                        if indexes.len() != n {
                            return Err(StorageError::corrupt("dictionary index count mismatch"));
                        }
                        // Rows sharing a dictionary entry share one
                        // allocation in memory too.
                        indexes
                            .into_iter()
                            .map(|i| {
                                usize::try_from(i)
                                    .ok()
                                    .and_then(|i| dict.get(i))
                                    .map(Arc::clone)
                                    .ok_or_else(|| {
                                        StorageError::corrupt("dictionary index out of range")
                                    })
                            })
                            .collect::<Result<Vec<Arc<str>>>>()?
                    }
                    m => {
                        return Err(StorageError::corrupt(format!(
                            "unknown string stream mode {m}"
                        )))
                    }
                };
                Ok(ColumnData::Utf8 { valid, values })
            }
            ColumnType::Bool => {
                let values = read_bitmap(buf, pos)?;
                if values.len() != valid.len() {
                    return Err(StorageError::corrupt("bool column length mismatch"));
                }
                Ok(ColumnData::Bool { valid, values })
            }
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
        let _ = crate::encoding::read_bitmap(&buf, &mut pos).unwrap();
        let _ = crate::encoding::read_varint(&buf, &mut pos).unwrap();
        assert_eq!(buf[pos], 0, "unique values must use the plain stream");
        let (back, _) = round_trip(&col);
        assert_eq!(back, col);
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
        let _ = crate::encoding::read_bitmap(&buf, &mut pos).unwrap();
        let _ = crate::encoding::read_varint(&buf, &mut pos).unwrap();
        buf[pos] = 9;
        let mut dpos = 0;
        assert!(ColumnData::decode(ColumnType::Utf8, &buf, &mut dpos).is_err());
    }
}
