//! Search ARGuments (SARGs): simplified predicates evaluated against
//! row-group statistics.
//!
//! A SARG never decides that a row *matches* — it only proves that an entire
//! row group *cannot* contain matching rows, so it can be skipped
//! ([`SearchArgument::keep_array`]), or that one decoded row cannot match,
//! so the remaining columns need not be decoded for it
//! ([`SearchArgument::select_rows`]). The soundness invariant (checked by the
//! `maxson-testkit` property tests `sarg_skipping_never_drops_qualifying_rows`
//! and `sarg_row_selection_never_drops_qualifying_rows` in the
//! workspace-level `tests/property_tests.rs`) is the same at both
//! granularities: nothing satisfying the predicate is ever dropped, and the
//! `Filter` above the scan still runs.

use std::cmp::Ordering;

use crate::cell::Cell;
use crate::column::ColumnData;
use crate::file::{ColumnStats, RowGroupStats};
use crate::schema::{ColumnType, Schema};

/// Comparison operators supported in SARGs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CmpOp {
    /// Render the SQL operator text.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::NotEq => "<>",
            CmpOp::Lt => "<",
            CmpOp::LtEq => "<=",
            CmpOp::Gt => ">",
            CmpOp::GtEq => ">=",
        }
    }
}

/// One atomic comparison: `column <op> literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct SargLeaf {
    /// Column index in the file schema.
    pub column: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub literal: Cell,
}

/// A conjunction of leaves (the only combination ORC SARGs push down that
/// Maxson's Algorithm 3 needs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchArgument {
    /// All leaves must be satisfiable for a row group to be kept.
    pub leaves: Vec<SargLeaf>,
}

impl SearchArgument {
    /// An empty SARG (keeps everything).
    pub fn new() -> Self {
        SearchArgument::default()
    }

    /// Add a `column <op> literal` conjunct.
    pub fn with(mut self, column: usize, op: CmpOp, literal: Cell) -> Self {
        self.leaves.push(SargLeaf {
            column,
            op,
            literal,
        });
        self
    }

    /// `true` when no leaves are present.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Evaluate against one row group: `true` = must read, `false` = can
    /// safely skip.
    pub fn row_group_may_match(&self, rg: &RowGroupStats) -> bool {
        self.leaves.iter().all(|leaf| {
            rg.columns
                .get(leaf.column)
                .is_none_or(|stats| leaf_may_match(leaf, stats, rg.row_count))
        })
    }

    /// Compute the keep array over an ordered row-group listing.
    pub fn keep_array<'a>(&self, row_groups: impl Iterator<Item = &'a RowGroupStats>) -> Vec<bool> {
        row_groups.map(|rg| self.row_group_may_match(rg)).collect()
    }

    /// The columns of `schema` (ascending, distinct) that
    /// [`SearchArgument::select_rows`] wants decoded: those under a leaf it
    /// can test row by row.
    pub fn row_test_columns(&self, schema: &Schema) -> Vec<usize> {
        let mut columns: Vec<usize> = self
            .leaves
            .iter()
            .filter(|leaf| {
                leaf.number().is_some()
                    && schema
                        .fields()
                        .get(leaf.column)
                        .is_some_and(|f| f.ty != ColumnType::Utf8)
            })
            .map(|leaf| leaf.column)
            .collect();
        columns.sort_unstable();
        columns.dedup();
        columns
    }

    /// Evaluate the leaves row by row over decoded columns — `data[i]`
    /// holds file column `columns[i]`, all of one length — and return the
    /// ascending indexes of the rows that may satisfy every leaf, or `None`
    /// when no leaf could be tested (every row is kept).
    ///
    /// A leaf is tested when its column is a decoded `Int64`, `Float64` or
    /// `Bool` column and its literal is one of those types, with the
    /// semantics of [`Cell::sql_cmp`]: both sides compare as `f64` and a
    /// NULL (or NaN) satisfies nothing. Any other leaf — a `Utf8` column,
    /// whose comparison depends on how each value parses, or a string or
    /// NULL literal — keeps every row, as a mixed row group does in
    /// [`SearchArgument::keep_array`].
    pub fn select_rows(&self, columns: &[usize], data: &[ColumnData]) -> Option<Vec<u32>> {
        let mut selected: Option<Vec<u32>> = None;
        for leaf in &self.leaves {
            let at = columns.iter().position(|&c| c == leaf.column);
            let (Some(literal), Some(column)) = (leaf.number(), at.map(|at| &data[at])) else {
                continue;
            };
            if column.column_type() == ColumnType::Utf8 {
                continue;
            }
            let passes = |row: &u32| {
                number_at(column, *row as usize)
                    .and_then(|v| v.partial_cmp(&literal))
                    .is_some_and(|ord| leaf.op.accepts(ord))
            };
            match &mut selected {
                Some(rows) => rows.retain(passes),
                None => selected = Some((0..column.len() as u32).filter(passes).collect()),
            }
        }
        selected
    }
}

impl CmpOp {
    /// Whether `column <op> literal` holds when the two compare as `ord`.
    fn accepts(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::NotEq => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::LtEq => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::GtEq => ord != Ordering::Less,
        }
    }
}

impl SargLeaf {
    /// The literal as `Cell::sql_cmp` sees it beside a numeric or boolean
    /// cell; `None` for the literals no row test is made against.
    fn number(&self) -> Option<f64> {
        match self.literal {
            Cell::Int(_) | Cell::Float(_) | Cell::Bool(_) => self.literal.coerce_f64(),
            Cell::Str(_) | Cell::Null => None,
        }
    }
}

/// Row `row` of a numeric or boolean column as `Cell::coerce_f64` would
/// give it; `None` for a NULL and for any string column.
fn number_at(column: &ColumnData, row: usize) -> Option<f64> {
    match column {
        ColumnData::Int64 { valid, values } => valid[row].then(|| values[row] as f64),
        ColumnData::Float64 { valid, values } => valid[row].then(|| values[row]),
        ColumnData::Bool { valid, values } => valid[row].then(|| f64::from(u8::from(values[row]))),
        ColumnData::Utf8 { .. } => None,
    }
}

/// Conservative satisfiability test of one leaf against column stats.
fn leaf_may_match(leaf: &SargLeaf, stats: &ColumnStats, row_count: usize) -> bool {
    // A group of only NULLs can never satisfy a comparison.
    let nulls = match stats {
        ColumnStats::Int { nulls, .. }
        | ColumnStats::Float { nulls, .. }
        | ColumnStats::Utf8 { nulls, .. }
        | ColumnStats::Bool { nulls, .. } => *nulls,
    };
    if nulls as usize >= row_count {
        return false;
    }
    match stats {
        ColumnStats::Int { min, max, .. } => {
            let (Some(min), Some(max)) = (*min, *max) else {
                return false;
            };
            let Some(lit) = leaf.literal.coerce_f64() else {
                // Non-numeric literal against an int column can never match,
                // except `<>` which matches every non-null row.
                return leaf.op == CmpOp::NotEq;
            };
            range_may_match(min as f64, max as f64, leaf.op, lit)
        }
        ColumnStats::Float { min, max, .. } => {
            let (Some(min), Some(max)) = (*min, *max) else {
                return false;
            };
            let Some(lit) = leaf.literal.coerce_f64() else {
                return leaf.op == CmpOp::NotEq;
            };
            range_may_match(min, max, leaf.op, lit)
        }
        ColumnStats::Utf8 {
            min,
            max,
            num_min,
            num_max,
            all_numeric,
            ..
        } => {
            // Numeric literal: use the numeric min/max when every value in
            // the group is numeric; otherwise we cannot prune soundly
            // (non-numeric strings compare lexicographically and interleave).
            if let Some(lit) = match &leaf.literal {
                Cell::Int(_) | Cell::Float(_) => leaf.literal.coerce_f64(),
                Cell::Str(s) => s.trim().parse::<f64>().ok(),
                _ => None,
            } {
                if *all_numeric {
                    let (Some(nmin), Some(nmax)) = (*num_min, *num_max) else {
                        return false;
                    };
                    return range_may_match(nmin, nmax, leaf.op, lit);
                }
                // Mixed group: keep (sound, not tight).
                return true;
            }
            // String literal against lexicographic min/max.
            let Cell::Str(lit) = &leaf.literal else {
                return true;
            };
            let (Some(min), Some(max)) = (min.as_deref(), max.as_deref()) else {
                return false;
            };
            str_range_may_match(min, max, leaf.op, lit)
        }
        ColumnStats::Bool {
            true_count,
            false_count,
            ..
        } => match (&leaf.literal, leaf.op) {
            (Cell::Bool(b), CmpOp::Eq) => {
                if *b {
                    *true_count > 0
                } else {
                    *false_count > 0
                }
            }
            (Cell::Bool(b), CmpOp::NotEq) => {
                if *b {
                    *false_count > 0
                } else {
                    *true_count > 0
                }
            }
            _ => true,
        },
    }
}

fn range_may_match(min: f64, max: f64, op: CmpOp, lit: f64) -> bool {
    match op {
        CmpOp::Eq => lit >= min && lit <= max,
        CmpOp::NotEq => !(min == max && min == lit),
        CmpOp::Lt => min < lit,
        CmpOp::LtEq => min <= lit,
        CmpOp::Gt => max > lit,
        CmpOp::GtEq => max >= lit,
    }
}

fn str_range_may_match(min: &str, max: &str, op: CmpOp, lit: &str) -> bool {
    match op {
        CmpOp::Eq => lit >= min && lit <= max,
        CmpOp::NotEq => !(min == max && min == lit),
        CmpOp::Lt => min < lit,
        CmpOp::LtEq => min <= lit,
        CmpOp::Gt => max > lit,
        CmpOp::GtEq => max >= lit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_rg(min: i64, max: i64, nulls: u64, rows: usize) -> RowGroupStats {
        RowGroupStats {
            row_count: rows,
            chunks: vec![(0, 0)],
            columns: vec![ColumnStats::Int {
                min: Some(min),
                max: Some(max),
                nulls,
            }],
        }
    }

    #[test]
    fn int_range_pruning() {
        let rg = int_rg(10, 20, 0, 100);
        let keep = |op, lit: i64| {
            SearchArgument::new()
                .with(0, op, Cell::Int(lit))
                .row_group_may_match(&rg)
        };
        assert!(keep(CmpOp::Eq, 15));
        assert!(!keep(CmpOp::Eq, 9));
        assert!(!keep(CmpOp::Eq, 21));
        assert!(!keep(CmpOp::Gt, 20));
        assert!(keep(CmpOp::Gt, 19));
        assert!(!keep(CmpOp::Lt, 10));
        assert!(keep(CmpOp::Lt, 11));
        assert!(keep(CmpOp::GtEq, 20));
        assert!(keep(CmpOp::LtEq, 10));
        assert!(!keep(CmpOp::GtEq, 21));
    }

    #[test]
    fn noteq_prunes_constant_groups_only() {
        let constant = int_rg(7, 7, 0, 10);
        let varied = int_rg(7, 9, 0, 10);
        let sarg = SearchArgument::new().with(0, CmpOp::NotEq, Cell::Int(7));
        assert!(!sarg.row_group_may_match(&constant));
        assert!(sarg.row_group_may_match(&varied));
    }

    #[test]
    fn all_null_groups_are_skipped() {
        let rg = RowGroupStats {
            row_count: 10,
            chunks: vec![(0, 0)],
            columns: vec![ColumnStats::Int {
                min: None,
                max: None,
                nulls: 10,
            }],
        };
        let sarg = SearchArgument::new().with(0, CmpOp::Gt, Cell::Int(0));
        assert!(!sarg.row_group_may_match(&rg));
    }

    #[test]
    fn conjunction_requires_all_leaves() {
        let rg = int_rg(10, 20, 0, 100);
        let sarg =
            SearchArgument::new()
                .with(0, CmpOp::Gt, Cell::Int(5))
                .with(0, CmpOp::Lt, Cell::Int(8));
        assert!(!sarg.row_group_may_match(&rg));
    }

    #[test]
    fn empty_sarg_keeps_everything() {
        let rg = int_rg(0, 0, 0, 1);
        assert!(SearchArgument::new().row_group_may_match(&rg));
    }

    fn utf8_stats(min: &str, max: &str, num: Option<(f64, f64)>, all_numeric: bool) -> ColumnStats {
        ColumnStats::Utf8 {
            min: Some(min.to_string()),
            max: Some(max.to_string()),
            num_min: num.map(|n| n.0),
            num_max: num.map(|n| n.1),
            all_numeric,
            nulls: 0,
        }
    }

    #[test]
    fn numeric_strings_prune_numerically() {
        let rg = RowGroupStats {
            row_count: 10,
            chunks: vec![(0, 0)],
            // Lexicographic range "10".."9" but numeric range 5..40.
            columns: vec![utf8_stats("10", "9", Some((5.0, 40.0)), true)],
        };
        let gt = |lit: i64| {
            SearchArgument::new()
                .with(0, CmpOp::Gt, Cell::Int(lit))
                .row_group_may_match(&rg)
        };
        assert!(gt(30));
        assert!(!gt(40));
        assert!(!gt(10_000)); // the Fig. 8 predicate `id > 10000`
    }

    #[test]
    fn mixed_string_groups_are_kept_for_numeric_literals() {
        let rg = RowGroupStats {
            row_count: 10,
            chunks: vec![(0, 0)],
            columns: vec![utf8_stats("abc", "zzz", None, false)],
        };
        let sarg = SearchArgument::new().with(0, CmpOp::Gt, Cell::Int(100));
        assert!(sarg.row_group_may_match(&rg), "must be conservative");
    }

    #[test]
    fn string_literal_lexicographic_pruning() {
        let rg = RowGroupStats {
            row_count: 10,
            chunks: vec![(0, 0)],
            columns: vec![utf8_stats("bb", "dd", None, false)],
        };
        let may = |op, lit: &str| {
            SearchArgument::new()
                .with(0, op, Cell::Str(lit.into()))
                .row_group_may_match(&rg)
        };
        assert!(may(CmpOp::Eq, "cc"));
        assert!(!may(CmpOp::Eq, "aa"));
        assert!(!may(CmpOp::Eq, "ee"));
        assert!(!may(CmpOp::Gt, "dd"));
        assert!(may(CmpOp::Lt, "bc"));
    }

    #[test]
    fn bool_stats_pruning() {
        let rg = RowGroupStats {
            row_count: 10,
            chunks: vec![(0, 0)],
            columns: vec![ColumnStats::Bool {
                true_count: 0,
                false_count: 10,
                nulls: 0,
            }],
        };
        let eq_true = SearchArgument::new().with(0, CmpOp::Eq, Cell::Bool(true));
        let eq_false = SearchArgument::new().with(0, CmpOp::Eq, Cell::Bool(false));
        assert!(!eq_true.row_group_may_match(&rg));
        assert!(eq_false.row_group_may_match(&rg));
    }

    #[test]
    fn keep_array_shape() {
        let groups = [
            int_rg(0, 5, 0, 10),
            int_rg(10, 20, 0, 10),
            int_rg(30, 40, 0, 10),
        ];
        let sarg = SearchArgument::new().with(0, CmpOp::Gt, Cell::Int(15));
        assert_eq!(sarg.keep_array(groups.iter()), vec![false, true, true]);
    }

    #[test]
    fn row_selection_follows_sql_cmp() {
        let col = |cells: &[Cell], ty| {
            let mut col = ColumnData::empty(ty);
            for c in cells {
                col.push(c, "c").unwrap();
            }
            col
        };
        let date = col(
            &[Cell::Int(3), Cell::Null, Cell::Int(7), Cell::Int(9)],
            ColumnType::Int64,
        );
        let score = col(
            &[
                Cell::Float(f64::NAN),
                Cell::Float(1.5),
                Cell::Float(2.0),
                Cell::Null,
            ],
            ColumnType::Float64,
        );
        let text = col(&["3", "x", "7", "9"].map(Cell::from), ColumnType::Utf8);
        let data = [date, score, text];
        let rows = |sarg: SearchArgument| sarg.select_rows(&[0, 1, 2], &data);
        let leaf = |c, op, lit| SearchArgument::new().with(c, op, lit);
        assert_eq!(rows(leaf(0, CmpOp::GtEq, Cell::Int(7))), Some(vec![2, 3]));
        // An integer column against a float literal compares as f64.
        assert_eq!(rows(leaf(0, CmpOp::Lt, Cell::Float(7.5))), Some(vec![0, 2]));
        // NULL and NaN satisfy nothing, `<>` included.
        assert_eq!(rows(leaf(0, CmpOp::NotEq, Cell::Int(7))), Some(vec![0, 3]));
        assert_eq!(rows(leaf(1, CmpOp::NotEq, Cell::Int(2))), Some(vec![1]));
        // Leaves conjoin.
        let both = leaf(0, CmpOp::Gt, Cell::Int(3)).with(1, CmpOp::LtEq, Cell::Int(2));
        assert_eq!(rows(both), Some(vec![2]));
        // String columns and string or NULL literals select nothing.
        assert_eq!(rows(leaf(2, CmpOp::Eq, Cell::Int(7))), None);
        assert_eq!(rows(leaf(0, CmpOp::Eq, Cell::from("7"))), None);
        assert_eq!(rows(leaf(0, CmpOp::Eq, Cell::Null)), None);
        // Nor does a leaf whose column was not decoded.
        assert_eq!(rows(leaf(5, CmpOp::Eq, Cell::Int(7))), None);

        let schema = Schema::new(vec![
            crate::schema::Field::new("date", ColumnType::Int64),
            crate::schema::Field::new("score", ColumnType::Float64),
            crate::schema::Field::new("text", ColumnType::Utf8),
        ])
        .unwrap();
        let sarg = leaf(1, CmpOp::Gt, Cell::Int(0))
            .with(2, CmpOp::Eq, Cell::Int(7))
            .with(0, CmpOp::Eq, Cell::from("7"))
            .with(1, CmpOp::Lt, Cell::Float(9.0))
            .with(9, CmpOp::Lt, Cell::Int(1));
        assert_eq!(sarg.row_test_columns(&schema), vec![1]);
    }

    #[test]
    fn unknown_column_index_keeps_group() {
        let rg = int_rg(0, 5, 0, 10);
        let sarg = SearchArgument::new().with(9, CmpOp::Eq, Cell::Int(1));
        assert!(sarg.row_group_may_match(&rg));
    }
}
