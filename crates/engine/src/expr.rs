//! Physical (resolved) expressions and their evaluation.
//!
//! Physical expressions reference input columns by *index* into the
//! operator's input schema. `GetJsonObject` is the expression where JSON
//! parsing happens — answered from the row's shared-parse slots
//! ([`crate::extract`]), whose parse time is charged to
//! [`ExecMetrics::parse`], which is how the engine reproduces the paper's
//! parse-cost measurements. Maxson's Algorithm 1 rewrite replaces
//! `GetJsonObject` nodes with plain `Column` references into cache-provided
//! slots, making the parse cost vanish.
//!
//! Integer arithmetic is Java `long` arithmetic, as in Spark's non-ANSI
//! mode: `+`, `-`, `*`, unary minus, `%` and `abs` wrap on overflow
//! (`i64::MIN % -1` is 0, `-i64::MIN` is `i64::MIN`), `%` takes the sign of
//! its left operand, and `/` is always a float division. A zero divisor
//! gives NULL. No integer operation panics.

use std::cmp::Ordering;

use maxson_json::JsonPath;
use maxson_storage::Cell;

use crate::error::{EngineError, Result};
use crate::extract::RowSlots;
use crate::metrics::ExecMetrics;
use crate::sql::ast::{BinaryOp, ScalarFunc};

/// How `get_json_object` parses records: the full-DOM "Jackson" baseline,
/// the structural-index "Mison" projector (Fig. 15's parser axis), or the
/// "Tape" projector (On-Demand style: one validating walk that answers
/// every wanted path, `maxson_json::tape::project`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JsonParserKind {
    /// Full recursive-descent DOM parse (SparkSQL's default Jackson).
    #[default]
    Jackson,
    /// Mison-style structural-index projection.
    Mison,
    /// On-demand projection: one validating walk per document answers
    /// every wanted path and materializes no unqueried subtree.
    Tape,
}

impl JsonParserKind {
    /// Human/bench-facing name ("jackson" / "mison" / "tape").
    pub fn name(&self) -> &'static str {
        match self {
            JsonParserKind::Jackson => "jackson",
            JsonParserKind::Mison => "mison",
            JsonParserKind::Tape => "tape",
        }
    }

    /// Parse a `MAXSON_PARSER` value (case-insensitive). `None` for
    /// unrecognized names.
    pub fn from_name(name: &str) -> Option<JsonParserKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "jackson" => Some(JsonParserKind::Jackson),
            "mison" => Some(JsonParserKind::Mison),
            "tape" => Some(JsonParserKind::Tape),
            _ => None,
        }
    }
}

/// A resolved physical expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by index.
    Column(usize),
    /// Constant.
    Literal(Cell),
    /// `get_json_object(input_column, path)` — the parse hot spot.
    GetJsonObject {
        /// Input column holding the JSON string.
        column: usize,
        /// Compiled JSONPath.
        path: JsonPath,
    },
    /// Binary operation with SQL NULL semantics.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical NOT (three-valued).
    Not(Box<Expr>),
    /// `IS NULL` / `IS NOT NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// `true` for IS NOT NULL.
        negated: bool,
    },
    /// Inclusive range test.
    Between {
        /// Operand.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// `expr [NOT] IN (values...)` with SQL NULL semantics.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// List members.
        items: Vec<Expr>,
        /// `true` for NOT IN.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` (`%` any run, `_` one char).
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// Pattern text.
        pattern: String,
        /// `true` for NOT LIKE.
        negated: bool,
    },
    /// A built-in scalar function.
    Function {
        /// Which function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Record every input-column index this expression reads into `out`.
    /// The batched scan pipeline uses this to materialize only the
    /// predicate's columns before the filter runs; rows the filter rejects
    /// never materialize the rest.
    pub fn collect_columns(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            Expr::Column(i) => {
                out.insert(*i);
            }
            Expr::Literal(_) => {}
            Expr::GetJsonObject { column, .. } => {
                out.insert(*column);
            }
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_columns(out),
            Expr::IsNull { expr, .. } => expr.collect_columns(out),
            Expr::Between { expr, low, high } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::InList { expr, items, .. } => {
                expr.collect_columns(out);
                for item in items {
                    item.collect_columns(out);
                }
            }
            Expr::Like { expr, .. } => expr.collect_columns(out),
            Expr::Function { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Evaluate against one row. JSON parse time is charged to `metrics`.
    /// A `GetJsonObject` over a string is answered from the shared-parse
    /// `slots`, which every caller builds from the expressions it
    /// evaluates; a call they do not cover (or `slots: None`) is an
    /// execution error, never a parse of its own.
    pub fn eval_with(
        &self,
        row: &[Cell],
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
        slots: Option<&RowSlots<'_>>,
    ) -> Result<Cell> {
        match self {
            Expr::Column(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| EngineError::exec(format!("column index {i} out of range"))),
            Expr::Literal(c) => Ok(c.clone()),
            Expr::GetJsonObject { column, path } => {
                let cell = row.get(*column).ok_or_else(|| {
                    EngineError::exec(format!("column index {column} out of range"))
                })?;
                let Cell::Str(json) = cell else {
                    return Ok(Cell::Null);
                };
                slots
                    .and_then(|slots| slots.get(json, *column, path, parser, metrics))
                    .map(|extracted| extracted.map_or(Cell::Null, Cell::from))
                    .ok_or_else(|| {
                        EngineError::exec(format!(
                            "get_json_object(#{column}, '{}') is not covered by the row's extractor",
                            path.text()
                        ))
                    })
            }
            Expr::Binary { left, op, right } => {
                let l = left.eval_with(row, parser, metrics, slots)?;
                let r = right.eval_with(row, parser, metrics, slots)?;
                eval_binary(&l, *op, &r)
            }
            Expr::Not(e) => match e.eval_with(row, parser, metrics, slots)? {
                Cell::Null => Ok(Cell::Null),
                c => Ok(Cell::Bool(!truthy(&c))),
            },
            Expr::IsNull { expr, negated } => {
                let v = expr.eval_with(row, parser, metrics, slots)?;
                Ok(Cell::Bool(v.is_null() != *negated))
            }
            Expr::Between { expr, low, high } => {
                let v = expr.eval_with(row, parser, metrics, slots)?;
                let lo = low.eval_with(row, parser, metrics, slots)?;
                let hi = high.eval_with(row, parser, metrics, slots)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        Ok(Cell::Bool(a != Ordering::Less && b != Ordering::Greater))
                    }
                    _ => Ok(Cell::Null),
                }
            }
            Expr::Neg(e) => match e.eval_with(row, parser, metrics, slots)? {
                Cell::Null => Ok(Cell::Null),
                Cell::Int(i) => Ok(Cell::Int(i.wrapping_neg())),
                Cell::Float(f) => Ok(Cell::Float(-f)),
                c => match c.coerce_f64() {
                    Some(f) => Ok(Cell::Float(-f)),
                    None => Ok(Cell::Null),
                },
            },
            Expr::InList {
                expr,
                items,
                negated,
            } => {
                let v = expr.eval_with(row, parser, metrics, slots)?;
                if v.is_null() {
                    return Ok(Cell::Null);
                }
                // SQL semantics: TRUE if any member equals; if none equals
                // but a member is NULL, the result is NULL.
                let mut saw_null = false;
                let mut found = false;
                for item in items {
                    let m = item.eval_with(row, parser, metrics, slots)?;
                    if m.is_null() {
                        saw_null = true;
                        continue;
                    }
                    if v.sql_cmp(&m) == Some(std::cmp::Ordering::Equal) {
                        found = true;
                        break;
                    }
                }
                Ok(if found {
                    Cell::Bool(!negated)
                } else if saw_null {
                    Cell::Null
                } else {
                    Cell::Bool(*negated)
                })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval_with(row, parser, metrics, slots)?;
                if v.is_null() {
                    return Ok(Cell::Null);
                }
                let text = v.render();
                let m = like_match(&text, pattern);
                Ok(Cell::Bool(m != *negated))
            }
            Expr::Function { func, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(a.eval_with(row, parser, metrics, slots)?);
                }
                Ok(eval_scalar(*func, &values))
            }
        }
    }

    /// Walk the tree (pre-order).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Not(e) | Expr::Neg(e) => e.walk(f),
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Between { expr, low, high } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::InList { expr, items, .. } => {
                expr.walk(f);
                for i in items {
                    i.walk(f);
                }
            }
            Expr::Like { expr, .. } => expr.walk(f),
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Column(_) | Expr::Literal(_) | Expr::GetJsonObject { .. } => {}
        }
    }

    /// Rewrite the tree bottom-up: `f` maps each node after its children
    /// were rewritten. This is the primitive Maxson's Algorithm 1 uses to
    /// swap `GetJsonObject` nodes for cache-slot column references.
    pub fn rewrite(self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let rewritten = match self {
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.rewrite(f)),
                op,
                right: Box::new(right.rewrite(f)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.rewrite(f))),
            Expr::Neg(e) => Expr::Neg(Box::new(e.rewrite(f))),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.rewrite(f)),
                negated,
            },
            Expr::Between { expr, low, high } => Expr::Between {
                expr: Box::new(expr.rewrite(f)),
                low: Box::new(low.rewrite(f)),
                high: Box::new(high.rewrite(f)),
            },
            Expr::InList {
                expr,
                items,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.rewrite(f)),
                items: items.into_iter().map(|i| i.rewrite(f)).collect(),
                negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.rewrite(f)),
                pattern,
                negated,
            },
            Expr::Function { func, args } => Expr::Function {
                func,
                args: args.into_iter().map(|a| a.rewrite(f)).collect(),
            },
            leaf => leaf,
        };
        f(rewritten)
    }

    /// Number of `GetJsonObject` nodes in the tree: the parses a naive
    /// evaluation of it pays per row.
    pub fn json_parse_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |node| {
            if matches!(node, Expr::GetJsonObject { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Indexes of all input columns referenced by the tree.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.walk(&mut |e| match e {
            Expr::Column(i) => cols.push(*i),
            Expr::GetJsonObject { column, .. } => cols.push(*column),
            _ => {}
        });
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

/// SQL LIKE matching: `%` matches any run (including empty), `_` exactly
/// one character. Case-sensitive, matching Hive's default. Two cursors: a
/// mismatch rewinds the pattern to just after the last `%`, which takes one
/// more character (an earlier `%` never needs revisiting): `O(text ×
/// pattern)` time, constant stack.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // `star`: the pattern index after the last `%`; `from`: where the
    // text it absorbs currently ends.
    let (mut ti, mut pi, mut star, mut from) = (0, 0, None, 0);
    while ti < t.len() {
        match p.get(pi) {
            Some('%') => (pi, star, from) = (pi + 1, Some(pi + 1), ti),
            Some(&c) if c == '_' || c == t[ti] => (pi, ti) = (pi + 1, ti + 1),
            _ => match star {
                Some(after) => (pi, from, ti) = (after, from + 1, from + 1),
                None => return false,
            },
        }
    }
    p[pi..].iter().all(|&c| c == '%')
}

/// Evaluate a built-in scalar function with Hive-leaning semantics.
fn eval_scalar(func: ScalarFunc, args: &[Cell]) -> Cell {
    match func {
        ScalarFunc::Length => match &args[0] {
            Cell::Null => Cell::Null,
            c => Cell::Int(c.render().chars().count() as i64),
        },
        ScalarFunc::Lower => match &args[0] {
            Cell::Null => Cell::Null,
            c => Cell::from(c.render().to_lowercase()),
        },
        ScalarFunc::Upper => match &args[0] {
            Cell::Null => Cell::Null,
            c => Cell::from(c.render().to_uppercase()),
        },
        ScalarFunc::Concat => {
            let mut out = String::new();
            for a in args {
                if a.is_null() {
                    return Cell::Null;
                }
                out.push_str(&a.render());
            }
            Cell::from(out)
        }
        ScalarFunc::Coalesce => args
            .iter()
            .find(|a| !a.is_null())
            .cloned()
            .unwrap_or(Cell::Null),
        ScalarFunc::Substr => {
            if args[0].is_null() {
                return Cell::Null;
            }
            let text = args[0].render();
            let chars: Vec<char> = text.chars().collect();
            let Some(start) = args[1].coerce_i64() else {
                return Cell::Null;
            };
            // 1-based; negative counts from the end (Hive).
            let begin = if start > 0 {
                (start - 1) as usize
            } else if start < 0 {
                chars.len().saturating_sub(start.unsigned_abs() as usize)
            } else {
                0
            };
            let len = match args.get(2) {
                Some(c) => match c.coerce_i64() {
                    Some(l) if l >= 0 => l as usize,
                    _ => return Cell::Null,
                },
                None => usize::MAX,
            };
            Cell::from(chars.iter().skip(begin).take(len).collect::<String>())
        }
        ScalarFunc::Abs => match args[0].coerce_f64() {
            None => Cell::Null,
            Some(f) => match &args[0] {
                Cell::Int(i) => Cell::Int(i.wrapping_abs()),
                _ => Cell::Float(f.abs()),
            },
        },
        ScalarFunc::Round => {
            let Some(x) = args[0].coerce_f64() else {
                return Cell::Null;
            };
            let digits = args.get(1).and_then(Cell::coerce_i64).unwrap_or(0);
            let factor = 10f64.powi(digits as i32);
            let rounded = (x * factor).round() / factor;
            if digits <= 0 {
                Cell::Int(rounded as i64)
            } else {
                Cell::Float(rounded)
            }
        }
    }
}

/// SQL truthiness: FALSE/NULL filter a row out; everything else passes.
pub fn truthy(cell: &Cell) -> bool {
    match cell {
        Cell::Bool(b) => *b,
        Cell::Null => false,
        Cell::Int(i) => *i != 0,
        Cell::Float(f) => *f != 0.0,
        Cell::Str(s) => !s.is_empty(),
    }
}

fn eval_binary(l: &Cell, op: BinaryOp, r: &Cell) -> Result<Cell> {
    use BinaryOp::*;
    match op {
        And => Ok(match (l, r) {
            // SQL three-valued logic.
            (Cell::Null, x) | (x, Cell::Null) => {
                if !x.is_null() && !truthy(x) {
                    Cell::Bool(false)
                } else {
                    Cell::Null
                }
            }
            (a, b) => Cell::Bool(truthy(a) && truthy(b)),
        }),
        Or => Ok(match (l, r) {
            (Cell::Null, x) | (x, Cell::Null) => {
                if !x.is_null() && truthy(x) {
                    Cell::Bool(true)
                } else {
                    Cell::Null
                }
            }
            (a, b) => Cell::Bool(truthy(a) || truthy(b)),
        }),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let Some(ord) = l.sql_cmp(r) else {
                return Ok(Cell::Null);
            };
            let b = match op {
                Eq => ord == Ordering::Equal,
                NotEq => ord != Ordering::Equal,
                Lt => ord == Ordering::Less,
                LtEq => ord != Ordering::Greater,
                Gt => ord == Ordering::Greater,
                GtEq => ord != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Cell::Bool(b))
        }
        Add | Sub | Mul | Div | Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Cell::Null);
            }
            // Integer arithmetic when both sides are exact ints (except Div).
            if let (Cell::Int(a), Cell::Int(b)) = (l, r) {
                return Ok(match op {
                    Add => Cell::Int(a.wrapping_add(*b)),
                    Sub => Cell::Int(a.wrapping_sub(*b)),
                    Mul => Cell::Int(a.wrapping_mul(*b)),
                    Div => {
                        if *b == 0 {
                            Cell::Null
                        } else {
                            Cell::Float(*a as f64 / *b as f64)
                        }
                    }
                    Mod => {
                        if *b == 0 {
                            Cell::Null
                        } else {
                            Cell::Int(a.wrapping_rem(*b))
                        }
                    }
                    _ => unreachable!(),
                });
            }
            let (Some(a), Some(b)) = (l.coerce_f64(), r.coerce_f64()) else {
                return Ok(Cell::Null);
            };
            Ok(match op {
                Add => Cell::Float(a + b),
                Sub => Cell::Float(a - b),
                Mul => Cell::Float(a * b),
                Div => {
                    if b == 0.0 {
                        Cell::Null
                    } else {
                        Cell::Float(a / b)
                    }
                }
                Mod => {
                    if b == 0.0 {
                        Cell::Null
                    } else {
                        Cell::Float(a % b)
                    }
                }
                _ => unreachable!(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(e: &Expr, row: &[Cell]) -> Cell {
        let mut m = ExecMetrics::default();
        e.eval_with(row, JsonParserKind::Jackson, &mut m, None)
            .unwrap()
    }

    fn bin(l: Expr, op: BinaryOp, r: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    /// Java `long` arithmetic, each expected value written from the rule
    /// in the module doc, not computed by the engine.
    #[test]
    fn integer_arithmetic_wraps_like_java_long() {
        use BinaryOp::{Add, Mod, Mul, Sub};
        let int = |i: i64| Expr::Literal(Cell::Int(i));
        let neg = |e: Expr| Expr::Neg(Box::new(e));
        let cases: [(Expr, Cell); 10] = [
            (bin(int(i64::MIN), Mod, int(-1)), Cell::Int(0)),
            (neg(int(i64::MIN)), Cell::Int(i64::MIN)),
            (bin(int(-7), Mod, int(3)), Cell::Int(-1)),
            (bin(int(7), Mod, int(-3)), Cell::Int(1)),
            (bin(int(7), Mod, int(0)), Cell::Null),
            (bin(int(i64::MIN), Mod, int(0)), Cell::Null),
            (bin(int(i64::MAX), Add, int(1)), Cell::Int(i64::MIN)),
            (bin(int(i64::MIN), Sub, int(1)), Cell::Int(i64::MAX)),
            (bin(int(i64::MIN), Mul, int(-1)), Cell::Int(i64::MIN)),
            (neg(int(i64::MAX)), Cell::Int(-i64::MAX)),
        ];
        for (e, want) in cases {
            assert_eq!(eval(&e, &[]), want, "{e:?}");
        }
    }

    #[test]
    fn column_and_literal() {
        let row = vec![Cell::Int(7), Cell::Str("x".into())];
        assert_eq!(eval(&Expr::Column(1), &row), Cell::Str("x".into()));
        assert_eq!(eval(&Expr::Literal(Cell::Int(3)), &row), Cell::Int(3));
        let mut m = ExecMetrics::default();
        assert!(Expr::Column(9)
            .eval_with(&row, JsonParserKind::Jackson, &mut m, None)
            .is_err());
    }

    fn json(column: usize, path: &str) -> Expr {
        Expr::GetJsonObject {
            column,
            path: JsonPath::parse(path).unwrap(),
        }
    }

    /// Evaluate `exprs` over `row` with one row's slots built from them.
    fn eval_over_slots(
        exprs: &[Expr],
        row: &[Cell],
        parser: JsonParserKind,
        m: &mut ExecMetrics,
    ) -> Vec<Cell> {
        let ex = crate::extract::JsonExtractor::from_exprs(exprs).unwrap();
        let slots = crate::extract::RowSlots::new(&ex);
        exprs
            .iter()
            .map(|e| e.eval_with(row, parser, m, Some(&slots)).unwrap())
            .collect()
    }

    #[test]
    fn get_json_object_charges_parse_time() {
        let row = vec![Cell::Str(r#"{"a": {"b": 42}}"#.into())];
        let e = [json(0, "$.a.b")];
        let mut m = ExecMetrics::default();
        for _ in 0..10 {
            let got = eval_over_slots(&e, &row, JsonParserKind::Jackson, &mut m);
            assert_eq!(got, vec![Cell::Str("42".into())]);
        }
        assert_eq!(m.parse_calls, 10);
        assert_eq!(m.docs_parsed, 10, "each row's slots parse once");
        assert!(m.parse > std::time::Duration::ZERO);
    }

    /// One row's slots answer every path over a column from one parse.
    #[test]
    fn eval_with_slots_shares_one_parse_across_paths() {
        let row = vec![Cell::Str(r#"{"a": {"b": 42}, "c": "x"}"#.into())];
        let exprs = [json(0, "$.a.b"), json(0, "$.c"), json(0, "$.missing")];
        for parser in [
            JsonParserKind::Jackson,
            JsonParserKind::Mison,
            JsonParserKind::Tape,
        ] {
            let mut m = ExecMetrics::default();
            let got = eval_over_slots(&exprs, &row, parser, &mut m);
            let want = vec![Cell::Str("42".into()), Cell::Str("x".into()), Cell::Null];
            assert_eq!(got, want, "{parser:?}");
            assert_eq!(m.parse_calls, 3, "{parser:?}");
            assert_eq!(m.docs_parsed, 1, "{parser:?}");
        }
    }

    #[test]
    fn both_parsers_agree() {
        let row = vec![Cell::Str(r#"{"a": {"b": "v"}, "n": 5}"#.into())];
        let exprs = [json(0, "$.a.b"), json(0, "$.n"), json(0, "$.missing")];
        let want = vec![Cell::Str("v".into()), Cell::Str("5".into()), Cell::Null];
        for parser in [
            JsonParserKind::Jackson,
            JsonParserKind::Mison,
            JsonParserKind::Tape,
        ] {
            let mut m = ExecMetrics::default();
            assert_eq!(
                eval_over_slots(&exprs, &row, parser, &mut m),
                want,
                "{parser:?}"
            );
        }
    }

    /// A `get_json_object` the row's slots do not cover is an error, not a
    /// parse of its own: nothing is charged.
    #[test]
    fn uncovered_json_call_is_an_error() {
        let doc = Cell::Str(r#"{"a": 1, "b": 2}"#.into());
        let row = vec![doc.clone(), doc];
        let covered = [json(0, "$.a")];
        let ex = crate::extract::JsonExtractor::from_exprs(&covered).unwrap();
        let slots = crate::extract::RowSlots::new(&ex);
        let mut m = ExecMetrics::default();
        // Another path of the covered column, the covered path of another.
        for e in [json(0, "$.b"), json(1, "$.a")] {
            assert!(e
                .eval_with(&row, JsonParserKind::Jackson, &mut m, Some(&slots))
                .is_err());
        }
        let err = covered[0]
            .eval_with(&row, JsonParserKind::Jackson, &mut m, None)
            .unwrap_err();
        assert!(err.to_string().contains("not covered"), "{err}");
        assert_eq!((m.parse_calls, m.docs_parsed), (0, 0));
    }

    #[test]
    fn json_on_null_or_non_string_is_null() {
        let e = Expr::GetJsonObject {
            column: 0,
            path: JsonPath::parse("$.a").unwrap(),
        };
        assert_eq!(eval(&e, &[Cell::Null]), Cell::Null);
        assert_eq!(eval(&e, &[Cell::Int(3)]), Cell::Null);
    }

    #[test]
    fn comparisons_and_nulls() {
        let lt = bin(Expr::Column(0), BinaryOp::Lt, Expr::Literal(Cell::Int(5)));
        assert_eq!(eval(&lt, &[Cell::Int(3)]), Cell::Bool(true));
        assert_eq!(eval(&lt, &[Cell::Int(7)]), Cell::Bool(false));
        assert_eq!(eval(&lt, &[Cell::Null]), Cell::Null);
    }

    #[test]
    fn three_valued_and_or() {
        let t = Expr::Literal(Cell::Bool(true));
        let f = Expr::Literal(Cell::Bool(false));
        let n = Expr::Literal(Cell::Null);
        assert_eq!(
            eval(&bin(f.clone(), BinaryOp::And, n.clone()), &[]),
            Cell::Bool(false)
        );
        assert_eq!(
            eval(&bin(t.clone(), BinaryOp::And, n.clone()), &[]),
            Cell::Null
        );
        assert_eq!(
            eval(&bin(t.clone(), BinaryOp::Or, n.clone()), &[]),
            Cell::Bool(true)
        );
        assert_eq!(
            eval(&bin(f.clone(), BinaryOp::Or, n.clone()), &[]),
            Cell::Null
        );
        assert_eq!(eval(&Expr::Not(Box::new(n)), &[]), Cell::Null);
        assert_eq!(eval(&Expr::Not(Box::new(t)), &[]), Cell::Bool(false));
    }

    #[test]
    fn arithmetic() {
        let add = bin(
            Expr::Literal(Cell::Int(2)),
            BinaryOp::Add,
            Expr::Literal(Cell::Int(3)),
        );
        assert_eq!(eval(&add, &[]), Cell::Int(5));
        let div = bin(
            Expr::Literal(Cell::Int(7)),
            BinaryOp::Div,
            Expr::Literal(Cell::Int(2)),
        );
        assert_eq!(eval(&div, &[]), Cell::Float(3.5));
        let div0 = bin(
            Expr::Literal(Cell::Int(7)),
            BinaryOp::Div,
            Expr::Literal(Cell::Int(0)),
        );
        assert_eq!(eval(&div0, &[]), Cell::Null);
        let mixed = bin(
            Expr::Literal(Cell::Str("4".into())),
            BinaryOp::Mul,
            Expr::Literal(Cell::Float(2.5)),
        );
        assert_eq!(eval(&mixed, &[]), Cell::Float(10.0));
        let bad = bin(
            Expr::Literal(Cell::Str("abc".into())),
            BinaryOp::Add,
            Expr::Literal(Cell::Int(1)),
        );
        assert_eq!(eval(&bad, &[]), Cell::Null);
    }

    #[test]
    fn between_inclusive() {
        let e = Expr::Between {
            expr: Box::new(Expr::Column(0)),
            low: Box::new(Expr::Literal(Cell::Int(2))),
            high: Box::new(Expr::Literal(Cell::Int(4))),
        };
        assert_eq!(eval(&e, &[Cell::Int(2)]), Cell::Bool(true));
        assert_eq!(eval(&e, &[Cell::Int(4)]), Cell::Bool(true));
        assert_eq!(eval(&e, &[Cell::Int(5)]), Cell::Bool(false));
        assert_eq!(eval(&e, &[Cell::Null]), Cell::Null);
    }

    #[test]
    fn is_null_tests() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::Column(0)),
            negated: false,
        };
        assert_eq!(eval(&e, &[Cell::Null]), Cell::Bool(true));
        assert_eq!(eval(&e, &[Cell::Int(1)]), Cell::Bool(false));
        let e = Expr::IsNull {
            expr: Box::new(Expr::Column(0)),
            negated: true,
        };
        assert_eq!(eval(&e, &[Cell::Int(1)]), Cell::Bool(true));
    }

    #[test]
    fn neg() {
        assert_eq!(
            eval(&Expr::Neg(Box::new(Expr::Literal(Cell::Int(3)))), &[]),
            Cell::Int(-3)
        );
        assert_eq!(
            eval(
                &Expr::Neg(Box::new(Expr::Literal(Cell::Str("2.5".into())))),
                &[]
            ),
            Cell::Float(-2.5)
        );
        assert_eq!(
            eval(&Expr::Neg(Box::new(Expr::Literal(Cell::Null))), &[]),
            Cell::Null
        );
    }

    #[test]
    fn rewrite_replaces_nodes() {
        let e = bin(
            Expr::GetJsonObject {
                column: 0,
                path: JsonPath::parse("$.x").unwrap(),
            },
            BinaryOp::Gt,
            Expr::Literal(Cell::Int(1)),
        );
        let rewritten = e.rewrite(&mut |node| match node {
            Expr::GetJsonObject { .. } => Expr::Column(5),
            other => other,
        });
        assert_eq!(
            rewritten,
            bin(Expr::Column(5), BinaryOp::Gt, Expr::Literal(Cell::Int(1)))
        );
    }

    #[test]
    fn referenced_columns_deduped() {
        let e = bin(
            Expr::Column(2),
            BinaryOp::Add,
            bin(
                Expr::Column(0),
                BinaryOp::Mul,
                Expr::GetJsonObject {
                    column: 2,
                    path: JsonPath::parse("$.a").unwrap(),
                },
            ),
        );
        assert_eq!(e.referenced_columns(), vec![0, 2]);
    }
}

#[cfg(test)]
mod new_op_tests {
    use super::*;

    fn eval(e: &Expr, row: &[Cell]) -> Cell {
        let mut m = ExecMetrics::default();
        e.eval_with(row, JsonParserKind::Jackson, &mut m, None)
            .unwrap()
    }

    fn in_list(expr: Expr, items: Vec<Cell>, negated: bool) -> Expr {
        Expr::InList {
            expr: Box::new(expr),
            items: items.into_iter().map(Expr::Literal).collect(),
            negated,
        }
    }

    #[test]
    fn in_list_semantics() {
        let e = in_list(Expr::Column(0), vec![Cell::Int(1), Cell::Int(2)], false);
        assert_eq!(eval(&e, &[Cell::Int(2)]), Cell::Bool(true));
        assert_eq!(eval(&e, &[Cell::Int(3)]), Cell::Bool(false));
        assert_eq!(eval(&e, &[Cell::Null]), Cell::Null);
        // Numeric-string coercion matches the comparison semantics.
        assert_eq!(eval(&e, &[Cell::Str("2".into())]), Cell::Bool(true));
    }

    #[test]
    fn in_list_null_member_gives_null_on_miss() {
        let e = in_list(Expr::Column(0), vec![Cell::Int(1), Cell::Null], false);
        assert_eq!(eval(&e, &[Cell::Int(1)]), Cell::Bool(true));
        assert_eq!(eval(&e, &[Cell::Int(9)]), Cell::Null);
        // NOT IN with a NULL member is never TRUE.
        let e = in_list(Expr::Column(0), vec![Cell::Int(1), Cell::Null], true);
        assert_eq!(eval(&e, &[Cell::Int(9)]), Cell::Null);
        assert_eq!(eval(&e, &[Cell::Int(1)]), Cell::Bool(false));
    }

    #[test]
    fn like_semantics() {
        let like = |pat: &str, negated| Expr::Like {
            expr: Box::new(Expr::Column(0)),
            pattern: pat.to_string(),
            negated,
        };
        assert_eq!(
            eval(&like("ba%", false), &[Cell::Str("banana".into())]),
            Cell::Bool(true)
        );
        assert_eq!(
            eval(&like("%na", false), &[Cell::Str("banana".into())]),
            Cell::Bool(true)
        );
        assert_eq!(
            eval(&like("b_n%", false), &[Cell::Str("banana".into())]),
            Cell::Bool(true)
        );
        assert_eq!(
            eval(&like("x%", false), &[Cell::Str("banana".into())]),
            Cell::Bool(false)
        );
        assert_eq!(
            eval(&like("x%", true), &[Cell::Str("banana".into())]),
            Cell::Bool(true)
        );
        assert_eq!(eval(&like("%", false), &[Cell::Null]), Cell::Null);
        // Non-string values match against their rendering.
        assert_eq!(
            eval(&like("12%", false), &[Cell::Int(123)]),
            Cell::Bool(true)
        );
    }

    #[test]
    fn like_match_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%%"));
        assert!(like_match("a%b", "a%b")); // literal % in text matched by wildcard
        assert!(like_match("héllo", "h_llo"));
    }

    /// Eight `%a` segments over 10,000 characters: a backtracking matcher
    /// tries every split point per `%` and never finishes; this one is a
    /// bounded sweep. `_` consumes one character, however many bytes.
    #[test]
    fn like_match_long_text_many_wildcards() {
        let text = "a".repeat(10_000);
        assert!(!like_match(&text, "%a%a%a%a%a%a%a%ab"));
        assert!(like_match(&text, "%a%a%a%a%a%a%a%a"));
        assert!(like_match(&format!("{text}b"), "%a%a%a%a%a%a%a%ab"));
        let wide = "é€😀".repeat(3_000);
        assert!(like_match(&wide, "%é_😀%é___%"));
        assert!(!like_match(&wide, "%é__%€"));
        assert!(like_match("é€😀", "___"));
        assert!(!like_match("é€😀", "____"));
        assert!(!like_match("é€😀", "__"));
    }

    #[test]
    fn rewrite_recurses_into_new_variants() {
        let e = Expr::InList {
            expr: Box::new(Expr::Column(0)),
            items: vec![Expr::Column(1)],
            negated: false,
        };
        let shifted = e.rewrite(&mut |n| match n {
            Expr::Column(i) => Expr::Column(i + 10),
            other => other,
        });
        let Expr::InList { expr, items, .. } = shifted else {
            panic!()
        };
        assert_eq!(*expr, Expr::Column(10));
        assert_eq!(items[0], Expr::Column(11));
    }
}
