//! SQL abstract syntax tree.

use maxson_storage::Cell;

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// `SELECT DISTINCT` deduplicates the output rows.
    pub distinct: bool,
    /// Items of the SELECT list.
    pub items: Vec<SelectItem>,
    /// FROM clause (a table, optionally self-joined).
    pub from: TableRef,
    /// Optional INNER JOIN: `(table, on_left, on_right)`.
    pub join: Option<JoinClause>,
    /// WHERE predicate.
    pub where_clause: Option<SqlExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<SqlExpr>,
    /// HAVING predicate (post-aggregate filter).
    pub having: Option<SqlExpr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

/// One item of a SELECT list: expression plus optional alias, or `*`.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — every column of the input.
    Wildcard,
    /// `expr [AS alias]`.
    Expr {
        /// The expression.
        expr: SqlExpr,
        /// Explicit alias, if given.
        alias: Option<String>,
    },
}

/// A table reference `db.table [alias]` (db defaults to `default`).
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Database name.
    pub database: String,
    /// Table name.
    pub table: String,
    /// Optional alias used to qualify columns.
    pub alias: Option<String>,
}

/// An INNER JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined table.
    pub table: TableRef,
    /// Left side of the equi-join condition.
    pub on_left: SqlExpr,
    /// Right side of the equi-join condition.
    pub on_right: SqlExpr,
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort key expression.
    pub expr: SqlExpr,
    /// `true` for ascending (the default).
    pub asc: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(expr)` / `COUNT(*)`
    Count,
    /// `COUNT(DISTINCT expr)`
    CountDistinct,
    /// `SUM(expr)`
    Sum,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
    /// `AVG(expr)`
    Avg,
}

impl AggFunc {
    /// Parse a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            // COUNT(DISTINCT x) is recognized by the parser, not by name.
            "sum" => Some(AggFunc::Sum),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "avg" => Some(AggFunc::Avg),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::CountDistinct => "count_distinct",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `length(s)` — character count.
    Length,
    /// `lower(s)`.
    Lower,
    /// `upper(s)`.
    Upper,
    /// `concat(a, b, ...)` — NULL if any argument is NULL (Hive semantics).
    Concat,
    /// `coalesce(a, b, ...)` — first non-NULL argument.
    Coalesce,
    /// `substr(s, start [, len])` — 1-based, like Hive.
    Substr,
    /// `abs(x)`.
    Abs,
    /// `round(x [, digits])`.
    Round,
}

impl ScalarFunc {
    /// Parse a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name.to_ascii_lowercase().as_str() {
            "length" => ScalarFunc::Length,
            "lower" => ScalarFunc::Lower,
            "upper" => ScalarFunc::Upper,
            "concat" => ScalarFunc::Concat,
            "coalesce" => ScalarFunc::Coalesce,
            "substr" | "substring" => ScalarFunc::Substr,
            "abs" => ScalarFunc::Abs,
            "round" => ScalarFunc::Round,
            _ => return None,
        })
    }

    /// Valid argument-count range.
    pub fn arity(self) -> (usize, usize) {
        match self {
            ScalarFunc::Length | ScalarFunc::Lower | ScalarFunc::Upper | ScalarFunc::Abs => (1, 1),
            ScalarFunc::Concat | ScalarFunc::Coalesce => (1, usize::MAX),
            ScalarFunc::Substr => (2, 3),
            ScalarFunc::Round => (1, 2),
        }
    }
}

/// An expression as parsed from SQL (names unresolved).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Column reference, optionally qualified: `[alias.]name`.
    Column {
        /// Qualifier (table alias), if present.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal cell.
    Literal(Cell),
    /// `get_json_object(column_expr, 'jsonpath')`.
    GetJsonObject {
        /// The JSON string column argument.
        column: Box<SqlExpr>,
        /// JSONPath text as written.
        path: String,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<SqlExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<SqlExpr>,
    },
    /// `NOT expr`.
    Not(Box<SqlExpr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<SqlExpr>,
        /// `true` for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        /// The tested expression.
        expr: Box<SqlExpr>,
        /// Lower bound.
        low: Box<SqlExpr>,
        /// Upper bound.
        high: Box<SqlExpr>,
    },
    /// Aggregate call. `COUNT(*)` has `arg == None`.
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// Argument (None = `*`).
        arg: Option<Box<SqlExpr>>,
    },
    /// Unary minus.
    Neg(Box<SqlExpr>),
    /// `expr [NOT] IN (literal, ...)`.
    InList {
        /// The tested expression.
        expr: Box<SqlExpr>,
        /// List members.
        items: Vec<SqlExpr>,
        /// `true` for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` with `%` and `_` wildcards.
    Like {
        /// The tested expression.
        expr: Box<SqlExpr>,
        /// The pattern text.
        pattern: String,
        /// `true` for `NOT LIKE`.
        negated: bool,
    },
    /// A built-in scalar function call.
    Function {
        /// Which function.
        func: ScalarFunc,
        /// Arguments in order.
        args: Vec<SqlExpr>,
    },
}

impl SqlExpr {
    /// Walk the tree, calling `f` on every node (pre-order).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a SqlExpr)) {
        self.walk_pruned(&mut |e| {
            f(e);
            true
        });
    }

    /// Pre-order walk that descends into a node's children only when `f`
    /// returns `true` for it.
    pub(crate) fn walk_pruned<'a>(&'a self, f: &mut impl FnMut(&'a SqlExpr) -> bool) {
        if !f(self) {
            return;
        }
        match self {
            SqlExpr::GetJsonObject { column, .. } => column.walk_pruned(f),
            SqlExpr::Binary { left, right, .. } => {
                left.walk_pruned(f);
                right.walk_pruned(f);
            }
            SqlExpr::Not(e) | SqlExpr::Neg(e) => e.walk_pruned(f),
            SqlExpr::IsNull { expr, .. } => expr.walk_pruned(f),
            SqlExpr::Between { expr, low, high } => {
                expr.walk_pruned(f);
                low.walk_pruned(f);
                high.walk_pruned(f);
            }
            SqlExpr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.walk_pruned(f);
                }
            }
            SqlExpr::InList { expr, items, .. } => {
                expr.walk_pruned(f);
                for i in items {
                    i.walk_pruned(f);
                }
            }
            SqlExpr::Like { expr, .. } => expr.walk_pruned(f),
            SqlExpr::Function { args, .. } => {
                for a in args {
                    a.walk_pruned(f);
                }
            }
            SqlExpr::Column { .. } | SqlExpr::Literal(_) => {}
        }
    }

    /// The operands of a left/right-nested chain of one associative
    /// operator, left to right (`(a AND b) AND c` yields `a`, `b`, `c`); an
    /// expression that is not such a chain yields itself.
    pub(crate) fn chain(&self, op: BinaryOp) -> impl Iterator<Item = &SqlExpr> {
        let mut stack = vec![self];
        std::iter::from_fn(move || loop {
            match stack.pop()? {
                SqlExpr::Binary { left, op: o, right } if *o == op => {
                    stack.push(right);
                    stack.push(left);
                }
                operand => return Some(operand),
            }
        })
    }

    /// The top-level `AND` conjuncts of a predicate — the unit SARG
    /// pushdown and the canonical fingerprint both reason about.
    pub(crate) fn conjuncts(&self) -> impl Iterator<Item = &SqlExpr> {
        self.chain(BinaryOp::And)
    }

    /// `true` if the subtree contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, SqlExpr::Aggregate { .. }) {
                found = true;
            }
        });
        found
    }

    /// Collect the distinct `get_json_object` calls as
    /// `(column_name, path_text)`, in first-seen order: the parser's and
    /// this module's tests read what a statement extracts through it.
    /// Repeated calls on the same column/path are one extraction site, so
    /// they are reported once. Only direct column arguments are reported.
    #[cfg(test)]
    pub(crate) fn json_path_calls(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        self.walk(&mut |e| {
            if let SqlExpr::GetJsonObject { column, path } = e {
                if let SqlExpr::Column { name, .. } = column.as_ref() {
                    if !out.iter().any(|(c, p)| c == name && p == path) {
                        out.push((name.clone(), path.clone()));
                    }
                }
            }
        });
        out
    }

    /// A default output name for an unaliased select item (Hive-style).
    pub fn default_name(&self, position: usize) -> String {
        match self {
            SqlExpr::Column { name, .. } => name.clone(),
            SqlExpr::Aggregate { func, .. } => format!("{}_{position}", func.name()),
            _ => format!("_c{position}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_visits_all_nodes() {
        let e = SqlExpr::Binary {
            left: Box::new(SqlExpr::Column {
                qualifier: None,
                name: "a".into(),
            }),
            op: BinaryOp::Add,
            right: Box::new(SqlExpr::Not(Box::new(SqlExpr::Literal(Cell::Bool(true))))),
        };
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn json_path_calls_collected() {
        let e = SqlExpr::Binary {
            left: Box::new(SqlExpr::GetJsonObject {
                column: Box::new(SqlExpr::Column {
                    qualifier: None,
                    name: "logs".into(),
                }),
                path: "$.id".into(),
            }),
            op: BinaryOp::Gt,
            right: Box::new(SqlExpr::Literal(Cell::Int(10))),
        };
        assert_eq!(e.json_path_calls(), vec![("logs".into(), "$.id".into())]);
    }

    #[test]
    fn json_path_calls_dedupe_repeated_sites() {
        let call = |name: &str, path: &str| SqlExpr::GetJsonObject {
            column: Box::new(SqlExpr::Column {
                qualifier: None,
                name: name.into(),
            }),
            path: path.into(),
        };
        // `$.id` referenced twice on the same column is one extraction site;
        // the same path on another column is a different one.
        let e = SqlExpr::Binary {
            left: Box::new(SqlExpr::Binary {
                left: Box::new(call("logs", "$.id")),
                op: BinaryOp::Add,
                right: Box::new(call("logs", "$.id")),
            }),
            op: BinaryOp::Add,
            right: Box::new(call("events", "$.id")),
        };
        assert_eq!(
            e.json_path_calls(),
            vec![
                ("logs".into(), "$.id".into()),
                ("events".into(), "$.id".into()),
            ]
        );
    }

    #[test]
    fn aggregate_detection() {
        let agg = SqlExpr::Aggregate {
            func: AggFunc::Count,
            arg: None,
        };
        assert!(agg.contains_aggregate());
        let plain = SqlExpr::Literal(Cell::Int(1));
        assert!(!plain.contains_aggregate());
    }

    #[test]
    fn agg_func_names() {
        assert_eq!(AggFunc::from_name("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("nope"), None);
    }
}
