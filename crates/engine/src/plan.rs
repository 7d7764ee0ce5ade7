//! The resolved (physical) query plan.
//!
//! Expressions are resolved to column indexes and the scan carries a
//! concrete [`ScanProvider`], so a `LogicalPlan` here corresponds to what
//! the paper calls the *physical plan* — the artifact Maxson's Algorithm 1
//! modifies before execution.

use std::fmt::Write as _;

use maxson_storage::Schema;

use crate::expr::Expr;
use crate::scan::ScanProvider;
use crate::sql::ast::AggFunc;

/// A resolved plan node. Children are boxed; the tree is executed bottom-up
/// by [`crate::exec::execute_plan_traced`].
#[derive(Debug)]
pub enum LogicalPlan {
    /// Leaf: produce rows from a provider.
    Scan {
        /// The row source (the Norc scan, plain or paired with a cache
        /// table, or a rewriter's own provider).
        provider: Box<dyn ScanProvider>,
    },
    /// Keep rows where `predicate` is true.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate over the input schema.
        predicate: Expr,
    },
    /// Evaluate expressions into a new schema.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output_name)` pairs.
        exprs: Vec<(Expr, String)>,
        /// Output schema (names + types inferred as Utf8-leaning).
        schema: Schema,
    },
    /// Hash aggregate.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by key expressions over the input schema.
        group_by: Vec<Expr>,
        /// Aggregate calls: `(function, argument)`; `None` arg = COUNT(*).
        aggs: Vec<(AggFunc, Option<Expr>)>,
        /// Output schema: group keys then aggregates.
        schema: Schema,
    },
    /// Inner hash equi-join.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Key expression over the left schema.
        left_key: Expr,
        /// Key expression over the right schema.
        right_key: Expr,
        /// Output schema: left fields then right fields.
        schema: Schema,
    },
    /// Sort by keys.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(key expression, ascending)` pairs.
        keys: Vec<(Expr, bool)>,
    },
    /// Truncate to the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows to emit.
        n: usize,
    },
    /// Deduplicate rows (SELECT DISTINCT), preserving first occurrence
    /// order.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// The output schema of this node.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { provider } => provider.schema(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
            LogicalPlan::Project { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Join { schema, .. } => schema,
        }
    }

    /// Indented one-node-per-line plan rendering (like `EXPLAIN`).
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.fmt_node(&mut out, 0);
        out
    }

    fn fmt_node(&self, out: &mut String, indent: usize) {
        for _ in 0..indent {
            out.push_str("  ");
        }
        match self {
            LogicalPlan::Scan { provider } => {
                let _ = writeln!(out, "Scan: {}", provider.label());
            }
            LogicalPlan::Filter { input, predicate } => {
                let _ = writeln!(out, "Filter: {predicate:?}");
                input.fmt_node(out, indent + 1);
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let names: Vec<&str> = exprs.iter().map(|(_, n)| n.as_str()).collect();
                let _ = writeln!(out, "Project: {names:?}");
                input.fmt_node(out, indent + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "Aggregate: {} keys, {} aggs",
                    group_by.len(),
                    aggs.len()
                );
                input.fmt_node(out, indent + 1);
            }
            LogicalPlan::Join { left, right, .. } => {
                let _ = writeln!(out, "HashJoin (inner)");
                left.fmt_node(out, indent + 1);
                right.fmt_node(out, indent + 1);
            }
            LogicalPlan::Sort { input, keys } => {
                let _ = writeln!(out, "Sort: {} keys", keys.len());
                input.fmt_node(out, indent + 1);
            }
            LogicalPlan::Limit { input, n } => {
                let _ = writeln!(out, "Limit: {n}");
                input.fmt_node(out, indent + 1);
            }
            LogicalPlan::Distinct { input } => {
                let _ = writeln!(out, "Distinct");
                input.fmt_node(out, indent + 1);
            }
        }
    }

    /// Count the `GetJsonObject` expressions remaining in the plan — after
    /// a Maxson rewrite this is the number of cache *misses* still paying
    /// parse cost.
    pub fn json_parse_expr_count(&self) -> usize {
        let count_expr = Expr::json_parse_count;
        match self {
            LogicalPlan::Scan { .. } => 0,
            LogicalPlan::Filter { input, predicate } => {
                count_expr(predicate) + input.json_parse_expr_count()
            }
            LogicalPlan::Project { input, exprs, .. } => {
                exprs.iter().map(|(e, _)| count_expr(e)).sum::<usize>()
                    + input.json_parse_expr_count()
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                ..
            } => {
                group_by.iter().map(count_expr).sum::<usize>()
                    + aggs
                        .iter()
                        .filter_map(|(_, a)| a.as_ref())
                        .map(count_expr)
                        .sum::<usize>()
                    + input.json_parse_expr_count()
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
                ..
            } => {
                count_expr(left_key)
                    + count_expr(right_key)
                    + left.json_parse_expr_count()
                    + right.json_parse_expr_count()
            }
            LogicalPlan::Sort { input, keys } => {
                keys.iter().map(|(e, _)| count_expr(e)).sum::<usize>()
                    + input.json_parse_expr_count()
            }
            LogicalPlan::Limit { input, .. } | LogicalPlan::Distinct { input } => {
                input.json_parse_expr_count()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_json::JsonPath;
    use maxson_storage::{Cell, ColumnType, Field};

    #[derive(Debug)]
    struct FakeProvider(Schema);

    impl ScanProvider for FakeProvider {
        fn schema(&self) -> &Schema {
            &self.0
        }
        fn scan_split(
            &self,
            _split: usize,
            _m: &mut crate::metrics::ExecMetrics,
        ) -> crate::error::Result<crate::scan::Columns> {
            crate::scan::Columns::from_rows(vec![], 1)
        }
        fn label(&self) -> String {
            "Fake".into()
        }
    }

    fn fake_scan() -> LogicalPlan {
        LogicalPlan::Scan {
            provider: Box::new(FakeProvider(
                Schema::new(vec![Field::new("a", ColumnType::Utf8)]).unwrap(),
            )),
        }
    }

    #[test]
    fn schema_passthrough() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(fake_scan()),
                predicate: Expr::Literal(Cell::Bool(true)),
            }),
            n: 5,
        };
        assert_eq!(plan.schema().fields()[0].name, "a");
    }

    #[test]
    fn display_is_indented() {
        let plan = LogicalPlan::Filter {
            input: Box::new(fake_scan()),
            predicate: Expr::Literal(Cell::Bool(true)),
        };
        let text = plan.display();
        assert!(text.starts_with("Filter"));
        assert!(text.contains("\n  Scan: Fake"));
    }

    #[test]
    fn json_expr_counting() {
        let jp = |p: &str| Expr::GetJsonObject {
            column: 0,
            path: JsonPath::parse(p).unwrap(),
        };
        let plan = LogicalPlan::Project {
            schema: Schema::new(vec![Field::new("x", ColumnType::Utf8)]).unwrap(),
            exprs: vec![(jp("$.a"), "x".into())],
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(fake_scan()),
                predicate: jp("$.b"),
            }),
        };
        assert_eq!(plan.json_parse_expr_count(), 2);
    }

    #[test]
    fn parse_expr_counting_spans_operators() {
        let jp = |p: &str| Expr::GetJsonObject {
            column: 0,
            path: JsonPath::parse(p).unwrap(),
        };
        // $.a appears three times (projection twice, filter once), $.b once:
        // four parse expressions.
        let plan = LogicalPlan::Project {
            schema: Schema::new(vec![Field::new("x", ColumnType::Utf8)]).unwrap(),
            exprs: vec![(jp("$.a"), "x".into()), (jp("$.a"), "y".into())],
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(fake_scan()),
                predicate: Expr::Binary {
                    left: Box::new(jp("$.a")),
                    op: crate::sql::ast::BinaryOp::Eq,
                    right: Box::new(jp("$.b")),
                },
            }),
        };
        assert_eq!(plan.json_parse_expr_count(), 4);
    }
}
