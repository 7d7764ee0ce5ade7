//! The planner: everything that turns a [`SelectStatement`] into a
//! [`LogicalPlan`].
//!
//! `plan` is a function of a catalog, an optional scan rewriter, a
//! parsed statement and the session's observers — no session, no lock, no
//! warehouse on disk — so planning is testable on its own. It owns the
//! two planning-time steps of Maxson's online half:
//!
//! * **Plan rewrite (Algorithm 1).** Every table scan is offered to the
//!   installed [`TableScanRewriter`] together with the `get_json_object`
//!   calls that run over it and the query predicate. The rewriter may name
//!   a cache table and the calls it serves; the calls it claims compile to
//!   plain column references (the paper's *placeholders*) instead of parse
//!   expressions. The rewriter contract ([`ScanContext`], [`CacheSide`],
//!   [`ScanRewrite`], [`TableScanRewriter`]) lives here because the
//!   planner is its only caller; `session` re-exports it under the old
//!   paths. The context also lends the rewriter the query's tracer,
//!   `planning` span and registry: a rewriter owns no observer.
//! * **The scan.** [`ScanContext::build_scan`] is the one place a Norc
//!   scan's reads are decided — the raw and cache projections, the output
//!   schema, the split count and the pushdown (Algorithm 3) — for the
//!   default scan and a Maxson-combined one alike. Its pushdown runs
//!   through `sarg::extract`, the one translator from predicate conjuncts
//!   to search arguments: it walks `SqlExpr::conjuncts`, recognises
//!   `lhs op literal`, `literal op lhs` (operator flipped) and
//!   `lhs BETWEEN literal AND literal`, checks the left-hand side's
//!   qualifier against the scan's alias, and places a plain column on the
//!   raw SARG and a cache-resolved `get_json_object` call on the cache
//!   SARG; anything else is left to the `Filter`.
//!
//! Expressions compile through one structural `SqlExpr` → [`Expr`]
//! recursion, `compile_expr`, whose leaf hook decides what a column, a
//! JSON call or an aggregate means: `Resolver` resolves them against a
//! scan (or join) schema, `post_agg_leaf` against an aggregate's output.

use maxson_json::JsonPath;
use maxson_obs::{Registry, SpanId, Tracer};
use maxson_storage::{Catalog, ColumnType, Field, Schema, Table};

use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::fingerprint::table_key;
use crate::plan::LogicalPlan;
use crate::scan::{NorcScanProvider, ScanProvider};
use crate::sql::ast::{AggFunc, SelectItem, SelectStatement, SqlExpr, TableRef};

/// Everything a [`TableScanRewriter`] gets to see about a scan being
/// planned.
#[derive(Debug)]
pub struct ScanContext<'a> {
    /// Database of the scanned table.
    pub database: &'a str,
    /// Name of the scanned table.
    pub table_name: &'a str,
    /// The scanned table, as the planner's catalog holds it: the snapshot
    /// the scan reads, and the one a rewriter judges cache validity by.
    pub table: &'a Table,
    /// Alias that qualified references to this scan carry: set for the two
    /// sides of a join, `None` for a single-table statement.
    pub alias: Option<&'a str>,
    /// Raw columns referenced as plain columns (must appear in the output).
    pub raw_columns: &'a [String],
    /// Deduplicated `get_json_object` calls over this table:
    /// `(column_name, jsonpath_text)`.
    pub json_calls: &'a [(String, String)],
    /// The WHERE clause, for predicate-pushdown decisions.
    pub predicate: Option<&'a SqlExpr>,
    /// The tracer a rewriter records its decision span into, below
    /// `planning` (the query's span; `None` outside a traced query).
    pub tracer: &'a Tracer,
    pub planning: Option<SpanId>,
    /// The warehouse's registry every rewrite decision is charged to.
    pub metrics: &'a Registry,
}

/// The cache side of a Maxson-combined scan: what a rewriter resolved.
#[derive(Debug, Clone, Copy)]
pub struct CacheSide<'a> {
    /// The cache table, aligned file by file with the raw table.
    pub table: &'a Table,
    /// `(column, path) -> cache field` for every call served from `table`.
    pub resolved: &'a [((String, String), String)],
    /// Turn predicate leaves into SARGs (Algorithm 3). Off, neither side
    /// gets one: the pushdown ablation.
    pub pushdown: bool,
}

impl ScanContext<'_> {
    /// The Norc scan of this table, plain or paired with `cache`: the one
    /// place a scan's reads are decided.
    ///
    /// * The raw projection is every plain column plus the JSON column of
    ///   every call `cache` does not resolve, in table order. A plain scan
    ///   that needs no column (`select count(*)`) reads the first one; a
    ///   paired scan that needs none reads the cache table alone.
    /// * The output schema is the raw fields, then the cache fields (each
    ///   resolved field once, in resolution order).
    /// * Predicate leaves over plain columns join the raw SARG, leaves over
    ///   resolved calls the cache SARG, both through `sarg::extract`.
    /// * A paired scan has one split per cache file.
    pub fn build_scan(&self, cache: Option<CacheSide<'_>>) -> Result<NorcScanProvider> {
        let schema = self.table.schema();
        let resolved = cache.map_or(&[][..], |c| c.resolved);
        let field_of = |column: &str, path: &str| {
            resolved
                .iter()
                .find(|((c, p), _)| c == column && p == path)
                .map(|(_, field)| field.as_str())
        };
        let mut columns: Vec<&str> = self.raw_columns.iter().map(String::as_str).collect();
        for (column, path) in self.json_calls {
            if field_of(column, path).is_none() && !columns.contains(&column.as_str()) {
                columns.push(column);
            }
        }
        if columns.is_empty() && cache.is_none() {
            columns.extend(schema.fields().first().map(|f| f.name.as_str()));
        }
        // Stable order: table schema order keeps plans deterministic.
        columns.sort_by_key(|c| schema.index_of(c));
        let projection: Vec<usize> = columns
            .iter()
            .map(|c| {
                schema.index_of(c).ok_or_else(|| {
                    EngineError::plan(format!(
                        "column '{c}' not found in {}.{}",
                        self.database, self.table_name
                    ))
                })
            })
            .collect::<Result<_>>()?;
        let (raw_sarg, cache_sarg) = match cache {
            Some(cache) if !cache.pushdown => (None, None),
            _ => sarg::extract(self.predicate, self.alias, |lhs| match lhs {
                sarg::Lhs::Column(name) => Some((sarg::Side::Raw, schema.index_of(name)?)),
                sarg::Lhs::JsonCall { column, path } => {
                    let index = cache?.table.schema().index_of(field_of(column, path)?)?;
                    Some((sarg::Side::Cache, index))
                }
            }),
        };
        let provider = NorcScanProvider::new(self.table.clone(), projection, raw_sarg)?;
        let Some(cache) = cache else {
            return Ok(provider);
        };
        let mut cache_projection: Vec<usize> = Vec::new();
        for (_, field) in resolved {
            let index = cache.table.schema().index_of(field).ok_or_else(|| {
                EngineError::plan(format!(
                    "cache field '{field}' missing in cache table {}",
                    cache.table.dir().display()
                ))
            })?;
            if !cache_projection.contains(&index) {
                cache_projection.push(index);
            }
        }
        provider.with_cache(cache.table.clone(), cache_projection, cache_sarg)
    }
}

/// The rewriter's answer: a replacement provider plus the JSONPath calls it
/// resolved to provider output columns.
pub struct ScanRewrite {
    /// The provider to scan instead of the default Norc reader. Its schema
    /// must contain every `raw_column`, the JSON column of every call *not*
    /// in `resolved_paths`, and one column per resolved path.
    pub provider: Box<dyn ScanProvider>,
    /// `(column_name, path_text) -> provider output column` for calls served
    /// without parsing.
    pub resolved_paths: Vec<((String, String), String)>,
}

/// Hook invoked for every table scan during planning (Algorithm 1's entry
/// point). Returning `None` keeps the default scan.
///
/// `Send + Sync` because installed rewriters live in the shared warehouse
/// state behind an `Arc`, consulted concurrently by every cloned session.
pub trait TableScanRewriter: Send + Sync {
    /// Human-readable name for plan display.
    fn name(&self) -> &str;
    /// Inspect the scan and optionally take it over.
    fn rewrite_scan(&self, ctx: &ScanContext<'_>) -> Result<Option<ScanRewrite>>;
}

/// What planning one statement yields.
pub(crate) struct Planned {
    pub(crate) plan: LogicalPlan,
    /// Visible output column names.
    pub(crate) names: Vec<String>,
    /// Deduplicated `(db.table, jsonpath)` pairs the scans evaluate (the
    /// workload-sketch attribution key).
    pub(crate) paths: Vec<(String, String)>,
}

/// A schema of `Utf8` columns with the given names. The engine is
/// value-typed at runtime, so every computed column is declared `Utf8`.
fn utf8_schema(names: impl IntoIterator<Item = impl Into<String>>) -> Result<Schema> {
    Schema::new(
        names
            .into_iter()
            .map(|n| Field::new(n, ColumnType::Utf8))
            .collect(),
    )
    .map_err(|e| EngineError::plan(e.to_string()))
}

/// Whether a reference carrying `qualifier` can mean the scan planned under
/// `alias`: a qualifier must equal the alias, an unqualified name is open.
fn qualifier_matches(qualifier: &Option<String>, alias: Option<&str>) -> bool {
    qualifier.as_deref().is_none_or(|q| alias == Some(q))
}

/// What every scan's rewriter is lent (see [`ScanContext`]).
#[derive(Clone, Copy)]
pub(crate) struct Observers<'a> {
    pub(crate) tracer: &'a Tracer,
    pub(crate) planning: Option<SpanId>,
    pub(crate) metrics: &'a Registry,
}

/// Compile `stmt` against `catalog`, offering every table scan to
/// `rewriter` under `observers`.
pub(crate) fn plan(
    catalog: &Catalog,
    rewriter: Option<&dyn TableScanRewriter>,
    stmt: &SelectStatement,
    observers: Observers<'_>,
) -> Result<Planned> {
    // 1. Gather every expression in the query (for column analysis).
    let mut exprs: Vec<&SqlExpr> = Vec::new();
    for item in &stmt.items {
        if let SelectItem::Expr { expr, .. } = item {
            exprs.push(expr);
        }
    }
    exprs.extend(&stmt.where_clause);
    exprs.extend(&stmt.having);
    exprs.extend(&stmt.group_by);
    exprs.extend(stmt.order_by.iter().map(|o| &o.expr));
    if let Some(j) = &stmt.join {
        exprs.push(&j.on_left);
        exprs.push(&j.on_right);
    }
    let mut scans = ScanPlanner {
        catalog,
        rewriter,
        observers,
        exprs,
        predicate: stmt.where_clause.as_ref(),
        wildcard: stmt.items.iter().any(|i| matches!(i, SelectItem::Wildcard)),
        paths: Vec::new(),
    };

    // 2. Build the input plan (scan or join of two scans).
    let (input, resolver) = match &stmt.join {
        None => scans.scan(&stmt.from, None)?,
        Some(join) => {
            let (lplan, lres) = scans.scan(&stmt.from, stmt.from.alias.as_deref())?;
            let (rplan, rres) = scans.scan(&join.table, join.table.alias.as_deref())?;
            let resolver = lres.join(rres)?;
            let left_key = resolver.compile(&join.on_left)?;
            // Right key compiles against the combined schema, then we
            // shift it back to right-side indexes.
            let right_key = shift_columns(resolver.compile(&join.on_right)?, resolver.left_fields)?;
            (
                LogicalPlan::Join {
                    left: Box::new(lplan),
                    right: Box::new(rplan),
                    left_key,
                    right_key,
                    schema: resolver.schema.clone(),
                },
                resolver,
            )
        }
    };

    // 3. WHERE.
    let mut plan = input;
    if let Some(w) = &stmt.where_clause {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: resolver.compile(w)?,
        };
    }

    // 4. Expand select items.
    let mut select_exprs: Vec<(SqlExpr, String)> = Vec::new();
    for (pos, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                // The table's own columns: a rewritten scan's output also
                // carries cache columns, which `*` does not name.
                let fields = match &stmt.join {
                    None => catalog
                        .table(&stmt.from.database, &stmt.from.table)?
                        .schema(),
                    Some(_) => &resolver.schema,
                };
                for f in fields.fields() {
                    select_exprs.push((
                        SqlExpr::Column {
                            qualifier: None,
                            name: f.name.clone(),
                        },
                        f.name.clone(),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.default_name(pos));
                select_exprs.push((expr.clone(), name));
            }
        }
    }

    // 5. ORDER BY items that don't match an output alias become hidden
    //    projected columns.
    let mut order_keys: Vec<(Expr, bool)> = Vec::new();
    let mut hidden = 0usize;
    for item in &stmt.order_by {
        // By alias or identical expression.
        let found = select_exprs.iter().position(|(e, name)| {
            e == &item.expr
                || matches!(
                    &item.expr,
                    SqlExpr::Column { qualifier: None, name: n } if n == name
                )
        });
        let idx = found.unwrap_or_else(|| {
            select_exprs.push((item.expr.clone(), format!("__order{hidden}")));
            hidden += 1;
            select_exprs.len() - 1
        });
        order_keys.push((Expr::Column(idx), item.asc));
    }
    let visible = select_exprs.len() - hidden;

    let has_aggs = !stmt.group_by.is_empty()
        || select_exprs.iter().any(|(e, _)| e.contains_aggregate())
        || stmt.having.is_some();
    if stmt.having.is_some() && stmt.group_by.is_empty() {
        return Err(EngineError::plan("HAVING requires GROUP BY".to_string()));
    }

    // 6. Aggregate + project, or plain project.
    let out_names: Vec<String> = select_exprs[..visible]
        .iter()
        .map(|(_, n)| n.clone())
        .collect();
    let exprs: Vec<(Expr, String)> = if has_aggs {
        // Collect aggregate calls across all select expressions (and
        // HAVING, which may use aggregates not in the SELECT list).
        let mut agg_calls: Vec<(AggFunc, Option<SqlExpr>)> = Vec::new();
        for e in select_exprs.iter().map(|(e, _)| e).chain(&stmt.having) {
            collect_aggs(e, &mut agg_calls);
        }
        // Aggregate output schema: keys then aggs.
        let nkeys = stmt.group_by.len();
        let schema = utf8_schema(
            (0..nkeys)
                .map(|i| format!("__key{i}"))
                .chain((0..agg_calls.len()).map(|i| format!("__agg{i}"))),
        )?;
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: stmt
                .group_by
                .iter()
                .map(|g| resolver.compile(g))
                .collect::<Result<_>>()?,
            aggs: agg_calls
                .iter()
                .map(|(f, arg)| Ok((*f, arg.as_ref().map(|a| resolver.compile(a)).transpose()?)))
                .collect::<Result<_>>()?,
            schema,
        };
        // HAVING and the post-aggregate projection are written in terms of
        // the aggregate output (keys then agg columns).
        let post_agg =
            |e: &SqlExpr| compile_expr(e, &|node| post_agg_leaf(node, &stmt.group_by, &agg_calls));
        if let Some(h) = &stmt.having {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: post_agg(h)?,
            };
        }
        select_exprs
            .iter()
            .map(|(e, n)| Ok((post_agg(e)?, n.clone())))
            .collect::<Result<_>>()?
    } else {
        select_exprs
            .iter()
            .map(|(e, n)| Ok((resolver.compile(e)?, n.clone())))
            .collect::<Result<_>>()?
    };
    plan = LogicalPlan::Project {
        input: Box::new(plan),
        schema: utf8_schema(exprs.iter().map(|(_, n)| n.as_str()))?,
        exprs,
    };

    // 7. Sort over the projected output.
    if !order_keys.is_empty() {
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys: order_keys,
        };
    }

    // 8. Strip hidden order-by columns.
    if hidden > 0 {
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: out_names
                .iter()
                .enumerate()
                .map(|(i, n)| (Expr::Column(i), n.clone()))
                .collect(),
            schema: utf8_schema(&out_names)?,
        };
    }

    // 9. DISTINCT deduplicates the visible output columns.
    if stmt.distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }

    // 10. LIMIT.
    if let Some(n) = stmt.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(Planned {
        plan,
        names: out_names,
        paths: scans.paths,
    })
}

/// The statement-wide inputs every table scan of one statement is planned
/// from, plus the `(db.table, path)` pairs the scans planned so far evaluate.
struct ScanPlanner<'a> {
    catalog: &'a Catalog,
    rewriter: Option<&'a dyn TableScanRewriter>,
    observers: Observers<'a>,
    /// Every expression of the statement.
    exprs: Vec<&'a SqlExpr>,
    /// The WHERE clause.
    predicate: Option<&'a SqlExpr>,
    /// `SELECT *` — every table column is part of the output.
    wildcard: bool,
    paths: Vec<(String, String)>,
}

impl ScanPlanner<'_> {
    /// Plan the scan of one table: analyse referenced columns and JSON
    /// calls, offer the scan to the rewriter, otherwise build the default
    /// Norc provider with SARG pushdown on raw columns.
    fn scan(
        &mut self,
        table_ref: &TableRef,
        alias: Option<&str>,
    ) -> Result<(LogicalPlan, Resolver)> {
        let table = self.catalog.table(&table_ref.database, &table_ref.table)?;
        let schema = table.schema();

        // Which references belong to this table? Qualified ones must match
        // the alias; unqualified ones match if the column exists here.
        let belongs = |qualifier: &Option<String>, name: &str| {
            qualifier_matches(qualifier, alias)
                && (qualifier.is_some() || schema.index_of(name).is_some())
        };
        // Plain column references and JSON calls, first-seen order. The
        // column argument of a call is not a plain reference: whether it is
        // read depends on the rewriter resolving the call.
        let mut raw_columns: Vec<String> = Vec::new();
        let mut json_calls: Vec<(String, String)> = Vec::new();
        for e in &self.exprs {
            e.walk_pruned(&mut |node| match node {
                SqlExpr::Column { qualifier, name } => {
                    if belongs(qualifier, name) && !raw_columns.contains(name) {
                        raw_columns.push(name.clone());
                    }
                    true
                }
                SqlExpr::GetJsonObject { column, path } => {
                    let SqlExpr::Column { qualifier, name } = column.as_ref() else {
                        return true;
                    };
                    let call = (name.clone(), path.clone());
                    if belongs(qualifier, name) && !json_calls.contains(&call) {
                        json_calls.push(call);
                    }
                    false
                }
                _ => true,
            });
        }
        if self.wildcard {
            // SELECT * — every table column is part of the output, a JSON
            // column the rewriter answers calls over from its cache too.
            for f in schema.fields() {
                if !raw_columns.contains(&f.name) {
                    raw_columns.push(f.name.clone());
                }
            }
        }

        // Record the `(db.table, path)` pairs this scan will evaluate, for
        // workload-sketch attribution at query end.
        let qualified = table_key(&table_ref.database, &table_ref.table);
        for (_, path) in &json_calls {
            let pair = (qualified.clone(), path.clone());
            if !self.paths.contains(&pair) {
                self.paths.push(pair);
            }
        }

        // Offer to the rewriter, otherwise scan the table plainly.
        let ctx = ScanContext {
            database: &table_ref.database,
            table_name: &table_ref.table,
            table,
            alias,
            raw_columns: &raw_columns,
            json_calls: &json_calls,
            predicate: self.predicate,
            tracer: self.observers.tracer,
            planning: self.observers.planning,
            metrics: self.observers.metrics,
        };
        let rewritten = self.rewriter.map(|rw| rw.rewrite_scan(&ctx)).transpose()?;
        let rewrite = match rewritten.flatten() {
            Some(rewrite) => rewrite,
            None => ScanRewrite {
                provider: Box::new(ctx.build_scan(None)?),
                resolved_paths: Vec::new(),
            },
        };
        let resolver = Resolver {
            schema: rewrite.provider.schema().clone(),
            alias: alias.map(str::to_string),
            resolved_paths: rewrite.resolved_paths,
            left_fields: 0,
        };
        let plan = LogicalPlan::Scan {
            provider: rewrite.provider,
        };
        Ok((plan, resolver))
    }
}

/// Predicate → [`SearchArgument`] translation (Algorithm 3), shared by the
/// default scan and every rewriter; see the module docs for the contract.
pub(crate) mod sarg {
    use maxson_storage::sarg::SargLeaf;
    use maxson_storage::{Cell, CmpOp, SearchArgument};

    use super::qualifier_matches;
    use crate::sql::ast::{BinaryOp, SqlExpr};

    /// The non-literal side of a pushable comparison, already checked
    /// against the scan's alias.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Lhs<'a> {
        /// A plain column reference.
        Column(&'a str),
        /// `get_json_object(column, path)`.
        JsonCall {
            /// The JSON column argument.
            column: &'a str,
            /// JSONPath text as written.
            path: &'a str,
        },
    }

    /// Which of a scan's two search arguments a leaf joins.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Side {
        /// The raw table's files.
        Raw,
        /// The cache table's files.
        Cache,
    }

    impl<'a> Lhs<'a> {
        fn of(e: &'a SqlExpr, alias: Option<&str>) -> Option<Self> {
            let column = |e: &'a SqlExpr| match e {
                SqlExpr::Column { qualifier, name } if qualifier_matches(qualifier, alias) => {
                    Some(name.as_str())
                }
                _ => None,
            };
            match e {
                SqlExpr::GetJsonObject { column: arg, path } => Some(Lhs::JsonCall {
                    column: column(arg)?,
                    path,
                }),
                _ => column(e).map(Lhs::Column),
            }
        }
    }

    fn comparison(op: BinaryOp) -> Option<CmpOp> {
        Some(match op {
            BinaryOp::Eq => CmpOp::Eq,
            BinaryOp::NotEq => CmpOp::NotEq,
            BinaryOp::Lt => CmpOp::Lt,
            BinaryOp::LtEq => CmpOp::LtEq,
            BinaryOp::Gt => CmpOp::Gt,
            BinaryOp::GtEq => CmpOp::GtEq,
            _ => return None,
        })
    }

    /// `literal op lhs` as `lhs op' literal`.
    fn mirrored(cmp: CmpOp) -> CmpOp {
        match cmp {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
            other => other,
        }
    }

    /// The `lhs op literal` leaves the predicate's conjuncts require, with
    /// a literal on the left flipped over and `BETWEEN` as its two bounds.
    fn leaves<'a>(
        predicate: &'a SqlExpr,
        alias: Option<&'a str>,
    ) -> impl Iterator<Item = (Lhs<'a>, CmpOp, &'a Cell)> {
        predicate.conjuncts().flat_map(move |conjunct| {
            let leaf = |lhs, cmp, lit| Some((Lhs::of(lhs, alias)?, cmp, lit));
            let found = match conjunct {
                SqlExpr::Binary { left, op, right } => {
                    match (comparison(*op), left.as_ref(), right.as_ref()) {
                        (Some(cmp), lhs, SqlExpr::Literal(lit)) => [leaf(lhs, cmp, lit), None],
                        (Some(cmp), SqlExpr::Literal(lit), rhs) => {
                            [leaf(rhs, mirrored(cmp), lit), None]
                        }
                        _ => [None, None],
                    }
                }
                SqlExpr::Between { expr, low, high } => match (low.as_ref(), high.as_ref()) {
                    (SqlExpr::Literal(lo), SqlExpr::Literal(hi)) => {
                        [leaf(expr, CmpOp::GtEq, lo), leaf(expr, CmpOp::LtEq, hi)]
                    }
                    _ => [None, None],
                },
                _ => [None, None],
            };
            found.into_iter().flatten()
        })
    }

    /// Translate `predicate` into `(raw, cache)` search arguments for the
    /// scan planned under `alias`. `place` maps each leaf's left-hand side
    /// to the side it constrains and the column index in that side's file
    /// schema; `None` leaves the conjunct to the `Filter` alone.
    pub(crate) fn extract(
        predicate: Option<&SqlExpr>,
        alias: Option<&str>,
        mut place: impl FnMut(Lhs<'_>) -> Option<(Side, usize)>,
    ) -> (Option<SearchArgument>, Option<SearchArgument>) {
        let mut raw = SearchArgument::new();
        let mut cache = SearchArgument::new();
        for (lhs, op, literal) in predicate.into_iter().flat_map(|p| leaves(p, alias)) {
            if let Some((side, column)) = place(lhs) {
                let sarg = match side {
                    Side::Raw => &mut raw,
                    Side::Cache => &mut cache,
                };
                sarg.leaves.push(SargLeaf {
                    column,
                    op,
                    literal: literal.clone(),
                });
            }
        }
        let non_empty = |s: SearchArgument| (!s.is_empty()).then_some(s);
        (non_empty(raw), non_empty(cache))
    }
}

/// Resolves SQL names to physical column indexes over a scan (or join)
/// output schema, honouring rewriter-resolved JSONPath placeholders.
#[derive(Debug)]
struct Resolver {
    schema: Schema,
    alias: Option<String>,
    /// `(column, path) -> output column name` from the scan rewrite.
    resolved_paths: Vec<((String, String), String)>,
    /// For joins: number of fields contributed by the left side.
    left_fields: usize,
}

impl Resolver {
    /// Merge two single-table resolvers into a join resolver.
    fn join(self, right: Resolver) -> Result<Resolver> {
        let prefix_l = self.alias.clone().unwrap_or_else(|| "l".into());
        let prefix_r = right.alias.clone().unwrap_or_else(|| "r".into());
        let mut fields = Vec::new();
        let mut resolved = Vec::new();
        for (prefix, side) in [(&prefix_l, &self), (&prefix_r, &right)] {
            for f in side.schema.fields() {
                fields.push(Field::new(format!("{prefix}.{}", f.name), f.ty));
            }
            for ((c, p), out) in &side.resolved_paths {
                resolved.push((
                    (format!("{prefix}.{c}"), p.clone()),
                    format!("{prefix}.{out}"),
                ));
            }
        }
        Ok(Resolver {
            schema: Schema::new(fields).map_err(|e| EngineError::plan(e.to_string()))?,
            alias: None,
            resolved_paths: resolved,
            left_fields: self.schema.len(),
        })
    }

    /// Index of `[qualifier.]name` in the resolver's schema.
    fn resolve_column(&self, qualifier: &Option<String>, name: &str) -> Result<usize> {
        if self.left_fields > 0 {
            // Join schema: names are "alias.column".
            if let Some(q) = qualifier {
                let qualified = format!("{q}.{name}");
                return self
                    .schema
                    .index_of(&qualified)
                    .ok_or_else(|| EngineError::plan(format!("unknown column '{qualified}'")));
            }
            // Unqualified in a join: unique suffix match.
            let matches: Vec<usize> = self
                .schema
                .fields()
                .iter()
                .enumerate()
                .filter(|(_, f)| f.name.ends_with(&format!(".{name}")))
                .map(|(i, _)| i)
                .collect();
            return match matches.as_slice() {
                [one] => Ok(*one),
                [] => Err(EngineError::plan(format!("unknown column '{name}'"))),
                _ => Err(EngineError::plan(format!("ambiguous column '{name}'"))),
            };
        }
        if let (Some(q), false) = (
            qualifier,
            qualifier_matches(qualifier, self.alias.as_deref()),
        ) {
            return Err(EngineError::plan(format!("unknown table qualifier '{q}'")));
        }
        self.schema
            .index_of(name)
            .ok_or_else(|| EngineError::plan(format!("unknown column '{name}'")))
    }

    /// Look up a rewriter-resolved JSONPath placeholder column.
    fn resolve_path(&self, qualifier: &Option<String>, column: &str, path: &str) -> Option<usize> {
        let key_column = if self.left_fields > 0 {
            let q = qualifier.as_deref()?;
            format!("{q}.{column}")
        } else {
            column.to_string()
        };
        self.resolved_paths
            .iter()
            .find(|((c, p), _)| *c == key_column && p == path)
            .and_then(|(_, out)| self.schema.index_of(out))
    }

    /// Compile an AST expression to a physical expression over this schema.
    fn compile(&self, e: &SqlExpr) -> Result<Expr> {
        compile_expr(e, &|node| self.leaf(node))
    }

    /// [`compile_expr`] hook: columns and JSON calls resolve against this
    /// schema; an aggregate has no place in a row-level expression.
    fn leaf(&self, e: &SqlExpr) -> Option<Result<Expr>> {
        Some(match e {
            SqlExpr::Column { qualifier, name } => {
                self.resolve_column(qualifier, name).map(Expr::Column)
            }
            SqlExpr::GetJsonObject { column, path } => self.json_call(column, path),
            SqlExpr::Aggregate { .. } => Err(EngineError::plan(
                "aggregate call in a non-aggregate position".to_string(),
            )),
            _ => return None,
        })
    }

    fn json_call(&self, column: &SqlExpr, path: &str) -> Result<Expr> {
        let SqlExpr::Column { qualifier, name } = column else {
            return Err(EngineError::plan(
                "get_json_object requires a column argument".to_string(),
            ));
        };
        // Algorithm 1, line 15: cache hit -> placeholder (a plain column
        // reference into the combined scan output).
        if let Some(idx) = self.resolve_path(qualifier, name, path) {
            return Ok(Expr::Column(idx));
        }
        let compiled_path = JsonPath::parse(path)
            .map_err(|err| EngineError::plan(format!("bad JSONPath '{path}': {err}")))?;
        Ok(Expr::GetJsonObject {
            column: self.resolve_column(qualifier, name)?,
            path: compiled_path,
        })
    }
}

/// The one structural `SqlExpr` → [`Expr`] recursion. `hook` sees every node
/// before its children: `Some` is the node's translation (or the reason it
/// has none) and ends the descent there, `None` lets the recursion compose
/// the node from its compiled children. Columns, JSON calls and aggregates
/// mean nothing without a schema, so the hook must answer all three.
fn compile_expr(e: &SqlExpr, hook: &impl Fn(&SqlExpr) -> Option<Result<Expr>>) -> Result<Expr> {
    if let Some(done) = hook(e) {
        return done;
    }
    let sub = |x: &SqlExpr| compile_expr(x, hook).map(Box::new);
    let list = |xs: &[SqlExpr]| -> Result<Vec<Expr>> {
        xs.iter().map(|x| compile_expr(x, hook)).collect()
    };
    Ok(match e {
        SqlExpr::Literal(c) => Expr::Literal(c.clone()),
        SqlExpr::Binary { left, op, right } => Expr::Binary {
            left: sub(left)?,
            op: *op,
            right: sub(right)?,
        },
        SqlExpr::Not(x) => Expr::Not(sub(x)?),
        SqlExpr::Neg(x) => Expr::Neg(sub(x)?),
        SqlExpr::IsNull { expr, negated } => Expr::IsNull {
            expr: sub(expr)?,
            negated: *negated,
        },
        SqlExpr::Between { expr, low, high } => Expr::Between {
            expr: sub(expr)?,
            low: sub(low)?,
            high: sub(high)?,
        },
        SqlExpr::InList {
            expr,
            items,
            negated,
        } => Expr::InList {
            expr: sub(expr)?,
            items: list(items)?,
            negated: *negated,
        },
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: sub(expr)?,
            pattern: pattern.clone(),
            negated: *negated,
        },
        SqlExpr::Function { func, args } => Expr::Function {
            func: *func,
            args: list(args)?,
        },
        SqlExpr::Column { .. } | SqlExpr::GetJsonObject { .. } | SqlExpr::Aggregate { .. } => {
            unreachable!("compile_expr hooks answer every column, JSON call and aggregate")
        }
    })
}

/// [`compile_expr`] hook for the post-aggregate space (HAVING and the
/// projection above an `Aggregate`): a group-by expression becomes its key
/// column, an aggregate call its agg column (keys first), and scalar
/// operations compose on top; any other column or JSON call is an error.
fn post_agg_leaf(
    e: &SqlExpr,
    group_by: &[SqlExpr],
    agg_calls: &[(AggFunc, Option<SqlExpr>)],
) -> Option<Result<Expr>> {
    if let Some(i) = group_by.iter().position(|g| g == e) {
        return Some(Ok(Expr::Column(i)));
    }
    let agg_column = match e {
        SqlExpr::Aggregate { func, arg } => agg_calls
            .iter()
            .position(|(f, a)| f == func && a.as_ref() == arg.as_deref()),
        SqlExpr::Column { .. } | SqlExpr::GetJsonObject { .. } => None,
        _ => return None,
    };
    Some(match agg_column {
        Some(j) => Ok(Expr::Column(group_by.len() + j)),
        None => Err(EngineError::plan(format!(
            "expression {e:?} must appear in GROUP BY or inside an aggregate"
        ))),
    })
}

/// Shift all column references in an expression down by `offset` (used to
/// re-base the join's right key from the combined schema to the right-side
/// row).
fn shift_columns(e: Expr, offset: usize) -> Result<Expr> {
    let mut failed = false;
    let mut shift = |i: usize| {
        failed |= i < offset;
        i.saturating_sub(offset)
    };
    let shifted = e.rewrite(&mut |node| match node {
        Expr::Column(i) => Expr::Column(shift(i)),
        Expr::GetJsonObject { column, path } => Expr::GetJsonObject {
            column: shift(column),
            path,
        },
        other => other,
    });
    if failed {
        Err(EngineError::plan(
            "join ON right side references left table columns".to_string(),
        ))
    } else {
        Ok(shifted)
    }
}

/// Collect aggregate calls left-to-right (deduplicated structurally).
fn collect_aggs(e: &SqlExpr, out: &mut Vec<(AggFunc, Option<SqlExpr>)>) {
    e.walk(&mut |node| {
        if let SqlExpr::Aggregate { func, arg } = node {
            let call = (*func, arg.as_ref().map(|a| a.as_ref().clone()));
            if !out.contains(&call) {
                out.push(call);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::BinaryOp;
    use crate::sql::parse_select;
    use maxson_storage::{Cell, CmpOp, SearchArgument};

    fn predicate(text: &str) -> SqlExpr {
        let stmt = parse_select(&format!("select id from db.t where {text}")).unwrap();
        stmt.where_clause.unwrap()
    }

    fn expr(text: &str) -> SqlExpr {
        let stmt = parse_select(&format!("select {text} from db.t")).unwrap();
        match stmt.items.into_iter().next().unwrap() {
            SelectItem::Expr { expr, .. } => expr,
            SelectItem::Wildcard => panic!("{text} is not an expression"),
        }
    }

    fn raw_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("k", ColumnType::Int64),
            Field::new("payload", ColumnType::Utf8),
        ])
        .unwrap()
    }

    type Leaves = Vec<(usize, CmpOp, Cell)>;

    fn leaves_of(sarg: Option<SearchArgument>) -> Leaves {
        sarg.map_or_else(Vec::new, |s| {
            s.leaves
                .into_iter()
                .map(|l| (l.column, l.op, l.literal))
                .collect()
        })
    }

    /// `db.t(id, k, payload)` with no part file, and a cache table
    /// `(other, payload_p)` of two one-row files serving `$.p`.
    struct Tables {
        root: std::path::PathBuf,
        raw: Table,
        cache: Table,
    }

    impl Tables {
        fn new(name: &str) -> Self {
            use std::time::{SystemTime, UNIX_EPOCH};
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap()
                .subsec_nanos();
            let root = std::env::temp_dir().join(format!(
                "maxson-planner-{}-{nanos}-{name}",
                std::process::id()
            ));
            let raw = Table::create(root.join("raw"), raw_schema(), 0).unwrap();
            let mut cache = Table::create(
                root.join("cache"),
                utf8_schema(["other", "payload_p"]).unwrap(),
                0,
            )
            .unwrap();
            for _ in 0..2 {
                let row = vec![Cell::from("o"), Cell::from("p")];
                cache.append_file(&[row], Default::default(), 1).unwrap();
            }
            Tables { root, raw, cache }
        }

        /// The scan the builder makes of `calls` and plain `columns` under
        /// `predicate`, plain or served from the cache table.
        fn scan(
            &self,
            columns: &[&str],
            calls: &[&str],
            predicate: Option<&SqlExpr>,
            alias: Option<&str>,
            cache: Option<bool>,
        ) -> NorcScanProvider {
            let raw_columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
            let json_calls: Vec<(String, String)> = calls
                .iter()
                .map(|p| ("payload".to_string(), p.to_string()))
                .collect();
            let resolved = [(("payload".into(), "$.p".into()), "payload_p".into())];
            let ctx = ScanContext {
                database: "db",
                table_name: "t",
                table: &self.raw,
                alias,
                raw_columns: &raw_columns,
                json_calls: &json_calls,
                predicate,
                tracer: &Tracer::disabled(),
                planning: None,
                metrics: &Registry::new(),
            };
            ctx.build_scan(cache.map(|pushdown| CacheSide {
                table: &self.cache,
                resolved: &resolved,
                pushdown,
            }))
            .unwrap()
        }
    }

    impl Drop for Tables {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.root).ok();
        }
    }

    /// The SARG leaves of the raw and of the cache side of a scan.
    fn sargs(scan: &NorcScanProvider) -> (Leaves, Leaves) {
        let ((_, raw), cache) = scan.parts();
        (leaves_of(raw), leaves_of(cache.and_then(|(_, s)| s)))
    }

    #[test]
    fn sarg_translator_table() {
        use CmpOp::*;
        let int = Cell::Int;
        let call = "get_json_object(payload, '$.p')";
        // (predicate, alias, raw leaves, cache leaves)
        let cases: Vec<(String, Option<&str>, Leaves, Leaves)> = vec![
            // Each comparison operator.
            ("k = 1".into(), None, vec![(1, Eq, int(1))], vec![]),
            ("k <> 1".into(), None, vec![(1, NotEq, int(1))], vec![]),
            ("k < 1".into(), None, vec![(1, Lt, int(1))], vec![]),
            ("k <= 1".into(), None, vec![(1, LtEq, int(1))], vec![]),
            ("k > 1".into(), None, vec![(1, Gt, int(1))], vec![]),
            ("k >= 1".into(), None, vec![(1, GtEq, int(1))], vec![]),
            // A literal on the left flips the operator.
            ("5 = k".into(), None, vec![(1, Eq, int(5))], vec![]),
            ("5 <> k".into(), None, vec![(1, NotEq, int(5))], vec![]),
            ("5 < k".into(), None, vec![(1, Gt, int(5))], vec![]),
            ("5 <= k".into(), None, vec![(1, GtEq, int(5))], vec![]),
            ("5 > k".into(), None, vec![(1, Lt, int(5))], vec![]),
            ("5 >= k".into(), None, vec![(1, LtEq, int(5))], vec![]),
            (
                "k between 2 and 4".into(),
                None,
                vec![(1, GtEq, int(2)), (1, LtEq, int(4))],
                vec![],
            ),
            // Not a conjunct of comparisons against literals: left to the Filter.
            ("k < 3 or k > 7".into(), None, vec![], vec![]),
            ("k < id".into(), None, vec![], vec![]),
            ("k between id and 4".into(), None, vec![], vec![]),
            ("k + 1 > 2".into(), None, vec![], vec![]),
            ("missing = 1".into(), None, vec![], vec![]),
            // Alias: matching, non-matching, absent on either side.
            ("a.k < 3".into(), Some("a"), vec![(1, Lt, int(3))], vec![]),
            ("b.k < 3".into(), Some("a"), vec![], vec![]),
            ("a.k < 3".into(), None, vec![], vec![]),
            ("k < 3".into(), Some("a"), vec![(1, Lt, int(3))], vec![]),
            // JSON calls: resolved, unresolved, and under an alias.
            (format!("{call} > 9"), None, vec![], vec![(1, Gt, int(9))]),
            (format!("9 > {call}"), None, vec![], vec![(1, Lt, int(9))]),
            (
                format!("{call} between 1 and 9"),
                None,
                vec![],
                vec![(1, GtEq, int(1)), (1, LtEq, int(9))],
            ),
            (
                "get_json_object(payload, '$.q') > 9".into(),
                None,
                vec![],
                vec![],
            ),
            (
                "get_json_object(a.payload, '$.p') > 9".into(),
                Some("a"),
                vec![],
                vec![(1, Gt, int(9))],
            ),
            (
                "get_json_object(b.payload, '$.p') > 9".into(),
                Some("a"),
                vec![],
                vec![],
            ),
            // Every pushable conjunct of a chain, in order, on its own side.
            (
                format!("k < 3 and ({call} = 'x' and id + 1 > 2) and 7 >= id"),
                None,
                vec![(1, Lt, int(3)), (0, LtEq, int(7))],
                vec![(1, Eq, Cell::from("x"))],
            ),
        ];
        let tables = Tables::new("sargs");
        let calls = ["$.p", "$.q"];
        for (text, alias, raw, cache) in cases {
            let p = predicate(&text);
            // The plain scan pushes raw columns only...
            let plain = tables.scan(&["id"], &calls, Some(&p), alias, None);
            assert_eq!(
                sargs(&plain),
                (raw.clone(), vec![]),
                "plain: {text} under {alias:?}"
            );
            // ...a scan paired with the cache both sides, through the same walk.
            let paired = tables.scan(&["id"], &calls, Some(&p), alias, Some(true));
            assert_eq!(
                sargs(&paired),
                (raw, cache),
                "paired: {text} under {alias:?}"
            );
        }
        let plain = tables.scan(&["id"], &calls, None, None, None);
        assert_eq!(sargs(&plain), (vec![], vec![]));
    }

    /// The builder's four shapes: each decides the projections, the field
    /// order, the side each SARG leaf lands on and the split count; with
    /// pushdown off, a paired scan builds neither SARG.
    #[test]
    fn scan_builder_shapes() {
        use CmpOp::*;
        let tables = Tables::new("shapes");
        let p = predicate("k < 3 and get_json_object(payload, '$.p') > 9");
        let names = |scan: &NorcScanProvider| -> Vec<String> {
            scan.schema()
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .collect()
        };
        let k_leaf = vec![(1, Lt, Cell::Int(3))];
        let p_leaf = vec![(1, Gt, Cell::Int(9))];

        // Plain: the plain columns and the JSON column, raw leaves only.
        let plain = tables.scan(&["k"], &["$.p"], Some(&p), None, None);
        assert_eq!(plain.parts().0 .0, [1, 2]);
        assert!(plain.parts().1.is_none());
        assert_eq!(names(&plain), ["k", "payload"]);
        assert_eq!(sargs(&plain), (k_leaf.clone(), vec![]));
        assert_eq!(plain.split_count(), 0, "one split per raw file");
        assert!(plain.label().starts_with("NorcScan("));

        // Plain `count(*)`: no column referenced, the first one read.
        let count = tables.scan(&[], &[], None, None, None);
        assert_eq!(count.parts().0 .0, [0]);
        assert_eq!(names(&count), ["id"]);

        // Combined: the unresolved `$.q` keeps `payload` on the raw side,
        // the resolved `$.p` is read from the cache, after the raw fields.
        let combined = tables.scan(&["k"], &["$.p", "$.q"], Some(&p), None, Some(true));
        let ((raw, _), cache) = combined.parts();
        assert_eq!(raw, [1, 2]);
        assert_eq!(cache.unwrap().0, [1]);
        assert_eq!(names(&combined), ["k", "payload", "payload_p"]);
        assert_eq!(sargs(&combined), (k_leaf, p_leaf.clone()));
        assert_eq!(combined.split_count(), 2, "one split per cache file");
        assert!(!combined.is_cache_only());

        // Cache-only: every call resolved and no plain column.
        let p = predicate("get_json_object(payload, '$.p') > 9");
        let cache_only = tables.scan(&[], &["$.p"], Some(&p), None, Some(true));
        assert_eq!(cache_only.parts().0 .0, Vec::<usize>::new());
        assert_eq!(names(&cache_only), ["payload_p"]);
        assert_eq!(sargs(&cache_only), (vec![], p_leaf));
        assert!(cache_only.is_cache_only());
        assert!(cache_only.label().ends_with(", cache_sarg, cache-only)"));

        // Pushdown off: neither side gets a SARG.
        let p = predicate("k < 3 and get_json_object(payload, '$.p') > 9");
        let unpushed = tables.scan(&["k"], &["$.p"], Some(&p), None, Some(false));
        assert_eq!(sargs(&unpushed), (vec![], vec![]));
        assert_eq!(names(&unpushed), ["k", "payload_p"]);
    }

    #[test]
    fn conjuncts_flatten_left_and_right_nested_ands() {
        let texts =
            |p: &SqlExpr| -> Vec<String> { p.conjuncts().map(|c| format!("{c:?}")).collect() };
        let flat = [
            predicate("k = 1"),
            predicate("k = 2"),
            predicate("k = 3 or k = 4"),
        ]
        .map(|c| format!("{c:?}"));
        assert_eq!(
            texts(&predicate("(k = 1 and k = 2) and (k = 3 or k = 4)")),
            flat
        );
        assert_eq!(
            texts(&predicate("k = 1 and (k = 2 and (k = 3 or k = 4))")),
            flat
        );
        // Not a chain: the expression itself; another operator's chain.
        assert_eq!(predicate("k = 1").conjuncts().count(), 1);
        assert_eq!(predicate("k = 1 or k = 2 or k = 3").conjuncts().count(), 1);
        assert_eq!(
            predicate("k = 1 or k = 2 or k = 3")
                .chain(BinaryOp::Or)
                .count(),
            3
        );
    }

    fn scan_resolver(alias: Option<&str>) -> Resolver {
        Resolver {
            schema: raw_schema(),
            alias: alias.map(str::to_string),
            resolved_paths: Vec::new(),
            left_fields: 0,
        }
    }

    fn plan_error(result: Result<Expr>) -> String {
        result.unwrap_err().to_string()
    }

    #[test]
    fn resolver_reports_ambiguity_and_unknown_qualifiers() {
        let joined = scan_resolver(Some("a"))
            .join(scan_resolver(Some("b")))
            .unwrap();
        assert_eq!(joined.compile(&expr("b.k")).unwrap(), Expr::Column(4));
        assert_eq!(
            plan_error(joined.compile(&expr("k"))),
            "planning error: ambiguous column 'k'"
        );
        assert_eq!(
            plan_error(joined.compile(&expr("c.k"))),
            "planning error: unknown column 'c.k'"
        );
        assert_eq!(
            plan_error(joined.compile(&expr("missing"))),
            "planning error: unknown column 'missing'"
        );
        for alias in [Some("a"), None] {
            assert_eq!(
                plan_error(scan_resolver(alias).compile(&expr("b.k"))),
                "planning error: unknown table qualifier 'b'"
            );
        }
        assert_eq!(
            scan_resolver(Some("a")).compile(&expr("a.k")).unwrap(),
            Expr::Column(1)
        );
    }

    #[test]
    fn aggregates_compile_only_in_the_post_aggregate_space() {
        let group_by = [expr("k + 1")];
        let agg_calls = [(AggFunc::Count, None), (AggFunc::Sum, Some(expr("id")))];
        let post_agg =
            |text: &str| compile_expr(&expr(text), &|n| post_agg_leaf(n, &group_by, &agg_calls));
        // A group-by expression is its key column, an aggregate its agg
        // column after the keys, and scalar operations compose on top.
        assert_eq!(post_agg("k + 1").unwrap(), Expr::Column(0));
        assert_eq!(
            post_agg("sum(id) > count(*)").unwrap(),
            Expr::Binary {
                left: Box::new(Expr::Column(2)),
                op: BinaryOp::Gt,
                right: Box::new(Expr::Column(1)),
            }
        );
        assert_eq!(
            plan_error(post_agg("k")),
            "planning error: expression Column { qualifier: None, name: \"k\" } \
             must appear in GROUP BY or inside an aggregate"
        );
        assert!(plan_error(post_agg("get_json_object(payload, '$.p')"))
            .ends_with("must appear in GROUP BY or inside an aggregate"));
        assert_eq!(
            plan_error(scan_resolver(None).compile(&expr("k + count(*)"))),
            "planning error: aggregate call in a non-aggregate position"
        );
    }
}
