//! The reference oracle: a deliberately naive evaluator of
//! [`SelectStatement`]s that every engine configuration is compared with.
//!
//! It works one row at a time over whole tables, each part file read with
//! `NorcFile::read_columns(all, None)` in split order. Every
//! `get_json_object` call runs its own `maxson_json::get_json_object` DOM
//! parse. A join is a nested loop — left rows in order, matching right rows
//! in right order — an aggregate folds its group's values in input order,
//! and `ORDER BY` is a stable sort on `Cell::total_cmp`. There is no cache,
//! rewriter, pushdown, batch, thread pool, reuse cache or server.
//!
//! What it shares with the engine is deliberate and small: the SQL parser
//! (the statement under test), `Cell`'s comparisons, coercions and
//! `key_string` equality classes, `QueryResult::to_display_string` for the
//! rendering, and the scalar and binary operators, which it evaluates by
//! building a literal-only [`Expr`] node over already-computed values. So
//! when the engine and the oracle disagree, the difference is in how the
//! engine moves rows and values around — scans, selections, stitches,
//! caches, merges — not in arithmetic both of them take from one place.
//! Nothing here comes from `exec.rs`, `extract.rs`, the planner, `scan.rs`,
//! `storage::sarg`, the combiner or the rewriter.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use maxson_engine::expr::{Expr, JsonParserKind};
use maxson_engine::sql::ast::{AggFunc, SelectItem, SelectStatement, SqlExpr};
use maxson_engine::sql::parse_select;
use maxson_engine::{ExecMetrics, QueryResult};
use maxson_json::JsonPath;
use maxson_storage::{Catalog, Cell, NorcFile};

type Rows = Vec<Vec<Cell>>;
type Names = Vec<(Option<String>, String)>;

/// What a statement returns: output column names and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub columns: Vec<String>,
    pub rows: Rows,
}

impl Answer {
    /// The engine's text rendering of these rows.
    pub fn display(&self) -> String {
        QueryResult {
            columns: self.columns.clone(),
            rows: self.rows.clone(),
            metrics: ExecMetrics::default(),
            plan_display: String::new(),
            epoch: 0,
        }
        .to_display_string()
    }
}

/// A whole table: column names and every row, in split order.
pub struct Table {
    pub columns: Vec<String>,
    pub rows: Rows,
}

/// The oracle over one warehouse directory. Tables are read once and kept.
pub struct Oracle {
    root: PathBuf,
    tables: RefCell<HashMap<(String, String), Rc<Table>>>,
}

impl Oracle {
    pub fn new(root: &Path) -> Oracle {
        Oracle {
            root: root.to_path_buf(),
            tables: RefCell::default(),
        }
    }

    /// Every row of `db.name`: each part file read whole.
    pub fn table(&self, db: &str, name: &str) -> Result<Rc<Table>, String> {
        let key = (db.to_string(), name.to_string());
        if let Some(t) = self.tables.borrow().get(&key) {
            return Ok(Rc::clone(t));
        }
        let catalog = Catalog::open(&self.root).map_err(|e| e.to_string())?;
        let table = catalog.table(db, name).map_err(|e| e.to_string())?;
        let columns: Vec<String> = table
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let all: Vec<usize> = (0..columns.len()).collect();
        let mut rows = Vec::new();
        for file in table.files() {
            let part = NorcFile::open(table.dir().join(file)).map_err(|e| e.to_string())?;
            let data = part.read_columns(&all, None).map_err(|e| e.to_string())?;
            rows.extend((0..part.num_rows()).map(|i| data.iter().map(|c| c.get(i)).collect()));
        }
        let t = Rc::new(Table { columns, rows });
        self.tables.borrow_mut().insert(key, Rc::clone(&t));
        Ok(t)
    }

    /// Evaluate a row-level expression over one row of a table with
    /// `columns`; NULL where the expression fails.
    pub fn eval_on(&self, e: &SqlExpr, columns: &[String], row: &[Cell]) -> Cell {
        let names: Names = columns.iter().map(|c| (None, c.clone())).collect();
        eval(e, &Scope { names: &names, row }).unwrap_or(Cell::Null)
    }

    /// Parse and evaluate `sql`.
    pub fn answer(&self, sql: &str) -> Result<Answer, String> {
        let stmt = parse_select(sql).map_err(|e| e.to_string())?;
        self.evaluate(&stmt)
    }

    pub fn evaluate(&self, stmt: &SelectStatement) -> Result<Answer, String> {
        let (names, input) = self.input(stmt)?;
        let mut rows: Vec<&Vec<Cell>> = Vec::new();
        for row in &input {
            if let Some(w) = &stmt.where_clause {
                if !truthy(&eval(w, &Scope { names: &names, row })?) {
                    continue;
                }
            }
            rows.push(row);
        }

        // The select list, then every ORDER BY key that is neither an
        // output name nor a selected expression as a hidden column.
        let mut items: Vec<(SqlExpr, String)> = Vec::new();
        for (pos, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard if stmt.join.is_some() => {
                    return Err("`*` over a join".to_string())
                }
                SelectItem::Wildcard => items.extend(names.iter().map(|(_, n)| {
                    let column = SqlExpr::Column {
                        qualifier: None,
                        name: n.clone(),
                    };
                    (column, n.clone())
                })),
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| expr.default_name(pos));
                    items.push((expr.clone(), name));
                }
            }
        }
        let visible = items.len();
        let mut order = Vec::new();
        for o in &stmt.order_by {
            let named = |(e, n): &(SqlExpr, String)| {
                *e == o.expr
                    || matches!(&o.expr, SqlExpr::Column { qualifier: None, name } if name == n)
            };
            let index = match items.iter().position(named) {
                Some(i) => i,
                None => {
                    items.push((o.expr.clone(), format!("__order{}", items.len() - visible)));
                    items.len() - 1
                }
            };
            order.push((index, o.asc));
        }
        let mut seen_names: Vec<&String> = items.iter().map(|(_, n)| n).collect();
        seen_names.sort();
        if seen_names.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate output column name".to_string());
        }

        let grouped = !stmt.group_by.is_empty()
            || items.iter().any(|(e, _)| e.contains_aggregate())
            || stmt.having.is_some();
        let mut out: Rows = Vec::new();
        if grouped {
            if stmt.having.is_some() && stmt.group_by.is_empty() {
                return Err("HAVING requires GROUP BY".to_string());
            }
            // Groups in first-seen order, keyed by `key_string`; one group
            // of everything without GROUP BY, even over no rows.
            let mut groups: Vec<(Vec<Cell>, Vec<&Vec<Cell>>)> = Vec::new();
            if stmt.group_by.is_empty() {
                groups.push((Vec::new(), rows));
            } else {
                let mut index: HashMap<Vec<String>, usize> = HashMap::new();
                for row in rows {
                    let keys: Vec<Cell> = stmt
                        .group_by
                        .iter()
                        .map(|g| eval(g, &Scope { names: &names, row }))
                        .collect::<Result<_, _>>()?;
                    let strings = keys.iter().map(Cell::key_string).collect();
                    let next = groups.len();
                    let g = *index.entry(strings).or_insert(next);
                    if g == next {
                        groups.push((keys, Vec::new()));
                    }
                    groups[g].1.push(row);
                }
            }
            for (keys, members) in &groups {
                let group = Group {
                    by: &stmt.group_by,
                    keys,
                    names: &names,
                    rows: members,
                };
                if let Some(h) = &stmt.having {
                    if !truthy(&group.eval(h)?) {
                        continue;
                    }
                }
                out.push(
                    items
                        .iter()
                        .map(|(e, _)| group.eval(e))
                        .collect::<Result<_, _>>()?,
                );
            }
        } else {
            for row in rows {
                let scope = Scope { names: &names, row };
                let values = items.iter().map(|(e, _)| eval(e, &scope));
                out.push(values.collect::<Result<_, _>>()?);
            }
        }

        out.sort_by(|a, b| {
            order
                .iter()
                .map(|&(i, asc)| {
                    let ord = a[i].total_cmp(&b[i]);
                    if asc {
                        ord
                    } else {
                        ord.reverse()
                    }
                })
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        for row in &mut out {
            row.truncate(visible);
        }
        if stmt.distinct {
            let mut seen: HashSet<Vec<String>> = HashSet::new();
            out.retain(|row| seen.insert(row.iter().map(Cell::key_string).collect()));
        }
        if let Some(n) = stmt.limit {
            out.truncate(n);
        }
        Ok(Answer {
            columns: items[..visible].iter().map(|(_, n)| n.clone()).collect(),
            rows: out,
        })
    }

    /// The FROM table, or the nested-loop join of the two tables: column
    /// names (qualified by the join aliases, `l`/`r` when absent) and rows.
    fn input(&self, stmt: &SelectStatement) -> Result<(Names, Rows), String> {
        let left = self.table(&stmt.from.database, &stmt.from.table)?;
        let Some(join) = &stmt.join else {
            let names = left.columns.iter().map(|c| (None, c.clone())).collect();
            return Ok((names, left.rows.clone()));
        };
        let right = self.table(&join.table.database, &join.table.table)?;
        let qualified = |t: &Table, alias: &Option<String>, default: &str| -> Names {
            let q = alias.clone().unwrap_or_else(|| default.to_string());
            t.columns
                .iter()
                .map(|c| (Some(q.clone()), c.clone()))
                .collect()
        };
        let left_names = qualified(&left, &stmt.from.alias, "l");
        let right_names = qualified(&right, &join.table.alias, "r");
        // Each side's key is evaluated against that side's row alone.
        let keys = |names: &Names, rows: &Rows, key: &SqlExpr| -> Result<Vec<Cell>, String> {
            rows.iter()
                .map(|row| eval(key, &Scope { names, row }))
                .collect()
        };
        let left_keys = keys(&left_names, &left.rows, &join.on_left)?;
        let right_keys = keys(&right_names, &right.rows, &join.on_right)?;
        let mut rows = Vec::new();
        for (l, lk) in left.rows.iter().zip(&left_keys) {
            for (r, rk) in right.rows.iter().zip(&right_keys) {
                if !lk.is_null() && !rk.is_null() && lk.key_string() == rk.key_string() {
                    rows.push(l.iter().chain(r).cloned().collect());
                }
            }
        }
        let mut names = left_names;
        names.extend(right_names);
        Ok((names, rows))
    }
}

/// One input row and the names of its values.
struct Scope<'a> {
    names: &'a Names,
    row: &'a [Cell],
}

impl Scope<'_> {
    /// `[qualifier.]name`: the one value whose name (and qualifier, when
    /// given) match.
    fn column(&self, qualifier: &Option<String>, name: &str) -> Result<Cell, String> {
        let mut found = self
            .names
            .iter()
            .zip(self.row)
            .filter(|((q, n), _)| n == name && (qualifier.is_none() || q == qualifier));
        match (found.next(), found.next()) {
            (Some((_, value)), None) => Ok(value.clone()),
            (None, _) => Err(format!("unknown column {qualifier:?}.{name}")),
            _ => Err(format!("ambiguous column {name}")),
        }
    }
}

/// SQL truthiness: FALSE and NULL reject a row.
fn truthy(cell: &Cell) -> bool {
    match cell {
        Cell::Null => false,
        Cell::Bool(b) => *b,
        Cell::Int(i) => *i != 0,
        Cell::Float(f) => *f != 0.0,
        Cell::Str(s) => !s.is_empty(),
    }
}

/// Evaluate a row-level expression.
fn eval(e: &SqlExpr, scope: &Scope<'_>) -> Result<Cell, String> {
    match e {
        SqlExpr::Column { qualifier, name } => scope.column(qualifier, name),
        SqlExpr::Literal(c) => Ok(c.clone()),
        SqlExpr::GetJsonObject { column, path } => {
            let path = JsonPath::parse(path).map_err(|e| format!("bad JSONPath: {e}"))?;
            if !matches!(column.as_ref(), SqlExpr::Column { .. }) {
                return Err("get_json_object requires a column argument".to_string());
            }
            Ok(match eval(column, scope)? {
                Cell::Str(doc) => {
                    maxson_json::get_json_object(&doc, &path).map_or(Cell::Null, Cell::from)
                }
                _ => Cell::Null,
            })
        }
        SqlExpr::Aggregate { .. } => Err("aggregate call in a non-aggregate position".to_string()),
        other => compose(other, |x| eval(x, scope)),
    }
}

/// The rows of one group and the values of its GROUP BY keys.
struct Group<'a> {
    by: &'a [SqlExpr],
    keys: &'a [Cell],
    names: &'a Names,
    rows: &'a [&'a Vec<Cell>],
}

impl Group<'_> {
    /// Evaluate an expression over the group: a GROUP BY expression is its
    /// key, an aggregate folds its argument over the group's rows.
    fn eval(&self, e: &SqlExpr) -> Result<Cell, String> {
        if let Some(i) = self.by.iter().position(|g| g == e) {
            return Ok(self.keys[i].clone());
        }
        match e {
            SqlExpr::Aggregate { func, arg } => self.aggregate(*func, arg.as_deref()),
            SqlExpr::Literal(c) => Ok(c.clone()),
            SqlExpr::Column { .. } | SqlExpr::GetJsonObject { .. } => Err(format!(
                "{e:?} must appear in GROUP BY or inside an aggregate"
            )),
            other => compose(other, |x| self.eval(x)),
        }
    }

    fn aggregate(&self, func: AggFunc, arg: Option<&SqlExpr>) -> Result<Cell, String> {
        let values: Vec<Cell> = match arg {
            None if func == AggFunc::Count => return Ok(Cell::Int(self.rows.len() as i64)),
            None => Vec::new(),
            Some(arg) => self
                .rows
                .iter()
                .map(|row| {
                    let scope = Scope {
                        names: self.names,
                        row,
                    };
                    eval(arg, &scope)
                })
                .collect::<Result<_, _>>()?,
        };
        let present: Vec<&Cell> = values.iter().filter(|v| !v.is_null()).collect();
        let numbers: Vec<f64> = values.iter().filter_map(Cell::coerce_f64).collect();
        let fold = || numbers.iter().fold(0.0, |acc, x| acc + x);
        Ok(match func {
            AggFunc::Count => Cell::Int(present.len() as i64),
            AggFunc::CountDistinct => {
                let mut keys: Vec<String> = present.iter().map(|v| v.key_string()).collect();
                keys.sort();
                keys.dedup();
                Cell::Int(keys.len() as i64)
            }
            AggFunc::Sum if numbers.is_empty() => Cell::Null,
            AggFunc::Sum => {
                let summed = values.iter().filter(|v| v.coerce_f64().is_some());
                if summed.clone().all(|v| matches!(v, Cell::Int(_))) {
                    Cell::Int(summed.fold(0i64, |acc, v| acc.wrapping_add(v.coerce_i64().unwrap())))
                } else {
                    Cell::Float(fold())
                }
            }
            AggFunc::Avg if numbers.is_empty() => Cell::Null,
            AggFunc::Avg => Cell::Float(fold() / numbers.len() as f64),
            AggFunc::Min | AggFunc::Max => {
                let wanted = if func == AggFunc::Min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                let mut best: Option<&Cell> = None;
                for v in present {
                    if best.is_none_or(|b| v.sql_cmp(b) == Some(wanted)) {
                        best = Some(v);
                    }
                }
                best.cloned().unwrap_or(Cell::Null)
            }
        })
    }
}

/// Evaluate a scalar operator node over its already-evaluated operands
/// through the engine's own operator semantics: a literal-only [`Expr`].
fn compose(
    e: &SqlExpr,
    mut operand: impl FnMut(&SqlExpr) -> Result<Cell, String>,
) -> Result<Cell, String> {
    let mut lit = |x: &SqlExpr| operand(x).map(|c| Box::new(Expr::Literal(c)));
    let node = match e {
        SqlExpr::Binary { left, op, right } => Expr::Binary {
            left: lit(left)?,
            op: *op,
            right: lit(right)?,
        },
        SqlExpr::Not(x) => Expr::Not(lit(x)?),
        SqlExpr::Neg(x) => Expr::Neg(lit(x)?),
        SqlExpr::IsNull { expr, negated } => Expr::IsNull {
            expr: lit(expr)?,
            negated: *negated,
        },
        SqlExpr::Between { expr, low, high } => Expr::Between {
            expr: lit(expr)?,
            low: lit(low)?,
            high: lit(high)?,
        },
        SqlExpr::InList {
            expr,
            items,
            negated,
        } => Expr::InList {
            expr: lit(expr)?,
            items: items
                .iter()
                .map(|i| lit(i).map(|b| *b))
                .collect::<Result<_, _>>()?,
            negated: *negated,
        },
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: lit(expr)?,
            pattern: pattern.clone(),
            negated: *negated,
        },
        SqlExpr::Function { func, args } => Expr::Function {
            func: *func,
            args: args
                .iter()
                .map(|a| lit(a).map(|b| *b))
                .collect::<Result<_, _>>()?,
        },
        SqlExpr::Column { .. }
        | SqlExpr::Literal(_)
        | SqlExpr::GetJsonObject { .. }
        | SqlExpr::Aggregate { .. } => unreachable!("leaves are evaluated by the caller"),
    };
    node.eval_with(
        &[],
        JsonParserKind::Jackson,
        &mut ExecMetrics::default(),
        None,
    )
    .map_err(|e| e.to_string())
}
