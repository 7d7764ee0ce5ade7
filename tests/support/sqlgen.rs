//! A seeded random-SQL generator over the supported grammar, the renderer
//! that turns a statement back into SQL text, and the two spellings the
//! oracle suite derives from a statement: the same predicate with no
//! pushable leaf ([`unpushable`]) and the statement with one literal
//! changed ([`literal_variant`]).
//!
//! Generated statements use every scalar function, all six aggregates,
//! `BETWEEN`, `IN`, `LIKE`, `IS NULL`, `NOT`, `OR`, the self-join, `GROUP
//! BY` / `HAVING` / `ORDER BY` / `LIMIT` / `DISTINCT` and `*`, over raw
//! columns and over JSONPaths the cache holds and does not hold. Literals
//! are drawn from the data, so comparisons land on row-group and row
//! boundaries. [`Generator::repeated_output`] draws statements that name one
//! column or JSONPath twice in the select list, [`Generator::top_n`] the
//! stitch statements' `ORDER BY … LIMIT` shape.

use std::collections::BTreeSet;

use maxson_engine::sql::ast::{
    AggFunc, BinaryOp, JoinClause, OrderItem, ScalarFunc, SelectItem, SelectStatement, SqlExpr,
    TableRef,
};
use maxson_storage::Cell;
use maxson_testkit::rng::Rng;

use super::oracle::Oracle;

use BinaryOp::*;

fn bx(e: SqlExpr) -> Box<SqlExpr> {
    Box::new(e)
}

fn bin(left: SqlExpr, op: BinaryOp, right: SqlExpr) -> SqlExpr {
    SqlExpr::Binary {
        left: bx(left),
        op,
        right: bx(right),
    }
}

fn lit(c: impl Into<Cell>) -> SqlExpr {
    SqlExpr::Literal(c.into())
}

fn column(qualifier: Option<&str>, name: &str) -> SqlExpr {
    SqlExpr::Column {
        qualifier: qualifier.map(str::to_string),
        name: name.to_string(),
    }
}

/// A column or `get_json_object` over one (an atom) under `qualifier`.
fn qualify(atom: &SqlExpr, qualifier: Option<&str>) -> SqlExpr {
    match atom {
        SqlExpr::GetJsonObject { column: c, path } => SqlExpr::GetJsonObject {
            column: bx(qualify(c, qualifier)),
            path: path.clone(),
        },
        SqlExpr::Column { name, .. } => column(qualifier, name),
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// SQL text that parses back to exactly `stmt`: every composite expression
/// parenthesized.
pub fn render(stmt: &SelectStatement) -> String {
    let list = |xs: &mut dyn Iterator<Item = String>| xs.collect::<Vec<_>>().join(", ");
    let items = stmt.items.iter().map(|item| match item {
        SelectItem::Wildcard => "*".to_string(),
        SelectItem::Expr { expr, alias: None } => sql(expr),
        SelectItem::Expr {
            expr,
            alias: Some(a),
        } => format!("{} as {a}", sql(expr)),
    });
    let distinct = if stmt.distinct { "distinct " } else { "" };
    let mut out = format!("select {distinct}{}", list(&mut items.into_iter()));
    out += &format!(" from {}", table(&stmt.from));
    if let Some(j) = &stmt.join {
        let (l, r) = (sql(&j.on_left), sql(&j.on_right));
        out += &format!(" join {} on {l} = {r}", table(&j.table));
    }
    if let Some(w) = &stmt.where_clause {
        out += &format!(" where {}", sql(w));
    }
    if !stmt.group_by.is_empty() {
        out += &format!(" group by {}", list(&mut stmt.group_by.iter().map(sql)));
    }
    if let Some(h) = &stmt.having {
        out += &format!(" having {}", sql(h));
    }
    if !stmt.order_by.is_empty() {
        let keys = stmt
            .order_by
            .iter()
            .map(|o| format!("{} {}", sql(&o.expr), if o.asc { "asc" } else { "desc" }));
        out += &format!(" order by {}", list(&mut keys.into_iter()));
    }
    if let Some(n) = stmt.limit {
        out += &format!(" limit {n}");
    }
    out
}

fn table(t: &TableRef) -> String {
    let alias = t.alias.as_ref().map_or(String::new(), |a| format!(" {a}"));
    format!("{}.{}{alias}", t.database, t.table)
}

fn quoted(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

fn sql(e: &SqlExpr) -> String {
    let list = |xs: &[SqlExpr]| xs.iter().map(sql).collect::<Vec<_>>().join(", ");
    let not = |negated: &bool| if *negated { "not " } else { "" };
    match e {
        SqlExpr::Column {
            qualifier: Some(q),
            name,
        } => format!("{q}.{name}"),
        SqlExpr::Column { name, .. } => name.clone(),
        SqlExpr::Literal(c) => match c {
            Cell::Null => "null".to_string(),
            Cell::Str(s) => quoted(s),
            Cell::Float(f) => {
                assert!(f.is_finite() && *f >= 0.0, "unrenderable float literal {f}");
                format!("{f:?}")
            }
            Cell::Int(i) => {
                assert!(*i >= 0, "a negative literal is spelled as a negation");
                i.to_string()
            }
            Cell::Bool(b) => b.to_string(),
        },
        SqlExpr::GetJsonObject { column, path } => {
            format!("get_json_object({}, {})", sql(column), quoted(path))
        }
        SqlExpr::Binary { left, op, right } => {
            let op = match op {
                Eq => "=",
                NotEq => "<>",
                Lt => "<",
                LtEq => "<=",
                Gt => ">",
                GtEq => ">=",
                And => "and",
                Or => "or",
                Add => "+",
                Sub => "-",
                Mul => "*",
                Div => "/",
                Mod => "%",
            };
            format!("({} {op} {})", sql(left), sql(right))
        }
        SqlExpr::Not(x) => format!("(not {})", sql(x)),
        SqlExpr::Neg(x) => format!("(-{})", sql(x)),
        SqlExpr::IsNull { expr, negated } => format!("({} is {}null)", sql(expr), not(negated)),
        SqlExpr::Between { expr, low, high } => {
            format!("({} between {} and {})", sql(expr), sql(low), sql(high))
        }
        SqlExpr::Aggregate { func, arg } => match (func, arg) {
            (AggFunc::CountDistinct, Some(a)) => format!("count(distinct {})", sql(a)),
            (f, Some(a)) => format!("{}({})", f.name(), sql(a)),
            (f, None) => format!("{}(*)", f.name()),
        },
        SqlExpr::InList {
            expr,
            items,
            negated,
        } => format!("({} {}in ({}))", sql(expr), not(negated), list(items)),
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => format!("({} {}like {})", sql(expr), not(negated), quoted(pattern)),
        SqlExpr::Function { func, args } => {
            format!("{}({})", format!("{func:?}").to_lowercase(), list(args))
        }
    }
}

// ---------------------------------------------------------------------
// Derived spellings
// ---------------------------------------------------------------------

/// `x` spelled so that it is no longer a column or JSON call but compares
/// with `literals` exactly as `x` does: `x + 0` against numbers,
/// `coalesce(x)` against anything else.
fn hidden(x: &SqlExpr, literals: &[&SqlExpr]) -> Option<SqlExpr> {
    let leaf = match x {
        SqlExpr::Column { .. } => true,
        SqlExpr::GetJsonObject { column, .. } => matches!(**column, SqlExpr::Column { .. }),
        _ => false,
    };
    if !leaf || !literals.iter().all(|l| matches!(l, SqlExpr::Literal(_))) {
        return None;
    }
    let numeric = |l: &&SqlExpr| matches!(l, SqlExpr::Literal(Cell::Int(_) | Cell::Float(_)));
    Some(if literals.iter().all(numeric) {
        bin(x.clone(), Add, lit(0i64))
    } else {
        SqlExpr::Function {
            func: ScalarFunc::Coalesce,
            args: vec![x.clone()],
        }
    })
}

fn hide_leaves(e: &SqlExpr) -> SqlExpr {
    match e {
        SqlExpr::Binary {
            left,
            op: And,
            right,
        } => bin(hide_leaves(left), And, hide_leaves(right)),
        SqlExpr::Binary { left, op, right } if matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq) => {
            match (
                hidden(left, &[right.as_ref()]),
                hidden(right, &[left.as_ref()]),
            ) {
                (Some(l), _) => bin(l, *op, (**right).clone()),
                (None, Some(r)) => bin((**left).clone(), *op, r),
                _ => e.clone(),
            }
        }
        SqlExpr::Between { expr, low, high } => {
            match hidden(expr, &[low.as_ref(), high.as_ref()]) {
                Some(x) => SqlExpr::Between {
                    expr: bx(x),
                    low: low.clone(),
                    high: high.clone(),
                },
                None => e.clone(),
            }
        }
        _ => e.clone(),
    }
}

/// `stmt` with every pushable `WHERE` leaf (`x op literal`, `literal op
/// x`, `x BETWEEN literal AND literal` over a column or JSON call) spelled
/// so that it no longer is one, e.g. `date + 0 between …`. The rows are
/// the same; only the scan's row-group and row selection change. `None`
/// when there is nothing to hide.
pub fn unpushable(stmt: &SelectStatement) -> Option<SelectStatement> {
    let w = stmt.where_clause.as_ref()?;
    let hidden = hide_leaves(w);
    (hidden != *w).then(|| SelectStatement {
        where_clause: Some(hidden),
        ..stmt.clone()
    })
}

fn literals_of<'a>(e: &'a mut SqlExpr, out: &mut Vec<&'a mut Cell>) {
    match e {
        SqlExpr::Literal(c) => out.push(c),
        SqlExpr::Column { .. } | SqlExpr::Aggregate { arg: None, .. } => {}
        SqlExpr::GetJsonObject { column: x, .. }
        | SqlExpr::Not(x)
        | SqlExpr::Neg(x)
        | SqlExpr::IsNull { expr: x, .. }
        | SqlExpr::Like { expr: x, .. }
        | SqlExpr::Aggregate { arg: Some(x), .. } => literals_of(x, out),
        SqlExpr::Binary { left, right, .. } => {
            literals_of(left, out);
            literals_of(right, out);
        }
        SqlExpr::Between { expr, low, high } => [expr, low, high]
            .into_iter()
            .for_each(|x| literals_of(x, out)),
        SqlExpr::InList { expr, items, .. } => {
            literals_of(expr, out);
            items.iter_mut().for_each(|i| literals_of(i, out));
        }
        SqlExpr::Function { args, .. } => args.iter_mut().for_each(|a| literals_of(a, out)),
    }
}

/// `stmt` with its `k`-th literal (counting the `LIMIT`, modulo their
/// number) changed: a number plus one, a string with one more character, a
/// boolean flipped. A reuse cache may serve the variant's entry for `stmt`
/// only if its key ignores that literal — which is exactly the defect the
/// oracle must see. `None` when `stmt` has no literal.
pub fn literal_variant(stmt: &SelectStatement, k: usize) -> Option<SelectStatement> {
    let mut out = stmt.clone();
    let mut slots: Vec<&mut Cell> = Vec::new();
    let items = out.items.iter_mut().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        SelectItem::Wildcard => None,
    });
    let exprs = items
        .chain(&mut out.where_clause)
        .chain(&mut out.having)
        .chain(&mut out.group_by)
        .chain(out.order_by.iter_mut().map(|o| &mut o.expr));
    exprs.for_each(|e| literals_of(e, &mut slots));
    let count = slots.len() + usize::from(stmt.limit.is_some());
    if count == 0 {
        return None;
    }
    match slots.into_iter().nth(k % count) {
        Some(c) => {
            *c = match c {
                Cell::Null => Cell::Int(0),
                Cell::Bool(b) => Cell::Bool(!*b),
                Cell::Int(i) => Cell::Int(*i + 1),
                Cell::Float(f) => Cell::Float(*f + 1.0),
                Cell::Str(s) => Cell::from(format!("{s}x")),
            }
        }
        // SQL integer literals are `i64`s: the largest `LIMIT` steps down.
        None => {
            out.limit = stmt
                .limit
                .map(|n| if n < LIMIT_MAX { n + 1 } else { n - 1 })
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

/// What the generator may draw from one table: its atoms — raw columns and
/// `get_json_object` calls — with the values each takes in the data, and
/// the atoms a self-join may equate (none for tables too big to join).
pub struct Source {
    database: String,
    table: String,
    atoms: Vec<(SqlExpr, Vec<Cell>)>,
    join_keys: Vec<SqlExpr>,
    /// Rows in the table.
    rows: usize,
    /// The atoms that are JSONPaths the cache does not hold.
    uncached: Vec<SqlExpr>,
}

impl Source {
    /// The raw columns of `database.table` and `paths` over its JSON
    /// column, each with up to forty distinct values sampled over the whole
    /// table; `join_keys` names columns, or paths by a leading `$`.
    pub fn sample(
        oracle: &Oracle,
        database: &str,
        table: &str,
        json_column: &str,
        paths: &[&str],
        join_keys: &[&str],
    ) -> Source {
        let data = oracle.table(database, table).unwrap();
        let step = (data.rows.len() / 120).max(1);
        let atom = |name: &str| match name.starts_with('$') {
            true => SqlExpr::GetJsonObject {
                column: bx(column(None, json_column)),
                path: name.to_string(),
            },
            false => column(None, name),
        };
        let names = data.columns.iter().filter(|c| *c != json_column);
        let atoms = names
            .map(String::as_str)
            .chain(paths.iter().copied())
            .map(|name| {
                let mut seen = BTreeSet::new();
                let values = data.rows.iter().step_by(step).filter_map(|row| {
                    let v = oracle.eval_on(&atom(name), &data.columns, row);
                    (!v.is_null() && seen.insert(v.key_string())).then_some(v)
                });
                (atom(name), values.take(40).collect())
            })
            .collect();
        Source {
            database: database.to_string(),
            table: table.to_string(),
            atoms,
            join_keys: join_keys.iter().map(|k| atom(k)).collect(),
            rows: data.rows.len(),
            uncached: Vec::new(),
        }
    }

    /// This source with `paths` (among its atoms) named as the ones the
    /// cache does not hold: [`Generator::top_n`] stitches one of them.
    pub fn uncached(mut self, paths: &[&str]) -> Source {
        self.uncached = self
            .atoms
            .iter()
            .map(|(atom, _)| atom)
            .filter(|atom| {
                matches!(atom, SqlExpr::GetJsonObject { path, .. } if paths.contains(&path.as_str()))
            })
            .cloned()
            .collect();
        self
    }
}

const COMPARISONS: [BinaryOp; 6] = [Eq, NotEq, Lt, LtEq, Gt, GtEq];

/// The largest `LIMIT` the grammar takes: SQL integer literals are `i64`s.
pub const LIMIT_MAX: usize = i64::MAX as usize;

/// Seeded statement generator over a set of [`Source`]s.
pub struct Generator<'a> {
    rng: Rng,
    sources: &'a [Source],
    /// The statement being built: its table and the qualifiers its
    /// references carry (`[None]`, or `[a, b]` for a self-join).
    source: &'a Source,
    qualifiers: &'static [Option<&'static str>],
}

impl<'a> Generator<'a> {
    pub fn new(seed: u64, sources: &'a [Source]) -> Self {
        Generator {
            rng: Rng::seed_from_u64(seed),
            sources,
            source: &sources[0],
            qualifiers: &[None],
        }
    }

    fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }

    /// An atom of the statement's table and the values it takes.
    fn atom(&mut self) -> (SqlExpr, Vec<Cell>) {
        let (atom, values) = self.pick(&self.source.atoms);
        let qualifier = self.pick(self.qualifiers);
        (qualify(&atom, qualifier), values)
    }

    /// A literal the data makes interesting for `values`: one of them
    /// (numeric strings as numbers most of the time), rarely something
    /// absent.
    fn literal_near(&mut self, values: &[Cell]) -> SqlExpr {
        if values.is_empty() || self.chance(0.1) {
            return self.small_literal();
        }
        let v = self.pick(values);
        let number = match &v {
            Cell::Str(s) if self.chance(0.7) => {
                let (i, f) = (s.trim().parse::<i64>(), s.trim().parse::<f64>());
                i.map(Cell::Int).or(f.map(Cell::Float)).ok()
            }
            _ => None,
        };
        match number.unwrap_or(v) {
            Cell::Int(i) if i < 0 => SqlExpr::Neg(bx(lit(-i))),
            Cell::Float(f) if !f.is_finite() => lit(0i64),
            Cell::Float(f) if f < 0.0 => SqlExpr::Neg(bx(lit(-f))),
            c => lit(c),
        }
    }

    fn small_literal(&mut self) -> SqlExpr {
        match self.below(4) {
            0 => lit(self.below(100) as i64),
            1 => lit(self.below(400) as f64 / 8.0),
            _ => lit(self.pick(&["x", "-", "7", "zz"])),
        }
    }

    /// An atom, or a literal.
    fn operand(&mut self) -> SqlExpr {
        if self.chance(0.5) {
            self.atom().0
        } else {
            self.small_literal()
        }
    }

    /// A row-level expression: an atom, a scalar function, arithmetic or a
    /// negation over atoms.
    fn scalar(&mut self, depth: usize) -> SqlExpr {
        use ScalarFunc::*;
        let roll = self.below(100);
        if depth == 0 || roll < 50 {
            return self.atom().0;
        }
        if roll < 75 {
            let func = self.pick(&[Length, Lower, Upper, Concat, Coalesce, Substr, Abs, Round]);
            let mut args = vec![self.atom().0];
            match func {
                Concat | Coalesce => args.push(self.operand()),
                Substr => {
                    args.push(lit(self.below(4) as i64 + 1));
                    if self.chance(0.6) {
                        args.push(lit(self.below(5) as i64));
                    }
                }
                Round if self.chance(0.5) => args.push(lit(self.below(3) as i64)),
                _ => {}
            }
            return SqlExpr::Function { func, args };
        }
        if roll < 95 {
            let op = self.pick(&[Add, Sub, Mul, Div, Mod]);
            return bin(self.scalar(depth - 1), op, self.operand());
        }
        SqlExpr::Neg(bx(self.atom().0))
    }

    fn predicate(&mut self, depth: usize) -> SqlExpr {
        let (x, values) = self.atom();
        let cmp = self.pick(&COMPARISONS);
        let negated = self.chance(0.3);
        match self.below(100) {
            0..=29 => bin(x, cmp, self.literal_near(&values)),
            30..=34 => bin(self.literal_near(&values), cmp, x),
            35..=46 => {
                let mut bounds = [self.literal_near(&values), self.literal_near(&values)];
                if let [SqlExpr::Literal(a), SqlExpr::Literal(b)] = &bounds {
                    if a.total_cmp(b).is_gt() {
                        bounds.reverse();
                    }
                }
                let [low, high] = bounds.map(bx);
                SqlExpr::Between {
                    expr: bx(x),
                    low,
                    high,
                }
            }
            47..=56 => SqlExpr::InList {
                expr: bx(x),
                items: (0..=self.below(3))
                    .map(|_| self.literal_near(&values))
                    .collect(),
                negated,
            },
            57..=64 => {
                let text = values.get(self.below(values.len().max(1)));
                let chars: Vec<char> = text.map(Cell::render).unwrap_or_default().chars().collect();
                let cut = chars.len().min(1 + self.below(3));
                let (head, tail): (String, String) = (
                    chars[..cut].iter().collect(),
                    chars[chars.len() - cut..].iter().collect(),
                );
                let pattern =
                    self.pick(&[format!("{head}%"), format!("%{tail}"), format!("_{tail}%")]);
                SqlExpr::Like {
                    expr: bx(x),
                    pattern,
                    negated,
                }
            }
            65..=71 => SqlExpr::IsNull {
                expr: bx(x),
                negated,
            },
            72..=79 => bin(self.scalar(1), cmp, self.literal_near(&values)),
            80..=85 => bin(x, cmp, self.atom().0),
            86..=93 if depth > 0 => bin(self.predicate(depth - 1), Or, self.predicate(depth - 1)),
            _ if depth > 0 => SqlExpr::Not(bx(self.predicate(depth - 1))),
            _ => SqlExpr::IsNull {
                expr: bx(x),
                negated: true,
            },
        }
    }

    fn aggregate(&mut self) -> SqlExpr {
        use AggFunc::*;
        let func = self.pick(&[Count, CountDistinct, Sum, Min, Max, Avg]);
        let arg = (func != Count || self.chance(0.6)).then(|| bx(self.scalar(1)));
        SqlExpr::Aggregate { func, arg }
    }

    /// ORDER BY one or two keys: output names `c0..c{outputs}`, or what
    /// `other` builds.
    fn order_by(&mut self, outputs: usize, other: fn(&mut Self) -> SqlExpr) -> Vec<OrderItem> {
        (0..=self.below(2))
            .map(|_| OrderItem {
                expr: match self.chance(0.6) {
                    true => column(None, &format!("c{}", self.below(outputs))),
                    false => other(self),
                },
                asc: self.chance(0.5),
            })
            .collect()
    }

    /// One statement over a random source.
    pub fn statement(&mut self) -> SelectStatement {
        self.source = self.pick_source();
        let joined = !self.source.join_keys.is_empty() && self.chance(0.25);
        self.qualifiers = if joined {
            &[Some("a"), Some("b")]
        } else {
            &[None]
        };
        let table = |alias: &str| TableRef {
            database: self.source.database.clone(),
            table: self.source.table.clone(),
            alias: joined.then(|| alias.to_string()),
        };
        let (from, right) = (table("a"), table("b"));
        let join = joined.then(|| {
            let key = self.pick(&self.source.join_keys);
            JoinClause {
                table: right,
                on_left: qualify(&key, Some("a")),
                on_right: qualify(&key, Some("b")),
            }
        });
        let mut where_clause = self.chance(0.8).then(|| self.predicate(1));
        for _ in 0..self.below(3) {
            where_clause = where_clause.map(|w| bin(w, And, self.predicate(1)));
        }
        let mut stmt = SelectStatement {
            distinct: false,
            items: vec![SelectItem::Wildcard],
            from,
            join,
            where_clause,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        };
        let mut outputs: Vec<SqlExpr> = Vec::new();
        if self.chance(0.4) {
            // Group keys first, then aggregates (sometimes summed) over them.
            stmt.group_by = (0..self.below(3)).map(|_| self.scalar(1)).collect();
            outputs = stmt.group_by.clone();
            for _ in 0..=self.below(3) {
                let agg = self.aggregate();
                outputs.push(match self.chance(0.15) {
                    true => bin(agg, Add, self.aggregate()),
                    false => agg,
                });
            }
            if !stmt.group_by.is_empty() && self.chance(0.3) {
                let op = self.pick(&[Gt, GtEq, Lt]);
                stmt.having = Some(bin(self.aggregate(), op, lit(self.below(4) as i64)));
            }
            if self.chance(0.5) {
                stmt.order_by = self.order_by(outputs.len(), Self::aggregate);
            }
        } else if joined || self.chance(0.95) {
            outputs = (0..=self.below(4)).map(|_| self.scalar(2)).collect();
            stmt.distinct = self.chance(0.15);
            if self.chance(0.45) {
                stmt.order_by = self.order_by(outputs.len(), |g| g.scalar(1));
            }
        }
        if !outputs.is_empty() {
            stmt.items = (0..)
                .zip(outputs)
                .map(|(i, expr)| SelectItem::Expr {
                    expr,
                    alias: Some(format!("c{i}")),
                })
                .collect();
        }
        if self.chance(0.35) {
            stmt.limit = Some(self.below(25));
        }
        stmt
    }

    /// A statement whose select list names one atom twice — a raw column or
    /// a JSONPath, with another output between them half the time — under
    /// a `WHERE` when `filtered`, ordered by one or two atoms half the time.
    /// Under the rewriter a repeated cached path is one cache column read
    /// twice.
    pub fn repeated_output(&mut self, filtered: bool) -> SelectStatement {
        self.source = self.pick_source();
        self.qualifiers = &[None];
        let x = self.atom().0;
        let mut outputs = vec![x.clone()];
        if self.chance(0.5) {
            outputs.push(self.scalar(1));
        }
        outputs.push(x);
        let where_clause = filtered.then(|| self.predicate(1));
        let order_by = match self.chance(0.5) {
            true => (0..=self.below(2))
                .map(|_| OrderItem {
                    expr: self.atom().0,
                    asc: self.chance(0.5),
                })
                .collect(),
            false => Vec::new(),
        };
        SelectStatement {
            distinct: false,
            items: (0..)
                .zip(outputs)
                .map(|(i, expr)| SelectItem::Expr {
                    expr,
                    alias: Some(format!("c{i}")),
                })
                .collect(),
            from: TableRef {
                database: self.source.database.clone(),
                table: self.source.table.clone(),
                alias: None,
            },
            join: None,
            where_clause,
            group_by: Vec::new(),
            having: None,
            order_by,
            limit: self.chance(0.3).then(|| self.below(25)),
        }
    }

    /// The stitch statements' shape (Table II's Q8 and S2): three to five
    /// bare outputs — raw columns and paths the cache holds — plus one path
    /// it does not hold, `ORDER BY` one bare output (keys drawn from the
    /// data, so with duplicates and NULLs) half the time, under a `WHERE`
    /// when `filtered`, with `LIMIT` 0, 1, more than the table's rows or
    /// the largest the grammar takes ([`LIMIT_MAX`]).
    pub fn top_n(&mut self, filtered: bool) -> SelectStatement {
        self.source = self.pick_source();
        self.qualifiers = &[None];
        let bare: Vec<SqlExpr> = self
            .source
            .atoms
            .iter()
            .map(|(atom, _)| atom.clone())
            .filter(|atom| !self.source.uncached.contains(atom))
            .collect();
        let mut outputs: Vec<SqlExpr> = (0..3 + self.below(3)).map(|_| self.pick(&bare)).collect();
        let stitch = match self.source.uncached.is_empty() {
            true => self.atom().0,
            false => self.pick(&self.source.uncached),
        };
        outputs.insert(self.below(outputs.len() + 1), stitch.clone());
        let keys: Vec<usize> = (0..outputs.len())
            .filter(|&i| outputs[i] != stitch)
            .collect();
        let order_by = match self.chance(0.5) {
            true => vec![OrderItem {
                expr: column(None, &format!("c{}", self.pick(&keys))),
                asc: self.chance(0.5),
            }],
            false => Vec::new(),
        };
        let beyond = self.source.rows + 1 + self.below(50);
        let limit = self.pick(&[0, 1, beyond, LIMIT_MAX]);
        SelectStatement {
            distinct: false,
            items: (0..)
                .zip(outputs)
                .map(|(i, expr)| SelectItem::Expr {
                    expr,
                    alias: Some(format!("c{i}")),
                })
                .collect(),
            from: TableRef {
                database: self.source.database.clone(),
                table: self.source.table.clone(),
                alias: None,
            },
            join: None,
            where_clause: filtered.then(|| self.predicate(1)),
            group_by: Vec::new(),
            having: None,
            order_by,
            limit: Some(limit),
        }
    }

    fn pick_source(&mut self) -> &'a Source {
        let sources = self.sources;
        &sources[self.below(sources.len())]
    }
}
