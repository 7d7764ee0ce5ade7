//! Canonical query identity: one normalization + one hash, shared by the
//! query log, the cross-query reuse cache, and workload-sketch attribution.
//!
//! Identity is computed over the *SQL-level* statement (the parsed
//! [`SelectStatement`]), not the physical plan. That makes the fingerprint
//! invariant to scan-rewriter installs by construction: a Maxson
//! cache-rewritten plan fingerprints identically to its logical source,
//! because the rewrite happens below the level the key is derived from.
//! It is also machine-independent (no warehouse root paths leak into the
//! text) and stable across sessions.
//!
//! Normalization makes trivially-equivalent statements collide:
//!
//! * **Predicate commutativity/ordering** — `AND`/`OR` chains are
//!   flattened and their operands sorted; the operands of symmetric
//!   binary operators (`=`, `<>`, `+`, `*`) are sorted; `IN` list members
//!   are sorted.
//! * **Alias insensitivity** — output aliases are dropped (projection
//!   identity is the expressions, not the names they are exported under)
//!   and table aliases are rewritten to positional placeholders
//!   (`t0`, `t1`), so `from db.t x` and `from db.t y` agree.
//! * **Whitespace/case insensitivity** — falls out of rendering the parsed
//!   AST rather than the source text.
//! * **Literal-preserving** — literals render exactly; changing a literal
//!   changes the key.
//!
//! Projection order, `GROUP BY` order, `ORDER BY`, `LIMIT`, and `DISTINCT`
//! all affect the visible result, so they stay in the key.

use crate::sql::ast::{BinaryOp, SelectItem, SelectStatement, SqlExpr, TableRef};

/// FNV-1a 64-bit hash (the identity hash; stable by spec, golden-tested
/// against the published vectors below). Not the Norc checksum
/// [`maxson_storage::encoding::fnv1a`], whose multiplier differs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// The shared `(db, table)` identity key used by workload-sketch
/// attribution and the reuse cache's per-table dependency tracking.
pub fn table_key(database: &str, table: &str) -> String {
    format!("{database}.{table}")
}

/// Canonical text of a whole statement — the query-log fingerprint input
/// and the reuse cache's key input.
pub fn canonical_stmt_text(stmt: &SelectStatement) -> String {
    let aliases = AliasMap::of(stmt);
    let mut out = String::from("select");
    if stmt.distinct {
        out.push_str(" distinct");
    }
    out.push('[');
    for (i, item) in stmt.items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            // Alias dropped: projection identity is the expression.
            SelectItem::Expr { expr, .. } => out.push_str(&expr_text(expr, &aliases)),
        }
    }
    out.push(']');
    out.push_str(" from ");
    out.push_str(&table_text(&stmt.from));
    if let Some(join) = &stmt.join {
        out.push_str(" join ");
        out.push_str(&table_text(&join.table));
        // The equi-join condition is symmetric as a pair.
        let mut sides = [
            expr_text(&join.on_left, &aliases),
            expr_text(&join.on_right, &aliases),
        ];
        sides.sort();
        out.push_str(&format!(" on({},{})", sides[0], sides[1]));
    }
    if let Some(w) = &stmt.where_clause {
        out.push_str(" where ");
        out.push_str(&expr_text(w, &aliases));
    }
    if !stmt.group_by.is_empty() {
        out.push_str(" group[");
        for (i, g) in stmt.group_by.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&expr_text(g, &aliases));
        }
        out.push(']');
    }
    if let Some(h) = &stmt.having {
        out.push_str(" having ");
        out.push_str(&expr_text(h, &aliases));
    }
    if !stmt.order_by.is_empty() {
        out.push_str(" order[");
        for (i, o) in stmt.order_by.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&expr_text(&o.expr, &aliases));
            out.push_str(if o.asc { " asc" } else { " desc" });
        }
        out.push(']');
    }
    if stmt.distinct {
        out.push_str(" distinct");
    }
    if let Some(n) = stmt.limit {
        out.push_str(&format!(" limit {n}"));
    }
    out
}

/// Fingerprint of a statement (FNV-1a over the canonical text). This is
/// the value the query log records and the workload analyses join on.
pub fn stmt_fingerprint(stmt: &SelectStatement) -> u64 {
    fnv1a64(canonical_stmt_text(stmt).as_bytes())
}

/// Reuse-cache key over a statement's canonical text. The parser is part
/// of the identity: parsers may legitimately diverge on malformed
/// documents, so reuse across parser modes would be unsound.
pub fn reuse_key(parser: &str, canonical_text: &str) -> u64 {
    fnv1a64(format!("{parser}\0{canonical_text}").as_bytes())
}

fn table_text(t: &TableRef) -> String {
    // Alias dropped; qualified references go through the AliasMap instead.
    table_key(&t.database, &t.table)
}

/// Positional table-alias rewriting: the FROM table's alias becomes `t0`,
/// the joined table's `t1`, so alias spelling never reaches the key.
struct AliasMap {
    from: Option<String>,
    join: Option<String>,
}

impl AliasMap {
    fn of(stmt: &SelectStatement) -> AliasMap {
        AliasMap {
            from: stmt.from.alias.clone(),
            join: stmt.join.as_ref().and_then(|j| j.table.alias.clone()),
        }
    }

    fn rewrite<'a>(&self, qualifier: &'a str) -> &'a str {
        if self.from.as_deref() == Some(qualifier) {
            "t0"
        } else if self.join.as_deref() == Some(qualifier) {
            "t1"
        } else {
            qualifier
        }
    }
}

/// `true` for operators where `a op b` and `b op a` produce identical
/// results under this engine's semantics (so operand order may be
/// canonicalized away).
fn is_symmetric(op: BinaryOp) -> bool {
    matches!(
        op,
        BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::And
            | BinaryOp::Or
            | BinaryOp::Add
            | BinaryOp::Mul
    )
}

fn op_name(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::Eq => "eq",
        BinaryOp::NotEq => "ne",
        BinaryOp::Lt => "lt",
        BinaryOp::LtEq => "le",
        BinaryOp::Gt => "gt",
        BinaryOp::GtEq => "ge",
        BinaryOp::And => "and",
        BinaryOp::Or => "or",
        BinaryOp::Add => "add",
        BinaryOp::Sub => "sub",
        BinaryOp::Mul => "mul",
        BinaryOp::Div => "div",
        BinaryOp::Mod => "mod",
    }
}

fn expr_text(e: &SqlExpr, aliases: &AliasMap) -> String {
    match e {
        SqlExpr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{}.{name}", aliases.rewrite(q)),
            None => name.clone(),
        },
        // Debug rendering of `Cell` is stable and type-tagged, so `1`,
        // `1.0`, and `'1'` stay distinct (literal-preserving).
        SqlExpr::Literal(c) => format!("lit({c:?})"),
        SqlExpr::GetJsonObject { column, path } => {
            format!("json({},{path})", expr_text(column, aliases))
        }
        SqlExpr::Binary { left, op, right } => {
            if matches!(op, BinaryOp::And | BinaryOp::Or) {
                // Flatten the whole chain and sort the conjunct/disjunct
                // renderings: `a AND (b AND c)` == `(c AND b) AND a`.
                let mut texts: Vec<String> = e.chain(*op).map(|l| expr_text(l, aliases)).collect();
                texts.sort();
                return format!("{}({})", op_name(*op), texts.join(","));
            }
            let mut sides = [expr_text(left, aliases), expr_text(right, aliases)];
            if is_symmetric(*op) {
                sides.sort();
            }
            format!("{}({},{})", op_name(*op), sides[0], sides[1])
        }
        SqlExpr::Not(x) => format!("not({})", expr_text(x, aliases)),
        SqlExpr::Neg(x) => format!("neg({})", expr_text(x, aliases)),
        SqlExpr::IsNull { expr, negated } => format!(
            "{}({})",
            if *negated { "isnotnull" } else { "isnull" },
            expr_text(expr, aliases)
        ),
        SqlExpr::Between { expr, low, high } => format!(
            "between({},{},{})",
            expr_text(expr, aliases),
            expr_text(low, aliases),
            expr_text(high, aliases)
        ),
        SqlExpr::Aggregate { func, arg } => format!(
            "{}({})",
            func.name(),
            arg.as_ref()
                .map_or_else(|| "*".to_string(), |a| expr_text(a, aliases))
        ),
        SqlExpr::InList {
            expr,
            items,
            negated,
        } => {
            // IN-list membership is order-insensitive.
            let mut texts: Vec<String> = items.iter().map(|i| expr_text(i, aliases)).collect();
            texts.sort();
            format!(
                "{}({},[{}])",
                if *negated { "notin" } else { "in" },
                expr_text(expr, aliases),
                texts.join(",")
            )
        }
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "{}({},{pattern:?})",
            if *negated { "notlike" } else { "like" },
            expr_text(expr, aliases)
        ),
        SqlExpr::Function { func, args } => {
            let texts: Vec<String> = args.iter().map(|a| expr_text(a, aliases)).collect();
            format!(
                "{}({})",
                format!("{func:?}").to_ascii_lowercase(),
                texts.join(",")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse_select;

    fn fp(sql: &str) -> u64 {
        stmt_fingerprint(&parse_select(sql).unwrap())
    }

    fn text(sql: &str) -> String {
        canonical_stmt_text(&parse_select(sql).unwrap())
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors — the identity hash must never
        // change, or every logged fingerprint silently re-keys.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn canonical_text_is_pinned() {
        // Golden canonical renderings: a change here re-keys every logged
        // fingerprint and silently empties warm reuse caches — bump only
        // with a DESIGN note.
        assert_eq!(
            text("select a, get_json_object(b, '$.x') as x from db.t where a > 3 limit 7"),
            "select[a,json(b,$.x)] from db.t where gt(a,lit(Int(3))) limit 7"
        );
        assert_eq!(
            text("SELECT DISTINCT a FROM db.t ORDER BY a DESC"),
            "select distinct[a] from db.t order[a desc] distinct"
        );
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Golden fingerprint values (FNV-1a of the canonical texts above).
        assert_eq!(
            fp("select a, get_json_object(b, '$.x') as x from db.t where a > 3 limit 7"),
            fnv1a64(b"select[a,json(b,$.x)] from db.t where gt(a,lit(Int(3))) limit 7")
        );
    }

    #[test]
    fn whitespace_case_and_aliases_do_not_matter() {
        let a = fp("select get_json_object(payload, '$.a') as x from db.t where id < 5");
        let b = fp("SELECT   get_json_object(payload,'$.a')  AS y\nFROM db.t WHERE id < 5");
        assert_eq!(a, b, "whitespace/case/alias must not re-key");
    }

    #[test]
    fn table_aliases_are_positional() {
        let a = fp("select x.id from db.t x where x.id = 1");
        let b = fp("select y.id from db.t y where y.id = 1");
        assert_eq!(a, b);
    }

    #[test]
    fn commutative_predicates_collide() {
        let a = fp("select id from db.t where id > 1 and id < 9");
        let b = fp("select id from db.t where id < 9 and id > 1");
        assert_eq!(a, b, "AND conjunct order must not re-key");
        let c = fp("select id from db.t where 1 < id and id < 9");
        assert_ne!(
            fp("select id from db.t where id > 1"),
            fp("select id from db.t where id > 2"),
            "literals are preserved"
        );
        // `1 < id` and `id > 1` differ structurally (Lt vs Gt is not
        // symmetric); only trivial equivalences are required to collide.
        let _ = c;
    }

    #[test]
    fn nested_chains_flatten() {
        let a = fp("select id from db.t where (id > 1 and id < 9) and id <> 5");
        let b = fp("select id from db.t where id <> 5 and (id < 9 and id > 1)");
        assert_eq!(a, b);
    }

    #[test]
    fn symmetric_operand_order_collides() {
        let a = fp("select id from db.t where id = 3");
        let b = fp("select id from db.t where 3 = id");
        assert_eq!(a, b);
        let c = fp("select id from db.t where id in (1, 2, 3)");
        let d = fp("select id from db.t where id in (3, 1, 2)");
        assert_eq!(c, d);
    }

    #[test]
    fn semantic_differences_do_not_collide() {
        assert_ne!(
            fp("select a, b from db.t"),
            fp("select b, a from db.t"),
            "projection order is visible"
        );
        assert_ne!(
            fp("select a from db.t limit 5"),
            fp("select a from db.t limit 6")
        );
        assert_ne!(fp("select a from db.t"), fp("select distinct a from db.t"));
        assert_ne!(
            fp("select a from db.t where a like 'x%'"),
            fp("select a from db.t where a like 'y%'")
        );
    }

    #[test]
    fn table_key_is_shared_identity() {
        assert_eq!(table_key("db", "t"), "db.t");
    }
}
