//! Recursive-descent SQL parser for the warehouse query subset;
//! expressions by precedence climbing, never deeper than [`MAX_EXPR_DEPTH`].

use maxson_storage::Cell;

use crate::error::{EngineError, Result};
use crate::sql::ast::{
    AggFunc, BinaryOp, JoinClause, OrderItem, ScalarFunc, SelectItem, SelectStatement, SqlExpr,
    TableRef,
};
use crate::sql::lexer::{tokenize, Token, TokenKind};

/// The deepest expression tree a statement may hold: one level per
/// nesting (parenthesis, `NOT`, unary minus, call, `IN` list) and per
/// operator of a left-deep chain. Parsing, planning, evaluating and
/// dropping recurse once per level, so the bound keeps every accepted
/// statement inside a server connection thread's 2 MiB stack.
pub const MAX_EXPR_DEPTH: usize = 128;

/// An expression and the depth of its tree.
type Deep = (SqlExpr, usize);

/// How tightly an expression form binds, loosest first (`Cmp`: `=`, `IN`,
/// `LIKE`, `BETWEEN`, `IS`, whose operands bind at `Add`).
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Level {
    Or,
    And,
    Not,
    Cmp,
    Add,
    Mul,
    Unary,
}

/// Parse a single `SELECT` statement.
pub fn parse_select(sql: &str) -> Result<SelectStatement> {
    let tokens = tokenize(sql)?;
    let mut p = SqlParser {
        tokens,
        pos: 0,
        open: 0,
    };
    let stmt = p.select()?;
    if p.pos < p.tokens.len() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

struct SqlParser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nestings currently open (see `SqlParser::nested`).
    open: usize,
}

impl SqlParser {
    fn err(&self, message: impl Into<String>) -> EngineError {
        EngineError::Parse {
            message: message.into(),
            offset: self.tokens.get(self.pos).map_or(0, |t| t.offset),
        }
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn next(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume a keyword (case-insensitive identifier) if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(TokenKind::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}")))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if let Some(TokenKind::Symbol(s)) = self.peek() {
            if *s == sym {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_sym(&mut self, sym: &str) -> Result<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{sym}'")))
        }
    }

    /// `true` when the next identifier equals one of the reserved words that
    /// terminate an expression list.
    fn at_clause_boundary(&self) -> bool {
        match self.peek() {
            Some(TokenKind::Ident(s)) => matches!(
                s.to_ascii_lowercase().as_str(),
                "from"
                    | "where"
                    | "group"
                    | "order"
                    | "limit"
                    | "join"
                    | "on"
                    | "as"
                    | "and"
                    | "or"
                    | "asc"
                    | "desc"
                    | "inner"
                    | "having"
                    | "in"
                    | "like"
                    | "not"
                    | "between"
                    | "is"
            ),
            _ => false,
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(TokenKind::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn select(&mut self) -> Result<SelectStatement> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            if self.eat_sym("*") {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else if !self.at_clause_boundary() {
                    // Bare alias: `expr name`.
                    match self.peek() {
                        Some(TokenKind::Ident(_)) => Some(self.ident()?),
                        _ => None,
                    }
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_kw("from")?;
        let from = self.table_ref()?;
        let join = if self.eat_kw("join") || (self.eat_kw("inner") && self.eat_kw("join")) {
            let table = self.table_ref()?;
            self.expect_kw("on")?;
            // Parse at additive precedence so the `=` separating the two
            // join keys is not swallowed by the comparison rule.
            let on_left = self.parse(Level::Add)?.0;
            self.expect_sym("=")?;
            let on_right = self.parse(Level::Add)?.0;
            Some(JoinClause {
                table,
                on_left,
                on_right,
            })
        } else {
            None
        };
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                order_by.push(OrderItem { expr, asc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next() {
                Some(TokenKind::IntLit(n)) if n >= 0 => Some(n as usize),
                _ => return Err(self.err("expected non-negative integer after LIMIT")),
            }
        } else {
            None
        };
        Ok(SelectStatement {
            distinct,
            items,
            from,
            join,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let first = self.ident()?;
        let (database, table) = if self.eat_sym(".") {
            (first, self.ident()?)
        } else {
            ("default".to_string(), first)
        };
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if !self.at_clause_boundary() {
            match self.peek() {
                Some(TokenKind::Ident(_)) => Some(self.ident()?),
                _ => None,
            }
        } else {
            None
        };
        Ok(TableRef {
            database,
            table,
            alias,
        })
    }

    /// A statement-level expression.
    fn expr(&mut self) -> Result<SqlExpr> {
        Ok(self.parse(Level::Or)?.0)
    }

    fn too_deep(&self) -> EngineError {
        self.err(format!(
            "expression nests deeper than {MAX_EXPR_DEPTH} levels"
        ))
    }

    /// `node` one level over children at most `below` deep, refused past
    /// [`MAX_EXPR_DEPTH`]: a chain stops before it is too deep to drop.
    fn level(&self, node: SqlExpr, below: usize) -> Result<Deep> {
        if below >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        Ok((node, below + 1))
    }

    /// Run `rule` one nesting deeper. Each open nesting adds a level to the
    /// finished tree, so refusing the `MAX_EXPR_DEPTH + 1`th rejects
    /// nothing `level` accepts and bounds recursion before a tree exists.
    fn nested<T>(&mut self, rule: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.open >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.open += 1;
        let parsed = rule(self);
        self.open -= 1;
        parsed
    }

    /// Precedence climbing: a prefix form or a primary, then every operator
    /// of level `min` or tighter that may take what was parsed as its left
    /// operand — one binding at least as tightly as the operator (`at`),
    /// for a comparison strictly tighter, so comparisons do not chain and
    /// `NOT x` takes only `AND` and `OR`. A parenthesis costs one frame.
    fn parse(&mut self, min: Level) -> Result<Deep> {
        let (mut left, mut at) = if min <= Level::Not && self.eat_kw("not") {
            let (e, d) = self.nested(|p| p.parse(Level::Not))?;
            (self.level(SqlExpr::Not(Box::new(e)), d)?, Level::Not)
        } else if self.eat_sym("-") {
            let (e, d) = self.nested(|p| p.parse(Level::Unary))?;
            (self.level(SqlExpr::Neg(Box::new(e)), d)?, Level::Unary)
        } else if self.eat_sym("(") {
            let (e, d) = self.nested(|p| p.parse(Level::Or))?;
            self.expect_sym(")")?;
            (self.level(e, d)?, Level::Unary)
        } else {
            (self.primary()?, Level::Unary)
        };
        loop {
            if let Some((op, level, operand)) = self.binary_op() {
                if level < min || at < level {
                    return Ok(left);
                }
                self.pos += 1;
                let right = self.parse(operand)?;
                (left, at) = (self.binary(left, op, right)?, level);
            } else if min <= Level::Cmp && at > Level::Cmp && self.at_comparison() {
                (left, at) = (self.comparison(left)?, Level::Cmp);
            } else {
                return Ok(left);
            }
        }
    }

    fn binary(&self, (left, l): Deep, op: BinaryOp, (right, r): Deep) -> Result<Deep> {
        let (left, right) = (Box::new(left), Box::new(right));
        self.level(SqlExpr::Binary { left, op, right }, l.max(r))
    }

    /// The binary operator next: its level and its right operand's.
    fn binary_op(&self) -> Option<(BinaryOp, Level, Level)> {
        use Level::*;
        Some(match self.peek()? {
            TokenKind::Symbol("*") => (BinaryOp::Mul, Mul, Unary),
            TokenKind::Symbol("/") => (BinaryOp::Div, Mul, Unary),
            TokenKind::Symbol("%") => (BinaryOp::Mod, Mul, Unary),
            TokenKind::Symbol("+") => (BinaryOp::Add, Add, Mul),
            TokenKind::Symbol("-") => (BinaryOp::Sub, Add, Mul),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("and") => (BinaryOp::And, And, Not),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("or") => (BinaryOp::Or, Or, And),
            _ => return None,
        })
    }

    /// Whether a comparison operator, `IN`, `LIKE`, `BETWEEN`, `IS`, or
    /// `NOT` before `IN` or `LIKE` comes next.
    fn at_comparison(&self) -> bool {
        let kw = |at: usize, words: &[&str]| {
            matches!(self.tokens.get(at).map(|t| &t.kind),
                Some(TokenKind::Ident(s)) if words.iter().any(|w| s.eq_ignore_ascii_case(w)))
        };
        matches!(
            self.peek(),
            Some(TokenKind::Symbol("=" | "<>" | "<" | "<=" | ">" | ">="))
        ) || kw(self.pos, &["in", "like", "between", "is"])
            || (kw(self.pos, &["not"]) && kw(self.pos + 1, &["in", "like"]))
    }

    /// The comparison [`Self::at_comparison`] found, over `left`.
    fn comparison(&mut self, (left, depth): Deep) -> Result<Deep> {
        let expr = Box::new(left);
        let negated = self.eat_kw("not");
        if self.eat_kw("in") {
            self.expect_sym("(")?;
            let (items, d) = self.nested(Self::list)?;
            self.expect_sym(")")?;
            let node = SqlExpr::InList {
                expr,
                items,
                negated,
            };
            return self.level(node, depth.max(d));
        }
        if self.eat_kw("like") {
            let Some(TokenKind::StringLit(pattern)) = self.next() else {
                return Err(self.err("LIKE requires a string pattern"));
            };
            let node = SqlExpr::Like {
                expr,
                pattern,
                negated,
            };
            return self.level(node, depth);
        }
        if self.eat_kw("between") {
            let (low, low_depth) = self.parse(Level::Add)?;
            self.expect_kw("and")?;
            let (high, high_depth) = self.parse(Level::Add)?;
            let (low, high) = (Box::new(low), Box::new(high));
            let node = SqlExpr::Between { expr, low, high };
            return self.level(node, depth.max(low_depth).max(high_depth));
        }
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return self.level(SqlExpr::IsNull { expr, negated }, depth);
        }
        let op = match self.next() {
            Some(TokenKind::Symbol("=")) => BinaryOp::Eq,
            Some(TokenKind::Symbol("<>")) => BinaryOp::NotEq,
            Some(TokenKind::Symbol("<")) => BinaryOp::Lt,
            Some(TokenKind::Symbol("<=")) => BinaryOp::LtEq,
            Some(TokenKind::Symbol(">")) => BinaryOp::Gt,
            _ => BinaryOp::GtEq,
        };
        let (right, d) = self.parse(Level::Add)?;
        let (left, right) = (expr, Box::new(right));
        self.level(SqlExpr::Binary { left, op, right }, depth.max(d))
    }

    /// A comma-separated expression list and its deepest item's depth.
    fn list(&mut self) -> Result<(Vec<SqlExpr>, usize)> {
        let (mut items, mut deepest) = (Vec::new(), 0);
        loop {
            let (item, depth) = self.parse(Level::Or)?;
            items.push(item);
            deepest = deepest.max(depth);
            if !self.eat_sym(",") {
                return Ok((items, deepest));
            }
        }
    }

    fn primary(&mut self) -> Result<Deep> {
        let node = match self.next() {
            Some(TokenKind::IntLit(n)) => SqlExpr::Literal(Cell::Int(n)),
            Some(TokenKind::FloatLit(f)) => SqlExpr::Literal(Cell::Float(f)),
            Some(TokenKind::StringLit(s)) => SqlExpr::Literal(Cell::from(s)),
            Some(TokenKind::Ident(name)) => match name.to_ascii_lowercase() {
                lower if lower == "true" => SqlExpr::Literal(Cell::Bool(true)),
                lower if lower == "false" => SqlExpr::Literal(Cell::Bool(false)),
                lower if lower == "null" => SqlExpr::Literal(Cell::Null),
                lower if self.eat_sym("(") => return self.nested(|p| p.call(&name, &lower)),
                _ if self.eat_sym(".") => SqlExpr::Column {
                    qualifier: Some(name),
                    name: self.ident()?,
                },
                _ => SqlExpr::Column {
                    qualifier: None,
                    name,
                },
            },
            other => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err(format!("unexpected token {other:?} in expression")));
            }
        };
        Ok((node, 1))
    }

    /// A function call `name(` … `)`, its opening parenthesis consumed.
    fn call(&mut self, name: &str, lower: &str) -> Result<Deep> {
        if lower == "get_json_object" {
            let (column, depth) = self.parse(Level::Or)?;
            self.expect_sym(",")?;
            let Some(TokenKind::StringLit(path)) = self.next() else {
                return Err(self.err("get_json_object requires a string JSONPath"));
            };
            self.expect_sym(")")?;
            let column = Box::new(column);
            return self.level(SqlExpr::GetJsonObject { column, path }, depth);
        }
        if let Some(func) = AggFunc::from_name(lower) {
            let (func, arg) = if self.eat_sym("*") {
                (func, None)
            } else if func == AggFunc::Count && self.eat_kw("distinct") {
                (AggFunc::CountDistinct, Some(self.parse(Level::Or)?))
            } else {
                (func, Some(self.parse(Level::Or)?))
            };
            self.expect_sym(")")?;
            let depth = arg.as_ref().map_or(0, |(_, d)| *d);
            let arg = arg.map(|(e, _)| Box::new(e));
            return self.level(SqlExpr::Aggregate { func, arg }, depth);
        }
        let Some(func) = ScalarFunc::from_name(lower) else {
            return Err(self.err(format!("unknown function '{name}'")));
        };
        let (args, depth) = if self.eat_sym(")") {
            (Vec::new(), 0)
        } else {
            let args = self.list()?;
            self.expect_sym(")")?;
            args
        };
        let (min, max) = func.arity();
        if args.len() < min || args.len() > max {
            let got = args.len();
            return Err(self.err(format!("wrong argument count for {name}: got {got}")));
        }
        self.level(SqlExpr::Function { func, args }, depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig1_query_parses() {
        let sql = "select mall_id, get_json_object(sale_logs, '$.item_id') as item_id, \
                   get_json_object(sale_logs, '$.turnover') as turnover \
                   from mydb.T where date between '20190101' and '20190103' \
                   order by get_json_object(sale_logs, '$.turnover') limit 1";
        let stmt = parse_select(sql).unwrap();
        assert_eq!(stmt.items.len(), 3);
        assert_eq!(stmt.from.database, "mydb");
        assert_eq!(stmt.from.table, "T");
        assert!(matches!(stmt.where_clause, Some(SqlExpr::Between { .. })));
        assert_eq!(stmt.order_by.len(), 1);
        assert_eq!(stmt.limit, Some(1));
    }

    #[test]
    fn fig8_query_parses() {
        let sql = "select non_json_column0, non_json_column1, \
                   get_json_object(json_column0, '$.id') as json_column0_id, \
                   get_json_object(json_column0, '$.url') as json_column0_url \
                   from T where get_json_object(json_column0, '$.id') > 10000";
        let stmt = parse_select(sql).unwrap();
        assert_eq!(stmt.from.database, "default");
        let w = stmt.where_clause.unwrap();
        assert_eq!(
            w.json_path_calls(),
            vec![("json_column0".to_string(), "$.id".to_string())]
        );
    }

    #[test]
    fn group_by_and_aggregates() {
        let sql = "select k, count(*) as n, sum(v) from t group by k order by n desc limit 5";
        let stmt = parse_select(sql).unwrap();
        assert_eq!(stmt.group_by.len(), 1);
        let SelectItem::Expr { expr, alias } = &stmt.items[1] else {
            panic!()
        };
        assert!(expr.contains_aggregate());
        assert_eq!(alias.as_deref(), Some("n"));
        assert!(!stmt.order_by[0].asc);
    }

    #[test]
    fn self_join_parses() {
        let sql = "select a.id, b.id from db.t a join db.t b on a.k = b.k where a.id < 10";
        let stmt = parse_select(sql).unwrap();
        assert_eq!(stmt.from.alias.as_deref(), Some("a"));
        let join = stmt.join.unwrap();
        assert_eq!(join.table.alias.as_deref(), Some("b"));
        assert_eq!(
            join.on_left,
            SqlExpr::Column {
                qualifier: Some("a".into()),
                name: "k".into()
            }
        );
    }

    #[test]
    fn wildcard_and_bare_alias() {
        let stmt = parse_select("select *, v total from t").unwrap();
        assert_eq!(stmt.items[0], SelectItem::Wildcard);
        let SelectItem::Expr { alias, .. } = &stmt.items[1] else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("total"));
    }

    #[test]
    fn operator_precedence() {
        let stmt = parse_select("select a + b * 2 from t where x = 1 or y = 2 and z = 3").unwrap();
        let SelectItem::Expr { expr, .. } = &stmt.items[0] else {
            panic!()
        };
        // a + (b * 2)
        let SqlExpr::Binary { op, right, .. } = expr else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Add);
        assert!(matches!(
            right.as_ref(),
            SqlExpr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
        // x=1 OR (y=2 AND z=3)
        let SqlExpr::Binary { op, .. } = stmt.where_clause.as_ref().unwrap() else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Or);
    }

    #[test]
    fn is_null_and_not() {
        let stmt = parse_select("select v from t where v is not null and not (v > 3)").unwrap();
        let w = stmt.where_clause.unwrap();
        let SqlExpr::Binary { left, right, .. } = &w else {
            panic!()
        };
        assert!(matches!(
            left.as_ref(),
            SqlExpr::IsNull { negated: true, .. }
        ));
        assert!(matches!(right.as_ref(), SqlExpr::Not(_)));
    }

    #[test]
    fn literals() {
        let stmt = parse_select("select 1, 2.5, 'x', true, false, null, -3 from t").unwrap();
        let cells: Vec<_> = stmt
            .items
            .iter()
            .map(|it| match it {
                SelectItem::Expr { expr, .. } => expr.clone(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(cells[0], SqlExpr::Literal(Cell::Int(1)));
        assert_eq!(cells[3], SqlExpr::Literal(Cell::Bool(true)));
        assert_eq!(cells[5], SqlExpr::Literal(Cell::Null));
        assert!(matches!(cells[6], SqlExpr::Neg(_)));
    }

    #[test]
    fn distinct_and_having() {
        let stmt =
            parse_select("select distinct k, count(*) as n from t group by k having count(*) > 2")
                .unwrap();
        assert!(stmt.distinct);
        assert!(stmt.having.is_some());
        let plain = parse_select("select k from t").unwrap();
        assert!(!plain.distinct);
        assert!(plain.having.is_none());
    }

    #[test]
    fn in_list_not_in_like_not_like() {
        let stmt = parse_select(
            "select v from t where v in (1, 2, 3) and name not in ('a')              and name like 'x%' and name not like '_y'",
        )
        .unwrap();
        let mut in_count = 0;
        let mut like_count = 0;
        stmt.where_clause.unwrap().walk(&mut |e| match e {
            SqlExpr::InList { items, negated, .. } => {
                in_count += 1;
                if !negated {
                    assert_eq!(items.len(), 3);
                }
            }
            SqlExpr::Like {
                pattern, negated, ..
            } => {
                like_count += 1;
                if !negated {
                    assert_eq!(pattern, "x%");
                }
            }
            _ => {}
        });
        assert_eq!(in_count, 2);
        assert_eq!(like_count, 2);
    }

    #[test]
    fn count_distinct_parses() {
        let stmt = parse_select("select count(distinct v) from t").unwrap();
        let SelectItem::Expr { expr, .. } = &stmt.items[0] else {
            panic!()
        };
        assert!(matches!(
            expr,
            SqlExpr::Aggregate {
                func: AggFunc::CountDistinct,
                arg: Some(_)
            }
        ));
    }

    #[test]
    fn new_syntax_errors() {
        for bad in [
            "select v from t where v in ()",
            "select v from t where v in (1",
            "select v from t where v like 5",
            "select v from t where v not 5",
        ] {
            assert!(parse_select(bad).is_err(), "expected error for {bad:?}");
        }
    }

    /// The bound is on the tree, not on any one rule's recursion: left-deep
    /// chains nested in each other's left operands, each chain and each
    /// nesting well under the limit, are accepted exactly when the whole
    /// tree is (`1 + p × (n + 1)` levels: the leaf, then per group its
    /// parenthesis and its `n` operators).
    #[test]
    fn depth_bound_is_exact_for_nested_chains() {
        for p in 1..=16 {
            for n in 0..=16 {
                let sql = format!(
                    "select {}1{} from t",
                    "(".repeat(p),
                    format!("{})", " + 1".repeat(n)).repeat(p)
                );
                let depth = 1 + p * (n + 1);
                assert_eq!(
                    parse_select(&sql).is_ok(),
                    depth <= MAX_EXPR_DEPTH,
                    "p={p} n={n} depth={depth}"
                );
            }
        }
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "select",
            "select from t",
            "select a t", // missing FROM
            "select a from t limit 'x'",
            "select unknown_func(a) from t",
            "select get_json_object(a) from t",
            "select a from t where",
            "select a from t extra_garbage +",
        ] {
            assert!(parse_select(bad).is_err(), "expected error for {bad:?}");
        }
    }
}
