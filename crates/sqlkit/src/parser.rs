//! Recursive-descent SQL parser for the benchmark's SQL subset.
//!
//! Nesting is bounded: every cycle of the descent passes through an
//! expression (`parse_expr`: parenthesized expressions, function and
//! aggregate arguments, IN lists), a query (`parse_query`: subqueries
//! and derived tables), a NOT chain or a unary-minus chain, and each of
//! those entries counts one level, except a NOT right before `(`, whose
//! parenthesis counts it: the printer writes `NOT (a > 1)` for
//! `NOT a > 1`, and the printed query must not nest deeper than the
//! parsed one. Left-deep operator chains (`a + b + …`) count no level;
//! [`MAX_TOKENS`](crate::lexer::MAX_TOKENS) bounds their depth. A query
//! nested deeper than [`MAX_NESTING`] levels is rejected with a
//! [`SqlError`] instead of overflowing the stack, so every recursive
//! consumer of the AST (the printer, the differ, the morph rewriter, the
//! engine and the reference interpreter) sees bounded depth too.

use crate::ast::*;
use crate::error::SqlError;
use crate::lexer::{tokenize, Spanned, Token};

/// Parses a single SQL query (a `SELECT`, possibly a set-operation chain,
/// with optional trailing `ORDER BY` / `LIMIT` and `;`) under
/// PostgreSQL's lexical rules, whichever dialect the query will run on.
pub fn parse_query(input: &str) -> Result<Query, SqlError> {
    parse_counted(input).map(|(q, _)| q)
}

/// The deepest nesting a query may reach, counted as the module docs
/// describe. The gold, template and conformance corpora stay far below
/// it (see [`nesting_depth`]); a pool thread's 2 MiB stack holds the
/// deepest accepted query of each kind through parsing, printing,
/// diffing and execution.
pub const MAX_NESTING: usize = 64;

/// The nesting depth `input` reaches, as [`MAX_NESTING`] bounds it.
pub fn nesting_depth(input: &str) -> Result<usize, SqlError> {
    parse_counted(input).map(|(_, depth)| depth)
}

fn parse_counted(input: &str) -> Result<(Query, usize), SqlError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        max_depth: 0,
    };
    let q = p.parse_query()?;
    p.accept(&Token::Semicolon);
    if let Some(t) = p.peek() {
        return Err(SqlError::parse(
            Some(t.offset),
            format!("trailing input starting at {:?}", t.token.to_string()),
        ));
    }
    Ok((q, p.max_depth))
}

/// Words that terminate an implicit (AS-less) alias.
fn is_keyword(word: &str) -> bool {
    matches!(
        word.to_ascii_uppercase().as_str(),
        "SELECT"
            | "DISTINCT"
            | "FROM"
            | "WHERE"
            | "GROUP"
            | "BY"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "JOIN"
            | "LEFT"
            | "RIGHT"
            | "INNER"
            | "OUTER"
            | "CROSS"
            | "ON"
            | "AS"
            | "AND"
            | "OR"
            | "NOT"
            | "IN"
            | "EXISTS"
            | "BETWEEN"
            | "LIKE"
            | "IS"
            | "NULL"
            | "UNION"
            | "ALL"
            | "INTERSECT"
            | "EXCEPT"
            | "ASC"
            | "DESC"
            | "TRUE"
            | "FALSE"
    )
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Nesting levels open at the current position.
    depth: usize,
    max_depth: usize,
}

impl Parser {
    /// Runs `f` one nesting level deeper, or fails past [`MAX_NESTING`].
    /// An error ends the parse, so only the success path closes the
    /// level.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("query nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn offset(&self) -> Option<usize> {
        self.peek().map(|s| s.offset)
    }

    fn err(&self, message: impl Into<String>) -> SqlError {
        SqlError::parse(self.offset(), message)
    }

    /// Consumes the given punctuation token if it is next.
    fn accept(&mut self, token: &Token) -> bool {
        if self.peek().map(|s| &s.token) == Some(token) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &Token) -> Result<(), SqlError> {
        if self.accept(token) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {:?}, found {}",
                token.to_string(),
                self.describe_next()
            )))
        }
    }

    fn describe_next(&self) -> String {
        match self.peek() {
            Some(s) => format!("{:?}", s.token.to_string()),
            None => "end of input".into(),
        }
    }

    /// Consumes a keyword (case-insensitive) if it is next.
    fn accept_kw(&mut self, kw: &str) -> bool {
        if let Some(Spanned {
            token: Token::Word(w),
            ..
        }) = self.peek()
        {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.accept_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {}", self.describe_next())))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Spanned { token: Token::Word(w), .. }) if w.eq_ignore_ascii_case(kw))
    }

    /// Consumes an identifier (word that is not a keyword, or a quoted
    /// identifier).
    fn identifier(&mut self) -> Result<String, SqlError> {
        match self.peek() {
            Some(Spanned {
                token: Token::Word(w),
                ..
            }) if !is_keyword(w) => {
                let w = w.clone();
                self.pos += 1;
                Ok(w)
            }
            Some(Spanned {
                token: Token::QuotedIdent(w),
                ..
            }) => {
                let w = w.clone();
                self.pos += 1;
                Ok(w)
            }
            _ => Err(self.err(format!(
                "expected identifier, found {}",
                self.describe_next()
            ))),
        }
    }

    // ---- query level ---------------------------------------------------

    fn parse_query(&mut self) -> Result<Query, SqlError> {
        self.nested(Self::parse_query_inner)
    }

    fn parse_query_inner(&mut self) -> Result<Query, SqlError> {
        let body = self.parse_body()?;
        let mut order_by = Vec::new();
        if self.accept_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.accept_kw("DESC") {
                    true
                } else {
                    self.accept_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.accept(&Token::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.accept_kw("LIMIT") {
            match self.next() {
                Some(Spanned {
                    token: Token::Int(v),
                    ..
                }) if v >= 0 => limit = Some(v as u64),
                other => {
                    return Err(SqlError::parse(
                        other.map(|s| s.offset),
                        "expected non-negative integer after LIMIT",
                    ))
                }
            }
        }
        Ok(Query {
            body,
            order_by,
            limit,
        })
    }

    fn parse_body(&mut self) -> Result<QueryBody, SqlError> {
        let mut left = QueryBody::Select(self.parse_select()?);
        loop {
            let op = if self.peek_kw("UNION") {
                SetOp::Union
            } else if self.peek_kw("INTERSECT") {
                SetOp::Intersect
            } else if self.peek_kw("EXCEPT") {
                SetOp::Except
            } else {
                break;
            };
            self.pos += 1;
            let all = self.accept_kw("ALL");
            let right = QueryBody::Select(self.parse_select()?);
            left = QueryBody::SetOp {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_select(&mut self) -> Result<Select, SqlError> {
        self.expect_kw("SELECT")?;
        let distinct = self.accept_kw("DISTINCT");
        let mut projections = vec![self.parse_select_item()?];
        while self.accept(&Token::Comma) {
            projections.push(self.parse_select_item()?);
        }
        let mut select = Select {
            distinct,
            projections,
            ..Select::default()
        };
        if self.accept_kw("FROM") {
            select.from.push(self.parse_table_ref()?);
            loop {
                if self.accept(&Token::Comma) {
                    select.from.push(self.parse_table_ref()?);
                } else if self.peek_kw("JOIN") || self.peek_kw("LEFT") || self.peek_kw("INNER") {
                    select.joins.push(self.parse_join()?);
                } else {
                    break;
                }
            }
        }
        if self.accept_kw("WHERE") {
            select.where_clause = Some(self.parse_expr()?);
        }
        if self.accept_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                select.group_by.push(self.parse_expr()?);
                if !self.accept(&Token::Comma) {
                    break;
                }
            }
        }
        if self.accept_kw("HAVING") {
            select.having = Some(self.parse_expr()?);
        }
        Ok(select)
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, SqlError> {
        if self.accept(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if let (
            Some(Spanned {
                token: Token::Word(w),
                ..
            }),
            Some(p2),
        ) = (self.peek(), self.peek2())
        {
            if !is_keyword(w) && p2.token == Token::Dot {
                if let Some(Spanned {
                    token: Token::Star, ..
                }) = self.tokens.get(self.pos + 2)
                {
                    let table = w.clone();
                    self.pos += 3;
                    return Ok(SelectItem::QualifiedWildcard(table));
                }
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_alias(&mut self) -> Result<Option<String>, SqlError> {
        if self.accept_kw("AS") {
            return Ok(Some(self.identifier()?));
        }
        // Implicit alias: a following non-keyword word.
        if let Some(Spanned {
            token: Token::Word(w),
            ..
        }) = self.peek()
        {
            if !is_keyword(w) {
                let w = w.clone();
                self.pos += 1;
                return Ok(Some(w));
            }
        }
        Ok(None)
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, SqlError> {
        if self.accept(&Token::LParen) {
            let query = self.parse_query()?;
            self.expect(&Token::RParen)?;
            self.accept_kw("AS");
            let alias = self.identifier()?;
            return Ok(TableRef::Derived {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.identifier()?;
        let alias = self.parse_alias()?;
        Ok(TableRef::Named { name, alias })
    }

    fn parse_join(&mut self) -> Result<Join, SqlError> {
        let kind = if self.accept_kw("LEFT") {
            self.accept_kw("OUTER");
            JoinKind::Left
        } else {
            self.accept_kw("INNER");
            JoinKind::Inner
        };
        self.expect_kw("JOIN")?;
        let table = self.parse_table_ref()?;
        let on = if self.accept_kw("ON") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Join { kind, table, on })
    }

    // ---- expressions ---------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, SqlError> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_and()?;
        while self.accept_kw("OR") {
            let right = self.parse_and()?;
            left = Expr::binary(left, BinOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_not()?;
        while self.accept_kw("AND") {
            let right = self.parse_not()?;
            left = Expr::binary(left, BinOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, SqlError> {
        if self.accept_kw("NOT") {
            // A NOT right before `(` counts no level: the parenthesis
            // counts one (see the module docs).
            let inner = if self.peek().map(|s| &s.token) == Some(&Token::LParen) {
                self.parse_not()?
            } else {
                self.nested(Self::parse_not)?
            };
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<Expr, SqlError> {
        let left = self.parse_additive()?;
        // Comparison operators.
        let cmp = match self.peek().map(|s| &s.token) {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::Neq) => Some(BinOp::Neq),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Lte) => Some(BinOp::Lte),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Gte) => Some(BinOp::Gte),
            _ => None,
        };
        if let Some(op) = cmp {
            self.pos += 1;
            let right = self.parse_additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        // Keyword predicates, possibly negated.
        let negated = self.accept_kw("NOT");
        if self.accept_kw("IN") {
            self.expect(&Token::LParen)?;
            if self.peek_kw("SELECT") {
                let query = self.parse_query()?;
                self.expect(&Token::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = vec![self.parse_expr()?];
            while self.accept(&Token::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.accept_kw("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_kw("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.accept_kw("LIKE") {
            let pattern = self.parse_additive()?;
            let op = if negated { BinOp::NotLike } else { BinOp::Like };
            return Ok(Expr::binary(left, op, pattern));
        }
        if negated {
            return Err(self.err("expected IN, BETWEEN or LIKE after NOT"));
        }
        if self.accept_kw("IS") {
            let negated = self.accept_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek().map(|s| &s.token) {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek().map(|s| &s.token) {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, SqlError> {
        if self.accept(&Token::Minus) {
            let inner = self.nested(Self::parse_unary)?;
            // Fold negation of literals for tidier ASTs.
            return Ok(match inner {
                Expr::Literal(Lit::Int(v)) => Expr::Literal(Lit::Int(-v)),
                Expr::Literal(Lit::Float(v)) => Expr::Literal(Lit::Float(-v)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, SqlError> {
        match self.peek().cloned() {
            Some(Spanned {
                token: Token::Int(v),
                ..
            }) => {
                self.pos += 1;
                Ok(Expr::Literal(Lit::Int(v)))
            }
            Some(Spanned {
                token: Token::Float(v),
                ..
            }) => {
                self.pos += 1;
                Ok(Expr::Literal(Lit::Float(v)))
            }
            Some(Spanned {
                token: Token::Str(s),
                ..
            }) => {
                self.pos += 1;
                Ok(Expr::Literal(Lit::Str(s)))
            }
            Some(Spanned {
                token: Token::LParen,
                ..
            }) => {
                self.pos += 1;
                if self.peek_kw("SELECT") {
                    let query = self.parse_query()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(query)));
                }
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Spanned {
                token: Token::Word(w),
                offset,
            }) => self.parse_word_expr(w, offset),
            Some(Spanned {
                token: Token::QuotedIdent(w),
                ..
            }) => {
                self.pos += 1;
                self.parse_column_tail(w)
            }
            other => Err(SqlError::parse(
                other.map(|s| s.offset),
                "expected expression",
            )),
        }
    }

    fn parse_word_expr(&mut self, word: String, offset: usize) -> Result<Expr, SqlError> {
        let upper = word.to_ascii_uppercase();
        match upper.as_str() {
            "NULL" => {
                self.pos += 1;
                return Ok(Expr::Literal(Lit::Null));
            }
            "TRUE" => {
                self.pos += 1;
                return Ok(Expr::Literal(Lit::Bool(true)));
            }
            "FALSE" => {
                self.pos += 1;
                return Ok(Expr::Literal(Lit::Bool(false)));
            }
            "EXISTS" => {
                self.pos += 1;
                self.expect(&Token::LParen)?;
                let query = self.parse_query()?;
                self.expect(&Token::RParen)?;
                return Ok(Expr::Exists {
                    query: Box::new(query),
                    negated: false,
                });
            }
            _ => {}
        }
        if is_keyword(&word) {
            return Err(SqlError::parse(
                Some(offset),
                format!("unexpected keyword {word:?} in expression"),
            ));
        }
        self.pos += 1;
        // Function call?
        if self.peek().map(|s| &s.token) == Some(&Token::LParen) {
            self.pos += 1;
            if let Some(func) = AggFunc::parse(&word) {
                let distinct = self.accept_kw("DISTINCT");
                if self.accept(&Token::Star) {
                    self.expect(&Token::RParen)?;
                    if func != AggFunc::Count {
                        return Err(SqlError::parse(
                            Some(offset),
                            format!("{func}(*) is only valid for count"),
                        ));
                    }
                    return Ok(Expr::Agg {
                        func,
                        distinct,
                        arg: None,
                    });
                }
                let arg = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                return Ok(Expr::Agg {
                    func,
                    distinct,
                    arg: Some(Box::new(arg)),
                });
            }
            let mut args = Vec::new();
            if !self.accept(&Token::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.accept(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            }
            return Ok(Expr::Func {
                name: word.to_ascii_lowercase(),
                args,
            });
        }
        self.parse_column_tail(word)
    }

    fn parse_column_tail(&mut self, first: String) -> Result<Expr, SqlError> {
        if self.accept(&Token::Dot) {
            let column = self.identifier()?;
            return Ok(Expr::Column(ColumnRef {
                table: Some(first),
                column,
            }));
        }
        Ok(Expr::Column(ColumnRef {
            table: None,
            column: first,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_select() {
        let q = parse_query("SELECT 1").unwrap();
        let s = q.leftmost_select();
        assert_eq!(s.projections.len(), 1);
        assert!(s.from.is_empty());
    }

    #[test]
    fn parses_select_star() {
        let q = parse_query("SELECT * FROM player").unwrap();
        let s = q.leftmost_select();
        assert_eq!(s.projections, vec![SelectItem::Wildcard]);
        assert_eq!(s.from.len(), 1);
    }

    #[test]
    fn parses_qualified_wildcard() {
        let q = parse_query("SELECT p.* FROM player AS p").unwrap();
        assert_eq!(
            q.leftmost_select().projections,
            vec![SelectItem::QualifiedWildcard("p".into())]
        );
    }

    #[test]
    fn parses_joins_with_aliases() {
        let q = parse_query(
            "SELECT T2.teamname FROM match AS T1 \
             JOIN national_team AS T2 ON T1.home_team_id = T2.team_id \
             WHERE T1.year = 2014",
        )
        .unwrap();
        let s = q.leftmost_select();
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].table.binding(), "T2");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn parses_left_join() {
        let q = parse_query("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x").unwrap();
        assert_eq!(q.leftmost_select().joins[0].kind, JoinKind::Left);
    }

    #[test]
    fn parses_group_by_having_order_limit() {
        let q = parse_query(
            "SELECT teamname, count(*) AS n FROM t GROUP BY teamname \
             HAVING count(*) > 2 ORDER BY n DESC, teamname ASC LIMIT 5",
        )
        .unwrap();
        let s = q.leftmost_select();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].desc);
        assert!(!q.order_by[1].desc);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn parses_union_chain() {
        let q =
            parse_query("SELECT a FROM t UNION SELECT b FROM u UNION ALL SELECT c FROM v").unwrap();
        assert_eq!(q.body.set_op_count(), 2);
    }

    #[test]
    fn parses_intersect_and_except() {
        let q = parse_query("SELECT a FROM t INTERSECT SELECT a FROM u").unwrap();
        assert!(matches!(
            q.body,
            QueryBody::SetOp {
                op: SetOp::Intersect,
                ..
            }
        ));
        let q = parse_query("SELECT a FROM t EXCEPT SELECT a FROM u").unwrap();
        assert!(matches!(
            q.body,
            QueryBody::SetOp {
                op: SetOp::Except,
                ..
            }
        ));
    }

    #[test]
    fn parses_in_list_and_subquery() {
        let q = parse_query("SELECT * FROM t WHERE x IN (1, 2, 3)").unwrap();
        let w = q.leftmost_select().where_clause.as_ref().unwrap();
        assert!(matches!(w, Expr::InList { list, negated: false, .. } if list.len() == 3));

        let q = parse_query("SELECT * FROM t WHERE x NOT IN (SELECT y FROM u)").unwrap();
        let w = q.leftmost_select().where_clause.as_ref().unwrap();
        assert!(matches!(w, Expr::InSubquery { negated: true, .. }));
    }

    #[test]
    fn parses_exists() {
        let q = parse_query("SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u)").unwrap();
        assert!(matches!(
            q.leftmost_select().where_clause.as_ref().unwrap(),
            Expr::Exists { negated: false, .. }
        ));
    }

    #[test]
    fn parses_between_and_like() {
        let q = parse_query("SELECT * FROM t WHERE y BETWEEN 1930 AND 2022 AND name LIKE 'Bra%'")
            .unwrap();
        let conj = q
            .leftmost_select()
            .where_clause
            .as_ref()
            .unwrap()
            .conjuncts()
            .len();
        assert_eq!(conj, 2);
    }

    #[test]
    fn parses_not_like() {
        let q = parse_query("SELECT * FROM t WHERE name NOT LIKE '%x%'").unwrap();
        let w = q.leftmost_select().where_clause.as_ref().unwrap();
        assert!(matches!(
            w,
            Expr::Binary {
                op: BinOp::NotLike,
                ..
            }
        ));
    }

    #[test]
    fn parses_is_null() {
        let q = parse_query("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL").unwrap();
        let w = q.leftmost_select().where_clause.as_ref().unwrap();
        let c = w.conjuncts();
        assert!(matches!(c[0], Expr::IsNull { negated: false, .. }));
        assert!(matches!(c[1], Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn parses_scalar_subquery() {
        let q = parse_query("SELECT * FROM t WHERE goals = (SELECT max(goals) FROM t)").unwrap();
        let w = q.leftmost_select().where_clause.as_ref().unwrap();
        assert!(
            matches!(w, Expr::Binary { right, .. } if matches!(**right, Expr::ScalarSubquery(_)))
        );
    }

    #[test]
    fn parses_derived_table() {
        let q = parse_query(
            "SELECT n FROM (SELECT count(*) AS n FROM t GROUP BY x) AS sub WHERE n > 1",
        )
        .unwrap();
        assert!(matches!(
            q.leftmost_select().from[0],
            TableRef::Derived { .. }
        ));
    }

    #[test]
    fn parses_aggregates() {
        let q = parse_query(
            "SELECT count(*), count(DISTINCT x), sum(y), avg(y), min(y), max(y) FROM t",
        )
        .unwrap();
        assert_eq!(q.leftmost_select().projections.len(), 6);
    }

    #[test]
    fn rejects_sum_star() {
        assert!(parse_query("SELECT sum(*) FROM t").is_err());
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let q = parse_query("SELECT 1 + 2 * 3").unwrap();
        let item = &q.leftmost_select().projections[0];
        let SelectItem::Expr { expr, .. } = item else {
            panic!()
        };
        // Must parse as 1 + (2 * 3).
        assert!(matches!(expr, Expr::Binary { op: BinOp::Add, right, .. }
            if matches!(**right, Expr::Binary { op: BinOp::Mul, .. })));
    }

    #[test]
    fn parses_boolean_precedence() {
        let q = parse_query("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        let w = q.leftmost_select().where_clause.as_ref().unwrap();
        // OR must be outermost.
        assert!(matches!(w, Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn parses_not_precedence() {
        let q = parse_query("SELECT * FROM t WHERE NOT a = 1 AND b = 2").unwrap();
        let w = q.leftmost_select().where_clause.as_ref().unwrap();
        assert!(matches!(w, Expr::Binary { op: BinOp::And, left, .. }
            if matches!(**left, Expr::Unary { op: UnaryOp::Not, .. })));
    }

    #[test]
    fn parses_negative_literals() {
        let q = parse_query("SELECT -5, -2.5").unwrap();
        let items = &q.leftmost_select().projections;
        assert!(matches!(
            items[0],
            SelectItem::Expr {
                expr: Expr::Literal(Lit::Int(-5)),
                ..
            }
        ));
    }

    #[test]
    fn parses_boolean_literals_and_null() {
        let q =
            parse_query("SELECT * FROM t WHERE won = TRUE AND lost = false AND x = NULL").unwrap();
        assert_eq!(
            q.leftmost_select()
                .where_clause
                .as_ref()
                .unwrap()
                .conjuncts()
                .len(),
            3
        );
    }

    #[test]
    fn parses_implicit_aliases() {
        let q = parse_query("SELECT t.name player_name FROM player t").unwrap();
        let s = q.leftmost_select();
        assert!(matches!(&s.projections[0],
            SelectItem::Expr { alias: Some(a), .. } if a == "player_name"));
        assert_eq!(s.from[0].binding(), "t");
    }

    #[test]
    fn parses_comma_join() {
        let q = parse_query("SELECT * FROM a, b WHERE a.x = b.x").unwrap();
        assert_eq!(q.leftmost_select().from.len(), 2);
    }

    #[test]
    fn parses_quoted_table_name() {
        let q = parse_query("SELECT * FROM \"match\"").unwrap();
        assert_eq!(q.leftmost_select().from[0].base_table(), Some("match"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_query("SELECT 1 FROM t banana split").is_err());
    }

    #[test]
    fn rejects_missing_from_table() {
        assert!(parse_query("SELECT * FROM WHERE x = 1").is_err());
    }

    #[test]
    fn rejects_unbalanced_parens() {
        assert!(parse_query("SELECT * FROM t WHERE (x = 1").is_err());
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse_query("").is_err());
        assert!(parse_query("   ").is_err());
    }

    #[test]
    fn parses_scalar_functions() {
        let q = parse_query("SELECT lower(name), strftime(dob) FROM player").unwrap();
        assert_eq!(q.leftmost_select().projections.len(), 2);
    }

    #[test]
    fn parses_paper_v1_example() {
        // Abbreviated form of the Figure 4 v1 query shape: multi-FK joins.
        let q = parse_query(
            "SELECT T1.home_team_goals, T1.away_team_goals FROM match AS T1 \
             JOIN national_team AS T2 ON T1.home_team_id = T2.team_id \
             JOIN national_team AS T3 ON T1.away_team_id = T3.team_id \
             JOIN world_cup AS T4 ON T1.world_cup_id = T4.world_cup_id \
             WHERE T2.teamname = 'Germany' AND T3.teamname = 'Brazil' AND T4.year = 2014 \
             UNION SELECT T1.home_team_goals, T1.away_team_goals FROM match AS T1 \
             JOIN national_team AS T2 ON T1.home_team_id = T2.team_id \
             JOIN national_team AS T3 ON T1.away_team_id = T3.team_id \
             JOIN world_cup AS T4 ON T1.world_cup_id = T4.world_cup_id \
             WHERE T2.teamname = 'Brazil' AND T3.teamname = 'Germany' AND T4.year = 2014",
        )
        .unwrap();
        assert_eq!(q.body.set_op_count(), 1);
        let mut selects = 0;
        q.visit_selects(&mut |_| selects += 1);
        assert_eq!(selects, 2);
    }

    #[test]
    fn parses_semicolon_terminated() {
        assert!(parse_query("SELECT 1;").is_ok());
    }

    #[test]
    fn rejects_bracket_quoted_identifiers() {
        // Brackets are a SQLite tolerance; PostgreSQL rejects them.
        assert!(parse_query("SELECT [home goals] FROM [match]").is_err());
    }
}
