//! SQL rendering and string normalization.
//!
//! [`to_sql`] renders an AST back to canonical SQL text (single spaces,
//! uppercase keywords, lowercase function names). [`normalize`] is the
//! paper's "string normalization" post-processing step (Table 4): it
//! removes tabs, line breaks, and repeated spaces from raw model output
//! without parsing it.
//!
//! The conformance harness's divergence minimizer relies on `to_sql`
//! being a *fixpoint* under parse (`to_sql(parse(to_sql(q))) ==
//! to_sql(q)`): each clause-deletion candidate is printed, re-parsed by
//! both executors, and compared, so any print/parse drift would
//! masquerade as an engine divergence.

use crate::ast::*;
use std::fmt::Write;

/// Renders a query as canonical SQL text, with PostgreSQL's spelling of
/// every literal (booleans print as `TRUE`/`FALSE`).
pub fn to_sql(query: &Query) -> String {
    let mut out = String::with_capacity(128);
    write_query(&mut out, query);
    out
}

fn write_query(out: &mut String, q: &Query) {
    write_body(out, &q.body);
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        for (i, item) in q.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, &item.expr);
            if item.desc {
                out.push_str(" DESC");
            }
        }
    }
    if let Some(n) = q.limit {
        let _ = write!(out, " LIMIT {n}");
    }
}

fn write_body(out: &mut String, body: &QueryBody) {
    match body {
        QueryBody::Select(s) => write_select(out, s),
        QueryBody::SetOp {
            op,
            all,
            left,
            right,
        } => {
            write_body(out, left);
            let _ = write!(out, " {op}");
            if *all {
                out.push_str(" ALL");
            }
            out.push(' ');
            write_body(out, right);
        }
    }
}

fn write_select(out: &mut String, s: &Select) {
    out.push_str("SELECT ");
    if s.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in s.projections.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(t) => {
                let _ = write!(out, "{t}.*");
            }
            SelectItem::Expr { expr, alias } => {
                write_expr(out, expr);
                if let Some(a) = alias {
                    let _ = write!(out, " AS {a}");
                }
            }
        }
    }
    if !s.from.is_empty() {
        out.push_str(" FROM ");
        for (i, t) in s.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_table_ref(out, t);
        }
        for j in &s.joins {
            let _ = write!(out, " {} ", j.kind);
            write_table_ref(out, &j.table);
            if let Some(on) = &j.on {
                out.push_str(" ON ");
                write_expr(out, on);
            }
        }
    }
    if let Some(w) = &s.where_clause {
        out.push_str(" WHERE ");
        write_expr(out, w);
    }
    if !s.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        for (i, g) in s.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, g);
        }
    }
    if let Some(h) = &s.having {
        out.push_str(" HAVING ");
        write_expr(out, h);
    }
}

fn write_table_ref(out: &mut String, t: &TableRef) {
    match t {
        TableRef::Named { name, alias } => {
            out.push_str(name);
            if let Some(a) = alias {
                let _ = write!(out, " AS {a}");
            }
        }
        TableRef::Derived { query, alias } => {
            out.push('(');
            write_query(out, query);
            let _ = write!(out, ") AS {alias}");
        }
    }
}

/// Operator precedence used to decide parenthesization when printing.
fn precedence(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq
        | BinOp::Neq
        | BinOp::Lt
        | BinOp::Lte
        | BinOp::Gt
        | BinOp::Gte
        | BinOp::Like
        | BinOp::NotLike => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div => 5,
    }
}

fn write_expr(out: &mut String, e: &Expr) {
    write_expr_prec(out, e, 0);
}

fn write_expr_prec(out: &mut String, e: &Expr, parent_prec: u8) {
    match e {
        Expr::Column(c) => {
            let _ = write!(out, "{c}");
        }
        Expr::Literal(l) => write_lit(out, l),
        Expr::Unary { op, expr } => match op {
            UnaryOp::Not => {
                out.push_str("NOT ");
                write_expr_prec(out, expr, 6);
            }
            UnaryOp::Neg => {
                out.push('-');
                let operand = out.len();
                write_expr_prec(out, expr, 6);
                // `--` would open a line comment: `- -a`, not `--a`.
                if out[operand..].starts_with('-') {
                    out.insert(operand, ' ');
                }
            }
        },
        Expr::Binary { left, op, right } => {
            let prec = precedence(*op);
            let needs_parens = prec < parent_prec;
            if needs_parens {
                out.push('(');
            }
            write_expr_prec(out, left, prec);
            let _ = write!(out, " {op} ");
            // Right side binds one tighter for left-associative printing.
            write_expr_prec(out, right, prec + 1);
            if needs_parens {
                out.push(')');
            }
        }
        Expr::Agg {
            func,
            distinct,
            arg,
        } => {
            let _ = write!(out, "{func}(");
            if *distinct {
                out.push_str("DISTINCT ");
            }
            match arg {
                Some(a) => write_expr(out, a),
                None => out.push('*'),
            }
            out.push(')');
        }
        Expr::Func { name, args } => {
            let _ = write!(out, "{name}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a);
            }
            out.push(')');
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            write_expr_prec(out, expr, 4);
            if *negated {
                out.push_str(" NOT");
            }
            out.push_str(" IN (");
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item);
            }
            out.push(')');
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            write_expr_prec(out, expr, 4);
            if *negated {
                out.push_str(" NOT");
            }
            out.push_str(" IN (");
            write_query(out, query);
            out.push(')');
        }
        Expr::Exists { query, negated } => {
            if *negated {
                out.push_str("NOT ");
            }
            out.push_str("EXISTS (");
            write_query(out, query);
            out.push(')');
        }
        Expr::ScalarSubquery(query) => {
            out.push('(');
            write_query(out, query);
            out.push(')');
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            write_expr_prec(out, expr, 4);
            if *negated {
                out.push_str(" NOT");
            }
            out.push_str(" BETWEEN ");
            write_expr_prec(out, low, 4);
            out.push_str(" AND ");
            write_expr_prec(out, high, 4);
        }
        Expr::IsNull { expr, negated } => {
            write_expr_prec(out, expr, 4);
            if *negated {
                out.push_str(" IS NOT NULL");
            } else {
                out.push_str(" IS NULL");
            }
        }
    }
}

fn write_lit(out: &mut String, l: &Lit) {
    match l {
        Lit::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Lit::Float(v) => {
            let _ = write!(out, "{v}");
        }
        Lit::Str(s) => {
            out.push('\'');
            for ch in s.chars() {
                if ch == '\'' {
                    out.push('\'');
                }
                out.push(ch);
            }
            out.push('\'');
        }
        Lit::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
        Lit::Null => out.push_str("NULL"),
    }
}

/// Renders a single expression as SQL text (used for derived output
/// column names).
pub fn expr_to_sql(e: &Expr) -> String {
    let mut out = String::with_capacity(16);
    write_expr(&mut out, e);
    out
}

/// Raw string normalization of model output: strips tabs, carriage
/// returns, and newlines, collapses runs of spaces, and trims. Does not
/// require the input to be valid SQL.
pub fn normalize(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut last_space = true;
    for ch in raw.chars() {
        let ch = match ch {
            '\t' | '\r' | '\n' => ' ',
            c => c,
        };
        if ch == ' ' {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(ch);
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn roundtrip(sql: &str) -> String {
        to_sql(&parse_query(sql).unwrap())
    }

    #[test]
    fn prints_canonical_select() {
        assert_eq!(
            roundtrip("select   a ,  b from t where a=1"),
            "SELECT a, b FROM t WHERE a = 1"
        );
    }

    #[test]
    fn roundtrip_is_stable() {
        let cases = [
            "SELECT * FROM t",
            "SELECT DISTINCT a FROM t",
            "SELECT count(*) FROM t GROUP BY a HAVING count(*) > 1",
            "SELECT a FROM t ORDER BY a DESC LIMIT 3",
            "SELECT a FROM t UNION SELECT b FROM u",
            "SELECT a FROM t WHERE x IN (1, 2)",
            "SELECT a FROM t WHERE x NOT IN (SELECT y FROM u)",
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)",
            "SELECT a FROM t WHERE y BETWEEN 1 AND 2",
            "SELECT a FROM t WHERE n LIKE 'Br%'",
            "SELECT a FROM t WHERE n IS NOT NULL",
            "SELECT a + b * c FROM t",
            "SELECT t.a AS x FROM big AS t JOIN u AS v ON t.id = v.id",
            "SELECT n FROM (SELECT count(*) AS n FROM t) AS sub",
        ];
        for sql in cases {
            let once = roundtrip(sql);
            let twice = to_sql(&parse_query(&once).unwrap());
            assert_eq!(once, twice, "unstable for {sql}");
        }
    }

    #[test]
    fn nested_negation_never_prints_a_line_comment() {
        assert_eq!(roundtrip("SELECT - -a FROM t"), "SELECT - -a FROM t");
        assert_eq!(
            roundtrip("SELECT -(-a + 1) FROM t"),
            "SELECT -(-a + 1) FROM t"
        );
        let negated_literal = Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::Literal(Lit::Int(-5))),
        };
        assert_eq!(expr_to_sql(&negated_literal), "- -5");
        for sql in ["SELECT - - - a FROM t", "SELECT 1 - - -a FROM t"] {
            let q = parse_query(sql).unwrap();
            assert_eq!(parse_query(&to_sql(&q)).unwrap(), q, "{sql}");
        }
    }

    #[test]
    fn parenthesizes_or_under_and() {
        let printed = roundtrip("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3");
        assert_eq!(printed, "SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3");
        // Re-parse must preserve structure.
        let q = parse_query(&printed).unwrap();
        let w = q.leftmost_select().where_clause.as_ref().unwrap();
        assert!(matches!(w, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn roundtrip_is_fixpoint_on_minimizer_shapes() {
        // Shapes the conformance minimizer emits: nested set operations,
        // NULL members in IN lists, negated predicates, qualified
        // columns with aliases, positional ORDER BY.
        let cases = [
            "SELECT pid FROM player UNION ALL SELECT pid FROM appearance \
             INTERSECT ALL SELECT minutes FROM appearance",
            "SELECT id FROM t WHERE v NOT IN (9, NULL)",
            "SELECT id FROM t WHERE NOT (v BETWEEN 1 AND 3)",
            "SELECT p.pid, a.aid FROM player AS p LEFT JOIN appearance AS a \
             ON p.pid = a.pid ORDER BY 1 DESC, 2",
            "SELECT squad, count(DISTINCT nick) AS agg0 FROM player \
             GROUP BY squad HAVING count(*) >= 2 ORDER BY agg0 DESC, 1",
        ];
        for sql in cases {
            let printed = roundtrip(sql);
            assert_eq!(roundtrip(&printed), printed, "not a fixpoint: {sql}");
        }
    }

    #[test]
    fn escapes_quotes_in_strings() {
        let printed = roundtrip("SELECT * FROM t WHERE name = 'O''Neill'");
        assert!(printed.contains("'O''Neill'"));
        assert!(parse_query(&printed).is_ok());
    }

    #[test]
    fn prints_left_join() {
        assert_eq!(
            roundtrip("SELECT * FROM a LEFT JOIN b ON a.x = b.x"),
            "SELECT * FROM a LEFT JOIN b ON a.x = b.x"
        );
    }

    #[test]
    fn normalize_collapses_whitespace() {
        assert_eq!(
            normalize("SELECT\t*\n  FROM   t \r\n WHERE x = 1  "),
            "SELECT * FROM t WHERE x = 1"
        );
    }

    #[test]
    fn normalize_is_idempotent() {
        let once = normalize("a\t\tb\n\nc   d");
        assert_eq!(normalize(&once), once);
    }

    #[test]
    fn normalize_handles_empty() {
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("   \n\t "), "");
    }

    #[test]
    fn prints_bools_as_keywords() {
        assert_eq!(
            roundtrip("SELECT * FROM t WHERE a = TRUE AND b != false"),
            "SELECT * FROM t WHERE a = TRUE AND b != FALSE"
        );
    }
}
