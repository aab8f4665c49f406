//! Recursive-descent parser for the mini SQL, including the paper's DDL
//! extension: `CREATE … USING <extension> WITH (attr = value, …)`.

use dmx_expr::{BinOp, CmpOp};
use dmx_types::{AttrList, DataType, DmxError, Result, Value};

use crate::ast::*;
use crate::lexer::{tokenize, Token};

/// Parses one statement (an optional trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Stmt> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_sym(";");
    if p.pos != p.tokens.len() {
        return Err(DmxError::Parse(format!(
            "unexpected trailing input near {:?}",
            p.tokens[p.pos]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DmxError::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Token::Sym(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(DmxError::Parse(format!(
                "expected '{s}', found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(DmxError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn string(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Str(s)) => Ok(s),
            other => Err(DmxError::Parse(format!("expected string, found {other:?}"))),
        }
    }

    /// A possibly qualified table name (`emp` or `sys.metrics`), kept
    /// dotted — the catalog treats the whole thing as one name.
    fn table_name(&mut self) -> Result<String> {
        let first = self.ident()?;
        if self.eat_sym(".") {
            let rest = self.ident()?;
            return Ok(format!("{first}.{rest}"));
        }
        Ok(first)
    }

    fn statement(&mut self) -> Result<Stmt> {
        if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            return Ok(Stmt::Explain(Box::new(self.statement()?), analyze));
        }
        if self.eat_kw("CREATE") {
            return self.create();
        }
        if self.eat_kw("DROP") {
            if self.eat_kw("TABLE") || self.eat_kw("RELATION") {
                return Ok(Stmt::DropTable {
                    name: self.table_name()?,
                });
            }
            if self.eat_kw("INDEX") || self.eat_kw("ATTACHMENT") || self.eat_kw("CONSTRAINT") {
                let name = self.ident()?;
                self.expect_kw("ON")?;
                let table = self.table_name()?;
                return Ok(Stmt::DropAttachment { name, table });
            }
            return Err(DmxError::Parse("DROP what?".into()));
        }
        if self.eat_kw("INSERT") {
            self.expect_kw("INTO")?;
            let table = self.table_name()?;
            self.expect_kw("VALUES")?;
            let mut rows = Vec::new();
            loop {
                self.expect_sym("(")?;
                let mut row = Vec::new();
                if !self.eat_sym(")") {
                    loop {
                        row.push(self.expr()?);
                        if !self.eat_sym(",") {
                            break;
                        }
                    }
                    self.expect_sym(")")?;
                }
                rows.push(row);
                if !self.eat_sym(",") {
                    break;
                }
            }
            return Ok(Stmt::Insert { table, rows });
        }
        if self.eat_kw("UPDATE") {
            let table = self.table_name()?;
            self.expect_kw("SET")?;
            let mut sets = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect_sym("=")?;
                sets.push((col, self.expr()?));
                if !self.eat_sym(",") {
                    break;
                }
            }
            let where_ = if self.eat_kw("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Stmt::Update {
                table,
                sets,
                where_,
            });
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.table_name()?;
            let where_ = if self.eat_kw("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Stmt::Delete { table, where_ });
        }
        if self.at_kw("SELECT") {
            return Ok(Stmt::Select(self.select()?));
        }
        if self.eat_kw("BEGIN") {
            return Ok(Stmt::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Stmt::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            if self.eat_kw("TO") {
                self.eat_kw("SAVEPOINT");
                return Ok(Stmt::RollbackTo(self.ident()?));
            }
            return Ok(Stmt::Rollback);
        }
        if self.eat_kw("SAVEPOINT") {
            return Ok(Stmt::Savepoint(self.ident()?));
        }
        if self.eat_kw("RELEASE") {
            self.eat_kw("SAVEPOINT");
            return Ok(Stmt::Release(self.ident()?));
        }
        if self.eat_kw("CHECK") {
            self.expect_kw("TABLE")?;
            return Ok(Stmt::CheckTable {
                name: self.table_name()?,
            });
        }
        if self.eat_kw("REPAIR") {
            self.expect_kw("TABLE")?;
            return Ok(Stmt::RepairTable {
                name: self.table_name()?,
            });
        }
        if self.eat_kw("ANALYZE") {
            self.expect_kw("TABLE")?;
            return Ok(Stmt::AnalyzeTable {
                name: self.table_name()?,
            });
        }
        if self.eat_kw("GRANT") {
            let privilege = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.table_name()?;
            self.expect_kw("TO")?;
            let user = self.ident()?;
            return Ok(Stmt::Grant {
                privilege,
                table,
                user,
            });
        }
        if self.eat_kw("REVOKE") {
            let privilege = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.table_name()?;
            self.expect_kw("FROM")?;
            let user = self.ident()?;
            return Ok(Stmt::Revoke {
                privilege,
                table,
                user,
            });
        }
        Err(DmxError::Parse(format!(
            "unrecognized statement start: {:?}",
            self.peek()
        )))
    }

    fn create(&mut self) -> Result<Stmt> {
        if self.eat_kw("TABLE") || self.eat_kw("RELATION") {
            let name = self.ident()?;
            self.expect_sym("(")?;
            let mut columns = Vec::new();
            loop {
                let cname = self.ident()?;
                let ty = DataType::parse(&self.ident()?)?;
                let mut not_null = false;
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    not_null = true;
                } else {
                    self.eat_kw("NULL");
                }
                columns.push(ColDef {
                    name: cname,
                    data_type: ty,
                    not_null,
                });
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            let using = if self.eat_kw("USING") {
                Some(self.ident()?)
            } else {
                None
            };
            let with = self.with_clause()?;
            return Ok(Stmt::CreateTable {
                name,
                columns,
                using,
                with,
            });
        }
        let unique = self.eat_kw("UNIQUE");
        if self.eat_kw("INDEX") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.table_name()?;
            let using = if self.eat_kw("USING") {
                Some(self.ident()?)
            } else {
                None
            };
            self.expect_sym("(")?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.ident()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            let with = self.with_clause()?;
            return Ok(Stmt::CreateIndex {
                name,
                table,
                using,
                columns,
                unique,
                with,
            });
        }
        if unique {
            return Err(DmxError::Parse(
                "UNIQUE only applies to CREATE INDEX".into(),
            ));
        }
        if self.eat_kw("ATTACHMENT") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.table_name()?;
            self.expect_kw("USING")?;
            let using = self.ident()?;
            let with = self.with_clause()?;
            return Ok(Stmt::CreateAttachment {
                name,
                table,
                using,
                with,
            });
        }
        if self.eat_kw("CONSTRAINT") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.table_name()?;
            self.expect_kw("CHECK")?;
            self.expect_sym("(")?;
            let expr = self.expr()?;
            self.expect_sym(")")?;
            let deferred = self.eat_kw("DEFERRED");
            return Ok(Stmt::CreateCheck {
                name,
                table,
                expr,
                deferred,
            });
        }
        Err(DmxError::Parse("CREATE what?".into()))
    }

    /// `WITH ( k = v, … )` — values may be identifiers, literals or
    /// strings; the pairs feed the extension's `create_instance`.
    fn with_clause(&mut self) -> Result<AttrList> {
        if !self.eat_kw("WITH") {
            return Ok(AttrList::new());
        }
        self.expect_sym("(")?;
        let mut pairs: Vec<(String, String)> = Vec::new();
        loop {
            let key = self.ident()?;
            self.expect_sym("=")?;
            let value = match self.bump() {
                Some(Token::Ident(s)) => s,
                Some(Token::Str(s)) => s,
                Some(Token::Int(i)) => i.to_string(),
                Some(Token::Float(x)) => x.to_string(),
                other => {
                    return Err(DmxError::Parse(format!(
                        "expected attribute value, found {other:?}"
                    )))
                }
            };
            // allow comma-separated field lists: `fields = a, b` would be
            // ambiguous, so multi-value attributes use quoted strings
            pairs.push((key, value));
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        AttrList::from_pairs(pairs)
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let mut items = Vec::new();
        loop {
            if self.eat_sym("*") {
                items.push(SelectItem::Star);
            } else {
                let e = self.expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr(e, alias));
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let mut from = Vec::new();
        loop {
            let table = self.table_name()?;
            let alias = match self.peek() {
                Some(Token::Ident(s)) if !is_reserved(s) => Some(self.ident()?),
                _ => None,
            };
            from.push(TableRef { table, alias });
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_ = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let target = match self.bump() {
                    Some(Token::Int(i)) if i >= 1 => OrderTarget::Position(i as usize),
                    Some(Token::Ident(s)) => OrderTarget::Name(s),
                    other => {
                        return Err(DmxError::Parse(format!(
                            "ORDER BY expects a column name or position, found {other:?}"
                        )))
                    }
                };
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey {
                    column: target,
                    desc,
                });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.bump() {
                Some(Token::Int(i)) if i >= 0 => Some(i as u64),
                other => return Err(DmxError::Parse(format!("bad LIMIT {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            where_,
            group_by,
            order_by,
            limit,
        })
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut terms = vec![self.and_expr()?];
        while self.eat_kw("OR") {
            terms.push(self.and_expr()?);
        }
        Ok(match terms.pop() {
            Some(only) if terms.is_empty() => only,
            Some(last) => {
                terms.push(last);
                AstExpr::Or(terms)
            }
            None => AstExpr::Or(terms),
        })
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut terms = vec![self.not_expr()?];
        while self.eat_kw("AND") {
            terms.push(self.not_expr()?);
        }
        Ok(match terms.pop() {
            Some(only) if terms.is_empty() => only,
            Some(last) => {
                terms.push(last);
                AstExpr::And(terms)
            }
            None => AstExpr::And(terms),
        })
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.eat_kw("NOT") {
            return Ok(AstExpr::Not(Box::new(self.not_expr()?)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<AstExpr> {
        let left = self.add_expr()?;
        // postfix forms
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(AstExpr::IsNull(Box::new(left), negated));
        }
        if self.eat_kw("LIKE") {
            let pat = self.string()?;
            return Ok(AstExpr::Like(Box::new(left), pat));
        }
        // `x [NOT] BETWEEN a AND b` is the conjunct pair `x >= a AND x <= b`
        // (negated, `x < a OR x > b`); the bounds are additive expressions,
        // so the AND between them is BETWEEN's own.
        let negated = self.at_kw("NOT")
            && (self.tokens.get(self.pos + 1)).is_some_and(|t| t.is_kw("BETWEEN"));
        if negated {
            self.pos += 1;
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.add_expr()?;
            self.expect_kw("AND")?;
            let hi = self.add_expr()?;
            let cmp = |op, bound| AstExpr::Cmp(op, Box::new(left.clone()), Box::new(bound));
            return Ok(if negated {
                AstExpr::Or(vec![cmp(CmpOp::Lt, lo), cmp(CmpOp::Gt, hi)])
            } else {
                AstExpr::And(vec![cmp(CmpOp::Ge, lo), cmp(CmpOp::Le, hi)])
            });
        }
        if self.eat_kw("ENCLOSES") {
            let right = self.add_expr()?;
            return Ok(AstExpr::Encloses(Box::new(left), Box::new(right)));
        }
        if self.eat_kw("INTERSECTS") {
            let right = self.add_expr()?;
            return Ok(AstExpr::Intersects(Box::new(left), Box::new(right)));
        }
        let op = match self.peek() {
            Some(Token::Sym("=")) => Some(CmpOp::Eq),
            Some(Token::Sym("<>")) => Some(CmpOp::Ne),
            Some(Token::Sym("<")) => Some(CmpOp::Lt),
            Some(Token::Sym("<=")) => Some(CmpOp::Le),
            Some(Token::Sym(">")) => Some(CmpOp::Gt),
            Some(Token::Sym(">=")) => Some(CmpOp::Ge),
            _ => None,
        };
        match op {
            None => Ok(left),
            Some(op) => {
                self.bump();
                let right = self.add_expr()?;
                Ok(AstExpr::Cmp(op, Box::new(left), Box::new(right)))
            }
        }
    }

    fn add_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym("+")) => BinOp::Add,
                Some(Token::Sym("-")) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.mul_expr()?;
            left = AstExpr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym("*")) => BinOp::Mul,
                Some(Token::Sym("/")) => BinOp::Div,
                Some(Token::Sym("%")) => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.unary_expr()?;
            left = AstExpr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<AstExpr> {
        if self.eat_sym("-") {
            let inner = self.unary_expr()?;
            return Ok(match inner {
                AstExpr::Lit(Value::Int(i)) => AstExpr::Lit(Value::Int(-i)),
                AstExpr::Lit(Value::Float(x)) => AstExpr::Lit(Value::Float(-x)),
                e => AstExpr::Neg(Box::new(e)),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.bump() {
            Some(Token::Int(i)) => Ok(AstExpr::Lit(Value::Int(i))),
            Some(Token::Float(x)) => Ok(AstExpr::Lit(Value::Float(x))),
            Some(Token::Str(s)) => Ok(AstExpr::Lit(Value::Str(s))),
            Some(Token::Sym("(")) => {
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Token::Ident(id)) => {
                if id.eq_ignore_ascii_case("TRUE") {
                    return Ok(AstExpr::Lit(Value::Bool(true)));
                }
                if id.eq_ignore_ascii_case("FALSE") {
                    return Ok(AstExpr::Lit(Value::Bool(false)));
                }
                if id.eq_ignore_ascii_case("NULL") {
                    return Ok(AstExpr::Lit(Value::Null));
                }
                // function call?
                if self.eat_sym("(") {
                    if id.eq_ignore_ascii_case("COUNT") && self.eat_sym("*") {
                        self.expect_sym(")")?;
                        return Ok(AstExpr::CountStar);
                    }
                    let mut args = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_sym(",") {
                                break;
                            }
                        }
                        self.expect_sym(")")?;
                    }
                    return Ok(AstExpr::Func(id, args));
                }
                // qualified column?
                if self.eat_sym(".") {
                    let col = self.ident()?;
                    return Ok(AstExpr::Column(Some(id), col));
                }
                Ok(AstExpr::Column(None, id))
            }
            other => Err(DmxError::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

fn is_reserved(s: &str) -> bool {
    const RESERVED: &[&str] = &[
        "WHERE", "GROUP", "ORDER", "LIMIT", "FROM", "SELECT", "AND", "OR", "NOT", "AS", "ON",
        "SET", "VALUES", "JOIN", "USING", "WITH", "ASC", "DESC", "BY", "BETWEEN",
    ];
    RESERVED.iter().any(|r| s.eq_ignore_ascii_case(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_with_extension_clause() {
        let s = parse(
            "CREATE TABLE emp (id INT NOT NULL, name STRING, salary FLOAT) USING btree WITH (key = id)",
        )
        .unwrap();
        match s {
            Stmt::CreateTable {
                name,
                columns,
                using,
                with,
            } => {
                assert_eq!(name, "emp");
                assert_eq!(columns.len(), 3);
                assert!(columns[0].not_null);
                assert!(!columns[1].not_null);
                assert_eq!(using.as_deref(), Some("btree"));
                assert_eq!(with.get("key"), Some("id"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_index_variants() {
        let s = parse("CREATE UNIQUE INDEX i ON t (a, b) WITH (x='1')").unwrap();
        match s {
            Stmt::CreateIndex {
                unique,
                columns,
                using,
                ..
            } => {
                assert!(unique);
                assert_eq!(columns, vec!["a", "b"]);
                assert_eq!(using, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse("CREATE INDEX i ON t USING hash (a)").unwrap(),
            Stmt::CreateIndex { using: Some(u), .. } if u == "hash"
        ));
    }

    #[test]
    fn check_and_attachment_ddl() {
        let s = parse("CREATE CONSTRAINT pos ON emp CHECK (salary > 0) DEFERRED").unwrap();
        assert!(matches!(s, Stmt::CreateCheck { deferred: true, .. }));
        let s = parse(
            "CREATE ATTACHMENT fk ON emp USING refint WITH (role=child, fields=dept, other=dept, other_fields=id)",
        )
        .unwrap();
        assert!(matches!(s, Stmt::CreateAttachment { using, .. } if using == "refint"));
    }

    #[test]
    fn dml_statements() {
        let s = parse("INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', 3.5)").unwrap();
        match s {
            Stmt::Insert { rows, .. } => assert_eq!(rows.len(), 2),
            other => panic!("{other:?}"),
        }
        let s = parse("UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").unwrap();
        assert!(matches!(s, Stmt::Update { sets, where_: Some(_), .. } if sets.len() == 2));
        let s = parse("DELETE FROM t").unwrap();
        assert!(matches!(s, Stmt::Delete { where_: None, .. }));
    }

    #[test]
    fn select_full_shape() {
        let s = parse(
            "SELECT e.name AS n, COUNT(*), SUM(e.salary) FROM emp e, dept d \
             WHERE e.dept = d.id AND e.salary >= 100 GROUP BY e.name \
             ORDER BY n DESC, 2 LIMIT 10",
        )
        .unwrap();
        match s {
            Stmt::Select(sel) => {
                assert_eq!(sel.items.len(), 3);
                assert_eq!(sel.from.len(), 2);
                assert_eq!(sel.from[0].alias.as_deref(), Some("e"));
                assert!(sel.where_.is_some());
                assert_eq!(sel.group_by.len(), 1);
                assert_eq!(sel.order_by.len(), 2);
                assert!(sel.order_by[0].desc);
                assert_eq!(sel.order_by[1].column, OrderTarget::Position(2));
                assert_eq!(sel.limit, Some(10));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spatial_and_misc_expressions() {
        let s = parse("SELECT * FROM p WHERE area ENCLOSES RECT(1, 2, 3, 4)").unwrap();
        if let Stmt::Select(sel) = s {
            assert!(matches!(sel.where_, Some(AstExpr::Encloses(_, _))));
        } else {
            panic!()
        }
        let s = parse("SELECT * FROM t WHERE name LIKE 'a%' AND x IS NOT NULL").unwrap();
        if let Stmt::Select(sel) = s {
            match sel.where_.unwrap() {
                AstExpr::And(v) => {
                    assert!(matches!(&v[0], AstExpr::Like(_, p) if p == "a%"));
                    assert!(matches!(&v[1], AstExpr::IsNull(_, true)));
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn between_is_its_two_conjuncts() {
        let where_of = |sql: &str| match parse(sql).unwrap() {
            Stmt::Select(sel) => sel.where_.unwrap(),
            other => panic!("{other:?}"),
        };
        assert_eq!(
            where_of("SELECT * FROM t WHERE x BETWEEN 1 AND y + 2"),
            where_of("SELECT * FROM t WHERE x >= 1 AND x <= y + 2")
        );
        assert_eq!(
            where_of("SELECT * FROM t WHERE x NOT BETWEEN 1 AND 5"),
            where_of("SELECT * FROM t WHERE x < 1 OR x > 5")
        );
        // the AND after the upper bound is the WHERE clause's
        match where_of("SELECT * FROM t WHERE x BETWEEN 1 AND 5 AND NOT y = 2") {
            AstExpr::And(v) => assert!(matches!(&v[1], AstExpr::Not(_)), "{v:?}"),
            other => panic!("{other:?}"),
        }
        assert!(parse("SELECT * FROM t WHERE x BETWEEN 1").is_err());
    }

    #[test]
    fn txn_control_and_grants() {
        assert_eq!(parse("BEGIN").unwrap(), Stmt::Begin);
        assert_eq!(parse("COMMIT;").unwrap(), Stmt::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Stmt::Rollback);
        assert_eq!(
            parse("ROLLBACK TO SAVEPOINT sp1").unwrap(),
            Stmt::RollbackTo("sp1".into())
        );
        assert_eq!(parse("SAVEPOINT s").unwrap(), Stmt::Savepoint("s".into()));
        assert!(matches!(
            parse("GRANT select ON emp TO bob").unwrap(),
            Stmt::Grant { .. }
        ));
    }

    #[test]
    fn operator_precedence() {
        let s = parse("SELECT * FROM t WHERE a + 1 * 2 = 3 OR b = 4 AND c = 5").unwrap();
        if let Stmt::Select(sel) = s {
            // OR of [a+1*2=3, AND[b=4, c=5]]
            match sel.where_.unwrap() {
                AstExpr::Or(v) => {
                    assert_eq!(v.len(), 2);
                    assert!(matches!(&v[1], AstExpr::And(t) if t.len() == 2));
                    if let AstExpr::Cmp(_, l, _) = &v[0] {
                        // a + (1*2)
                        assert!(matches!(
                            l.as_ref(),
                            AstExpr::Arith(BinOp::Add, _, r) if matches!(r.as_ref(), AstExpr::Arith(BinOp::Mul, _, _))
                        ));
                    } else {
                        panic!()
                    }
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELECT").is_err());
        assert!(parse("CREATE TABLE t").is_err());
        assert!(parse("INSERT INTO t VALUES").is_err());
        assert!(parse("SELECT * FROM t; garbage").is_err());
        assert!(parse("UPDATE t SET").is_err());
    }

    #[test]
    fn explain_wraps() {
        assert!(matches!(
            parse("EXPLAIN SELECT * FROM t").unwrap(),
            Stmt::Explain(inner, false) if matches!(*inner, Stmt::Select(_))
        ));
        assert!(matches!(
            parse("EXPLAIN ANALYZE SELECT * FROM t").unwrap(),
            Stmt::Explain(inner, true) if matches!(*inner, Stmt::Select(_))
        ));
        assert!(matches!(
            parse("EXPLAIN UPDATE t SET a = 1").unwrap(),
            Stmt::Explain(inner, false) if matches!(*inner, Stmt::Update { .. })
        ));
    }

    #[test]
    fn dotted_table_names() {
        let s = parse("SELECT * FROM sys.metrics m WHERE m.kind = 'counter'").unwrap();
        match s {
            Stmt::Select(sel) => {
                assert_eq!(sel.from[0].table, "sys.metrics");
                assert_eq!(sel.from[0].alias.as_deref(), Some("m"));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse("DELETE FROM sys.trace").unwrap(),
            Stmt::Delete { table, .. } if table == "sys.trace"
        ));
        assert!(matches!(
            parse("GRANT select ON sys.metrics TO bob").unwrap(),
            Stmt::Grant { table, .. } if table == "sys.metrics"
        ));
    }
}
