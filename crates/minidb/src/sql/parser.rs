//! Recursive-descent parser for the SQL subset.

use crate::error::{DbError, DbResult};
use crate::sql::ast::*;
use crate::sql::lexer::{tokenize, Symbol, Token, TokenKind};
use crate::value::{DataType, Value};

/// Parse a single SQL statement (a trailing `;` is allowed).
pub fn parse_statement(src: &str) -> DbResult<Statement> {
    let mut p = Parser::new(src)?;
    let stmt = p.statement()?;
    p.eat_symbol(Symbol::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a `;`-separated script into statements.
pub fn parse_script(src: &str) -> DbResult<Vec<Statement>> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    loop {
        while p.eat_symbol(Symbol::Semicolon) {}
        if p.at_eof() {
            break;
        }
        out.push(p.statement()?);
        if !p.eat_symbol(Symbol::Semicolon) {
            break;
        }
    }
    p.expect_eof()?;
    Ok(out)
}

/// Parse a standalone expression (used by tests and constraint tooling).
pub fn parse_expr(src: &str) -> DbResult<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> DbResult<Parser> {
        Ok(Parser {
            tokens: tokenize(src)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        let i = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn expect_eof(&self) -> DbResult<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "unexpected trailing input: {:?}",
                self.peek()
            )))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if k == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn at_symbol(&self, s: Symbol) -> bool {
        matches!(self.peek(), TokenKind::Symbol(sym) if *sym == s)
    }

    fn eat_symbol(&mut self, s: Symbol) -> bool {
        if self.at_symbol(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> DbResult<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    /// Accept an identifier; keywords that name functions/types are also
    /// valid identifiers in column positions for convenience.
    fn ident(&mut self) -> DbResult<String> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(DbError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    // ---------------------------------------------------------- statements

    fn statement(&mut self) -> DbResult<Statement> {
        match self.peek() {
            TokenKind::Keyword(k) => match k.as_str() {
                "SELECT" => Ok(Statement::Select(self.select()?)),
                "INSERT" => self.insert(),
                "UPDATE" => self.update(),
                "DELETE" => self.delete(),
                "CREATE" => self.create(),
                "DROP" => self.drop(),
                other => Err(DbError::Parse(format!("unexpected keyword {other}"))),
            },
            other => Err(DbError::Parse(format!(
                "expected statement, found {other:?}"
            ))),
        }
    }

    fn select(&mut self) -> DbResult<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let distinct = if self.eat_keyword("DISTINCT") {
            true
        } else {
            self.eat_keyword("ALL");
            false
        };
        let mut projections = vec![self.select_item()?];
        while self.eat_symbol(Symbol::Comma) {
            projections.push(self.select_item()?);
        }
        let mut from = Vec::new();
        if self.eat_keyword("FROM") {
            from.push(self.from_leading()?);
            loop {
                if self.eat_symbol(Symbol::Comma) {
                    let (table, alias) = self.table_ref()?;
                    from.push(FromItem {
                        table,
                        alias,
                        join: JoinSpec::Cross,
                    });
                } else if self.at_keyword("JOIN")
                    || self.at_keyword("INNER")
                    || self.at_keyword("LEFT")
                    || self.at_keyword("CROSS")
                {
                    from.push(self.join_item()?);
                } else {
                    break;
                }
            }
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expr()?);
            while self.eat_symbol(Symbol::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_keyword("DESC") {
                    false
                } else {
                    self.eat_keyword("ASC");
                    true
                };
                order_by.push(OrderKey { expr, asc });
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            Some(self.usize_lit()?)
        } else {
            None
        };
        let offset = if self.eat_keyword("OFFSET") {
            Some(self.usize_lit()?)
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            projections,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn usize_lit(&mut self) -> DbResult<usize> {
        match self.bump() {
            TokenKind::IntLit(n) if n >= 0 => Ok(n as usize),
            other => Err(DbError::Parse(format!(
                "expected non-negative integer, found {other:?}"
            ))),
        }
    }

    fn select_item(&mut self) -> DbResult<SelectItem> {
        if self.at_symbol(Symbol::Star) {
            self.bump();
            return Ok(SelectItem::Wildcard);
        }
        // alias.* ?
        if let TokenKind::Ident(name) = self.peek() {
            if matches!(self.peek2(), TokenKind::Symbol(Symbol::Dot)) {
                // Look one past the dot.
                let third = self
                    .tokens
                    .get(self.pos + 2)
                    .map(|t| t.kind.clone())
                    .unwrap_or(TokenKind::Eof);
                if matches!(third, TokenKind::Symbol(Symbol::Star)) {
                    let q = name.clone();
                    self.bump();
                    self.bump();
                    self.bump();
                    return Ok(SelectItem::QualifiedWildcard(q));
                }
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.ident()?)
        } else if let TokenKind::Ident(_) = self.peek() {
            // Bare alias.
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> DbResult<(String, Option<String>)> {
        let table = self.ident()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.ident()?)
        } else if let TokenKind::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok((table, alias))
    }

    #[allow(clippy::wrong_self_convention)] // parses the leading FROM item
    fn from_leading(&mut self) -> DbResult<FromItem> {
        let (table, alias) = self.table_ref()?;
        Ok(FromItem {
            table,
            alias,
            join: JoinSpec::Leading,
        })
    }

    fn join_item(&mut self) -> DbResult<FromItem> {
        if self.eat_keyword("CROSS") {
            self.expect_keyword("JOIN")?;
            let (table, alias) = self.table_ref()?;
            return Ok(FromItem {
                table,
                alias,
                join: JoinSpec::Cross,
            });
        }
        let left = self.eat_keyword("LEFT");
        if left {
            self.eat_keyword("OUTER");
        } else {
            self.eat_keyword("INNER");
        }
        self.expect_keyword("JOIN")?;
        let (table, alias) = self.table_ref()?;
        self.expect_keyword("ON")?;
        let on = self.expr()?;
        Ok(FromItem {
            table,
            alias,
            join: if left {
                JoinSpec::Left(on)
            } else {
                JoinSpec::Inner(on)
            },
        })
    }

    fn insert(&mut self) -> DbResult<Statement> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.ident()?;
        let columns = if self.at_symbol(Symbol::LParen) {
            self.bump();
            let mut cols = vec![self.ident()?];
            while self.eat_symbol(Symbol::Comma) {
                cols.push(self.ident()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            Some(cols)
        } else {
            None
        };
        let source = if self.eat_keyword("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect_symbol(Symbol::LParen)?;
                let mut row = vec![self.expr()?];
                while self.eat_symbol(Symbol::Comma) {
                    row.push(self.expr()?);
                }
                self.expect_symbol(Symbol::RParen)?;
                rows.push(row);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.at_keyword("SELECT") {
            InsertSource::Query(Box::new(self.select()?))
        } else {
            return Err(DbError::Parse("expected VALUES or SELECT".into()));
        };
        Ok(Statement::Insert(InsertStmt {
            table,
            columns,
            source,
        }))
    }

    fn update(&mut self) -> DbResult<Statement> {
        self.expect_keyword("UPDATE")?;
        let table = self.ident()?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_symbol(Symbol::Eq)?;
            let e = self.expr()?;
            assignments.push((col, e));
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update(UpdateStmt {
            table,
            assignments,
            where_clause,
        }))
    }

    fn delete(&mut self) -> DbResult<Statement> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(DeleteStmt {
            table,
            where_clause,
        }))
    }

    fn create(&mut self) -> DbResult<Statement> {
        self.expect_keyword("CREATE")?;
        if self.eat_keyword("TABLE") {
            let if_not_exists = if self.eat_keyword("IF") {
                self.expect_keyword("NOT")?;
                self.expect_keyword("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            self.expect_symbol(Symbol::LParen)?;
            let mut columns = Vec::new();
            loop {
                let col = self.ident()?;
                let dtype = self.data_type()?;
                let mut not_null = false;
                loop {
                    if self.eat_keyword("NOT") {
                        self.expect_keyword("NULL")?;
                        not_null = true;
                    } else if self.eat_keyword("PRIMARY") {
                        self.expect_keyword("KEY")?;
                        not_null = true;
                    } else if self.eat_keyword("NULL") || self.eat_keyword("UNIQUE") {
                        // accepted and ignored
                    } else {
                        break;
                    }
                }
                columns.push((col, dtype, not_null));
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            Ok(Statement::CreateTable(CreateTableStmt {
                name,
                columns,
                if_not_exists,
            }))
        } else {
            Err(DbError::Parse("expected TABLE after CREATE".into()))
        }
    }

    fn drop(&mut self) -> DbResult<Statement> {
        self.expect_keyword("DROP")?;
        self.expect_keyword("TABLE")?;
        let if_exists = if self.eat_keyword("IF") {
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn data_type(&mut self) -> DbResult<DataType> {
        let kw = match self.bump() {
            TokenKind::Keyword(k) => k,
            other => return Err(DbError::Parse(format!("expected type, found {other:?}"))),
        };
        let dt = match kw.as_str() {
            "INT" | "INTEGER" | "BIGINT" => DataType::Int,
            "TEXT" | "STRING" => DataType::Str,
            "VARCHAR" | "CHAR" => {
                // optional (n)
                if self.eat_symbol(Symbol::LParen) {
                    self.usize_lit()?;
                    self.expect_symbol(Symbol::RParen)?;
                }
                DataType::Str
            }
            "DOUBLE" | "FLOAT" | "REAL" => DataType::Float,
            "BOOL" | "BOOLEAN" => DataType::Bool,
            other => return Err(DbError::Parse(format!("unknown type {other}"))),
        };
        Ok(dt)
    }

    // -------------------------------------------------------- expressions

    fn expr(&mut self) -> DbResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> DbResult<Expr> {
        let mut e = self.and_expr()?;
        while self.eat_keyword("OR") {
            let rhs = self.and_expr()?;
            e = Expr::bin(BinOp::Or, e, rhs);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let mut e = self.not_expr()?;
        while self.eat_keyword("AND") {
            let rhs = self.not_expr()?;
            e = Expr::bin(BinOp::And, e, rhs);
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> DbResult<Expr> {
        if self.eat_keyword("NOT") {
            let inner = self.not_expr()?;
            Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            })
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> DbResult<Expr> {
        let e = self.additive()?;
        // IS [NOT] NULL / IS [NOT] DISTINCT FROM
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            if self.eat_keyword("NULL") {
                return Ok(Expr::IsNull {
                    expr: Box::new(e),
                    negated,
                });
            }
            // IS [NOT] DISTINCT FROM rhs
            if !self.eat_keyword("DISTINCT") {
                return Err(DbError::Parse("expected NULL or DISTINCT after IS".into()));
            }
            self.expect_keyword("FROM")?;
            let rhs = self.additive()?;
            let same = Expr::bin(BinOp::NullSafeEq, e, rhs);
            return Ok(if negated {
                same
            } else {
                Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(same),
                }
            });
        }
        let negated = if self.at_keyword("NOT")
            && matches!(self.peek2(), TokenKind::Keyword(k) if k == "IN" || k == "LIKE" || k == "BETWEEN")
        {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_keyword("IN") {
            self.expect_symbol(Symbol::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat_symbol(Symbol::Comma) {
                list.push(self.expr()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(e),
                list,
                negated,
            });
        }
        if self.eat_keyword("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(e),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_keyword("BETWEEN") {
            let lo = self.additive()?;
            self.expect_keyword("AND")?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(e),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if negated {
            return Err(DbError::Parse(
                "expected IN, LIKE or BETWEEN after NOT".into(),
            ));
        }
        let op = match self.peek() {
            TokenKind::Symbol(Symbol::Eq) => Some(BinOp::Eq),
            TokenKind::Symbol(Symbol::NotEq) => Some(BinOp::NotEq),
            TokenKind::Symbol(Symbol::Lt) => Some(BinOp::Lt),
            TokenKind::Symbol(Symbol::LtEq) => Some(BinOp::LtEq),
            TokenKind::Symbol(Symbol::Gt) => Some(BinOp::Gt),
            TokenKind::Symbol(Symbol::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.additive()?;
            return Ok(Expr::bin(op, e, rhs));
        }
        Ok(e)
    }

    fn additive(&mut self) -> DbResult<Expr> {
        let mut e = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Symbol(Symbol::Plus) => BinOp::Add,
                TokenKind::Symbol(Symbol::Minus) => BinOp::Sub,
                TokenKind::Symbol(Symbol::Concat) => BinOp::Concat,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            e = Expr::bin(op, e, rhs);
        }
        Ok(e)
    }

    fn multiplicative(&mut self) -> DbResult<Expr> {
        let mut e = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Symbol(Symbol::Star) => BinOp::Mul,
                TokenKind::Symbol(Symbol::Slash) => BinOp::Div,
                TokenKind::Symbol(Symbol::Percent) => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            e = Expr::bin(op, e, rhs);
        }
        Ok(e)
    }

    fn unary(&mut self) -> DbResult<Expr> {
        if self.eat_symbol(Symbol::Minus) {
            let inner = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.eat_symbol(Symbol::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> DbResult<Expr> {
        match self.peek().clone() {
            TokenKind::IntLit(n) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(n)))
            }
            TokenKind::FloatLit(f) => {
                self.bump();
                Ok(Expr::Literal(Value::Float(f)))
            }
            TokenKind::StrLit(s) => {
                self.bump();
                Ok(Expr::Literal(Value::str(s)))
            }
            TokenKind::Symbol(Symbol::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(e)
            }
            TokenKind::Keyword(kw) => self.keyword_primary(&kw),
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat_symbol(Symbol::Dot) {
                    let col = self.column_name_token()?;
                    Ok(Expr::qcol(name, col))
                } else {
                    Ok(Expr::col(name))
                }
            }
            other => Err(DbError::Parse(format!("unexpected token {other:?}"))),
        }
    }

    /// After `alias.` a column name may lexically collide with a keyword
    /// (e.g. `t.COUNT` is unusual but `t."NAME"` and plain idents dominate);
    /// accept identifiers and a few safe keywords.
    fn column_name_token(&mut self) -> DbResult<String> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            TokenKind::Keyword(k) => Ok(k),
            other => Err(DbError::Parse(format!(
                "expected column name after '.', found {other:?}"
            ))),
        }
    }

    fn keyword_primary(&mut self, kw: &str) -> DbResult<Expr> {
        match kw {
            "NULL" => {
                self.bump();
                Ok(Expr::Literal(Value::Null))
            }
            "TRUE" => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            "FALSE" => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            "CASE" => self.case_expr(),
            "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" => self.aggregate(kw),
            "COALESCE" | "UPPER" | "LOWER" | "LENGTH" | "ABS" => self.scalar_fn(kw),
            other => Err(DbError::Parse(format!(
                "keyword {other} cannot start an expression"
            ))),
        }
    }

    fn case_expr(&mut self) -> DbResult<Expr> {
        self.expect_keyword("CASE")?;
        let operand = if !self.at_keyword("WHEN") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.eat_keyword("WHEN") {
            let w = self.expr()?;
            self.expect_keyword("THEN")?;
            let t = self.expr()?;
            branches.push((w, t));
        }
        if branches.is_empty() {
            return Err(DbError::Parse("CASE requires at least one WHEN".into()));
        }
        let else_expr = if self.eat_keyword("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_keyword("END")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_expr,
        })
    }

    fn aggregate(&mut self, kw: &str) -> DbResult<Expr> {
        let func = match kw {
            "COUNT" => AggFn::Count,
            "SUM" => AggFn::Sum,
            "AVG" => AggFn::Avg,
            "MIN" => AggFn::Min,
            "MAX" => AggFn::Max,
            _ => unreachable!("checked by caller"),
        };
        self.bump(); // the keyword
        self.expect_symbol(Symbol::LParen)?;
        if func == AggFn::Count && self.eat_symbol(Symbol::Star) {
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::Aggregate {
                func,
                arg: None,
                distinct: false,
            });
        }
        let distinct = self.eat_keyword("DISTINCT");
        let arg = self.expr()?;
        self.expect_symbol(Symbol::RParen)?;
        Ok(Expr::Aggregate {
            func,
            arg: Some(Box::new(arg)),
            distinct,
        })
    }

    fn scalar_fn(&mut self, kw: &str) -> DbResult<Expr> {
        let func = match kw {
            "COALESCE" => ScalarFn::Coalesce,
            "UPPER" => ScalarFn::Upper,
            "LOWER" => ScalarFn::Lower,
            "LENGTH" => ScalarFn::Length,
            "ABS" => ScalarFn::Abs,
            _ => unreachable!("checked by caller"),
        };
        self.bump();
        self.expect_symbol(Symbol::LParen)?;
        let mut args = vec![self.expr()?];
        while self.eat_symbol(Symbol::Comma) {
            args.push(self.expr()?);
        }
        self.expect_symbol(Symbol::RParen)?;
        Ok(Expr::Func { func, args })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let s = parse_statement("SELECT a, b AS x FROM t WHERE a = 1").unwrap();
        let Statement::Select(sel) = s else {
            panic!("not a select")
        };
        assert_eq!(sel.projections.len(), 2);
        assert!(sel.where_clause.is_some());
        assert_eq!(sel.from.len(), 1);
    }

    #[test]
    fn parses_join_group_having_order_limit() {
        let s = parse_statement(
            "SELECT t.cnt, COUNT(DISTINCT t.city) FROM customer t \
             JOIN tab p ON (p.cnt IS NULL OR t.cnt = p.cnt) \
             WHERE t.zip <> 'x' GROUP BY t.cnt HAVING COUNT(DISTINCT t.city) > 1 \
             ORDER BY 1 DESC LIMIT 10 OFFSET 2",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from.len(), 2);
        assert!(matches!(sel.from[1].join, JoinSpec::Inner(_)));
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.having.is_some());
        assert_eq!(sel.limit, Some(10));
        assert_eq!(sel.offset, Some(2));
    }

    #[test]
    fn parses_insert_update_delete_ddl() {
        assert!(matches!(
            parse_statement("INSERT INTO t (a,b) VALUES (1,'x'), (2,'y')").unwrap(),
            Statement::Insert(_)
        ));
        assert!(matches!(
            parse_statement("UPDATE t SET a = a + 1 WHERE b LIKE 'x%'").unwrap(),
            Statement::Update(_)
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a IS NOT NULL").unwrap(),
            Statement::Delete(_)
        ));
        assert!(matches!(
            parse_statement("CREATE TABLE t (a INT NOT NULL, b VARCHAR(10))").unwrap(),
            Statement::CreateTable(_)
        ));
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable {
                if_exists: true,
                ..
            }
        ));
    }

    #[test]
    fn parses_insert_from_select() {
        let s = parse_statement("INSERT INTO t SELECT a, b FROM u").unwrap();
        let Statement::Insert(ins) = s else { panic!() };
        assert!(matches!(ins.source, InsertSource::Query(_)));
    }

    #[test]
    fn operator_precedence_and_or() {
        // a = 1 OR b = 2 AND c = 3  parses as  a=1 OR (b=2 AND c=3)
        let e = parse_expr("a = 1 OR b = 2 AND c = 3").unwrap();
        let Expr::Binary { op: BinOp::Or, .. } = e else {
            panic!("OR must be top-level")
        };
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let e = parse_expr("1 + 2 * 3").unwrap();
        let Expr::Binary {
            op: BinOp::Add,
            right,
            ..
        } = e
        else {
            panic!()
        };
        assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_is_not_distinct_from() {
        let e = parse_expr("a IS NOT DISTINCT FROM b").unwrap();
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinOp::NullSafeEq,
                ..
            }
        ));
        let e = parse_expr("a IS DISTINCT FROM b").unwrap();
        assert!(matches!(e, Expr::Unary { op: UnOp::Not, .. }));
    }

    #[test]
    fn parses_not_in_and_between() {
        assert!(matches!(
            parse_expr("a NOT IN (1, 2)").unwrap(),
            Expr::InList { negated: true, .. }
        ));
        assert!(matches!(
            parse_expr("a BETWEEN 1 AND 3").unwrap(),
            Expr::Between { negated: false, .. }
        ));
    }

    #[test]
    fn parses_case_and_functions() {
        assert!(matches!(
            parse_expr("CASE WHEN a = 1 THEN 'x' ELSE 'y' END").unwrap(),
            Expr::Case { .. }
        ));
        assert!(matches!(
            parse_expr("COALESCE(a, 'none')").unwrap(),
            Expr::Func {
                func: ScalarFn::Coalesce,
                ..
            }
        ));
    }

    #[test]
    fn script_parsing_splits_statements() {
        let stmts =
            parse_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn count_star_and_count_distinct() {
        assert!(matches!(
            parse_expr("COUNT(*)").unwrap(),
            Expr::Aggregate {
                func: AggFn::Count,
                arg: None,
                distinct: false
            }
        ));
        assert!(matches!(
            parse_expr("COUNT(DISTINCT a)").unwrap(),
            Expr::Aggregate {
                func: AggFn::Count,
                distinct: true,
                ..
            }
        ));
    }
}
