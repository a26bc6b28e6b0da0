//! SQL parser: tokens → statement AST.

use crate::error::SqlError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::lexer::{lex, Sym, Tok};
use crate::value::{DataType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE [IF NOT EXISTS] name (col type, …)`.
    CreateTable {
        /// Table name (lowercase).
        name: String,
        /// Column definitions.
        columns: Vec<(String, DataType)>,
        /// Suppress the error when the table exists.
        if_not_exists: bool,
    },
    /// `CREATE INDEX name ON table (column)`.
    CreateIndex {
        /// Index name (lowercase).
        name: String,
        /// Target table (lowercase).
        table: String,
        /// Indexed column (lowercase).
        column: String,
    },
    /// `DROP INDEX name ON table`.
    DropIndex {
        /// Index name (lowercase).
        name: String,
        /// Owning table (lowercase).
        table: String,
    },
    /// `DROP TABLE [IF EXISTS] name`.
    DropTable {
        /// Table name (lowercase).
        name: String,
        /// Suppress the error when the table is missing.
        if_exists: bool,
    },
    /// `INSERT INTO name [(cols)] VALUES (…), (…)`.
    Insert {
        /// Target table (lowercase).
        table: String,
        /// Explicit column list, if given.
        columns: Option<Vec<String>>,
        /// Rows of value expressions.
        rows: Vec<Vec<Expr>>,
    },
    /// `UPDATE name SET col = expr, … [WHERE …]`.
    Update {
        /// Target table (lowercase).
        table: String,
        /// Assignments.
        assignments: Vec<(String, Expr)>,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// `DELETE FROM name [WHERE …]`.
    Delete {
        /// Target table (lowercase).
        table: String,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// A `SELECT` query.
    Select(SelectStmt),
}

/// A projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `table.*`.
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Base table name (lowercase).
    pub name: String,
    /// Alias (lowercase), if given.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is known by in the query (alias wins).
    pub fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// Join flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `INNER JOIN` (or bare `JOIN`).
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
}

/// One join clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Flavour.
    pub kind: JoinKind,
    /// Joined table.
    pub table: TableRef,
    /// `ON` condition.
    pub on: Expr,
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `DISTINCT`?
    pub distinct: bool,
    /// Projections.
    pub projections: Vec<SelectItem>,
    /// `FROM` table (absent for `SELECT 1`).
    pub from: Option<TableRef>,
    /// Joins, in order.
    pub joins: Vec<Join>,
    /// `WHERE` predicate.
    pub filter: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` keys with descending flags.
    pub order_by: Vec<(Expr, bool)>,
    /// `LIMIT` row count.
    pub limit: Option<usize>,
    /// `UNION [ALL] <select>` continuation: the next arm and whether
    /// duplicates are kept (`true` = UNION ALL).
    pub union: Option<(Box<SelectStmt>, bool)>,
}

/// Deepest nesting a statement may have: parenthesised expressions,
/// `-`/`+`/`NOT` chains, operator nodes (`a + b + c` is two levels) and
/// `UNION` arms each add a level. Recursive descent runs on the native
/// stack, and so does every later walk of the expression tree (planning,
/// evaluation, drop), so without a bound a few KB of `(` or of `+1`
/// would overflow it and abort the process.
const MAX_NESTING: usize = 128;

fn too_deep() -> SqlError {
    SqlError::Parse(format!("statement nests deeper than {MAX_NESTING} levels"))
}

/// Parse one statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Statement, SqlError> {
    let toks = lex(sql)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        height: 0,
    };
    let stmt = p.statement()?;
    p.eat_sym(Sym::Semi);
    if !p.at_end() {
        return Err(SqlError::Parse(format!(
            "unexpected trailing tokens starting at {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Current nesting level (see [`MAX_NESTING`]).
    depth: usize,
    /// Height in nesting levels of the expression the last
    /// expression-parsing method returned, relative to the depth it was
    /// called at.
    height: usize,
}

impl Parser {
    /// Run `f` one nesting level deeper, refusing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        if self.depth >= MAX_NESTING {
            return Err(too_deep());
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        self.height += 1;
        out
    }

    /// Account for a new operator node over the expression just parsed
    /// and a sibling `other` levels high, refusing a tree that would nest
    /// past [`MAX_NESTING`] levels below the current depth. Chains are
    /// built in loops, so this — not the recursion guard — is what bounds
    /// `1 + 1 + … + 1`.
    fn node_over(&mut self, other: usize) -> Result<(), SqlError> {
        let child = self.height.max(other);
        if self.depth + child >= MAX_NESTING {
            return Err(too_deep());
        }
        self.height = child + 1;
        Ok(())
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Is the next token the given keyword (case-insensitive)?
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Require the keyword.
    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected `{kw}`, found {:?}",
                self.peek()
            )))
        }
    }

    /// Consume the symbol if present.
    fn eat_sym(&mut self, sym: Sym) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Require the symbol.
    fn expect_sym(&mut self, sym: Sym) -> Result<(), SqlError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected `{sym:?}`, found {:?}",
                self.peek()
            )))
        }
    }

    /// Require an identifier (returned lowercase).
    fn ident(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s.to_lowercase()),
            other => Err(SqlError::Parse(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement, SqlError> {
        if self.peek_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("CREATE") {
            if self.eat_kw("INDEX") {
                return self.create_index();
            }
            return self.create_table();
        }
        if self.eat_kw("DROP") {
            if self.eat_kw("INDEX") {
                return self.drop_index();
            }
            return self.drop_table();
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        Err(SqlError::Parse(format!(
            "expected a statement, found {:?}",
            self.peek()
        )))
    }

    fn create_table(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("TABLE")?;
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty_name = self.ident()?;
            // Strip length args: VARCHAR(32).
            if self.eat_sym(Sym::LParen) {
                while !self.eat_sym(Sym::RParen) {
                    if self.next().is_none() {
                        return Err(SqlError::Parse("unterminated type argument".into()));
                    }
                }
            }
            let ty = DataType::parse(&ty_name)
                .ok_or_else(|| SqlError::Parse(format!("unknown type `{ty_name}`")))?;
            // Ignore constraints we don't enforce (PRIMARY KEY, NOT NULL, …).
            loop {
                if self.eat_kw("PRIMARY") {
                    self.expect_kw("KEY")?;
                } else if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                } else if self.eat_kw("UNIQUE") || self.eat_kw("NULL") {
                } else {
                    break;
                }
            }
            columns.push((col, ty));
            if self.eat_sym(Sym::Comma) {
                continue;
            }
            self.expect_sym(Sym::RParen)?;
            break;
        }
        Ok(Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    fn drop_table(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("TABLE")?;
        let if_exists = if self.eat_kw("IF") {
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn create_index(&mut self) -> Result<Statement, SqlError> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let column = self.ident()?;
        self.expect_sym(Sym::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            column,
        })
    }

    fn drop_index(&mut self) -> Result<Statement, SqlError> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        Ok(Statement::DropIndex { name, table })
    }

    fn insert(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_sym(Sym::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if self.eat_sym(Sym::Comma) {
                    continue;
                }
                self.expect_sym(Sym::RParen)?;
                break;
            }
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym(Sym::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if self.eat_sym(Sym::Comma) {
                    continue;
                }
                self.expect_sym(Sym::RParen)?;
                break;
            }
            rows.push(row);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Statement, SqlError> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym(Sym::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        let name = self.ident()?;
        // `AS alias`, or a bare alias that isn't a clause keyword.
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Some(Tok::Ident(s)) = self.peek() {
            const CLAUSES: &[&str] = &[
                "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "LEFT", "ON",
                "RIGHT", "FULL", "CROSS", "UNION",
            ];
            if CLAUSES.iter().any(|c| s.eq_ignore_ascii_case(c)) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn select(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        if !distinct {
            self.eat_kw("ALL");
        }

        let mut projections = Vec::new();
        loop {
            if self.eat_sym(Sym::Star) {
                projections.push(SelectItem::Wildcard);
            } else if let (Some(Tok::Ident(t)), Some(Tok::Sym(Sym::Dot)), Some(Tok::Sym(Sym::Star))) = (
                self.toks.get(self.pos),
                self.toks.get(self.pos + 1),
                self.toks.get(self.pos + 2),
            ) {
                let t = t.to_lowercase();
                self.pos += 3;
                projections.push(SelectItem::QualifiedWildcard(t));
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else if let Some(Tok::Ident(s)) = self.peek() {
                    const CLAUSES: &[&str] = &[
                        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "UNION",
                    ];
                    if CLAUSES.iter().any(|c| s.eq_ignore_ascii_case(c)) {
                        None
                    } else {
                        Some(self.ident()?)
                    }
                } else {
                    None
                };
                projections.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }

        let from = if self.eat_kw("FROM") {
            Some(self.table_ref()?)
        } else {
            None
        };

        let mut joins = Vec::new();
        loop {
            let kind = if self.eat_kw("INNER") {
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.eat_kw("LEFT") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.eat_kw("JOIN") {
                JoinKind::Inner
            } else {
                break;
            };
            let table = self.table_ref()?;
            self.expect_kw("ON")?;
            let on = self.expr()?;
            joins.push(Join { kind, table, on });
        }

        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let e = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push((e, desc));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(Tok::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(SqlError::Parse(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };

        // UNION [ALL] chains: parse the next arm recursively. Standard SQL
        // attaches a trailing ORDER BY/LIMIT to the whole union; the
        // planner lifts them off the final arm accordingly.
        let union = if self.eat_kw("UNION") {
            let all = self.eat_kw("ALL");
            let next = self.nested(Self::select)?;
            Some((Box::new(next), all))
        } else {
            None
        };

        Ok(SelectStmt {
            distinct,
            projections,
            from,
            joins,
            filter,
            group_by,
            having,
            order_by,
            limit,
            union,
        })
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, SqlError> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let h = self.height;
            let right = self.and_expr()?;
            self.node_over(h)?;
            left = Expr::binary(left, BinOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let h = self.height;
            let right = self.not_expr()?;
            self.node_over(h)?;
            left = Expr::binary(left, BinOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw("NOT") {
            let inner = self.nested(Self::not_expr)?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, SqlError> {
        let left = self.additive()?;
        self.predicate(left)
    }

    /// What may follow a comparison's left operand (whose height is
    /// `self.height`). Kept out of [`Parser::comparison`] so the frames of
    /// the recursive path stay small: each parenthesis level costs one
    /// frame of every expression method.
    fn predicate(&mut self, left: Expr) -> Result<Expr, SqlError> {
        let lh = self.height;
        // Postfix predicates: IS [NOT] NULL, [NOT] LIKE/IN/BETWEEN.
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            self.node_over(0)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("LIKE") {
            let pattern = self.additive()?;
            self.node_over(lh)?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect_sym(Sym::LParen)?;
            let mut list = Vec::new();
            let mut h = lh;
            loop {
                list.push(self.expr()?);
                h = h.max(self.height);
                if self.eat_sym(Sym::Comma) {
                    continue;
                }
                self.expect_sym(Sym::RParen)?;
                break;
            }
            self.height = h;
            self.node_over(0)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            let h = lh.max(self.height);
            self.expect_kw("AND")?;
            let high = self.additive()?;
            self.node_over(h)?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(SqlError::Parse(
                "expected LIKE, IN or BETWEEN after NOT".into(),
            ));
        }

        let op = match self.peek() {
            Some(Tok::Sym(Sym::Eq)) => Some(BinOp::Eq),
            Some(Tok::Sym(Sym::Neq)) => Some(BinOp::Neq),
            Some(Tok::Sym(Sym::Lt)) => Some(BinOp::Lt),
            Some(Tok::Sym(Sym::Le)) => Some(BinOp::Le),
            Some(Tok::Sym(Sym::Gt)) => Some(BinOp::Gt),
            Some(Tok::Sym(Sym::Ge)) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            self.node_over(lh)?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Sym(Sym::Plus)) => BinOp::Add,
                Some(Tok::Sym(Sym::Minus)) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let h = self.height;
            let right = self.multiplicative()?;
            self.node_over(h)?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Sym(Sym::Star)) => BinOp::Mul,
                Some(Tok::Sym(Sym::Slash)) => BinOp::Div,
                Some(Tok::Sym(Sym::Percent)) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let h = self.height;
            let right = self.unary()?;
            self.node_over(h)?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, SqlError> {
        if self.eat_sym(Sym::Minus) {
            let inner = self.nested(Self::unary)?;
            // Fold literal negation immediately (keeps plans tidy).
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat_sym(Sym::Plus) {
            return self.nested(Self::unary);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, SqlError> {
        // A leaf unless a parenthesis or function call says otherwise.
        self.height = 0;
        match self.next() {
            Some(Tok::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(Tok::Float(f)) => Ok(Expr::Literal(Value::Float(f))),
            Some(Tok::Str(s)) => Ok(Expr::Literal(Value::Text(s))),
            Some(Tok::Sym(Sym::Star)) => Ok(Expr::Wildcard),
            Some(Tok::Sym(Sym::LParen)) => {
                let e = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(id)) => {
                // Keyword literals.
                if id.eq_ignore_ascii_case("TRUE") {
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if id.eq_ignore_ascii_case("FALSE") {
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if id.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                // Function call.
                if self.eat_sym(Sym::LParen) {
                    let mut name = id.to_uppercase();
                    let mut args = Vec::new();
                    // Each argument already counts its own level.
                    let mut h = 0;
                    if !self.eat_sym(Sym::RParen) {
                        // `COUNT(DISTINCT x)` becomes the dedicated
                        // COUNT_DISTINCT aggregate; DISTINCT inside any
                        // other function is rejected.
                        if self.eat_kw("DISTINCT") {
                            if name != "COUNT" {
                                return Err(SqlError::Parse(format!(
                                    "DISTINCT is only supported inside COUNT, not {name}"
                                )));
                            }
                            name = "COUNT_DISTINCT".into();
                        }
                        loop {
                            args.push(self.expr()?);
                            h = h.max(self.height);
                            if self.eat_sym(Sym::Comma) {
                                continue;
                            }
                            self.expect_sym(Sym::RParen)?;
                            break;
                        }
                    }
                    self.height = h;
                    return Ok(Expr::Function { name, args });
                }
                // Qualified column `t.col`.
                if self.eat_sym(Sym::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        table: Some(id.to_lowercase()),
                        name: col,
                    });
                }
                Ok(Expr::Column {
                    table: None,
                    name: id.to_lowercase(),
                })
            }
            other => Err(SqlError::Parse(format!(
                "expected an expression, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create_table() {
        let s = parse("CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(32) NOT NULL)")
            .unwrap();
        match s {
            Statement::CreateTable { name, columns, if_not_exists } => {
                assert_eq!(name, "users");
                assert_eq!(columns.len(), 2);
                assert_eq!(columns[0], ("id".to_string(), DataType::Int));
                assert_eq!(columns[1], ("name".to_string(), DataType::Text));
                assert!(!if_not_exists);
            }
            other => panic!("wrong stmt: {other:?}"),
        }
    }

    #[test]
    fn parse_create_if_not_exists() {
        let s = parse("CREATE TABLE IF NOT EXISTS t (a INT)").unwrap();
        assert!(matches!(s, Statement::CreateTable { if_not_exists: true, .. }));
    }

    #[test]
    fn parse_drop() {
        assert!(matches!(
            parse("DROP TABLE t").unwrap(),
            Statement::DropTable { if_exists: false, .. }
        ));
        assert!(matches!(
            parse("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable { if_exists: true, .. }
        ));
    }

    #[test]
    fn parse_insert_multi_row() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert { table, columns, rows } => {
                assert_eq!(table, "t");
                assert_eq!(columns, Some(vec!["a".into(), "b".into()]));
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], Expr::lit("y"));
            }
            other => panic!("wrong stmt: {other:?}"),
        }
    }

    #[test]
    fn parse_update_and_delete() {
        let s = parse("UPDATE t SET a = a + 1, b = 'z' WHERE a > 3").unwrap();
        match s {
            Statement::Update { assignments, filter, .. } => {
                assert_eq!(assignments.len(), 2);
                assert!(filter.is_some());
            }
            other => panic!("wrong stmt: {other:?}"),
        }
        let s = parse("DELETE FROM t WHERE a = 1").unwrap();
        assert!(matches!(s, Statement::Delete { filter: Some(_), .. }));
        let s = parse("DELETE FROM t").unwrap();
        assert!(matches!(s, Statement::Delete { filter: None, .. }));
    }

    fn sel(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn parse_select_full_clause_set() {
        let s = sel(
            "SELECT DISTINCT category, SUM(amount) AS total \
             FROM orders o \
             JOIN products p ON o.product_id = p.id \
             WHERE amount > 10 \
             GROUP BY category \
             HAVING SUM(amount) > 100 \
             ORDER BY total DESC, category \
             LIMIT 5;",
        );
        assert!(s.distinct);
        assert_eq!(s.projections.len(), 2);
        assert_eq!(s.from.as_ref().unwrap().name, "orders");
        assert_eq!(s.from.as_ref().unwrap().alias.as_deref(), Some("o"));
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].kind, JoinKind::Inner);
        assert!(s.filter.is_some());
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].1); // DESC
        assert!(!s.order_by[1].1); // default ASC
        assert_eq!(s.limit, Some(5));
    }

    #[test]
    fn parse_left_join() {
        let s = sel("SELECT * FROM a LEFT OUTER JOIN b ON a.id = b.id");
        assert_eq!(s.joins[0].kind, JoinKind::Left);
        let s = sel("SELECT * FROM a LEFT JOIN b ON a.id = b.id");
        assert_eq!(s.joins[0].kind, JoinKind::Left);
    }

    #[test]
    fn parse_select_without_from() {
        let s = sel("SELECT 1 + 2");
        assert!(s.from.is_none());
        assert_eq!(s.projections.len(), 1);
    }

    #[test]
    fn parse_qualified_wildcard() {
        let s = sel("SELECT o.*, p.name FROM orders o JOIN products p ON o.pid = p.id");
        assert_eq!(s.projections[0], SelectItem::QualifiedWildcard("o".into()));
    }

    #[test]
    fn parse_alias_without_as() {
        let s = sel("SELECT amount total FROM orders");
        match &s.projections[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("total")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_or_and() {
        // a OR b AND c  ==  a OR (b AND c)
        let s = sel("SELECT * FROM t WHERE a OR b AND c");
        match s.filter.unwrap() {
            Expr::Binary { op: BinOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_arithmetic() {
        // 1 + 2 * 3 == 1 + (2 * 3)
        let s = sel("SELECT 1 + 2 * 3");
        match &s.projections[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinOp::Add, right, .. }, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_not_like_in_between() {
        let s = sel("SELECT * FROM t WHERE a NOT LIKE 'x%' AND b NOT IN (1,2) AND c NOT BETWEEN 1 AND 5");
        let f = s.filter.unwrap().to_string();
        assert!(f.contains("NOT LIKE"));
        assert!(f.contains("NOT IN"));
        assert!(f.contains("NOT BETWEEN"));
    }

    #[test]
    fn parse_is_null_forms() {
        let s = sel("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL");
        let f = s.filter.unwrap().to_string();
        assert!(f.contains("IS NULL"));
        assert!(f.contains("IS NOT NULL"));
    }

    #[test]
    fn parse_count_star() {
        let s = sel("SELECT COUNT(*) FROM t");
        match &s.projections[0] {
            SelectItem::Expr { expr: Expr::Function { name, args }, .. } => {
                assert_eq!(name, "COUNT");
                assert_eq!(args, &vec![Expr::Wildcard]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_boolean_and_null_literals() {
        let s = sel("SELECT TRUE, false, NULL");
        assert_eq!(s.projections.len(), 3);
        match &s.projections[2] {
            SelectItem::Expr { expr, .. } => assert_eq!(*expr, Expr::Literal(Value::Null)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_negative_numbers_folded() {
        let s = sel("SELECT -5, -2.5");
        match &s.projections[0] {
            SelectItem::Expr { expr, .. } => assert_eq!(*expr, Expr::lit(-5i64)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT 1 FROM t WAT WAT").is_err());
        assert!(parse("SELECT 1; SELECT 2").is_err());
    }

    #[test]
    fn error_messages_name_the_problem() {
        let e = parse("CREATE TABLE t (a BLOB)").unwrap_err();
        assert!(e.to_string().contains("BLOB") || e.to_string().contains("blob"));
        let e = parse("SELECT * FROM t LIMIT 'x'").unwrap_err();
        assert!(e.to_string().contains("LIMIT"));
    }

    #[test]
    fn count_distinct_parses_and_others_reject() {
        let s = parse("SELECT COUNT(DISTINCT a) FROM t").unwrap();
        match s {
            Statement::Select(sel) => match &sel.projections[0] {
                SelectItem::Expr { expr: Expr::Function { name, args }, .. } => {
                    assert_eq!(name, "COUNT_DISTINCT");
                    assert_eq!(args.len(), 1);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        let e = parse("SELECT SUM(DISTINCT a) FROM t").unwrap_err();
        assert!(e.to_string().contains("DISTINCT"));
    }

    fn parens(n: usize) -> String {
        format!("SELECT {}1{}", "(".repeat(n), ")".repeat(n))
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        // The projection expression is level 1; each `(` adds one.
        assert!(parse(&parens(MAX_NESTING - 1)).is_ok());
        assert!(matches!(
            parse(&parens(MAX_NESTING)),
            Err(SqlError::Parse(_))
        ));
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let deep = [
            parens(1000),
            format!("SELECT {}1", "- ".repeat(5000)),
            format!("SELECT {}1", "+ ".repeat(5000)),
            format!("SELECT 1 FROM t WHERE {}a = 1", "NOT ".repeat(5000)),
            format!("SELECT 1{}", " UNION SELECT 1".repeat(5000)),
            format!("SELECT f({}1{})", "g(".repeat(1000), ")".repeat(1000)),
        ];
        for sql in &deep {
            let err = parse(sql).unwrap_err();
            assert!(matches!(err, SqlError::Parse(_)), "{err}");
            assert!(err.to_string().contains("nests deeper"), "{err}");
        }
    }
}
