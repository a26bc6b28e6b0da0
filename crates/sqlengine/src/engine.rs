//! The top-level engine: SQL text in, rows out.

use std::sync::Arc;

use dbgpt_obs::Span;

use crate::catalog::{Database, RowEdit, Snapshot, Table};
use crate::error::SqlError;
use crate::exec::executor::{self, KeySeed};
use crate::expr::Expr;
use crate::parser::{parse, Statement};
use crate::plan::logical::{LogicalPlan, Planner};
use crate::plan::optimizer::Optimizer;
use crate::row::Row;
use crate::schema::{Column, Schema, SchemaRef};
use crate::value::Value;

/// The result of executing one statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Column names/types of the result (empty for DDL/DML).
    pub schema: SchemaRef,
    /// Result rows (empty for DDL/DML).
    pub rows: Vec<Row>,
    /// Rows affected by DML (0 for queries/DDL).
    pub rows_affected: usize,
}

impl QueryResult {
    /// An empty result with `rows_affected` set.
    fn affected(n: usize) -> QueryResult {
        QueryResult {
            schema: Arc::new(Schema::new_unchecked(vec![])),
            rows: Vec::new(),
            rows_affected: n,
        }
    }

    /// Column names of the result.
    pub fn column_names(&self) -> Vec<&str> {
        self.schema.columns().iter().map(|c| c.name.as_str()).collect()
    }

    /// Render an ASCII table (used by examples and the Chat2DB app).
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        if headers.is_empty() {
            return format!("({} row(s) affected)", self.rows_affected);
        }
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let sep = |widths: &[usize]| {
            let mut s = String::from("+");
            for w in widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s.push('\n');
            s
        };
        let fmt_row = |cols: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (c, w) in cols.iter().zip(widths) {
                s.push_str(&format!(" {c:<w$} |", w = w));
            }
            s.push('\n');
            s
        };
        let mut out = sep(&widths);
        out.push_str(&fmt_row(&headers, &widths));
        out.push_str(&sep(&widths));
        for row in &cells {
            out.push_str(&fmt_row(row, &widths));
        }
        out.push_str(&sep(&widths));
        out
    }
}

/// The SQL engine: a [`Database`] plus the query pipeline.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    db: Database,
    optimizer: Optimizer,
    /// Where this engine's group, join and DISTINCT key hashes start.
    key_seed: KeySeed,
}

impl Engine {
    /// Empty engine with the optimizer on.
    pub fn new() -> Self {
        Engine::with_optimizer(Optimizer::new())
    }

    /// Engine with a custom optimizer configuration (for ablations).
    pub fn with_optimizer(optimizer: Optimizer) -> Self {
        Engine {
            db: Database::new(),
            optimizer,
            key_seed: KeySeed::default(),
        }
    }

    /// Rebuild the stale indexes of every table a plan scans, so reads
    /// through [`Engine::execute`] probe them. [`Engine::prepare`] skips
    /// this step and scans stale tables in full.
    fn refresh_indexes(&mut self, plan: &LogicalPlan) {
        for scan in plan.scans() {
            let LogicalPlan::Scan { table, .. } = scan else {
                continue;
            };
            if let Ok(t) = self.db.table_mut(table) {
                t.refresh_indexes();
            }
        }
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database (bulk loads).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, SqlError> {
        self.execute_under(sql, &Span::noop())
    }

    /// [`Engine::execute`] with `sql.parse` / `sql.plan` / `sql.exec`
    /// stage spans joined to `parent`'s trace, row counts as attributes.
    /// Rebuilds the scanned tables' stale indexes, then runs the statement
    /// the way [`Engine::prepare`] and [`ScannedSelect::finish`] /
    /// [`Engine::run_write`] do.
    pub fn execute_under(&mut self, sql: &str, parent: &Span) -> Result<QueryResult, SqlError> {
        match self.plan(sql, parent)? {
            Planned::Select { plan, span } => {
                self.refresh_indexes(&plan);
                self.scan(plan, span).finish()
            }
            Planned::Write(write) => self.run_write(write),
        }
    }

    /// Parse and plan `sql`, then, for a SELECT, snapshot its table scans.
    ///
    /// Needs only shared access: a server holds its read lock for this
    /// call, releases it, and calls [`ScannedSelect::finish`] for filters,
    /// joins, aggregates, sorts and projections. A scan only takes a
    /// [`Snapshot`] of the table's chunks here. Every scan of the
    /// statement happens in this one call, so the result reflects a
    /// single state of the catalog. Any other statement comes back as
    /// [`Prepared::Write`] for [`Engine::run_write`]. The `sql.execute`
    /// span opens under `parent` here and ends when the statement does.
    pub fn prepare(&self, sql: &str, parent: &Span) -> Result<Prepared, SqlError> {
        Ok(match self.plan(sql, parent)? {
            Planned::Select { plan, span } => Prepared::Read(self.scan(plan, span)),
            Planned::Write(write) => Prepared::Write(write),
        })
    }

    /// Open the statement's `sql.execute` span, parse, and plan a SELECT.
    fn plan(&self, sql: &str, parent: &Span) -> Result<Planned, SqlError> {
        let span = parent.child("sql.execute", parent.tick());
        span.handle().counter("sql.statements", 1);
        let parse_span = span.child("sql.parse", span.tick());
        let parsed = parse(sql);
        parse_span.end(span.tick());
        let stmt = match parsed {
            Ok(stmt) => stmt,
            Err(e) => {
                span.handle().counter("sql.errors", 1);
                span.attr("outcome", "parse_error");
                span.end(span.tick());
                return Err(e);
            }
        };
        let Statement::Select(sel) = stmt else {
            return Ok(Planned::Write(PendingWrite { stmt, span }));
        };
        let plan_span = span.child("sql.plan", span.tick());
        let plan = Planner::new(&self.db)
            .plan_select(&sel)
            .and_then(|p| self.optimizer.optimize(p));
        plan_span.end(span.tick());
        match plan {
            Ok(plan) => Ok(Planned::Select { plan, span }),
            Err(e) => {
                end_statement(&span, Err(&e));
                Err(e)
            }
        }
    }

    /// Open `sql.exec` and run phase 1 of the executor. A scan error is
    /// kept and surfaces from [`ScannedSelect::finish`].
    fn scan(&self, plan: LogicalPlan, span: Span) -> ScannedSelect {
        let exec_span = span.child("sql.exec", span.tick());
        let scans = executor::scan_plan(&plan, &self.db);
        ScannedSelect {
            plan,
            scans,
            seed: self.key_seed,
            span,
            exec_span,
        }
    }

    /// Run a DDL/DML statement from [`Engine::prepare`]; needs exclusive
    /// access.
    pub fn run_write(&mut self, write: PendingWrite) -> Result<QueryResult, SqlError> {
        let PendingWrite { stmt, span } = write;
        let exec_span = span.child("sql.exec", span.tick());
        let target = match &stmt {
            Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => Some(table.clone()),
            _ => None,
        };
        let cow_chunks = |db: &Database| {
            let table = target.as_deref().and_then(|t| db.table(t).ok());
            table.map_or(0, Table::cow_chunks)
        };
        let cow_before = cow_chunks(&self.db);
        let r = self.run_statement(stmt);
        if let Ok(q) = &r {
            exec_span.attr("rows_affected", q.rows_affected);
        }
        // Chunks copied because a prepared SELECT still shared them: what
        // snapshots cost this writer. Recorded only when non-zero.
        let copied = cow_chunks(&self.db) - cow_before;
        if copied > 0 {
            exec_span.attr("cow_chunks", copied);
            exec_span.handle().counter("sql.cow_chunks", copied);
        }
        exec_span.end(span.tick());
        end_statement(&span, r.as_ref());
        r
    }

    /// Run one parsed DDL/DML statement.
    fn run_statement(&mut self, stmt: Statement) -> Result<QueryResult, SqlError> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|(n, t)| Column::new(n, t))
                        .collect(),
                )?;
                self.db.create_table(&name, schema, if_not_exists)?;
                Ok(QueryResult::affected(0))
            }
            Statement::DropTable { name, if_exists } => {
                self.db.drop_table(&name, if_exists)?;
                Ok(QueryResult::affected(0))
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                self.db.table_mut(&table)?.create_index(&name, &column)?;
                Ok(QueryResult::affected(0))
            }
            Statement::DropIndex { name, table } => {
                self.db.table_mut(&table)?.drop_index(&name)?;
                Ok(QueryResult::affected(0))
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let empty_schema = Schema::new_unchecked(vec![]);
                let empty_row = Row::default();
                // Pre-compute the value layout.
                let table_schema = self.db.table(&table)?.schema.clone();
                let positions: Vec<usize> = match &columns {
                    Some(cols) => cols
                        .iter()
                        .map(|c| table_schema.index_of(c))
                        .collect::<Result<_, _>>()?,
                    None => (0..table_schema.len()).collect(),
                };
                let mut inserted = 0usize;
                for row_exprs in rows {
                    if row_exprs.len() != positions.len() {
                        return Err(SqlError::Execution(format!(
                            "INSERT expects {} values per row, got {}",
                            positions.len(),
                            row_exprs.len()
                        )));
                    }
                    let mut vals = vec![Value::Null; table_schema.len()];
                    for (expr, &pos) in row_exprs.iter().zip(&positions) {
                        vals[pos] = expr.eval(&empty_row, &empty_schema)?;
                    }
                    self.db.table_mut(&table)?.insert_row(vals)?;
                    inserted += 1;
                }
                Ok(QueryResult::affected(inserted))
            }
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                let t = self.db.table_mut(&table)?;
                let targets: Vec<(usize, &Expr)> = assignments
                    .iter()
                    .map(|(col, e)| Ok((t.schema.index_of(col)?, e)))
                    .collect::<Result<_, SqlError>>()?;
                // Stop at the first error: rows updated before it keep
                // their new values.
                let updated = rewrite_where(t, filter.as_ref(), true, &mut |row, schema| {
                    // Evaluate all assignments against the *old* row.
                    let mut new_vals = Vec::with_capacity(targets.len());
                    for &(idx, e) in &targets {
                        let ty = schema.columns()[idx].data_type;
                        new_vals.push((idx, e.eval(row, schema)?.coerce_to(ty)?));
                    }
                    Ok(RowEdit::Set(new_vals))
                })?;
                Ok(QueryResult::affected(updated))
            }
            Statement::Delete { table, filter } => {
                let t = self.db.table_mut(&table)?;
                // Finish the pass: rows whose filter errors stay.
                let removed =
                    rewrite_where(t, filter.as_ref(), false, &mut |_, _| Ok(RowEdit::Remove))?;
                Ok(QueryResult::affected(removed))
            }
            Statement::Select(_) => unreachable!("SELECT runs through ScannedSelect"),
        }
    }

    /// Execute a query and pretty-print it (convenience for demos).
    pub fn query_table(&mut self, sql: &str) -> Result<String, SqlError> {
        Ok(self.execute(sql)?.to_table())
    }

    /// Render an `EXPLAIN`-style plan for a SELECT.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        match parse(sql)? {
            Statement::Select(sel) => {
                let plan = Planner::new(&self.db).plan_select(&sel)?;
                let plan = self.optimizer.optimize(plan)?;
                Ok(plan.display_indent())
            }
            other => Err(SqlError::Plan(format!(
                "EXPLAIN supports SELECT only, got {other:?}"
            ))),
        }
    }
}

/// A parsed statement from [`Engine::prepare`].
#[derive(Debug)]
pub enum Prepared {
    /// A SELECT whose table scans are materialised.
    Read(ScannedSelect),
    /// Any other statement, for [`Engine::run_write`].
    Write(PendingWrite),
}

/// A DDL/DML statement waiting for exclusive access, with its open
/// `sql.execute` span.
#[derive(Debug)]
pub struct PendingWrite {
    stmt: Statement,
    span: Span,
}

/// What [`Engine::plan`] hands on.
enum Planned {
    Select { plan: LogicalPlan, span: Span },
    Write(PendingWrite),
}

/// A SELECT whose scans have run: a snapshot per scan, plus the plan's
/// operators. [`ScannedSelect::finish`] needs no access to the catalog.
pub struct ScannedSelect {
    plan: LogicalPlan,
    scans: Result<Vec<Snapshot>, SqlError>,
    seed: KeySeed,
    span: Span,
    exec_span: Span,
}

impl ScannedSelect {
    /// Phase 2: run filters, joins, aggregates, sorts and projections on
    /// the scanned rows, then end the statement's spans.
    pub fn finish(self) -> Result<QueryResult, SqlError> {
        let ScannedSelect {
            plan,
            scans,
            seed,
            span,
            exec_span,
        } = self;
        let batch = scans.and_then(|scans| executor::finish_plan(&plan, scans, seed));
        if let Ok(b) = &batch {
            exec_span.attr("rows", b.rows.len());
        }
        exec_span.end(span.tick());
        let result = batch.map(|batch| QueryResult {
            schema: batch.schema,
            rows: batch.rows,
            rows_affected: 0,
        });
        end_statement(&span, result.as_ref());
        result
    }
}

impl std::fmt::Debug for ScannedSelect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScannedSelect")
            .field("plan", &self.plan)
            .field("scanned", &self.scans.is_ok())
            .finish()
    }
}

/// What UPDATE or DELETE does to one row its filter accepts.
type RowHit<'a> = dyn FnMut(&[Value], &Schema) -> Result<RowEdit, SqlError> + 'a;

/// The one pass of UPDATE and DELETE: `hit` says how to change or remove
/// each row `filter` accepts (every row without a filter), and the number
/// of rows hit is returned. Both read the stored row, so a chunk with no
/// hit is never copied. A filter or `hit` error leaves that row as it
/// was. With `stop_at_error`, later rows are left alone too; otherwise
/// the pass goes on. Either way the first error is returned after the rewrite, so
/// the table's derived state already reflects the rows that did change.
///
/// `hit` is a `dyn` callback so that the per-row closure stays small enough
/// to inline into the row loop: a generic `hit` made a 20k-row UPDATE
/// about 10% slower.
fn rewrite_where(
    t: &mut Table,
    filter: Option<&Expr>,
    stop_at_error: bool,
    hit: &mut RowHit<'_>,
) -> Result<usize, SqlError> {
    let schema = t.schema.clone();
    let mut hits = 0;
    let mut first_err = None;
    t.rewrite_rows(|row| {
        if stop_at_error && first_err.is_some() {
            return RowEdit::Keep;
        }
        let edit = match filter.map(|f| f.eval_ref(row, &schema)) {
            Some(Ok(v)) if !v.is_truthy() => return RowEdit::Keep,
            Some(Err(e)) => Err(e),
            _ => hit(row, &schema),
        };
        match edit {
            Ok(edit) => {
                hits += 1;
                edit
            }
            Err(e) => {
                first_err.get_or_insert(e);
                RowEdit::Keep
            }
        }
    });
    first_err.map_or(Ok(hits), Err)
}

/// End a statement's `sql.execute` span with its outcome.
fn end_statement(span: &Span, result: Result<&QueryResult, &SqlError>) {
    let obs = span.handle();
    match result {
        Ok(q) => {
            span.attr("rows", q.rows.len());
            span.attr("rows_affected", q.rows_affected);
            obs.counter("sql.rows_out", q.rows.len() as u64);
        }
        Err(_) => {
            obs.counter("sql.errors", 1);
            span.attr("outcome", "error");
        }
    }
    span.end(span.tick());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (id INT, name TEXT, score FLOAT)")
            .unwrap();
        e.execute(
            "INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', 2.5), (3, 'c', 3.5)",
        )
        .unwrap();
        e
    }

    #[test]
    fn thousand_deep_parentheses_return_an_error() {
        // Used to overflow the parser's stack and abort the process.
        let sql = format!("SELECT {}1{}", "(".repeat(1000), ")".repeat(1000));
        assert!(matches!(
            Engine::new().execute(&sql),
            Err(SqlError::Parse(_))
        ));
        // Nesting inside the limit still plans and executes.
        let sql = format!("SELECT {}1{}", "(".repeat(100), ")".repeat(100));
        let r = Engine::new().execute(&sql).unwrap();
        assert_eq!(r.rows[0][0].to_string(), "1");
    }

    #[test]
    fn long_flat_expression_chains_return_an_error() {
        // A flat `1+1+…+1` parses in a loop but used to build a tree as
        // deep as the chain, whose later walks aborted the process. Run on
        // a 2 MiB stack (the default for spawned threads).
        let chain = |terms: usize| vec!["1"; terms].join("+");
        let nested = format!("{})+", chain(100)).repeat(100);
        let nested = format!("{}{}", "(".repeat(100), nested.trim_end_matches('+'));
        let long = chain(10_000);
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut e = Engine::new();
                for sql in [format!("SELECT {long}"), format!("SELECT {nested}")] {
                    let err = e.execute(&sql).unwrap_err();
                    assert!(matches!(err, SqlError::Parse(_)), "{err}");
                }
                let r = e.execute(&format!("SELECT {}", chain(128))).unwrap();
                assert_eq!(r.rows[0][0].to_string(), "128");
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn end_to_end_select() {
        let mut e = engine();
        let r = e.execute("SELECT name FROM t WHERE id >= 2 ORDER BY id DESC").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0].to_string(), "c");
        assert_eq!(r.column_names(), vec!["name"]);
    }

    #[test]
    fn insert_reports_count() {
        let mut e = engine();
        let r = e.execute("INSERT INTO t VALUES (4, 'd', 4.5)").unwrap();
        assert_eq!(r.rows_affected, 1);
        let r = e.execute("INSERT INTO t VALUES (5, 'e', 0.0), (6, 'f', 0.0)").unwrap();
        assert_eq!(r.rows_affected, 2);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut e = engine();
        e.execute("INSERT INTO t (id) VALUES (9)").unwrap();
        let r = e.execute("SELECT name FROM t WHERE id = 9").unwrap();
        assert!(r.rows[0][0].is_null());
    }

    #[test]
    fn insert_arity_mismatch_rejected() {
        let mut e = engine();
        assert!(e.execute("INSERT INTO t (id, name) VALUES (1)").is_err());
    }

    #[test]
    fn update_with_filter() {
        let mut e = engine();
        let r = e.execute("UPDATE t SET score = score * 2 WHERE id > 1").unwrap();
        assert_eq!(r.rows_affected, 2);
        let r = e.execute("SELECT score FROM t ORDER BY id").unwrap();
        assert_eq!(r.rows[0][0].to_string(), "1.5");
        assert_eq!(r.rows[1][0].to_string(), "5.0");
    }

    #[test]
    fn update_swap_uses_old_values() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE p (a INT, b INT)").unwrap();
        e.execute("INSERT INTO p VALUES (1, 2)").unwrap();
        e.execute("UPDATE p SET a = b, b = a").unwrap();
        let r = e.execute("SELECT a, b FROM p").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
        assert_eq!(r.rows[0][1], Value::Int(1));
    }

    #[test]
    fn delete_with_and_without_filter() {
        let mut e = engine();
        let r = e.execute("DELETE FROM t WHERE id = 1").unwrap();
        assert_eq!(r.rows_affected, 1);
        let r = e.execute("DELETE FROM t").unwrap();
        assert_eq!(r.rows_affected, 2);
        let r = e.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0));
    }

    #[test]
    fn ddl_lifecycle() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE x (a INT)").unwrap();
        assert!(e.execute("CREATE TABLE x (a INT)").is_err());
        e.execute("CREATE TABLE IF NOT EXISTS x (a INT)").unwrap();
        e.execute("DROP TABLE x").unwrap();
        assert!(e.execute("DROP TABLE x").is_err());
        e.execute("DROP TABLE IF EXISTS x").unwrap();
    }

    #[test]
    fn to_table_renders_grid() {
        let mut e = engine();
        let r = e.execute("SELECT id, name FROM t WHERE id = 1").unwrap();
        let table = r.to_table();
        assert!(table.contains("| id | name |"), "{table}");
        assert!(table.contains("| 1  | a    |"), "{table}");
    }

    #[test]
    fn to_table_for_dml() {
        let mut e = engine();
        let r = e.execute("DELETE FROM t WHERE id = 1").unwrap();
        assert_eq!(r.to_table(), "(1 row(s) affected)");
    }

    #[test]
    fn explain_shows_plan() {
        let e = engine();
        let txt = e.explain("SELECT id FROM t WHERE score > 2").unwrap();
        assert!(txt.contains("Scan: t"), "{txt}");
        assert!(e.explain("DELETE FROM t").is_err());
    }

    #[test]
    fn error_propagates_from_parser() {
        let mut e = engine();
        assert!(matches!(e.execute("SELEC 1"), Err(SqlError::Parse(_))));
    }

    #[test]
    fn query_table_convenience() {
        let mut e = engine();
        let t = e.query_table("SELECT COUNT(*) AS n FROM t").unwrap();
        assert!(t.contains('n'));
        assert!(t.contains('3'));
    }
}

#[cfg(test)]
mod union_tests {
    use super::*;

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE a (x INT, label TEXT)").unwrap();
        e.execute("CREATE TABLE b (x INT, label TEXT)").unwrap();
        e.execute("INSERT INTO a VALUES (1, 'one'), (2, 'two'), (3, 'three')").unwrap();
        e.execute("INSERT INTO b VALUES (2, 'two'), (4, 'four')").unwrap();
        e
    }

    #[test]
    fn union_dedupes() {
        let mut e = engine();
        let r = e
            .execute("SELECT x FROM a UNION SELECT x FROM b ORDER BY 1")
            .unwrap();
        let xs: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(xs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn union_all_keeps_duplicates() {
        let mut e = engine();
        let r = e
            .execute("SELECT x FROM a UNION ALL SELECT x FROM b ORDER BY 1")
            .unwrap();
        let xs: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(xs, vec![1, 2, 2, 3, 4]);
    }

    #[test]
    fn three_arm_chain_with_filters() {
        let mut e = engine();
        let r = e
            .execute(
                "SELECT x FROM a WHERE x > 1 UNION SELECT x FROM b UNION ALL SELECT 99 ORDER BY 1",
            )
            .unwrap();
        let xs: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        // A plain UNION anywhere in the chain dedupes the whole result.
        assert_eq!(xs, vec![2, 3, 4, 99]);
    }

    #[test]
    fn trailing_order_and_limit_bind_to_the_union() {
        let mut e = engine();
        let r = e
            .execute("SELECT x, label FROM a UNION ALL SELECT x, label FROM b ORDER BY x DESC LIMIT 2")
            .unwrap();
        let xs: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(xs, vec![4, 3]);
        // Ordering by output column name also works.
        let r = e
            .execute("SELECT x FROM a UNION SELECT x FROM b ORDER BY x DESC LIMIT 1")
            .unwrap();
        assert_eq!(r.rows[0][0].as_i64(), Some(4));
    }

    #[test]
    fn union_with_aggregates_per_arm() {
        let mut e = engine();
        let r = e
            .execute("SELECT COUNT(*) FROM a UNION ALL SELECT COUNT(*) FROM b ORDER BY 1")
            .unwrap();
        let xs: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(xs, vec![2, 3]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut e = engine();
        let err = e
            .execute("SELECT x FROM a UNION SELECT x, label FROM b")
            .unwrap_err();
        assert!(err.to_string().contains("column count"), "{err}");
    }

    #[test]
    fn bad_union_order_key_rejected() {
        let mut e = engine();
        assert!(e
            .execute("SELECT x FROM a UNION SELECT x FROM b ORDER BY x + 1")
            .is_err());
        assert!(e
            .execute("SELECT x FROM a UNION SELECT x FROM b ORDER BY 5")
            .is_err());
    }

    #[test]
    fn union_explain_shows_arms() {
        let e = engine();
        let txt = e
            .explain("SELECT x FROM a UNION SELECT x FROM b")
            .unwrap();
        assert!(txt.contains("Union: 2 arm(s) distinct"), "{txt}");
    }

    #[test]
    fn union_optimizes_like_raw() {
        let sql = "SELECT x FROM a WHERE x > 1 UNION SELECT x FROM b WHERE label = 'four' ORDER BY 1";
        let mut opt = engine();
        let mut raw = Engine::with_optimizer(crate::plan::optimizer::Optimizer::disabled());
        raw.execute("CREATE TABLE a (x INT, label TEXT)").unwrap();
        raw.execute("CREATE TABLE b (x INT, label TEXT)").unwrap();
        raw.execute("INSERT INTO a VALUES (1, 'one'), (2, 'two'), (3, 'three')").unwrap();
        raw.execute("INSERT INTO b VALUES (2, 'two'), (4, 'four')").unwrap();
        assert_eq!(opt.execute(sql).unwrap().rows, raw.execute(sql).unwrap().rows);
    }
}

#[cfg(test)]
mod count_distinct_tests {
    use super::*;

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (cat TEXT, v INT)").unwrap();
        e.execute(
            "INSERT INTO t VALUES ('a', 1), ('a', 1), ('a', 2), ('b', 1), ('b', NULL)",
        )
        .unwrap();
        e
    }

    #[test]
    fn global_count_distinct() {
        let mut e = engine();
        let r = e.execute("SELECT COUNT(DISTINCT cat) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
        let r = e.execute("SELECT COUNT(DISTINCT v) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2)); // NULL not counted
    }

    #[test]
    fn grouped_count_distinct() {
        let mut e = engine();
        let r = e
            .execute("SELECT cat, COUNT(DISTINCT v) FROM t GROUP BY cat ORDER BY cat")
            .unwrap();
        assert_eq!(r.rows[0][1], Value::Int(2)); // a: {1,2}
        assert_eq!(r.rows[1][1], Value::Int(1)); // b: {1}
    }

    #[test]
    fn count_distinct_alongside_plain_count() {
        let mut e = engine();
        let r = e
            .execute("SELECT COUNT(v), COUNT(DISTINCT v), COUNT(*) FROM t")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(4));
        assert_eq!(r.rows[0][1], Value::Int(2));
        assert_eq!(r.rows[0][2], Value::Int(5));
    }

    #[test]
    fn count_distinct_over_empty() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE x (a INT)").unwrap();
        let r = e.execute("SELECT COUNT(DISTINCT a) FROM x").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0));
    }

    #[test]
    fn distinct_in_non_count_still_rejected() {
        let mut e = engine();
        assert!(e.execute("SELECT AVG(DISTINCT v) FROM t").is_err());
    }
}
