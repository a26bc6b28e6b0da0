#![warn(missing_docs)]

//! # dbgpt-sqlengine — the relational database substrate of `db-gpt-rs`
//!
//! DB-GPT is a *data interaction* system: Chat2DB, Chat2Data, Chat2Excel and
//! Text-to-SQL all need an actual database to parse, plan and execute the
//! SQL that the language models produce. The paper assumes an external
//! engine (MySQL, DuckDB, …); this crate is the in-repo substitute — an
//! in-memory relational engine built DataFusion-style:
//!
//! ```text
//! SQL text ──lexer──▶ tokens ──parser──▶ AST
//!     ──planner──▶ LogicalPlan ──optimizer──▶ LogicalPlan
//!     ──executor──▶ rows
//! ```
//!
//! ## Execution
//!
//! One executor ([`exec::executor`]) interprets the logical plans a row
//! at a time. Group keys, aggregate arguments and join keys are bound to
//! row positions once per plan, and a scan's filter, an aggregate over a
//! scan, an aggregate over an inner equi-join of two scans, and an
//! `ORDER BY … LIMIT` over a scan (a bounded top-n) each run as one pass
//! over the scanned rows. The optimizer's rewrites are checked
//! against the unoptimized plan ([`plan::optimizer::Optimizer::disabled`])
//! by a randomized differential property test.
//!
//! ## Concurrency: two-phase SELECT
//!
//! [`Engine::prepare`] needs only `&Engine`: it parses and plans a SELECT,
//! probes indexes, and takes every scanned table's [`catalog::Snapshot`]
//! through [`catalog::Table::scan`] (phase 1). A snapshot shares the
//! table's copy-on-write row chunks: phase 1 copies no row, only one
//! handle per chunk. The returned [`engine::ScannedSelect`]'s `finish`
//! runs after the lock is released (phase 2): it filters, aggregates and
//! joins the snapshot's rows in place, one pass per pipeline, and copies
//! only the cells that reach the result. DDL and DML
//! ([`engine::Prepared::Write`]) take the exclusive lock for
//! [`Engine::run_write`]; a write copies only the chunks it changes that a
//! live snapshot still shares (the `sql.cow_chunks` counter).
//! [`Engine::execute`] runs the same two phases back to back, after
//! rebuilding the scanned tables' stale indexes.
//!
//! ## Storage
//!
//! [`catalog::Table`] keeps its rows in memory, in copy-on-write chunks.
//! The executor and DML scan, probe indexes and rewrite rows through
//! `Table` alone. Secondary indexes are ordered maps keyed by an
//! order-preserving value encoding ([`catalog::encode_value`]) and answer
//! equality and range probes.
//!
//! ## Supported SQL
//!
//! - DDL: `CREATE TABLE`, `DROP TABLE`, `CREATE INDEX`, `DROP INDEX`
//! - DML: `INSERT INTO … VALUES`, `UPDATE … SET … WHERE`, `DELETE FROM`
//! - Queries: `SELECT` with projections & aliases, `WHERE`, `INNER/LEFT
//!   JOIN … ON`, `GROUP BY` + `HAVING`, `ORDER BY … ASC/DESC`, `LIMIT`,
//!   `DISTINCT`, aggregates (`COUNT/SUM/AVG/MIN/MAX`), scalar functions
//!   (`ABS/UPPER/LOWER/LENGTH/ROUND/COALESCE`), `LIKE`, `IN`, `BETWEEN`,
//!   `IS [NOT] NULL`, arithmetic and boolean expressions.
//!
//! ## Quickstart
//!
//! ```
//! use dbgpt_sqlengine::Engine;
//!
//! let mut engine = Engine::new();
//! engine.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
//! engine.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap();
//! let result = engine.execute("SELECT name FROM t WHERE id = 2").unwrap();
//! assert_eq!(result.rows[0][0].to_string(), "b");
//! ```

pub mod catalog;
pub mod csv;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod row;
pub mod schema;
pub mod value;

pub use catalog::Database;
pub use engine::{Engine, QueryResult};
pub use error::SqlError;
pub use row::Row;
pub use schema::{Column, Schema};
pub use value::{DataType, Value};
