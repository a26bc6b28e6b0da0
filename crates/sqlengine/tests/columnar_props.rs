//! Differential property test: the row and columnar executors must agree.
//!
//! Three engines are fed identical DDL/DML streams — an index-free one on
//! the default row executor (the reference), and two carrying the corpus
//! indexes: one on the row executor, one on `ExecConfig::columnar()`.
//! Hundreds of generated queries (filters, joins, group-by, order-by,
//! DISTINCT, UNION, NULLs) are executed through all three. Every query
//! must produce an identical `QueryResult` (same schema, same rows, same
//! order), or an error on every path. DML, including writes that fail
//! part-way, is interleaved so the indexes and the columnar cache are
//! repeatedly invalidated and rebuilt mid-stream.
//!
//! Randomness comes from a tiny deterministic xorshift generator (in
//! `tests/common/`), so a failure reproduces exactly from the seed in the
//! panic message.

mod common;

use common::{compare, dml, query, seed_stmts, Rng, INDEXES};
use dbgpt_sqlengine::{Engine, ExecConfig};

#[test]
fn row_and_columnar_executors_agree() {
    for seed in [7, 42, 1234] {
        let mut rng = Rng::new(seed);
        // > CHUNK_ROWS rows in t1 so scans span multiple chunks.
        let stmts = seed_stmts(&mut rng, 1500, 300);
        let mut reference = Engine::new();
        let mut row = Engine::new();
        let mut col = Engine::with_exec(ExecConfig::columnar());
        for s in &stmts {
            reference.execute(s).unwrap();
            row.execute(s).unwrap();
            col.execute(s).unwrap();
        }
        for s in INDEXES {
            row.execute(s).unwrap();
            col.execute(s).unwrap();
        }
        let mut next_id = 1_000_000;
        let mut step = |sql: &str| {
            // Execute exactly once per engine, then compare pairwise.
            let x = reference.execute(sql);
            compare(sql, &x, &row.execute(sql), &format!("seed {seed}, indexed row"));
            compare(sql, &x, &col.execute(sql), &format!("seed {seed}, columnar"));
        };
        for i in 0..220 {
            let sql = if i % 9 == 8 {
                dml(&mut rng, &mut next_id)
            } else {
                query(&mut rng)
            };
            step(&sql);
        }
        // Final full-table sweep: storage must agree exactly at the end.
        step("SELECT id, grp, v, f, b FROM t1");
        step("SELECT id, t1_id, w, tag FROM t2");
    }
}

#[test]
fn default_exec_config_is_row() {
    assert_eq!(ExecConfig::default(), ExecConfig::row());
    assert_eq!(Engine::new().exec_config(), ExecConfig::row());
}
