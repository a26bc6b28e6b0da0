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
use dbgpt_sqlengine::{Engine, ExecConfig, StorageConfig};

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

/// Per-cell identity under `GroupKey` rules: floats by bit pattern, so
/// `-0.0` differs from `0.0` and NaN equals itself.
fn identical(sql: &str, x: &dbgpt_sqlengine::QueryResult, y: &dbgpt_sqlengine::QueryResult) {
    let cells = |r: &dbgpt_sqlengine::QueryResult| -> Vec<Vec<_>> {
        r.rows.iter().map(|row| row.iter().map(|v| v.group_key()).collect()).collect()
    };
    assert_eq!(x.column_names(), y.column_names(), "{sql}");
    assert_eq!(cells(x), cells(y), "{sql}");
}

/// Group and join keys the hash tables must tell apart or fold together
/// exactly as the columnar executor does, with rows in first-seen order.
#[test]
fn aggregate_and_join_edge_cases_match_columnar() {
    use dbgpt_sqlengine::Value;
    let setup = [
        "CREATE TABLE k (id INT, f FLOAT, i INT, s TEXT)",
        "INSERT INTO k VALUES (1, 0.0, 1, 'x'), (2, -0.0, NULL, 'y'), (3, 1.0, NULL, NULL), \
         (4, NULL, 1, 'x'), (5, -0.0, 2, NULL), (6, 0.0, NULL, 'y'), (7, NULL, NULL, NULL)",
        "CREATE TABLE l (id INT, key INT, fk FLOAT, v INT)",
        "INSERT INTO l VALUES (1, 1, 0.0, 10), (2, 1, -0.0, 20), (3, NULL, NULL, 30), \
         (4, 2, 1.0, 40), (5, 3, 0.0, 50), (6, 2, NULL, 60)",
        "CREATE TABLE r (key INT, fk FLOAT, w TEXT)",
        "INSERT INTO r VALUES (1, 0.0, 'a'), (1, -0.0, 'b'), (NULL, NULL, 'c'), (2, 1.0, 'a'), \
         (2, NULL, 'd'), (4, 0.0, 'e')",
    ];
    let mut row = Engine::new();
    let mut col = Engine::with_exec(ExecConfig::columnar());
    for e in [&mut row, &mut col] {
        for s in setup {
            e.execute(s).unwrap();
        }
        // NaN has no SQL literal: insert it through the catalog.
        let t = e.database_mut().table_mut("k").unwrap();
        for id in [8, 9] {
            let s = Value::Text("nan".into());
            t.insert_row(vec![Value::Int(id), Value::Float(f64::NAN), Value::Null, s])
                .unwrap();
        }
    }
    let queries = [
        // -0.0 / 0.0 / NaN / NULL float keys, first-seen order.
        "SELECT f, COUNT(*), SUM(id), MIN(s) FROM k GROUP BY f",
        // INT 1 and FLOAT 1.0 in one key column stay apart.
        "SELECT COALESCE(i, f), COUNT(*) FROM k GROUP BY COALESCE(i, f)",
        // NULLs group together; multi-column keys.
        "SELECT s, i, COUNT(*), COUNT(i), COUNT(DISTINCT f) FROM k GROUP BY s, i",
        "SELECT s, AVG(f), MAX(id) FROM k WHERE id > 1 GROUP BY s",
        // Repeated and NULL join keys on both sides, fused join-aggregate.
        "SELECT r.w, COUNT(*), SUM(l.v) FROM l JOIN r ON l.key = r.key GROUP BY r.w",
        "SELECT l.key, COUNT(*), MIN(r.w) FROM l JOIN r ON l.key = r.key GROUP BY l.key",
        // Float join keys: by bit pattern, -0.0 does not meet 0.0.
        "SELECT r.w, COUNT(*) FROM l JOIN r ON l.fk = r.fk GROUP BY r.w",
        "SELECT l.id, r.w FROM l JOIN r ON l.fk = r.fk ORDER BY l.id, r.w",
        // Two-column keys, materialised joins, LEFT padding.
        "SELECT r.w, SUM(l.v) FROM l JOIN r ON l.key = r.key AND l.fk = r.fk GROUP BY r.w",
        "SELECT l.id, r.w FROM l JOIN r ON l.key = r.key ORDER BY l.id, r.w",
        "SELECT l.id, r.w FROM l LEFT JOIN r ON l.key = r.key ORDER BY l.id, r.w",
        "SELECT r.w, COUNT(*) FROM l LEFT JOIN r ON l.key = r.key GROUP BY r.w",
        // A residual keeps the join-aggregate on the materialised path.
        "SELECT r.w, COUNT(*) FROM l JOIN r ON l.key = r.key AND l.v > 15 GROUP BY r.w",
        // Empty input: one row for a global aggregate, none when grouped.
        "SELECT COUNT(*), SUM(v), MIN(v) FROM l WHERE v > 1000",
        "SELECT COUNT(*), SUM(l.v) FROM l JOIN r ON l.key = r.key WHERE l.v > 1000",
        "SELECT key, COUNT(*) FROM l WHERE v > 1000 GROUP BY key",
        "SELECT COUNT(*) FROM l JOIN r ON l.key = r.key WHERE r.w = 'zzz'",
    ];
    for sql in queries {
        let x = row.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let y = col.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        identical(sql, &x, &y);
    }
    // Spot-check the identities themselves, not only agreement.
    let groups = row.execute(queries[0]).unwrap().rows.len();
    assert_eq!(groups, 5, "0.0, -0.0, 1.0, NULL, NaN");
    // First-seen order; INT 1 and FLOAT 1.0 apart; one NULL group.
    let keys: Vec<_> = row.execute(queries[1]).unwrap().rows.iter().map(|r| r[0].group_key()).collect();
    let want = [
        Value::Int(1),
        Value::Float(-0.0),
        Value::Float(1.0),
        Value::Int(2),
        Value::Float(0.0),
        Value::Null,
        Value::Float(f64::NAN),
    ];
    assert_eq!(keys, want.iter().map(Value::group_key).collect::<Vec<_>>());
    let empty = row.execute(queries[13]).unwrap();
    assert_eq!(empty.rows.len(), 1);
    assert_eq!(empty.rows[0][0], Value::Int(0));
    assert!(empty.rows[0][1].is_null());
}

/// One pass evaluates an in-memory scan's filter and its aggregate row by
/// row, so when both fail, the row executor reports the first failing
/// row's error. A paged scan filters under the lock and the columnar
/// executor filters every row first, so both report the filter's. Either
/// way the statement fails.
#[test]
fn failing_filter_and_aggregate_report_the_earlier_rows_error() {
    let sql = "SELECT SUM(s) FROM e WHERE 10 / d > 0";
    let err = |mut e: Engine| {
        e.execute("CREATE TABLE e (s TEXT, d INT)").unwrap();
        // Row 1 passes the filter and fails SUM; row 2 fails the filter.
        e.execute("INSERT INTO e VALUES ('x', 1), ('y', 0)").unwrap();
        e.execute(sql).unwrap_err().to_string()
    };
    let paged = StorageConfig::paged(8, 512);
    assert!(err(Engine::with_exec(ExecConfig::row())).contains("SUM over non-numeric"));
    assert!(err(Engine::with_storage(paged)).contains("division by zero"));
    assert!(err(Engine::with_exec(ExecConfig::columnar())).contains("division by zero"));
}

/// When both scans of a fused join-aggregate fail their filters, the left
/// scan's error is reported, as when the left input is materialised
/// before the right one is built.
#[test]
fn failing_join_filters_report_the_left_scans_error() {
    let sql = "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k \
               WHERE 10 / a.d > 0 AND UPPER(b.k) = 'X'";
    let err = |mut e: Engine| {
        e.execute("CREATE TABLE a (k INT, d INT)").unwrap();
        e.execute("CREATE TABLE b (k INT)").unwrap();
        e.execute("INSERT INTO a VALUES (1, 1), (2, 0)").unwrap();
        e.execute("INSERT INTO b VALUES (1), (2)").unwrap();
        e.execute(sql).unwrap_err().to_string()
    };
    let paged = StorageConfig::paged(8, 512);
    for e in [
        Engine::with_exec(ExecConfig::row()),
        Engine::with_storage(paged),
        Engine::with_exec(ExecConfig::columnar()),
    ] {
        let got = err(e);
        assert!(got.contains("division by zero"), "{got}");
    }
}
