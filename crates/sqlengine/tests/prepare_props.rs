//! Two-phase SELECT: `Engine::prepare` scans under shared access and
//! `ScannedSelect::finish` runs the operators on owned rows.
//!
//! - Differential: over the seeded corpus in `tests/common/`,
//!   `prepare` + `finish` through `&Engine` returns what
//!   `execute` returns on an index-free engine, per cell, with DML
//!   (including writes that fail part-way) interleaved. The prepared
//!   engine carries the corpus indexes but never refreshes them: it
//!   probes indexes only while INSERTs alone have touched them.
//! - Isolation: a prepared SELECT reflects the catalog at `prepare` time,
//!   whatever runs between `prepare` and `finish`, also on tables of
//!   several copy-on-write chunks whose writes copy, fill, spill into and
//!   re-pack chunks. This covers the three Chat2Data shapes (filtered
//!   aggregate, GROUP BY, join-aggregate) on multi-chunk tables.
//! - Tracing: the prepared path records the same span tree as
//!   `execute_under`.

mod common;

use common::{compare, dml, query, seed_stmts, Rng, INDEXES};
use dbgpt_obs::{Obs, ObsConfig, Span};
use dbgpt_sqlengine::catalog::CHUNK_ROWS;
use dbgpt_sqlengine::engine::Prepared;
use dbgpt_sqlengine::{Engine, QueryResult, SqlError};

/// Run a SELECT through `&Engine`: prepare, then finish.
fn prepared(engine: &Engine, sql: &str, span: &Span) -> Result<QueryResult, SqlError> {
    match engine.prepare(sql, span)? {
        Prepared::Read(select) => select.finish(),
        Prepared::Write(_) => panic!("not a read: {sql}"),
    }
}

#[test]
fn prepare_finish_matches_execute_row_executor() {
    for seed in [7, 42, 1234] {
        let mut rng = Rng::new(seed);
        // > CHUNK_ROWS rows in t1 so scans span several chunks.
        let stmts = seed_stmts(&mut rng, 1500, 300);
        let mut two_phase = Engine::new();
        let mut reference = Engine::new();
        for s in &stmts {
            two_phase.execute(s).unwrap();
            reference.execute(s).unwrap();
        }
        for s in INDEXES {
            two_phase.execute(s).unwrap();
        }
        let ctx = format!("seed {seed}");
        let mut next_id = 1_000_000;
        for step in 0..220 {
            if step % 9 == 8 {
                let sql = dml(&mut rng, &mut next_id);
                let x = two_phase.execute(&sql);
                let y = reference.execute(&sql);
                compare(&sql, &x, &y, &ctx);
                continue;
            }
            let sql = query(&mut rng);
            let x = prepared(&two_phase, &sql, &Span::noop());
            let y = reference.execute(&sql);
            compare(&sql, &x, &y, &ctx);
            if let (Ok(x), Ok(y)) = (&x, &y) {
                assert_eq!(
                    x.schema.columns(),
                    y.schema.columns(),
                    "schema ({ctx}): {sql}"
                );
            }
        }
        for sql in [
            "SELECT id, grp, v, f, b FROM t1",
            "SELECT id, t1_id, w, tag FROM t2",
        ] {
            let x = prepared(&two_phase, sql, &Span::noop());
            compare(sql, &x, &reference.execute(sql), &ctx);
        }
    }
}

fn isolation_engine() -> Engine {
    let mut e = Engine::new();
    e.execute("CREATE TABLE a (k INT, v INT)").unwrap();
    e.execute("CREATE TABLE b (k INT, label TEXT)").unwrap();
    e.execute("INSERT INTO a VALUES (1, 10), (1, 11), (2, 20)")
        .unwrap();
    e.execute("INSERT INTO b VALUES (1, 'one'), (2, 'two')")
        .unwrap();
    e
}

#[test]
fn prepared_select_sees_the_catalog_as_of_prepare() {
    let sql = "SELECT b.label, COUNT(*), SUM(a.v) FROM a JOIN b ON a.k = b.k \
               GROUP BY b.label ORDER BY b.label";
    let mut e = isolation_engine();
    let before = e.execute(sql).unwrap();
    let Prepared::Read(select) = e.prepare(sql, &Span::noop()).unwrap() else {
        panic!("SELECT prepares as a read");
    };
    // The prepared SELECT borrows nothing from the engine, so writes to
    // both scanned tables can run before it finishes.
    e.execute("INSERT INTO a VALUES (2, 21), (3, 30)").unwrap();
    e.execute("INSERT INTO b VALUES (3, 'three')").unwrap();
    e.execute("UPDATE a SET v = 0").unwrap();
    let after_writes = select.finish().unwrap();
    assert_eq!(after_writes.rows, before.rows);
    assert_ne!(e.execute(sql).unwrap().rows, before.rows);
}

/// Rows of `a` in the multi-chunk tests: three full chunks and a partial
/// fourth.
const BIG: usize = 3 * CHUNK_ROWS + 500;

fn multi_chunk_engine() -> Engine {
    let mut e = Engine::new();
    e.execute("CREATE TABLE a (k INT, grp TEXT, v INT)").unwrap();
    e.execute("CREATE TABLE b (k INT, label TEXT)").unwrap();
    let rows: Vec<String> = (0..BIG)
        .map(|k| format!("({k}, 'g{}', {})", k % 5, k % 97))
        .collect();
    for batch in rows.chunks(700) {
        e.execute(&format!("INSERT INTO a VALUES {}", batch.join(", ")))
            .unwrap();
    }
    let labels: Vec<String> = (0..BIG)
        .step_by(3)
        .map(|k| format!("({k}, 'l{}')", k % 4))
        .collect();
    e.execute(&format!("INSERT INTO b VALUES {}", labels.join(", ")))
        .unwrap();
    e.execute("CREATE INDEX a_k ON a (k)").unwrap();
    e
}

#[test]
fn prepared_selects_keep_their_answer_across_chunk_writes() {
    let middle = CHUNK_ROWS + CHUNK_ROWS / 2;
    let selects = [
        "SELECT COUNT(*), SUM(v) FROM a WHERE grp = 'g1'".to_string(),
        "SELECT grp, COUNT(*), SUM(v), MIN(k), MAX(k) FROM a GROUP BY grp".to_string(),
        "SELECT b.label, COUNT(*), SUM(a.v) FROM a JOIN b ON a.k = b.k GROUP BY b.label"
            .to_string(),
        "SELECT k, grp, v FROM a".to_string(),
        format!("SELECT k, v FROM a WHERE k = {middle}"),
    ];
    let spill: Vec<String> = (0..CHUNK_ROWS)
        .map(|i| format!("({}, 'g1', 1)", BIG + i))
        .collect();
    // (write, whether it succeeds)
    let writes = [
        // Fills the tail chunk and spills into a new one.
        (format!("INSERT INTO a VALUES {}", spill.join(", ")), true),
        // One row in a middle chunk.
        (format!("UPDATE a SET v = v + 1000, grp = 'g1' WHERE k = {middle}"), true),
        // Re-packs every chunk from the first.
        ("DELETE FROM a WHERE k % 7 = 3".to_string(), true),
        // Hits k = 1990..1999, then divides by zero at k = 2000.
        ("UPDATE a SET v = v + 1 WHERE 10 / (2000 - k) > 0".to_string(), false),
        // Removes k = 1990..1999 and fails at k = 2000.
        ("DELETE FROM a WHERE 10 / (2000 - k) > 0".to_string(), false),
    ];
    for (write, ok) in &writes {
        let mut e = multi_chunk_engine();
        let before: Vec<QueryResult> = selects
            .iter()
            .map(|sql| prepared(&e, sql, &Span::noop()).unwrap())
            .collect();
        let pending: Vec<_> = selects
            .iter()
            .map(|sql| match e.prepare(sql, &Span::noop()).unwrap() {
                Prepared::Read(select) => select,
                Prepared::Write(_) => unreachable!(),
            })
            .collect();
        let fingerprint = e.database().fingerprint();
        assert_eq!(e.execute(write).is_ok(), *ok, "{write}");
        assert_ne!(e.database().fingerprint(), fingerprint, "{write} changes `a`");
        for ((sql, select), want) in selects.iter().zip(pending).zip(&before) {
            let got = select.finish().unwrap();
            compare(sql, &Ok(got), &Ok(want.clone()), &format!("after {write}"));
        }
    }
}

#[test]
fn writes_report_the_chunks_a_prepared_select_made_them_copy() {
    let traced = |with_snapshot: bool| {
        let mut e = multi_chunk_engine();
        let obs = Obs::new(ObsConfig::enabled(5));
        let root = obs.span("request", obs.tick());
        let snapshot = with_snapshot.then(|| e.prepare("SELECT COUNT(*) FROM a", &root).unwrap());
        let middle = CHUNK_ROWS + 1;
        e.execute_under(&format!("UPDATE a SET v = 0 WHERE k = {middle}"), &root)
            .unwrap();
        e.execute_under("INSERT INTO a VALUES (-1, 'g0', 0)", &root)
            .unwrap();
        if let Some(Prepared::Read(select)) = snapshot {
            assert_eq!(select.finish().unwrap().rows[0][0].to_string(), BIG.to_string());
        }
        root.end(obs.tick());
        (obs.counter_value("sql.cow_chunks"), obs.trace_json(), obs.metrics_json())
    };
    // The UPDATE copies its middle chunk, the INSERT the tail chunk.
    let (copied, trace, metrics) = traced(true);
    assert_eq!(copied, 2);
    assert!(trace.contains("cow_chunks"), "{trace}");
    assert!(metrics.contains("sql.cow_chunks"), "{metrics}");
    // With no snapshot alive nothing is copied, and nothing is recorded.
    let (copied, trace, metrics) = traced(false);
    assert_eq!(copied, 0);
    assert!(!trace.contains("cow_chunks"), "{trace}");
    assert!(!metrics.contains("cow_chunks"), "{metrics}");
}

#[test]
fn writes_prepare_without_running() {
    let mut e = isolation_engine();
    let Prepared::Write(write) = e
        .prepare("INSERT INTO a VALUES (9, 90)", &Span::noop())
        .unwrap()
    else {
        panic!("INSERT prepares as a write");
    };
    let count = |e: &mut Engine| e.execute("SELECT COUNT(*) FROM a").unwrap().rows[0][0].clone();
    assert_eq!(count(&mut e).to_string(), "3");
    assert_eq!(e.run_write(write).unwrap().rows_affected, 1);
    assert_eq!(count(&mut e).to_string(), "4");
    // Parse and plan errors surface from `prepare`, scan errors from
    // `finish`.
    assert!(matches!(
        e.prepare("SELEC 1", &Span::noop()),
        Err(SqlError::Parse(_))
    ));
    assert!(e.prepare("SELECT k FROM missing", &Span::noop()).is_err());
    assert!(prepared(&e, "SELECT k FROM a WHERE v > 'x' + 1", &Span::noop()).is_err());
}

#[test]
fn prepared_path_records_the_execute_span_tree() {
    let statements = [
        "SELECT b.label, SUM(a.v) FROM a JOIN b ON a.k = b.k GROUP BY b.label",
        "INSERT INTO a VALUES (4, 40)",
        "SELECT k FROM a WHERE v > 'x' + 1",
        "SELEC 1",
        "SELECT k FROM missing",
    ];
    let trace = |two_phase: bool| {
        let mut e = isolation_engine();
        let obs = Obs::new(ObsConfig::enabled(11));
        let root = obs.span("request", obs.tick());
        for sql in statements {
            let _ = if two_phase {
                match e.prepare(sql, &root) {
                    Ok(Prepared::Read(select)) => select.finish(),
                    Ok(Prepared::Write(write)) => e.run_write(write),
                    Err(err) => Err(err),
                }
            } else {
                e.execute_under(sql, &root)
            };
        }
        root.end(obs.tick());
        (obs.trace_json(), obs.metrics_json())
    };
    assert_eq!(trace(true), trace(false));
}
