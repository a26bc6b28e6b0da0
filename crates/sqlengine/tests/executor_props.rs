//! Executor properties, checked against index-free engines and against
//! hand-written expected results.
//!
//! - Differential: two engines are fed identical DDL/DML streams, an
//!   index-free one (the reference) and one carrying the corpus indexes.
//!   Hundreds of generated queries (filters, joins, group-by, order-by,
//!   DISTINCT, UNION, NULLs) must produce an identical `QueryResult` (same
//!   schema, same rows, same order), or an error on both. DML, including
//!   writes that fail part-way, is interleaved so the indexes are
//!   repeatedly invalidated and rebuilt mid-stream.
//! - Group and join keys: signed zeros, NaN, NULL and INT-vs-FLOAT keys
//!   fold together or stay apart exactly as each expected result says,
//!   and a hash join matches exactly the pairs `=` accepts.
//! - Error order: which of two failing rows or scans a statement reports.
//!
//! Randomness comes from a tiny deterministic xorshift generator (in
//! `tests/common/`), so a failure reproduces exactly from the seed in the
//! panic message.

mod common;

use common::{check, dml, query, seed_stmts, Rng, INDEXES};
use dbgpt_sqlengine::{Engine, QueryResult, Value};

#[test]
fn indexed_and_index_free_engines_agree() {
    for seed in [7, 42, 1234] {
        let mut rng = Rng::new(seed);
        // > CHUNK_ROWS rows in t1 so scans span multiple chunks.
        let stmts = seed_stmts(&mut rng, 1500, 300);
        let mut reference = Engine::new();
        let mut indexed = Engine::new();
        for s in &stmts {
            reference.execute(s).unwrap();
            indexed.execute(s).unwrap();
        }
        for s in INDEXES {
            indexed.execute(s).unwrap();
        }
        let mut next_id = 1_000_000;
        let ctx = format!("seed {seed}, indexed vs index-free");
        let mut step = |sql: &str| check(sql, &mut reference, &mut indexed, &ctx);
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

/// Rows joined by `"; "`, cells by `", "`: floats in `{:?}` form, so
/// `-0.0` differs from `0.0`, NaN shows as `NaN` and FLOAT `1.0` differs
/// from INT `1`; TEXT quoted.
fn render(r: &QueryResult) -> String {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{s}'"),
        other => other.to_string(),
    };
    let row = |row: &[Value]| row.iter().map(cell).collect::<Vec<_>>().join(", ");
    r.rows.iter().map(|r| row(r.values())).collect::<Vec<_>>().join("; ")
}

/// Group and join keys the hash tables must tell apart or fold together,
/// with rows in first-seen order: groups key floats by bit pattern with
/// `-0.0` read as `0.0` (so the zeros are one key and NaN meets NaN) and
/// keep INT `1` apart from FLOAT `1.0`; NULLs form one group but never a
/// join match; join keys match as `=` compares them.
#[test]
fn aggregate_and_join_key_edge_cases() {
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
    let mut e = Engine::new();
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
    let cases: [(&str, &str); 20] = [
        // -0.0 / 0.0 / NaN / NULL float keys, first-seen order.
        (
            "SELECT f, COUNT(*), SUM(id), MIN(s) FROM k GROUP BY f",
            "0.0, 4, 14, 'x'; 1.0, 1, 3, NULL; NULL, 2, 11, 'x'; NaN, 2, 17, 'nan'",
        ),
        ("SELECT DISTINCT f FROM k", "0.0; 1.0; NULL; NaN"),
        (
            "SELECT f FROM k WHERE id < 3 UNION SELECT f FROM k WHERE id > 4",
            "0.0; NULL; NaN",
        ),
        // INT 1 and FLOAT 1.0 in one key column stay apart.
        (
            "SELECT COALESCE(i, f), COUNT(*) FROM k GROUP BY COALESCE(i, f)",
            "1, 2; -0.0, 2; 1.0, 1; 2, 1; NULL, 1; NaN, 2",
        ),
        // NULLs group together; multi-column keys.
        (
            "SELECT s, i, COUNT(*), COUNT(i), COUNT(DISTINCT f) FROM k GROUP BY s, i",
            "'x', 1, 2, 2, 1; 'y', NULL, 2, 0, 1; NULL, NULL, 2, 0, 1; NULL, 2, 1, 1, 1; 'nan', NULL, 2, 0, 1",
        ),
        (
            "SELECT s, AVG(f), MAX(id) FROM k WHERE id > 1 GROUP BY s",
            "'y', 0.0, 6; NULL, 0.5, 7; 'x', NULL, 4; 'nan', NaN, 9",
        ),
        // Repeated and NULL join keys on both sides, fused join-aggregate.
        (
            "SELECT r.w, COUNT(*), SUM(l.v) FROM l JOIN r ON l.key = r.key GROUP BY r.w",
            "'a', 4, 130; 'b', 2, 30; 'd', 2, 100",
        ),
        (
            "SELECT l.key, COUNT(*), MIN(r.w) FROM l JOIN r ON l.key = r.key GROUP BY l.key",
            "1, 4, 'a'; 2, 4, 'a'",
        ),
        // Float join keys as `=` sees them: -0.0 meets 0.0.
        (
            "SELECT r.w, COUNT(*) FROM l JOIN r ON l.fk = r.fk GROUP BY r.w",
            "'a', 4; 'b', 3; 'e', 3",
        ),
        (
            "SELECT l.id, r.w FROM l JOIN r ON l.fk = r.fk ORDER BY l.id, r.w",
            "1, 'a'; 1, 'b'; 1, 'e'; 2, 'a'; 2, 'b'; 2, 'e'; 4, 'a'; 5, 'a'; 5, 'b'; 5, 'e'",
        ),
        // INT = FLOAT join keys match as `=` compares them.
        (
            "SELECT l.id, r.w FROM l JOIN r ON l.key = r.fk",
            "1, 'a'; 2, 'a'",
        ),
        // Two-column keys, materialised joins, LEFT padding.
        (
            "SELECT r.w, SUM(l.v) FROM l JOIN r ON l.key = r.key AND l.fk = r.fk GROUP BY r.w",
            "'a', 70; 'b', 30",
        ),
        (
            "SELECT l.id, r.w FROM l JOIN r ON l.key = r.key ORDER BY l.id, r.w",
            "1, 'a'; 1, 'b'; 2, 'a'; 2, 'b'; 4, 'a'; 4, 'd'; 6, 'a'; 6, 'd'",
        ),
        (
            "SELECT l.id, r.w FROM l LEFT JOIN r ON l.key = r.key ORDER BY l.id, r.w",
            "1, 'a'; 1, 'b'; 2, 'a'; 2, 'b'; 3, NULL; 4, 'a'; 4, 'd'; 5, NULL; 6, 'a'; 6, 'd'",
        ),
        (
            "SELECT r.w, COUNT(*) FROM l LEFT JOIN r ON l.key = r.key GROUP BY r.w",
            "'a', 4; 'b', 2; NULL, 2; 'd', 2",
        ),
        // A residual keeps the join-aggregate on the materialised path.
        (
            "SELECT r.w, COUNT(*) FROM l JOIN r ON l.key = r.key AND l.v > 15 GROUP BY r.w",
            "'a', 3; 'b', 1; 'd', 2",
        ),
        // Empty input: one row for a global aggregate, none when grouped.
        ("SELECT COUNT(*), SUM(v), MIN(v) FROM l WHERE v > 1000", "0, NULL, NULL"),
        ("SELECT COUNT(*), SUM(l.v) FROM l JOIN r ON l.key = r.key WHERE l.v > 1000", "0, NULL"),
        ("SELECT key, COUNT(*) FROM l WHERE v > 1000 GROUP BY key", ""),
        ("SELECT COUNT(*) FROM l JOIN r ON l.key = r.key WHERE r.w = 'zzz'", "0"),
    ];
    for (sql, want) in cases {
        let got = e.execute(sql).unwrap_or_else(|err| panic!("{sql}: {err}"));
        assert_eq!(render(&got), want, "{sql}");
    }
}

/// One pass evaluates a scan's filter and its aggregate row by row, so
/// when both fail, the executor reports the first failing row's error.
#[test]
fn failing_filter_and_aggregate_report_the_earlier_rows_error() {
    let mut e = Engine::new();
    e.execute("CREATE TABLE e (s TEXT, d INT)").unwrap();
    // Row 1 passes the filter and fails SUM; row 2 fails the filter.
    e.execute("INSERT INTO e VALUES ('x', 1), ('y', 0)").unwrap();
    let err = e.execute("SELECT SUM(s) FROM e WHERE 10 / d > 0").unwrap_err();
    assert!(err.to_string().contains("SUM over non-numeric"), "{err}");
}

/// When both scans of a fused join-aggregate fail their filters, the left
/// scan's error is reported, as when the left input is materialised
/// before the right one is built.
#[test]
fn failing_join_filters_report_the_left_scans_error() {
    let mut e = Engine::new();
    e.execute("CREATE TABLE a (k INT, d INT)").unwrap();
    e.execute("CREATE TABLE b (k INT)").unwrap();
    e.execute("INSERT INTO a VALUES (1, 1), (2, 0)").unwrap();
    e.execute("INSERT INTO b VALUES (1), (2)").unwrap();
    let sql = "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k \
               WHERE 10 / a.d > 0 AND UPPER(b.k) = 'X'";
    let err = e.execute(sql).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

/// A hash join matches exactly the pairs `=` accepts. Over INT and FLOAT
/// key columns holding NULL, `0.0` and `-0.0`, NaN and INTs around 2^53
/// (where neighbouring INTs widen to one FLOAT), each equi-join returns
/// the pairs, in the order, of a direct pairing under `Value::sql_cmp`,
/// and the same rows as the nested-loop join that spells `=` as
/// `>= AND <=`, for inner, LEFT and aggregated shapes; NaN meets NaN.
#[test]
fn hash_join_matches_sql_equality() {
    let big = 1i64 << 53;
    let ints = [0, 1, -1, 2, big - 1, big, big + 1, -big - 1];
    let floats = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        big as f64,
        (big + 2) as f64,
        f64::NAN,
    ];
    for seed in [3, 17, 99] {
        let mut rng = Rng::new(seed);
        let mut e = Engine::new();
        let mut rows: Vec<Vec<Vec<Value>>> = Vec::new();
        for table in ["a", "b"] {
            let mut stored = Vec::new();
            for id in 0..40 {
                let i = match rng.below(9) {
                    8 => Value::Null,
                    k => Value::Int(ints[k as usize]),
                };
                let f = match rng.below(9) {
                    8 => Value::Null,
                    k => Value::Float(floats[k as usize]),
                };
                stored.push(vec![Value::Int(id), i, f]);
            }
            e.execute(&format!("CREATE TABLE {table} (id INT, i INT, f FLOAT)"))
                .unwrap();
            let t = e.database_mut().table_mut(table).unwrap();
            for row in &stored {
                t.insert_row(row.clone()).unwrap();
            }
            rows.push(stored);
        }
        let ctx = |sql: &str| format!("seed {seed}: {sql}");
        let col = |name: &str| if name == "i" { 1 } else { 2 };
        for x in ["i", "f"] {
            for y in ["i", "f"] {
                let direct: Vec<String> = rows[0]
                    .iter()
                    .flat_map(|a| rows[1].iter().map(move |b| (a, b)))
                    .filter(|(a, b)| {
                        a[col(x)].sql_cmp(&b[col(y)]) == Some(std::cmp::Ordering::Equal)
                    })
                    .map(|(a, b)| format!("{}, {}", a[0], b[0]))
                    .collect();
                let sql = format!("SELECT a.id, b.id FROM a JOIN b ON a.{x} = b.{y}");
                let got = e.execute(&sql).unwrap();
                assert_eq!(render(&got), direct.join("; "), "{}", ctx(&sql));
                for shape in [
                    "SELECT a.id, b.id FROM a JOIN b ON {}",
                    "SELECT a.id, b.id FROM a LEFT JOIN b ON {}",
                    "SELECT COUNT(*), SUM(b.id), MIN(a.id) FROM a JOIN b ON {}",
                    "SELECT a.id, COUNT(*), SUM(b.id) FROM a JOIN b ON {} GROUP BY a.id",
                    "SELECT b.f, COUNT(*) FROM a JOIN b ON {} GROUP BY b.f",
                ] {
                    let hashed = shape.replace("{}", &format!("a.{x} = b.{y}"));
                    let nested = shape.replace("{}", &format!("a.{x} >= b.{y} AND a.{x} <= b.{y}"));
                    let (got, want) = (e.execute(&hashed).unwrap(), e.execute(&nested).unwrap());
                    assert_eq!(render(&got), render(&want), "{}", ctx(&hashed));
                }
            }
        }
        let two = "SELECT a.id, b.id FROM a JOIN b ON a.i = b.f AND a.f = b.i";
        let nested = "SELECT a.id, b.id FROM a JOIN b \
                      ON a.i >= b.f AND a.i <= b.f AND a.f >= b.i AND a.f <= b.i";
        let (got, want) = (e.execute(two).unwrap(), e.execute(nested).unwrap());
        assert_eq!(render(&got), render(&want), "{}", ctx(two));
    }
}

/// NaN is one value, above every other number, wherever values are
/// compared: `=` and `<` in filters, hash and nested-loop joins, GROUP BY,
/// ORDER BY and MIN/MAX. `-0.0 = 0.0` still holds.
#[test]
fn nan_equals_nan_and_sorts_above_every_number() {
    let mut e = Engine::new();
    e.execute("CREATE TABLE n (id INT, f FLOAT)").unwrap();
    e.execute("INSERT INTO n VALUES (1, 1.0), (2, -0.0), (3, NULL), (4, 1000.5)")
        .unwrap();
    // NaN has no SQL literal: insert it, with either sign, through the
    // catalog.
    let t = e.database_mut().table_mut("n").unwrap();
    for (id, f) in [(5, f64::NAN), (6, -f64::NAN)] {
        t.insert_row(vec![Value::Int(id), Value::Float(f)]).unwrap();
    }
    let cases = [
        ("SELECT id FROM n WHERE f <= 1.0", "1; 2"),
        ("SELECT id FROM n WHERE f > 1000.5", "5; 6"),
        ("SELECT id FROM n WHERE f = f", "1; 2; 4; 5; 6"),
        ("SELECT id FROM n WHERE f <> 1.0", "2; 4; 5; 6"),
        ("SELECT id FROM n WHERE f = 0.0", "2"),
        ("SELECT id FROM n WHERE f BETWEEN 0.0 AND 1000.5", "1; 2; 4"),
        (
            "SELECT a.id, b.id FROM n a JOIN n b ON a.f = b.f",
            "1, 1; 2, 2; 4, 4; 5, 5; 5, 6; 6, 5; 6, 6",
        ),
        (
            "SELECT a.id, b.id FROM n a JOIN n b ON a.f >= b.f AND a.f <= b.f",
            "1, 1; 2, 2; 4, 4; 5, 5; 5, 6; 6, 5; 6, 6",
        ),
        (
            "SELECT f, COUNT(*) FROM n GROUP BY f",
            "1.0, 1; -0.0, 1; NULL, 1; 1000.5, 1; NaN, 2",
        ),
        ("SELECT id FROM n ORDER BY f DESC, id", "5; 6; 4; 1; 2; 3"),
        ("SELECT MAX(f), MIN(f) FROM n", "NaN, -0.0"),
    ];
    for (sql, want) in cases {
        let got = e.execute(sql).unwrap_or_else(|err| panic!("{sql}: {err}"));
        assert_eq!(render(&got), want, "{sql}");
    }
}

/// `ORDER BY` over a key that mixes INT and FLOAT compares the two
/// exactly, also past 2^53, where INT 2^53 + 1 widens to FLOAT 2^53.
#[test]
fn order_by_mixed_int_float_keys_is_exact_past_2_pow_53() {
    let big = 1i64 << 53;
    let mut e = Engine::new();
    e.execute("CREATE TABLE m (id INT, k INT, f FLOAT)").unwrap();
    let t = e.database_mut().table_mut("m").unwrap();
    for row in [
        [Value::Int(1), Value::Int(big + 1), Value::Null],
        [Value::Int(2), Value::Null, Value::Float(big as f64)],
        [Value::Int(3), Value::Int(big), Value::Null],
    ] {
        t.insert_row(row.to_vec()).unwrap();
    }
    // INT 2^53 and FLOAT 2^53 tie, and keep their arrival order.
    let cases = [
        ("SELECT id FROM m ORDER BY COALESCE(k, f)", "2; 3; 1"),
        ("SELECT id FROM m ORDER BY COALESCE(k, f) DESC", "1; 2; 3"),
        ("SELECT id FROM m ORDER BY COALESCE(k, f) LIMIT 2", "2; 3"),
        ("SELECT id FROM m ORDER BY COALESCE(k, f) DESC LIMIT 1", "1"),
    ];
    for (sql, want) in cases {
        let got = e.execute(sql).unwrap_or_else(|err| panic!("{sql}: {err}"));
        assert_eq!(render(&got), want, "{sql}");
    }
}

/// `Value::total_cmp` is a total order over INT and FLOAT values near
/// ±2^53 (where INT → FLOAT widening rounds), signed zeros, infinities
/// and NaN of either sign: antisymmetric and transitive on seeded
/// triples, and equal to `Value::sql_cmp` wherever neither side is NULL.
#[test]
fn total_cmp_is_a_total_order_across_int_and_float() {
    use std::cmp::Ordering::{self, Equal, Greater, Less};
    let big = 1i64 << 53;
    let value = |rng: &mut Rng| {
        let sign = if rng.pct(50) { 1 } else { -1 };
        let near = sign * (big + rng.below(9) as i64 - 4);
        match rng.below(12) {
            0..=4 => Value::Int(near),
            5..=8 => Value::Float(near as f64 + [0.0, 0.5, -0.5][rng.below(3) as usize]),
            9 => Value::Float([0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY][rng.below(4) as usize]),
            10 => Value::Float(if rng.pct(50) { f64::NAN } else { -f64::NAN }),
            _ => Value::Int([0, i64::MAX, i64::MIN][rng.below(3) as usize]),
        }
    };
    let le = |o: Ordering| o != Greater;
    for seed in [5, 31, 2024] {
        let mut rng = Rng::new(seed);
        for _ in 0..20_000 {
            let (a, b, c) = (value(&mut rng), value(&mut rng), value(&mut rng));
            let (ab, bc, ac) = (a.total_cmp(&b), b.total_cmp(&c), a.total_cmp(&c));
            let ctx = format!("seed {seed}: {a:?}, {b:?}, {c:?}");
            assert_eq!(ab, b.total_cmp(&a).reverse(), "antisymmetry {ctx}");
            assert_eq!(a.sql_cmp(&b), Some(ab), "sql_cmp {ctx}");
            if le(ab) && le(bc) {
                assert!(le(ac), "transitivity {ctx}");
                if ab == Less || bc == Less {
                    assert_eq!(ac, Less, "strict transitivity {ctx}");
                }
            }
            if ab == Equal && bc == Equal {
                assert_eq!(ac, Equal, "equality {ctx}");
            }
        }
    }
}
