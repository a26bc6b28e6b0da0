//! `ORDER BY … LIMIT n` runs as a bounded top-n selection. These
//! properties pin it to its definition: the full sort of the same query,
//! truncated to `n` rows, cell for cell and in the same order.
//!
//! Generated queries mix ties, NULLs, `-0.0` and `0.0`, NaN and mixed
//! INT/FLOAT/TEXT sort keys, multi-key ASC/DESC orders, hidden sort keys
//! (dropped by a `Strip` above the limit), computed keys and projections,
//! and limits of 0, 1, a few, around the row count and `i64::MAX`; over a
//! projected scan (the streaming path) and over aggregates, DISTINCT,
//! joins and UNIONs (the materialised path).
//!
//! Randomness comes from the deterministic xorshift generator in
//! `tests/common/`, so a failure reproduces from the seed in its message.

mod common;

use common::Rng;
use dbgpt_sqlengine::{Engine, QueryResult, Value};

const ROWS: usize = 300;

/// `t` with few distinct values per column, so sort keys tie often.
fn engine(rng: &mut Rng) -> Engine {
    let mut e = Engine::new();
    e.execute("CREATE TABLE t (id INT, v INT, f FLOAT, s TEXT, x INT)")
        .unwrap();
    e.execute("CREATE TABLE u (v INT, name TEXT)").unwrap();
    e.execute(
        "INSERT INTO u VALUES (0, 'zero'), (1, 'one'), (1, 'uno'), (3, NULL), (NULL, 'none')",
    )
    .unwrap();
    let floats = [0.0, -0.0, 1.5, -2.0, 1.0, f64::NAN, 1e300];
    let texts = ["a", "b", "B", ""];
    let t = e.database_mut().table_mut("t").unwrap();
    for id in 0..ROWS as i64 {
        let v = match rng.below(8) {
            0 => Value::Null,
            k => Value::Int(k as i64 % 5 - 1),
        };
        let f = match rng.below(9) {
            0 | 1 => Value::Null,
            _ => Value::Float(floats[rng.below(floats.len() as u64) as usize]),
        };
        let s = match rng.below(6) {
            0 => Value::Null,
            _ => Value::Text(texts[rng.below(texts.len() as u64) as usize].into()),
        };
        // Never 0, so `1 / x` evaluates on every row.
        let x = Value::Int(1 + rng.below(3) as i64);
        t.insert_row(vec![Value::Int(id), v, f, s, x]).unwrap();
    }
    e
}

/// Rows joined by `"; "`, cells by `", "`; floats in `{:?}` form so
/// `-0.0`, `0.0` and NaN stay apart.
fn render(r: &QueryResult, n: usize) -> String {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{s}'"),
        other => other.to_string(),
    };
    let row = |row: &[Value]| row.iter().map(cell).collect::<Vec<_>>().join(", ");
    r.rows
        .iter()
        .take(n)
        .map(|r| row(r.values()))
        .collect::<Vec<_>>()
        .join("; ")
}

fn pick<'a>(rng: &mut Rng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// An ORDER BY list of one to three keys, each ASC or DESC.
fn order_by(rng: &mut Rng, keys: &[&str]) -> String {
    let n = 1 + rng.below(3) as usize;
    (0..n)
        .map(|_| {
            let dir = if rng.pct(50) { "DESC" } else { "ASC" };
            format!("{} {dir}", pick(rng, keys))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// A query without its LIMIT: over `t` alone (the streaming shape), or a
/// shape whose input is materialised first.
fn query(rng: &mut Rng) -> String {
    const SORT_KEYS: &[&str] = &[
        "id",
        "v",
        "f",
        "s",
        "COALESCE(v, f)",
        "COALESCE(s, v)",
        "COALESCE(f, s)",
        "v * 2 - id",
        "f + 1",
    ];
    const COLUMNS: &[&str] = &["id", "v", "f", "s", "COALESCE(f, v)", "id / x", "UPPER(s)"];
    const FILTERS: &[&str] = &[
        "",
        " WHERE v > 0",
        " WHERE f IS NOT NULL",
        " WHERE s = 'a' OR v IS NULL",
    ];
    match rng.below(10) {
        0 => format!(
            "SELECT v, COUNT(*), SUM(f) FROM t GROUP BY v ORDER BY {}",
            order_by(rng, &["v", "COUNT(*)", "SUM(f)"])
        ),
        1 => format!(
            "SELECT DISTINCT v, s FROM t ORDER BY {}",
            order_by(rng, &["v", "s"])
        ),
        2 => format!(
            "SELECT t.id, u.name FROM t JOIN u ON t.v = u.v ORDER BY {}",
            order_by(rng, &["t.id", "u.name", "t.f"])
        ),
        3 => format!(
            "SELECT id, v FROM t WHERE v = 1 UNION ALL SELECT id, x FROM t WHERE s = 'b' ORDER BY {}",
            order_by(rng, &["id", "v"])
        ),
        _ => {
            let ncols = 1 + rng.below(3) as usize;
            let cols: Vec<&str> = (0..ncols).map(|_| pick(rng, COLUMNS)).collect();
            format!(
                "SELECT {} FROM t{} ORDER BY {}",
                cols.join(", "),
                pick(rng, FILTERS),
                order_by(rng, SORT_KEYS)
            )
        }
    }
}

#[test]
fn top_n_equals_full_sort_then_truncate() {
    for seed in [5, 77, 2024] {
        let mut rng = Rng::new(seed);
        let mut e = engine(&mut rng);
        for _ in 0..250 {
            let sql = query(&mut rng);
            let full = e
                .execute(&sql)
                .unwrap_or_else(|err| panic!("seed {seed}: {sql}: {err}"));
            let rows = full.rows.len();
            let limits = [0, 1, 2, 7, rows.saturating_sub(1), rows, rows + 5];
            for n in limits.into_iter().chain([i64::MAX as usize]) {
                let limited = format!("{sql} LIMIT {n}");
                let got = e
                    .execute(&limited)
                    .unwrap_or_else(|err| panic!("seed {seed}: {limited}: {err}"));
                assert_eq!(got.schema, full.schema, "seed {seed}: {limited}");
                assert_eq!(
                    render(&got, usize::MAX),
                    render(&full, n),
                    "seed {seed}: {limited}"
                );
            }
        }
    }
}

/// Ties keep input order: the top-n of a constant key is the first rows.
#[test]
fn ties_keep_input_order() {
    let mut e = engine(&mut Rng::new(1));
    let got = e
        .execute("SELECT id FROM t ORDER BY 'k' DESC LIMIT 70")
        .unwrap();
    let ids: Vec<String> = got.rows.iter().map(|r| r[0].to_string()).collect();
    let want: Vec<String> = (0..70).map(|i| i.to_string()).collect();
    assert_eq!(ids, want);
}

/// A projection that can fail runs on every passing row, kept or not.
#[test]
fn failing_projection_is_reported_from_rows_the_limit_drops() {
    let mut e = Engine::new();
    e.execute("CREATE TABLE d (id INT, x INT)").unwrap();
    e.execute("INSERT INTO d VALUES (1, 1), (2, 0), (3, 1)")
        .unwrap();
    for sql in [
        "SELECT id, 1 / x FROM d ORDER BY id LIMIT 1",
        "SELECT id FROM d ORDER BY 1 / x, id LIMIT 1",
        "SELECT id, 1 / x FROM d ORDER BY id LIMIT 0",
    ] {
        let err = e.execute(sql).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{sql}: {err}");
    }
    let ok = e
        .execute("SELECT id, 1 / x FROM d WHERE x > 0 ORDER BY id DESC LIMIT 1")
        .unwrap();
    assert_eq!(render(&ok, 1), "3, 1");
}
