//! Property-based tests for the SQL engine.
//!
//! The headline property: for any generated query, the optimized plan and
//! the unoptimized plan return identical results — the optimizer can make
//! queries faster, never different. Queries are generated compositionally
//! (filters × aggregation × ordering × joins) over seeded random data.

use proptest::prelude::*;

use dbgpt_sqlengine::plan::Optimizer;
use dbgpt_sqlengine::{Engine, SqlError};

/// Deterministic test data: two tables with a joinable key.
fn seed(engine: &mut Engine, rows: &[(i64, i64, i64, &str)]) {
    engine
        .execute("CREATE TABLE o (id INT, uid INT, amt INT, cat TEXT)")
        .unwrap();
    engine
        .execute("CREATE TABLE u (id INT, name TEXT)")
        .unwrap();
    for (id, uid, amt, cat) in rows {
        engine
            .execute(&format!("INSERT INTO o VALUES ({id}, {uid}, {amt}, '{cat}')"))
            .unwrap();
    }
    for i in 0..4 {
        engine
            .execute(&format!("INSERT INTO u VALUES ({i}, 'user{i}')"))
            .unwrap();
    }
}

/// Result fingerprint: rows rendered + sorted (order-insensitive compare
/// unless the query carries ORDER BY, in which case order matters and we
/// keep it).
fn fingerprint(r: &dbgpt_sqlengine::QueryResult, ordered: bool) -> Vec<String> {
    let mut rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            row.values()
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    if !ordered {
        rows.sort();
    }
    rows
}

/// Run one SQL string under both optimizer configurations.
fn both(
    rows: &[(i64, i64, i64, &str)],
    sql: &str,
    ordered: bool,
) -> Result<(Vec<String>, Vec<String>), SqlError> {
    let mut opt = Engine::with_optimizer(Optimizer::new());
    seed(&mut opt, rows);
    let mut raw = Engine::with_optimizer(Optimizer::disabled());
    seed(&mut raw, rows);
    Ok((
        fingerprint(&opt.execute(sql)?, ordered),
        fingerprint(&raw.execute(sql)?, ordered),
    ))
}

/// Strategy: a small random data set.
fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64, i64, &'static str)>> {
    let cats = prop_oneof![Just("red"), Just("blue"), Just("green")];
    proptest::collection::vec(
        (0i64..50, 0i64..6, -20i64..100, cats),
        0..25,
    )
}

/// Strategy: a comparison filter over the `o` table, with columns
/// qualified by `prefix` (empty for single-table queries, `"o."` in joins
/// where bare `id` would be ambiguous). Some compare an INT column with a
/// whole or half FLOAT literal, on either side.
fn filter_strategy(prefix: &'static str) -> impl Strategy<Value = String> {
    let col = || prop_oneof![Just("amt"), Just("uid"), Just("id")];
    let op = || prop_oneof![Just(">"), Just("<"), Just(">="), Just("<="), Just("="), Just("<>")];
    let text_filter = prop_oneof![
        Just(format!("{prefix}cat = 'red'")),
        Just(format!("{prefix}cat <> 'blue'")),
        Just(format!("{prefix}cat LIKE 'g%'")),
        Just(format!("{prefix}cat IN ('red', 'green')")),
    ];
    prop_oneof![
        (col(), op(), -10i64..60).prop_map(move |(c, o, v)| format!("{prefix}{c} {o} {v}")),
        (col(), op(), -20i64..120, proptest::bool::ANY).prop_map(move |(c, o, v, flip)| {
            let lit = format!("{:?}", v as f64 / 2.0);
            if flip {
                format!("{lit} {o} {prefix}{c}")
            } else {
                format!("{prefix}{c} {o} {lit}")
            }
        }),
        text_filter,
        (0i64..40, 10i64..80)
            .prop_map(move |(a, b)| format!("{prefix}amt BETWEEN {} AND {}", a.min(b), a.max(b))),
        (-10i64..80, -10i64..80).prop_map(move |(a, b)| {
            format!("{prefix}amt BETWEEN {:?} AND {:?}", a as f64 / 2.0, b as f64 / 2.0)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Optimized == unoptimized for filtered scans.
    #[test]
    fn optimizer_preserves_filtered_scans(
        rows in rows_strategy(),
        f1 in filter_strategy(""),
        f2 in filter_strategy(""),
    ) {
        let sql = format!("SELECT id, amt FROM o WHERE {f1} AND {f2}");
        let (a, b) = both(&rows, &sql, false).unwrap();
        prop_assert_eq!(a, b, "{}", sql);
    }

    /// Optimized == unoptimized for grouped aggregates with HAVING.
    #[test]
    fn optimizer_preserves_aggregates(
        rows in rows_strategy(),
        f in filter_strategy(""),
        threshold in -50i64..200,
    ) {
        let sql = format!(
            "SELECT cat, COUNT(*), SUM(amt), MIN(amt), MAX(amt), AVG(amt) \
             FROM o WHERE {f} GROUP BY cat HAVING SUM(amt) > {threshold}"
        );
        let (a, b) = both(&rows, &sql, false).unwrap();
        prop_assert_eq!(a, b, "{}", sql);
    }

    /// Optimized == unoptimized for joins with mixed-side predicates.
    #[test]
    fn optimizer_preserves_joins(
        rows in rows_strategy(),
        f in filter_strategy("o."),
        left in proptest::bool::ANY,
    ) {
        let join = if left { "LEFT JOIN" } else { "JOIN" };
        let sql = format!(
            "SELECT o.id, u.name FROM o {join} u ON o.uid = u.id \
             WHERE {f} ORDER BY o.id"
        );
        let (a, b) = both(&rows, &sql, true).unwrap();
        prop_assert_eq!(a, b, "{}", sql);
    }

    /// Optimized == unoptimized for DISTINCT + ORDER + LIMIT pipelines.
    #[test]
    fn optimizer_preserves_distinct_order_limit(
        rows in rows_strategy(),
        limit in 0usize..10,
    ) {
        let sql = format!(
            "SELECT DISTINCT cat FROM o ORDER BY cat LIMIT {limit}"
        );
        let (a, b) = both(&rows, &sql, true).unwrap();
        prop_assert_eq!(a, b, "{}", sql);
    }

    /// An index never changes results, only speed. `f` comes first, so
    /// its column's index answers the probe when it can.
    #[test]
    fn index_preserves_results(
        rows in rows_strategy(),
        f in filter_strategy(""),
    ) {
        let sql = format!("SELECT id FROM o WHERE {f} AND cat = 'red'");
        let mut plain = Engine::new();
        seed(&mut plain, &rows);
        let mut indexed = Engine::new();
        seed(&mut indexed, &rows);
        for col in ["cat", "amt", "uid", "id"] {
            indexed.execute(&format!("CREATE INDEX i_{col} ON o ({col})")).unwrap();
        }
        let a = fingerprint(&plain.execute(&sql).unwrap(), false);
        let b = fingerprint(&indexed.execute(&sql).unwrap(), false);
        prop_assert_eq!(a, b, "{}", sql);
    }

    /// DML sequences keep COUNT(*) consistent with a Rust model.
    #[test]
    fn dml_count_model(
        rows in rows_strategy(),
        cut in -20i64..100,
    ) {
        let mut e = Engine::new();
        seed(&mut e, &rows);
        let expected_delete = rows.iter().filter(|(_, _, amt, _)| *amt > cut).count();
        let r = e.execute(&format!("DELETE FROM o WHERE amt > {cut}")).unwrap();
        prop_assert_eq!(r.rows_affected, expected_delete);
        let r = e.execute("SELECT COUNT(*) FROM o").unwrap();
        prop_assert_eq!(
            r.rows[0][0].as_i64().unwrap() as usize,
            rows.len() - expected_delete
        );
    }
}
