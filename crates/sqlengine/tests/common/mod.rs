//! Shared differential-test harness: a deterministic RNG, random SQL
//! generators over a fixed two-table schema, and an equivalence checker.
//!
//! Used by `executor_props.rs` (indexed vs. index-free engine) and
//! `prepare_props.rs` (two-phase SELECT vs. `execute`). In each, the
//! reference engine runs [`seed_stmts`] alone; the engines compared with it
//! also run [`INDEXES`], so every index probe is checked against an
//! index-free oracle.

#![allow(dead_code)] // each test binary uses a subset

use dbgpt_sqlengine::Engine;

/// xorshift64* — deterministic, dependency-free.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn pct(&mut self, p: u64) -> bool {
        self.below(100) < p
    }
}

pub const GROUPS: &[&str] = &["g0", "g1", "g2", "g3", "g4"];
pub const TAGS: &[&str] = &["alpha", "beta", "gamma"];

pub fn int_lit(rng: &mut Rng) -> String {
    if rng.pct(10) {
        "NULL".into()
    } else {
        format!("{}", rng.below(200) as i64 - 100)
    }
}

pub fn float_lit(rng: &mut Rng) -> String {
    match rng.below(20) {
        0 | 1 => "NULL".into(),
        2 => "-0.0".into(),
        3 => "0.0".into(),
        _ => format!("{:?}", (rng.below(4000) as f64 - 2000.0) / 8.0),
    }
}

/// A whole or half FLOAT literal in INT `v`'s range, e.g. `-7.0` or `3.5`.
pub fn numeric_float_lit(rng: &mut Rng) -> String {
    format!("{:?}", (rng.below(400) as f64 - 200.0) / 2.0)
}

pub fn group_lit(rng: &mut Rng) -> String {
    if rng.pct(15) {
        "NULL".into()
    } else {
        format!("'{}'", GROUPS[rng.below(GROUPS.len() as u64) as usize])
    }
}

pub fn bool_lit(rng: &mut Rng) -> String {
    match rng.below(5) {
        0 => "NULL".into(),
        1 | 2 => "TRUE".into(),
        _ => "FALSE".into(),
    }
}

/// Secondary indexes on `t1` for the engines compared with the index-free
/// reference: TEXT equality, INT and FLOAT ranges.
pub const INDEXES: &[&str] = &[
    "CREATE INDEX idx_grp ON t1 (grp)",
    "CREATE INDEX idx_v ON t1 (v)",
    "CREATE INDEX idx_f ON t1 (f)",
];

/// The seed statement stream: DDL for `t1`/`t2` and bulk inserts. Feed the
/// same stream to every engine under comparison.
pub fn seed_stmts(rng: &mut Rng, t1_rows: usize, t2_rows: usize) -> Vec<String> {
    let mut stmts = vec![
        "CREATE TABLE t1 (id INT, grp TEXT, v INT, f FLOAT, b BOOL)".to_string(),
        "CREATE TABLE t2 (id INT, t1_id INT, w FLOAT, tag TEXT)".to_string(),
    ];
    let mut vals = Vec::with_capacity(t1_rows);
    for id in 0..t1_rows {
        vals.push(format!(
            "({id}, {}, {}, {}, {})",
            group_lit(rng),
            int_lit(rng),
            float_lit(rng),
            bool_lit(rng)
        ));
    }
    stmts.push(format!("INSERT INTO t1 VALUES {}", vals.join(", ")));
    let mut vals = Vec::with_capacity(t2_rows);
    for id in 0..t2_rows {
        let t1_id = if rng.pct(10) {
            "NULL".into()
        } else {
            format!("{}", rng.below((t1_rows as u64) + 40))
        };
        vals.push(format!(
            "({id}, {t1_id}, {}, '{}')",
            float_lit(rng),
            TAGS[rng.below(TAGS.len() as u64) as usize]
        ));
    }
    stmts.push(format!("INSERT INTO t2 VALUES {}", vals.join(", ")));
    stmts
}

/// One random predicate over t1's columns (optionally qualified).
pub fn predicate(rng: &mut Rng, q: &str) -> String {
    let atom = |rng: &mut Rng| -> String {
        match rng.below(14) {
            0 => format!("{q}v > {}", int_lit(rng)),
            1 => format!("{q}f <= {}", float_lit(rng)),
            2 => format!("{q}grp = {}", group_lit(rng)),
            3 => format!("{q}grp LIKE 'g%'"),
            4 => format!(
                "{q}v IN ({}, {}, {})",
                int_lit(rng),
                int_lit(rng),
                int_lit(rng)
            ),
            5 => format!("{q}v BETWEEN {} AND {}", int_lit(rng), int_lit(rng)),
            6 => format!("{q}b = TRUE"),
            7 => format!("{q}grp IS NULL"),
            8 => format!("{q}v + {q}id > {}", int_lit(rng)),
            // Literals of the other numeric type, on either side.
            9 => format!("{q}v = {}", numeric_float_lit(rng)),
            10 => format!("{} <= {q}v", numeric_float_lit(rng)),
            11 => format!("{q}f = {}", int_lit(rng)),
            12 => format!("{q}f BETWEEN {} AND {}", int_lit(rng), float_lit(rng)),
            _ => format!("{q}f >= {}", float_lit(rng)),
        }
    };
    match rng.below(4) {
        0 => atom(rng),
        1 => format!("{} AND {}", atom(rng), atom(rng)),
        2 => format!("{} OR {}", atom(rng), atom(rng)),
        _ => format!("NOT ({})", atom(rng)),
    }
}

pub fn query(rng: &mut Rng) -> String {
    match rng.below(6) {
        // Plain filter scans (sometimes unordered: scan order must match).
        0 => {
            let mut q = format!("SELECT id, grp, v, f, b FROM t1 WHERE {}", predicate(rng, ""));
            if rng.pct(60) {
                q.push_str(" ORDER BY id");
            }
            if rng.pct(30) {
                q.push_str(&format!(" LIMIT {}", rng.below(40)));
            }
            q
        }
        // Expression projections.
        1 => format!(
            "SELECT id, v * 2 + 1, UPPER(grp), COALESCE(v, -1) FROM t1 WHERE {}",
            predicate(rng, "")
        ),
        // Grouped aggregation, sometimes with HAVING.
        2 => {
            let mut q = format!(
                "SELECT grp, COUNT(*), COUNT(v), SUM(v), AVG(f), MIN(v), MAX(f), \
                 COUNT(DISTINCT b) FROM t1 WHERE {} GROUP BY grp",
                predicate(rng, "")
            );
            if rng.pct(40) {
                q.push_str(&format!(" HAVING COUNT(*) > {}", rng.below(6)));
            }
            q.push_str(" ORDER BY grp");
            q
        }
        // Global aggregates (empty-input shape included).
        3 => format!(
            "SELECT COUNT(*), SUM(v), MIN(f), MAX(v) FROM t1 WHERE {}",
            predicate(rng, "")
        ),
        // Joins: hash (equi) and nested-loop (inequality), inner and left.
        4 => {
            let kind = if rng.pct(50) { "JOIN" } else { "LEFT JOIN" };
            let mut on = "t1.id = t2.t1_id".to_string();
            if rng.pct(40) {
                on.push_str(&format!(" AND t2.w > {}", float_lit(rng)));
            }
            if rng.pct(15) {
                on = format!("t1.id < t2.t1_id AND t2.id < {}", rng.below(30));
            }
            format!(
                "SELECT t1.id, t1.grp, t2.tag, t2.w FROM t1 {kind} t2 ON {on} \
                 WHERE {} ORDER BY t1.id, t2.id",
                predicate(rng, "t1.")
            )
        }
        // DISTINCT / UNION shapes.
        _ => {
            if rng.pct(50) {
                format!(
                    "SELECT DISTINCT grp, b FROM t1 WHERE {} ORDER BY grp, b",
                    predicate(rng, "")
                )
            } else {
                let all = if rng.pct(50) { " ALL" } else { "" };
                format!(
                    "SELECT grp FROM t1 WHERE {} UNION{all} SELECT tag FROM t2 \
                     WHERE t2.w > {} ORDER BY 1",
                    predicate(rng, ""),
                    float_lit(rng)
                )
            }
        }
    }
}

/// One random write. Some fail part-way: `10 / (v - k)` divides by zero
/// at the first row holding `v = k`, after earlier rows were hit.
pub fn dml(rng: &mut Rng, next_id: &mut i64) -> String {
    match rng.below(5) {
        0 => format!(
            "UPDATE t1 SET v = v + {}, f = f * 0.5 WHERE {}",
            rng.below(10),
            predicate(rng, "")
        ),
        1 => format!("DELETE FROM t1 WHERE v = {}", int_lit(rng)),
        2 => {
            let fails_at = format!("10 / (v - {}) > 0", rng.below(200) as i64 - 100);
            if rng.pct(50) {
                format!("UPDATE t1 SET v = v + 1, f = f * 0.5 WHERE {fails_at}")
            } else {
                format!("DELETE FROM t1 WHERE {fails_at}")
            }
        }
        _ => {
            let id = *next_id;
            *next_id += 1;
            let mut rows = Vec::new();
            for k in 0..(1 + rng.below(3)) {
                rows.push(format!(
                    "({}, {}, {}, {}, {})",
                    id * 1000 + k as i64,
                    group_lit(rng),
                    int_lit(rng),
                    float_lit(rng),
                    bool_lit(rng)
                ));
            }
            format!("INSERT INTO t1 VALUES {}", rows.join(", "))
        }
    }
}

/// Run one statement through two engines and demand identical outcomes.
pub fn check(sql: &str, a: &mut Engine, b: &mut Engine, ctx: &str) {
    let x = a.execute(sql);
    let y = b.execute(sql);
    compare(sql, &x, &y, ctx);
}

/// Demand identical outcomes from two already-executed results: same
/// column names, per-cell-identical rows in the same order, same
/// `rows_affected` — or an error on both paths (messages may differ).
/// Split from [`check`] for results that do not come from
/// `Engine::execute`, such as a prepared SELECT's.
pub fn compare(
    sql: &str,
    x: &Result<dbgpt_sqlengine::QueryResult, dbgpt_sqlengine::SqlError>,
    y: &Result<dbgpt_sqlengine::QueryResult, dbgpt_sqlengine::SqlError>,
    ctx: &str,
) {
    match (x, y) {
        (Ok(x), Ok(y)) => {
            let xa: Vec<&str> = x.column_names();
            let ya: Vec<&str> = y.column_names();
            assert_eq!(xa, ya, "schema diverged ({ctx}) on: {sql}");
            assert_eq!(
                x.rows.len(),
                y.rows.len(),
                "row count diverged ({ctx}) on: {sql}"
            );
            for (ri, (rx, ry)) in x.rows.iter().zip(&y.rows).enumerate() {
                for ci in 0..rx.len() {
                    assert_eq!(
                        rx[ci], ry[ci],
                        "cell [{ri}][{ci}] diverged ({ctx}) on: {sql}"
                    );
                }
            }
            assert_eq!(
                x.rows_affected, y.rows_affected,
                "rows_affected diverged ({ctx}) on: {sql}"
            );
        }
        (Err(_), Err(_)) => {}
        (x, y) => panic!("ok/err diverged ({ctx}) on: {sql}\n a: {x:?}\n b: {y:?}"),
    }
}

