//! Columnar-vs-row SQL executor benchmark + gates (E11).
//!
//! Loads a million-row `events` table (plus a 10k-row `users` dimension)
//! through the bulk-ingest path into two engines — one on the default row
//! executor, one on `ExecConfig::columnar()` — and drives identical
//! scan/filter/aggregate/join workloads through both:
//!
//! 1. **Equivalence gate**: every workload's result must match per cell
//!    (same schema, same rows, same order) across the two executors.
//! 2. **Speedup gate** (full mode): the columnar executor must be ≥ 3×
//!    faster than the row executor on the scan, filter and group-by
//!    aggregate workloads. The join workload is reported but ungated
//!    (its output re-materialises rows either way).
//! 3. **Snapshot gate**: the three Chat2Data shapes (filtered `COUNT(*)`,
//!    `GROUP BY … SUM`, `JOIN … GROUP BY`) run the served two-phase path
//!    on the row engine, `Engine::prepare`, then a write to the scanned
//!    table, then `ScannedSelect::finish`, and must return the columnar
//!    engine's pre-write answer per cell. It runs after the timings, so
//!    they see the fixture unchanged, and before the speedup gate, so it
//!    runs in both modes.
//!
//! Emits `results/BENCH_sql_columnar.json`.
//!
//! ```text
//! cargo run -p dbgpt-bench --release --bin bench_sql_columnar            # full
//! cargo run -p dbgpt-bench --release --bin bench_sql_columnar -- --smoke # CI gate
//! ```

use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

use dbgpt_obs::Span;
use dbgpt_sqlengine::engine::Prepared;
use dbgpt_sqlengine::{Engine, ExecConfig, QueryResult, Value};

/// Seed for the fixture generator.
const SEED: u64 = 42;

const CATEGORIES: &[&str] = &["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];
const SEGMENTS: &[&str] = &["free", "pro", "team", "enterprise"];

/// xorshift64* — deterministic fixture data without a rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Deterministic fixture rows for `events` and `users`.
fn fixture(events: usize, users: usize) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let mut rng = Rng(SEED | 1);
    let event_rows = (0..events)
        .map(|id| {
            vec![
                Value::Int(id as i64),
                Value::Int(rng.below(users as u64) as i64),
                Value::Float(rng.below(100_000) as f64 / 200.0),
                Value::Bool(rng.below(2) == 0),
                Value::Text(CATEGORIES[rng.below(CATEGORIES.len() as u64) as usize].into()),
            ]
        })
        .collect();
    let user_rows = (0..users)
        .map(|id| {
            vec![
                Value::Int(id as i64),
                Value::Text(SEGMENTS[rng.below(SEGMENTS.len() as u64) as usize].into()),
            ]
        })
        .collect();
    (event_rows, user_rows)
}

/// Build one engine and bulk-load the fixture into it.
fn build_engine(
    exec: ExecConfig,
    event_rows: &[Vec<Value>],
    user_rows: &[Vec<Value>],
) -> Engine {
    let mut e = Engine::with_exec(exec);
    e.execute("CREATE TABLE events (id INT, user_id INT, amount FLOAT, flag BOOL, category TEXT)")
        .unwrap();
    e.execute("CREATE TABLE users (id INT, segment TEXT)").unwrap();
    let db = e.database_mut();
    db.table_mut("events")
        .unwrap()
        .insert_rows(event_rows.to_vec())
        .unwrap();
    db.table_mut("users")
        .unwrap()
        .insert_rows(user_rows.to_vec())
        .unwrap();
    e
}

struct Workload {
    name: &'static str,
    sql: &'static str,
    /// Part of the ≥ 3× speedup gate in full mode.
    gated: bool,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "scan_agg",
        sql: "SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount) FROM events",
        gated: true,
    },
    Workload {
        name: "filter_agg",
        sql: "SELECT COUNT(*), SUM(amount) FROM events \
              WHERE amount > 250.0 AND category = 'c3'",
        gated: true,
    },
    Workload {
        name: "filter_rows",
        sql: "SELECT id, amount FROM events WHERE amount > 495.0 AND flag = TRUE",
        gated: false,
    },
    Workload {
        name: "group_agg",
        sql: "SELECT category, COUNT(*), SUM(amount), AVG(amount) FROM events \
              GROUP BY category ORDER BY category",
        gated: true,
    },
    Workload {
        name: "join_agg",
        sql: "SELECT u.segment, COUNT(*), SUM(e.amount) FROM events e \
              JOIN users u ON e.user_id = u.id GROUP BY u.segment ORDER BY u.segment",
        gated: false,
    },
];

/// The served Chat2Data shapes, each with the write that runs between
/// its `prepare` and its `finish`.
const SNAPSHOT_SHAPES: &[(&str, &str)] = &[
    (
        "SELECT COUNT(*) FROM events WHERE category = 'c3'",
        "INSERT INTO events VALUES (-1, 0, 1.0, TRUE, 'c3'), (-2, 1, 2.0, FALSE, 'c3')",
    ),
    (
        "SELECT category, SUM(amount) FROM events GROUP BY category",
        "UPDATE events SET amount = amount + 1.0, category = 'c3' WHERE id % 97 = 5",
    ),
    (
        "SELECT u.segment, SUM(e.amount) FROM events e JOIN users u ON e.user_id = u.id \
         GROUP BY u.segment",
        "DELETE FROM events WHERE id % 89 = 7",
    ),
];

/// Per-cell identity of two results (same columns, rows, order).
fn assert_identical(a: &QueryResult, b: &QueryResult, what: &str) {
    assert_eq!(a.column_names(), b.column_names(), "schema diverged on {what}");
    assert_eq!(a.rows.len(), b.rows.len(), "row count diverged on {what}");
    for (i, (ra, rb)) in a.rows.iter().zip(&b.rows).enumerate() {
        for (j, (va, vb)) in ra.values().iter().zip(rb.values()).enumerate() {
            assert_eq!(va, vb, "cell ({i},{j}) diverged on {what}");
        }
    }
}

/// Best-of-`reps` wall-clock milliseconds for one query on one engine.
fn time_ms(e: &mut Engine, sql: &str, reps: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let r = e.execute(sql).expect("workload query failed");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(r.rows.len());
        best = best.min(ms);
    }
    best
}

/// The sweep, callable from `main`.
pub fn run(smoke: bool, out_path: &str) {
    let (events, users, reps, mode) = if smoke {
        (20_000usize, 500usize, 2u32, "smoke")
    } else {
        (1_000_000usize, 10_000usize, 3u32, "full")
    };
    println!("BENCH sql_columnar ({mode})");
    println!("  events = {events}, users = {users}, seed = {SEED}, best of {reps}");

    let t = Instant::now();
    let (event_rows, user_rows) = fixture(events, users);
    let mut row_engine = build_engine(ExecConfig::row(), &event_rows, &user_rows);
    let mut col_engine = build_engine(ExecConfig::columnar(), &event_rows, &user_rows);
    drop((event_rows, user_rows));
    println!("  bulk-ingested both engines in {:.1}s", t.elapsed().as_secs_f64());

    // Warmup: also builds the columnar mirror once; with no interleaved
    // DML every timed run reuses it (that is the serving-path shape:
    // Text-to-SQL candidate loops run k queries per mutation).
    for w in WORKLOADS {
        let a = row_engine.execute(w.sql).unwrap();
        let b = col_engine.execute(w.sql).unwrap();
        // Equivalence gate: per-cell identity, both orders.
        assert_identical(&a, &b, w.name);
    }
    println!("  equivalence gate passed: all workloads identical per cell\n");

    println!(
        "  {:<12} {:>10} {:>10} {:>9} {:>10}",
        "workload", "row ms", "col ms", "speedup", "rows out"
    );
    println!("  {}", "-".repeat(55));
    let mut results = Vec::new();
    for w in WORKLOADS {
        let row_ms = time_ms(&mut row_engine, w.sql, reps);
        let col_ms = time_ms(&mut col_engine, w.sql, reps);
        let speedup = row_ms / col_ms;
        let rows_out = col_engine.execute(w.sql).unwrap().rows.len();
        println!(
            "  {:<12} {:>10.2} {:>10.2} {:>8.2}x {:>10}{}",
            w.name,
            row_ms,
            col_ms,
            speedup,
            rows_out,
            if w.gated { "  [gated]" } else { "" }
        );
        results.push((w, row_ms, col_ms, speedup, rows_out));
    }

    // Snapshot gate: a prepared SELECT answers as of `prepare`, whatever
    // the write between `prepare` and `finish` did to the scanned table.
    for (sql, write) in SNAPSHOT_SHAPES {
        let want = col_engine.execute(sql).unwrap();
        let Prepared::Read(select) = row_engine.prepare(sql, &Span::noop()).unwrap() else {
            panic!("a SELECT prepares as a read: {sql}");
        };
        let affected = row_engine.execute(write).unwrap().rows_affected;
        assert!(affected > 0, "{write}");
        assert_identical(&select.finish().unwrap(), &want, sql);
        // Keep the two engines' tables equal for the next shape.
        assert_eq!(col_engine.execute(write).unwrap().rows_affected, affected);
    }
    println!("  snapshot gate passed: prepared SELECTs keep their pre-write answer");

    // Speedup gate: only meaningful at the million-row scale.
    if !smoke {
        for (w, _, _, speedup, _) in &results {
            if w.gated {
                assert!(
                    *speedup >= 3.0,
                    "{} speedup {speedup:.2}x below the 3x gate",
                    w.name
                );
            }
        }
        println!("\n  speedup gate passed: >= 3x on scan/filter/aggregate");
    }


    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"sql_columnar\",\n  \"mode\": \"{mode}\",\n  \
         \"generated_by\": \"cargo run -p dbgpt-bench --release --bin bench_sql_columnar\",\n  \
         \"seed\": {SEED},\n  \"events\": {events},\n  \"users\": {users},\n  \
         \"reps\": {reps},\n  \
         \"gates\": [\"row and columnar results identical per cell\", \
         \"prepared SELECTs keep their pre-write answer\"{}],\n  \
         \"workloads\": {{\n",
        if smoke {
            ""
        } else {
            ", \"columnar >= 3x on scan_agg/filter_agg/group_agg\""
        }
    );
    for (i, (w, row_ms, col_ms, speedup, rows_out)) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    \"{}\": {{\"row_ms\": {row_ms:.3}, \"columnar_ms\": {col_ms:.3}, \
             \"speedup\": {speedup:.2}, \"rows_out\": {rows_out}, \"gated\": {}}}",
            w.name, w.gated
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  }\n}\n");
    fs::create_dir_all("results").ok();
    fs::write(out_path, json).expect("write results file");
    println!("  wrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_override = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone());
    let out_path = out_override.unwrap_or_else(|| {
        if smoke {
            "results/BENCH_sql_columnar_smoke.json".to_string()
        } else {
            "results/BENCH_sql_columnar.json".to_string()
        }
    });
    run(smoke, &out_path);
}
