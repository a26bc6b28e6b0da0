//! Paged-storage benchmark + gates (E14).
//!
//! Loads a `big` fact table (monotonic `ts` column, so the B+-tree is
//! clustered with insertion order) into four engines — in-memory row
//! storage without an index (the reference), in-memory with an index on
//! `ts`, `StorageConfig::Paged` without a secondary index, and paged with
//! a B+-tree on `ts` — and drives identical workloads through all of
//! them:
//!
//! 1. **Residency gate**: the heap spans ≥ 4× the buffer pool, yet every
//!    workload completes with `max_resident <= pool_pages` — scans
//!    stream through the pool instead of faulting the table in.
//! 2. **Equivalence gate**: every workload's result matches the
//!    index-free in-memory engine per cell on the other three engines, so
//!    the index probe and its range bounds are checked on both storage
//!    arms.
//! 3. **Speedup gate** (full mode): the B+-tree range scan on a selective
//!    predicate is ≥ 5× faster than the paged full scan.
//! 4. **Determinism gate**: the emitted JSON carries no timings — page
//!    counts, pool counters and result fingerprints only — and the whole
//!    deterministic pass runs twice; both passes must produce identical
//!    JSON before it is written.
//!
//! Emits `results/BENCH_storage.json`.
//!
//! ```text
//! cargo run -p dbgpt-bench --release --bin bench_storage            # full
//! cargo run -p dbgpt-bench --release --bin bench_storage -- --smoke # CI gate
//! ```

use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

use dbgpt_sqlengine::{Engine, StorageConfig, Value};

const SEED: u64 = 42;
const GROUPS: &[&str] = &["g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7"];

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

/// Deterministic fixture rows: `ts` is monotonic (clustered), the rest
/// random.
fn fixture(rows: usize) -> Vec<Vec<Value>> {
    let mut rng = Rng(SEED | 1);
    (0..rows)
        .map(|ts| {
            vec![
                Value::Int(ts as i64),
                Value::Text(GROUPS[rng.below(GROUPS.len() as u64) as usize].into()),
                Value::Float(rng.below(100_000) as f64 / 200.0),
                Value::Bool(rng.below(2) == 0),
            ]
        })
        .collect()
}

fn build_engine(storage: StorageConfig, rows: &[Vec<Value>], index_ts: bool) -> Engine {
    let mut e = Engine::with_storage(storage);
    e.execute("CREATE TABLE big (ts INT, grp TEXT, v FLOAT, flag BOOL)")
        .unwrap();
    e.database_mut()
        .table_mut("big")
        .unwrap()
        .insert_rows(rows.to_vec())
        .unwrap();
    if index_ts {
        e.execute("CREATE INDEX idx_ts ON big (ts)").unwrap();
    }
    e
}

/// FNV-1a over a query result: schema, row order and every cell.
fn fingerprint(e: &mut Engine, sql: &str) -> (u64, usize) {
    let r = e.execute(sql).expect("workload query failed");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for name in r.column_names() {
        eat(name.as_bytes());
        eat(b",");
    }
    for row in &r.rows {
        for v in row.values() {
            eat(format!("{v:?}").as_bytes());
            eat(b";");
        }
        eat(b"|");
    }
    (h, r.rows.len())
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

struct Params {
    rows: usize,
    pool_pages: usize,
    page_size: usize,
    range_lo: i64,
    range_hi: i64,
}

/// One deterministic pass: build all four engines, run the residency and
/// equivalence gates, and return the JSON body plus the two paged engines
/// (for the timing phase). Called twice; both JSON strings must agree.
fn deterministic_pass(s: &Params, mode: &str) -> (String, Engine, Engine) {
    let rows = fixture(s.rows);
    let mut mem = build_engine(StorageConfig::InMemory, &rows, false);
    let mut mem_indexed = build_engine(StorageConfig::InMemory, &rows, true);
    let paged_cfg = StorageConfig::paged(s.pool_pages, s.page_size);
    let mut paged = build_engine(paged_cfg, &rows, false);
    let mut indexed = build_engine(paged_cfg, &rows, true);
    drop(rows);

    let heap_pages = indexed.database().table("big").unwrap().page_count();
    assert!(
        heap_pages >= 4 * s.pool_pages,
        "fixture too small: {heap_pages} heap pages < 4x pool ({})",
        s.pool_pages
    );

    let range = format!("ts BETWEEN {} AND {}", s.range_lo, s.range_hi);
    let workloads: Vec<(&str, String)> = vec![
        (
            "full_scan_agg",
            "SELECT COUNT(*), SUM(v), MIN(ts), MAX(ts) FROM big".into(),
        ),
        (
            "range_rows",
            format!("SELECT ts, grp, v FROM big WHERE {range} ORDER BY ts"),
        ),
        ("range_agg", format!("SELECT COUNT(*), SUM(v) FROM big WHERE {range}")),
        (
            "eq_grp_agg",
            "SELECT COUNT(*), SUM(v) FROM big WHERE grp = 'g3'".into(),
        ),
        (
            "group_agg",
            "SELECT grp, COUNT(*), AVG(v) FROM big GROUP BY grp ORDER BY grp".into(),
        ),
    ];

    let mut wl_json = String::new();
    for (i, (name, sql)) in workloads.iter().enumerate() {
        let (fp_mem, n_mem) = fingerprint(&mut mem, sql);
        let (fp_paged, n_paged) = fingerprint(&mut paged, sql);
        let (fp_idx, n_idx) = fingerprint(&mut indexed, sql);
        let (fp_mem_idx, n_mem_idx) = fingerprint(&mut mem_indexed, sql);
        assert_eq!(
            (fp_mem, n_mem),
            (fp_paged, n_paged),
            "paged result diverged from in-memory on {name}"
        );
        assert_eq!(
            (fp_mem, n_mem),
            (fp_idx, n_idx),
            "indexed paged result diverged from in-memory on {name}"
        );
        assert_eq!(
            (fp_mem, n_mem),
            (fp_mem_idx, n_mem_idx),
            "indexed in-memory result diverged from in-memory on {name}"
        );
        let _ = write!(
            wl_json,
            "    \"{name}\": {{\"rows_out\": {n_mem}, \"fingerprint\": \"{fp_mem:016x}\"}}"
        );
        wl_json.push_str(if i + 1 < workloads.len() { ",\n" } else { "\n" });
    }

    // Residency gate: the whole workload streamed through the pool.
    for (label, e) in [("paged", &indexed), ("paged_noindex", &paged)] {
        let pager = e.database().pager().expect("paged engine has a pager");
        let pool = pager.pool();
        assert!(
            pool.max_resident() <= pool.capacity(),
            "{label}: residency {} exceeded pool capacity {}",
            pool.max_resident(),
            pool.capacity()
        );
    }

    let (max_resident, counters) = {
        let pager = indexed.database().pager().unwrap();
        let pool = pager.pool();
        (pool.max_resident(), pool.counters())
    };
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"storage\",\n  \"mode\": \"{mode}\",\n  \
         \"generated_by\": \"cargo run -p dbgpt-bench --release --bin bench_storage\",\n  \
         \"seed\": {SEED},\n  \"rows\": {},\n  \"page_size\": {},\n  \
         \"pool_pages\": {},\n  \"heap_pages\": {heap_pages},\n  \
         \"max_resident\": {max_resident},\n  \
         \"pool_counters\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"writebacks\": {}}},\n  \
         \"gates\": [\"heap >= 4x pool with max_resident <= pool_pages\", \
         \"paged results identical to in-memory per cell\"{}],\n  \
         \"workloads\": {{\n{wl_json}  }}\n}}\n",
        s.rows,
        s.page_size,
        s.pool_pages,
        counters.hits,
        counters.misses,
        counters.evictions,
        counters.writebacks,
        if mode == "smoke" {
            ""
        } else {
            ", \"btree range scan >= 5x paged full scan\""
        }
    );
    (json, paged, indexed)
}

pub fn run(smoke: bool, out_path: &str) {
    let (s, reps, mode) = if smoke {
        (
            Params {
                rows: 20_000,
                pool_pages: 32,
                page_size: 4096,
                range_lo: 10_000,
                range_hi: 10_299,
            },
            2u32,
            "smoke",
        )
    } else {
        (
            Params {
                rows: 300_000,
                pool_pages: 64,
                page_size: 4096,
                range_lo: 150_000,
                range_hi: 150_299,
            },
            3u32,
            "full",
        )
    };
    println!("BENCH storage ({mode})");
    println!(
        "  rows = {}, page_size = {}, pool_pages = {}, seed = {SEED}, best of {reps}",
        s.rows, s.page_size, s.pool_pages
    );

    // Determinism gate: two full deterministic passes must agree byte for
    // byte before anything is written.
    let t = Instant::now();
    let (json_a, _, _) = deterministic_pass(&s, mode);
    let (json_b, mut paged, mut indexed) = deterministic_pass(&s, mode);
    assert_eq!(json_a, json_b, "deterministic pass diverged between runs");
    println!(
        "  residency + equivalence + determinism gates passed in {:.1}s",
        t.elapsed().as_secs_f64()
    );

    // Timing phase (stdout only — never in the JSON).
    let range_sql = format!(
        "SELECT COUNT(*), SUM(v) FROM big WHERE ts BETWEEN {} AND {}",
        s.range_lo, s.range_hi
    );
    let full_ms = time_ms(&mut paged, &range_sql, reps);
    let idx_ms = time_ms(&mut indexed, &range_sql, reps);
    let speedup = full_ms / idx_ms;
    println!("\n  {:<22} {:>10} ", "range predicate on", "ms");
    println!("  {}", "-".repeat(34));
    println!("  {:<22} {:>10.3}", "paged full scan", full_ms);
    println!("  {:<22} {:>10.3}", "B+-tree index scan", idx_ms);
    println!("  speedup: {speedup:.1}x");
    if !smoke {
        assert!(
            speedup >= 5.0,
            "btree range speedup {speedup:.1}x below the 5x gate"
        );
        println!("  speedup gate passed: >= 5x");
    }

    fs::create_dir_all("results").ok();
    fs::write(out_path, json_a).expect("write results file");
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
            "results/BENCH_storage_smoke.json".to_string()
        } else {
            "results/BENCH_storage.json".to_string()
        }
    });
    run(smoke, &out_path);
}
