//! Paged-storage property tests.
//!
//! 1. **Page codec round-trip**: random rows survive tuple encode/decode
//!    and slotted-page insert/read bit-for-bit (including float bit
//!    patterns and NULLs).
//! 2. **Differential storage equivalence**: the same randomized DDL/DML/
//!    query corpus as `executor_props.rs` runs against two engines —
//!    index-free in-memory storage (the reference) and
//!    `StorageConfig::Paged`. Every statement must produce
//!    per-cell-identical results. The pool is sized far below the table
//!    footprint so the workload constantly evicts, and the corpus indexes
//!    on TEXT, INT and FLOAT columns route equality and range predicates
//!    through B+-trees on the paged arm.

mod common;

use common::{check, dml, query, seed_stmts, Rng, INDEXES};
use dbgpt_sqlengine::storage::page::{decode_row, encode_row, Page, PageType};
use dbgpt_sqlengine::{Engine, StorageConfig, Value};

fn random_value(rng: &mut Rng) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::Int(rng.next() as i64),
        2 => Value::Float(f64::from_bits(rng.next())),
        3 => Value::Bool(rng.pct(50)),
        4 => Value::Text(String::new()),
        _ => {
            let len = rng.below(40) as usize;
            let s: String = (0..len)
                .map(|_| char::from_u32(0x61 + (rng.below(26) as u32)).unwrap())
                .collect();
            Value::Text(s)
        }
    }
}

/// NaN-safe bitwise equality: the codec must preserve exact bits, which
/// `PartialEq` on floats can't check (NaN != NaN).
fn bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

#[test]
fn page_codec_round_trips_random_rows() {
    let mut rng = Rng::new(0xC0DEC);
    for _ in 0..200 {
        let row: Vec<Value> = (0..1 + rng.below(8)).map(|_| random_value(&mut rng)).collect();
        let enc = encode_row(&row);
        let dec = decode_row(&enc).unwrap();
        assert_eq!(dec.len(), row.len());
        assert!(
            row.iter().zip(&dec).all(|(a, b)| bits_eq(a, b)),
            "tuple codec mangled {row:?} -> {dec:?}"
        );
    }
    // Pack rows into a page until full, then read them all back in order.
    let mut page = Page::new(4096, PageType::Heap);
    let mut stored: Vec<Vec<Value>> = Vec::new();
    loop {
        let row: Vec<Value> = (0..1 + rng.below(5)).map(|_| random_value(&mut rng)).collect();
        let enc = encode_row(&row);
        if !page.can_fit(enc.len()) {
            break;
        }
        page.insert(&enc).unwrap();
        stored.push(row);
    }
    assert!(stored.len() > 1, "page too small for the corpus");
    // Round-trip the raw bytes through the checksum (write path).
    page.fill_checksum();
    let reloaded = Page::from_bytes(page.bytes().to_vec().into_boxed_slice(), 0).unwrap();
    let back: Vec<Vec<Value>> = reloaded
        .tuples()
        .map(|t| decode_row(t).unwrap())
        .collect();
    assert_eq!(back.len(), stored.len());
    for (a, b) in stored.iter().zip(&back) {
        assert!(a.iter().zip(b).all(|(x, y)| bits_eq(x, y)));
    }
}

#[test]
fn paged_storage_agrees_with_in_memory() {
    // Tiny pool + small pages: the 1500-row table spans far more pages
    // than the pool holds, so scans and index probes evict constantly.
    let paged = StorageConfig::paged(16, 512);
    for seed in [7, 42, 1234] {
        let mut rng = Rng::new(seed);
        let stmts = seed_stmts(&mut rng, 1500, 300);

        let mut reference = Engine::new();
        let mut paged_row = Engine::with_storage(paged);
        for s in &stmts {
            reference.execute(s).unwrap();
            paged_row.execute(s).unwrap();
        }
        // Range and equality predicates go through ordered index scans on
        // the paged arm while the reference full-scans.
        for s in INDEXES {
            paged_row.execute(s).unwrap();
        }

        let mut next_id = 2_000_000;
        for step in 0..220 {
            let sql = if step % 9 == 8 {
                dml(&mut rng, &mut next_id)
            } else {
                query(&mut rng)
            };
            let ctx = format!("seed {seed}, in-memory vs paged");
            check(&sql, &mut reference, &mut paged_row, &ctx);
        }
        // Final full-table sweeps: storage must agree exactly at the end.
        for sql in [
            "SELECT id, grp, v, f, b FROM t1",
            "SELECT id, t1_id, w, tag FROM t2",
        ] {
            check(sql, &mut reference, &mut paged_row, "final, paged");
        }

        // The whole workload ran with bounded memory: the pool never held
        // more frames than its capacity.
        let pager = paged_row.database().pager().expect("paged engine has a pager");
        let pool = pager.pool();
        assert!(
            pool.max_resident() <= pool.capacity(),
            "pool residency exceeded capacity: {} > {}",
            pool.max_resident(),
            pool.capacity()
        );
        assert!(pool.counters().evictions > 0, "workload never evicted");
    }
}

#[test]
fn paged_btree_range_scan_matches_full_scan() {
    // Deterministic spot-check that indexed range queries return exactly
    // the rows a sequential scan finds, across inclusive/exclusive/mixed
    // bounds and cross-type literals.
    let mut with_idx = Engine::with_storage(StorageConfig::paged(8, 256));
    let mut without = Engine::with_storage(StorageConfig::paged(8, 256));
    for e in [&mut with_idx, &mut without] {
        e.execute("CREATE TABLE r (k INT, s TEXT)").unwrap();
        let vals: Vec<String> = (0..500)
            .map(|i| format!("({}, 's{}')", (i * 37) % 1000, i))
            .collect();
        e.execute(&format!("INSERT INTO r VALUES {}", vals.join(", ")))
            .unwrap();
    }
    with_idx.execute("CREATE INDEX idx_k ON r (k)").unwrap();
    for sql in [
        "SELECT k, s FROM r WHERE k > 250 ORDER BY k, s",
        "SELECT k, s FROM r WHERE k >= 250 AND k < 750 ORDER BY k, s",
        "SELECT k, s FROM r WHERE k BETWEEN 100 AND 200 ORDER BY k, s",
        "SELECT k, s FROM r WHERE k = 370 ORDER BY s",
        "SELECT k, s FROM r WHERE k > 249.5 AND k <= 750.5 ORDER BY k, s",
        "SELECT k, s FROM r WHERE k = 370.0",
        "SELECT k, s FROM r WHERE k = 370.5",
        "SELECT k, s FROM r WHERE 600 < k ORDER BY k, s",
    ] {
        check(sql, &mut with_idx, &mut without, "btree range vs full scan");
    }
}
