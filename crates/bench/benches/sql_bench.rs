//! Experiment E4: SQL engine micro-benchmarks — scan/filter/join/aggregate
//! throughput and the optimizer ablation (rules on vs off). E22 reads the
//! `sort_limit`, `aggregate`, `distinct` and `global_sum` rows at 20k.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dbgpt_bench::orders_engine;
use dbgpt_sqlengine::plan::Optimizer;
use dbgpt_sqlengine::Engine;

fn bench_operators(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql_operators");
    let queries = [
        ("scan", "SELECT * FROM orders"),
        ("filter", "SELECT id FROM orders WHERE amount > 250"),
        (
            "aggregate",
            "SELECT category, SUM(amount), COUNT(*) FROM orders GROUP BY category",
        ),
        (
            "hash_join",
            "SELECT o.id, u.name FROM orders o JOIN users u ON o.user_id = u.id",
        ),
        (
            "sort_limit",
            "SELECT id FROM orders ORDER BY amount DESC LIMIT 10",
        ),
        ("distinct", "SELECT DISTINCT category FROM orders"),
        ("global_sum", "SELECT SUM(amount) FROM orders"),
    ];
    // 20k rows is the `orders` table perfbench's chat2data_analytics serves.
    for rows in [1_000usize, 10_000, 20_000] {
        let mut engine = orders_engine(rows, 7);
        for (name, sql) in queries {
            group.bench_with_input(
                BenchmarkId::new(name, rows),
                &rows,
                |b, _| b.iter(|| engine.execute(std::hint::black_box(sql)).unwrap()),
            );
        }
    }
    group.finish();
}

fn bench_optimizer_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql_optimizer_ablation");
    // A query where pushdown + pruning pay: selective filter over a join.
    let sql = "SELECT o.id FROM orders o JOIN users u ON o.user_id = u.id \
               WHERE o.amount > 400 AND u.city = 'city3'";
    let seed_engine = orders_engine(5_000, 7);
    for (label, optimizer) in [("optimized", Optimizer::new()), ("unoptimized", Optimizer::disabled())] {
        let mut engine = Engine::with_optimizer(optimizer);
        *engine.database_mut() = seed_engine.database().clone();
        group.bench_function(label, |b| {
            b.iter(|| engine.execute(std::hint::black_box(sql)).unwrap())
        });
    }
    group.finish();
}

fn bench_parse_and_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql_frontend");
    let sql = "SELECT category, SUM(amount) AS total FROM orders \
               WHERE amount > 10 GROUP BY category HAVING SUM(amount) > 100 \
               ORDER BY total DESC LIMIT 5";
    group.bench_function("parse", |b| {
        b.iter(|| dbgpt_sqlengine::parser::parse(std::hint::black_box(sql)).unwrap())
    });
    let engine = orders_engine(10, 7);
    group.bench_function("explain", |b| {
        b.iter(|| engine.explain(std::hint::black_box(sql)).unwrap())
    });
    group.finish();
}

fn bench_index_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql_index_ablation");
    // Point lookup on a text column: posting-list scan vs full scan.
    let sql = "SELECT id FROM orders WHERE category = 'tech'";
    for (label, indexed) in [("full_scan", false), ("hash_index", true)] {
        let mut engine = orders_engine(10_000, 7);
        if indexed {
            engine.execute("CREATE INDEX idx_cat ON orders (category)").unwrap();
        }
        group.bench_function(label, |b| {
            b.iter(|| engine.execute(std::hint::black_box(sql)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_operators,
    bench_optimizer_ablation,
    bench_parse_and_plan,
    bench_index_ablation
);
criterion_main!(benches);
