//! Thread-sweep benchmark for the parallel sharded retrieval path (E5).
//!
//! Measures flat-scan retrieval throughput on the E5 synthetic corpus
//! three ways — the seed implementation (cosine with per-candidate norm
//! recomputation + full sort), the rebuilt single-thread hot path
//! (normalized eight-row kernel + heap top-k), and the sharded parallel
//! scan at 1/2/4/8 threads. A second sweep grows the corpus (2.5k → 80k
//! chunks in full mode) and times the sequential scan against the best
//! sharded one at each size; the smallest size from which sharding wins by
//! the gate margin at every larger size is the derived
//! `RetrievalConfig::topk_crossover`. Everything lands in
//! `results/BENCH_rag_parallel.json` so the perf trajectory is tracked
//! from PR to PR.
//!
//! ```text
//! cargo run -p dbgpt-bench --release --bin bench_rag_parallel            # full sweep, 2.5k–80k chunks
//! cargo run -p dbgpt-bench --release --bin bench_rag_parallel -- --smoke # tiny corpus, CI gate
//! ```
//!
//! Before timing anything, the run asserts at every corpus size that every
//! parallel configuration returns a hit list identical to the sequential
//! scan.

use std::fs;
use std::time::Instant;

use dbgpt_bench::{doc_queries, synthetic_corpus};
use dbgpt_rag::{
    cosine_similarity, Embedder, Embedding, HashEmbedder, RetrievalConfig, VectorStore,
};

/// Hits requested per query.
const K: usize = 10;

/// Thread counts swept.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Minimum multi-thread speedup over one thread that counts as a win:
/// the gate margin, and the bar a corpus size must clear to sit above the
/// derived crossover.
const MIN_SPEEDUP: f64 = 1.15;

/// Interleaved timing rounds per corpus size in the crossover sweep.
const SWEEP_ROUNDS: usize = 5;

/// Sharded config with `threads` workers and no crossover.
fn sharded(threads: usize) -> RetrievalConfig {
    RetrievalConfig {
        threads,
        topk_crossover: 0,
        ..RetrievalConfig::default()
    }
}

/// Assert every sharded configuration returns the sequential hit list,
/// bit for bit.
fn assert_parallel_matches_sequential(store: &VectorStore, queries: &[Embedding]) {
    for q in queries {
        let sequential = store.search_flat_with(q, K, &RetrievalConfig::SEQUENTIAL);
        for &threads in &THREAD_SWEEP {
            assert!(
                store.search_flat_with(q, K, &sharded(threads)) == sequential,
                "parallel hit lists diverged from sequential ({} chunks, {threads} threads)",
                store.len()
            );
        }
    }
}

/// Queries per second of `cfg` over `reps` passes of `queries`, after
/// one warm-up pass.
fn measure(store: &VectorStore, queries: &[Embedding], reps: usize, cfg: &RetrievalConfig) -> f64 {
    for q in queries {
        std::hint::black_box(store.search_flat_with(q, K, cfg));
    }
    let t = Instant::now();
    for _ in 0..reps {
        for q in queries {
            std::hint::black_box(store.search_flat_with(q, K, cfg));
        }
    }
    (reps * queries.len()) as f64 / t.elapsed().as_secs_f64()
}

/// The smallest swept size from which every larger swept size's best
/// multi-thread speedup clears [`MIN_SPEEDUP`]; `None` when the largest
/// size does not.
fn derived_crossover(sizes: &[(usize, f64)]) -> Option<usize> {
    let mut crossover = None;
    for &(chunks, speedup) in sizes.iter().rev() {
        if speedup < MIN_SPEEDUP {
            break;
        }
        crossover = Some(chunks);
    }
    crossover
}

/// The seed retrieval path, reproduced verbatim for the before/after
/// comparison: recompute both operand norms per candidate, collect every
/// score, sort everything, truncate.
fn seed_search_flat(vectors: &[Embedding], query: &Embedding, k: usize) -> Vec<(usize, f32)> {
    let mut hits: Vec<(usize, f32)> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (i, cosine_similarity(query, v)))
        .collect();
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    hits.truncate(k);
    hits
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_override = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone());
    let (n_docs, reps, mode) = if smoke {
        (300usize, 2usize, "smoke")
    } else {
        (5000usize, 20usize, "full")
    };
    // Corpus sizes of the crossover sweep; each one is a prefix of the
    // largest corpus.
    let sizes: &[usize] = if smoke {
        &[300, 600, 1200]
    } else {
        &[2_500, 5_000, 7_500, 10_000, 15_000, 20_000, 40_000, 80_000]
    };
    let out_path = out_override.unwrap_or_else(|| {
        if smoke {
            "results/BENCH_rag_parallel_smoke.json".to_string()
        } else {
            "results/BENCH_rag_parallel.json".to_string()
        }
    });

    let hardware = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("BENCH rag_parallel ({mode})");
    println!("  corpus: {n_docs} docs, k = {K}, reps = {reps}, hardware threads = {hardware}");

    // One chunk per synthetic doc: the corpus size is the chunk count.
    let max_docs = sizes.iter().copied().max().unwrap_or(n_docs).max(n_docs);
    let docs = synthetic_corpus(max_docs, 5);
    let embedder = HashEmbedder::new();
    let raw: Vec<Embedding> = docs.iter().map(|d| embedder.embed(&d.text)).collect();
    let store_of = |n: usize| {
        let mut store = VectorStore::new();
        for v in &raw[..n] {
            store.add(v.clone());
        }
        store
    };
    let store = store_of(n_docs);

    // Query mix: specific-document queries plus one topical query,
    // embedded once up front so the sweep times the scan, not the encoder.
    let mut queries: Vec<Embedding> = doc_queries(&docs[..n_docs], 40, 9)
        .into_iter()
        .map(|(_, q)| embedder.embed(&q))
        .collect();
    queries.push(embedder.embed("how does the embedding index affect recall and ranking?"));

    // Correctness gate before any timing: every parallel configuration
    // must return the sequential hit list, bit for bit.
    assert_parallel_matches_sequential(&store, &queries);

    let total_queries = (reps * queries.len()) as f64;

    // Seed baseline.
    let raw_docs = &raw[..n_docs];
    for q in &queries {
        std::hint::black_box(seed_search_flat(raw_docs, q, K));
    }
    let t = Instant::now();
    for _ in 0..reps {
        for q in &queries {
            std::hint::black_box(seed_search_flat(raw_docs, q, K));
        }
    }
    let seed_qps = total_queries / t.elapsed().as_secs_f64();

    let single_qps = measure(&store, &queries, reps, &RetrievalConfig::SEQUENTIAL);

    println!("\n  {:<26} | {:>10} | {:>10}", "configuration", "qps", "µs/query");
    println!("  {}", "-".repeat(52));
    println!("  {:<26} | {:>10.0} | {:>10.1}", "seed (cosine + sort)", seed_qps, 1e6 / seed_qps);
    println!(
        "  {:<26} | {:>10.0} | {:>10.1}",
        "kernel + heap, 1 thread", single_qps, 1e6 / single_qps
    );

    let mut one_thread_qps = single_qps;
    let mut sweep = Vec::new();
    for &threads in &THREAD_SWEEP {
        let qps = measure(&store, &queries, reps, &sharded(threads));
        if threads == 1 {
            one_thread_qps = qps;
        }
        let speedup = qps / one_thread_qps;
        println!(
            "  {:<26} | {:>10.0} | {:>10.1}",
            format!("sharded scan, {threads} thread(s)"),
            qps,
            1e6 / qps
        );
        sweep.push(serde_json::json!({
            "threads": threads,
            "qps": qps,
            "per_query_us": 1e6 / qps,
            "speedup_vs_1t": speedup,
        }));
    }

    // Crossover sweep: sequential vs the best sharded config per size.
    // Reps shrink with the corpus so every size costs about the same; the
    // configs are timed in interleaved rounds and each keeps its fastest
    // round, so a burst of outside load cannot favour one of them.
    println!(
        "\n  {:>8} | {:>12} | {:>12} | {:>8} | {:>7}",
        "chunks", "1 thread µs", "best µs", "threads", "speedup"
    );
    println!("  {}", "-".repeat(58));
    let mut size_rows = Vec::new();
    let mut size_speedups = Vec::new();
    for &n in sizes {
        let sized = store_of(n);
        assert_parallel_matches_sequential(&sized, &queries);
        let size_reps = (reps * n_docs / n / SWEEP_ROUNDS).max(1);
        let mut fastest = [0.0f64; THREAD_SWEEP.len()];
        for _ in 0..SWEEP_ROUNDS {
            for (best, &threads) in fastest.iter_mut().zip(&THREAD_SWEEP) {
                let cfg = if threads == 1 {
                    RetrievalConfig::SEQUENTIAL
                } else {
                    sharded(threads)
                };
                *best = best.max(measure(&sized, &queries, size_reps, &cfg));
            }
        }
        let seq = fastest[0];
        let (best_threads, best_qps) = THREAD_SWEEP
            .iter()
            .copied()
            .zip(fastest)
            .skip(1)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("the sweep has multi-thread configs");
        let speedup = best_qps / seq;
        println!(
            "  {:>8} | {:>12.1} | {:>12.1} | {:>8} | {:>6.2}x",
            n,
            1e6 / seq,
            1e6 / best_qps,
            best_threads,
            speedup
        );
        size_speedups.push((n, speedup));
        size_rows.push(serde_json::json!({
            "chunks": n,
            "reps": size_reps,
            "sequential_per_query_us": 1e6 / seq,
            "best_threads": best_threads,
            "best_per_query_us": 1e6 / best_qps,
            "speedup_vs_1t": speedup,
        }));
    }
    let crossover = derived_crossover(&size_speedups);
    let default_crossover = RetrievalConfig::default().topk_crossover;
    println!(
        "\n  derived crossover: {} (default topk_crossover = {default_crossover})",
        crossover.map_or("none in sweep".to_string(), |c| c.to_string())
    );

    // Multi-thread speedup gate, at the largest corpus of the crossover
    // sweep (sharding only runs above the crossover, so that is where it
    // has to pay). On a 1-hardware-thread host the sharded scan cannot
    // beat sequential no matter what the code does, so the gate
    // downgrades to informative there — and in smoke mode, where the
    // corpus sits below any realistic crossover. It is enforced only on a
    // full run with real parallel hardware.
    let best_multi = size_speedups.last().map_or(0.0, |&(_, s)| s);
    let gate_enforced = hardware > 1 && !smoke;
    if gate_enforced {
        assert!(
            best_multi >= MIN_SPEEDUP,
            "multi-thread sharded scan should beat 1 thread on {hardware}-thread \
             hardware at {} chunks (best speedup {best_multi:.2}x)",
            sizes.last().copied().unwrap_or(0)
        );
    } else if hardware == 1 {
        println!(
            "\n  note: 1 hardware thread — multi-thread speedup gate is informative \
             (best {best_multi:.2}x)"
        );
    }

    let json = serde_json::json!({
        "bench": "rag_parallel",
        "mode": mode,
        "speedup_gate": {
            "enforced": gate_enforced,
            "chunks": sizes.last().copied().unwrap_or(0),
            "best_multithread_speedup_vs_1t": best_multi,
            "reason": if hardware == 1 {
                "informative: only 1 hardware thread available"
            } else if smoke {
                "informative: smoke-size corpus"
            } else {
                "enforced: >= 1.15x required from some multi-thread config at the largest sweep size"
            },
        },
        "generated_by": "cargo run -p dbgpt-bench --release --bin bench_rag_parallel",
        "hardware_threads": hardware,
        "corpus_docs": n_docs,
        "chunks": store.len(),
        "dim": embedder.dim(),
        "k": K,
        "queries": queries.len(),
        "reps": reps,
        "parallel_matches_sequential": true,
        "seed_baseline": {
            "qps": seed_qps,
            "per_query_us": 1e6 / seed_qps,
        },
        "single_thread": {
            "qps": single_qps,
            "per_query_us": 1e6 / single_qps,
            "speedup_vs_seed": single_qps / seed_qps,
        },
        "threads": sweep,
        "crossover_sweep": {
            "min_speedup": MIN_SPEEDUP,
            "sizes": size_rows,
            "derived_crossover": crossover,
            "default_topk_crossover": default_crossover,
        },
    });
    fs::create_dir_all("results").ok();
    fs::write(
        &out_path,
        serde_json::to_string_pretty(&json).expect("serialize") + "\n",
    )
    .expect("write results file");
    println!("\n  single-thread speedup vs seed: {:.2}x", single_qps / seed_qps);
    println!("  wrote {out_path}");
}
