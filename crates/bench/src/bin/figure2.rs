//! Regenerate **Figure 2**: the RAG architecture, stage by stage.
//!
//! Walks knowledge construction → retrieval → adaptive ICL on a synthetic
//! corpus, then sweeps every retrieval strategy reporting recall@k and
//! per-query latency — the quantitative behaviour behind the figure.
//!
//! ```text
//! cargo run -p dbgpt-bench --bin figure2 --release
//! ```

use std::time::Instant;

use dbgpt_bench::{corpus_kb, corpus_queries, recall_at_k, synthetic_corpus};
use dbgpt_llm::{builtin_model, GenerationParams};
use dbgpt_rag::{IclBuilder, RetrievalStrategy};

const CORPUS_SIZE: usize = 500;
const K: usize = 5;

fn main() {
    println!("Figure 2: The RAG architecture in DB-GPT");
    println!("========================================\n");

    // Stage 1: knowledge construction.
    let docs = synthetic_corpus(CORPUS_SIZE, 42);
    let t = Instant::now();
    let kb = corpus_kb(&docs);
    println!("Stage 1 — knowledge construction");
    println!("  documents: {CORPUS_SIZE}, chunks: {}, build: {:.2?}", kb.chunk_count(), t.elapsed());
    println!("  indexes: vector (flat + HNSW), inverted (BM25), entity graph\n");

    // Stage 2a: topic-level recall (the easy task — saturates quickly).
    println!("Stage 2a — topic recall@{K} over {} queries", corpus_queries().len());
    println!("  {:<12} | {:>9} | {:>12}", "strategy", "recall", "µs/query");
    println!("  {}", "-".repeat(40));
    for &strategy in RetrievalStrategy::ALL {
        let start = Instant::now();
        const REPS: usize = 20;
        let mut recall = 0.0;
        for _ in 0..REPS {
            recall = recall_at_k(&kb, &docs, strategy, K);
        }
        let per_query =
            start.elapsed().as_micros() as f64 / (REPS * corpus_queries().len()) as f64;
        println!("  {:<12} | {:>8.0}% | {:>12.1}", strategy.name(), recall * 100.0, per_query);
    }

    // Stage 2b: specific-document retrieval (the hard task).
    let queries = dbgpt_bench::doc_queries(&docs, 60, 9);
    println!("\nStage 2b — specific-document hit@k over {} queries", queries.len());
    println!("  {:<12} | {:>7} | {:>7} | {:>7}", "strategy", "hit@1", "hit@3", "hit@5");
    println!("  {}", "-".repeat(44));
    for &strategy in RetrievalStrategy::ALL {
        let h1 = dbgpt_bench::hit_at_k(&kb, &queries, strategy, 1);
        let h3 = dbgpt_bench::hit_at_k(&kb, &queries, strategy, 3);
        let h5 = dbgpt_bench::hit_at_k(&kb, &queries, strategy, 5);
        println!(
            "  {:<12} | {:>6.0}% | {:>6.0}% | {:>6.0}%",
            strategy.name(),
            h1 * 100.0,
            h3 * 100.0,
            h5 * 100.0
        );
    }

    // Stage 3: adaptive ICL.
    println!("\nStage 3 — adaptive ICL");
    let question = "how does the embedding index affect recall in retrieval?";
    let hits = kb.retrieve(question, K, RetrievalStrategy::Hybrid);
    let (prompt, used) = IclBuilder::new(512).build(question, &hits).expect("budget fits");
    println!("  retrieved {} chunks, packed {used} into a 512-token prompt", hits.len());
    let model = builtin_model("sim-qwen").expect("builtin");
    let answer = model.generate(&prompt, &GenerationParams::default()).expect("generates");
    println!("  model answer: {}", answer.text.lines().next().unwrap_or(""));
    println!(
        "  usage: {} prompt + {} completion tokens",
        answer.usage.prompt_tokens, answer.usage.completion_tokens
    );
}
