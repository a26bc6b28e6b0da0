//! Bit-identity of the retrieval indexes against reference algorithms.
//!
//! The graph index, BM25 and the flat vector scan score into dense arrays
//! and an eight-row dot kernel. This suite keeps the straightforward
//! map-based algorithms as a small reference and asserts that, over
//! seeded corpora and query mixes, every strategy returns the same ids
//! with the same score *bits* — including the awkward cases: CJK text,
//! repeated query terms, unknown entities, stop-word-only queries, k = 0,
//! k > n and zero vectors.

mod common;

use std::collections::HashSet;
use std::sync::Arc;

use common::{assert_bits_f64, assert_kb_matches_reference, ref_flat, RefBm25, RefGraph, Rng};
use dbgpt_rag::{
    dot, Chunker, ChunkingStrategy, Embedder, Embedding, GraphIndex, HashEmbedder, InvertedIndex,
    KnowledgeBase, RetrievalConfig, VectorStore,
};

// ---- seeded corpora --------------------------------------------------------

/// Content words (shared across documents so the graph gets dense),
/// stop words, and CJK fragments (single chars for BM25, bigrams for the
/// graph).
const WORDS: &[&str] = &[
    "database",
    "query",
    "index",
    "vector",
    "graph",
    "retrieval",
    "agent",
    "workflow",
    "schema",
    "revenue",
    "latency",
    "cluster",
    "replica",
    "privacy",
    "model",
    "token",
    "report",
    "chart",
    "sales",
    "orders",
    "Users",
    "SQL",
    "awel",
    "smmf",
    "rag",
    "kbqa",
];
const STOP: &[&str] = &["the", "of", "and", "is", "to", "what", "how", "with"];
const CJK: &[&str] = &["销售", "报表", "数据", "查询", "模型", "知识库"];
const UNKNOWN: &[&str] = &["zyzzyva", "quux", "未知词"];

fn sentence(rng: &mut Rng, words: usize) -> String {
    (0..words)
        .map(|_| match rng.below(10) {
            0..=5 => rng.pick(WORDS).to_string(),
            6 | 7 => rng.pick(STOP).to_string(),
            _ => rng.pick(CJK).to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn corpus(seed: u64, docs: usize) -> Vec<String> {
    let mut rng = Rng(seed);
    (0..docs)
        .map(|_| {
            let n = 1 + rng.below(24);
            sentence(&mut rng, n)
        })
        .collect()
}

/// Queries covering every edge case plus seeded random ones.
fn queries(seed: u64) -> Vec<String> {
    let mut rng = Rng(seed ^ 0xA5A5);
    let mut out: Vec<String> = vec![
        String::new(),
        "the of and".into(),
        "is what how".into(),
        "zyzzyva quux".into(),
        "未知词".into(),
        "database database database".into(),
        "sales sales report report".into(),
        "销售报表 数据".into(),
        "知识库 查询 模型".into(),
        "Database QUERY index".into(),
        "awel zyzzyva".into(),
        "sql".into(),
        "rag, kbqa; smmf!".into(),
    ];
    for _ in 0..40 {
        let n = 1 + rng.below(8);
        let mut q = sentence(&mut rng, n);
        if rng.below(4) == 0 {
            q.push(' ');
            q.push_str(rng.pick(UNKNOWN));
        }
        out.push(q);
    }
    out
}

fn ks(n: usize) -> [usize; 5] {
    [0, 1, 4, 9, n + 5]
}

fn assert_bits_f32(got: &[(usize, f32)], want: &[(usize, f32)], what: &str) {
    let got: Vec<(usize, u32)> = got.iter().map(|&(i, s)| (i, s.to_bits())).collect();
    let want: Vec<(usize, u32)> = want.iter().map(|&(i, s)| (i, s.to_bits())).collect();
    assert_eq!(got, want, "{what}");
}

// ---- tests -------------------------------------------------------------------

#[test]
fn graph_index_matches_reference() {
    for seed in [1u64, 2, 3] {
        let texts = corpus(seed, 300);
        let mut graph = GraphIndex::new();
        let mut reference = RefGraph::default();
        for t in &texts {
            graph.add(t);
            reference.add(t);
        }
        assert_eq!(graph.len(), reference.chunk_count);
        assert_eq!(graph.node_count(), reference.entity_chunks.len());
        assert_eq!(
            graph.edge_count(),
            reference.edges.values().map(HashSet::len).sum::<usize>() / 2
        );
        for e in WORDS
            .iter()
            .chain(CJK)
            .chain(UNKNOWN)
            .chain(["SALES", "售报"].iter())
        {
            assert_eq!(
                graph.neighbours(e),
                reference.neighbours(e),
                "neighbours of {e}"
            );
        }
        for q in queries(seed) {
            for k in ks(texts.len()) {
                assert_bits_f64(
                    &graph.search(&q, k),
                    &reference.search(&q, k),
                    &format!("graph seed={seed} q={q:?} k={k}"),
                );
            }
        }
    }
}

#[test]
fn bm25_matches_reference() {
    for seed in [4u64, 5, 6] {
        let texts = corpus(seed, 300);
        let mut idx = InvertedIndex::new();
        let mut reference = RefBm25::default();
        for t in &texts {
            idx.add(t);
            reference.add(t);
        }
        assert_eq!(idx.vocabulary_size(), reference.postings.len());
        for (term, postings) in &reference.postings {
            assert_eq!(idx.doc_freq(term), postings.len(), "df of {term}");
        }
        for q in queries(seed) {
            for k in ks(texts.len()) {
                assert_bits_f64(
                    &idx.search(&q, k),
                    &reference.search(&q, k),
                    &format!("bm25 seed={seed} q={q:?} k={k}"),
                );
            }
        }
    }
}

#[test]
fn empty_indexes_match_reference() {
    for q in queries(0) {
        assert_eq!(
            GraphIndex::new().search(&q, 3),
            RefGraph::default().search(&q, 3)
        );
        assert_eq!(
            InvertedIndex::new().search(&q, 3),
            RefBm25::default().search(&q, 3)
        );
        assert!(VectorStore::new()
            .search_flat(&HashEmbedder::new().embed(&q), 3)
            .is_empty());
    }
}

/// A store of seeded text embeddings plus degenerate rows: an all-zero
/// row, a row of negative zeros, and one whose products with a
/// negative-orthant query are all `-0.0`.
fn vector_store(seed: u64, n: usize) -> (VectorStore, HashEmbedder) {
    let embedder = HashEmbedder::new();
    let mut store = VectorStore::new();
    for (i, t) in corpus(seed, n).iter().enumerate() {
        match i % 97 {
            13 => store.add(Embedding(vec![0.0; embedder.dim()])),
            14 => store.add(Embedding(vec![-0.0; embedder.dim()])),
            _ => store.add(embedder.embed(t)),
        };
    }
    (store, embedder)
}

fn vector_queries(seed: u64, embedder: &HashEmbedder) -> Vec<Embedding> {
    let dim = embedder.dim();
    let mut out: Vec<Embedding> = queries(seed).iter().map(|q| embedder.embed(q)).collect();
    out.push(Embedding(vec![0.0; dim]));
    out.push(Embedding(vec![-1.0; dim]));
    out.push(Embedding(vec![1.0; dim]));
    out
}

#[test]
fn flat_scan_matches_reference_sequential_and_sharded() {
    for seed in [7u64, 8] {
        // 1003 rows: not a multiple of eight, so every shard has a tail.
        let (store, embedder) = vector_store(seed, 1003);
        let configs = [
            RetrievalConfig::SEQUENTIAL,
            RetrievalConfig::default(),
            RetrievalConfig {
                threads: 2,
                topk_crossover: 0,
                ..RetrievalConfig::default()
            },
            RetrievalConfig {
                threads: 3,
                topk_crossover: 0,
                ..RetrievalConfig::default()
            },
            RetrievalConfig {
                threads: 8,
                topk_crossover: 0,
                ..RetrievalConfig::default()
            },
        ];
        for q in vector_queries(seed, &embedder) {
            for k in ks(store.len()) {
                let want = ref_flat(&store, &q, k);
                for cfg in &configs {
                    assert_bits_f32(
                        &store.search_flat_with(&q, k, cfg),
                        &want,
                        &format!("flat seed={seed} k={k} threads={}", cfg.threads),
                    );
                }
            }
        }
    }
}

#[test]
fn kernel_matches_dot_bitwise_including_zero_rows() {
    let (store, embedder) = vector_store(9, 203);
    for q in vector_queries(9, &embedder) {
        let unit = q.unit();
        // k = n: every stored row comes back with its kernel score.
        let hits = store.search_flat_with(&q, store.len(), &RetrievalConfig::SEQUENTIAL);
        assert_eq!(hits.len(), store.len());
        for (id, score) in hits {
            let want = dot(&unit, store.get(id).unwrap());
            assert_eq!(
                score.to_bits(),
                want.to_bits(),
                "row {id}: {score} vs {want}"
            );
        }
    }
    // The sum identity shows on a row whose every product is -0.0: a
    // kernel starting from +0.0 would return +0.0 here.
    let mut store = VectorStore::new();
    for _ in 0..16 {
        store.add(Embedding(vec![0.0; 8]));
    }
    let q = Embedding(vec![-1.0; 8]);
    let want = dot(&q.unit(), store.get(0).unwrap());
    for (_, score) in store.search_flat_with(&q, 16, &RetrievalConfig::SEQUENTIAL) {
        assert_eq!(score.to_bits(), want.to_bits());
    }
}

#[test]
fn ivf_probe_scores_match_dot_and_shard_identically() {
    let (mut store, embedder) = vector_store(10, 1200);
    store.build_partitions(12);
    let parallel = RetrievalConfig {
        threads: 3,
        topk_crossover: 0,
        ..RetrievalConfig::default()
    };
    for q in vector_queries(10, &embedder) {
        let unit = q.unit();
        for k in [1, 4, 9] {
            let seq = store.search_ivf_with(&q, k, 3, &RetrievalConfig::SEQUENTIAL);
            assert_bits_f32(
                &store.search_ivf_with(&q, k, 3, &parallel),
                &seq,
                "ivf shards",
            );
            for (id, score) in seq {
                let want = dot(&unit, store.get(id).unwrap());
                assert_eq!(score.to_bits(), want.to_bits(), "ivf row {id}");
            }
        }
    }
}

#[test]
fn knowledge_base_strategies_match_reference() {
    for seed in [11u64, 12] {
        let embedder = HashEmbedder::new();
        let mut kb = KnowledgeBase::new(
            Chunker::new(ChunkingStrategy::Paragraph { max_tokens: 12 }),
            Arc::new(embedder.clone()),
        );
        let docs = corpus(seed, 150);
        for (i, t) in docs.iter().enumerate() {
            kb.add_text(&format!("d{i}"), t);
        }
        let doc_ids: Vec<String> = (0..docs.len()).map(|i| format!("d{i}")).collect();
        assert_kb_matches_reference(
            &kb,
            &doc_ids,
            &embedder,
            InvertedIndex::terms,
            GraphIndex::entities,
            &queries(seed),
            &format!("seed={seed}"),
        );
    }
}
