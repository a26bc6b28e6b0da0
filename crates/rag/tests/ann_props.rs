//! Property/regression tests for the ANN layer (ISSUE 8 satellite):
//! deterministic construction, full-beam exactness, bounded quantization
//! error, and a recall@10 floor across seeded corpora.

use proptest::prelude::*;
use std::sync::Arc;

use dbgpt_rag::hnsw::HnswConfig;
use dbgpt_rag::{
    dot, AnnBuildConfig, AnnStorage, Chunker, ChunkingStrategy, Embedder, Embedding, HashEmbedder,
    KnowledgeBase, QuantizedStore, RetrievalConfig, RetrievalStrategy, VectorStore,
};

/// Seeded synthetic corpus: same shape as the bench generator (topic
/// words + entity anchors) without depending on the bench crate.
fn corpus_texts(n: usize, seed: u64) -> Vec<String> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let topics = ["storage", "query", "serving", "agents", "retrieval"];
    let words = [
        "btree", "compaction", "optimizer", "join", "replica", "routing", "planner", "workflow",
        "embedding", "recall", "checkpoint", "latency", "cardinality", "operator", "ranking",
    ];
    (0..n)
        .map(|i| {
            let t = topics[i % topics.len()];
            let w1 = words[(next() % words.len() as u64) as usize];
            let w2 = words[(next() % words.len() as u64) as usize];
            let e1 = next() % 60;
            format!(
                "Incident {i} from team t{e1} in the {t} subsystem: \
                 {w1} interacts with {w2} under load. The {t} design \
                 tunes {w1} against {w2}."
            )
        })
        .collect()
}

fn store_over(texts: &[String]) -> (VectorStore, HashEmbedder) {
    let e = HashEmbedder::new();
    let mut s = VectorStore::new();
    for t in texts {
        s.add(e.embed(t));
    }
    (s, e)
}

/// Same seed ⇒ byte-identical graph (fingerprint covers levels, entry
/// point and every adjacency list) and identical search results; a
/// different seed reshuffles the level draw and (on any realistic
/// corpus) the structure.
#[test]
fn same_seed_construction_is_byte_identical() {
    let texts = corpus_texts(400, 11);
    for storage in [AnnStorage::F32, AnnStorage::Quantized] {
        let cfg = AnnBuildConfig {
            storage,
            ..AnnBuildConfig::default()
        };
        let (mut a, e) = store_over(&texts);
        let (mut b, _) = store_over(&texts);
        a.build_hnsw(cfg);
        b.build_hnsw(cfg);
        assert_eq!(
            a.hnsw_fingerprint(),
            b.hnsw_fingerprint(),
            "{storage:?}: same seed must build byte-identical indexes"
        );
        let q = e.embed("team t7 incident in the query subsystem");
        assert_eq!(a.search_hnsw(&q, 10), b.search_hnsw(&q, 10));
    }

    let (mut other_seed, _) = store_over(&texts);
    other_seed.build_hnsw(AnnBuildConfig {
        hnsw: HnswConfig {
            seed: 0xDEAD_BEEF,
            ..HnswConfig::default()
        },
        ..AnnBuildConfig::default()
    });
    let (mut base, _) = store_over(&texts);
    base.build_hnsw(AnnBuildConfig::default());
    assert_ne!(base.hnsw_fingerprint(), other_seed.hnsw_fingerprint());
}

/// With the beam opened to the full corpus, layer-0 search visits every
/// reachable node; on these seeded corpora the graph is fully connected,
/// so the ANN result equals the exact flat scan bit for bit (same ids,
/// same f32 scores — both paths are the same dot products).
#[test]
fn full_beam_search_equals_flat_scan() {
    for seed in [3u64, 17, 29] {
        let texts = corpus_texts(250, seed);
        let (mut s, e) = store_over(&texts);
        s.build_hnsw(AnnBuildConfig::default());
        let cfg = RetrievalConfig {
            ann_ef_search: texts.len(),
            ..RetrievalConfig::default()
        };
        for probe in ["btree compaction under load", "team t3 serving replica routing"] {
            let q = e.embed(probe);
            assert_eq!(
                s.search_hnsw_with(&q, 10, &cfg),
                s.search_flat(&q, 10),
                "seed {seed}, probe {probe:?}"
            );
        }
    }
}

/// recall@10 ≥ 0.95 against the exact flat scan across three seeded
/// corpora, on both storage backends (quantized with exact rescore).
#[test]
fn recall_at_10_floor_across_seeded_corpora() {
    for seed in [5u64, 23, 71] {
        let texts = corpus_texts(800, seed);
        for storage in [AnnStorage::F32, AnnStorage::Quantized] {
            let (mut s, e) = store_over(&texts);
            s.build_hnsw(AnnBuildConfig {
                storage,
                ..AnnBuildConfig::default()
            });
            let cfg = RetrievalConfig::default();
            let mut overlap = 0usize;
            let mut total = 0usize;
            for i in 0..25 {
                let q = e.embed(&format!(
                    "what did team t{} report about the {} subsystem?",
                    i * 2,
                    ["storage", "query", "serving"][i % 3]
                ));
                let exact: Vec<usize> =
                    s.search_flat(&q, 10).into_iter().map(|(id, _)| id).collect();
                let ann: Vec<usize> =
                    s.search_hnsw_with(&q, 10, &cfg).into_iter().map(|(id, _)| id).collect();
                overlap += ann.iter().filter(|id| exact.contains(id)).count();
                total += exact.len();
            }
            let recall = overlap as f64 / total as f64;
            assert!(
                recall >= 0.95,
                "seed {seed} {storage:?}: recall@10 = {recall:.3} < 0.95"
            );
        }
    }
}

/// The knowledge-base fingerprint must not see ANN index state, whatever
/// the ingest order or index timing (satellite: replicas converge when
/// one built an index and the other did not).
#[test]
fn kb_fingerprint_is_index_blind() {
    let texts = corpus_texts(30, 9);
    let build = |index_at: Option<usize>| {
        let mut kb = KnowledgeBase::new(
            Chunker::new(ChunkingStrategy::Paragraph { max_tokens: 64 }),
            Arc::new(HashEmbedder::new()),
        );
        for (i, t) in texts.iter().enumerate() {
            kb.add_text(&format!("doc-{i}"), t);
            if index_at == Some(i) {
                kb.build_hnsw_index(AnnBuildConfig::default());
            }
        }
        kb
    };
    let never = build(None);
    let early = build(Some(4));
    let late = build(Some(29));
    assert_eq!(never.fingerprint(), early.fingerprint());
    assert_eq!(never.fingerprint(), late.fingerprint());
    assert!(early.has_hnsw_index() && !never.has_hnsw_index());
    // VectorAnn answers on all three (index or flat fallback).
    for kb in [&never, &early, &late] {
        assert!(!kb
            .retrieve("incident in the storage subsystem", 3, RetrievalStrategy::VectorAnn)
            .is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Quantize → dequantize error is bounded by half a grid step per
    /// dimension, for arbitrary finite vectors.
    #[test]
    fn quantization_error_is_bounded(
        rows in proptest::collection::vec(
            proptest::collection::vec(-100.0f32..100.0, 16), 2..20)
    ) {
        let vectors: Vec<Embedding> = rows.into_iter().map(Embedding).collect();
        let q = QuantizedStore::fit(&vectors);
        for (i, v) in vectors.iter().enumerate() {
            let back = q.decode(i).expect("in range");
            for (d, (&a, &b)) in v.0.iter().zip(&back.0).enumerate() {
                prop_assert!(
                    (a - b).abs() <= q.max_error(d) + 1e-4,
                    "vector {} dim {}: {} vs {} (max err {})",
                    i, d, a, b, q.max_error(d)
                );
            }
        }
    }

    /// The LUT scorer equals the dot product against the dequantized
    /// vector (the LUT is exactly that sum, precomputed per dimension).
    #[test]
    fn lut_scores_match_dequantized_dot(
        rows in proptest::collection::vec(
            proptest::collection::vec(-10.0f32..10.0, 8), 2..12),
        probe in proptest::collection::vec(-10.0f32..10.0, 8)
    ) {
        let vectors: Vec<Embedding> = rows.into_iter().map(Embedding).collect();
        let q = QuantizedStore::fit(&vectors);
        let query = Embedding(probe).unit();
        let lut = q.lut(&query);
        for i in 0..q.len() {
            let fast = q.score(&lut, i);
            let slow = dot(&query, &q.decode(i).expect("in range"));
            prop_assert!((fast - slow).abs() < 1e-3, "vector {}: {} vs {}", i, fast, slow);
        }
    }
}
