//! Knowledge retrieval stage: strategy selection and rank fusion.
//!
//! "DB-GPT employs diverse retrieval strategies for prioritizing relevant
//! documents" (§2.3). Five strategies are exposed: exact vector search,
//! approximate (HNSW) vector search, keyword, graph, and `Hybrid`, which
//! fuses exact vector, keyword and graph rankings with reciprocal-rank
//! fusion (RRF), the standard way to combine rankings whose raw scores
//! are not comparable.

use serde::{Deserialize, Serialize};

use crate::topk::TopK;

/// RRF smoothing constant (the conventional value).
const RRF_K: f64 = 60.0;

/// Search knobs for the HNSW index behind
/// [`RetrievalStrategy::VectorAnn`]. The exact strategies ignore them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrievalConfig {
    /// HNSW beam width at search time (`ef_search`). Wider beams raise
    /// recall and cost; the effective beam is always at least `k`.
    pub ann_ef_search: usize,
    /// When the ANN index scores through the scalar-quantized codes, the
    /// top `ann_rescore` candidates are re-scored against the exact f32
    /// vectors before the final top-k cut. `0` disables rescoring (raw
    /// quantized scores are returned). Ignored on the f32 backend.
    pub ann_rescore: usize,
}

impl Default for RetrievalConfig {
    fn default() -> Self {
        RetrievalConfig {
            ann_ef_search: 100,
            ann_rescore: 64,
        }
    }
}

/// Which index answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RetrievalStrategy {
    /// Cosine similarity over embeddings (exact flat search).
    Vector,
    /// Approximate vector search through the HNSW graph index (falls back
    /// to the exact flat scan until the index is built).
    VectorAnn,
    /// BM25 over the inverted index.
    Keyword,
    /// Entity-graph expansion.
    Graph,
    /// Reciprocal-rank fusion of Vector + Keyword + Graph.
    Hybrid,
}

impl RetrievalStrategy {
    /// All strategies, for sweeps in benchmarks.
    pub const ALL: &'static [RetrievalStrategy] = &[
        RetrievalStrategy::Vector,
        RetrievalStrategy::VectorAnn,
        RetrievalStrategy::Keyword,
        RetrievalStrategy::Graph,
        RetrievalStrategy::Hybrid,
    ];

    /// Short display name (benchmark tables).
    pub fn name(&self) -> &'static str {
        match self {
            RetrievalStrategy::Vector => "vector",
            RetrievalStrategy::VectorAnn => "vector-hnsw",
            RetrievalStrategy::Keyword => "keyword",
            RetrievalStrategy::Graph => "graph",
            RetrievalStrategy::Hybrid => "hybrid",
        }
    }
}

/// Fuse several rankings (each a list of ids, best first) with RRF.
/// Returns `(id, fused score)` sorted best-first, ties by id.
pub fn reciprocal_rank_fusion(rankings: &[Vec<usize>], k: usize) -> Vec<(usize, f64)> {
    use std::collections::HashMap;
    let mut scores: HashMap<usize, f64> = HashMap::new();
    for ranking in rankings {
        for (rank, &id) in ranking.iter().enumerate() {
            *scores.entry(id).or_insert(0.0) += 1.0 / (RRF_K + rank as f64 + 1.0);
        }
    }
    let mut top = TopK::new(k);
    for (id, score) in scores {
        top.push(id, score);
    }
    top.into_sorted_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        use std::collections::HashSet;
        let names: HashSet<&str> = RetrievalStrategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), RetrievalStrategy::ALL.len());
    }

    #[test]
    fn rrf_prefers_items_ranked_high_everywhere() {
        let rankings = vec![vec![1, 2, 3], vec![1, 3, 2], vec![2, 1, 3]];
        let fused = reciprocal_rank_fusion(&rankings, 3);
        assert_eq!(fused[0].0, 1);
    }

    #[test]
    fn rrf_consensus_beats_single_top() {
        // Item 9 is #1 in one list; item 5 is #2 in all three.
        let rankings = vec![vec![9, 5], vec![7, 5], vec![8, 5]];
        let fused = reciprocal_rank_fusion(&rankings, 4);
        assert_eq!(fused[0].0, 5);
    }

    #[test]
    fn rrf_truncates_and_breaks_ties_by_id() {
        let rankings = vec![vec![4], vec![2]];
        let fused = reciprocal_rank_fusion(&rankings, 5);
        assert_eq!(fused.len(), 2);
        assert_eq!(fused[0].0, 2); // same score; lower id first
    }

    #[test]
    fn rrf_empty_input() {
        assert!(reciprocal_rank_fusion(&[], 5).is_empty());
        assert!(reciprocal_rank_fusion(&[vec![]], 5).is_empty());
    }

    #[test]
    fn strategy_serde() {
        let s = RetrievalStrategy::Hybrid;
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<RetrievalStrategy>(&json).unwrap(), s);
    }

    #[test]
    fn config_defaults_and_serde() {
        let c = RetrievalConfig::default();
        assert_eq!((c.ann_ef_search, c.ann_rescore), (100, 64));
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<RetrievalConfig>(&json).unwrap(), c);
    }
}
