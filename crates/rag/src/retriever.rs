//! Knowledge retrieval stage: strategy selection and rank fusion.
//!
//! "DB-GPT employs diverse retrieval strategies for prioritizing relevant
//! documents" (§2.3). Four strategies are exposed; `Hybrid` fuses the
//! other three with reciprocal-rank fusion (RRF), the standard way to
//! combine rankings whose raw scores are not comparable.

use serde::{Deserialize, Serialize};

use crate::topk::TopK;

/// RRF smoothing constant (the conventional value).
const RRF_K: f64 = 60.0;

/// Tuning knobs for the sharded retrieval scan.
///
/// Threaded through [`KnowledgeBase`](crate::KnowledgeBase) so existing
/// `retrieve`/`retrieve_reranked` callers pick up the parallel path with
/// no code changes. Parallel and sequential scans return *identical* hit
/// lists (the top-k order is a strict total order, so shard merge order
/// cannot matter); the config only trades wall-clock for threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrievalConfig {
    /// Worker threads for index scans. `0` means use
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Stores smaller than this are scanned sequentially — below the
    /// crossover, thread spawn/merge overhead outweighs the shard win.
    pub topk_crossover: usize,
    /// HNSW beam width at search time (`ef_search`). Wider beams raise
    /// recall and cost; the effective beam is always at least `k`.
    pub ann_ef_search: usize,
    /// When the ANN index scores through the scalar-quantized codes, the
    /// top `ann_rescore` candidates are re-scored against the exact f32
    /// vectors before the final top-k cut. `0` disables rescoring (raw
    /// quantized scores are returned). Ignored on the f32 backend.
    pub ann_rescore: usize,
}

/// Default HNSW search beam width.
const DEFAULT_ANN_EF_SEARCH: usize = 100;
/// Default exact-rescore depth over quantized candidates.
const DEFAULT_ANN_RESCORE: usize = 64;
/// Default store size from which flat scans shard across threads: the
/// smallest corpus at which `bench_rag_parallel`'s crossover sweep saw
/// the sharded eight-row-kernel scan beat one thread by ≥1.15× at that
/// size and every larger one (2-vCPU host; see
/// `results/BENCH_rag_parallel.json`). Smaller scans finish before
/// spawning workers pays off.
const DEFAULT_TOPK_CROSSOVER: usize = 10_000;

impl Default for RetrievalConfig {
    fn default() -> Self {
        RetrievalConfig {
            threads: 0,
            topk_crossover: DEFAULT_TOPK_CROSSOVER,
            ann_ef_search: DEFAULT_ANN_EF_SEARCH,
            ann_rescore: DEFAULT_ANN_RESCORE,
        }
    }
}

impl RetrievalConfig {
    /// Always scan on the calling thread, whatever the store size.
    pub const SEQUENTIAL: RetrievalConfig = RetrievalConfig {
        threads: 1,
        topk_crossover: usize::MAX,
        ann_ef_search: DEFAULT_ANN_EF_SEARCH,
        ann_rescore: DEFAULT_ANN_RESCORE,
    };

    /// Config with an explicit thread count (`0` = auto) and the default
    /// crossover.
    pub fn with_threads(threads: usize) -> Self {
        RetrievalConfig {
            threads,
            ..RetrievalConfig::default()
        }
    }

    /// Number of workers a scan over `n` candidates should use, after
    /// applying the crossover threshold, auto-detection, and the obvious
    /// `1 ≤ workers ≤ n` clamp.
    pub fn effective_threads(&self, n: usize) -> usize {
        if n < self.topk_crossover.max(2) {
            return 1;
        }
        let requested = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        requested.clamp(1, n)
    }
}

/// Which index answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RetrievalStrategy {
    /// Cosine similarity over embeddings (exact flat search).
    Vector,
    /// Approximate vector search through IVF partitions.
    VectorApprox,
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
        RetrievalStrategy::VectorApprox,
        RetrievalStrategy::VectorAnn,
        RetrievalStrategy::Keyword,
        RetrievalStrategy::Graph,
        RetrievalStrategy::Hybrid,
    ];

    /// Short display name (benchmark tables).
    pub fn name(&self) -> &'static str {
        match self {
            RetrievalStrategy::Vector => "vector",
            RetrievalStrategy::VectorApprox => "vector-ivf",
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
        assert_eq!(c.threads, 0);
        assert!(c.topk_crossover > 0);
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<RetrievalConfig>(&json).unwrap(), c);
    }

    #[test]
    fn effective_threads_respects_crossover_and_clamp() {
        let seq = RetrievalConfig::SEQUENTIAL;
        assert_eq!(seq.effective_threads(1_000_000), 1);

        let four = RetrievalConfig {
            threads: 4,
            topk_crossover: 100,
            ..RetrievalConfig::default()
        };
        assert_eq!(four.effective_threads(50), 1, "below crossover");
        assert_eq!(four.effective_threads(500), 4, "above crossover");
        assert_eq!(
            RetrievalConfig {
                threads: 64,
                topk_crossover: 0,
                ..RetrievalConfig::default()
            }
            .effective_threads(3),
            3,
            "never more workers than candidates"
        );

        // Auto detection always lands on something usable.
        let auto = RetrievalConfig::with_threads(0);
        let t = auto.effective_threads(1_000_000);
        assert!(t >= 1);
    }
}
