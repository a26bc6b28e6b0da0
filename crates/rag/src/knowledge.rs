//! The knowledge base: construction + retrieval under one roof.
//!
//! Ties the whole of Figure 2 together: documents enter, are chunked, and
//! every chunk is indexed into the vector store, the inverted index and the
//! graph index simultaneously; queries leave through a selectable
//! [`RetrievalStrategy`].

use std::collections::HashMap;
use std::sync::Arc;

use dbgpt_obs::hash::Fnv1a;
use dbgpt_obs::metrics::COUNT_BUCKETS;
use dbgpt_obs::{Obs, Span};

use crate::chunker::{Chunk, Chunker, ChunkingStrategy};
use crate::document::Document;
use crate::embedding::{Embedder, HashEmbedder};
use crate::error::RagError;
use crate::graph::GraphIndex;
use crate::inverted::InvertedIndex;
use crate::retriever::{reciprocal_rank_fusion, RetrievalConfig, RetrievalStrategy};
use crate::vector_store::{AnnBuildConfig, VectorStore};

/// A retrieval result.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievedChunk {
    /// The chunk.
    pub chunk: Chunk,
    /// Strategy-specific relevance score (higher is better). Scores are
    /// comparable within one strategy, not across strategies.
    pub score: f64,
}

/// Target number of chunks per IVF partition: `build_ann_index` sizes the
/// partition count as `chunks / CHUNKS_PER_IVF_LIST` (clamped to
/// `[1, MAX_IVF_LISTS]`). The old name `IVF_LIST_RATIO` described it
/// backwards — the value is a divisor (chunks per list), not a
/// lists-per-chunks ratio.
const CHUNKS_PER_IVF_LIST: usize = 100;

/// Upper bound on IVF partitions, whatever the corpus size.
const MAX_IVF_LISTS: usize = 64;

/// Partition count for a corpus of `chunks` chunks (see
/// [`CHUNKS_PER_IVF_LIST`]).
fn ivf_nlist(chunks: usize) -> usize {
    (chunks / CHUNKS_PER_IVF_LIST).clamp(1, MAX_IVF_LISTS)
}

/// The knowledge base (see module docs).
pub struct KnowledgeBase {
    chunker: Chunker,
    embedder: Arc<dyn Embedder>,
    chunks: Vec<Chunk>,
    vectors: VectorStore,
    inverted: InvertedIndex,
    graph: GraphIndex,
    documents: HashMap<String, usize>, // id → chunk count
    /// Scan tuning for every retrieval; defaults to auto-parallel above
    /// the crossover size, so existing callers speed up with no changes.
    config: RetrievalConfig,
    /// Tracing + metrics handle; disabled (free) by default. Retrieval has
    /// no simulated clock, so spans are timestamped with [`Obs::tick`]
    /// logical ticks — still byte-identical across identical runs.
    obs: Obs,
}

impl KnowledgeBase {
    /// Knowledge base with paragraph chunking and the hash embedder.
    pub fn with_defaults() -> Self {
        KnowledgeBase::new(
            Chunker::new(ChunkingStrategy::default()),
            Arc::new(HashEmbedder::new()),
        )
    }

    /// Fully custom construction.
    pub fn new(chunker: Chunker, embedder: Arc<dyn Embedder>) -> Self {
        KnowledgeBase {
            chunker,
            embedder,
            chunks: Vec::new(),
            vectors: VectorStore::new(),
            inverted: InvertedIndex::new(),
            graph: GraphIndex::new(),
            documents: HashMap::new(),
            config: RetrievalConfig::default(),
            obs: Obs::disabled(),
        }
    }

    /// Override the retrieval scan tuning, builder style.
    pub fn with_retrieval_config(mut self, config: RetrievalConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach an observability handle, builder style.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attach an observability handle in place (e.g. to share one [`Obs`]
    /// across the serving path and the knowledge base).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The observability handle (disabled unless one was attached).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Override the retrieval scan tuning in place.
    pub fn set_retrieval_config(&mut self, config: RetrievalConfig) {
        self.config = config;
    }

    /// The retrieval scan tuning currently in effect.
    pub fn retrieval_config(&self) -> RetrievalConfig {
        self.config
    }

    /// Order-sensitive FNV-1a digest of the ingested corpus: chunk texts
    /// in ingestion order plus the document table (sorted by id). Two
    /// knowledge bases that applied the same ingest operations in the same
    /// order have equal fingerprints, which is what the cluster layer uses
    /// to prove a replica's KB shard matches its primary after failover.
    ///
    /// Deliberately **independent of index state**: IVF partitions, the
    /// HNSW graph and the quantized codes are derived data, so a replica
    /// that built an ANN index and one that did not still converge.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut eat = |bytes: &[u8]| {
            h.write(bytes);
            h.write_u8(0xff);
        };
        for chunk in &self.chunks {
            eat(chunk.document_id.as_bytes());
            eat(&chunk.index.to_le_bytes());
            eat(chunk.text.as_bytes());
        }
        let mut ids: Vec<(&String, &usize)> = self.documents.iter().collect();
        ids.sort();
        for (id, n) in ids {
            eat(id.as_bytes());
            eat(&n.to_le_bytes());
        }
        h.finish()
    }

    /// Ingest a document into all three indexes. Returns chunks created.
    ///
    /// Ingest never builds the HNSW index; once
    /// [`KnowledgeBase::build_hnsw_index`] has, new chunks are inserted
    /// into it.
    pub fn add_document(&mut self, doc: Document) -> Result<usize, RagError> {
        if self.documents.contains_key(&doc.id) {
            return Err(RagError::DuplicateDocument(doc.id));
        }
        if doc.is_empty() {
            return Err(RagError::EmptyDocument(doc.id));
        }
        let chunks = self.chunker.chunk(&doc);
        let n = chunks.len();
        for chunk in chunks {
            // `VectorStore::add` inserts into a built HNSW index
            // incrementally, so ANN retrieval stays live through ingest.
            let vid = self.vectors.add(self.embedder.embed(&chunk.text));
            let iid = self.inverted.add(&chunk.text);
            let gid = self.graph.add(&chunk.text);
            debug_assert_eq!(vid, iid);
            debug_assert_eq!(vid, gid);
            debug_assert_eq!(vid, self.chunks.len());
            self.chunks.push(chunk);
        }
        self.documents.insert(doc.id, n);
        Ok(n)
    }

    /// Convenience: ingest plain text.
    pub fn add_text(&mut self, id: &str, text: &str) -> usize {
        self.add_document(Document::from_text(id, text)).unwrap_or(0)
    }

    /// Total chunks indexed.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Documents ingested.
    pub fn document_count(&self) -> usize {
        self.documents.len()
    }

    /// All chunks of one document, in order.
    pub fn document_chunks(&self, id: &str) -> Vec<&Chunk> {
        self.chunks.iter().filter(|c| c.document_id == id).collect()
    }

    /// Build IVF partitions for approximate vector search (idempotent;
    /// call after bulk ingestion).
    pub fn build_ann_index(&mut self) {
        self.vectors.build_partitions(ivf_nlist(self.chunks.len()));
    }

    /// Build the HNSW graph index (and, with
    /// [`AnnStorage::Quantized`](crate::vector_store::AnnStorage), the
    /// scalar-quantized mirror) for [`RetrievalStrategy::VectorAnn`].
    /// Idempotent; later `add_document` calls insert into the built index
    /// incrementally. The index is *derived data*: it never contributes
    /// to [`KnowledgeBase::fingerprint`], so replicas that did and did not
    /// build it still converge.
    pub fn build_hnsw_index(&mut self, config: AnnBuildConfig) {
        self.vectors.build_hnsw(config);
    }

    /// Is the HNSW index currently built?
    pub fn has_hnsw_index(&self) -> bool {
        self.vectors.has_hnsw()
    }

    /// The underlying vector store (read-only; for diagnostics and
    /// benches that need index fingerprints or memory accounting).
    pub fn vector_store(&self) -> &VectorStore {
        &self.vectors
    }

    /// Retrieve with a second-stage rerank: fetch `3k` candidates under
    /// `strategy`, then let the lexical cross-scorer pick the top `k`.
    pub fn retrieve_reranked(
        &self,
        query: &str,
        k: usize,
        strategy: RetrievalStrategy,
    ) -> Vec<RetrievedChunk> {
        self.retrieve_reranked_under(query, k, strategy, &Span::noop())
    }

    /// Retrieve the top-k chunks for a query under a strategy.
    pub fn retrieve(
        &self,
        query: &str,
        k: usize,
        strategy: RetrievalStrategy,
    ) -> Vec<RetrievedChunk> {
        self.retrieve_under(query, k, strategy, &Span::noop())
    }

    /// [`KnowledgeBase::retrieve`] under a caller span: the `rag.retrieve`
    /// span joins `parent`'s trace when the parent is recording, else it
    /// roots on this knowledge base's handle (see
    /// [`dbgpt_obs::Obs::enter`]) — how an app-layer request root absorbs
    /// retrieval spans. Share one handle via [`KnowledgeBase::set_obs`] so
    /// the counters land in the same registry.
    ///
    /// Spans are opened only in this sequential orchestration — never
    /// inside the threaded scan workers — so trace dumps stay
    /// deterministic even when the flat scan fans out across threads.
    /// Stage children are timestamped on the span's tick clock.
    pub fn retrieve_under(
        &self,
        query: &str,
        k: usize,
        strategy: RetrievalStrategy,
        parent: &Span,
    ) -> Vec<RetrievedChunk> {
        let span = self.obs.enter(parent, "rag.retrieve");
        span.attr("strategy", strategy.name());
        span.attr("k", k);
        self.obs.counter("rag.queries", 1);
        self.obs
            .counter("rag.chunks_scanned", self.chunks.len() as u64);
        let ids_scores: Vec<(usize, f64)> = match strategy {
            RetrievalStrategy::Vector => {
                let stage = span.child("rag.scan.vector", span.tick());
                let r = self
                    .vectors
                    .search_flat_with(&self.embedder.embed(query), k, &self.config)
                    .into_iter()
                    .map(|(i, s)| (i, s as f64))
                    .collect();
                stage.end(span.tick());
                r
            }
            RetrievalStrategy::VectorApprox => {
                let stage = span.child("rag.scan.ivf", span.tick());
                let r = self
                    .vectors
                    .search_ivf_with(&self.embedder.embed(query), k, 4, &self.config)
                    .into_iter()
                    .map(|(i, s)| (i, s as f64))
                    .collect();
                stage.end(span.tick());
                r
            }
            RetrievalStrategy::VectorAnn => {
                let stage = span.child("rag.scan.hnsw", span.tick());
                // Until `build_hnsw_index` runs, the exact flat scan answers.
                let built = self.vectors.has_hnsw();
                stage.attr("index", if built { "hnsw" } else { "flat" });
                if !built {
                    self.obs.counter("rag.ann_fallback", 1);
                }
                let r = self
                    .vectors
                    .search_hnsw_with(&self.embedder.embed(query), k, &self.config)
                    .into_iter()
                    .map(|(i, s)| (i, s as f64))
                    .collect();
                stage.end(span.tick());
                r
            }
            RetrievalStrategy::Keyword => {
                let stage = span.child("rag.scan.keyword", span.tick());
                let r = self.inverted.search(query, k);
                stage.end(span.tick());
                r
            }
            RetrievalStrategy::Graph => {
                let stage = span.child("rag.scan.graph", span.tick());
                let r = self.graph.search(query, k);
                stage.end(span.tick());
                r
            }
            RetrievalStrategy::Hybrid => {
                let q = self.embedder.embed(query);
                let stage = span.child("rag.scan.vector", span.tick());
                let vector: Vec<usize> = self
                    .vectors
                    .search_flat_with(&q, k * 2, &self.config)
                    .into_iter()
                    .map(|(i, _)| i)
                    .collect();
                stage.end(span.tick());
                let stage = span.child("rag.scan.keyword", span.tick());
                let keyword: Vec<usize> = self
                    .inverted
                    .search(query, k * 2)
                    .into_iter()
                    .map(|(i, _)| i)
                    .collect();
                stage.end(span.tick());
                let stage = span.child("rag.scan.graph", span.tick());
                let graph: Vec<usize> = self
                    .graph
                    .search(query, k * 2)
                    .into_iter()
                    .map(|(i, _)| i)
                    .collect();
                stage.end(span.tick());
                let stage = span.child("rag.fuse", span.tick());
                let r = reciprocal_rank_fusion(&[vector, keyword, graph], k);
                stage.end(span.tick());
                r
            }
        };
        let out: Vec<RetrievedChunk> = ids_scores
            .into_iter()
            .filter_map(|(i, score)| {
                self.chunks.get(i).map(|chunk| RetrievedChunk {
                    chunk: chunk.clone(),
                    score,
                })
            })
            .collect();
        self.obs
            .observe_with("rag.hits", COUNT_BUCKETS, out.len() as u64);
        span.attr("hits", out.len());
        span.end(span.tick());
        out
    }

    /// [`KnowledgeBase::retrieve_reranked`] under a parent span.
    pub fn retrieve_reranked_under(
        &self,
        query: &str,
        k: usize,
        strategy: RetrievalStrategy,
        parent: &Span,
    ) -> Vec<RetrievedChunk> {
        let candidates = self.retrieve_under(query, k * 3, strategy, parent);
        crate::rerank::rerank(query, candidates, k)
    }
}

impl std::fmt::Debug for KnowledgeBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnowledgeBase")
            .field("documents", &self.documents.len())
            .field("chunks", &self.chunks.len())
            .field("vocabulary", &self.inverted.vocabulary_size())
            .field("graph_nodes", &self.graph.node_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::with_defaults();
        kb.add_text(
            "awel",
            "AWEL is the Agentic Workflow Expression Language.\n\
             It composes agents into directed acyclic graphs.",
        );
        kb.add_text(
            "smmf",
            "SMMF is the Service-oriented Multi-model Management Framework.\n\
             It keeps model serving private and local.",
        );
        kb.add_text(
            "rag",
            "Retrieval augmented generation enriches prompts with context.\n\
             DB-GPT retrieves from vector, inverted and graph indexes.",
        );
        kb
    }

    #[test]
    fn ingestion_counts() {
        let kb = kb();
        assert_eq!(kb.document_count(), 3);
        assert_eq!(kb.chunk_count(), 6);
        assert_eq!(kb.document_chunks("awel").len(), 2);
    }

    #[test]
    fn duplicate_document_rejected() {
        let mut kb = kb();
        let err = kb.add_document(Document::from_text("awel", "dup")).unwrap_err();
        assert!(matches!(err, RagError::DuplicateDocument(_)));
    }

    #[test]
    fn empty_document_rejected() {
        let mut kb = kb();
        let err = kb.add_document(Document::from_text("blank", "  ")).unwrap_err();
        assert!(matches!(err, RagError::EmptyDocument(_)));
    }

    #[test]
    fn every_strategy_finds_the_obvious_answer() {
        let mut kb = kb();
        kb.build_ann_index();
        for &strategy in RetrievalStrategy::ALL {
            let hits = kb.retrieve("agentic workflow expression language", 2, strategy);
            assert!(
                !hits.is_empty(),
                "strategy {} returned nothing",
                strategy.name()
            );
            assert_eq!(
                hits[0].chunk.document_id,
                "awel",
                "strategy {} missed",
                strategy.name()
            );
        }
    }

    #[test]
    fn hybrid_covers_keyword_only_matches() {
        // A chunk retrievable by exact keyword but embedded far from the
        // query phrasing should still surface through hybrid fusion.
        let mut kb = KnowledgeBase::with_defaults();
        kb.add_text("a", "xylophone zebra quartz");
        kb.add_text("b", "completely different musical instrument discussion");
        let hits = kb.retrieve("xylophone", 2, RetrievalStrategy::Hybrid);
        assert_eq!(hits[0].chunk.document_id, "a");
    }

    #[test]
    fn retrieval_scores_are_monotonic() {
        let kb = kb();
        let hits = kb.retrieve("private model serving", 3, RetrievalStrategy::Vector);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn k_limits_results() {
        let kb = kb();
        assert!(kb.retrieve("the", 1, RetrievalStrategy::Vector).len() <= 1);
    }

    #[test]
    fn debug_output_summarises() {
        let kb = kb();
        let dbg = format!("{kb:?}");
        assert!(dbg.contains("documents: 3"));
    }

    #[test]
    fn add_text_returns_zero_on_failure() {
        let mut kb = kb();
        assert_eq!(kb.add_text("awel", "dup"), 0);
    }

    #[test]
    fn ivf_nlist_clamps_both_ends() {
        assert_eq!(ivf_nlist(0), 1, "empty corpus still gets one list");
        assert_eq!(ivf_nlist(99), 1, "below one full list");
        assert_eq!(ivf_nlist(100), 1);
        assert_eq!(ivf_nlist(250), 2);
        assert_eq!(ivf_nlist(6400), MAX_IVF_LISTS);
        assert_eq!(ivf_nlist(1_000_000), MAX_IVF_LISTS, "upper clamp");
    }

    #[test]
    fn build_ann_index_partition_count_tracks_corpus_size() {
        let mut kb = kb(); // 6 chunks → clamps to a single partition
        kb.build_ann_index();
        assert_eq!(kb.vector_store().partition_count(), 1);
    }

    #[test]
    fn fingerprint_ignores_ann_index_state() {
        // The graph and quantized codes are derived data: a replica that
        // built the index and one that did not must stay convergent.
        let plain = kb();
        let mut indexed = kb();
        indexed.build_ann_index();
        indexed.build_hnsw_index(AnnBuildConfig::default());
        assert!(indexed.has_hnsw_index());
        assert_eq!(plain.fingerprint(), indexed.fingerprint());

        // And ingest on top of divergent index state still converges.
        let mut plain = plain;
        let mut indexed = indexed;
        plain.add_text("extra", "one more note about serving capacity");
        indexed.add_text("extra", "one more note about serving capacity");
        assert_eq!(plain.fingerprint(), indexed.fingerprint());
    }

    #[test]
    fn vector_ann_falls_back_to_flat_until_built() {
        let kb = kb();
        assert!(!kb.has_hnsw_index());
        let flat = kb.retrieve("agentic workflow expression language", 2, RetrievalStrategy::Vector);
        let ann = kb.retrieve(
            "agentic workflow expression language",
            2,
            RetrievalStrategy::VectorAnn,
        );
        assert_eq!(flat, ann);
    }

    #[test]
    fn ingest_never_builds_hnsw_but_inserts_once_built() {
        let mut kb = KnowledgeBase::with_defaults();
        for i in 0..10 {
            kb.add_text(
                &format!("d{i}"),
                &format!("note {i} about subsystem {}", i % 3),
            );
        }
        assert!(!kb.has_hnsw_index(), "ingest must not build the index");
        kb.build_hnsw_index(AnnBuildConfig::default());
        let before = kb.vector_store().hnsw_fingerprint();
        kb.add_text("d10", "a fresh note about quarterly revenue forecasts");
        assert!(kb.has_hnsw_index());
        assert_ne!(
            kb.vector_store().hnsw_fingerprint(),
            before,
            "ingest must insert into the built graph"
        );
        let hits = kb.retrieve("quarterly revenue forecasts", 1, RetrievalStrategy::VectorAnn);
        assert_eq!(hits[0].chunk.document_id, "d10");
    }

    #[test]
    fn retrieval_config_round_trips_and_keeps_results_identical() {
        let mut kb = kb();
        assert_eq!(kb.retrieval_config(), RetrievalConfig::default());
        let sequential = kb.retrieve("private model serving", 3, RetrievalStrategy::Vector);

        let forced_parallel = RetrievalConfig {
            threads: 4,
            topk_crossover: 0,
            ..RetrievalConfig::default()
        };
        kb.set_retrieval_config(forced_parallel);
        assert_eq!(kb.retrieval_config(), forced_parallel);
        let parallel = kb.retrieve("private model serving", 3, RetrievalStrategy::Vector);
        assert_eq!(sequential, parallel);

        let kb2 = KnowledgeBase::with_defaults().with_retrieval_config(forced_parallel);
        assert_eq!(kb2.retrieval_config(), forced_parallel);
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use dbgpt_obs::ObsConfig;

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::with_defaults();
        kb.add_text("awel", "AWEL composes agents into directed acyclic graphs.");
        kb.add_text("smmf", "SMMF keeps model serving private and local.");
        kb
    }

    #[test]
    fn default_retrieval_records_nothing() {
        let kb = kb();
        kb.retrieve("model serving", 2, RetrievalStrategy::Hybrid);
        assert!(!kb.obs().is_enabled());
        assert_eq!(kb.obs().span_count(), 0);
        assert_eq!(kb.obs().metrics_json(), Obs::disabled().metrics_json());
    }

    #[test]
    fn retrieval_spans_cover_every_hybrid_stage() {
        let kb = kb().with_obs(Obs::new(ObsConfig::enabled(5)));
        let hits = kb.retrieve("model serving", 2, RetrievalStrategy::Hybrid);
        assert!(!hits.is_empty());
        let spans = kb.obs().finished_spans();
        let root = spans.iter().find(|r| r.name == "rag.retrieve").expect("root");
        assert_eq!(root.attr("strategy"), Some("hybrid"));
        assert_eq!(root.attr("hits"), Some(hits.len().to_string()).as_deref());
        for stage in ["rag.scan.vector", "rag.scan.keyword", "rag.scan.graph", "rag.fuse"] {
            let s = spans.iter().find(|r| r.name == stage).unwrap_or_else(|| {
                panic!("missing stage span {stage}")
            });
            assert_eq!(s.parent, Some(root.id), "{stage} must nest under the root");
        }
        assert_eq!(kb.obs().counter_value("rag.queries"), 1);
        assert_eq!(
            kb.obs().counter_value("rag.chunks_scanned"),
            kb.chunk_count() as u64
        );
    }

    #[test]
    fn vector_ann_counts_flat_fallbacks_until_the_index_is_built() {
        let ann_query = |kb: &KnowledgeBase| {
            kb.retrieve("model serving", 1, RetrievalStrategy::VectorAnn);
            let spans = kb.obs().finished_spans();
            let scan = spans
                .iter()
                .rev()
                .find(|r| r.name == "rag.scan.hnsw")
                .expect("scan");
            scan.attr("index").map(str::to_string)
        };
        let unbuilt = kb().with_obs(Obs::new(ObsConfig::enabled(5)));
        assert_eq!(ann_query(&unbuilt).as_deref(), Some("flat"));
        assert_eq!(ann_query(&unbuilt).as_deref(), Some("flat"));
        assert_eq!(unbuilt.obs().counter_value("rag.ann_fallback"), 2);

        let mut built = kb().with_obs(Obs::new(ObsConfig::enabled(5)));
        built.build_hnsw_index(AnnBuildConfig::default());
        assert_eq!(ann_query(&built).as_deref(), Some("hnsw"));
        assert_eq!(built.obs().counter_value("rag.ann_fallback"), 0);
        assert_eq!(built.obs().counter_value("rag.queries"), 1);
    }

    #[test]
    fn observed_retrieval_is_unchanged_and_deterministic() {
        let plain = kb();
        let run = || {
            let observed = kb().with_obs(Obs::new(ObsConfig::enabled(9)));
            let mut all = Vec::new();
            for &strategy in RetrievalStrategy::ALL {
                all.push(observed.retrieve("model serving", 2, strategy));
            }
            (all, observed.obs().trace_json(), observed.obs().metrics_json())
        };
        let (a, trace_a, metrics_a) = run();
        let (b, trace_b, metrics_b) = run();
        for (hits, &strategy) in a.iter().zip(RetrievalStrategy::ALL) {
            assert_eq!(
                hits,
                &plain.retrieve("model serving", 2, strategy),
                "observability must not change {} results",
                strategy.name()
            );
        }
        assert_eq!(a, b);
        assert_eq!(trace_a, trace_b, "same seed, same trace bytes");
        assert_eq!(metrics_a, metrics_b);
    }
}

#[cfg(test)]
mod rerank_integration {
    use super::*;

    #[test]
    fn reranked_retrieval_prefers_dense_matches() {
        let mut kb = KnowledgeBase::with_defaults();
        kb.add_text("padded", &format!("checkpoint {}", "irrelevant padding words ".repeat(30)));
        kb.add_text("dense", "checkpoint interval tuning for compaction");
        let top = kb.retrieve_reranked("checkpoint interval tuning", 1, RetrievalStrategy::Keyword);
        assert_eq!(top[0].chunk.document_id, "dense");
    }

    #[test]
    fn reranked_never_exceeds_k() {
        let mut kb = KnowledgeBase::with_defaults();
        for i in 0..10 {
            kb.add_text(&format!("d{i}"), &format!("common words appear in document {i}"));
        }
        assert_eq!(kb.retrieve_reranked("common words", 4, RetrievalStrategy::Hybrid).len(), 4);
    }
}
