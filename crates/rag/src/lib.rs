#![warn(missing_docs)]

//! # dbgpt-rag — Retrieval-Augmented Generation from multiple data sources
//!
//! Implements the RAG architecture of DB-GPT's module layer (paper §2.3,
//! Figure 2), in three stages:
//!
//! 1. **Knowledge construction** — documents from multiple sources are
//!    segmented into paragraphs ([`chunker`]), each paragraph encoded into a
//!    multidimensional vector by a neural-encoder stand-in
//!    ([`embedding::HashEmbedder`]), and indexed **three ways**, exactly as
//!    the paper describes: a vector index ([`vector_store`]), an inverted
//!    index with BM25 scoring ([`inverted`]), and a graph index of entity
//!    co-occurrence ([`graph`]).
//! 2. **Knowledge retrieval** — a query is embedded and the top-k most
//!    relevant paragraphs are found under a selectable
//!    [`retriever::RetrievalStrategy`]: cosine-similarity vector search,
//!    keyword (BM25) search, graph-neighbourhood search, or a hybrid that
//!    fuses all three with reciprocal-rank fusion.
//!    A second-stage [`rerank()`](rerank()) pass sharpens the candidate list with a
//!    lexical cross-scorer.
//! 3. **Adaptive ICL** — retrieved paragraphs are packed into a prompt
//!    template under a token budget, with privacy redaction of sensitive
//!    spans ([`icl`]), ready for a [`dbgpt_llm::LanguageModel`].
//!
//! ## Performance: the retrieval hot path
//!
//! Retrieval is built around these optimizations (see the README
//! "Performance" section for reproduction commands):
//!
//! - **Normalized-vector kernel** — [`VectorStore`] unit-normalizes every
//!   vector once at insert (keeping the raw norm via
//!   [`VectorStore::stored_norm`]), so per-candidate cosine scoring is a
//!   bare [`dot`] product with no square roots or divisions; the flat
//!   scan scores eight rows per walk over the query.
//! - **Heap top-k** — every ranking path (flat scan, HNSW, BM25, graph,
//!   RRF fusion) selects through one shared bounded [`topk::TopK`]
//!   accumulator: O(n log k) instead of sort-everything O(n log n), with a
//!   single definition of tie-breaking (score descending, id ascending)
//!   and NaN-safe `total_cmp` ordering.
//! - **ANN retrieval (HNSW + scalar quantization)** — past ~100k chunks
//!   the exact flat scan is the bottleneck, so
//!   [`RetrievalStrategy::VectorAnn`] routes through a deterministic
//!   [`hnsw`] graph (seeded level assignment, `total_cmp` + id tie-breaks
//!   ⇒ the same seed builds a byte-identical index) over either the f32
//!   store or a [`quant`] scalar-quantized mirror (u8 codes + per-query
//!   dot lookup tables, ~4× less memory, optional exact rescore). Its
//!   search knobs live in [`RetrievalConfig`].
//!   Ingest never builds the index: a caller asks for it with
//!   [`KnowledgeBase::build_hnsw_index`], and later ingest inserts into
//!   it. Until then the strategy falls back to the exact flat scan and
//!   counts `rag.ann_fallback`. Gated ≥0.95 recall@10 and ≥20× flat-scan
//!   speedup at 100k chunks by `bench_ann` (`results/BENCH_ann.json`).
//!
//! Retrieval is also observable: attach a [`dbgpt_obs::Obs`] handle via
//! [`KnowledgeBase::set_obs`] and every `retrieve` records a
//! `rag.retrieve` span with per-stage scan children plus query/scan-volume
//! counters — timestamped with logical ticks, deterministic across runs,
//! and free when no handle is attached (the default).
//!
//! ## Quickstart
//!
//! ```
//! use dbgpt_rag::{KnowledgeBase, RetrievalStrategy};
//!
//! let mut kb = KnowledgeBase::with_defaults();
//! kb.add_text("awel-doc", "AWEL is DB-GPT's workflow language. \
//!                          It composes agents into DAGs.");
//! kb.add_text("smmf-doc", "SMMF manages private model deployments locally.");
//! let hits = kb.retrieve("what language composes agents?", 1,
//!                        RetrievalStrategy::Hybrid);
//! assert_eq!(hits[0].chunk.document_id, "awel-doc");
//! ```

pub mod chunker;
pub mod document;
pub mod embedding;
pub mod error;
pub mod graph;
pub mod hnsw;
pub mod icl;
pub mod inverted;
pub mod knowledge;
pub mod quant;
pub mod rerank;
pub mod retriever;
pub mod topk;
pub mod vector_store;

pub use chunker::{Chunk, Chunker, ChunkingStrategy};
pub use document::{Document, DocumentSource};
pub use embedding::{cosine_similarity, dot, Embedder, Embedding, HashEmbedder};
pub use error::RagError;
pub use graph::GraphIndex;
pub use hnsw::{HnswConfig, HnswGraph};
pub use icl::{IclBuilder, PrivacyPolicy};
pub use inverted::InvertedIndex;
pub use knowledge::{KnowledgeBase, RetrievedChunk};
pub use quant::QuantizedStore;
pub use rerank::rerank;
pub use retriever::{RetrievalConfig, RetrievalStrategy};
pub use topk::TopK;
pub use vector_store::{AnnBuildConfig, AnnStorage, VectorStore};
