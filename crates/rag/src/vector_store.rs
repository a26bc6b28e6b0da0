//! The vector index: exact flat search plus an HNSW graph index.
//!
//! "DB-GPT then identifies the top-k paragraphs within the knowledge base
//! that are most relevant to q … ordering based on the cosine similarity of
//! their embedded vectors" (§2.3). The flat scan is the exact reference;
//! the HNSW graph ([`VectorStore::build_hnsw`]) trades a little recall for
//! sublinear search cost on large corpora (`bench_ann` measures the
//! trade-off).
//!
//! # The flat scan
//!
//! Three compounding optimizations keep the scan as fast as the hardware
//! allows:
//!
//! 1. **Normalized-vector kernel** — vectors are unit-normalized once at
//!    [`VectorStore::add`] (the raw norm is kept, see
//!    [`VectorStore::stored_norm`]), so per-candidate scoring is a bare
//!    [`dot`] product: no square roots, no divisions.
//! 2. **Eight rows per pass** — the scan scores eight stored vectors
//!    per walk over the query (`dot8`), one accumulator per row, so
//!    the eight dependency chains of additions overlap instead of one row
//!    waiting on its own running sum. Each row still adds its products in
//!    dimension order from the identity `Iterator::sum` starts at, so
//!    every score is bit-identical to [`dot`].
//! 3. **Heap top-k** — candidates feed a bounded [`TopK`] accumulator,
//!    O(n log k) instead of the old collect-all-then-sort O(n log n).

use crate::embedding::{dot, Embedding};
use crate::hnsw::{HnswConfig, HnswGraph};
use crate::quant::QuantizedStore;
use crate::retriever::RetrievalConfig;
use crate::topk::TopK;

/// A scored hit: `(chunk id, similarity)`.
pub type VectorHit = (usize, f32);

/// A store of embeddings addressed by dense `usize` ids.
///
/// Vectors are held unit-normalized; [`VectorStore::get`] returns the
/// normalized form and [`VectorStore::stored_norm`] the original L2 norm.
#[derive(Debug, Clone, Default)]
pub struct VectorStore {
    /// Unit-normalized vectors (a zero vector stays zero).
    vectors: Vec<Embedding>,
    /// Raw L2 norm of each vector as inserted.
    norms: Vec<f32>,
    /// HNSW graph (+ optional quantized mirror). It survives
    /// [`VectorStore::add`]: new vectors are inserted into the graph (and
    /// encoded onto the frozen quantization grid) incrementally, so
    /// ingest never throws the index away.
    ann: Option<AnnIndex>,
}

/// How [`VectorStore::build_hnsw`] scores candidates at query time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnnStorage {
    /// Graph search scores against the exact f32 vectors.
    #[default]
    F32,
    /// Graph search scores through the scalar-quantized codes via a
    /// per-query lookup table (~4× less hot memory); the top
    /// `RetrievalConfig::ann_rescore` candidates can be re-scored exactly.
    Quantized,
}

/// Build-time configuration for the ANN layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnnBuildConfig {
    /// HNSW graph knobs (degree bound, construction beam, seed).
    pub hnsw: HnswConfig,
    /// Storage backend the query path scores against.
    pub storage: AnnStorage,
}

#[derive(Debug, Clone)]
struct AnnIndex {
    graph: HnswGraph,
    /// Row-major contiguous copy of the unit vectors (`len × dim`), kept
    /// only on the f32 backend. Graph traversal random-accesses candidate
    /// vectors; scoring out of one flat allocation avoids the per-vector
    /// pointer chase through `Vec<Embedding>` (empty when quantized — the
    /// codes are the contiguous scoring storage there).
    flat: Vec<f32>,
    /// Vector dimension (0 until the first vector is seen).
    dim: usize,
    /// Present iff `storage == Quantized`.
    quant: Option<QuantizedStore>,
}

/// Dot product over raw f32 rows (the flat-matrix scoring kernel).
#[inline]
fn dot_rows(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Rows scored per [`dot8`] call.
const LANES: usize = 8;

/// Dimensions multiplied per step of [`dot8`].
const BLOCK: usize = 4;

/// Dot products of `q` with eight rows in one walk over the dimension.
///
/// Each row keeps its own accumulator, starts from the identity
/// `Iterator::sum` uses and adds `q[d] * row[d]` in dimension order, so
/// every result is bitwise equal to [`dot`] on that row. Products are
/// formed [`BLOCK`] contiguous dimensions at a time per row, then added
/// across the eight rows, which lets the additions of different rows run
/// side by side. A row whose length differs from the query's is scored by
/// [`dot_rows`] instead, which truncates the same way `dot` does.
#[inline]
fn dot8(q: &[f32], rows: [&[f32]; LANES]) -> [f32; LANES] {
    if rows.iter().any(|r| r.len() != q.len()) {
        return rows.map(|r| dot_rows(q, r));
    }
    let mut acc = [std::iter::empty::<f32>().sum::<f32>(); LANES];
    let mut blocks = q.chunks_exact(BLOCK);
    let mut d = 0;
    for qb in &mut blocks {
        let mut products = [[0.0f32; LANES]; BLOCK];
        for (r, row) in rows.iter().enumerate() {
            let rb = &row[d..d + BLOCK];
            for j in 0..BLOCK {
                products[j][r] = qb[j] * rb[j];
            }
        }
        for p in &products {
            for (a, x) in acc.iter_mut().zip(p) {
                *a += x;
            }
        }
        d += BLOCK;
    }
    for (j, &x) in blocks.remainder().iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += x * row[d + j];
        }
    }
    acc
}

/// Hint the cache that `p` (and the line after it) is about to be read.
/// Graph traversal is random access; issuing the hint one batch ahead of
/// scoring overlaps the memory fetch with arithmetic. Purely advisory —
/// a no-op off x86_64, and never a memory-safety concern (PREFETCH does
/// not fault).
#[inline]
fn prefetch_read(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(p as *const i8, _MM_HINT_T0);
        _mm_prefetch(p.wrapping_add(64) as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

impl VectorStore {
    /// Empty store.
    pub fn new() -> Self {
        VectorStore::default()
    }

    /// Append a vector; its id is its insertion index. The vector is
    /// unit-normalized in place (its raw norm is retained). A built HNSW
    /// index is updated *in place* (graph insert + quantized encode on the
    /// frozen grid), so ANN search keeps working through incremental
    /// ingest.
    pub fn add(&mut self, v: Embedding) -> usize {
        let (unit, norm) = v.into_unit();
        self.vectors.push(unit);
        self.norms.push(norm);
        let id = self.vectors.len() - 1;
        if let Some(ann) = &mut self.ann {
            if ann.dim == 0 {
                ann.dim = self.vectors[id].dim();
            }
            match &mut ann.quant {
                Some(quant) => {
                    quant.push(&self.vectors[id]);
                    // No flat matrix on the quantized backend: insertion
                    // scores through the Embedding rows directly.
                    let vectors = &self.vectors;
                    let new = &vectors[id];
                    ann.graph.insert(
                        &|x| dot(new, &vectors[x as usize]),
                        &|a, b| dot(&vectors[a as usize], &vectors[b as usize]),
                    );
                }
                None => {
                    ann.flat.extend_from_slice(&self.vectors[id].0);
                    let (flat, dim) = (&ann.flat, ann.dim);
                    let row = |x: u32| &flat[x as usize * dim..(x as usize + 1) * dim];
                    let new = row(id as u32);
                    ann.graph.insert(
                        &|x| dot_rows(new, row(x)),
                        &|a, b| dot_rows(row(a), row(b)),
                    );
                }
            }
        }
        id
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The (unit-normalized) vector with id `i`.
    pub fn get(&self, i: usize) -> Option<&Embedding> {
        self.vectors.get(i)
    }

    /// The raw L2 norm vector `i` had when it was inserted.
    pub fn stored_norm(&self, i: usize) -> Option<f32> {
        self.norms.get(i).copied()
    }

    /// Exact top-k by cosine similarity, highest first; ties broken by id.
    /// Full blocks of eight rows are scored per `dot8` call, the tail
    /// through [`dot`].
    pub fn search_flat(&self, query: &Embedding, k: usize) -> Vec<VectorHit> {
        let q = query.unit();
        let mut top = TopK::new(k);
        let mut blocks = self.vectors.chunks_exact(LANES);
        for (b, block) in (&mut blocks).enumerate() {
            let scores = dot8(&q.0, std::array::from_fn(|r| block[r].0.as_slice()));
            for (r, score) in scores.into_iter().enumerate() {
                top.push(b * LANES + r, score);
            }
        }
        let tail = self.vectors.len() - blocks.remainder().len();
        for (i, v) in blocks.remainder().iter().enumerate() {
            top.push(tail + i, dot(&q, v));
        }
        top.into_sorted_vec()
    }

    /// Build the HNSW index over every stored vector (idempotent: an
    /// existing index is discarded and rebuilt). With
    /// [`AnnStorage::Quantized`] the scalar-quantization grid is fitted
    /// over the current corpus and every vector encoded; vectors added
    /// later clamp onto that frozen grid. Construction always scores
    /// through the exact f32 vectors, so the graph topology is identical
    /// for both storage backends.
    pub fn build_hnsw(&mut self, config: AnnBuildConfig) {
        let quant = match config.storage {
            AnnStorage::F32 => None,
            AnnStorage::Quantized => Some(QuantizedStore::fit(&self.vectors)),
        };
        let dim = self.vectors.first().map(|v| v.dim()).unwrap_or(0);
        let mut flat: Vec<f32> = Vec::with_capacity(self.vectors.len() * dim);
        for v in &self.vectors {
            flat.extend_from_slice(&v.0);
        }
        let mut graph = HnswGraph::new(config.hnsw);
        for id in 0..self.vectors.len() {
            let row = |x: u32| &flat[x as usize * dim..(x as usize + 1) * dim];
            let new = row(id as u32);
            graph.insert(
                &|x| dot_rows(new, row(x)),
                &|a, b| dot_rows(row(a), row(b)),
            );
        }
        // The quantized backend scores queries through its codes; keeping
        // the f32 matrix too would forfeit the memory reduction.
        if config.storage == AnnStorage::Quantized {
            flat = Vec::new();
        }
        self.ann = Some(AnnIndex { graph, flat, dim, quant });
    }

    /// Is the HNSW index currently built?
    pub fn has_hnsw(&self) -> bool {
        self.ann.is_some()
    }

    /// Determinism witness: FNV digest of the graph structure plus the
    /// quantized codes (when present). `None` when the index is unbuilt.
    pub fn hnsw_fingerprint(&self) -> Option<u64> {
        self.ann.as_ref().map(|ann| {
            ann.graph.fingerprint()
                ^ ann
                    .quant
                    .as_ref()
                    .map(|q| q.fingerprint().wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .unwrap_or(0)
        })
    }

    /// Bytes held by the ANN scoring storage: the quantized codes + grid
    /// when quantized, the raw f32 vectors otherwise. (The graph adds
    /// `O(n · m)` u32 links on top in both cases.)
    pub fn ann_storage_bytes(&self) -> usize {
        match self.ann.as_ref().and_then(|a| a.quant.as_ref()) {
            Some(q) => q.memory_bytes(),
            None => self.vectors.iter().map(|v| v.dim() * 4).sum(),
        }
    }

    /// Approximate top-k through the HNSW graph under the default
    /// [`RetrievalConfig`]. Falls back to the exact flat scan when the
    /// index is unbuilt.
    pub fn search_hnsw(&self, query: &Embedding, k: usize) -> Vec<VectorHit> {
        self.search_hnsw_with(query, k, &RetrievalConfig::default())
    }

    /// Approximate top-k through the HNSW graph: greedy descent + an
    /// `ann_ef_search`-wide beam on layer 0 (never narrower than `k`).
    ///
    /// On the quantized backend candidates are scored through the
    /// per-query lookup table; the best `ann_rescore` of them are then
    /// re-scored against the exact f32 vectors (when `ann_rescore > 0`)
    /// so reported scores — and the final top-k cut — are exact for the
    /// surviving candidates. Falls back to the exact flat scan when the
    /// index is unbuilt.
    pub fn search_hnsw_with(
        &self,
        query: &Embedding,
        k: usize,
        config: &RetrievalConfig,
    ) -> Vec<VectorHit> {
        let Some(ann) = &self.ann else {
            return self.search_flat(query, k);
        };
        if k == 0 {
            return Vec::new();
        }
        let q = query.unit();
        let ef = config.ann_ef_search.max(k);
        let candidates = match &ann.quant {
            Some(quant) => {
                let lut = quant.lut(&q);
                let mut hits = ann.graph.search_hinted(
                    &|x| quant.score(&lut, x as usize),
                    &|x| prefetch_read(quant.row_ptr(x as usize)),
                    ef,
                );
                if config.ann_rescore > 0 {
                    hits.truncate(config.ann_rescore.max(k));
                    for (id, score) in &mut hits {
                        *score = dot(&q, &self.vectors[*id]);
                    }
                }
                hits
            }
            None => {
                let (flat, dim) = (&ann.flat, ann.dim);
                ann.graph.search_hinted(
                    &|x| dot_rows(&q.0, &flat[x as usize * dim..(x as usize + 1) * dim]),
                    &|x| prefetch_read(flat[x as usize * dim..].as_ptr() as *const u8),
                    ef,
                )
            }
        };
        let mut top = TopK::new(k);
        for (id, score) in candidates {
            top.push(id, score);
        }
        top.into_sorted_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{cosine_similarity, Embedder, HashEmbedder};

    fn store_with(texts: &[&str]) -> (VectorStore, HashEmbedder) {
        let e = HashEmbedder::new();
        let mut s = VectorStore::new();
        for t in texts {
            s.add(e.embed(t));
        }
        (s, e)
    }

    #[test]
    fn flat_search_finds_exact_match_first() {
        let (s, e) = store_with(&[
            "rust is a systems language",
            "cats are small mammals",
            "sql databases store rows",
        ]);
        let hits = s.search_flat(&e.embed("sql databases store rows"), 2);
        assert_eq!(hits[0].0, 2);
        assert!(hits[0].1 > 0.99);
    }

    #[test]
    fn flat_search_ranks_by_similarity() {
        let (s, e) = store_with(&[
            "sales report by category",
            "unrelated quantum physics",
        ]);
        let hits = s.search_flat(&e.embed("category sales numbers"), 2);
        assert_eq!(hits[0].0, 0);
        assert!(hits[0].1 > hits[1].1);
    }

    #[test]
    fn k_larger_than_store_returns_all() {
        let (s, e) = store_with(&["a", "b"]);
        assert_eq!(s.search_flat(&e.embed("a"), 10).len(), 2);
    }

    #[test]
    fn empty_store_returns_nothing() {
        let s = VectorStore::new();
        let e = HashEmbedder::new();
        assert!(s.search_flat(&e.embed("x"), 3).is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn scores_match_reference_cosine() {
        // The normalized kernel must agree with the reference formula on
        // raw (unnormalized) input vectors.
        let raws = [
            Embedding(vec![3.0, 4.0, 0.0, 1.0]),
            Embedding(vec![-1.0, 2.0, 2.0, 0.5]),
            Embedding(vec![0.0, 0.0, 0.0, 0.0]),
            Embedding(vec![10.0, -3.0, 0.25, 7.0]),
        ];
        let mut s = VectorStore::new();
        for r in &raws {
            s.add(r.clone());
        }
        let q = Embedding(vec![1.0, 2.0, 3.0, 4.0]);
        let hits = s.search_flat(&q, raws.len());
        for (id, score) in hits {
            let want = cosine_similarity(&q, &raws[id]);
            assert!(
                (score - want).abs() < 1e-5,
                "id {id}: kernel {score} vs cosine {want}"
            );
        }
    }

    #[test]
    fn stored_norm_is_kept() {
        let mut s = VectorStore::new();
        s.add(Embedding(vec![3.0, 4.0]));
        s.add(Embedding(vec![0.0, 0.0]));
        assert!((s.stored_norm(0).unwrap() - 5.0).abs() < 1e-6);
        assert_eq!(s.stored_norm(1), Some(0.0));
        assert_eq!(s.stored_norm(2), None);
        // The stored vector itself is unit.
        assert!((s.get(0).unwrap().norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nan_poisoned_vector_does_not_panic() {
        let (mut s, e) = store_with(&["alpha beta", "gamma delta"]);
        s.add(Embedding(vec![f32::NAN; 128]));
        // No panic, bounded output — graceful degradation instead of the
        // old partial_cmp unwrap crash.
        let hits = s.search_flat(&e.embed("alpha"), 2);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn get_and_len() {
        let (s, _) = store_with(&["a", "b"]);
        assert_eq!(s.len(), 2);
        assert!(s.get(1).is_some());
        assert!(s.get(2).is_none());
    }

    #[test]
    fn hnsw_unbuilt_falls_back_to_flat() {
        let (s, e) = store_with(&["alpha beta", "gamma delta", "epsilon zeta"]);
        assert!(!s.has_hnsw());
        assert_eq!(s.hnsw_fingerprint(), None);
        let q = e.embed("gamma delta");
        assert_eq!(s.search_hnsw(&q, 2), s.search_flat(&q, 2));
    }

    #[test]
    fn hnsw_finds_the_exact_top_hit() {
        let texts: Vec<String> = (0..120).map(|i| format!("entry {i} topic {}", i % 11)).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (mut s, e) = store_with(&refs);
        s.build_hnsw(AnnBuildConfig::default());
        assert!(s.has_hnsw());
        let q = e.embed("entry 77 topic 0");
        let flat = s.search_flat(&q, 5);
        let ann = s.search_hnsw(&q, 5);
        assert_eq!(ann[0], flat[0]);
        assert_eq!(ann.len(), 5);
    }

    #[test]
    fn hnsw_survives_incremental_add() {
        let texts: Vec<String> = (0..60).map(|i| format!("entry {i} topic {}", i % 5)).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (mut s, e) = store_with(&refs);
        s.build_hnsw(AnnBuildConfig::default());
        let before = s.hnsw_fingerprint();
        s.add(e.embed("a brand new document about quarterly revenue"));
        assert!(s.has_hnsw(), "add must not drop the ANN index");
        assert_ne!(s.hnsw_fingerprint(), before, "add must grow the graph");
        let q = e.embed("a brand new document about quarterly revenue");
        assert_eq!(s.search_hnsw(&q, 1)[0].0, 60);
    }

    #[test]
    fn quantized_backend_matches_f32_top_hit_and_saves_memory() {
        let texts: Vec<String> = (0..200).map(|i| format!("entry {i} topic {}", i % 13)).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (mut s, e) = store_with(&refs);
        let f32_bytes = s.ann_storage_bytes();
        s.build_hnsw(AnnBuildConfig {
            storage: AnnStorage::Quantized,
            ..AnnBuildConfig::default()
        });
        assert!(
            (s.ann_storage_bytes() as f64) <= 0.30 * f32_bytes as f64,
            "quantized {} vs f32 {f32_bytes}",
            s.ann_storage_bytes()
        );
        let q = e.embed("entry 150 topic 7");
        let flat = s.search_flat(&q, 3);
        let ann = s.search_hnsw(&q, 3);
        assert_eq!(ann[0].0, flat[0].0);
        // Rescored scores are exact.
        assert!((ann[0].1 - flat[0].1).abs() < 1e-6);
    }

    #[test]
    fn hnsw_build_is_deterministic() {
        let texts: Vec<String> = (0..150).map(|i| format!("entry {i} topic {}", i % 7)).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (mut a, e) = store_with(&refs);
        let (mut b, _) = store_with(&refs);
        let cfg = AnnBuildConfig {
            storage: AnnStorage::Quantized,
            ..AnnBuildConfig::default()
        };
        a.build_hnsw(cfg);
        b.build_hnsw(cfg);
        assert_eq!(a.hnsw_fingerprint(), b.hnsw_fingerprint());
        let q = e.embed("entry 42 topic 0");
        assert_eq!(a.search_hnsw(&q, 10), b.search_hnsw(&q, 10));
    }

    #[test]
    fn hnsw_k_zero_and_empty_store() {
        let mut s = VectorStore::new();
        s.build_hnsw(AnnBuildConfig::default());
        let e = HashEmbedder::new();
        assert!(s.search_hnsw(&e.embed("x"), 3).is_empty());
        s.add(e.embed("solo"));
        assert!(s.search_hnsw(&e.embed("solo"), 0).is_empty());
        assert_eq!(s.search_hnsw(&e.embed("solo"), 2).len(), 1);
    }
}
