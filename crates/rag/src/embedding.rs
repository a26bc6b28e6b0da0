//! The neural-encoder stand-in: deterministic hashed embeddings.
//!
//! "each paragraph is encoded into a multidimensional vector using a
//! neural encoder" (§2.3). Offline we substitute a *feature-hashing*
//! encoder: every unigram and bigram of the text is hashed into a
//! fixed-dimensional vector with a signed contribution, and the result is
//! L2-normalised. This preserves what the RAG pipeline needs from an
//! encoder — texts sharing vocabulary land close in cosine space, the map
//! is deterministic, and encoding is cheap — without model weights.

use dbgpt_obs::hash::Fnv1a;
use serde::{Deserialize, Serialize};

use crate::error::RagError;
use crate::inverted::InvertedIndex;

/// A dense embedding vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding(pub Vec<f32>);

impl Embedding {
    /// Dimension of the vector.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.0.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Consume the vector, returning its unit-normalized form together
    /// with the original L2 norm. A zero (or non-finite-norm) vector is
    /// returned unchanged so its dot product with anything stays 0 —
    /// matching the [`cosine_similarity`] zero-vector convention.
    pub fn into_unit(self) -> (Embedding, f32) {
        let norm = self.norm();
        if norm > 0.0 && norm.is_finite() {
            let mut v = self.0;
            for x in &mut v {
                *x /= norm;
            }
            (Embedding(v), norm)
        } else {
            (self, norm)
        }
    }

    /// A unit-normalized copy (zero vector stays zero).
    pub fn unit(&self) -> Embedding {
        self.clone().into_unit().0
    }
}

/// Plain dot product. On *unit* vectors this equals cosine similarity —
/// the normalized-vector kernel of the retrieval hot path: [`VectorStore`]
/// normalizes once at insert time, so per-candidate scoring needs no
/// square roots or divisions at all.
///
/// [`VectorStore`]: crate::vector_store::VectorStore
pub fn dot(a: &Embedding, b: &Embedding) -> f32 {
    debug_assert_eq!(a.dim(), b.dim());
    a.0.iter().zip(&b.0).map(|(x, y)| x * y).sum()
}

/// Cosine similarity in `[-1, 1]`; 0 when either vector is zero.
///
/// Kept as the exact reference formula: it recomputes both operand norms
/// per call, which the store-side kernel ([`dot`] over pre-normalized
/// vectors) avoids. Property tests pin the two to within 1e-5.
pub fn cosine_similarity(a: &Embedding, b: &Embedding) -> f32 {
    debug_assert_eq!(a.dim(), b.dim());
    let dot: f32 = a.0.iter().zip(&b.0).map(|(x, y)| x * y).sum();
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

/// Anything that turns text into an embedding.
pub trait Embedder: Send + Sync {
    /// Output dimension.
    fn dim(&self) -> usize;

    /// Encode one text.
    fn embed(&self, text: &str) -> Embedding;

    /// Validate a vector against this embedder's dimension.
    fn check(&self, e: &Embedding) -> Result<(), RagError> {
        if e.dim() != self.dim() {
            return Err(RagError::DimensionMismatch {
                expected: self.dim(),
                found: e.dim(),
            });
        }
        Ok(())
    }
}

/// The feature-hashing encoder (see module docs).
#[derive(Debug, Clone)]
pub struct HashEmbedder {
    dim: usize,
    seed: u64,
}

impl HashEmbedder {
    /// Default: 128 dimensions.
    pub fn new() -> Self {
        HashEmbedder { dim: 128, seed: 0x5EED }
    }

    /// Custom dimension (min 8).
    pub fn with_dim(dim: usize) -> Self {
        HashEmbedder {
            dim: dim.max(8),
            seed: 0x5EED,
        }
    }

    /// An FNV-1a hasher with a seed salt.
    fn hasher(&self, salt: u64) -> Fnv1a {
        Fnv1a::with_basis(Fnv1a::OFFSET_BASIS ^ self.seed.wrapping_mul(salt | 1))
    }

    /// Salted FNV-1a of one token.
    fn hash(&self, token: &str, salt: u64) -> u64 {
        let mut h = self.hasher(salt);
        h.write(token.as_bytes());
        h.finish()
    }
}

impl Default for HashEmbedder {
    fn default() -> Self {
        HashEmbedder::new()
    }
}

impl Embedder for HashEmbedder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed(&self, text: &str) -> Embedding {
        let mut v = vec![0.0f32; self.dim];
        let tokens = InvertedIndex::terms(text);
        // Unigram features.
        for t in &tokens {
            let h = self.hash(t, 1);
            let idx = (h % self.dim as u64) as usize;
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[idx] += sign;
            // A second projection halves collision damage.
            let h2 = self.hash(t, 7);
            let idx2 = (h2 % self.dim as u64) as usize;
            let sign2 = if (h2 >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[idx2] += 0.5 * sign2;
        }
        // Bigram features give mild order sensitivity. A bigram hashes as
        // the string "first second"; FNV-1a over the three parts in turn
        // is that digest without building the string.
        for pair in tokens.windows(2) {
            let mut h = self.hasher(13);
            h.write(pair[0].as_bytes());
            h.write_u8(b' ');
            h.write(pair[1].as_bytes());
            let h = h.finish();
            let idx = (h % self.dim as u64) as usize;
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[idx] += 0.5 * sign;
        }
        // L2 normalise (zero vector stays zero).
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        Embedding(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb(text: &str) -> Embedding {
        HashEmbedder::new().embed(text)
    }

    #[test]
    fn deterministic() {
        assert_eq!(emb("hello world"), emb("hello world"));
    }

    #[test]
    fn normalised() {
        let e = emb("some nontrivial text here");
        assert!((e.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = emb("");
        assert_eq!(e.norm(), 0.0);
        assert_eq!(cosine_similarity(&e, &emb("x")), 0.0);
    }

    #[test]
    fn identical_texts_have_similarity_one() {
        let s = cosine_similarity(&emb("database query"), &emb("database query"));
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn related_beats_unrelated() {
        let q = emb("sales report by product category");
        let related = emb("the sales report shows revenue per product category");
        let unrelated = emb("quantum entanglement of photon pairs in vacuum");
        assert!(
            cosine_similarity(&q, &related) > cosine_similarity(&q, &unrelated),
            "related={} unrelated={}",
            cosine_similarity(&q, &related),
            cosine_similarity(&q, &unrelated)
        );
    }

    #[test]
    fn case_insensitive() {
        let a = emb("Database Query");
        let b = emb("database query");
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn word_order_matters_slightly() {
        let a = emb("fast database");
        let b = emb("database fast");
        let s = cosine_similarity(&a, &b);
        assert!(s > 0.5 && s < 0.9999, "similarity {s}");
    }

    #[test]
    fn cjk_tokens_contribute() {
        let a = emb("销售报表");
        let b = emb("销售数据");
        let c = emb("quantum physics");
        assert!(cosine_similarity(&a, &b) > cosine_similarity(&a, &c));
    }

    #[test]
    fn dimension_check() {
        let e = HashEmbedder::with_dim(32);
        assert_eq!(e.dim(), 32);
        assert_eq!(e.embed("x").dim(), 32);
        let wrong = Embedding(vec![0.0; 16]);
        assert!(e.check(&wrong).is_err());
        assert!(e.check(&e.embed("x")).is_ok());
    }

    #[test]
    fn min_dim_enforced() {
        assert_eq!(HashEmbedder::with_dim(2).dim(), 8);
    }

    #[test]
    fn into_unit_preserves_direction_and_norm() {
        let raw = Embedding(vec![3.0, 4.0]);
        let (unit, norm) = raw.clone().into_unit();
        assert!((norm - 5.0).abs() < 1e-6);
        assert!((unit.norm() - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&raw, &unit) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn into_unit_zero_vector_is_fixed_point() {
        let (unit, norm) = Embedding(vec![0.0; 4]).into_unit();
        assert_eq!(norm, 0.0);
        assert_eq!(unit, Embedding(vec![0.0; 4]));
    }

    #[test]
    fn dot_on_units_equals_cosine() {
        let a = emb("sales report by category");
        let b = emb("report of category sales");
        let d = dot(&a.unit(), &b.unit());
        assert!((d - cosine_similarity(&a, &b)).abs() < 1e-5);
    }
}
