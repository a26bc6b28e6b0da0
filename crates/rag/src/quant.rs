//! Scalar-quantized vector storage: u8 codes + per-query lookup tables.
//!
//! A million 128-dim f32 chunks is ~512 MB of raw vectors; at the
//! "millions of users' knowledge bases" scale the embedding store must
//! shrink. [`QuantizedStore`] compresses each dimension to one byte
//! against a per-dimension `[min, max]` grid fitted over the corpus —
//! a 4× reduction (the grid itself is 2 floats per *dimension*, not per
//! vector, so it amortizes to nothing).
//!
//! Scoring never dequantizes per candidate. A query is expanded once into
//! a [`DotLut`]: since `dequant(d, c) = min[d] + c · step[d]`, the dot
//! product factors into `Σ q[d]·min[d]` (a per-query constant) plus
//! `Σ c · q[d]·step[d]` — so scoring a candidate is one dot product
//! between its contiguous u8 code row and a dim-length f32 vector that
//! lives in L1, with no per-candidate dequantization. (A dim×256 table
//! would compute the same sums through scattered lookups; the factored
//! form vectorizes.) Quantization loses at most half a grid step per
//! dimension
//! ([`QuantizedStore::max_error`], property-tested), and the ANN search
//! path can re-score its top candidates against the exact f32 vectors to
//! claw back the last recall points (`RetrievalConfig::ann_rescore`).
//!
//! The grid is **frozen at fit time**: vectors appended later are clamped
//! onto the existing grid ([`QuantizedStore::push`]), which keeps
//! incremental ingest deterministic — codes never depend on what arrived
//! after fitting.

use dbgpt_obs::hash::Fnv1a;

use crate::embedding::Embedding;

/// Codes per dimension (u8 range).
const LEVELS: usize = 256;

/// A query expanded against the quantization grid (see module docs):
/// `score(i) = bias + Σ_d codes[i][d] · scaled[d]`.
#[derive(Debug, Clone)]
pub struct DotLut {
    /// `Σ_d q[d] · min[d]` — the grid-origin contribution.
    bias: f32,
    /// `scaled[d] = q[d] · step[d]`.
    scaled: Vec<f32>,
}

/// Scalar-quantized mirror of a vector store (see module docs).
#[derive(Debug, Clone, Default)]
pub struct QuantizedStore {
    dim: usize,
    /// Per-dimension grid lower bound.
    mins: Vec<f32>,
    /// Per-dimension grid step `(max - min) / 255`; `0` for a flat
    /// dimension (every vector equal there), which decodes to `min`.
    steps: Vec<f32>,
    /// Row-major codes, `len × dim`.
    codes: Vec<u8>,
}

impl QuantizedStore {
    /// Fit the per-dimension grid over `vectors` and encode all of them.
    /// An empty slice yields an empty store with an empty grid (the first
    /// real fit should happen once data exists).
    pub fn fit(vectors: &[Embedding]) -> Self {
        let dim = vectors.first().map(|v| v.dim()).unwrap_or(0);
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for v in vectors {
            for (d, &x) in v.0.iter().enumerate() {
                if x < mins[d] {
                    mins[d] = x;
                }
                if x > maxs[d] {
                    maxs[d] = x;
                }
            }
        }
        let steps: Vec<f32> = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| {
                let span = hi - lo;
                if span > 0.0 && span.is_finite() {
                    span / (LEVELS - 1) as f32
                } else {
                    0.0
                }
            })
            .collect();
        let mut store = QuantizedStore {
            dim,
            mins,
            steps,
            codes: Vec::with_capacity(vectors.len() * dim),
        };
        for v in vectors {
            store.push(v);
        }
        store
    }

    /// Append one vector, clamped onto the frozen grid.
    pub fn push(&mut self, v: &Embedding) {
        debug_assert_eq!(v.dim(), self.dim);
        for (d, &x) in v.0.iter().enumerate() {
            self.codes.push(self.encode_dim(d, x));
        }
    }

    fn encode_dim(&self, d: usize, x: f32) -> u8 {
        let step = self.steps[d];
        if step == 0.0 || !x.is_finite() {
            return 0;
        }
        let c = ((x - self.mins[d]) / step).round();
        c.clamp(0.0, (LEVELS - 1) as f32) as u8
    }

    /// Reconstructed value of code `c` in dimension `d`.
    #[inline]
    fn dequant(&self, d: usize, c: u8) -> f32 {
        self.mins[d] + self.steps[d] * c as f32
    }

    /// Number of encoded vectors.
    pub fn len(&self) -> usize {
        self.codes.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Decode vector `i` back to f32 (testing / diagnostics — the scoring
    /// path never calls this).
    pub fn decode(&self, i: usize) -> Option<Embedding> {
        if i >= self.len() {
            return None;
        }
        let row = &self.codes[i * self.dim..(i + 1) * self.dim];
        Some(Embedding(
            row.iter()
                .enumerate()
                .map(|(d, &c)| self.dequant(d, c))
                .collect(),
        ))
    }

    /// Worst-case absolute reconstruction error for an in-grid value in
    /// dimension `d`: half a grid step (rounding to the nearest level).
    pub fn max_error(&self, d: usize) -> f32 {
        self.steps[d] / 2.0
    }

    /// Expand a (unit-normalized) query against the grid. O(dim), paid
    /// once per query.
    pub fn lut(&self, q: &Embedding) -> DotLut {
        debug_assert_eq!(q.dim(), self.dim);
        let mut bias = 0.0f32;
        let mut scaled = Vec::with_capacity(self.dim);
        for ((&qx, &min), &step) in q.0.iter().zip(&self.mins).zip(&self.steps) {
            bias += qx * min;
            scaled.push(qx * step);
        }
        DotLut { bias, scaled }
    }

    /// Approximate dot product of the query behind `lut` with vector `i`:
    /// a u8·f32 dot over the candidate's contiguous code row.
    #[inline]
    pub fn score(&self, lut: &DotLut, i: usize) -> f32 {
        let row = &self.codes[i * self.dim..(i + 1) * self.dim];
        let mut acc = 0.0f32;
        for (&c, &s) in row.iter().zip(&lut.scaled) {
            acc += c as f32 * s;
        }
        lut.bias + acc
    }

    /// Pointer to vector `i`'s code row — for cache prefetch hints on
    /// the ANN hot path (the row is `dim` contiguous bytes).
    #[inline]
    pub fn row_ptr(&self, i: usize) -> *const u8 {
        self.codes[i * self.dim..].as_ptr()
    }

    /// Bytes held by the quantized representation (codes + grid).
    pub fn memory_bytes(&self) -> usize {
        self.codes.len() + (self.mins.len() + self.steps.len()) * std::mem::size_of::<f32>()
    }

    /// FNV-1a digest of the grid and every code byte — two stores with
    /// the same fit inputs and push sequence are byte-identical iff their
    /// fingerprints match.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&(self.dim as u64).to_le_bytes());
        for x in self.mins.iter().chain(&self.steps) {
            h.write(&x.to_le_bytes());
        }
        h.write(&self.codes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{dot, Embedder, HashEmbedder};

    fn corpus(n: usize) -> Vec<Embedding> {
        let e = HashEmbedder::new();
        (0..n)
            .map(|i| e.embed(&format!("document {i} about topic {}", i % 7)).unit())
            .collect()
    }

    #[test]
    fn round_trip_error_is_bounded() {
        let vs = corpus(50);
        let q = QuantizedStore::fit(&vs);
        for (i, v) in vs.iter().enumerate() {
            let back = q.decode(i).unwrap();
            for (d, (&a, &b)) in v.0.iter().zip(&back.0).enumerate() {
                assert!(
                    (a - b).abs() <= q.max_error(d) + 1e-6,
                    "vector {i} dim {d}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn lut_score_matches_dequantized_dot() {
        let vs = corpus(30);
        let q = QuantizedStore::fit(&vs);
        let query = HashEmbedder::new().embed("document about topic 3").unit();
        let lut = q.lut(&query);
        for i in 0..q.len() {
            let fast = q.score(&lut, i);
            let slow = dot(&query, &q.decode(i).unwrap());
            assert!((fast - slow).abs() < 1e-4, "vector {i}: {fast} vs {slow}");
        }
    }

    #[test]
    fn quantized_scores_track_exact_scores() {
        let vs = corpus(40);
        let q = QuantizedStore::fit(&vs);
        let query = HashEmbedder::new().embed("document about topic 5").unit();
        let lut = q.lut(&query);
        for (i, v) in vs.iter().enumerate() {
            let approx = q.score(&lut, i);
            let exact = dot(&query, v);
            // 128 dims × tiny per-dim error: stay well inside 0.05.
            assert!((approx - exact).abs() < 0.05, "vector {i}: {approx} vs {exact}");
        }
    }

    #[test]
    fn push_uses_frozen_grid() {
        let vs = corpus(20);
        let mut q = QuantizedStore::fit(&vs);
        let grid_before: Vec<f32> = q.mins.clone();
        // An out-of-grid vector clamps instead of refitting.
        q.push(&Embedding(vec![100.0; q.dim()]));
        assert_eq!(q.mins, grid_before);
        assert_eq!(q.len(), 21);
        let back = q.decode(20).unwrap();
        for (d, &x) in back.0.iter().enumerate() {
            assert!(x <= q.dequant(d, 255) + 1e-6);
        }
    }

    #[test]
    fn memory_is_a_quarter_of_f32() {
        let vs = corpus(1000);
        let q = QuantizedStore::fit(&vs);
        let f32_bytes = vs.len() * vs[0].dim() * 4;
        assert!(
            (q.memory_bytes() as f64) <= 0.30 * f32_bytes as f64,
            "quantized {} vs f32 {}",
            q.memory_bytes(),
            f32_bytes
        );
    }

    #[test]
    fn fingerprint_is_deterministic_and_sensitive() {
        let vs = corpus(25);
        let a = QuantizedStore::fit(&vs);
        let b = QuantizedStore::fit(&vs);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = QuantizedStore::fit(&vs);
        c.push(&vs[0]);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn empty_and_degenerate_stores() {
        let q = QuantizedStore::fit(&[]);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.decode(0).is_none());
        // All-identical vectors: every step is 0, decode returns the value.
        let same = vec![Embedding(vec![0.5, -0.25]); 4];
        let q = QuantizedStore::fit(&same);
        assert_eq!(q.decode(2).unwrap(), same[2]);
    }
}
