//! The inverted index with BM25 ranking.
//!
//! "DB-GPT enhances traditional vector-based knowledge representation by
//! integrating inverted index … methods" and retrieves by "categorization
//! according to keyword similarity" (§2.3). Standard Okapi BM25 with
//! k1 = 1.2, b = 0.75.

use std::collections::HashMap;

use crate::topk::TopK;

/// BM25 parameters.
const K1: f64 = 1.2;
const B: f64 = 0.75;

/// A scored hit: `(chunk id, bm25 score)`.
pub type KeywordHit = (usize, f64);

/// Postings of one term: `(document id, term frequency)`, ascending by
/// document id (documents are appended in id order).
type Postings = Vec<(u32, u32)>;

/// An inverted index over dense `usize` document ids.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, Postings>,
    doc_len: Vec<usize>,
    total_len: usize,
}

impl InvertedIndex {
    /// Empty index.
    pub fn new() -> Self {
        InvertedIndex::default()
    }

    /// Lowercased alphanumeric terms of `text` (CJK chars individually).
    pub fn terms(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut current = String::new();
        for c in text.chars() {
            if c.is_alphanumeric() || c == '_' {
                if (0x4E00..=0x9FFF).contains(&(c as u32)) {
                    if !current.is_empty() {
                        out.push(std::mem::take(&mut current));
                    }
                    out.push(c.to_string());
                } else {
                    current.extend(c.to_lowercase());
                }
            } else if !current.is_empty() {
                out.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            out.push(current);
        }
        out
    }

    /// Add a document; its id is its insertion index.
    pub fn add(&mut self, text: &str) -> usize {
        let id = self.doc_len.len();
        let terms = Self::terms(text);
        self.doc_len.push(terms.len());
        self.total_len += terms.len();
        let doc = u32::try_from(id).expect("document count fits in u32");
        for t in terms {
            let postings = self.postings.entry(t).or_default();
            match postings.last_mut() {
                Some((d, tf)) if *d == doc => *tf += 1,
                _ => postings.push((doc, 1)),
            }
        }
        id
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.doc_len.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.doc_len.is_empty()
    }

    /// Number of distinct terms.
    pub fn vocabulary_size(&self) -> usize {
        self.postings.len()
    }

    /// Documents containing `term` (document frequency).
    pub fn doc_freq(&self, term: &str) -> usize {
        self.postings
            .get(&term.to_lowercase())
            .map(|p| p.len())
            .unwrap_or(0)
    }

    /// BM25 top-k for a free-text query, highest score first; ties broken
    /// by id. Documents scoring 0 are omitted.
    pub fn search(&self, query: &str, k: usize) -> Vec<KeywordHit> {
        let n = self.doc_len.len();
        if n == 0 {
            return Vec::new();
        }
        let avg_len = self.total_len as f64 / n as f64;
        // Dense accumulator: each document's score receives its additions
        // in query-term order, a repeated query term adding again.
        let mut scores = vec![0.0f64; n];
        for term in Self::terms(query) {
            let Some(postings) = self.postings.get(&term) else {
                continue;
            };
            let df = postings.len() as f64;
            // BM25 idf with the +1 inside the log (never negative).
            let idf = (((n as f64 - df + 0.5) / (df + 0.5)) + 1.0).ln();
            for &(doc, tf) in postings {
                let tf = tf as f64;
                let dl = self.doc_len[doc as usize] as f64;
                let denom = tf + K1 * (1.0 - B + B * dl / avg_len.max(1e-9));
                scores[doc as usize] += idf * tf * (K1 + 1.0) / denom;
            }
        }
        // Bounded heap selection: O(n log k), NaN-safe (total order),
        // identical tie-breaking to every other index (score desc, id
        // asc).
        let mut top = TopK::new(k);
        for (doc, &score) in scores.iter().enumerate() {
            if score > 0.0 {
                top.push(doc, score);
            }
        }
        top.into_sorted_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(texts: &[&str]) -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        for t in texts {
            idx.add(t);
        }
        idx
    }

    #[test]
    fn exact_keyword_match_wins() {
        let idx = index(&[
            "the cat sat on the mat",
            "sql joins combine tables",
            "dogs chase cats sometimes",
        ]);
        let hits = idx.search("sql joins", 3);
        assert_eq!(hits[0].0, 1);
    }

    #[test]
    fn rare_terms_outweigh_common() {
        // "data" appears everywhere, "awel" once.
        let idx = index(&[
            "data data data pipeline",
            "data processing at scale",
            "awel orchestrates data workflows",
        ]);
        let hits = idx.search("awel data", 3);
        assert_eq!(hits[0].0, 2);
    }

    #[test]
    fn no_match_returns_empty() {
        let idx = index(&["alpha beta", "gamma delta"]);
        assert!(idx.search("omega", 5).is_empty());
    }

    #[test]
    fn empty_index_returns_empty() {
        assert!(InvertedIndex::new().search("x", 5).is_empty());
    }

    #[test]
    fn length_normalisation_prefers_concise_docs() {
        let long = format!("relevant term {}", "padding words ".repeat(50));
        let idx = index(&[&long, "relevant term"]);
        let hits = idx.search("relevant term", 2);
        assert_eq!(hits[0].0, 1, "short exact doc should outrank padded doc");
    }

    #[test]
    fn case_insensitive_terms() {
        let idx = index(&["Quarterly REPORT"]);
        assert_eq!(idx.search("quarterly report", 1).len(), 1);
        assert_eq!(idx.doc_freq("RePoRt"), 1);
    }

    #[test]
    fn cjk_terms_indexed() {
        let idx = index(&["销售报表数据", "物理学论文"]);
        let hits = idx.search("销售", 2);
        assert_eq!(hits[0].0, 0);
    }

    #[test]
    fn counts_and_vocab() {
        let idx = index(&["a b b", "b c"]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.vocabulary_size(), 3);
        assert_eq!(idx.doc_freq("b"), 2);
        assert_eq!(idx.doc_freq("zzz"), 0);
        assert!(!idx.is_empty());
    }

    #[test]
    fn k_truncates() {
        let idx = index(&["term one", "term two", "term three"]);
        assert_eq!(idx.search("term", 2).len(), 2);
    }

    #[test]
    fn deterministic_tie_break() {
        let idx = index(&["same words here", "same words here"]);
        let hits = idx.search("same words", 2);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[1].0, 1);
    }
}
