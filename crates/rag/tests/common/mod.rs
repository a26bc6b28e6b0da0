//! Reference retrieval algorithms shared by the identity suites.
//!
//! Straightforward map-based versions of the graph index, BM25, the flat
//! vector scan and reciprocal-rank fusion. Each takes its tokenizer and
//! embedder as arguments, so a suite can feed them the crate's own
//! functions (to pin the index algorithms) or frozen copies of earlier
//! ones (to pin tokenization).

// Each test binary compiles this module on its own and uses part of it.
#![allow(dead_code)]

use std::collections::{HashMap, HashSet};

use dbgpt_rag::{
    dot, Embedder, Embedding, GraphIndex, InvertedIndex, KnowledgeBase, RetrievalStrategy, TopK,
    VectorStore,
};

/// Text → terms (or entities).
pub type Tokenize = fn(&str) -> Vec<String>;

/// Reference graph index: string-keyed maps and hash-map accumulation.
pub struct RefGraph {
    entities: Tokenize,
    pub entity_chunks: HashMap<String, HashSet<usize>>,
    pub edges: HashMap<String, HashSet<String>>,
    pub chunk_count: usize,
}

impl Default for RefGraph {
    fn default() -> Self {
        RefGraph::with(GraphIndex::entities)
    }
}

impl RefGraph {
    /// An empty reference graph extracting entities with `entities`.
    pub fn with(entities: Tokenize) -> Self {
        RefGraph {
            entities,
            entity_chunks: HashMap::new(),
            edges: HashMap::new(),
            chunk_count: 0,
        }
    }

    pub fn add(&mut self, text: &str) {
        let id = self.chunk_count;
        self.chunk_count += 1;
        let ents = (self.entities)(text);
        for e in &ents {
            self.entity_chunks.entry(e.clone()).or_default().insert(id);
        }
        for (i, a) in ents.iter().enumerate() {
            for b in &ents[i + 1..] {
                self.edges.entry(a.clone()).or_default().insert(b.clone());
                self.edges.entry(b.clone()).or_default().insert(a.clone());
            }
        }
    }

    pub fn neighbours(&self, entity: &str) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .edges
            .get(&entity.to_lowercase())
            .map(|s| s.iter().map(String::as_str).collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    pub fn search(&self, query: &str, k: usize) -> Vec<(usize, f64)> {
        let q_entities = (self.entities)(query);
        if q_entities.is_empty() || self.chunk_count == 0 {
            return Vec::new();
        }
        let mut expanded: HashMap<String, f64> = HashMap::new();
        for e in &q_entities {
            expanded.insert(e.clone(), 1.0);
        }
        for e in &q_entities {
            if let Some(ns) = self.edges.get(e) {
                for n in ns {
                    expanded.entry(n.clone()).or_insert(0.5);
                }
            }
        }
        let mut scores: HashMap<usize, f64> = HashMap::new();
        for (entity, weight) in &expanded {
            if let Some(chunks) = self.entity_chunks.get(entity) {
                for &c in chunks {
                    *scores.entry(c).or_insert(0.0) += weight;
                }
            }
        }
        let norm = q_entities.len() as f64;
        let mut top = TopK::new(k);
        for (c, s) in scores {
            top.push(c, s / norm);
        }
        top.into_sorted_vec()
    }
}

/// Reference BM25: per-term `HashMap` postings and hash-map accumulation.
pub struct RefBm25 {
    terms: Tokenize,
    pub postings: HashMap<String, HashMap<usize, u32>>,
    doc_len: Vec<usize>,
    total_len: usize,
}

impl Default for RefBm25 {
    fn default() -> Self {
        RefBm25::with(InvertedIndex::terms)
    }
}

impl RefBm25 {
    /// An empty reference index splitting text with `terms`.
    pub fn with(terms: Tokenize) -> Self {
        RefBm25 {
            terms,
            postings: HashMap::new(),
            doc_len: Vec::new(),
            total_len: 0,
        }
    }

    pub fn add(&mut self, text: &str) {
        let id = self.doc_len.len();
        let terms = (self.terms)(text);
        self.doc_len.push(terms.len());
        self.total_len += terms.len();
        for t in terms {
            *self.postings.entry(t).or_default().entry(id).or_insert(0) += 1;
        }
    }

    pub fn search(&self, query: &str, k: usize) -> Vec<(usize, f64)> {
        let (k1, b) = (1.2, 0.75);
        let n = self.doc_len.len();
        if n == 0 {
            return Vec::new();
        }
        let avg_len = self.total_len as f64 / n as f64;
        let mut scores: HashMap<usize, f64> = HashMap::new();
        for term in (self.terms)(query) {
            let Some(postings) = self.postings.get(&term) else {
                continue;
            };
            let df = postings.len() as f64;
            let idf = (((n as f64 - df + 0.5) / (df + 0.5)) + 1.0).ln();
            for (&doc, &tf) in postings {
                let tf = tf as f64;
                let dl = self.doc_len[doc] as f64;
                let denom = tf + k1 * (1.0 - b + b * dl / avg_len.max(1e-9));
                *scores.entry(doc).or_insert(0.0) += idf * tf * (k1 + 1.0) / denom;
            }
        }
        let mut top = TopK::new(k);
        for (doc, score) in scores {
            if score > 0.0 {
                top.push(doc, score);
            }
        }
        top.into_sorted_vec()
    }
}

/// Reference flat scan: one [`dot`] per stored vector, in id order.
pub fn ref_flat(store: &VectorStore, query: &Embedding, k: usize) -> Vec<(usize, f32)> {
    let q = query.unit();
    let mut top = TopK::new(k);
    for i in 0..store.len() {
        top.push(i, dot(&q, store.get(i).unwrap()));
    }
    top.into_sorted_vec()
}

/// Reference RRF over the three reference rankings.
pub fn ref_hybrid(
    store: &VectorStore,
    bm25: &RefBm25,
    graph: &RefGraph,
    embedder: &dyn Embedder,
    query: &str,
    k: usize,
) -> Vec<(usize, f64)> {
    let rankings = [
        ref_flat(store, &embedder.embed(query), k * 2)
            .into_iter()
            .map(|(i, _)| i)
            .collect::<Vec<_>>(),
        bm25.search(query, k * 2)
            .into_iter()
            .map(|(i, _)| i)
            .collect(),
        graph
            .search(query, k * 2)
            .into_iter()
            .map(|(i, _)| i)
            .collect(),
    ];
    let mut scores: HashMap<usize, f64> = HashMap::new();
    for ranking in &rankings {
        for (rank, &id) in ranking.iter().enumerate() {
            *scores.entry(id).or_insert(0.0) += 1.0 / (60.0 + rank as f64 + 1.0);
        }
    }
    let mut top = TopK::new(k);
    for (id, s) in scores {
        top.push(id, s);
    }
    top.into_sorted_vec()
}

/// Assert that `kb` answers every query under `Vector`, `Keyword`,
/// `Graph` and `Hybrid` with the ids and score bits of the reference
/// indexes built over the same chunks with `embedder`, `terms` and
/// `entities`. `doc_ids` lists the ingested documents in ingest order.
pub fn assert_kb_matches_reference(
    kb: &KnowledgeBase,
    doc_ids: &[String],
    embedder: &dyn Embedder,
    terms: Tokenize,
    entities: Tokenize,
    queries: &[String],
    label: &str,
) {
    // Chunk id → text, in ingest order, plus the reference indexes.
    let mut key_to_id = HashMap::new();
    let mut store = VectorStore::new();
    let mut bm25 = RefBm25::with(terms);
    let mut graph = RefGraph::with(entities);
    for id in doc_ids {
        for c in kb.document_chunks(id) {
            key_to_id.insert((c.document_id.clone(), c.index), store.len());
            store.add(embedder.embed(&c.text));
            bm25.add(&c.text);
            graph.add(&c.text);
        }
    }
    assert_eq!(store.len(), kb.chunk_count());
    for q in queries {
        for k in [0, 1, 4, store.len() + 3] {
            let got = |strategy| -> Vec<(usize, f64)> {
                kb.retrieve(q, k, strategy)
                    .into_iter()
                    .map(|h| (key_to_id[&(h.chunk.document_id, h.chunk.index)], h.score))
                    .collect()
            };
            let what = |s: &str| format!("{s} {label} q={q:?} k={k}");
            let vector: Vec<(usize, f64)> = ref_flat(&store, &embedder.embed(q), k)
                .into_iter()
                .map(|(i, s)| (i, s as f64))
                .collect();
            assert_bits_f64(&got(RetrievalStrategy::Vector), &vector, &what("vector"));
            assert_bits_f64(
                &got(RetrievalStrategy::Keyword),
                &bm25.search(q, k),
                &what("keyword"),
            );
            assert_bits_f64(
                &got(RetrievalStrategy::Graph),
                &graph.search(q, k),
                &what("graph"),
            );
            assert_bits_f64(
                &got(RetrievalStrategy::Hybrid),
                &ref_hybrid(&store, &bm25, &graph, embedder, q, k),
                &what("hybrid"),
            );
        }
    }
}

/// SplitMix64: a tiny seeded generator, so every case is reproducible.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

pub fn assert_bits_f64(got: &[(usize, f64)], want: &[(usize, f64)], what: &str) {
    let got: Vec<(usize, u64)> = got.iter().map(|&(i, s)| (i, s.to_bits())).collect();
    let want: Vec<(usize, u64)> = want.iter().map(|&(i, s)| (i, s.to_bits())).collect();
    assert_eq!(got, want, "{what}");
}
