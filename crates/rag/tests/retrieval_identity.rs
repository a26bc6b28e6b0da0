//! Bit-identity of the retrieval indexes against reference algorithms.
//!
//! The graph index, BM25 and the flat vector scan score into dense arrays
//! and an eight-row dot kernel. This suite keeps the straightforward
//! map-based algorithms as a small reference and asserts that, over
//! seeded corpora and query mixes, every strategy returns the same ids
//! with the same score *bits* — including the awkward cases: CJK text,
//! repeated query terms, unknown entities, stop-word-only queries, k = 0,
//! k > n and zero vectors.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dbgpt_rag::{
    dot, Chunker, ChunkingStrategy, Embedder, Embedding, GraphIndex, HashEmbedder, InvertedIndex,
    KnowledgeBase, RetrievalConfig, RetrievalStrategy, TopK, VectorStore,
};

// ---- reference algorithms ------------------------------------------------

/// Reference graph index: string-keyed maps and hash-map accumulation.
#[derive(Default)]
struct RefGraph {
    entity_chunks: HashMap<String, HashSet<usize>>,
    edges: HashMap<String, HashSet<String>>,
    chunk_count: usize,
}

impl RefGraph {
    fn add(&mut self, text: &str) {
        let id = self.chunk_count;
        self.chunk_count += 1;
        let ents = GraphIndex::entities(text);
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

    fn neighbours(&self, entity: &str) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .edges
            .get(&entity.to_lowercase())
            .map(|s| s.iter().map(String::as_str).collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    fn search(&self, query: &str, k: usize) -> Vec<(usize, f64)> {
        let q_entities = GraphIndex::entities(query);
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
#[derive(Default)]
struct RefBm25 {
    postings: HashMap<String, HashMap<usize, u32>>,
    doc_len: Vec<usize>,
    total_len: usize,
}

impl RefBm25 {
    fn add(&mut self, text: &str) {
        let id = self.doc_len.len();
        let terms = InvertedIndex::terms(text);
        self.doc_len.push(terms.len());
        self.total_len += terms.len();
        for t in terms {
            *self.postings.entry(t).or_default().entry(id).or_insert(0) += 1;
        }
    }

    fn search(&self, query: &str, k: usize) -> Vec<(usize, f64)> {
        let (k1, b) = (1.2, 0.75);
        let n = self.doc_len.len();
        if n == 0 {
            return Vec::new();
        }
        let avg_len = self.total_len as f64 / n as f64;
        let mut scores: HashMap<usize, f64> = HashMap::new();
        for term in InvertedIndex::terms(query) {
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
fn ref_flat(store: &VectorStore, query: &Embedding, k: usize) -> Vec<(usize, f32)> {
    let q = query.unit();
    let mut top = TopK::new(k);
    for i in 0..store.len() {
        top.push(i, dot(&q, store.get(i).unwrap()));
    }
    top.into_sorted_vec()
}

/// Reference RRF over the three reference rankings.
fn ref_hybrid(
    store: &VectorStore,
    bm25: &RefBm25,
    graph: &RefGraph,
    embedder: &HashEmbedder,
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

// ---- seeded corpora --------------------------------------------------------

/// SplitMix64: a tiny seeded generator, so every case is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

/// Content words (shared across documents so the graph gets dense),
/// stop words, and CJK fragments (single chars for BM25, bigrams for the
/// graph).
const WORDS: &[&str] = &[
    "database",
    "query",
    "index",
    "vector",
    "graph",
    "retrieval",
    "agent",
    "workflow",
    "schema",
    "revenue",
    "latency",
    "cluster",
    "replica",
    "privacy",
    "model",
    "token",
    "report",
    "chart",
    "sales",
    "orders",
    "Users",
    "SQL",
    "awel",
    "smmf",
    "rag",
    "kbqa",
];
const STOP: &[&str] = &["the", "of", "and", "is", "to", "what", "how", "with"];
const CJK: &[&str] = &["销售", "报表", "数据", "查询", "模型", "知识库"];
const UNKNOWN: &[&str] = &["zyzzyva", "quux", "未知词"];

fn sentence(rng: &mut Rng, words: usize) -> String {
    (0..words)
        .map(|_| match rng.below(10) {
            0..=5 => rng.pick(WORDS).to_string(),
            6 | 7 => rng.pick(STOP).to_string(),
            _ => rng.pick(CJK).to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn corpus(seed: u64, docs: usize) -> Vec<String> {
    let mut rng = Rng(seed);
    (0..docs)
        .map(|_| {
            let n = 1 + rng.below(24);
            sentence(&mut rng, n)
        })
        .collect()
}

/// Queries covering every edge case plus seeded random ones.
fn queries(seed: u64) -> Vec<String> {
    let mut rng = Rng(seed ^ 0xA5A5);
    let mut out: Vec<String> = vec![
        String::new(),
        "the of and".into(),
        "is what how".into(),
        "zyzzyva quux".into(),
        "未知词".into(),
        "database database database".into(),
        "sales sales report report".into(),
        "销售报表 数据".into(),
        "知识库 查询 模型".into(),
        "Database QUERY index".into(),
        "awel zyzzyva".into(),
        "sql".into(),
        "rag, kbqa; smmf!".into(),
    ];
    for _ in 0..40 {
        let n = 1 + rng.below(8);
        let mut q = sentence(&mut rng, n);
        if rng.below(4) == 0 {
            q.push(' ');
            q.push_str(rng.pick(UNKNOWN));
        }
        out.push(q);
    }
    out
}

fn ks(n: usize) -> [usize; 5] {
    [0, 1, 4, 9, n + 5]
}

fn assert_bits_f64(got: &[(usize, f64)], want: &[(usize, f64)], what: &str) {
    let got: Vec<(usize, u64)> = got.iter().map(|&(i, s)| (i, s.to_bits())).collect();
    let want: Vec<(usize, u64)> = want.iter().map(|&(i, s)| (i, s.to_bits())).collect();
    assert_eq!(got, want, "{what}");
}

fn assert_bits_f32(got: &[(usize, f32)], want: &[(usize, f32)], what: &str) {
    let got: Vec<(usize, u32)> = got.iter().map(|&(i, s)| (i, s.to_bits())).collect();
    let want: Vec<(usize, u32)> = want.iter().map(|&(i, s)| (i, s.to_bits())).collect();
    assert_eq!(got, want, "{what}");
}

// ---- tests -------------------------------------------------------------------

#[test]
fn graph_index_matches_reference() {
    for seed in [1u64, 2, 3] {
        let texts = corpus(seed, 300);
        let mut graph = GraphIndex::new();
        let mut reference = RefGraph::default();
        for t in &texts {
            graph.add(t);
            reference.add(t);
        }
        assert_eq!(graph.len(), reference.chunk_count);
        assert_eq!(graph.node_count(), reference.entity_chunks.len());
        assert_eq!(
            graph.edge_count(),
            reference.edges.values().map(HashSet::len).sum::<usize>() / 2
        );
        for e in WORDS
            .iter()
            .chain(CJK)
            .chain(UNKNOWN)
            .chain(["SALES", "售报"].iter())
        {
            assert_eq!(
                graph.neighbours(e),
                reference.neighbours(e),
                "neighbours of {e}"
            );
        }
        for q in queries(seed) {
            for k in ks(texts.len()) {
                assert_bits_f64(
                    &graph.search(&q, k),
                    &reference.search(&q, k),
                    &format!("graph seed={seed} q={q:?} k={k}"),
                );
            }
        }
    }
}

#[test]
fn bm25_matches_reference() {
    for seed in [4u64, 5, 6] {
        let texts = corpus(seed, 300);
        let mut idx = InvertedIndex::new();
        let mut reference = RefBm25::default();
        for t in &texts {
            idx.add(t);
            reference.add(t);
        }
        assert_eq!(idx.vocabulary_size(), reference.postings.len());
        for (term, postings) in &reference.postings {
            assert_eq!(idx.doc_freq(term), postings.len(), "df of {term}");
        }
        for q in queries(seed) {
            for k in ks(texts.len()) {
                assert_bits_f64(
                    &idx.search(&q, k),
                    &reference.search(&q, k),
                    &format!("bm25 seed={seed} q={q:?} k={k}"),
                );
            }
        }
    }
}

#[test]
fn empty_indexes_match_reference() {
    for q in queries(0) {
        assert_eq!(
            GraphIndex::new().search(&q, 3),
            RefGraph::default().search(&q, 3)
        );
        assert_eq!(
            InvertedIndex::new().search(&q, 3),
            RefBm25::default().search(&q, 3)
        );
        assert!(VectorStore::new()
            .search_flat(&HashEmbedder::new().embed(&q), 3)
            .is_empty());
    }
}

/// A store of seeded text embeddings plus degenerate rows: an all-zero
/// row, a row of negative zeros, and one whose products with a
/// negative-orthant query are all `-0.0`.
fn vector_store(seed: u64, n: usize) -> (VectorStore, HashEmbedder) {
    let embedder = HashEmbedder::new();
    let mut store = VectorStore::new();
    for (i, t) in corpus(seed, n).iter().enumerate() {
        match i % 97 {
            13 => store.add(Embedding(vec![0.0; embedder.dim()])),
            14 => store.add(Embedding(vec![-0.0; embedder.dim()])),
            _ => store.add(embedder.embed(t)),
        };
    }
    (store, embedder)
}

fn vector_queries(seed: u64, embedder: &HashEmbedder) -> Vec<Embedding> {
    let dim = embedder.dim();
    let mut out: Vec<Embedding> = queries(seed).iter().map(|q| embedder.embed(q)).collect();
    out.push(Embedding(vec![0.0; dim]));
    out.push(Embedding(vec![-1.0; dim]));
    out.push(Embedding(vec![1.0; dim]));
    out
}

#[test]
fn flat_scan_matches_reference_sequential_and_sharded() {
    for seed in [7u64, 8] {
        // 1003 rows: not a multiple of eight, so every shard has a tail.
        let (store, embedder) = vector_store(seed, 1003);
        let configs = [
            RetrievalConfig::SEQUENTIAL,
            RetrievalConfig::default(),
            RetrievalConfig {
                threads: 2,
                topk_crossover: 0,
                ..RetrievalConfig::default()
            },
            RetrievalConfig {
                threads: 3,
                topk_crossover: 0,
                ..RetrievalConfig::default()
            },
            RetrievalConfig {
                threads: 8,
                topk_crossover: 0,
                ..RetrievalConfig::default()
            },
        ];
        for q in vector_queries(seed, &embedder) {
            for k in ks(store.len()) {
                let want = ref_flat(&store, &q, k);
                for cfg in &configs {
                    assert_bits_f32(
                        &store.search_flat_with(&q, k, cfg),
                        &want,
                        &format!("flat seed={seed} k={k} threads={}", cfg.threads),
                    );
                }
            }
        }
    }
}

#[test]
fn kernel_matches_dot_bitwise_including_zero_rows() {
    let (store, embedder) = vector_store(9, 203);
    for q in vector_queries(9, &embedder) {
        let unit = q.unit();
        // k = n: every stored row comes back with its kernel score.
        let hits = store.search_flat_with(&q, store.len(), &RetrievalConfig::SEQUENTIAL);
        assert_eq!(hits.len(), store.len());
        for (id, score) in hits {
            let want = dot(&unit, store.get(id).unwrap());
            assert_eq!(
                score.to_bits(),
                want.to_bits(),
                "row {id}: {score} vs {want}"
            );
        }
    }
    // The sum identity shows on a row whose every product is -0.0: a
    // kernel starting from +0.0 would return +0.0 here.
    let mut store = VectorStore::new();
    for _ in 0..16 {
        store.add(Embedding(vec![0.0; 8]));
    }
    let q = Embedding(vec![-1.0; 8]);
    let want = dot(&q.unit(), store.get(0).unwrap());
    for (_, score) in store.search_flat_with(&q, 16, &RetrievalConfig::SEQUENTIAL) {
        assert_eq!(score.to_bits(), want.to_bits());
    }
}

#[test]
fn ivf_probe_scores_match_dot_and_shard_identically() {
    let (mut store, embedder) = vector_store(10, 1200);
    store.build_partitions(12);
    let parallel = RetrievalConfig {
        threads: 3,
        topk_crossover: 0,
        ..RetrievalConfig::default()
    };
    for q in vector_queries(10, &embedder) {
        let unit = q.unit();
        for k in [1, 4, 9] {
            let seq = store.search_ivf_with(&q, k, 3, &RetrievalConfig::SEQUENTIAL);
            assert_bits_f32(
                &store.search_ivf_with(&q, k, 3, &parallel),
                &seq,
                "ivf shards",
            );
            for (id, score) in seq {
                let want = dot(&unit, store.get(id).unwrap());
                assert_eq!(score.to_bits(), want.to_bits(), "ivf row {id}");
            }
        }
    }
}

#[test]
fn knowledge_base_strategies_match_reference() {
    for seed in [11u64, 12] {
        let embedder = HashEmbedder::new();
        let mut kb = KnowledgeBase::new(
            Chunker::new(ChunkingStrategy::Paragraph { max_tokens: 12 }),
            Arc::new(embedder.clone()),
        );
        let docs = corpus(seed, 150);
        for (i, t) in docs.iter().enumerate() {
            kb.add_text(&format!("d{i}"), t);
        }
        // Chunk id → text, in ingest order, plus the reference indexes.
        let mut key_to_id = HashMap::new();
        let mut store = VectorStore::new();
        let mut bm25 = RefBm25::default();
        let mut graph = RefGraph::default();
        for i in 0..docs.len() {
            for c in kb.document_chunks(&format!("d{i}")) {
                key_to_id.insert((c.document_id.clone(), c.index), store.len());
                store.add(embedder.embed(&c.text));
                bm25.add(&c.text);
                graph.add(&c.text);
            }
        }
        assert_eq!(store.len(), kb.chunk_count());
        for q in queries(seed) {
            for k in [0, 1, 4, store.len() + 3] {
                let got = |strategy| -> Vec<(usize, f64)> {
                    kb.retrieve(&q, k, strategy)
                        .into_iter()
                        .map(|h| (key_to_id[&(h.chunk.document_id, h.chunk.index)], h.score))
                        .collect()
                };
                let what = |s: &str| format!("{s} seed={seed} q={q:?} k={k}");
                let vector: Vec<(usize, f64)> = ref_flat(&store, &embedder.embed(&q), k)
                    .into_iter()
                    .map(|(i, s)| (i, s as f64))
                    .collect();
                assert_bits_f64(&got(RetrievalStrategy::Vector), &vector, &what("vector"));
                assert_bits_f64(
                    &got(RetrievalStrategy::Keyword),
                    &bm25.search(&q, k),
                    &what("keyword"),
                );
                assert_bits_f64(
                    &got(RetrievalStrategy::Graph),
                    &graph.search(&q, k),
                    &what("graph"),
                );
                assert_bits_f64(
                    &got(RetrievalStrategy::Hybrid),
                    &ref_hybrid(&store, &bm25, &graph, &embedder, &q, k),
                    &what("hybrid"),
                );
            }
        }
    }
}
