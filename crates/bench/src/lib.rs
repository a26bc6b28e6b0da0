#![warn(missing_docs)]

//! # dbgpt-bench — benchmark harness and experiment regeneration
//!
//! One binary per paper artifact (run with `cargo run -p dbgpt-bench
//! --bin <name> --release`):
//!
//! | Binary         | Regenerates |
//! |----------------|-------------|
//! | `table1`       | Table 1 — the probed capability matrix |
//! | `figure1`      | Figure 1 — the four-layer architecture + per-layer traffic |
//! | `figure2`      | Figure 2 — RAG recall/latency across retrieval strategies |
//! | `figure3`      | Figure 3 — the generative-data-analysis demo walk-through |
//! | `exp_text2sql` | Experiment E1 — base vs fine-tuned Text-to-SQL accuracy |
//! | `exp_smmf`     | Experiment E2 — SMMF routing/failover throughput |
//! | `exp_models`   | Experiment E7 — model-zoo trade-offs + per-model KBQA |
//!
//! Criterion micro-benchmarks (`cargo bench -p dbgpt-bench`): `sql_bench`
//! (E4), `rag_bench` (E5), `awel_bench` (E3), `agents_bench` (E6),
//! `smmf_bench` (E2). This library holds the shared workload generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dbgpt_rag::{AnnBuildConfig, Chunker, ChunkingStrategy, HashEmbedder, KnowledgeBase};
use dbgpt_sqlengine::Engine;
use std::sync::Arc;

/// Topic vocabulary for synthetic corpora; each document draws from one
/// topic so retrieval has a recoverable ground truth.
const TOPICS: &[(&str, &[&str])] = &[
    ("storage", &["btree", "compaction", "wal", "checkpoint", "page", "buffer"]),
    ("query", &["optimizer", "join", "predicate", "cardinality", "plan", "scan"]),
    ("serving", &["replica", "routing", "latency", "failover", "capacity", "worker"]),
    ("agents", &["planner", "aggregator", "workflow", "operator", "archive", "task"]),
    ("retrieval", &["embedding", "index", "recall", "ranking", "chunk", "corpus"]),
];

/// Entity-name pool woven into documents (teams/services). 60 names over
/// a 500-doc corpus means each name appears in ~8 documents.
const ENTITY_POOL: &[&str] = &[
    "argon", "basalt", "cobalt", "dynamo", "ember", "falcon", "garnet", "harbor", "indigo",
    "jasper", "krypton", "lumen", "marble", "nimbus", "onyx", "pylon", "quartz", "raven",
    "sable", "topaz", "umber", "vertex", "willow", "xenith", "yarrow", "zephyr", "anchor",
    "breeze", "cinder", "delta", "echo", "flint", "grove", "haven", "iris", "juniper",
    "kestrel", "lagoon", "mesa", "north", "opal", "prism", "quill", "ridge", "summit",
    "tundra", "ultra", "vapor", "wharf", "xylem", "yonder", "zenith", "atlas", "bay",
    "crest", "dune", "elm", "ford", "glen", "hollow",
];

/// A synthetic corpus document with its topic label (ground truth).
#[derive(Debug, Clone)]
pub struct CorpusDoc {
    /// Document id.
    pub id: String,
    /// Topic the document belongs to.
    pub topic: &'static str,
    /// Body text.
    pub text: String,
}

/// Generate `n` topic-labelled documents (seeded).
pub fn synthetic_corpus(n: usize, seed: u64) -> Vec<CorpusDoc> {
    let mut rng = StdRng::seed_from_u64(seed);
    let filler = [
        "the system", "we observe", "in practice", "measurements show", "the design",
        "under load", "operators report", "by default",
    ];
    (0..n)
        .map(|i| {
            let (topic, words) = TOPICS[i % TOPICS.len()];
            // Two named entities anchor the document (teams/services drawn
            // from a shared pool), so specific-document retrieval has a
            // recoverable signal without unique magic tokens.
            let e1 = ENTITY_POOL[rng.gen_range(0..ENTITY_POOL.len())];
            let e2 = ENTITY_POOL[rng.gen_range(0..ENTITY_POOL.len())];
            let mut text = format!(
                "Incident review by team {e1} concerning service {e2}. "
            );
            for _ in 0..4 {
                let w1 = words[rng.gen_range(0..words.len())];
                let w2 = words[rng.gen_range(0..words.len())];
                let f = filler[rng.gen_range(0..filler.len())];
                text.push_str(&format!("{f} {w1} interacts with {w2} in the {topic} subsystem. "));
            }
            text.push_str(&format!("Team {e1} tuned the {} settings for {e2}.", words[i % words.len()]));
            CorpusDoc {
                id: format!("doc-{i}"),
                topic,
                text,
            }
        })
        .collect()
}

/// Build a knowledge base over a synthetic corpus, with its HNSW index.
pub fn corpus_kb(docs: &[CorpusDoc]) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new(
        Chunker::new(ChunkingStrategy::Paragraph { max_tokens: 64 }),
        Arc::new(HashEmbedder::new()),
    );
    for d in docs {
        kb.add_text(&d.id, &d.text);
    }
    kb.build_hnsw_index(AnnBuildConfig::default());
    kb
}

/// Queries with ground-truth topics, one per topic.
pub fn corpus_queries() -> Vec<(&'static str, String)> {
    TOPICS
        .iter()
        .map(|(topic, words)| {
            (
                *topic,
                format!("how does {} relate to {} in {topic}?", words[0], words[1]),
            )
        })
        .collect()
}

/// Build a seeded orders table of `n` rows for SQL benchmarks.
pub fn orders_engine(n: usize, seed: u64) -> Engine {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = Engine::new();
    engine
        .execute("CREATE TABLE orders (id INT, user_id INT, amount FLOAT, category TEXT, month TEXT)")
        .expect("ddl");
    engine
        .execute("CREATE TABLE users (id INT, name TEXT, city TEXT)")
        .expect("ddl");
    let cats = ["books", "tech", "food", "toys"];
    let months = ["jan", "feb", "mar", "apr", "may", "jun"];
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        rows.push(format!(
            "({}, {}, {:.1}, '{}', '{}')",
            i,
            rng.gen_range(0..100),
            rng.gen_range(1.0..500.0),
            cats[rng.gen_range(0..cats.len())],
            months[rng.gen_range(0..months.len())],
        ));
        if rows.len() == 500 || i == n - 1 {
            engine
                .execute(&format!("INSERT INTO orders VALUES {}", rows.join(", ")))
                .expect("insert");
            rows.clear();
        }
    }
    let mut rows = Vec::new();
    for i in 0..100 {
        rows.push(format!("({i}, 'user{i}', 'city{}')", i % 10));
    }
    engine
        .execute(&format!("INSERT INTO users VALUES {}", rows.join(", ")))
        .expect("insert");
    engine
}

/// The harder task: retrieve one *specific* document. Each query is built
/// from a sampled document's own vocabulary (without copying a full
/// sentence), and the ground truth is that document id. With ~100
/// same-topic near-duplicates per document, hit@k separates the
/// strategies where topic-level recall saturates.
pub fn doc_queries(docs: &[CorpusDoc], n: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let d = &docs[rng.gen_range(0..docs.len())];
            // The query mentions the document's anchors plus a couple of
            // its topic words — enough signal to be findable, enough
            // overlap with ~8 sibling documents to be non-trivial.
            let raw: Vec<&str> = d
                .text
                .split_whitespace()
                .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric()))
                .collect();
            let anchor = |marker: &str| {
                raw.windows(2)
                    .find(|w| w[0] == marker)
                    .map(|w| w[1])
                    .unwrap_or(raw[0])
            };
            let team = anchor("team");
            let service = anchor("service");
            let words: Vec<&str> = raw.iter().copied().filter(|w| w.len() > 4).collect();
            let w1 = words[rng.gen_range(0..words.len())];
            let w2 = words[rng.gen_range(0..words.len())];
            (
                d.id.clone(),
                format!("what did team {team} report about {w1} and {w2} on service {service}?"),
            )
        })
        .collect()
}

/// Hit@k on the specific-document task.
pub fn hit_at_k(
    kb: &KnowledgeBase,
    queries: &[(String, String)],
    strategy: dbgpt_rag::RetrievalStrategy,
    k: usize,
) -> f64 {
    let mut hits = 0usize;
    for (target, q) in queries {
        if kb
            .retrieve(q, k, strategy)
            .iter()
            .any(|r| &r.chunk.document_id == target)
        {
            hits += 1;
        }
    }
    hits as f64 / queries.len().max(1) as f64
}

/// Recall@k: fraction of queries whose top-k hits contain a chunk of the
/// ground-truth topic.
pub fn recall_at_k(
    kb: &KnowledgeBase,
    docs: &[CorpusDoc],
    strategy: dbgpt_rag::RetrievalStrategy,
    k: usize,
) -> f64 {
    let queries = corpus_queries();
    let mut hits = 0usize;
    for (topic, q) in &queries {
        let results = kb.retrieve(q, k, strategy);
        let found = results.iter().any(|r| {
            docs.iter()
                .find(|d| d.id == r.chunk.document_id)
                .map(|d| d.topic == *topic)
                .unwrap_or(false)
        });
        if found {
            hits += 1;
        }
    }
    hits as f64 / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgpt_rag::RetrievalStrategy;

    #[test]
    fn corpus_is_deterministic_and_labelled() {
        let a = synthetic_corpus(20, 1);
        let b = synthetic_corpus(20, 1);
        assert_eq!(a.len(), 20);
        assert_eq!(a[0].text, b[0].text);
        assert_eq!(a[0].topic, "storage");
        assert_eq!(a[1].topic, "query");
    }

    #[test]
    fn kb_builds_and_recall_is_high_for_vector() {
        let docs = synthetic_corpus(50, 2);
        let kb = corpus_kb(&docs);
        assert!(kb.chunk_count() > 0);
        let recall = recall_at_k(&kb, &docs, RetrievalStrategy::Vector, 5);
        assert!(recall >= 0.8, "vector recall@5 = {recall}");
    }

    #[test]
    fn orders_engine_populates() {
        let mut e = orders_engine(1000, 3);
        let n = e.execute("SELECT COUNT(*) FROM orders").unwrap();
        assert_eq!(n.rows[0][0].as_i64(), Some(1000));
        let g = e
            .execute("SELECT category, SUM(amount) FROM orders GROUP BY category")
            .unwrap();
        assert_eq!(g.rows.len(), 4);
    }

    #[test]
    fn queries_cover_every_topic() {
        assert_eq!(corpus_queries().len(), TOPICS.len());
    }
}
