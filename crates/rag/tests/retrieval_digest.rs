//! Frozen digests of the knowledge base's retrieval results.
//!
//! A seeded corpus is ingested once; every strategy answers a seeded
//! query mix at several `k`, and each strategy's results (document
//! ids, chunk indexes and score bits, in rank order) fold into one FNV-1a
//! digest. The constants below were recorded on the code before its
//! sharded flat scan and partitioned vector index were deleted, so a
//! refactor of the retrieval code that moves any id, order or score bit
//! fails here.
//!
//! `VectorAnn` is digested with the HNSW index built on both storage
//! backends (f32 and scalar-quantized), under the default search config
//! and under a narrow beam with no exact rescoring, where the graph walk
//! and the quantized scores show through. The graph is seeded, so its
//! results are as reproducible as the exact strategies'.

use std::sync::Arc;

use dbgpt_obs::hash::Fnv1a;
use dbgpt_rag::{
    AnnBuildConfig, AnnStorage, Chunker, ChunkingStrategy, HashEmbedder, KnowledgeBase,
    RetrievalConfig, RetrievalStrategy,
};

const TOPICS: &[&str] = &[
    "storage", "query", "serving", "agents", "retrieval", "privacy", "sales", "cluster",
];
const WORDS: &[&str] = &[
    "btree", "compaction", "optimizer", "join", "replica", "routing", "planner", "workflow",
    "embedding", "recall", "checkpoint", "latency", "revenue", "orders", "schema", "token",
    "AWEL", "SMMF", "Text2SQL", "销售", "报表", "知识库",
];

/// xorshift64*: small, seeded, and independent of the crate under test.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

/// 300 documents of one to three paragraphs each.
fn knowledge_base() -> KnowledgeBase {
    let mut rng = Rng(0x5EED_0024);
    let mut kb = KnowledgeBase::new(
        Chunker::new(ChunkingStrategy::Paragraph { max_tokens: 24 }),
        Arc::new(HashEmbedder::new()),
    );
    for d in 0..300 {
        let paragraphs: Vec<String> = (0..1 + rng.below(3))
            .map(|_| {
                let t = rng.pick(TOPICS);
                let (w1, w2, w3) = (rng.pick(WORDS), rng.pick(WORDS), rng.pick(WORDS));
                format!(
                    "Team t{} reports on the {t} subsystem: {w1} interacts with {w2}. \
                     The {t} design tunes {w3} against {w1}.",
                    rng.below(40)
                )
            })
            .collect();
        kb.add_text(&format!("doc-{d}"), &paragraphs.join("\n\n"));
    }
    kb
}

fn queries() -> Vec<String> {
    let mut rng = Rng(0x0051_EB17);
    let mut out: Vec<String> = vec![
        String::new(),
        "the of and".into(),
        "zyzzyva".into(),
        "销售 报表".into(),
        "AWEL workflow planner".into(),
    ];
    for _ in 0..30 {
        out.push(format!(
            "what did team t{} say about {} {} in {}?",
            rng.below(40),
            rng.pick(WORDS),
            rng.pick(WORDS),
            rng.pick(TOPICS)
        ));
    }
    out
}

/// FNV-1a over every query's hits at k ∈ {1, 4, 10}: hit count, then
/// document id, chunk index and score bits of each hit, in rank order.
fn digest(kb: &KnowledgeBase, strategy: RetrievalStrategy) -> u64 {
    let mut h = Fnv1a::new();
    for q in queries() {
        for k in [1usize, 4, 10] {
            let hits = kb.retrieve(&q, k, strategy);
            h.write(&(hits.len() as u64).to_le_bytes());
            for hit in hits {
                h.write(hit.chunk.document_id.as_bytes());
                h.write_u8(0xff);
                h.write(&(hit.chunk.index as u64).to_le_bytes());
                h.write(&hit.score.to_bits().to_le_bytes());
            }
        }
    }
    h.finish()
}

#[test]
fn exact_strategies_match_frozen_digests() {
    let kb = knowledge_base();
    let got = [
        RetrievalStrategy::Vector,
        RetrievalStrategy::Keyword,
        RetrievalStrategy::Graph,
        RetrievalStrategy::Hybrid,
    ]
    .map(|s| (s.name(), digest(&kb, s)));
    assert_eq!(
        got,
        [
            ("vector", 0x2581_933b_bdd4_bf0f),
            ("keyword", 0xc156_1273_18eb_2f04),
            ("graph", 0x3025_dd05_4783_06fe),
            ("hybrid", 0x1731_b109_99f2_d3ff),
        ]
    );
}

#[test]
fn vector_ann_matches_frozen_digests_on_both_backends() {
    let narrow = |mut config: RetrievalConfig| {
        config.ann_ef_search = 10;
        config.ann_rescore = 0;
        config
    };
    let mut got = Vec::new();
    for storage in [AnnStorage::F32, AnnStorage::Quantized] {
        let mut kb = knowledge_base();
        kb.build_hnsw_index(AnnBuildConfig {
            storage,
            ..AnnBuildConfig::default()
        });
        let fingerprint = kb.vector_store().hnsw_fingerprint().expect("built");
        let default = digest(&kb, RetrievalStrategy::VectorAnn);
        kb.set_retrieval_config(narrow(kb.retrieval_config()));
        got.push((fingerprint, default, digest(&kb, RetrievalStrategy::VectorAnn)));
    }
    // With the default beam and rescoring, both backends return the
    // exact flat scan's results on this corpus.
    let exact = 0x2581_933b_bdd4_bf0f;
    assert_eq!(
        got,
        [
            (0x05f6_8b9a_c3e3_e17d, exact, 0x6cb3_e81d_34ed_2db1),
            (0x7596_96dc_573e_3dfb, exact, 0xc104_3ecc_4827_a3c9),
        ],
        "[f32, quantized]: (fingerprint, default digest, narrow digest)"
    );
}
