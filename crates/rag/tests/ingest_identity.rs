//! Ingest identity: tokenization and embedding against frozen oracles.
//!
//! The tokenizer, the entity extractor and the hash embedder take ASCII
//! fast paths, hash bigrams without joining them, and copy a word out of
//! their scratch buffer only when they keep it. This suite keeps the
//! earlier straightforward versions as the oracle and asserts, over a
//! seeded corpus in many scripts, that the crate's functions produce the
//! same terms, the same entities and the same embedding *bits*, and that
//! a knowledge base answers every strategy exactly as reference indexes
//! fed through the oracle do.

mod common;

use std::collections::HashSet;
use std::sync::Arc;

use common::{assert_kb_matches_reference, Rng};
use dbgpt_rag::{
    Chunker, ChunkingStrategy, Embedder, Embedding, GraphIndex, HashEmbedder, InvertedIndex,
    KnowledgeBase,
};

// ---- oracles ---------------------------------------------------------------

/// Oracle tokenizer: lowercased alphanumeric terms, CJK chars
/// individually. The embedder's tokenizer and `InvertedIndex::terms` were
/// this same function.
fn oracle_terms(text: &str) -> Vec<String> {
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

const ORACLE_STOP_WORDS: &[&str] = &[
    "the", "a", "an", "is", "are", "was", "were", "of", "in", "on", "to", "and", "or", "for",
    "with", "by", "from", "at", "as", "it", "its", "this", "that", "be", "has", "have", "had",
    "what", "which", "who", "how", "why", "when", "where", "not", "no", "can", "will", "does",
    "do", "did", "into", "their", "they", "them", "these", "those", "also", "but", "if", "then",
];

/// Oracle entity extractor: content words of length ≥ 3 and CJK bigrams,
/// deduped through a hash set.
fn oracle_entities(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut current = String::new();
    let mut cjk_prev: Option<char> = None;
    let push = |s: String, out: &mut Vec<String>, seen: &mut HashSet<String>| {
        if s.len() >= 3 && !ORACLE_STOP_WORDS.contains(&s.as_str()) && seen.insert(s.clone()) {
            out.push(s);
        }
    };
    for c in text.chars() {
        if (0x4E00..=0x9FFF).contains(&(c as u32)) {
            if !current.is_empty() {
                push(std::mem::take(&mut current), &mut out, &mut seen);
            }
            if let Some(p) = cjk_prev {
                let bigram: String = [p, c].iter().collect();
                if seen.insert(bigram.clone()) {
                    out.push(bigram);
                }
            }
            cjk_prev = Some(c);
        } else if c.is_alphanumeric() || c == '_' {
            cjk_prev = None;
            current.extend(c.to_lowercase());
        } else {
            cjk_prev = None;
            if !current.is_empty() {
                push(std::mem::take(&mut current), &mut out, &mut seen);
            }
        }
    }
    if !current.is_empty() {
        push(current, &mut out, &mut seen);
    }
    out
}

/// Oracle feature-hashing embedder: salted FNV-1a over unigrams and over
/// bigrams joined with one space, then L2 normalisation.
struct OracleEmbedder {
    dim: usize,
}

impl OracleEmbedder {
    const SEED: u64 = 0x5EED;

    fn hash(token: &str, salt: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325 ^ Self::SEED.wrapping_mul(salt | 1);
        for &b in token.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

impl Embedder for OracleEmbedder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed(&self, text: &str) -> Embedding {
        let mut v = vec![0.0f32; self.dim];
        let tokens = oracle_terms(text);
        for t in &tokens {
            let h = Self::hash(t, 1);
            let idx = (h % self.dim as u64) as usize;
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[idx] += sign;
            let h2 = Self::hash(t, 7);
            let idx2 = (h2 % self.dim as u64) as usize;
            let sign2 = if (h2 >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[idx2] += 0.5 * sign2;
        }
        for pair in tokens.windows(2) {
            let joined = format!("{} {}", pair[0], pair[1]);
            let h = Self::hash(&joined, 13);
            let idx = (h % self.dim as u64) as usize;
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[idx] += 0.5 * sign;
        }
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        Embedding(v)
    }
}

// ---- seeded corpus -----------------------------------------------------------

/// Words in many scripts. Besides plain and mixed-case ASCII (stop words,
/// short words, `_`, digits) they cover Latin-1, Greek, Cyrillic, the
/// Turkish `İ` (lowercases to two chars), the Kelvin sign (lowercases to
/// ASCII `k`), full-width digits, kana and Hangul (alphanumeric, not CJK),
/// a combining accent (not alphanumeric), CJK runs, and CJK glued to
/// Latin.
const WORDS: &[&str] = &[
    "database",
    "Query",
    "SQL",
    "INDEX",
    "x",
    "ab",
    "abc",
    "the",
    "THE",
    "Where",
    "those",
    "snake_case",
    "_",
    "__init__",
    "v2",
    "2024",
    "3",
    "Café",
    "naïve",
    "Ångström",
    "ÆSIR",
    "straße",
    "ÉCOLE",
    "Σίσυφος",
    "ΟΔΟΣ",
    "αβγ",
    "Москва",
    "İstanbul",
    "İ",
    "\u{212A}elvin",
    "１２３",
    "データ",
    "데이터",
    "e\u{301}t\u{e9}",
    "销售报表",
    "知识库",
    "数据",
    "查",
    "SQL查询",
    "查询v2",
    "模型_id",
    "销售销售",
    "🚀launch",
];

/// Separators, including none (which glues neighbouring words).
const SEPS: &[&str] = &[
    " ", " ", " ", "  ", ", ", ";", "-", "\n", "\t", "。", "，", "·", "—", "", "!", "/",
];

fn text(rng: &mut Rng, words: usize) -> String {
    let mut s = String::new();
    for _ in 0..words {
        s.push_str(rng.pick(WORDS));
        s.push_str(rng.pick(SEPS));
    }
    s
}

/// Seeded documents, a few long enough to span several chunks, plus one
/// with hundreds of distinct entities.
fn corpus(seed: u64) -> Vec<String> {
    let mut rng = Rng(seed);
    let mut docs: Vec<String> = (0..120)
        .map(|i| {
            let n = if i % 17 == 0 { 300 } else { 1 + rng.below(40) };
            text(&mut rng, n)
        })
        .collect();
    let many: Vec<String> = (0..600)
        .map(|i| format!("entity{} Ent{}", i, i % 7))
        .collect();
    docs.push(many.join(" "));
    docs
}

fn queries(seed: u64) -> Vec<String> {
    let mut rng = Rng(seed ^ 0x5A5A);
    let mut out: Vec<String> = vec![
        String::new(),
        "the of and".into(),
        "İstanbul ΟΔΟΣ".into(),
        "销售报表 知识库".into(),
        "\u{212A}elvin kelvin".into(),
        "entity42 ent3".into(),
    ];
    for _ in 0..30 {
        let n = 1 + rng.below(6);
        out.push(text(&mut rng, n));
    }
    out
}

fn bits(e: &Embedding) -> Vec<u32> {
    e.0.iter().map(|x| x.to_bits()).collect()
}

// ---- tests -------------------------------------------------------------------

#[test]
fn terms_entities_and_embeddings_match_the_oracle() {
    for seed in [1u64, 2, 3] {
        let docs = corpus(seed);
        for t in docs.iter().chain(&queries(seed)) {
            assert_eq!(InvertedIndex::terms(t), oracle_terms(t), "terms of {t:?}");
            assert_eq!(
                GraphIndex::entities(t),
                oracle_entities(t),
                "entities of {t:?}"
            );
            for dim in [8, 128, 200] {
                assert_eq!(
                    bits(&HashEmbedder::with_dim(dim).embed(t)),
                    bits(&OracleEmbedder { dim }.embed(t)),
                    "embedding (dim {dim}) of {t:?}"
                );
            }
        }
    }
}

#[test]
fn long_inputs_dedupe_entities_like_the_oracle() {
    // Many repeats over a long text: every entity is kept once, in order
    // of first appearance, as in the oracle.
    let words: Vec<String> = (0..2_000)
        .map(|i| format!("w{}x {}", i % 700, i % 300))
        .collect();
    let t = words.join(" ");
    let got = GraphIndex::entities(&t);
    assert_eq!(got, oracle_entities(&t));
    assert_eq!(got.len(), 700 + 200);
}

#[test]
fn knowledge_base_matches_oracle_fed_reference() {
    for seed in [4u64, 5] {
        let docs = corpus(seed);
        let doc_ids: Vec<String> = (0..docs.len()).map(|i| format!("d{i}")).collect();
        let mut kb = KnowledgeBase::with_defaults();
        let mut oracle_kb = KnowledgeBase::new(
            Chunker::new(ChunkingStrategy::default()),
            Arc::new(OracleEmbedder { dim: 128 }),
        );
        for (id, t) in doc_ids.iter().zip(&docs) {
            kb.add_text(id, t);
            oracle_kb.add_text(id, t);
        }
        assert!(kb.chunk_count() > docs.len(), "some documents span chunks");
        assert_eq!(kb.fingerprint(), oracle_kb.fingerprint());
        assert!(!kb.has_hnsw_index(), "ingest builds no ANN index");
        assert_kb_matches_reference(
            &kb,
            &doc_ids,
            &OracleEmbedder { dim: 128 },
            oracle_terms,
            oracle_entities,
            &queries(seed),
            &format!("seed={seed}"),
        );
    }
}
