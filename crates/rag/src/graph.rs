//! The graph index: entity co-occurrence knowledge graph.
//!
//! The paper's knowledge construction "integrates … graph index methods,
//! facilitating precise context-relevant data retrieval" (§2.3). Here the
//! graph's nodes are *entities* (salient content terms) and its edges are
//! chunk-level co-occurrences. Retrieval expands a query's entities one hop
//! through the graph, then scores chunks by direct entity matches plus
//! discounted neighbour matches — which lets the graph index find chunks
//! that share no literal keyword with the query, via an intermediate
//! document that links the vocabulary.

use std::collections::{HashMap, HashSet};

use crate::inverted::is_cjk;
use crate::topk::TopK;

/// Weight of a one-hop (neighbour) entity match relative to a direct match.
const NEIGHBOUR_WEIGHT: f64 = 0.5;

/// Terms too common/structural to be entities.
const STOP_WORDS: &[&str] = &[
    "the", "a", "an", "is", "are", "was", "were", "of", "in", "on", "to", "and", "or", "for",
    "with", "by", "from", "at", "as", "it", "its", "this", "that", "be", "has", "have", "had",
    "what", "which", "who", "how", "why", "when", "where", "not", "no", "can", "will", "does",
    "do", "did", "into", "their", "they", "them", "these", "those", "also", "but", "if", "then",
];

/// Byte length of the longest entry in [`STOP_WORDS`], computed at
/// compile time.
const STOP_WORD_MAX_LEN: usize = {
    let (mut max, mut i) = (0, 0);
    while i < STOP_WORDS.len() {
        let len = STOP_WORDS[i].len();
        max = if len > max { len } else { max };
        i += 1;
    }
    max
};

/// Is `s` a stop word? Longer words skip the list without comparing bytes.
fn is_stop_word(s: &str) -> bool {
    s.len() <= STOP_WORD_MAX_LEN && STOP_WORDS.contains(&s)
}

/// Append `entity` to `out` unless `seen` (every entry of `out`) has it.
fn push_new(out: &mut Vec<String>, seen: &mut HashSet<String>, entity: &str) {
    if !seen.contains(entity) {
        seen.insert(entity.to_owned());
        out.push(entity.to_owned());
    }
}

/// A scored hit: `(chunk id, graph score)`.
pub type GraphHit = (usize, f64);

/// The co-occurrence graph index.
///
/// Entities are interned to dense `u32` ids on first sight, so the graph
/// and the entity → chunk lists are plain vectors indexed by id, and a
/// search accumulates into dense arrays instead of hash maps.
#[derive(Debug, Clone, Default)]
pub struct GraphIndex {
    /// entity → dense id.
    ids: HashMap<String, u32>,
    /// id → entity.
    names: Vec<String>,
    /// id → chunk ids containing the entity, ascending.
    entity_chunks: Vec<Vec<u32>>,
    /// id → co-occurring entity ids, ascending.
    edges: Vec<Vec<u32>>,
    chunk_count: usize,
}

impl GraphIndex {
    /// Empty index.
    pub fn new() -> Self {
        GraphIndex::default()
    }

    /// Extract the entity terms of `text`: lowercased content words of
    /// length ≥ 3 (CJK chars are grouped into bigram entities), each once,
    /// in order of first appearance.
    pub fn entities(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        // One scratch buffer for the whole text: a word is copied out of
        // it only when it is kept.
        let mut current = String::new();
        let mut cjk_prev: Option<char> = None;
        // The trailing space ends the last word.
        for c in text.chars().chain([' ']) {
            if (c.is_alphanumeric() || c == '_') && !is_cjk(c) {
                cjk_prev = None;
                if c.is_ascii() {
                    current.push(c.to_ascii_lowercase());
                } else {
                    current.extend(c.to_lowercase());
                }
                continue;
            }
            if current.len() >= 3 && !is_stop_word(&current) {
                push_new(&mut out, &mut seen, &current);
            }
            current.clear();
            if !is_cjk(c) {
                cjk_prev = None;
                continue;
            }
            // CJK bigrams as entities (covers most Chinese nouns).
            if let Some(p) = cjk_prev {
                let mut buf = [0u8; 8];
                let n = p.encode_utf8(&mut buf).len();
                let m = c.encode_utf8(&mut buf[n..]).len();
                let bigram = std::str::from_utf8(&buf[..n + m]).expect("two encoded chars");
                push_new(&mut out, &mut seen, bigram);
            }
            cjk_prev = Some(c);
        }
        out
    }

    /// The id of `entity`, interning it if it is new.
    fn intern(&mut self, entity: String) -> u32 {
        if let Some(&id) = self.ids.get(&entity) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("entity count fits in u32");
        self.ids.insert(entity.clone(), id);
        self.names.push(entity);
        self.entity_chunks.push(Vec::new());
        self.edges.push(Vec::new());
        id
    }

    /// Add `b` to `a`'s neighbour set (kept sorted).
    fn link(&mut self, a: u32, b: u32) {
        let set = &mut self.edges[a as usize];
        if let Err(at) = set.binary_search(&b) {
            set.insert(at, b);
        }
    }

    /// Index one chunk; its id is its insertion index.
    pub fn add(&mut self, text: &str) -> usize {
        let id = self.chunk_count;
        self.chunk_count += 1;
        let chunk = u32::try_from(id).expect("chunk count fits in u32");
        let ents: Vec<u32> = Self::entities(text)
            .into_iter()
            .map(|e| self.intern(e))
            .collect();
        // `entities` deduplicates and chunk ids only grow, so each list
        // stays ascending.
        for &e in &ents {
            self.entity_chunks[e as usize].push(chunk);
        }
        for (i, &a) in ents.iter().enumerate() {
            for &b in &ents[i + 1..] {
                self.link(a, b);
                self.link(b, a);
            }
        }
        id
    }

    /// Number of indexed chunks.
    pub fn len(&self) -> usize {
        self.chunk_count
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.chunk_count == 0
    }

    /// Number of entity nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Direct neighbours of an entity.
    pub fn neighbours(&self, entity: &str) -> Vec<&str> {
        let Some(&id) = self.ids.get(&entity.to_lowercase()) else {
            return Vec::new();
        };
        let mut v: Vec<&str> = self.edges[id as usize]
            .iter()
            .map(|&n| self.names[n as usize].as_str())
            .collect();
        v.sort_unstable();
        v
    }

    /// Graph search: score = direct entity hits + 0.5 × one-hop entity
    /// hits, normalised by query entity count.
    pub fn search(&self, query: &str, k: usize) -> Vec<GraphHit> {
        let q_entities = Self::entities(query);
        if q_entities.is_empty() || self.chunk_count == 0 {
            return Vec::new();
        }
        // One-hop expansion into a weight per entity id: query entities
        // weigh 1.0, their neighbours 0.5. Unknown query entities match
        // nothing but still count towards the normalisation.
        let known: Vec<u32> = q_entities
            .iter()
            .filter_map(|e| self.ids.get(e).copied())
            .collect();
        let mut weight = vec![0.0f64; self.names.len()];
        for &e in &known {
            weight[e as usize] = 1.0;
        }
        for &e in &known {
            for &n in &self.edges[e as usize] {
                if weight[n as usize] == 0.0 {
                    weight[n as usize] = NEIGHBOUR_WEIGHT;
                }
            }
        }
        // Every addend is 1.0 or 0.5, so each sum is exact and the order
        // of additions cannot change a score.
        let mut scores = vec![0.0f64; self.chunk_count];
        for (chunks, &w) in self.entity_chunks.iter().zip(&weight) {
            if w > 0.0 {
                for &c in chunks {
                    scores[c as usize] += w;
                }
            }
        }
        let norm = q_entities.len() as f64;
        let mut top = TopK::new(k);
        for (c, &s) in scores.iter().enumerate() {
            if s > 0.0 {
                top.push(c, s / norm);
            }
        }
        top.into_sorted_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(texts: &[&str]) -> GraphIndex {
        let mut g = GraphIndex::new();
        for t in texts {
            g.add(t);
        }
        g
    }

    #[test]
    fn entity_extraction_filters_stopwords_and_short() {
        let ents = GraphIndex::entities("The AWEL language is a DAG of operators");
        assert!(ents.contains(&"awel".to_string()));
        assert!(ents.contains(&"language".to_string()));
        assert!(ents.contains(&"dag".to_string()));
        assert!(!ents.contains(&"the".to_string()));
        assert!(!ents.contains(&"is".to_string()));
        assert!(!ents.contains(&"a".to_string()));
    }

    #[test]
    fn entities_deduplicate() {
        let ents = GraphIndex::entities("data data data");
        assert_eq!(ents, vec!["data".to_string()]);
    }

    #[test]
    fn cjk_bigram_entities() {
        let ents = GraphIndex::entities("销售报表");
        assert!(ents.contains(&"销售".to_string()));
        assert!(ents.contains(&"售报".to_string()));
        assert!(ents.contains(&"报表".to_string()));
    }

    #[test]
    fn direct_match_scores_highest() {
        let g = index(&[
            "awel orchestrates agent workflows",
            "cats and dogs play outside",
        ]);
        let hits = g.search("awel workflows", 2);
        assert_eq!(hits[0].0, 0);
    }

    #[test]
    fn one_hop_expansion_finds_linked_chunks() {
        // Chunk 0 links "smmf" ↔ "privacy". Chunk 1 mentions only
        // "privacy". A query for "smmf" should surface chunk 1 via the
        // graph even though chunk 1 never says "smmf".
        let g = index(&[
            "smmf guarantees privacy for deployments",
            "privacy matters for enterprise data",
        ]);
        let hits = g.search("smmf", 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[1].0, 1);
        assert!(hits[1].1 < hits[0].1);
    }

    #[test]
    fn neighbours_are_sorted_and_reflexive() {
        let g = index(&["alpha beta gamma"]);
        let n = g.neighbours("beta");
        assert_eq!(n, vec!["alpha", "gamma"]);
        assert!(g.neighbours("alpha").contains(&"beta"));
        assert!(g.neighbours("missing").is_empty());
    }

    #[test]
    fn graph_stats() {
        let g = index(&["alpha beta", "beta gamma"]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2); // alpha-beta, beta-gamma
        assert!(!g.is_empty());
    }

    #[test]
    fn empty_query_or_index() {
        let g = index(&["alpha beta"]);
        assert!(g.search("", 5).is_empty());
        assert!(g.search("of the", 5).is_empty());
        assert!(GraphIndex::new().search("alpha", 5).is_empty());
    }

    #[test]
    fn k_truncates_results() {
        let g = index(&["data one", "data two", "data three"]);
        assert_eq!(g.search("data", 2).len(), 2);
    }
}
