//! HNSW: a hierarchical navigable-small-world graph for sublinear ANN.
//!
//! The flat scan is exact but O(n) per query; at 100k+ chunks it is the
//! retrieval bottleneck of the whole Chat2Data path. [`HnswGraph`] holds a
//! multi-layer proximity graph: every node lives on layer 0, and an
//! exponentially thinning subset is promoted to higher layers. A query
//! greedily descends from the top layer's entry point (each hop halves the
//! remaining distance in expectation), then runs a bounded best-first beam
//! (`ef_search`) on layer 0 — visiting a few hundred nodes where the flat
//! scan visits all of them.
//!
//! # Determinism
//!
//! Graph construction is fully deterministic, which is what lets the
//! bench and the cluster layer treat the index as reproducible derived
//! data:
//!
//! - **Level assignment is a pure function of `(seed, id)`** — a seeded
//!   SplitMix64 hash drives the usual `⌊-ln(u)·mL⌋` draw, so a node's
//!   level does not depend on what was inserted before it.
//! - **Every comparison is a strict total order** — similarities compare
//!   with `total_cmp` and tie-break on the lower id, the same rank order
//!   as [`crate::topk::TopK`] — so beam contents, neighbor selection and
//!   pruning never depend on float ambiguity.
//! - Insertion order is the caller's id order.
//!
//! Same seed + same insertion sequence ⇒ byte-identical graph (pinned by
//! [`HnswGraph::fingerprint`] and property-tested in `tests/ann_props.rs`).
//!
//! The graph stores only ids; the caller supplies similarity closures
//! (higher = more similar), so the same structure serves the f32 store
//! and the scalar-quantized store ([`crate::quant::QuantizedStore`]).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dbgpt_obs::hash::{mix64, Fnv1a, GOLDEN_GAMMA};

/// Hard cap on layer indices (the `(seed, id)` draw is geometric; 16
/// layers covers corpora far beyond memory anyway).
const MAX_LEVEL: usize = 16;

/// Build-time knobs. `m` is the degree bound per layer (layer 0 keeps
/// `2m`); `ef_construction` is the candidate beam width while inserting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HnswConfig {
    /// Max neighbors per node on layers ≥ 1 (layer 0 allows `2m`).
    pub m: usize,
    /// Beam width used when inserting a node.
    pub ef_construction: usize,
    /// Seed for the level-assignment hash.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 128,
            seed: 0x5EED,
        }
    }
}

/// A candidate ranked by similarity (higher better), ties to lower id —
/// the shared rank order of the crate. `BinaryHeap<Cand>` pops best first.
#[derive(Debug, Clone, Copy)]
struct Cand {
    sim: f32,
    id: u32,
}

impl Cand {
    /// `Greater` when `self` ranks better than `other`.
    fn rank_cmp(&self, other: &Self) -> Ordering {
        self.sim
            .total_cmp(&other.sim)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.rank_cmp(other) == Ordering::Equal
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank_cmp(other)
    }
}

/// Min-heap wrapper: `BinaryHeap<Worst>` pops the *worst* candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Worst(Cand);
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

/// Diversity-aware neighbor selection (the HNSW paper's Algorithm 4).
///
/// `candidates` are ranked best-first with `Cand::sim` = similarity to
/// the *target* node. A candidate is accepted only if it is closer to
/// the target than to every already-accepted neighbor — nearest-`cap`
/// truncation would pack all links into one tight cluster (the bench
/// corpus has ~8 near-duplicate siblings per entity) and leave no
/// long-range edges, collapsing recall on clustered data. Rejected
/// candidates backfill remaining slots (keep-pruned-connections), so a
/// node never ends up under-connected. Fully deterministic: `total_cmp`
/// with the shared lower-id tie-break, ties on the diversity test keep
/// the candidate.
fn select_diverse(
    candidates: &[Cand],
    cap: usize,
    sim_pair: &dyn Fn(u32, u32) -> f32,
) -> Vec<u32> {
    let mut selected: Vec<u32> = Vec::new();
    let mut skipped: Vec<u32> = Vec::new();
    for c in candidates {
        if selected.len() >= cap {
            break;
        }
        let diverse = selected
            .iter()
            .all(|&s| c.sim.total_cmp(&sim_pair(c.id, s)) != Ordering::Less);
        if diverse {
            selected.push(c.id);
        } else {
            skipped.push(c.id);
        }
    }
    for id in skipped {
        if selected.len() >= cap {
            break;
        }
        selected.push(id);
    }
    selected
}

/// The multi-layer graph (see module docs).
#[derive(Debug, Clone, Default)]
pub struct HnswGraph {
    config: HnswConfig,
    /// Top layer of each node.
    levels: Vec<u8>,
    /// `links[node][layer]` = neighbor ids, `layer ∈ 0..=levels[node]`.
    links: Vec<Vec<Vec<u32>>>,
    /// Entry point: a node on the highest occupied layer.
    entry: Option<u32>,
    max_level: usize,
}

impl HnswGraph {
    /// Empty graph with the given knobs.
    pub fn new(config: HnswConfig) -> Self {
        HnswGraph {
            config,
            ..HnswGraph::default()
        }
    }

    /// The build knobs.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// Nodes inserted so far.
    pub fn node_count(&self) -> usize {
        self.levels.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Deterministic level for node `id` under this seed: a SplitMix64
    /// draw mapped through the geometric `⌊-ln(u) / ln(m)⌋`.
    fn level_for(&self, id: u32) -> usize {
        let x = mix64(
            self.config
                .seed
                .wrapping_add(u64::from(id).wrapping_mul(GOLDEN_GAMMA)),
        );
        // 53 mantissa bits → u ∈ [0, 1); clamp away exact 0 before ln.
        let u = ((x >> 11) as f64 / (1u64 << 53) as f64).max(f64::MIN_POSITIVE);
        let ml = 1.0 / (self.config.m.max(2) as f64).ln();
        ((-u.ln() * ml) as usize).min(MAX_LEVEL)
    }

    /// Degree bound on `layer`.
    fn capacity(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Insert the next node. `sim_to_new(x)` is the similarity between
    /// existing node `x` and the node being inserted; `sim_pair(a, b)` is
    /// the similarity between two existing nodes (used when pruning their
    /// neighbor lists). The new node's id must be `self.node_count()`.
    pub fn insert(
        &mut self,
        sim_to_new: &dyn Fn(u32) -> f32,
        sim_pair: &dyn Fn(u32, u32) -> f32,
    ) {
        let id = self.node_count() as u32;
        let level = self.level_for(id);
        self.levels.push(level as u8);
        self.links.push(vec![Vec::new(); level + 1]);

        let Some(mut ep) = self.entry else {
            self.entry = Some(id);
            self.max_level = level;
            return;
        };

        // Greedy descent through layers above the new node's level.
        let mut layer = self.max_level;
        while layer > level {
            ep = self.greedy_step(sim_to_new, ep, layer);
            layer -= 1;
        }

        // Beam search + connect on each shared layer, top down.
        let ef = self.config.ef_construction.max(1);
        let mut entries = vec![ep];
        for layer in (0..=level.min(self.max_level)).rev() {
            let found = self.search_layer(sim_to_new, &entries, ef, layer);
            let chosen = select_diverse(&found, self.config.m, sim_pair);
            self.links[id as usize][layer] = chosen.clone();
            for nb in chosen {
                self.links[nb as usize][layer].push(id);
                let cap = self.capacity(layer);
                if self.links[nb as usize][layer].len() > cap {
                    self.prune(sim_pair, nb, layer, cap);
                }
            }
            // Next layer starts from everything the beam found.
            entries = found.iter().map(|c| c.id).collect();
        }

        if level > self.max_level {
            self.entry = Some(id);
            self.max_level = level;
        }
    }

    /// Shrink `node`'s neighbor list on `layer` to `cap` entries with the
    /// same diversity heuristic used at insertion, keeping long-range
    /// links that plain nearest-first truncation would throw away.
    fn prune(&mut self, sim_pair: &dyn Fn(u32, u32) -> f32, node: u32, layer: usize, cap: usize) {
        let mut ranked: Vec<Cand> = self.links[node as usize][layer]
            .iter()
            .map(|&nb| Cand {
                sim: sim_pair(node, nb),
                id: nb,
            })
            .collect();
        ranked.sort_by(|a, b| b.rank_cmp(a));
        self.links[node as usize][layer] = select_diverse(&ranked, cap, sim_pair);
    }

    /// One-at-a-time greedy walk on `layer`: hop to the best neighbor
    /// while it improves on the current position.
    fn greedy_step(&self, sim: &dyn Fn(u32) -> f32, start: u32, layer: usize) -> u32 {
        let mut cur = Cand {
            sim: sim(start),
            id: start,
        };
        loop {
            let mut best = cur;
            for &nb in &self.links[cur.id as usize][layer] {
                let c = Cand { sim: sim(nb), id: nb };
                if c.rank_cmp(&best) == Ordering::Greater {
                    best = c;
                }
            }
            if best.id == cur.id {
                return cur.id;
            }
            cur = best;
        }
    }

    /// Bounded best-first beam on `layer`, seeded from `entries`.
    /// Returns up to `ef` candidates, best first.
    fn search_layer(
        &self,
        sim: &dyn Fn(u32) -> f32,
        entries: &[u32],
        ef: usize,
        layer: usize,
    ) -> Vec<Cand> {
        self.search_layer_hinted(sim, &|_| {}, entries, ef, layer)
    }

    /// [`HnswGraph::search_layer`] with a prefetch hint: a popped node's
    /// unseen neighbors are all hinted before any of them is scored, so
    /// up to a full adjacency list of vector fetches overlaps with the
    /// scoring arithmetic.
    fn search_layer_hinted(
        &self,
        sim: &dyn Fn(u32) -> f32,
        prefetch: &dyn Fn(u32),
        entries: &[u32],
        ef: usize,
        layer: usize,
    ) -> Vec<Cand> {
        let mut visited = vec![0u64; self.levels.len().div_ceil(64)];
        let mut seen = |id: u32| -> bool {
            let (w, b) = ((id / 64) as usize, id % 64);
            let hit = visited[w] >> b & 1 == 1;
            visited[w] |= 1 << b;
            hit
        };
        let mut frontier: BinaryHeap<Cand> = BinaryHeap::new();
        let mut results: BinaryHeap<Worst> = BinaryHeap::new();
        for &e in entries {
            if seen(e) {
                continue;
            }
            let c = Cand { sim: sim(e), id: e };
            frontier.push(c);
            results.push(Worst(c));
            if results.len() > ef {
                results.pop();
            }
        }
        let mut fresh: Vec<u32> = Vec::with_capacity(self.config.m * 2);
        while let Some(c) = frontier.pop() {
            if results.len() >= ef {
                let worst = results.peek().expect("nonempty").0;
                if c.rank_cmp(&worst) == Ordering::Less {
                    break;
                }
            }
            fresh.clear();
            for &nb in &self.links[c.id as usize][layer] {
                if !seen(nb) {
                    prefetch(nb);
                    fresh.push(nb);
                }
            }
            for &nb in &fresh {
                let cand = Cand { sim: sim(nb), id: nb };
                if results.len() < ef
                    || cand.rank_cmp(&results.peek().expect("nonempty").0) == Ordering::Greater
                {
                    frontier.push(cand);
                    results.push(Worst(cand));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<Cand> = results.into_iter().map(|w| w.0).collect();
        out.sort_by(|a, b| b.rank_cmp(a));
        out
    }

    /// Query the graph: beam descent from the entry point, then an
    /// `ef`-wide beam on layer 0. Returns up to `ef` `(id, similarity)`
    /// pairs, best first — the caller truncates to its k (and may
    /// re-score through the exact store first).
    ///
    /// Upper layers are descended with a narrow beam rather than the
    /// textbook single greedy walk: when a query's true neighbors are
    /// scattered across several coarse clusters (common for short
    /// queries far off the document manifold), a single entry point
    /// commits layer 0 to one cluster and the beam's termination bound
    /// keeps it from crossing the low-similarity valley into the others.
    /// Carrying a handful of diverse entry points down caps recall loss
    /// at negligible extra cost (upper layers hold ~1/m of the nodes).
    pub fn search(&self, sim: &dyn Fn(u32) -> f32, ef: usize) -> Vec<(usize, f32)> {
        self.search_hinted(sim, &|_| {}, ef)
    }

    /// [`HnswGraph::search`] with a cache-warm hint: `prefetch(id)` is
    /// called for each node shortly before `sim(id)`, so a storage
    /// backend can issue a memory prefetch for the node's vector. Beam
    /// traversal is random access — without the hint every candidate
    /// score stalls on a cold cache line.
    pub fn search_hinted(
        &self,
        sim: &dyn Fn(u32) -> f32,
        prefetch: &dyn Fn(u32),
        ef: usize,
    ) -> Vec<(usize, f32)> {
        let Some(ep) = self.entry else {
            return Vec::new();
        };
        let ef = ef.max(1);
        let upper_ef = (ef / 4).clamp(8, 64);
        let mut entries = vec![ep];
        for layer in (1..=self.max_level).rev() {
            entries = self
                .search_layer_hinted(sim, prefetch, &entries, upper_ef, layer)
                .into_iter()
                .map(|c| c.id)
                .collect();
        }
        self.search_layer_hinted(sim, prefetch, &entries, ef, 0)
            .into_iter()
            .map(|c| (c.id as usize, c.sim))
            .collect()
    }

    /// Beam search on layer 0 from caller-chosen entry points (ids must
    /// be `< node_count()`). Lets the caller route with external
    /// knowledge — e.g. a coarse seed set spanning the corpus's clusters
    /// — instead of the entry-point descent of [`HnswGraph::search`].
    /// Returns up to `ef` `(id, similarity)` pairs, best first.
    pub fn search_from(&self, sim: &dyn Fn(u32) -> f32, entries: &[u32], ef: usize) -> Vec<(usize, f32)> {
        if self.is_empty() || entries.is_empty() {
            return Vec::new();
        }
        self.search_layer(sim, entries, ef.max(1), 0)
            .into_iter()
            .map(|c| (c.id as usize, c.sim))
            .collect()
    }

    /// Diagnostic: how many nodes a search on `layer` can reach from the
    /// entry point by following out-links (BFS). A healthy graph keeps
    /// this at (or very near) the number of nodes on that layer; stranded
    /// islands cap recall no matter how wide the beam.
    pub fn reachable_from_entry(&self, layer: usize) -> usize {
        let Some(ep) = self.entry else { return 0 };
        if (self.levels[ep as usize] as usize) < layer {
            return 0;
        }
        let mut seen = vec![false; self.levels.len()];
        let mut stack = vec![ep];
        seen[ep as usize] = true;
        let mut count = 0usize;
        while let Some(x) = stack.pop() {
            count += 1;
            for &nb in &self.links[x as usize][layer] {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    stack.push(nb);
                }
            }
        }
        count
    }

    /// FNV-1a digest of the whole structure: config, entry point, levels
    /// and adjacency. Two graphs with equal fingerprints are
    /// byte-identical (same layers, same neighbor lists in the same
    /// order) — the determinism witness used by the bench and tests.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut eat = |v: u64| h.write(&v.to_le_bytes());
        eat(self.config.m as u64);
        eat(self.config.ef_construction as u64);
        eat(self.config.seed);
        eat(self.entry.map(|e| u64::from(e) + 1).unwrap_or(0));
        eat(self.max_level as u64);
        for (lvl, layers) in self.levels.iter().zip(&self.links) {
            eat(u64::from(*lvl));
            for list in layers {
                eat(list.len() as u64);
                for &nb in list {
                    eat(u64::from(nb));
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{dot, Embedder, Embedding, HashEmbedder};

    fn corpus(n: usize) -> Vec<Embedding> {
        let e = HashEmbedder::new();
        (0..n)
            .map(|i| e.embed(&format!("doc {i} topic {} entity e{}", i % 9, i % 23)).unit())
            .collect()
    }

    fn build(vs: &[Embedding], cfg: HnswConfig) -> HnswGraph {
        let mut g = HnswGraph::new(cfg);
        for i in 0..vs.len() {
            let new = &vs[i];
            g.insert(
                &|x| dot(new, &vs[x as usize]),
                &|a, b| dot(&vs[a as usize], &vs[b as usize]),
            );
        }
        g
    }

    #[test]
    fn empty_graph_returns_nothing() {
        let g = HnswGraph::new(HnswConfig::default());
        assert!(g.is_empty());
        assert!(g.search(&|_| 0.0, 10).is_empty());
    }

    #[test]
    fn levels_are_a_pure_function_of_seed_and_id() {
        let g = HnswGraph::new(HnswConfig::default());
        let h = HnswGraph::new(HnswConfig::default());
        for id in 0..500 {
            assert_eq!(g.level_for(id), h.level_for(id));
        }
        let other = HnswGraph::new(HnswConfig {
            seed: 999,
            ..HnswConfig::default()
        });
        assert!(
            (0..500).any(|id| g.level_for(id) != other.level_for(id)),
            "different seeds should shuffle levels"
        );
        // The draw is geometric: most nodes stay on layer 0.
        let ground = (0..500).filter(|&id| g.level_for(id) == 0).count();
        assert!(ground > 350, "only {ground}/500 on layer 0");
    }

    #[test]
    fn same_seed_builds_identical_graphs() {
        let vs = corpus(200);
        let a = build(&vs, HnswConfig::default());
        let b = build(&vs, HnswConfig::default());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.links, b.links);
    }

    #[test]
    fn degree_bounds_hold() {
        let vs = corpus(300);
        let g = build(&vs, HnswConfig::default());
        for (id, layers) in g.links.iter().enumerate() {
            for (layer, list) in layers.iter().enumerate() {
                assert!(
                    list.len() <= g.capacity(layer),
                    "node {id} layer {layer} has {} links",
                    list.len()
                );
            }
        }
    }

    #[test]
    fn search_finds_the_true_nearest_neighbor() {
        let vs = corpus(400);
        let g = build(&vs, HnswConfig::default());
        let e = HashEmbedder::new();
        for probe in ["doc 17 topic 8", "doc 250 topic 7 entity e20", "doc 3"] {
            let q = e.embed(probe).unit();
            let mut exact: Vec<(usize, f32)> =
                vs.iter().enumerate().map(|(i, v)| (i, dot(&q, v))).collect();
            exact.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let hits = g.search(&|x| dot(&q, &vs[x as usize]), 64);
            assert_eq!(hits[0].0, exact[0].0, "probe {probe:?}");
        }
    }

    #[test]
    fn wider_beam_is_a_superset_ranking() {
        let vs = corpus(250);
        let g = build(&vs, HnswConfig::default());
        let q = HashEmbedder::new().embed("doc 100 topic 1").unit();
        let sim = |x: u32| dot(&q, &vs[x as usize]);
        let narrow = g.search(&sim, 8);
        let wide = g.search(&sim, 64);
        assert!(narrow.len() <= wide.len());
        // Both are internally sorted best-first.
        for w in wide.windows(2) {
            assert!(w[0].1 >= w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
        }
    }
}
