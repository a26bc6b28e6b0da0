//! Consistent-hash ring with virtual nodes.
//!
//! Shard keys (tenant ids) map to the first virtual node clockwise from
//! the key's hash; the replica set for a key is the next `r` *distinct*
//! physical nodes in ring order. Virtual nodes smooth the load so that
//! adding or removing one physical node moves roughly `K/N` of `K` keys —
//! the bounded-movement property the property tests pin down.
//!
//! Everything here is a pure function of the membership set and the
//! built-in mixer — no RNG, no ambient state — so placement is
//! byte-reproducible across runs and platforms.

use std::collections::BTreeSet;

use dbgpt_obs::hash::{mix64, Fnv1a};

/// Position a shard key on the ring: an FNV-1a-style pass over the bytes,
/// then mixed (SplitMix64's finalizer spreads nearby hashes around the
/// ring). The multiplier is `0x1000_0000_01b3`, not the FNV prime, so
/// this is not [`dbgpt_obs::hash::fnv1a`]; it stays as is because ring
/// positions must not move.
pub fn hash_key(key: &str) -> u64 {
    let mut h = Fnv1a::OFFSET_BASIS;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    mix64(h)
}

/// Position of virtual node `vnode` of physical node `node`.
fn vnode_hash(node: usize, vnode: usize) -> u64 {
    mix64(((node as u64) << 32) | (vnode as u64) | 0x5eed_0000_0000_0000)
}

/// A consistent-hash ring over physical node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    vnodes_per_node: usize,
    /// Sorted `(position, node)` points; ties broken by node id so the
    /// ordering is total even under (astronomically unlikely) collisions.
    points: Vec<(u64, usize)>,
    nodes: BTreeSet<usize>,
}

impl HashRing {
    /// An empty ring placing `vnodes_per_node` virtual nodes per member.
    pub fn new(vnodes_per_node: usize) -> Self {
        HashRing {
            vnodes_per_node: vnodes_per_node.max(1),
            points: Vec::new(),
            nodes: BTreeSet::new(),
        }
    }

    /// A ring pre-populated with nodes `0..n`.
    pub fn with_nodes(n: usize, vnodes_per_node: usize) -> Self {
        let mut ring = HashRing::new(vnodes_per_node);
        for node in 0..n {
            ring.add_node(node);
        }
        ring
    }

    /// Add a physical node (no-op if already present).
    pub fn add_node(&mut self, node: usize) {
        if !self.nodes.insert(node) {
            return;
        }
        for v in 0..self.vnodes_per_node {
            self.points.push((vnode_hash(node, v), node));
        }
        self.points.sort_unstable();
    }

    /// Remove a physical node (no-op if absent).
    pub fn remove_node(&mut self, node: usize) {
        if !self.nodes.remove(&node) {
            return;
        }
        self.points.retain(|&(_, n)| n != node);
    }

    /// Member node ids, ascending.
    pub fn nodes(&self) -> Vec<usize> {
        self.nodes.iter().copied().collect()
    }

    /// Number of physical nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are present.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The primary owner of `key`: the first virtual node at or after the
    /// key's position, wrapping around.
    pub fn primary(&self, key: &str) -> Option<usize> {
        self.replicas(key, 1).first().copied()
    }

    /// The replica set for `key`: the next `r` *distinct* physical nodes
    /// clockwise from the key's position (fewer if the ring has fewer
    /// members). The first entry is the primary.
    pub fn replicas(&self, key: &str, r: usize) -> Vec<usize> {
        let want = r.min(self.nodes.len());
        let mut out = Vec::with_capacity(want);
        if want == 0 {
            return out;
        }
        let h = hash_key(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_are_deterministic() {
        let a = HashRing::with_nodes(5, 64);
        let b = HashRing::with_nodes(5, 64);
        for k in 0..50 {
            let key = format!("tenant-{k}");
            assert_eq!(a.replicas(&key, 3), b.replicas(&key, 3));
        }
    }

    #[test]
    fn replicas_are_distinct_and_capped() {
        let ring = HashRing::with_nodes(4, 32);
        for k in 0..40 {
            let key = format!("t{k}");
            let reps = ring.replicas(&key, 3);
            assert_eq!(reps.len(), 3);
            let uniq: BTreeSet<_> = reps.iter().collect();
            assert_eq!(uniq.len(), 3, "duplicate replica for {key}: {reps:?}");
            // Asking for more replicas than nodes caps at the node count.
            assert_eq!(ring.replicas(&key, 9).len(), 4);
        }
    }

    #[test]
    fn membership_change_moves_a_bounded_fraction() {
        let keys: Vec<String> = (0..1000).map(|k| format!("tenant-{k}")).collect();
        let mut ring = HashRing::with_nodes(8, 64);
        let before: Vec<_> = keys.iter().map(|k| ring.primary(k).unwrap()).collect();
        ring.add_node(8);
        let after: Vec<_> = keys.iter().map(|k| ring.primary(k).unwrap()).collect();
        let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        // Ideal movement is K/(N+1) ≈ 111; allow generous slack for
        // vnode variance but stay far below a full reshuffle.
        assert!(moved > 0, "adding a node must take over some keys");
        assert!(moved < 300, "moved {moved} of 1000 keys, expected ~111");
        // Every moved key moved TO the new node.
        for (i, (a, b)) in before.iter().zip(&after).enumerate() {
            if a != b {
                assert_eq!(*b, 8, "key {i} moved to an old node: {a} -> {b}");
            }
        }
    }

    #[test]
    fn removal_only_moves_the_removed_nodes_keys() {
        let keys: Vec<String> = (0..500).map(|k| format!("s{k}")).collect();
        let mut ring = HashRing::with_nodes(6, 64);
        let before: Vec<_> = keys.iter().map(|k| ring.primary(k).unwrap()).collect();
        ring.remove_node(2);
        let after: Vec<_> = keys.iter().map(|k| ring.primary(k).unwrap()).collect();
        for (i, (a, b)) in before.iter().zip(&after).enumerate() {
            if *a != 2 {
                assert_eq!(a, b, "key {i} moved although its owner survived");
            } else {
                assert_ne!(*b, 2, "key {i} still maps to the removed node");
            }
        }
    }

    #[test]
    fn empty_ring_has_no_owner() {
        let ring = HashRing::new(16);
        assert!(ring.is_empty());
        assert_eq!(ring.primary("x"), None);
        assert!(ring.replicas("x", 3).is_empty());
    }
}
