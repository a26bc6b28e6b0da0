//! Bounded top-k selection shared by every ranking path.
//!
//! All three indexes (vector, inverted, graph) and the rank-fusion stage
//! used to *collect every candidate, sort, truncate* — O(n log n) per
//! query with the sort dominating at scale. [`TopK`] replaces that with a
//! bounded binary-heap selection: O(n log k), no allocation beyond the k
//! retained entries, and one shared definition of the ranking order
//! (score descending, id ascending) so tie-breaking stays identical
//! everywhere.
//!
//! Scores are compared with `total_cmp`, so a NaN score (for example from
//! a poisoned embedding) ranks deterministically instead of panicking the
//! way the old `partial_cmp(..).unwrap()` comparators did.
//!
//! Because the ranking order is a *strict total order* (ids are unique),
//! the selected set is independent of insertion order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A score type usable in a [`TopK`]: `f32` or `f64`.
pub trait Score: Copy + PartialOrd {
    /// Total ordering over the score type (IEEE-754 `totalOrder`).
    fn total_order(&self, other: &Self) -> Ordering;
}

impl Score for f32 {
    fn total_order(&self, other: &Self) -> Ordering {
        f32::total_cmp(self, other)
    }
}

impl Score for f64 {
    fn total_order(&self, other: &Self) -> Ordering {
        f64::total_cmp(self, other)
    }
}

/// One retained candidate.
#[derive(Debug, Clone, Copy)]
struct Entry<S: Score> {
    id: usize,
    score: S,
}

impl<S: Score> Entry<S> {
    /// `Greater` when `self` ranks *better* than `other`: higher score
    /// first, ties broken by lower id.
    fn rank_cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_order(&other.score)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl<S: Score> PartialEq for Entry<S> {
    fn eq(&self, other: &Self) -> bool {
        self.rank_cmp(other) == Ordering::Equal
    }
}

impl<S: Score> Eq for Entry<S> {}

impl<S: Score> PartialOrd for Entry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<S: Score> Ord for Entry<S> {
    /// Reversed rank order, so the `BinaryHeap` max is the *worst*
    /// retained candidate — the one a better newcomer evicts.
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank_cmp(self)
    }
}

/// Bounded top-k accumulator (see module docs).
#[derive(Debug, Clone)]
pub struct TopK<S: Score> {
    k: usize,
    heap: BinaryHeap<Entry<S>>,
}

impl<S: Score> TopK<S> {
    /// Accumulator retaining the best `k` candidates.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(1024) + 1),
        }
    }

    /// The bound this accumulator was created with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates currently retained (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is nothing retained yet?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offer one candidate. O(log k); a candidate worse than the current
    /// k-th is rejected without touching the heap.
    pub fn push(&mut self, id: usize, score: S) {
        if self.k == 0 {
            return;
        }
        let entry = Entry { id, score };
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(worst) = self.heap.peek() {
            if entry.rank_cmp(worst) == Ordering::Greater {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }

    /// The retained candidates, best first (score desc, id asc).
    pub fn into_sorted_vec(self) -> Vec<(usize, S)> {
        let mut v = self.heap.into_vec();
        v.sort_by(|a, b| b.rank_cmp(a));
        v.into_iter().map(|e| (e.id, e.score)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference selection: full sort + truncate.
    fn reference(hits: &[(usize, f32)], k: usize) -> Vec<(usize, f32)> {
        let mut v = hits.to_vec();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn matches_sort_and_truncate() {
        let hits: Vec<(usize, f32)> = (0..100)
            .map(|i| (i, ((i * 37) % 100) as f32 / 10.0))
            .collect();
        for k in [0, 1, 3, 10, 99, 100, 200] {
            let mut top = TopK::new(k);
            for &(i, s) in &hits {
                top.push(i, s);
            }
            assert_eq!(top.into_sorted_vec(), reference(&hits, k), "k={k}");
        }
    }

    #[test]
    fn ties_break_by_lower_id() {
        let mut top = TopK::new(2);
        top.push(5, 1.0);
        top.push(2, 1.0);
        top.push(9, 1.0);
        assert_eq!(top.into_sorted_vec(), vec![(2, 1.0), (5, 1.0)]);
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let hits: Vec<(usize, f32)> = (0..50).map(|i| (i, ((i * 13) % 7) as f32)).collect();
        let mut forward = TopK::new(5);
        let mut backward = TopK::new(5);
        for &(i, s) in &hits {
            forward.push(i, s);
        }
        for &(i, s) in hits.iter().rev() {
            backward.push(i, s);
        }
        assert_eq!(forward.into_sorted_vec(), backward.into_sorted_vec());
    }

    #[test]
    fn nan_scores_do_not_panic() {
        let mut top = TopK::new(3);
        top.push(0, f32::NAN);
        top.push(1, 0.5);
        top.push(2, f32::NAN);
        top.push(3, 0.9);
        let out = top.into_sorted_vec();
        assert_eq!(out.len(), 3);
        // total_cmp ranks positive NaN above every real number; the two
        // NaN entries tie and break by id.
        assert_eq!(out[0].0, 0);
        assert_eq!(out[1].0, 2);
        assert_eq!(out[2].0, 3);
    }

    #[test]
    fn k_zero_retains_nothing() {
        let mut top: TopK<f32> = TopK::new(0);
        top.push(1, 1.0);
        assert!(top.is_empty());
        assert_eq!(top.k(), 0);
        assert!(top.into_sorted_vec().is_empty());
    }
}
