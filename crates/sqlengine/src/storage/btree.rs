//! B+-tree secondary index stored in pages: leaf/internal page codecs and
//! ordered range scans over row ordinals.
//!
//! Keys are **composite**: an order-preserving encoding of the column value
//! followed by the row's 8-byte big-endian ordinal. Appending the ordinal
//! makes every key unique (duplicate column values become distinct keys), so
//! the tree is an ordinary unique-key B+-tree; a value-only prefix still
//! seeks to the first matching entry because a prefix sorts before any of
//! its extensions.
//!
//! The tree is **bulk-built bottom-up** from a snapshot of a paged table
//! and marked stale by any mutation; [`crate::catalog::Table`] rebuilds
//! stale trees before reads that may refresh. There is no incremental
//! insert/delete path — rebuilds are O(n log n) and keep the page layout
//! dense. In-memory tables key their indexes with the same
//! [`encode_value`], holding the leaf level as an ordered map.
//!
//! Page layouts (on top of the slotted format in [`super::page`]):
//! - leaf tuple:      `key` bytes (value encoding ++ ordinal BE); leaves are
//!   chained left-to-right through the page header's `next` pointer.
//! - internal tuple:  `u32 child page id (LE)` ++ separator `key` (the first
//!   key in the child's subtree).

use super::buffer::BufferPool;
use super::page::{PageType, HEADER_LEN, SLOT_LEN};
use crate::error::SqlError;
use crate::value::Value;
use std::ops::Bound;

/// Order-preserving byte encoding of one value, consistent with
/// `Value::total_cmp` ranks (NULL < BOOL < numeric < TEXT). A column's
/// values are homogeneous by schema type, so INT and FLOAT never share a
/// tree even though both use rank 2. `-0.0` encodes as `+0.0`, because SQL
/// comparison treats the two as equal.
pub fn encode_value(v: &Value) -> Vec<u8> {
    match v {
        Value::Null => vec![0],
        Value::Bool(b) => vec![1, *b as u8],
        Value::Int(i) => {
            let mut out = vec![2];
            // Flip the sign bit so two's complement sorts unsigned.
            out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
            out
        }
        Value::Float(f) => {
            let bits = if *f == 0.0 { 0 } else { f.to_bits() };
            // IEEE-754 total order: positive floats get the sign bit set,
            // negative floats are bit-inverted. Matches `f64::total_cmp`.
            let sortable = if bits & (1 << 63) != 0 { !bits } else { bits | (1 << 63) };
            let mut out = vec![2];
            out.extend_from_slice(&sortable.to_be_bytes());
            out
        }
        Value::Text(s) => {
            let mut out = vec![3];
            out.extend_from_slice(s.as_bytes());
            out
        }
    }
}

/// Full composite key: value encoding ++ ordinal (big-endian).
fn encode_key(v: &Value, ordinal: usize) -> Vec<u8> {
    let mut k = encode_value(v);
    k.extend_from_slice(&(ordinal as u64).to_be_bytes());
    k
}

/// The value-encoding prefix of a stored leaf key.
fn key_prefix(key: &[u8]) -> &[u8] {
    &key[..key.len() - 8]
}

/// The row ordinal packed into a stored leaf key.
fn key_ordinal(key: &[u8]) -> usize {
    let tail: [u8; 8] = key[key.len() - 8..].try_into().expect("8-byte ordinal");
    u64::from_be_bytes(tail) as usize
}

/// A paged B+-tree index over one column.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    root: u32,
    /// Leftmost leaf (scan anchor for unbounded lower bounds).
    first_leaf: u32,
    /// Every page owned by the tree, for [`BTreeIndex::free`].
    pages: Vec<u32>,
    /// Number of indexed entries.
    entries: usize,
}

impl BTreeIndex {
    /// Bulk-build a tree from `(value, ordinal)` pairs (any order).
    pub fn build(
        pool: &mut BufferPool,
        items: impl IntoIterator<Item = (Value, usize)>,
    ) -> Result<BTreeIndex, SqlError> {
        let mut keys: Vec<Vec<u8>> = items
            .into_iter()
            .map(|(v, ord)| encode_key(&v, ord))
            .collect();
        keys.sort_unstable();
        let entries = keys.len();
        let mut pages = Vec::new();

        // Pack the leaf level left to right, chaining through `next`.
        let mut level: Vec<(Vec<u8>, u32)> = Vec::new(); // (first key, page id)
        let mut current: Option<u32> = None;
        for key in &keys {
            let fits = match current {
                Some(id) => pool.with_page_mut(id, |p| p.insert(key).is_some())?,
                None => false,
            };
            if !fits {
                let id = pool.allocate_page(PageType::BTreeLeaf)?;
                pages.push(id);
                let ok = pool.with_page_mut(id, |p| p.insert(key).is_some())?;
                if !ok {
                    return Err(SqlError::Storage(format!(
                        "index key of {} bytes does not fit in a {}-byte page",
                        key.len(),
                        pool.page_size()
                    )));
                }
                if let Some(prev) = current {
                    pool.with_page_mut(prev, |p| p.set_next(id))?;
                }
                level.push((key.clone(), id));
                current = Some(id);
            }
        }
        if level.is_empty() {
            let id = pool.allocate_page(PageType::BTreeLeaf)?;
            pages.push(id);
            level.push((Vec::new(), id));
        }
        let first_leaf = level[0].1;

        // Build internal levels until a single root remains.
        while level.len() > 1 {
            let mut upper: Vec<(Vec<u8>, u32)> = Vec::new();
            let mut current: Option<u32> = None;
            for (sep, child) in &level {
                let mut tuple = Vec::with_capacity(4 + sep.len());
                tuple.extend_from_slice(&child.to_le_bytes());
                tuple.extend_from_slice(sep);
                let fits = match current {
                    Some(id) => pool.with_page_mut(id, |p| p.insert(&tuple).is_some())?,
                    None => false,
                };
                if !fits {
                    let id = pool.allocate_page(PageType::BTreeInternal)?;
                    pages.push(id);
                    let ok = pool.with_page_mut(id, |p| p.insert(&tuple).is_some())?;
                    if !ok {
                        return Err(SqlError::Storage(
                            "internal separator does not fit in a page".into(),
                        ));
                    }
                    upper.push((sep.clone(), id));
                    current = Some(id);
                }
            }
            level = upper;
        }
        Ok(BTreeIndex {
            root: level[0].1,
            first_leaf,
            pages,
            entries,
        })
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the tree indexes no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Pages owned by the tree.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Ordinals of rows whose column value equals `v`, in ascending order.
    pub fn lookup_eq(&self, pool: &mut BufferPool, v: &Value) -> Result<Vec<usize>, SqlError> {
        self.range(pool, Bound::Included(v), Bound::Included(v))
    }

    /// Ordinals of rows whose column value lies in the given bounds, in
    /// **ascending ordinal order** (so scan semantics match insertion
    /// order). Bounds compare with the same total order the tree is built
    /// on, i.e. `Value::total_cmp` over a homogeneous column.
    pub fn range(
        &self,
        pool: &mut BufferPool,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Result<Vec<usize>, SqlError> {
        let lower_enc = match lower {
            Bound::Included(v) | Bound::Excluded(v) => Some(encode_value(v)),
            Bound::Unbounded => None,
        };
        let upper_enc = match upper {
            Bound::Included(v) | Bound::Excluded(v) => Some(encode_value(v)),
            Bound::Unbounded => None,
        };

        // Seek the leaf that could hold the first in-range key.
        let mut leaf = match &lower_enc {
            Some(target) => self.descend(pool, target)?,
            None => self.first_leaf,
        };

        let mut ordinals = Vec::new();
        loop {
            let (next, done) = pool.with_page(leaf, |p| {
                let mut done = false;
                for key in p.tuples() {
                    let prefix = key_prefix(key);
                    let in_lower = match (&lower_enc, lower) {
                        (Some(lo), Bound::Excluded(_)) => prefix > lo.as_slice(),
                        (Some(lo), _) => prefix >= lo.as_slice(),
                        (None, _) => true,
                    };
                    if !in_lower {
                        continue;
                    }
                    let past_upper = match (&upper_enc, upper) {
                        (Some(hi), Bound::Excluded(_)) => prefix >= hi.as_slice(),
                        (Some(hi), _) => prefix > hi.as_slice(),
                        (None, _) => false,
                    };
                    if past_upper {
                        done = true;
                        break;
                    }
                    ordinals.push(key_ordinal(key));
                }
                (p.next(), done)
            })?;
            if done || next == super::page::NO_PAGE {
                break;
            }
            leaf = next;
        }
        ordinals.sort_unstable();
        Ok(ordinals)
    }

    /// Walk internal nodes from the root down to the leaf whose key range
    /// covers `target` (a value-encoding prefix used as a pseudo-key).
    fn descend(&self, pool: &mut BufferPool, target: &[u8]) -> Result<u32, SqlError> {
        let mut page_id = self.root;
        loop {
            let next = pool.with_page(page_id, |p| {
                if p.page_type() == PageType::BTreeLeaf {
                    return None;
                }
                // Last child whose separator is <= target; default to the
                // first child (its separator acts as negative infinity).
                let mut chosen: Option<u32> = None;
                for tuple in p.tuples() {
                    let child = u32::from_le_bytes(tuple[..4].try_into().expect("child id"));
                    let sep = &tuple[4..];
                    if chosen.is_none() || sep <= target {
                        chosen = Some(child);
                    } else {
                        break;
                    }
                }
                chosen
            })?;
            match next {
                Some(child) => page_id = child,
                None => return Ok(page_id),
            }
        }
    }

    /// Release every page back to the pool's free list.
    pub fn free(self, pool: &mut BufferPool) -> Result<(), SqlError> {
        for id in self.pages {
            pool.free_page(id)?;
        }
        Ok(())
    }
}

/// Upper bound on entries a page of `page_size` can hold, used by tests to
/// force multi-level trees.
pub fn leaf_capacity(page_size: usize, key_len: usize) -> usize {
    (page_size - HEADER_LEN) / (key_len + SLOT_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::disk::DiskManager;

    fn pool() -> BufferPool {
        BufferPool::new(DiskManager::mem(128), 8)
    }

    #[test]
    fn value_encoding_preserves_total_cmp_order() {
        let ints: Vec<i64> = vec![i64::MIN, -5, -1, 0, 1, 42, i64::MAX];
        for w in ints.windows(2) {
            assert!(
                encode_value(&Value::Int(w[0])) < encode_value(&Value::Int(w[1])),
                "{} !< {}",
                w[0],
                w[1]
            );
        }
        let floats = vec![
            f64::NEG_INFINITY,
            -1e100,
            -1.5,
            -0.0,
            0.0,
            1.5,
            1e100,
            f64::INFINITY,
            f64::NAN,
        ];
        for w in floats.windows(2) {
            assert!(
                encode_value(&Value::Float(w[0])) <= encode_value(&Value::Float(w[1])),
                "{} !<= {}",
                w[0],
                w[1]
            );
        }
        // Signed zeros share one key, as they compare equal in SQL.
        assert_eq!(
            encode_value(&Value::Float(-0.0)),
            encode_value(&Value::Float(0.0))
        );
        // Cross-rank: NULL < BOOL < numeric < TEXT.
        let ranked = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Text(String::new()),
            Value::Text("a".into()),
        ];
        for w in ranked.windows(2) {
            assert!(encode_value(&w[0]) < encode_value(&w[1]), "{w:?}");
        }
    }

    #[test]
    fn eq_lookup_finds_all_duplicates_in_ordinal_order() {
        let mut p = pool();
        // 300 entries over 3 distinct values → multi-page, multi-level with
        // 128-byte pages.
        let items: Vec<(Value, usize)> =
            (0..300).map(|i| (Value::Int((i % 3) as i64), i)).collect();
        let t = BTreeIndex::build(&mut p, items).unwrap();
        assert_eq!(t.len(), 300);
        assert!(t.page_count() > 10, "must span many pages");
        for v in 0..3i64 {
            let ords = t.lookup_eq(&mut p, &Value::Int(v)).unwrap();
            assert_eq!(ords.len(), 100);
            let want: Vec<usize> = (0..300).filter(|i| (i % 3) as i64 == v).collect();
            assert_eq!(ords, want);
        }
        assert!(t.lookup_eq(&mut p, &Value::Int(9)).unwrap().is_empty());
    }

    #[test]
    fn range_scan_respects_bounds() {
        let mut p = pool();
        let items: Vec<(Value, usize)> = (0..200).map(|i| (Value::Int(i as i64), i)).collect();
        let t = BTreeIndex::build(&mut p, items).unwrap();
        let r = t
            .range(&mut p, Bound::Included(&Value::Int(10)), Bound::Excluded(&Value::Int(20)))
            .unwrap();
        assert_eq!(r, (10..20).collect::<Vec<_>>());
        let r = t
            .range(&mut p, Bound::Excluded(&Value::Int(190)), Bound::Unbounded)
            .unwrap();
        assert_eq!(r, (191..200).collect::<Vec<_>>());
        let r = t
            .range(&mut p, Bound::Unbounded, Bound::Included(&Value::Int(5)))
            .unwrap();
        assert_eq!(r, (0..6).collect::<Vec<_>>());
        let r = t
            .range(&mut p, Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        assert_eq!(r.len(), 200);
    }

    #[test]
    fn text_and_null_keys_work() {
        let mut p = pool();
        let items = vec![
            (Value::Text("banana".into()), 0),
            (Value::Null, 1),
            (Value::Text("apple".into()), 2),
            (Value::Text("banana".into()), 3),
        ];
        let t = BTreeIndex::build(&mut p, items).unwrap();
        assert_eq!(
            t.lookup_eq(&mut p, &Value::Text("banana".into())).unwrap(),
            vec![0, 3]
        );
        assert_eq!(t.lookup_eq(&mut p, &Value::Null).unwrap(), vec![1]);
        // TEXT range: apple <= x < c
        let r = t
            .range(
                &mut p,
                Bound::Included(&Value::Text("apple".into())),
                Bound::Excluded(&Value::Text("c".into())),
            )
            .unwrap();
        assert_eq!(r, vec![0, 2, 3]);
    }

    #[test]
    fn empty_tree_answers_empty() {
        let mut p = pool();
        let t = BTreeIndex::build(&mut p, Vec::new()).unwrap();
        assert!(t.is_empty());
        assert!(t.lookup_eq(&mut p, &Value::Int(1)).unwrap().is_empty());
        assert!(t
            .range(&mut p, Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn free_releases_every_page() {
        let mut p = pool();
        let items: Vec<(Value, usize)> = (0..300).map(|i| (Value::Int(i as i64), i)).collect();
        let t = BTreeIndex::build(&mut p, items).unwrap();
        let n_pages = t.page_count();
        assert!(n_pages > 10);
        t.free(&mut p).unwrap();
        // Rebuilding reuses the freed pages rather than growing the disk.
        let items: Vec<(Value, usize)> = (0..300).map(|i| (Value::Int(i as i64), i)).collect();
        let t2 = BTreeIndex::build(&mut p, items).unwrap();
        assert_eq!(t2.len(), 300);
        assert_eq!(
            t2.lookup_eq(&mut p, &Value::Int(7)).unwrap(),
            vec![7]
        );
    }

    #[test]
    fn leaf_capacity_is_sane() {
        assert!(leaf_capacity(4096, 17) > 100);
        assert!(leaf_capacity(128, 17) >= 5);
    }
}
