//! Table heap: an ordered chain of slotted heap pages plus an in-memory
//! page directory with cumulative row counts for ordinal addressing.
//!
//! Rows are addressed by **ordinal** — their 0-based position in storage
//! order. Ordinals are what the B+-tree stores as postings. An UPDATE or
//! DELETE rewrites the whole heap ([`crate::catalog::Table::rewrite_rows`]),
//! which shifts ordinals once a row leaves, so the rewrite marks the
//! table's indexes stale whenever a row changed or left.

use super::buffer::BufferPool;
use super::page::{decode_row, encode_row, PageType};
use crate::error::SqlError;
use crate::value::Value;

/// A paged table's row storage.
#[derive(Debug, Clone, Default)]
pub struct TableHeap {
    /// Page chain in order (also linked on-page via the `next` pointer).
    pages: Vec<u32>,
    /// `prefix[i]` = total rows in `pages[..=i]`.
    prefix: Vec<usize>,
}

impl TableHeap {
    /// An empty heap (no pages allocated yet).
    pub fn new() -> TableHeap {
        TableHeap::default()
    }

    /// Total row count.
    pub fn len(&self) -> usize {
        self.prefix.last().copied().unwrap_or(0)
    }

    /// Whether the heap holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of heap pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Append one row; returns its ordinal.
    pub fn append_row(&mut self, pool: &mut BufferPool, values: &[Value]) -> Result<usize, SqlError> {
        let tuple = encode_row(values);
        let ordinal = self.len();
        if let Some(&last) = self.pages.last() {
            let fit = pool.with_page_mut(last, |p| p.insert(&tuple).is_some())?;
            if fit {
                *self.prefix.last_mut().expect("non-empty directory") += 1;
                return Ok(ordinal);
            }
        }
        let id = pool.allocate_page(PageType::Heap)?;
        let fit = pool.with_page_mut(id, |p| p.insert(&tuple).is_some())?;
        if !fit {
            pool.free_page(id)?;
            return Err(SqlError::Storage(format!(
                "row of {} bytes does not fit in a {}-byte page",
                tuple.len(),
                pool.page_size()
            )));
        }
        if let Some(&prev) = self.pages.last() {
            pool.with_page_mut(prev, |p| p.set_next(id))?;
        }
        self.pages.push(id);
        self.prefix.push(ordinal + 1);
        Ok(ordinal)
    }

    /// Decode every row of heap page `page_idx` (directory index, not page
    /// id) into a vector — one page's worth of bounded memory.
    pub fn read_page(
        &self,
        pool: &mut BufferPool,
        page_idx: usize,
    ) -> Result<Vec<Vec<Value>>, SqlError> {
        let id = self.pages[page_idx];
        pool.with_page(id, |p| {
            p.tuples().map(decode_row).collect::<Result<Vec<_>, _>>()
        })?
    }

    /// Stream every row in ordinal order through `f(ordinal, row)`. Pages
    /// are decoded one at a time, so resident memory stays bounded by the
    /// pool regardless of table size.
    pub fn scan(
        &self,
        pool: &mut BufferPool,
        mut f: impl FnMut(usize, Vec<Value>) -> Result<(), SqlError>,
    ) -> Result<(), SqlError> {
        let mut ordinal = 0;
        for i in 0..self.pages.len() {
            for row in self.read_page(pool, i)? {
                f(ordinal, row)?;
                ordinal += 1;
            }
        }
        Ok(())
    }

    /// Locate `ordinal` as (directory index, slot within page).
    fn locate(&self, ordinal: usize) -> Result<(usize, u16), SqlError> {
        if ordinal >= self.len() {
            return Err(SqlError::Storage(format!(
                "row ordinal {ordinal} out of range (heap has {} rows)",
                self.len()
            )));
        }
        let i = self.prefix.partition_point(|&p| p <= ordinal);
        let before = if i == 0 { 0 } else { self.prefix[i - 1] };
        Ok((i, (ordinal - before) as u16))
    }

    /// Fetch a single row by ordinal.
    pub fn get(&self, pool: &mut BufferPool, ordinal: usize) -> Result<Vec<Value>, SqlError> {
        let (i, slot) = self.locate(ordinal)?;
        pool.with_page(self.pages[i], |p| {
            p.tuple(slot)
                .ok_or_else(|| SqlError::Storage(format!("missing slot {slot} for ordinal {ordinal}")))
                .and_then(decode_row)
        })?
    }

    /// Fetch many rows by **ascending** ordinals, grouping page accesses so
    /// each needed page is pinned once.
    pub fn fetch_many(
        &self,
        pool: &mut BufferPool,
        ordinals: &[usize],
    ) -> Result<Vec<Vec<Value>>, SqlError> {
        debug_assert!(ordinals.windows(2).all(|w| w[0] <= w[1]));
        let mut out = Vec::with_capacity(ordinals.len());
        let mut k = 0;
        while k < ordinals.len() {
            let (i, first_slot) = self.locate(ordinals[k])?;
            let page_base = ordinals[k] - first_slot as usize;
            let page_rows = self.prefix[i] - page_base;
            let mut slots = Vec::new();
            while k < ordinals.len() && ordinals[k] < page_base + page_rows {
                slots.push((ordinals[k] - page_base) as u16);
                k += 1;
            }
            let rows = pool.with_page(self.pages[i], |p| {
                slots
                    .iter()
                    .map(|&s| {
                        p.tuple(s)
                            .ok_or_else(|| SqlError::Storage(format!("missing slot {s}")))
                            .and_then(decode_row)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })??;
            out.extend(rows);
        }
        Ok(out)
    }

    /// Materialize every row (CSV export, fingerprinting, small tables).
    pub fn all_rows(&self, pool: &mut BufferPool) -> Result<Vec<Vec<Value>>, SqlError> {
        let mut out = Vec::with_capacity(self.len());
        self.scan(pool, |_, row| {
            out.push(row);
            Ok(())
        })?;
        Ok(out)
    }

    /// Release every heap page back to the pool's free list.
    pub fn free(&mut self, pool: &mut BufferPool) -> Result<(), SqlError> {
        for &id in &self.pages {
            pool.free_page(id)?;
        }
        self.pages.clear();
        self.prefix.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::disk::DiskManager;

    fn row(i: usize) -> Vec<Value> {
        vec![
            Value::Int(i as i64),
            Value::Text(format!("name-{i}")),
            Value::Float(i as f64 * 0.5),
        ]
    }

    fn setup(n: usize, pool_pages: usize) -> (BufferPool, TableHeap) {
        let mut pool = BufferPool::new(DiskManager::mem(128), pool_pages);
        let mut heap = TableHeap::new();
        for i in 0..n {
            assert_eq!(heap.append_row(&mut pool, &row(i)).unwrap(), i);
        }
        (pool, heap)
    }

    #[test]
    fn append_scan_round_trip_across_many_pages() {
        let (mut pool, heap) = setup(200, 4);
        assert_eq!(heap.len(), 200);
        assert!(heap.page_count() > 16, "128-byte pages must chain");
        let mut seen = 0;
        heap.scan(&mut pool, |ord, r| {
            assert_eq!(ord, seen);
            assert_eq!(r, row(ord));
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 200);
        // Residency stayed bounded the whole time.
        assert!(pool.max_resident() <= 4);
    }

    #[test]
    fn get_and_fetch_many_address_by_ordinal() {
        let (mut pool, heap) = setup(50, 4);
        assert_eq!(heap.get(&mut pool, 0).unwrap(), row(0));
        assert_eq!(heap.get(&mut pool, 49).unwrap(), row(49));
        assert!(heap.get(&mut pool, 50).is_err());
        let picks = [0usize, 1, 17, 23, 24, 49];
        let rows = heap.fetch_many(&mut pool, &picks).unwrap();
        for (o, r) in picks.iter().zip(&rows) {
            assert_eq!(r, &row(*o));
        }
    }

    #[test]
    fn oversized_row_is_rejected() {
        let mut pool = BufferPool::new(DiskManager::mem(128), 4);
        let mut heap = TableHeap::new();
        let huge = vec![Value::Text("x".repeat(500))];
        let err = heap.append_row(&mut pool, &huge).unwrap_err();
        assert!(err.to_string().contains("does not fit"));
        // Heap unchanged; small rows still work.
        assert_eq!(heap.len(), 0);
        heap.append_row(&mut pool, &row(1)).unwrap();
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn free_returns_pages_for_reuse() {
        let (mut pool, mut heap) = setup(100, 4);
        let pages_before = heap.page_count();
        assert!(pages_before > 0);
        heap.free(&mut pool).unwrap();
        assert_eq!(heap.len(), 0);
        assert_eq!(heap.page_count(), 0);
        // A new heap reuses the freed ids instead of growing the disk.
        let mut h2 = TableHeap::new();
        for i in 0..100 {
            h2.append_row(&mut pool, &row(i)).unwrap();
        }
        assert_eq!(h2.all_rows(&mut pool).unwrap().len(), 100);
    }
}
