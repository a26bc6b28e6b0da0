//! Paged disk-backed storage for the SQL engine.
//!
//! The layer stack, bottom to top:
//! - [`page`]: fixed-size page format (header, slotted tuples, checksum)
//!   and the row tuple codec;
//! - [`disk`]: pluggable [`disk::DiskManager`] — deterministic in-memory
//!   arm and a real file-backed arm;
//! - [`buffer`]: bounded [`buffer::BufferPool`] with LRU-K eviction,
//!   pin/unpin accounting, and hit/miss/eviction/writeback counters;
//! - [`heap`]: [`heap::TableHeap`] page chains with ordinal addressing;
//! - [`btree`]: [`btree::BTreeIndex`] secondary indexes with ordered range
//!   scans.
//!
//! Selection happens through [`StorageConfig`] on `Engine`/`Database`;
//! [`crate::catalog::Table`] hides the choice from everything above it.
//! The default is [`StorageConfig::InMemory`].

pub mod btree;
pub mod buffer;
pub mod disk;
pub mod heap;
pub mod page;

pub use btree::BTreeIndex;
pub use buffer::{BufferPool, PoolCounters, MIN_POOL_PAGES};
pub use disk::DiskManager;
pub use heap::TableHeap;
pub use page::{Page, PageType, MIN_PAGE_SIZE};

use crate::error::SqlError;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// How a `Database` stores table rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageConfig {
    /// Classic in-memory `Vec<Row>` storage (the default).
    #[default]
    InMemory,
    /// Disk-page layout behind a bounded buffer pool.
    Paged {
        /// Maximum resident frames in the buffer pool.
        pool_pages: usize,
        /// Page size in bytes (clamped to `[MIN_PAGE_SIZE, 65536]`).
        page_size: usize,
    },
}

impl StorageConfig {
    /// A paged configuration with the given pool size and page size.
    pub fn paged(pool_pages: usize, page_size: usize) -> StorageConfig {
        StorageConfig::Paged {
            pool_pages,
            page_size,
        }
    }

    /// Whether this configuration uses the paged arm.
    pub fn is_paged(&self) -> bool {
        matches!(self, StorageConfig::Paged { .. })
    }
}

/// Shared handle to one buffer pool: `Database` and each paged table hold an
/// `Arc<Pager>` so heap/index code can reach the pool without threading it
/// through every call site.
#[derive(Debug)]
pub struct Pager {
    pool: Mutex<BufferPool>,
}

impl Pager {
    /// A pager over a deterministic in-memory disk.
    pub fn in_mem(pool_pages: usize, page_size: usize) -> Arc<Pager> {
        let page_size = page_size.clamp(MIN_PAGE_SIZE, 65_536);
        Arc::new(Pager {
            pool: Mutex::new(BufferPool::new(DiskManager::mem(page_size), pool_pages)),
        })
    }

    /// A pager over a file at `path` (created/truncated).
    pub fn on_file(path: &Path, pool_pages: usize, page_size: usize) -> Result<Arc<Pager>, SqlError> {
        let page_size = page_size.clamp(MIN_PAGE_SIZE, 65_536);
        Ok(Arc::new(Pager {
            pool: Mutex::new(BufferPool::new(
                DiskManager::file(path, page_size)?,
                pool_pages,
            )),
        }))
    }

    /// Lock the underlying pool. The engine is single-writer, so the mutex
    /// only guards against accidental re-entrancy; a poisoned lock is
    /// recovered rather than propagated.
    pub fn pool(&self) -> MutexGuard<'_, BufferPool> {
        self.pool.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Snapshot of the pool's hit/miss/eviction/writeback counters.
    pub fn counters(&self) -> PoolCounters {
        self.pool().counters()
    }

    /// Deep copy (flushes first). `Mem`-disk pagers produce fully isolated
    /// clones; `File`-disk clones alias the same file.
    pub fn deep_clone(&self) -> Result<Arc<Pager>, SqlError> {
        let cloned = self.pool().deep_clone()?;
        Ok(Arc::new(Pager {
            pool: Mutex::new(cloned),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn config_default_is_in_memory() {
        assert_eq!(StorageConfig::default(), StorageConfig::InMemory);
        assert!(!StorageConfig::InMemory.is_paged());
        assert!(StorageConfig::paged(64, 4096).is_paged());
    }

    #[test]
    fn pager_clamps_page_size() {
        let p = Pager::in_mem(8, 1); // absurdly small → clamped
        assert_eq!(p.pool().page_size(), MIN_PAGE_SIZE);
    }

    #[test]
    fn pager_deep_clone_isolates_mem_disk() {
        let p = Pager::in_mem(8, 128);
        let mut heap = TableHeap::new();
        heap.append_row(&mut p.pool(), &[Value::Int(1)]).unwrap();
        let c = p.deep_clone().unwrap();
        // Writing through the clone's pool leaves the original untouched.
        let mut heap2 = heap.clone();
        heap2.append_row(&mut c.pool(), &[Value::Int(2)]).unwrap();
        assert_eq!(heap.all_rows(&mut p.pool()).unwrap().len(), 1);
        assert_eq!(heap2.all_rows(&mut c.pool()).unwrap().len(), 2);
    }
}
