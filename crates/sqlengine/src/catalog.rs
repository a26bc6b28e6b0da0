//! The catalog: named tables, their stored rows, and secondary indexes.
//!
//! [`Table`] is the one storage interface both executors and DML use. It
//! hides which of two storage arms, selected by
//! [`crate::storage::StorageConfig`], holds the rows: in memory (the
//! default) or a [`crate::storage::TableHeap`] of pages behind a shared
//! buffer pool. Every full pass ([`Table::for_each_row`]), query scan
//! ([`Table::scan`]), index probe ([`Table::probe`]) and row rewrite
//! ([`Table::rewrite_rows`]) has one entry point that serves both arms.
//!
//! In memory, rows sit in copy-on-write chunks of [`CHUNK_ROWS`] shared
//! rows (each an `Arc<[Value]>`, no larger than a [`Row`]), every chunk
//! full except the last, so row position `p` is row `p % CHUNK_ROWS` of
//! chunk `p / CHUNK_ROWS`. A [`Snapshot`] shares the chunks: taking one
//! under a read lock costs one reference count per chunk, and the SELECT
//! reads it after the lock is gone. A write copies only the chunks it
//! changes while a snapshot still shares them (counted by
//! [`Table::cow_chunks`]): an INSERT touches the last chunk, an UPDATE the
//! chunks holding rows it changes, a DELETE every chunk from its first
//! removed row on, since the survivors are re-packed. Copying a chunk
//! copies its row handles, not the rows, and an UPDATE copies only the
//! rows it changes. (Chunks that owned their rows had to be copied whole;
//! on an OLTP table that moved the rows from the loading thread's
//! allocator arena into the writers' arenas and grew the process by about
//! the table's size.) The paged arm takes no snapshot: a query scan
//! streams its pages through the caller's filter under the lock, so only
//! the rows the caller keeps are copied and memory stays bounded by the
//! pool.
//!
//! Secondary indexes key rows by [`encode_value`] on either arm: the
//! in-memory arm holds the B+-tree's leaf level as an ordered map, the
//! paged arm a [`crate::storage::BTreeIndex`]. INSERTs keep in-memory
//! indexes current. Any other change to the rows marks the table's indexes
//! stale until [`Table::refresh_indexes`] rebuilds them; probes need fresh
//! indexes.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use dbgpt_obs::hash::Fnv1a;

use crate::error::SqlError;
use crate::row::Row;
use crate::schema::{Schema, SchemaRef};
use crate::storage::btree::encode_value;
use crate::storage::{BTreeIndex, Pager, StorageConfig, TableHeap};
use crate::value::Value;

/// Rows per in-memory chunk: the unit a [`Snapshot`] shares and a write
/// copies when a snapshot still holds it.
pub const CHUNK_ROWS: usize = 1024;

/// Where a table's rows live.
#[derive(Debug, Clone)]
enum Rows {
    /// In memory, in storage order: copy-on-write chunks of
    /// [`CHUNK_ROWS`] rows, every one full except the last.
    Mem(Vec<RowChunk>),
    /// In heap pages behind the database's shared buffer pool.
    Paged { heap: TableHeap, pager: Arc<Pager> },
}

/// A secondary index over one column, in its table's storage form.
#[derive(Debug, Clone)]
enum Index {
    /// The B+-tree's leaf level held in memory: encoded value → ascending
    /// row positions.
    Mem(BTreeMap<Vec<u8>, Vec<usize>>),
    /// A B+-tree in the table's buffer pool.
    Paged(BTreeIndex),
}

/// One stored in-memory row, shared by the chunks that hold it.
type StoredRow = Arc<[Value]>;

/// What a [`Table::rewrite_rows`] callback wants done with one row.
#[derive(Debug, Clone, PartialEq)]
pub enum RowEdit {
    /// Leave the row as it is.
    Keep,
    /// Overwrite these cells: `(column position, new value)`.
    Set(Vec<(usize, Value)>),
    /// Remove the row from the table.
    Remove,
}

impl RowEdit {
    /// Apply a [`RowEdit::Set`] to `row`.
    fn apply(cells: Vec<(usize, Value)>, row: &mut [Value]) {
        for (col, v) in cells {
            row[col] = v;
        }
    }
}

/// One in-memory chunk: up to [`CHUNK_ROWS`] rows, each shared so that
/// copying the chunk copies handles only.
type RowChunk = Arc<Vec<StoredRow>>;

/// An in-memory table's rows as [`Table::scan`] saw them, readable after
/// the table's lock is released: the table's chunks, shared.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The table's schema (unqualified).
    schema: SchemaRef,
    chunks: Vec<RowChunk>,
    /// The ascending row positions to read (`None`: every row).
    at: Option<Vec<usize>>,
}

impl Snapshot {
    /// The table's schema (unqualified column names).
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Stream the snapshot's rows through `f`, in storage order. The rows
    /// borrow from the snapshot, so `f` may keep them.
    pub fn for_each<'a>(
        &'a self,
        mut f: impl FnMut(&'a [Value]) -> Result<(), SqlError>,
    ) -> Result<(), SqlError> {
        match &self.at {
            None => mem_rows(&self.chunks).try_for_each(f),
            Some(ids) => ids.iter().try_for_each(|&id| f(row_at(&self.chunks, id)?)),
        }
    }

    /// [`Snapshot::for_each`] that releases each chunk as soon as its rows
    /// are read, so a write racing the rest of the scan does not have to
    /// copy the chunks already read.
    pub fn drain(
        self,
        mut f: impl FnMut(&[Value]) -> Result<(), SqlError>,
    ) -> Result<(), SqlError> {
        match self.at {
            None => self
                .chunks
                .into_iter()
                .try_for_each(|chunk| chunk.iter().try_for_each(|row| f(row))),
            Some(_) => self.for_each(f),
        }
    }
}

/// Every in-memory row, in storage order.
fn mem_rows(chunks: &[RowChunk]) -> impl Iterator<Item = &[Value]> {
    chunks.iter().flat_map(|c| c.iter().map(|row| &**row))
}

/// The in-memory row at position `id`.
fn row_at(chunks: &[RowChunk], id: usize) -> Result<&[Value], SqlError> {
    chunks
        .get(id / CHUNK_ROWS)
        .and_then(|c| c.get(id % CHUNK_ROWS))
        .map(|row| &**row)
        .ok_or_else(|| {
            let len: usize = chunks.iter().map(|c| c.len()).sum();
            SqlError::Storage(format!(
                "row position {id} out of range (table has {len} rows)"
            ))
        })
}

/// `chunk`, writable: copied first (and counted in `copies`) while a
/// snapshot still shares it.
fn chunk_mut<'c>(chunk: &'c mut RowChunk, copies: &mut u64) -> &'c mut Vec<StoredRow> {
    let shared = Arc::as_ptr(chunk);
    let chunk = Arc::make_mut(chunk);
    if !std::ptr::eq(shared, chunk) {
        *copies += 1;
    }
    chunk
}

/// `row`, writable: copied first while a snapshot still shares it.
fn row_mut(row: &mut StoredRow) -> &mut [Value] {
    if Arc::get_mut(row).is_none() {
        *row = row.iter().cloned().collect();
    }
    Arc::get_mut(row).expect("a row no one else holds")
}

/// The in-memory arm of [`Table::rewrite_rows`]; returns whether any row
/// changed or left. Chunks before the first removed row keep their place
/// and are copied only to change a row a snapshot shares (the row too is
/// copied then). From the first removal on, the surviving rows are
/// re-packed into full chunks.
fn rewrite_chunks(
    chunks: &mut Vec<RowChunk>,
    edit: &mut impl FnMut(&[Value]) -> RowEdit,
    copies: &mut u64,
) -> bool {
    let mut touched = false;
    let mut packed = Vec::with_capacity(chunks.len());
    // Survivors waiting to fill the next re-packed chunk.
    let mut pending: Vec<StoredRow> = Vec::new();
    for mut chunk in std::mem::take(chunks) {
        let mut removed = Vec::new();
        for i in 0..chunk.len() {
            match edit(&chunk[i]) {
                RowEdit::Keep => continue,
                RowEdit::Set(cells) => {
                    RowEdit::apply(cells, row_mut(&mut chunk_mut(&mut chunk, copies)[i]))
                }
                RowEdit::Remove => removed.push(i),
            }
            touched = true;
        }
        if removed.is_empty() && pending.is_empty() {
            packed.push(chunk);
            continue;
        }
        let rows = Arc::try_unwrap(chunk).unwrap_or_else(|shared| {
            *copies += 1;
            shared.as_ref().clone()
        });
        let mut removed = removed.into_iter().peekable();
        for (i, row) in rows.into_iter().enumerate() {
            if removed.next_if_eq(&i).is_some() {
                continue;
            }
            pending.push(row);
            if pending.len() == CHUNK_ROWS {
                packed.push(Arc::new(std::mem::take(&mut pending)));
            }
        }
    }
    if !pending.is_empty() {
        packed.push(Arc::new(pending));
    }
    *chunks = packed;
    touched
}

/// A stored table: schema, rows on one storage arm, secondary indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name (lowercase).
    pub name: String,
    /// Schema (unqualified column names).
    pub schema: SchemaRef,
    rows: Rows,
    /// Indexes by column position.
    indexes: HashMap<usize, Index>,
    /// Index name → column position (for `DROP INDEX name ON table`).
    index_names: HashMap<String, usize>,
    /// Set when rows changed under the indexes; probes then refuse to
    /// answer until [`Table::refresh_indexes`].
    indexes_stale: bool,
    /// In-memory chunks copied by writes because a snapshot shared them.
    cow_chunks: u64,
}

impl Table {
    /// Create an empty in-memory table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table::with_rows(name, schema, Rows::Mem(Vec::new()))
    }

    /// Create an empty paged table whose rows live in `pager`'s pool.
    pub fn new_paged(name: impl Into<String>, schema: Schema, pager: Arc<Pager>) -> Self {
        let heap = TableHeap::new();
        Table::with_rows(name, schema, Rows::Paged { heap, pager })
    }

    fn with_rows(name: impl Into<String>, schema: Schema, rows: Rows) -> Self {
        Table {
            name: name.into().to_lowercase(),
            schema: Arc::new(schema),
            rows,
            indexes: HashMap::new(),
            index_names: HashMap::new(),
            indexes_stale: false,
            cow_chunks: 0,
        }
    }

    /// Heap pages holding the rows (0 on the in-memory arm).
    pub fn page_count(&self) -> usize {
        match &self.rows {
            Rows::Mem(_) => 0,
            Rows::Paged { heap, .. } => heap.page_count(),
        }
    }

    /// Coerce one row of values against the schema.
    fn coerce_values(&self, values: Vec<Value>) -> Result<Row, SqlError> {
        if values.len() != self.schema.len() {
            return Err(SqlError::Execution(format!(
                "table `{}` has {} columns but {} values were supplied",
                self.name,
                self.schema.len(),
                values.len()
            )));
        }
        let row = values
            .into_iter()
            .zip(self.schema.columns())
            .map(|(v, c)| v.coerce_to(c.data_type))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Row::new(row))
    }

    /// Append a row after coercing every value to its column type.
    pub fn insert_row(&mut self, values: Vec<Value>) -> Result<(), SqlError> {
        let row = self.coerce_values(values)?;
        self.append(row)
    }

    /// Bulk append: coerce and validate every row first, then append them
    /// all (no partial inserts on a bad row).
    pub fn insert_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<usize, SqlError> {
        let rows = rows
            .into_iter()
            .map(|values| self.coerce_values(values))
            .collect::<Result<Vec<_>, _>>()?;
        let n = rows.len();
        rows.into_iter().try_for_each(|row| self.append(row))?;
        Ok(n)
    }

    /// Append one coerced row, keeping in-memory indexes current.
    fn append(&mut self, row: Row) -> Result<(), SqlError> {
        let pos = self.len();
        if !self.indexes_stale {
            for (&col, index) in &mut self.indexes {
                match index {
                    Index::Mem(map) => map.entry(encode_value(&row[col])).or_default().push(pos),
                    // B+-trees are only bulk-built: an append makes them stale.
                    Index::Paged(_) => self.indexes_stale = true,
                }
            }
        }
        match &mut self.rows {
            Rows::Mem(chunks) => {
                if chunks.last().is_none_or(|c| c.len() == CHUNK_ROWS) {
                    chunks.push(Arc::default());
                }
                let tail = chunks.last_mut().expect("a tail chunk");
                chunk_mut(tail, &mut self.cow_chunks).push(row.into_values().into());
            }
            Rows::Paged { heap, pager } => {
                heap.append_row(&mut pager.pool(), row.values())?;
            }
        }
        Ok(())
    }

    /// Build an index over column `col` from the current rows.
    fn build_index(&self, col: usize) -> Result<Index, SqlError> {
        Ok(match &self.rows {
            Rows::Mem(chunks) => {
                // Sort, then group: `BTreeMap` bulk-builds from sorted
                // input, far faster than one insert per row.
                let mut keys: Vec<(Vec<u8>, usize)> = mem_rows(chunks)
                    .enumerate()
                    .map(|(i, row)| (encode_value(&row[col]), i))
                    .collect();
                keys.sort_unstable();
                let mut grouped: Vec<(Vec<u8>, Vec<usize>)> = Vec::new();
                for (key, i) in keys {
                    match grouped.last_mut() {
                        Some((last, ids)) if *last == key => ids.push(i),
                        _ => grouped.push((key, vec![i])),
                    }
                }
                Index::Mem(grouped.into_iter().collect())
            }
            Rows::Paged { heap, pager } => {
                let mut pool = pager.pool();
                let mut items = Vec::with_capacity(heap.len());
                heap.scan(&mut pool, |ord, row| {
                    items.push((row[col].clone(), ord));
                    Ok(())
                })?;
                Index::Paged(BTreeIndex::build(&mut pool, items)?)
            }
        })
    }

    /// Release an index's pages (a no-op for in-memory indexes).
    fn free_index(&self, index: Index) -> Result<(), SqlError> {
        match (index, &self.rows) {
            (Index::Paged(tree), Rows::Paged { pager, .. }) => tree.free(&mut pager.pool()),
            _ => Ok(()),
        }
    }

    /// Drop the index on `col` unless another index name still covers it.
    fn drop_column_index(&mut self, col: usize) -> Result<(), SqlError> {
        if self.index_names.values().any(|&c| c == col) {
            return Ok(());
        }
        match self.indexes.remove(&col) {
            Some(index) => self.free_index(index),
            None => Ok(()),
        }
    }

    /// Create a named index on `column`. Re-creating under the same name
    /// replaces it.
    pub fn create_index(&mut self, name: &str, column: &str) -> Result<(), SqlError> {
        let col = self.schema.index_of(column)?;
        let index = self.build_index(col)?;
        if let Some(old) = self.index_names.insert(name.to_lowercase(), col) {
            if old != col {
                self.drop_column_index(old)?;
            }
        }
        match self.indexes.insert(col, index) {
            Some(old) => self.free_index(old),
            None => Ok(()),
        }
    }

    /// Drop an index by name.
    pub fn drop_index(&mut self, name: &str) -> Result<(), SqlError> {
        let name = name.to_lowercase();
        match self.index_names.remove(&name) {
            Some(col) => self.drop_column_index(col),
            None => Err(SqlError::Plan(format!("index not found: {name}"))),
        }
    }

    /// Names of this table's indexes, sorted.
    pub fn index_list(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.index_names.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Columns (by position) that carry indexes.
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.indexes.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// Whether column `col` has an index that [`Table::probe`] may use.
    pub fn has_fresh_index(&self, col: usize) -> bool {
        !self.indexes_stale && self.indexes.contains_key(&col)
    }

    /// Ascending positions of the rows whose column `col` lies between
    /// `lo` and `hi` in [`encode_value`] order. Errors unless
    /// [`Table::has_fresh_index`] holds for `col`.
    pub fn probe(
        &self,
        col: usize,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Result<Vec<usize>, SqlError> {
        let index = match self.indexes.get(&col) {
            Some(index) if !self.indexes_stale => index,
            _ => {
                return Err(SqlError::Plan(format!(
                    "no fresh index on column {col} of `{}`",
                    self.name
                )))
            }
        };
        match (index, &self.rows) {
            (Index::Paged(tree), Rows::Paged { pager, .. }) => {
                tree.range(&mut pager.pool(), lo, hi)
            }
            (Index::Mem(map), _) => {
                let (lo, hi) = (lo.map(encode_value), hi.map(encode_value));
                // `BTreeMap::range` panics on inverted bounds.
                let empty = match (&lo, &hi) {
                    (Bound::Included(l), Bound::Included(h)) => l > h,
                    (
                        Bound::Included(l) | Bound::Excluded(l),
                        Bound::Included(h) | Bound::Excluded(h),
                    ) => l >= h,
                    _ => false,
                };
                if empty {
                    return Ok(Vec::new());
                }
                let range = (
                    lo.as_ref().map(Vec::as_slice),
                    hi.as_ref().map(Vec::as_slice),
                );
                let mut ids: Vec<usize> = map
                    .range::<[u8], _>(range)
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .collect();
                ids.sort_unstable();
                Ok(ids)
            }
            (Index::Paged(_), Rows::Mem(_)) => unreachable!("B+-trees index paged tables only"),
        }
    }

    /// Rebuild stale indexes. A failed build leaves the table stale, so
    /// probes keep falling back to scans.
    pub fn refresh_indexes(&mut self) {
        if !self.indexes_stale {
            return;
        }
        let cols: Vec<usize> = self.indexes.keys().copied().collect();
        for col in cols {
            let Ok(index) = self.build_index(col) else {
                return;
            };
            if let Some(old) = self.indexes.insert(col, index) {
                let _ = self.free_index(old);
            }
        }
        self.indexes_stale = false;
    }

    /// In-memory chunks this table's writes have copied because a
    /// [`Snapshot`] (or a clone of the table) still shared them.
    pub fn cow_chunks(&self) -> u64 {
        self.cow_chunks
    }

    /// Row count.
    pub fn len(&self) -> usize {
        match &self.rows {
            // Every chunk but the last is full.
            Rows::Mem(chunks) => chunks.last().map_or(0, |tail| {
                (chunks.len() - 1) * CHUNK_ROWS + tail.len()
            }),
            Rows::Paged { heap, .. } => heap.len(),
        }
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stream every stored row through `f` in storage order. The paged arm
    /// decodes one page at a time, so memory stays bounded by the pool.
    pub fn for_each_row(
        &self,
        mut f: impl FnMut(&[Value]) -> Result<(), SqlError>,
    ) -> Result<(), SqlError> {
        match &self.rows {
            Rows::Mem(chunks) => mem_rows(chunks).try_for_each(f),
            Rows::Paged { heap, pager } => {
                for i in 0..heap.page_count() {
                    for values in heap.read_page(&mut pager.pool(), i)? {
                        f(&values)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Read the rows a scan reads, under the caller's lock: every row, or
    /// the ascending positions `ids` from [`Table::probe`]. In memory this
    /// copies no row: it returns a [`Snapshot`] sharing the chunks, to read
    /// after the lock is released. The paged arm streams the rows through
    /// `copy` now, one page at a time, and returns `None`, so the caller
    /// holds only what it copies.
    pub fn scan(
        &self,
        ids: Option<Vec<usize>>,
        mut copy: impl FnMut(&[Value]) -> Result<(), SqlError>,
    ) -> Result<Option<Snapshot>, SqlError> {
        let (heap, pager) = match &self.rows {
            Rows::Mem(chunks) => {
                return Ok(Some(Snapshot {
                    schema: self.schema.clone(),
                    chunks: chunks.clone(),
                    at: ids,
                }))
            }
            Rows::Paged { heap, pager } => (heap, pager),
        };
        match ids {
            Some(ids) => {
                debug_assert!(ids.windows(2).all(|w| w[0] <= w[1]), "positions ascend");
                let fetched = heap.fetch_many(&mut pager.pool(), &ids)?;
                fetched.iter().try_for_each(|values| copy(values))?;
            }
            None => self.for_each_row(copy)?,
        }
        Ok(None)
    }

    /// Materialize every row as owned values (CSV export, maintenance
    /// passes). Prefer [`Table::for_each_row`] where streaming suffices.
    pub fn all_rows(&self) -> Result<Vec<Vec<Value>>, SqlError> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_row(|row| {
            out.push(row.to_vec());
            Ok(())
        })?;
        Ok(out)
    }

    /// Rewrite the table in one pass over its rows, in storage order.
    /// `edit` reads each row and says what to do with it. In memory,
    /// changed rows are written in place (copying a chunk a snapshot
    /// shares) and removals re-pack the chunks; the paged arm streams the
    /// pages into a new heap and swaps it in, and on a storage error frees
    /// the new heap and leaves the table as it was.
    ///
    /// As soon as any row changed or left, the indexes go stale (until
    /// [`Table::refresh_indexes`]) — also when the caller's statement goes
    /// on to fail.
    pub fn rewrite_rows(
        &mut self,
        mut edit: impl FnMut(&[Value]) -> RowEdit,
    ) -> Result<(), SqlError> {
        let mut touched = false;
        match &mut self.rows {
            Rows::Mem(chunks) => touched = rewrite_chunks(chunks, &mut edit, &mut self.cow_chunks),
            Rows::Paged { heap, pager } => {
                let mut pool = pager.pool();
                let mut rewritten = TableHeap::new();
                let copied = (0..heap.page_count()).try_for_each(|i| {
                    for mut row in heap.read_page(&mut pool, i)? {
                        match edit(&row) {
                            RowEdit::Keep => {}
                            RowEdit::Set(cells) => {
                                RowEdit::apply(cells, &mut row);
                                touched = true;
                            }
                            RowEdit::Remove => {
                                touched = true;
                                continue;
                            }
                        }
                        rewritten.append_row(&mut pool, &row)?;
                    }
                    Ok(())
                });
                if let Err(e) = copied {
                    rewritten.free(&mut pool)?;
                    return Err(e);
                }
                std::mem::replace(heap, rewritten).free(&mut pool)?;
            }
        }
        if touched && !self.indexes.is_empty() {
            self.indexes_stale = true;
        }
        Ok(())
    }

    /// Release all paged storage (heap and B+-trees) back to the pool's
    /// free list; called when the table is dropped. No-op in memory.
    pub fn free_storage(&mut self) -> Result<(), SqlError> {
        let Rows::Paged { heap, pager } = &mut self.rows else {
            return Ok(());
        };
        let mut pool = pager.pool();
        heap.free(&mut pool)?;
        for (_, index) in self.indexes.drain() {
            if let Index::Paged(tree) = index {
                tree.free(&mut pool)?;
            }
        }
        Ok(())
    }
}

/// A database: a set of named tables plus the storage arm they live on.
///
/// Iteration order is deterministic (`BTreeMap`), which keeps schema dumps
/// — the input to Text-to-SQL prompts — stable across runs.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    storage: StorageConfig,
    /// Shared buffer pool for the paged arm (`None` when in-memory).
    pager: Option<Arc<Pager>>,
}

impl Clone for Database {
    /// Deep copy. In-memory tables share their row chunks copy-on-write.
    /// The paged arm deep-clones the buffer pool (flushing first) and
    /// re-points every table at the clone's pager, so clones never share
    /// mutable page state. A `File`-backed pager still aliases
    /// the underlying file — see [`Pager::deep_clone`].
    fn clone(&self) -> Database {
        let pager = self
            .pager
            .as_ref()
            .map(|p| p.deep_clone().expect("pager deep clone"));
        let mut tables = self.tables.clone();
        if let Some(p) = &pager {
            for t in tables.values_mut() {
                if let Rows::Paged { pager, .. } = &mut t.rows {
                    *pager = Arc::clone(p);
                }
            }
        }
        Database {
            tables,
            storage: self.storage,
            pager,
        }
    }
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create an empty database on the given storage arm. The paged arm
    /// uses a deterministic in-memory disk behind its buffer pool.
    pub fn with_storage(storage: StorageConfig) -> Database {
        let pager = match storage {
            StorageConfig::InMemory => None,
            StorageConfig::Paged {
                pool_pages,
                page_size,
            } => Some(Pager::in_mem(pool_pages, page_size)),
        };
        Database {
            tables: BTreeMap::new(),
            storage,
            pager,
        }
    }

    /// The storage arm this database was created with.
    pub fn storage_config(&self) -> StorageConfig {
        self.storage
    }

    /// The shared pager (paged arm only).
    pub fn pager(&self) -> Option<&Arc<Pager>> {
        self.pager.as_ref()
    }

    /// Create a table. Errors if the name is taken (unless
    /// `if_not_exists`).
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        if_not_exists: bool,
    ) -> Result<(), SqlError> {
        let key = name.to_lowercase();
        if self.tables.contains_key(&key) {
            if if_not_exists {
                return Ok(());
            }
            return Err(SqlError::TableExists(key));
        }
        let table = match &self.pager {
            Some(p) => Table::new_paged(key.clone(), schema, Arc::clone(p)),
            None => Table::new(key.clone(), schema),
        };
        self.tables.insert(key, table);
        Ok(())
    }

    /// Drop a table (releasing its pages on the paged arm). Errors if
    /// missing (unless `if_exists`).
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<(), SqlError> {
        let key = name.to_lowercase();
        match self.tables.remove(&key) {
            Some(mut t) => t.free_storage(),
            None if if_exists => Ok(()),
            None => Err(SqlError::TableNotFound(key)),
        }
    }

    /// Shared view of a table.
    pub fn table(&self, name: &str) -> Result<&Table, SqlError> {
        self.tables
            .get(&name.to_lowercase())
            .ok_or_else(|| SqlError::TableNotFound(name.to_lowercase()))
    }

    /// Mutable view of a table.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, SqlError> {
        self.tables
            .get_mut(&name.to_lowercase())
            .ok_or_else(|| SqlError::TableNotFound(name.to_lowercase()))
    }

    /// Does the table exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_lowercase())
    }

    /// Table names in deterministic order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Order-sensitive FNV-1a digest of the whole catalog: table names,
    /// column schemas, and every row's values in storage order. Replicated
    /// catalogs that applied the same DDL/DML in the same order hash
    /// identically — the cluster layer compares these digests to prove a
    /// replica's SQL shard converged with its primary after failover.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut eat = |bytes: &[u8]| {
            h.write(bytes);
            h.write_u8(0xff);
        };
        for (name, table) in &self.tables {
            eat(name.as_bytes());
            for col in table.schema.columns() {
                eat(col.name.as_bytes());
                eat(format!("{:?}", col.data_type).as_bytes());
            }
            // Both storage arms hash identically for identical contents; a
            // paged-arm storage error truncates the digest (and is reported
            // loudly everywhere else), so ignore it here.
            let _ = table.for_each_row(|row| {
                for v in row {
                    eat(v.to_string().as_bytes());
                }
                eat(b"|");
                Ok(())
            });
        }
        h.finish()
    }

    /// Render the full schema as `CREATE TABLE`-style DDL — the schema
    /// context that Text-to-SQL prompts embed.
    pub fn schema_ddl(&self) -> String {
        let mut out = String::new();
        for t in self.tables.values() {
            out.push_str("CREATE TABLE ");
            out.push_str(&t.name);
            out.push_str(" (");
            for (i, c) in t.schema.columns().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&c.name);
                out.push(' ');
                out.push_str(c.data_type.name());
            }
            out.push_str(");\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn create_and_lookup() {
        let mut db = Database::new();
        db.create_table("Users", schema(), false).unwrap();
        assert!(db.has_table("users"));
        assert!(db.has_table("USERS"));
        assert_eq!(db.table("users").unwrap().schema.len(), 2);
    }

    #[test]
    fn duplicate_create_rejected_unless_if_not_exists() {
        let mut db = Database::new();
        db.create_table("t", schema(), false).unwrap();
        assert!(matches!(
            db.create_table("t", schema(), false),
            Err(SqlError::TableExists(_))
        ));
        assert!(db.create_table("t", schema(), true).is_ok());
    }

    #[test]
    fn drop_semantics() {
        let mut db = Database::new();
        db.create_table("t", schema(), false).unwrap();
        db.drop_table("t", false).unwrap();
        assert!(!db.has_table("t"));
        assert!(matches!(
            db.drop_table("t", false),
            Err(SqlError::TableNotFound(_))
        ));
        assert!(db.drop_table("t", true).is_ok());
    }

    #[test]
    fn insert_coerces_and_validates() {
        let mut db = Database::new();
        db.create_table("t", schema(), false).unwrap();
        let t = db.table_mut("t").unwrap();
        t.insert_row(vec![Value::Int(1), Value::Text("a".into())]).unwrap();
        // Wrong arity.
        assert!(t.insert_row(vec![Value::Int(1)]).is_err());
        // Wrong type.
        assert!(t
            .insert_row(vec![Value::Text("x".into()), Value::Text("a".into())])
            .is_err());
        // NULL passes.
        t.insert_row(vec![Value::Null, Value::Null]).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn insert_rows_bulk_matches_per_row() {
        let mut a = Table::new("t", schema());
        let mut b = Table::new("t", schema());
        let rows: Vec<Vec<Value>> = (0..5)
            .map(|i| vec![Value::Int(i), Value::Text(format!("r{i}"))])
            .collect();
        for r in rows.clone() {
            a.insert_row(r).unwrap();
        }
        assert_eq!(b.insert_rows(rows).unwrap(), 5);
        assert_eq!(a.all_rows().unwrap(), b.all_rows().unwrap());
        // Atomic: a bad row rejects the whole batch.
        let bad = vec![
            vec![Value::Int(9), Value::Text("ok".into())],
            vec![Value::Int(10)],
        ];
        assert!(b.insert_rows(bad).is_err());
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn insert_rows_maintains_indexes() {
        let mut t = Table::new("t", schema());
        t.create_index("i", "name").unwrap();
        t.insert_rows(vec![
            vec![Value::Int(1), Value::Text("a".into())],
            vec![Value::Int(2), Value::Text("a".into())],
            vec![Value::Int(3), Value::Text("b".into())],
        ])
        .unwrap();
        let a = Value::Text("a".into());
        let probe = t.probe(1, Bound::Included(&a), Bound::Included(&a));
        assert_eq!(probe.unwrap(), vec![0, 1]);
    }

    /// A table of `n` rows `(i, "r{i}")`.
    fn table_of(n: i64) -> Table {
        let mut t = Table::new("t", schema());
        let rows = (0..n).map(|i| vec![Value::Int(i), Value::Text(format!("r{i}"))]);
        t.insert_rows(rows.collect()).unwrap();
        t
    }

    fn mem_chunks(t: &Table) -> &[RowChunk] {
        match &t.rows {
            Rows::Mem(chunks) => chunks,
            Rows::Paged { .. } => unreachable!("in-memory table"),
        }
    }

    fn shared_chunks(s: &Snapshot) -> &[RowChunk] {
        &s.chunks
    }

    /// An in-memory table's snapshot, at positions `ids` or of every row.
    fn snapshot(t: &Table, ids: Option<Vec<usize>>) -> Snapshot {
        let copy = |_: &[Value]| unreachable!("in-memory scans copy nothing");
        t.scan(ids, copy).unwrap().expect("an in-memory snapshot")
    }

    /// Which of `t`'s chunks are still the snapshot's.
    fn still_shared(t: &Table, s: &Snapshot) -> Vec<bool> {
        let old = shared_chunks(s);
        (0..mem_chunks(t).len())
            .map(|i| old.get(i).is_some_and(|o| Arc::ptr_eq(o, &mem_chunks(t)[i])))
            .collect()
    }

    fn ids(t: &Table) -> Vec<i64> {
        let mut out = Vec::new();
        t.for_each_row(|row| {
            out.push(row[0].as_i64().unwrap());
            Ok(())
        })
        .unwrap();
        out
    }

    fn snapshot_ids(s: &Snapshot) -> Vec<i64> {
        let mut out = Vec::new();
        s.for_each(|row| {
            out.push(row[0].as_i64().unwrap());
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn chunks_are_full_except_the_last() {
        let n = 3 * CHUNK_ROWS as i64 + 10;
        let t = table_of(n);
        let lens: Vec<usize> = mem_chunks(&t).iter().map(|c| c.len()).collect();
        assert_eq!(lens, vec![CHUNK_ROWS, CHUNK_ROWS, CHUNK_ROWS, 10]);
        assert_eq!(t.len(), n as usize);
        let p = CHUNK_ROWS + 5;
        assert_eq!(snapshot_ids(&snapshot(&t, Some(vec![p]))), vec![p as i64]);
        let past_the_end = snapshot(&t, Some(vec![n as usize]));
        assert!(past_the_end.for_each(|_| Ok(())).is_err());
    }

    #[test]
    fn writes_copy_only_the_chunks_a_snapshot_shares() {
        let n = 3 * CHUNK_ROWS as i64 + 10;
        let set_name = |k: i64| {
            move |row: &[Value]| match row[0] == Value::Int(k) {
                true => RowEdit::Set(vec![(1, Value::Text("new".into()))]),
                false => RowEdit::Keep,
            }
        };

        // No snapshot alive: every write works in place.
        let mut t = table_of(n);
        let addrs = |t: &Table| mem_chunks(t).iter().map(Arc::as_ptr).collect::<Vec<_>>();
        let before = addrs(&t);
        t.rewrite_rows(set_name(CHUNK_ROWS as i64 + 1)).unwrap();
        t.insert_row(vec![Value::Int(n), Value::Null]).unwrap();
        assert_eq!(addrs(&t), before);
        assert_eq!(t.cow_chunks(), 0);

        // An UPDATE hitting one row of a middle chunk copies that chunk
        // only, and of its rows only the one it changes.
        let mut t = table_of(n);
        let snap = snapshot(&t, None);
        t.rewrite_rows(set_name(CHUNK_ROWS as i64 + 1)).unwrap();
        assert_eq!(still_shared(&t, &snap), vec![true, false, true, true]);
        assert_eq!(t.cow_chunks(), 1);
        let (old, new) = (&shared_chunks(&snap)[1], &mem_chunks(&t)[1]);
        let same_rows: Vec<bool> = (0..3).map(|i| Arc::ptr_eq(&old[i], &new[i])).collect();
        assert_eq!(same_rows, vec![true, false, true]);
        assert_eq!(old[1][1], Value::Text(format!("r{}", CHUNK_ROWS + 1)));
        // An UPDATE with no hit copies nothing.
        t.rewrite_rows(set_name(-1)).unwrap();
        assert_eq!(t.cow_chunks(), 1);

        // An INSERT copies the tail chunk, and opens a new one unshared.
        let mut t = table_of(n);
        let snap = snapshot(&t, None);
        t.insert_row(vec![Value::Int(n), Value::Null]).unwrap();
        assert_eq!(still_shared(&t, &snap), vec![true, true, true, false]);
        assert_eq!(t.cow_chunks(), 1);
        let spill = (n + 1..4 * CHUNK_ROWS as i64 + 1).map(|i| vec![Value::Int(i), Value::Null]);
        t.insert_rows(spill.collect()).unwrap();
        assert_eq!(still_shared(&t, &snap), vec![true, true, true, false, false]);
        assert_eq!(t.cow_chunks(), 1);
        assert_eq!(snapshot_ids(&snap), (0..n).collect::<Vec<_>>());

        // A DELETE re-packs from the chunk of its first removed row on.
        let mut t = table_of(n);
        let snap = snapshot(&t, None);
        let gone = CHUNK_ROWS as i64 + 7;
        t.rewrite_rows(|row| match row[0] == Value::Int(gone) {
            true => RowEdit::Remove,
            false => RowEdit::Keep,
        })
        .unwrap();
        assert_eq!(still_shared(&t, &snap), vec![true, false, false, false]);
        assert_eq!(t.cow_chunks(), 3);
        let lens: Vec<usize> = mem_chunks(&t).iter().map(|c| c.len()).collect();
        assert_eq!(lens, vec![CHUNK_ROWS, CHUNK_ROWS, CHUNK_ROWS, 9]);
        let want: Vec<i64> = (0..n).filter(|&i| i != gone).collect();
        assert_eq!(ids(&t), want);
        assert_eq!(snapshot_ids(&snap), (0..n).collect::<Vec<_>>());
        // Re-packing moves row handles, never copies a row.
        assert!(Arc::ptr_eq(&shared_chunks(&snap)[2][0], &mem_chunks(&t)[1][CHUNK_ROWS - 1]));
    }

    #[test]
    fn a_draining_scan_releases_the_chunks_it_has_read() {
        let n = 3 * CHUNK_ROWS as i64 + 10;
        let mut t = table_of(n);
        let snap = snapshot(&t, None);
        let set = |k: i64| {
            move |row: &[Value]| match row[0] == Value::Int(k) {
                true => RowEdit::Set(vec![(1, Value::Null)]),
                false => RowEdit::Keep,
            }
        };
        let mut read = Vec::new();
        snap.drain(|row| {
            let id = row[0].as_i64().unwrap();
            read.push(id);
            if id == n - 1 {
                // Updated after the snapshot: the scan sees the old value.
                assert_eq!(row[1], Value::Text(format!("r{id}")));
            }
            if id == 2 * CHUNK_ROWS as i64 {
                // Chunks 0 and 1 are read and released; 2 and 3 are not.
                t.rewrite_rows(set(1)).unwrap();
                assert_eq!(t.cow_chunks(), 0);
                t.rewrite_rows(set(n - 1)).unwrap();
                assert_eq!(t.cow_chunks(), 1);
            }
            Ok(())
        })
        .unwrap();
        // The scan still saw the rows as of the snapshot.
        assert_eq!(read, (0..n).collect::<Vec<_>>());
        assert_eq!(t.cow_chunks(), 1);
    }

    #[test]
    fn table_names_sorted() {
        let mut db = Database::new();
        db.create_table("zeta", schema(), false).unwrap();
        db.create_table("alpha", schema(), false).unwrap();
        assert_eq!(db.table_names(), vec!["alpha", "zeta"]);
        assert_eq!(db.table_count(), 2);
    }

    #[test]
    fn schema_ddl_roundtrips_through_parser() {
        let mut db = Database::new();
        db.create_table("users", schema(), false).unwrap();
        let ddl = db.schema_ddl();
        assert!(ddl.contains("CREATE TABLE users (id INT, name TEXT);"));
        // And it parses back.
        for stmt in ddl.lines() {
            assert!(crate::parser::parse(stmt).is_ok());
        }
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;
    use crate::engine::Engine;
    use crate::schema::Column;
    use crate::value::DataType;

    fn seeded() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (id INT, grp TEXT, v INT)").unwrap();
        e.execute(
            "INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20), (3, 'a', 30), (4, 'c', 40)",
        )
        .unwrap();
        e
    }

    #[test]
    fn create_index_and_lookup() {
        let mut e = seeded();
        e.execute("CREATE INDEX idx_grp ON t (grp)").unwrap();
        let t = e.database().table("t").unwrap();
        assert_eq!(t.index_list(), vec!["idx_grp"]);
        assert_eq!(t.indexed_columns(), vec![1]);
        assert!(t.has_fresh_index(1));
        assert!(!t.has_fresh_index(0));
        let eq = |v: &str| {
            let v = Value::Text(v.into());
            t.probe(1, Bound::Included(&v), Bound::Included(&v))
                .unwrap()
        };
        assert_eq!(eq("a"), vec![0, 2]);
        assert_eq!(eq("z"), Vec::<usize>::new());
        let all = t.probe(1, Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(all, vec![0, 1, 2, 3]);
        // No index on `id`: the probe refuses rather than guessing.
        assert!(t.probe(0, Bound::Unbounded, Bound::Unbounded).is_err());
    }

    #[test]
    fn indexed_query_matches_unindexed() {
        let mut plain = seeded();
        let mut indexed = seeded();
        indexed.execute("CREATE INDEX i ON t (grp)").unwrap();
        for sql in [
            "SELECT id FROM t WHERE grp = 'a' ORDER BY id",
            "SELECT SUM(v) FROM t WHERE grp = 'a'",
            "SELECT id FROM t WHERE grp = 'a' AND v > 15",
            "SELECT id FROM t WHERE grp = 'nope'",
        ] {
            let a = plain.execute(sql).unwrap();
            let b = indexed.execute(sql).unwrap();
            assert_eq!(a.rows, b.rows, "disagreement on {sql}");
        }
    }

    #[test]
    fn index_stays_fresh_across_inserts() {
        let mut e = seeded();
        e.execute("CREATE INDEX i ON t (grp)").unwrap();
        e.execute("INSERT INTO t VALUES (5, 'a', 50)").unwrap();
        let r = e.execute("SELECT COUNT(*) FROM t WHERE grp = 'a'").unwrap();
        assert_eq!(r.rows[0][0].as_i64(), Some(3));
    }

    #[test]
    fn update_and_delete_invalidate_then_results_stay_correct() {
        let mut e = seeded();
        e.execute("CREATE INDEX i ON t (grp)").unwrap();
        e.execute("UPDATE t SET grp = 'z' WHERE id = 1").unwrap();
        // Stale index must not serve wrong candidates.
        let r = e.execute("SELECT COUNT(*) FROM t WHERE grp = 'a'").unwrap();
        assert_eq!(r.rows[0][0].as_i64(), Some(1));
        let r = e.execute("SELECT COUNT(*) FROM t WHERE grp = 'z'").unwrap();
        assert_eq!(r.rows[0][0].as_i64(), Some(1));
        e.execute("DELETE FROM t WHERE grp = 'z'").unwrap();
        let r = e.execute("SELECT COUNT(*) FROM t WHERE grp = 'z'").unwrap();
        assert_eq!(r.rows[0][0].as_i64(), Some(0));
        // Refresh path also works explicitly.
        e.database_mut().table_mut("t").unwrap().refresh_indexes();
        let r = e.execute("SELECT COUNT(*) FROM t WHERE grp = 'b'").unwrap();
        assert_eq!(r.rows[0][0].as_i64(), Some(1));
    }

    #[test]
    fn drop_index_by_name() {
        let mut e = seeded();
        e.execute("CREATE INDEX i ON t (grp)").unwrap();
        e.execute("DROP INDEX i ON t").unwrap();
        assert!(e.database().table("t").unwrap().index_list().is_empty());
        assert!(e.execute("DROP INDEX i ON t").is_err());
        // Queries still work without the index.
        assert!(e.execute("SELECT id FROM t WHERE grp = 'a'").is_ok());
    }

    #[test]
    fn index_on_unknown_column_rejected() {
        let mut e = seeded();
        assert!(e.execute("CREATE INDEX i ON t (ghost)").is_err());
        assert!(e.execute("CREATE INDEX i ON ghost_table (grp)").is_err());
    }

    #[test]
    fn renaming_index_to_other_column_replaces() {
        let mut t = Table::new(
            "x",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ])
            .unwrap(),
        );
        t.insert_row(vec![Value::Int(1), Value::Int(2)]).unwrap();
        t.create_index("i", "a").unwrap();
        t.create_index("i", "b").unwrap(); // same name, new column
        assert_eq!(t.indexed_columns(), vec![1]);
    }
}
