//! The catalog: named tables, their stored rows, and secondary indexes.
//!
//! Tables come in two storage arms selected by
//! [`crate::storage::StorageConfig`]: the classic in-memory `Vec<Row>` arm
//! (the default — its behavior is byte-identical to before paged storage
//! existed) and a paged arm where rows live in a
//! [`crate::storage::TableHeap`] behind a shared buffer pool and secondary
//! indexes are paged [`crate::storage::BTreeIndex`]es instead of
//! [`HashIndex`]es.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dbgpt_obs::hash::Fnv1a;

use crate::col::ColumnTable;
use crate::error::SqlError;
use crate::row::Row;
use crate::schema::{Schema, SchemaRef};
use crate::storage::{BTreeIndex, Pager, StorageConfig, TableHeap};
use crate::value::{GroupKey, Value};

/// A hash index over one column: value → row positions.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    entries: HashMap<GroupKey, Vec<usize>>,
}

impl HashIndex {
    /// Build from a column of an existing table.
    fn build(rows: &[Row], col: usize) -> HashIndex {
        let mut entries: HashMap<GroupKey, Vec<usize>> = HashMap::new();
        for (i, r) in rows.iter().enumerate() {
            entries.entry(r[col].group_key()).or_default().push(i);
        }
        HashIndex { entries }
    }

    /// Row positions holding `value` (empty slice when absent).
    pub fn lookup(&self, value: &Value) -> &[usize] {
        self.entries
            .get(&value.group_key())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }
}

/// A stored table: schema + row storage + secondary hash indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name (lowercase).
    pub name: String,
    /// Schema (unqualified column names).
    pub schema: SchemaRef,
    /// Row storage.
    pub rows: Vec<Row>,
    /// Hash indexes by column position. Maintained on insert; rebuilt
    /// lazily after bulk mutation (UPDATE/DELETE mark them stale).
    indexes: HashMap<usize, HashIndex>,
    /// Index name → column position (for `DROP INDEX name ON table`).
    index_names: HashMap<String, usize>,
    indexes_stale: bool,
    /// Columnar mirror of `rows`, maintained on insert and dropped on
    /// in-place mutation (like indexes, but rebuilt on demand by the
    /// vectorized executor rather than lazily here).
    columnar: Option<ColumnTable>,
    /// Paged row storage; `Some` iff the table uses the paged arm (then
    /// `rows` stays empty).
    heap: Option<TableHeap>,
    /// Paged-arm secondary indexes (the paged counterpart of `indexes`).
    btrees: HashMap<usize, BTreeIndex>,
    /// Shared buffer pool, present on paged tables.
    pager: Option<Arc<Pager>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into().to_lowercase(),
            schema: Arc::new(schema),
            rows: Vec::new(),
            indexes: HashMap::new(),
            index_names: HashMap::new(),
            indexes_stale: false,
            columnar: None,
            heap: None,
            btrees: HashMap::new(),
            pager: None,
        }
    }

    /// Create an empty paged table whose rows live in `pager`'s pool.
    pub fn new_paged(name: impl Into<String>, schema: Schema, pager: Arc<Pager>) -> Self {
        let mut t = Table::new(name, schema);
        t.heap = Some(TableHeap::new());
        t.pager = Some(pager);
        t
    }

    /// Whether this table stores rows in pages rather than `rows`.
    pub fn is_paged(&self) -> bool {
        self.heap.is_some()
    }

    /// The paged heap, when on the paged arm.
    pub fn heap(&self) -> Option<&TableHeap> {
        self.heap.as_ref()
    }

    /// The shared pager, when on the paged arm.
    pub fn pager(&self) -> Option<&Arc<Pager>> {
        self.pager.as_ref()
    }

    /// Coerce one row of values against the schema (shared by both arms).
    fn coerce_values(&self, values: Vec<Value>) -> Result<Vec<Value>, SqlError> {
        if values.len() != self.schema.len() {
            return Err(SqlError::Execution(format!(
                "table `{}` has {} columns but {} values were supplied",
                self.name,
                self.schema.len(),
                values.len()
            )));
        }
        let mut row = Vec::with_capacity(values.len());
        for (v, c) in values.into_iter().zip(self.schema.columns()) {
            row.push(v.coerce_to(c.data_type)?);
        }
        Ok(row)
    }

    /// Append a row after coercing every value to its column type.
    pub fn insert_row(&mut self, values: Vec<Value>) -> Result<(), SqlError> {
        let row = self.coerce_values(values)?;
        if let (Some(heap), Some(pager)) = (&mut self.heap, &self.pager) {
            heap.append_row(&mut pager.pool(), &row)?;
            // B+-trees are rebuilt from a heap snapshot rather than
            // maintained incrementally; any append invalidates them.
            if !self.btrees.is_empty() {
                self.indexes_stale = true;
            }
            return Ok(());
        }
        let row = Row::new(row);
        // Incremental index maintenance on the append path.
        if !self.indexes_stale {
            let pos = self.rows.len();
            for (&col, idx) in self.indexes.iter_mut() {
                idx.entries.entry(row[col].group_key()).or_default().push(pos);
            }
        }
        if let Some(ct) = &mut self.columnar {
            ct.append_row(&row);
        }
        self.rows.push(row);
        Ok(())
    }

    /// Bulk append: coerce and validate every row first, then append them
    /// all (no partial inserts on error). One index/columnar maintenance
    /// pass instead of per-row work — the CSV/bench ingest path.
    pub fn insert_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<usize, SqlError> {
        let mut coerced = Vec::with_capacity(rows.len());
        for values in rows {
            coerced.push(Row::new(self.coerce_values(values)?));
        }
        let n = coerced.len();
        if let (Some(heap), Some(pager)) = (&mut self.heap, &self.pager) {
            let mut pool = pager.pool();
            for row in &coerced {
                heap.append_row(&mut pool, row.values())?;
            }
            drop(pool);
            if !self.btrees.is_empty() {
                self.indexes_stale = true;
            }
            return Ok(n);
        }
        if !self.indexes_stale {
            let base = self.rows.len();
            for (&col, idx) in self.indexes.iter_mut() {
                for (i, row) in coerced.iter().enumerate() {
                    idx.entries
                        .entry(row[col].group_key())
                        .or_default()
                        .push(base + i);
                }
            }
        }
        if let Some(ct) = &mut self.columnar {
            for row in &coerced {
                ct.append_row(row);
            }
        }
        self.rows.reserve(n);
        self.rows.extend(coerced);
        Ok(n)
    }

    /// The columnar mirror, if present and in sync with `rows`. The row
    /// count guard catches direct `rows` mutation that bypassed the
    /// maintenance hooks.
    pub fn columnar(&self) -> Option<&ColumnTable> {
        if self.is_paged() {
            // Paged tables have no columnar mirror; the vectorized executor
            // streams chunks straight off the heap instead.
            return None;
        }
        self.columnar
            .as_ref()
            .filter(|ct| ct.rows() == self.rows.len())
    }

    /// Build (or rebuild) the columnar mirror from row storage if it is
    /// absent or out of sync. No-op on paged tables.
    pub fn refresh_columnar(&mut self) {
        if self.is_paged() {
            return;
        }
        let fresh = self
            .columnar
            .as_ref()
            .is_some_and(|ct| ct.rows() == self.rows.len());
        if !fresh {
            self.columnar = Some(ColumnTable::from_rows(&self.rows, self.schema.len()));
        }
    }

    /// Build a B+-tree over column `col` from the current heap contents.
    fn build_btree(&self, col: usize) -> Result<BTreeIndex, SqlError> {
        let (heap, pager) = (
            self.heap.as_ref().expect("paged table"),
            self.pager.as_ref().expect("paged table"),
        );
        let mut pool = pager.pool();
        let mut items = Vec::with_capacity(heap.len());
        heap.scan(&mut pool, |ord, row| {
            items.push((row[col].clone(), ord));
            Ok(())
        })?;
        BTreeIndex::build(&mut pool, items)
    }

    /// Create a named index on `column`: a [`HashIndex`] on the in-memory
    /// arm, a paged [`BTreeIndex`] on the paged arm. Re-creating under the
    /// same name replaces it.
    pub fn create_index(&mut self, name: &str, column: &str) -> Result<(), SqlError> {
        let col = self.schema.index_of(column)?;
        let name = name.to_lowercase();
        if let Some(&existing) = self.index_names.get(&name) {
            if existing != col {
                self.indexes.remove(&existing);
                if let Some(tree) = self.btrees.remove(&existing) {
                    if let Some(pager) = &self.pager {
                        tree.free(&mut pager.pool())?;
                    }
                }
            }
        }
        if self.is_paged() {
            let tree = self.build_btree(col)?;
            if let Some(old) = self.btrees.insert(col, tree) {
                if let Some(pager) = &self.pager {
                    old.free(&mut pager.pool())?;
                }
            }
        } else {
            self.indexes.insert(col, HashIndex::build(&self.rows, col));
        }
        self.index_names.insert(name, col);
        Ok(())
    }

    /// Drop an index by name.
    pub fn drop_index(&mut self, name: &str) -> Result<(), SqlError> {
        let name = name.to_lowercase();
        match self.index_names.remove(&name) {
            Some(col) => {
                // Only remove the column index if no other name covers it.
                if !self.index_names.values().any(|&c| c == col) {
                    self.indexes.remove(&col);
                    if let Some(tree) = self.btrees.remove(&col) {
                        if let Some(pager) = &self.pager {
                            tree.free(&mut pager.pool())?;
                        }
                    }
                }
                Ok(())
            }
            None => Err(SqlError::Plan(format!("index not found: {name}"))),
        }
    }

    /// Names of this table's indexes, sorted.
    pub fn index_list(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.index_names.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Columns (by position) that currently carry indexes (either arm).
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.indexes.keys().chain(self.btrees.keys()).copied().collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// The index on column position `col`, refreshed if stale.
    /// Returns `None` when no index exists there.
    pub fn index(&mut self, col: usize) -> Option<&HashIndex> {
        if self.indexes_stale {
            for (&c, idx) in self.indexes.iter_mut() {
                *idx = HashIndex::build(&self.rows, c);
            }
            self.indexes_stale = false;
        }
        self.indexes.get(&col)
    }

    /// Read-only view of an index; `None` if absent or stale.
    pub fn index_if_fresh(&self, col: usize) -> Option<&HashIndex> {
        if self.indexes_stale {
            return None;
        }
        self.indexes.get(&col)
    }

    /// Read-only view of a paged B+-tree index; `None` if absent or stale.
    pub fn btree_if_fresh(&self, col: usize) -> Option<&BTreeIndex> {
        if self.indexes_stale {
            return None;
        }
        self.btrees.get(&col)
    }

    /// Mark indexes stale after in-place mutation (UPDATE/DELETE). The
    /// columnar mirror is dropped unconditionally: unlike indexes its row
    /// count can stay equal under UPDATE, so a staleness flag alone would
    /// not catch the change.
    pub fn mark_indexes_stale(&mut self) {
        if !self.indexes.is_empty() || !self.btrees.is_empty() {
            self.indexes_stale = true;
        }
        self.columnar = None;
    }

    /// Rebuild any stale indexes now (optional; lookups do this lazily on
    /// the in-memory arm; the engine calls this before reads on the paged
    /// arm, where the immutable executor cannot rebuild).
    pub fn refresh_indexes(&mut self) {
        if !self.indexes_stale {
            return;
        }
        if self.is_paged() {
            let cols: Vec<usize> = self.btrees.keys().copied().collect();
            for c in cols {
                // Build before free: a build failure leaves the old (stale,
                // unused) tree in place rather than dangling.
                if let Ok(tree) = self.build_btree(c) {
                    if let (Some(old), Some(pager)) = (self.btrees.insert(c, tree), &self.pager) {
                        let _ = old.free(&mut pager.pool());
                    }
                }
            }
        } else {
            for (&c, idx) in self.indexes.iter_mut() {
                *idx = HashIndex::build(&self.rows, c);
            }
        }
        self.indexes_stale = false;
    }

    /// Row count.
    pub fn len(&self) -> usize {
        match &self.heap {
            Some(h) => h.len(),
            None => self.rows.len(),
        }
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stream every stored row through `f` in storage order, whichever arm
    /// holds it. The paged arm decodes one page at a time.
    pub fn for_each_row(
        &self,
        mut f: impl FnMut(&[Value]) -> Result<(), SqlError>,
    ) -> Result<(), SqlError> {
        match (&self.heap, &self.pager) {
            (Some(heap), Some(pager)) => heap.scan(&mut pager.pool(), |_, row| f(&row)),
            _ => {
                for row in &self.rows {
                    f(row.values())?;
                }
                Ok(())
            }
        }
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

    /// Swap in a rewritten heap (the paged UPDATE/DELETE path), freeing the
    /// old heap's pages. Does NOT touch index staleness — the caller owns
    /// that, so paged staleness bookkeeping can mirror the in-memory arm
    /// statement for statement.
    pub fn replace_heap(&mut self, new_heap: TableHeap) -> Result<(), SqlError> {
        let (heap, pager) = match (&mut self.heap, &self.pager) {
            (Some(h), Some(p)) => (h, p),
            _ => return Err(SqlError::Storage("replace_heap on an in-memory table".into())),
        };
        let mut old = std::mem::replace(heap, new_heap);
        old.free(&mut pager.pool())?;
        Ok(())
    }

    /// Release all paged storage (heap + B+-trees) back to the pool's free
    /// list; called when the table is dropped. No-op on the in-memory arm.
    pub fn free_storage(&mut self) -> Result<(), SqlError> {
        let pager = match &self.pager {
            Some(p) => Arc::clone(p),
            None => return Ok(()),
        };
        if let Some(heap) = &mut self.heap {
            heap.free(&mut pager.pool())?;
        }
        for (_, tree) in self.btrees.drain() {
            tree.free(&mut pager.pool())?;
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
    /// Deep copy. The paged arm deep-clones the buffer pool (flushing
    /// first) and re-points every table at the clone's pager, so clones
    /// never share mutable page state. A `File`-backed pager still aliases
    /// the underlying file — see [`Pager::deep_clone`].
    fn clone(&self) -> Database {
        let pager = self
            .pager
            .as_ref()
            .map(|p| p.deep_clone().expect("pager deep clone"));
        let mut tables = self.tables.clone();
        if let Some(p) = &pager {
            for t in tables.values_mut() {
                if t.pager.is_some() {
                    t.pager = Some(Arc::clone(p));
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
        assert_eq!(a.rows, b.rows);
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
        let idx = t.index(1).unwrap();
        assert_eq!(idx.lookup(&Value::Text("a".into())), &[0, 1]);
    }

    #[test]
    fn columnar_cache_lifecycle() {
        let mut t = Table::new("t", schema());
        t.insert_row(vec![Value::Int(1), Value::Text("a".into())]).unwrap();
        assert!(t.columnar().is_none()); // not built yet
        t.refresh_columnar();
        assert_eq!(t.columnar().unwrap().rows(), 1);
        // Maintained incrementally across both insert paths.
        t.insert_row(vec![Value::Int(2), Value::Null]).unwrap();
        t.insert_rows(vec![vec![Value::Int(3), Value::Text("c".into())]])
            .unwrap();
        let ct = t.columnar().unwrap();
        assert_eq!(ct.rows(), 3);
        assert_eq!(ct.chunks()[0].row(2), t.rows[2]);
        // In-place mutation drops the cache even without an index.
        t.mark_indexes_stale();
        assert!(t.columnar().is_none());
        // Direct row mutation is caught by the row-count guard.
        t.refresh_columnar();
        t.rows.push(Row::new(vec![Value::Int(4), Value::Null]));
        assert!(t.columnar().is_none());
        t.refresh_columnar();
        assert_eq!(t.columnar().unwrap().rows(), 4);
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
        let t = e.database_mut().table_mut("t").unwrap();
        assert_eq!(t.index_list(), vec!["idx_grp"]);
        assert_eq!(t.indexed_columns(), vec![1]);
        let idx = t.index(1).unwrap();
        assert_eq!(idx.lookup(&Value::Text("a".into())), &[0, 2]);
        assert_eq!(idx.lookup(&Value::Text("z".into())), &[] as &[usize]);
        assert_eq!(idx.distinct_keys(), 3);
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
