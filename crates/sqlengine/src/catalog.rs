//! The catalog: named tables, their stored rows, and secondary indexes.
//!
//! [`Table`] is the one storage interface the executor and DML use: every
//! full pass ([`Table::for_each_row`]), query scan ([`Table::scan`]),
//! index probe ([`Table::probe`]) and row rewrite ([`Table::rewrite_rows`])
//! goes through it.
//!
//! Rows sit in copy-on-write chunks of [`CHUNK_ROWS`] shared rows (each an
//! `Arc<[Value]>`, no larger than a [`Row`]), every chunk full except the
//! last, so row position `p` is row `p % CHUNK_ROWS` of chunk
//! `p / CHUNK_ROWS`. A [`Snapshot`] shares the chunks: taking one under a
//! read lock costs one reference count per chunk, and the SELECT reads it
//! after the lock is gone. A write copies only the chunks it changes while
//! a snapshot still shares them (counted by [`Table::cow_chunks`]): an
//! INSERT touches the last chunk, an UPDATE the chunks holding rows it
//! changes, a DELETE every chunk from its first removed row on, since the
//! survivors are re-packed. Copying a chunk copies its row handles, not the
//! rows, and an UPDATE copies only the rows it changes. (Chunks that owned
//! their rows had to be copied whole; on an OLTP table that moved the rows
//! from the loading thread's allocator arena into the writers' arenas and
//! grew the process by about the table's size.)
//!
//! Secondary indexes are ordered maps from [`encode_value`] keys to row
//! positions. INSERTs keep them current. Any other change to the rows
//! marks the table's indexes stale until [`Table::refresh_indexes`]
//! rebuilds them; probes need fresh indexes.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use dbgpt_obs::hash::Fnv1a;

use crate::error::SqlError;
use crate::row::Row;
use crate::schema::{Schema, SchemaRef};
use crate::value::{float_key, Value};

/// Rows per in-memory chunk: the unit a [`Snapshot`] shares and a write
/// copies when a snapshot still holds it.
pub const CHUNK_ROWS: usize = 1024;

/// A secondary index over one column: encoded value → ascending row
/// positions.
type Index = BTreeMap<Vec<u8>, Vec<usize>>;

/// Order-preserving byte encoding of one value, consistent with
/// `Value::total_cmp` ranks (NULL < BOOL < numeric < TEXT). A column's
/// values are homogeneous by schema type, so INT and FLOAT never share an
/// index even though both use rank 2. `-0.0` encodes as `+0.0` and every
/// NaN as one NaN above `+inf`, because SQL comparison orders them so.
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
            let bits = float_key(*f);
            // IEEE-754 total order: positive floats get the sign bit set,
            // negative floats are bit-inverted.
            let sortable = if bits & (1 << 63) != 0 {
                !bits
            } else {
                bits | (1 << 63)
            };
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

/// One stored row, shared by the chunks that hold it.
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

/// One chunk: up to [`CHUNK_ROWS`] rows, each shared so that
/// copying the chunk copies handles only.
type RowChunk = Arc<Vec<StoredRow>>;

/// A table's rows as [`Table::scan`] saw them, readable after
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
            None => chunk_rows(&self.chunks).try_for_each(f),
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

/// Every row, in storage order.
fn chunk_rows(chunks: &[RowChunk]) -> impl Iterator<Item = &[Value]> {
    chunks.iter().flat_map(|c| c.iter().map(|row| &**row))
}

/// The row at position `id`.
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

/// The body of [`Table::rewrite_rows`]; returns whether any row
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

/// A stored table: schema, rows, secondary indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name (lowercase).
    pub name: String,
    /// Schema (unqualified column names).
    pub schema: SchemaRef,
    /// Copy-on-write chunks of [`CHUNK_ROWS`] rows, in storage order,
    /// every one full except the last.
    rows: Vec<RowChunk>,
    /// Indexes by column position.
    indexes: HashMap<usize, Index>,
    /// Index name → column position (for `DROP INDEX name ON table`).
    index_names: HashMap<String, usize>,
    /// Set when rows changed under the indexes; probes then refuse to
    /// answer until [`Table::refresh_indexes`].
    indexes_stale: bool,
    /// Chunks copied by writes because a snapshot shared them.
    cow_chunks: u64,
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
            cow_chunks: 0,
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
        self.append(row);
        Ok(())
    }

    /// Bulk append: coerce and validate every row first, then append them
    /// all (no partial inserts on a bad row).
    pub fn insert_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<usize, SqlError> {
        let rows = rows
            .into_iter()
            .map(|values| self.coerce_values(values))
            .collect::<Result<Vec<_>, _>>()?;
        let n = rows.len();
        rows.into_iter().for_each(|row| self.append(row));
        Ok(n)
    }

    /// Append one coerced row, keeping fresh indexes current.
    fn append(&mut self, row: Row) {
        let pos = self.len();
        if !self.indexes_stale {
            for (&col, index) in &mut self.indexes {
                index.entry(encode_value(&row[col])).or_default().push(pos);
            }
        }
        if self.rows.last().is_none_or(|c| c.len() == CHUNK_ROWS) {
            self.rows.push(Arc::default());
        }
        let tail = self.rows.last_mut().expect("a tail chunk");
        chunk_mut(tail, &mut self.cow_chunks).push(row.into_values().into());
    }

    /// Build an index over column `col` from the current rows.
    fn build_index(&self, col: usize) -> Index {
        // Sort, then group: `BTreeMap` bulk-builds from sorted input, far
        // faster than one insert per row.
        let mut keys: Vec<(Vec<u8>, usize)> = chunk_rows(&self.rows)
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
        grouped.into_iter().collect()
    }

    /// Drop the index on `col` unless another index name still covers it.
    fn drop_column_index(&mut self, col: usize) {
        if !self.index_names.values().any(|&c| c == col) {
            self.indexes.remove(&col);
        }
    }

    /// Create a named index on `column`. Re-creating under the same name
    /// replaces it.
    pub fn create_index(&mut self, name: &str, column: &str) -> Result<(), SqlError> {
        let col = self.schema.index_of(column)?;
        let index = self.build_index(col);
        if let Some(old) = self.index_names.insert(name.to_lowercase(), col) {
            if old != col {
                self.drop_column_index(old);
            }
        }
        self.indexes.insert(col, index);
        Ok(())
    }

    /// Drop an index by name.
    pub fn drop_index(&mut self, name: &str) -> Result<(), SqlError> {
        let name = name.to_lowercase();
        match self.index_names.remove(&name) {
            Some(col) => {
                self.drop_column_index(col);
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
        let (lo, hi) = (lo.map(encode_value), hi.map(encode_value));
        // `BTreeMap::range` panics on inverted bounds.
        let empty = match (&lo, &hi) {
            (Bound::Included(l), Bound::Included(h)) => l > h,
            (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) => {
                l >= h
            }
            _ => false,
        };
        if empty {
            return Ok(Vec::new());
        }
        let range = (
            lo.as_ref().map(Vec::as_slice),
            hi.as_ref().map(Vec::as_slice),
        );
        let mut ids: Vec<usize> = index
            .range::<[u8], _>(range)
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
        ids.sort_unstable();
        Ok(ids)
    }

    /// Rebuild stale indexes.
    pub fn refresh_indexes(&mut self) {
        if !self.indexes_stale {
            return;
        }
        let cols: Vec<usize> = self.indexes.keys().copied().collect();
        for col in cols {
            let index = self.build_index(col);
            self.indexes.insert(col, index);
        }
        self.indexes_stale = false;
    }

    /// Chunks this table's writes have copied because a
    /// [`Snapshot`] (or a clone of the table) still shared them.
    pub fn cow_chunks(&self) -> u64 {
        self.cow_chunks
    }

    /// Row count.
    pub fn len(&self) -> usize {
        // Every chunk but the last is full.
        self.rows
            .last()
            .map_or(0, |tail| (self.rows.len() - 1) * CHUNK_ROWS + tail.len())
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stream every stored row through `f` in storage order.
    pub fn for_each_row(
        &self,
        f: impl FnMut(&[Value]) -> Result<(), SqlError>,
    ) -> Result<(), SqlError> {
        chunk_rows(&self.rows).try_for_each(f)
    }

    /// Take the rows a scan reads, under the caller's lock: every row, or
    /// the ascending positions `ids` from [`Table::probe`]. This copies no
    /// row: the [`Snapshot`] shares the chunks, to read after the lock is
    /// released.
    pub fn scan(&self, ids: Option<Vec<usize>>) -> Snapshot {
        Snapshot {
            schema: self.schema.clone(),
            chunks: self.rows.clone(),
            at: ids,
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

    /// Rewrite the table in one pass over its rows, in storage order.
    /// `edit` reads each row and says what to do with it. Changed rows are
    /// written in place (copying a chunk a snapshot shares) and removals
    /// re-pack the chunks.
    ///
    /// As soon as any row changed or left, the indexes go stale (until
    /// [`Table::refresh_indexes`]) — also when the caller's statement goes
    /// on to fail.
    pub fn rewrite_rows(&mut self, mut edit: impl FnMut(&[Value]) -> RowEdit) {
        let touched = rewrite_chunks(&mut self.rows, &mut edit, &mut self.cow_chunks);
        if touched && !self.indexes.is_empty() {
            self.indexes_stale = true;
        }
    }
}

/// A database: a set of named tables.
///
/// Iteration order is deterministic (`BTreeMap`), which keeps schema dumps
/// — the input to Text-to-SQL prompts — stable across runs. A clone shares
/// every table's row chunks copy-on-write.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
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
        self.tables.insert(key.clone(), Table::new(key, schema));
        Ok(())
    }

    /// Drop a table. Errors if missing (unless `if_exists`).
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<(), SqlError> {
        let key = name.to_lowercase();
        match self.tables.remove(&key) {
            Some(_) => Ok(()),
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
            for row in chunk_rows(&table.rows) {
                for v in row {
                    eat(v.to_string().as_bytes());
                }
                eat(b"|");
            }
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

    /// Which of `t`'s chunks are still the snapshot's.
    fn still_shared(t: &Table, s: &Snapshot) -> Vec<bool> {
        let old = &s.chunks;
        (0..t.rows.len())
            .map(|i| old.get(i).is_some_and(|o| Arc::ptr_eq(o, &t.rows[i])))
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
        let lens: Vec<usize> = t.rows.iter().map(|c| c.len()).collect();
        assert_eq!(lens, vec![CHUNK_ROWS, CHUNK_ROWS, CHUNK_ROWS, 10]);
        assert_eq!(t.len(), n as usize);
        let p = CHUNK_ROWS + 5;
        assert_eq!(snapshot_ids(&t.scan(Some(vec![p]))), vec![p as i64]);
        let past_the_end = t.scan(Some(vec![n as usize]));
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
        let addrs = |t: &Table| t.rows.iter().map(Arc::as_ptr).collect::<Vec<_>>();
        let before = addrs(&t);
        t.rewrite_rows(set_name(CHUNK_ROWS as i64 + 1));
        t.insert_row(vec![Value::Int(n), Value::Null]).unwrap();
        assert_eq!(addrs(&t), before);
        assert_eq!(t.cow_chunks(), 0);

        // An UPDATE hitting one row of a middle chunk copies that chunk
        // only, and of its rows only the one it changes.
        let mut t = table_of(n);
        let snap = t.scan(None);
        t.rewrite_rows(set_name(CHUNK_ROWS as i64 + 1));
        assert_eq!(still_shared(&t, &snap), vec![true, false, true, true]);
        assert_eq!(t.cow_chunks(), 1);
        let (old, new) = (&snap.chunks[1], &t.rows[1]);
        let same_rows: Vec<bool> = (0..3).map(|i| Arc::ptr_eq(&old[i], &new[i])).collect();
        assert_eq!(same_rows, vec![true, false, true]);
        assert_eq!(old[1][1], Value::Text(format!("r{}", CHUNK_ROWS + 1)));
        // An UPDATE with no hit copies nothing.
        t.rewrite_rows(set_name(-1));
        assert_eq!(t.cow_chunks(), 1);

        // An INSERT copies the tail chunk, and opens a new one unshared.
        let mut t = table_of(n);
        let snap = t.scan(None);
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
        let snap = t.scan(None);
        let gone = CHUNK_ROWS as i64 + 7;
        t.rewrite_rows(|row| match row[0] == Value::Int(gone) {
            true => RowEdit::Remove,
            false => RowEdit::Keep,
        });
        assert_eq!(still_shared(&t, &snap), vec![true, false, false, false]);
        assert_eq!(t.cow_chunks(), 3);
        let lens: Vec<usize> = t.rows.iter().map(|c| c.len()).collect();
        assert_eq!(lens, vec![CHUNK_ROWS, CHUNK_ROWS, CHUNK_ROWS, 9]);
        let want: Vec<i64> = (0..n).filter(|&i| i != gone).collect();
        assert_eq!(ids(&t), want);
        assert_eq!(snapshot_ids(&snap), (0..n).collect::<Vec<_>>());
        // Re-packing moves row handles, never copies a row.
        assert!(Arc::ptr_eq(&snap.chunks[2][0], &t.rows[1][CHUNK_ROWS - 1]));
    }

    #[test]
    fn a_draining_scan_releases_the_chunks_it_has_read() {
        let n = 3 * CHUNK_ROWS as i64 + 10;
        let mut t = table_of(n);
        let snap = t.scan(None);
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
                t.rewrite_rows(set(1));
                assert_eq!(t.cow_chunks(), 0);
                t.rewrite_rows(set(n - 1));
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
        // Signed zeros share one key, and so do NaNs of either sign, as
        // they compare equal in SQL.
        assert_eq!(
            encode_value(&Value::Float(-0.0)),
            encode_value(&Value::Float(0.0))
        );
        assert_eq!(
            encode_value(&Value::Float(-f64::NAN)),
            encode_value(&Value::Float(f64::NAN))
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
