//! Columnar storage: typed column vectors, null bitmaps, and row chunks.
//!
//! This is the storage half of the vectorized execution path (see
//! [`crate::exec::vectorized`]). Data is held column-major in fixed-size
//! chunks of [`CHUNK_ROWS`] rows: each chunk carries one [`ColumnVec`] per
//! schema column, and each column vector pairs a typed value buffer with a
//! [`NullMask`] bitmap. Value buffers live behind an `Arc`, so projecting
//! or re-batching columns is a pointer copy, not a data copy.
//!
//! The row-oriented representation ([`crate::row::Row`]) remains the
//! interchange format at the engine boundary; [`ColumnTable::from_rows`]
//! and [`Chunk::row`] convert between the two.

use std::ops::Deref;
use std::sync::Arc;

use crate::row::Row;
use crate::value::{DataType, GroupKey, Value};

/// Rows per chunk. Small enough that a chunk's working set stays cache
/// resident during kernel loops, large enough to amortise dispatch.
pub const CHUNK_ROWS: usize = 1024;

/// A null bitmap: bit set ⇒ the value at that position is SQL NULL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullMask {
    bits: Vec<u64>,
    len: usize,
    nulls: usize,
}

impl NullMask {
    /// An all-valid mask over `len` positions.
    pub fn new_valid(len: usize) -> NullMask {
        NullMask {
            bits: vec![0; len.div_ceil(64)],
            len,
            nulls: 0,
        }
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the mask empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of NULL positions.
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// Does the mask contain any NULL at all? Kernels use this to pick
    /// the no-null fast loop.
    pub fn any_null(&self) -> bool {
        self.nulls > 0
    }

    /// Is position `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Mark position `i` NULL.
    pub fn set_null(&mut self, i: usize) {
        debug_assert!(i < self.len);
        let word = &mut self.bits[i / 64];
        let bit = 1u64 << (i % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.nulls += 1;
        }
    }

    /// Append one position with the given nullness.
    pub fn push(&mut self, null: bool) {
        if self.len.is_multiple_of(64) {
            self.bits.push(0);
        }
        let i = self.len;
        self.len += 1;
        if null {
            self.bits[i / 64] |= 1u64 << (i % 64);
            self.nulls += 1;
        }
    }

    /// Mask containing `idx`-selected positions, in order.
    pub fn gather(&self, idx: &[u32]) -> NullMask {
        let mut out = NullMask::new_valid(idx.len());
        if self.any_null() {
            for (o, &i) in idx.iter().enumerate() {
                if self.is_null(i as usize) {
                    out.set_null(o);
                }
            }
        }
        out
    }
}

/// A typed vector of values with a null bitmap. `Any` is the escape hatch
/// for heterogeneous computed columns (e.g. `COALESCE` across types).
#[derive(Debug, Clone)]
pub enum ColumnVec {
    /// 64-bit integers.
    Int {
        /// Value buffer (positions under a set null bit hold 0).
        data: Arc<Vec<i64>>,
        /// Null bitmap.
        nulls: NullMask,
    },
    /// 64-bit floats.
    Float {
        /// Value buffer.
        data: Arc<Vec<f64>>,
        /// Null bitmap.
        nulls: NullMask,
    },
    /// Booleans.
    Bool {
        /// Value buffer.
        data: Arc<Vec<bool>>,
        /// Null bitmap.
        nulls: NullMask,
    },
    /// UTF-8 strings.
    Text {
        /// Value buffer.
        data: Arc<Vec<String>>,
        /// Null bitmap.
        nulls: NullMask,
    },
    /// Untyped fallback holding full [`Value`]s.
    Any(Vec<Value>),
}

impl ColumnVec {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int { data, .. } => data.len(),
            ColumnVec::Float { data, .. } => data.len(),
            ColumnVec::Bool { data, .. } => data.len(),
            ColumnVec::Text { data, .. } => data.len(),
            ColumnVec::Any(v) => v.len(),
        }
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The vector's uniform type, `None` for `Any`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            ColumnVec::Int { .. } => Some(DataType::Int),
            ColumnVec::Float { .. } => Some(DataType::Float),
            ColumnVec::Bool { .. } => Some(DataType::Bool),
            ColumnVec::Text { .. } => Some(DataType::Text),
            ColumnVec::Any(_) => None,
        }
    }

    /// Is position `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Int { nulls, .. }
            | ColumnVec::Float { nulls, .. }
            | ColumnVec::Bool { nulls, .. }
            | ColumnVec::Text { nulls, .. } => nulls.is_null(i),
            ColumnVec::Any(v) => v[i].is_null(),
        }
    }

    /// The [`Value`] at position `i` (clones text).
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            }
            ColumnVec::Float { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Float(data[i])
                }
            }
            ColumnVec::Bool { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Bool(data[i])
                }
            }
            ColumnVec::Text { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Text(data[i].clone())
                }
            }
            ColumnVec::Any(v) => v[i].clone(),
        }
    }

    /// The [`GroupKey`] at position `i` (hashable; NULLs group together).
    pub fn group_key_at(&self, i: usize) -> GroupKey {
        match self {
            ColumnVec::Int { data, nulls } => {
                if nulls.is_null(i) {
                    GroupKey::Null
                } else {
                    GroupKey::Int(data[i])
                }
            }
            ColumnVec::Float { data, nulls } => {
                if nulls.is_null(i) {
                    GroupKey::Null
                } else {
                    GroupKey::Float(data[i].to_bits())
                }
            }
            ColumnVec::Bool { data, nulls } => {
                if nulls.is_null(i) {
                    GroupKey::Null
                } else {
                    GroupKey::Bool(data[i])
                }
            }
            ColumnVec::Text { data, nulls } => {
                if nulls.is_null(i) {
                    GroupKey::Null
                } else {
                    GroupKey::Text(data[i].clone())
                }
            }
            ColumnVec::Any(v) => v[i].group_key(),
        }
    }

    /// Build a typed vector from owned values, sniffing the narrowest
    /// uniform representation (falling back to `Any` on mixed types).
    pub fn from_values(values: Vec<Value>) -> ColumnVec {
        let ty = values
            .iter()
            .find_map(Value::data_type);
        let uniform = match ty {
            Some(t) => values
                .iter()
                .all(|v| v.is_null() || v.data_type() == Some(t)),
            None => false,
        };
        if !uniform {
            return ColumnVec::Any(values);
        }
        match ty.expect("uniform implies a type") {
            DataType::Int => {
                let mut data = Vec::with_capacity(values.len());
                let mut nulls = NullMask::new_valid(0);
                for v in &values {
                    match v {
                        Value::Int(i) => {
                            data.push(*i);
                            nulls.push(false);
                        }
                        _ => {
                            data.push(0);
                            nulls.push(true);
                        }
                    }
                }
                ColumnVec::Int {
                    data: Arc::new(data),
                    nulls,
                }
            }
            DataType::Float => {
                let mut data = Vec::with_capacity(values.len());
                let mut nulls = NullMask::new_valid(0);
                for v in &values {
                    match v {
                        Value::Float(f) => {
                            data.push(*f);
                            nulls.push(false);
                        }
                        _ => {
                            data.push(0.0);
                            nulls.push(true);
                        }
                    }
                }
                ColumnVec::Float {
                    data: Arc::new(data),
                    nulls,
                }
            }
            DataType::Bool => {
                let mut data = Vec::with_capacity(values.len());
                let mut nulls = NullMask::new_valid(0);
                for v in &values {
                    match v {
                        Value::Bool(b) => {
                            data.push(*b);
                            nulls.push(false);
                        }
                        _ => {
                            data.push(false);
                            nulls.push(true);
                        }
                    }
                }
                ColumnVec::Bool {
                    data: Arc::new(data),
                    nulls,
                }
            }
            DataType::Text => {
                let mut data = Vec::with_capacity(values.len());
                let mut nulls = NullMask::new_valid(0);
                for v in values {
                    match v {
                        Value::Text(s) => {
                            data.push(s);
                            nulls.push(false);
                        }
                        _ => {
                            data.push(String::new());
                            nulls.push(true);
                        }
                    }
                }
                ColumnVec::Text {
                    data: Arc::new(data),
                    nulls,
                }
            }
        }
    }

    /// Append one value, widening to `Any` if the type does not fit.
    pub fn push_value(&mut self, v: &Value) {
        match (&mut *self, v) {
            (ColumnVec::Int { data, nulls }, Value::Int(i)) => {
                Arc::make_mut(data).push(*i);
                nulls.push(false);
            }
            (ColumnVec::Int { data, nulls }, Value::Null) => {
                Arc::make_mut(data).push(0);
                nulls.push(true);
            }
            (ColumnVec::Float { data, nulls }, Value::Float(f)) => {
                Arc::make_mut(data).push(*f);
                nulls.push(false);
            }
            (ColumnVec::Float { data, nulls }, Value::Null) => {
                Arc::make_mut(data).push(0.0);
                nulls.push(true);
            }
            (ColumnVec::Bool { data, nulls }, Value::Bool(b)) => {
                Arc::make_mut(data).push(*b);
                nulls.push(false);
            }
            (ColumnVec::Bool { data, nulls }, Value::Null) => {
                Arc::make_mut(data).push(false);
                nulls.push(true);
            }
            (ColumnVec::Text { data, nulls }, Value::Text(s)) => {
                Arc::make_mut(data).push(s.clone());
                nulls.push(false);
            }
            (ColumnVec::Text { data, nulls }, Value::Null) => {
                Arc::make_mut(data).push(String::new());
                nulls.push(true);
            }
            (ColumnVec::Any(vals), v) => vals.push(v.clone()),
            (typed, v) => {
                // Type clash: degrade to Any.
                let mut vals: Vec<Value> =
                    (0..typed.len()).map(|i| typed.value_at(i)).collect();
                vals.push(v.clone());
                *typed = ColumnVec::Any(vals);
            }
        }
    }

    /// New vector containing `idx`-selected positions, in order.
    pub fn gather(&self, idx: &[u32]) -> ColumnVec {
        match self {
            ColumnVec::Int { data, nulls } => ColumnVec::Int {
                data: Arc::new(idx.iter().map(|&i| data[i as usize]).collect()),
                nulls: nulls.gather(idx),
            },
            ColumnVec::Float { data, nulls } => ColumnVec::Float {
                data: Arc::new(idx.iter().map(|&i| data[i as usize]).collect()),
                nulls: nulls.gather(idx),
            },
            ColumnVec::Bool { data, nulls } => ColumnVec::Bool {
                data: Arc::new(idx.iter().map(|&i| data[i as usize]).collect()),
                nulls: nulls.gather(idx),
            },
            ColumnVec::Text { data, nulls } => ColumnVec::Text {
                data: Arc::new(idx.iter().map(|&i| data[i as usize].clone()).collect()),
                nulls: nulls.gather(idx),
            },
            ColumnVec::Any(v) => {
                ColumnVec::Any(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }

    /// Concatenate vectors (used when re-batching joins/sorts).
    pub fn concat(parts: &[&ColumnVec]) -> ColumnVec {
        let mut values = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            for i in 0..p.len() {
                values.push(p.value_at(i));
            }
        }
        ColumnVec::from_values(values)
    }

    /// An empty vector for the given declared type.
    pub fn empty(ty: DataType) -> ColumnVec {
        match ty {
            DataType::Int => ColumnVec::Int {
                data: Arc::new(Vec::new()),
                nulls: NullMask::new_valid(0),
            },
            DataType::Float => ColumnVec::Float {
                data: Arc::new(Vec::new()),
                nulls: NullMask::new_valid(0),
            },
            DataType::Bool => ColumnVec::Bool {
                data: Arc::new(Vec::new()),
                nulls: NullMask::new_valid(0),
            },
            DataType::Text => ColumnVec::Text {
                data: Arc::new(Vec::new()),
                nulls: NullMask::new_valid(0),
            },
        }
    }
}

/// A batch of up to [`CHUNK_ROWS`] rows stored column-major.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// One vector per schema column, all of length `len`.
    pub columns: Vec<ColumnVec>,
    /// Row count (kept explicitly so zero-column chunks still have
    /// cardinality, e.g. `SELECT 1`-style VALUES plans).
    pub len: usize,
}

impl Chunk {
    /// A chunk with no columns and `len` rows.
    pub fn zero_width(len: usize) -> Chunk {
        Chunk {
            columns: Vec::new(),
            len,
        }
    }

    /// Build from columns (all must share a length unless empty).
    pub fn new(columns: Vec<ColumnVec>, len: usize) -> Chunk {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        Chunk { columns, len }
    }

    /// Is the chunk empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i` materialised as a [`Row`].
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value_at(i)).collect())
    }

    /// Chunk keeping only `cols`-selected columns (pointer copies).
    pub fn project(&self, cols: &[usize]) -> Chunk {
        Chunk {
            columns: cols.iter().map(|&c| self.columns[c].clone()).collect(),
            len: self.len,
        }
    }

    /// Chunk keeping only `idx`-selected rows, in order.
    pub fn gather(&self, idx: &[u32]) -> Chunk {
        Chunk {
            columns: self.columns.iter().map(|c| c.gather(idx)).collect(),
            len: idx.len(),
        }
    }
}

/// Column-chunked storage for a catalog table: the cached columnar mirror
/// of an in-memory table's rows, rebuilt lazily after UPDATE or DELETE.
#[derive(Debug, Clone, Default)]
pub struct ColumnTable {
    chunks: Vec<Chunk>,
    rows: usize,
}

impl ColumnTable {
    /// Build from row storage.
    pub fn from_rows(rows: &[Row], width: usize) -> ColumnTable {
        ColumnTable::from_row_chunks(rows.chunks(CHUNK_ROWS.max(1)), width)
    }

    /// Build one chunk per slice of rows (the catalog's in-memory chunks,
    /// each at most [`CHUNK_ROWS`] rows).
    pub fn from_row_chunks<'a, R: Deref<Target = [Value]> + 'a>(
        chunks: impl IntoIterator<Item = &'a [R]>,
        width: usize,
    ) -> ColumnTable {
        let mut t = ColumnTable::default();
        for chunk_rows in chunks {
            let mut columns = Vec::with_capacity(width);
            for c in 0..width {
                columns.push(ColumnVec::from_values(
                    chunk_rows.iter().map(|r| r[c].clone()).collect(),
                ));
            }
            t.chunks.push(Chunk::new(columns, chunk_rows.len()));
            t.rows += chunk_rows.len();
        }
        t
    }

    /// The chunks, in row order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Consume the table, yielding its chunks.
    pub fn into_chunks(self) -> Vec<Chunk> {
        self.chunks
    }

    /// Total row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one row, opening a new chunk when the tail chunk is full.
    pub fn append_row(&mut self, row: &Row) {
        let need_new = match self.chunks.last() {
            Some(c) => c.len >= CHUNK_ROWS,
            None => true,
        };
        if need_new {
            self.chunks.push(Chunk::new(
                row.values()
                    .iter()
                    .map(|v| match v.data_type() {
                        Some(t) => ColumnVec::empty(t),
                        None => ColumnVec::Any(Vec::new()),
                    })
                    .collect(),
                0,
            ));
        }
        let tail = self.chunks.last_mut().expect("tail chunk exists");
        for (col, v) in tail.columns.iter_mut().zip(row.values()) {
            col.push_value(v);
        }
        tail.len += 1;
        self.rows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_mask_bits() {
        let mut m = NullMask::new_valid(100);
        assert!(!m.any_null());
        m.set_null(0);
        m.set_null(64);
        m.set_null(64); // idempotent
        assert!(m.is_null(0));
        assert!(m.is_null(64));
        assert!(!m.is_null(1));
        assert_eq!(m.null_count(), 2);
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn null_mask_push_crosses_words() {
        let mut m = NullMask::new_valid(0);
        for i in 0..130 {
            m.push(i % 3 == 0);
        }
        assert_eq!(m.len(), 130);
        assert!(m.is_null(0));
        assert!(!m.is_null(1));
        assert!(m.is_null(129));
        assert_eq!(m.null_count(), 44);
    }

    #[test]
    fn from_values_sniffs_types() {
        let c = ColumnVec::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        assert_eq!(c.data_type(), Some(DataType::Int));
        assert_eq!(c.value_at(0), Value::Int(1));
        assert!(c.is_null(1));
        assert_eq!(c.value_at(2), Value::Int(3));

        let c = ColumnVec::from_values(vec![Value::Text("a".into()), Value::Null]);
        assert_eq!(c.data_type(), Some(DataType::Text));

        let c = ColumnVec::from_values(vec![Value::Int(1), Value::Text("a".into())]);
        assert_eq!(c.data_type(), None); // mixed → Any
        assert_eq!(c.value_at(1), Value::Text("a".into()));

        let c = ColumnVec::from_values(vec![Value::Null, Value::Null]);
        assert_eq!(c.data_type(), None);
        assert!(c.is_null(0));
    }

    #[test]
    fn push_value_widens_on_type_clash() {
        let mut c = ColumnVec::from_values(vec![Value::Int(1)]);
        c.push_value(&Value::Null);
        c.push_value(&Value::Int(2));
        assert_eq!(c.data_type(), Some(DataType::Int));
        c.push_value(&Value::Text("x".into()));
        assert_eq!(c.data_type(), None);
        assert_eq!(c.len(), 4);
        assert_eq!(c.value_at(0), Value::Int(1));
        assert!(c.is_null(1));
        assert_eq!(c.value_at(3), Value::Text("x".into()));
    }

    #[test]
    fn gather_preserves_values_and_nulls() {
        let c = ColumnVec::from_values(vec![
            Value::Int(10),
            Value::Null,
            Value::Int(30),
            Value::Int(40),
        ]);
        let g = c.gather(&[3, 1, 0]);
        assert_eq!(g.value_at(0), Value::Int(40));
        assert!(g.is_null(1));
        assert_eq!(g.value_at(2), Value::Int(10));
    }

    #[test]
    fn group_keys_match_value_group_keys() {
        let vals = vec![
            Value::Float(1.5),
            Value::Null,
            Value::Float(0.0),
        ];
        let c = ColumnVec::from_values(vals.clone());
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(c.group_key_at(i), v.group_key());
        }
    }

    #[test]
    fn column_table_chunks_and_appends() {
        let rows: Vec<Row> = (0..(CHUNK_ROWS + 10))
            .map(|i| Row::new(vec![Value::Int(i as i64), Value::Text(format!("r{i}"))]))
            .collect();
        let mut t = ColumnTable::from_rows(&rows, 2);
        assert_eq!(t.rows(), CHUNK_ROWS + 10);
        assert_eq!(t.chunks().len(), 2);
        assert_eq!(t.chunks()[0].len, CHUNK_ROWS);
        assert_eq!(t.chunks()[1].len, 10);
        assert_eq!(t.chunks()[1].row(3), rows[CHUNK_ROWS + 3]);

        t.append_row(&Row::new(vec![Value::Null, Value::Text("tail".into())]));
        assert_eq!(t.rows(), CHUNK_ROWS + 11);
        let last = t.chunks().last().unwrap();
        assert!(last.columns[0].is_null(last.len - 1));
        assert_eq!(
            last.columns[1].value_at(last.len - 1),
            Value::Text("tail".into())
        );
    }

    #[test]
    fn chunk_projection_and_row_roundtrip() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Bool(true), Value::Float(0.5)]),
            Row::new(vec![Value::Int(2), Value::Null, Value::Float(1.5)]),
        ];
        let t = ColumnTable::from_rows(&rows, 3);
        let chunk = &t.chunks()[0];
        assert_eq!(chunk.row(1), rows[1]);
        let p = chunk.project(&[2, 0]);
        assert_eq!(p.row(0), Row::new(vec![Value::Float(0.5), Value::Int(1)]));
        let g = chunk.gather(&[1]);
        assert_eq!(g.row(0), rows[1]);
    }

    #[test]
    fn zero_width_chunks_keep_cardinality() {
        let c = Chunk::zero_width(5);
        assert_eq!(c.len, 5);
        assert!(!c.is_empty());
        assert_eq!(c.row(0), Row::default());
    }
}
