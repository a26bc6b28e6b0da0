//! Rows and row batches — the row-major data representation.
//!
//! [`Row`] is the engine's interchange format: DML, the executor, and
//! [`crate::engine::QueryResult`] all traffic in rows.

use std::ops::{Deref, Index};

use serde::{Deserialize, Serialize};

use crate::schema::SchemaRef;
use crate::value::Value;

/// One tuple of values.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// The values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access (used by UPDATE).
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Is the row empty?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at `idx`, if in range.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Concatenate two rows (join output).
    pub fn join(&self, right: &[Value]) -> Row {
        let mut values = Vec::with_capacity(self.len() + right.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(right);
        Row { values }
    }

    /// Consume into the inner vector.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

/// A row reads as its values, so code that only reads cells (expression
/// evaluation, the executors' pipelines) takes `&[Value]` and serves both
/// rows and the catalog's stored cells.
impl Deref for Row {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.values
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
    }
}

/// A batch of rows sharing one schema — the unit that flows between
/// physical operators.
#[derive(Debug, Clone)]
pub struct RowBatch {
    /// Schema all rows conform to.
    pub schema: SchemaRef,
    /// The rows.
    pub rows: Vec<Row>,
}

impl RowBatch {
    /// Build a batch.
    pub fn new(schema: SchemaRef, rows: Vec<Row>) -> Self {
        RowBatch { schema, rows }
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        RowBatch {
            schema,
            rows: Vec::new(),
        }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;
    use std::sync::Arc;

    #[test]
    fn row_accessors() {
        let r = Row::new(vec![Value::Int(1), Value::Text("x".into())]);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], Value::Int(1));
        assert_eq!(r.get(1), Some(&Value::Text("x".into())));
        assert_eq!(r.get(2), None);
        assert!(!r.is_empty());
    }

    #[test]
    fn row_join_concatenates() {
        let a = Row::new(vec![Value::Int(1)]);
        let b = Row::new(vec![Value::Int(2), Value::Int(3)]);
        let j = a.join(&b);
        assert_eq!(j.values(), &[Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn row_mutation() {
        let mut r = Row::new(vec![Value::Int(1)]);
        r.values_mut()[0] = Value::Int(9);
        assert_eq!(r[0], Value::Int(9));
    }

    #[test]
    fn batch_construction() {
        let schema = Arc::new(
            Schema::new(vec![Column::new("id", DataType::Int)]).unwrap(),
        );
        let b = RowBatch::new(schema.clone(), vec![Row::new(vec![Value::Int(1)])]);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert!(RowBatch::empty(schema).is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let r = Row::new(vec![Value::Int(1), Value::Null, Value::Bool(true)]);
        let json = serde_json::to_string(&r).unwrap();
        let back: Row = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
