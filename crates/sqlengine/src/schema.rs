//! Schemas and columns.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::SqlError;
use crate::value::DataType;

/// A column definition: name, type, and optional table qualifier (set when
/// a schema flows through a join so `t.col` references stay resolvable).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (stored lowercase; SQL identifiers are case-insensitive).
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// Table (or alias) this column came from, lowercase.
    pub table: Option<String>,
}

impl Column {
    /// New unqualified column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into().to_lowercase(),
            data_type,
            table: None,
        }
    }

    /// New column qualified with its source table.
    pub fn qualified(
        table: impl Into<String>,
        name: impl Into<String>,
        data_type: DataType,
    ) -> Self {
        Column {
            name: name.into().to_lowercase(),
            data_type,
            table: Some(table.into().to_lowercase()),
        }
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{} {}", self.name, self.data_type),
            None => write!(f, "{} {}", self.name, self.data_type),
        }
    }
}

/// An ordered list of columns. Cheap to share via [`SchemaRef`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<Column>,
}

/// Shared schema handle (row batches carry one of these, DataFusion-style).
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Build from columns; duplicate *qualified* names are rejected.
    pub fn new(columns: Vec<Column>) -> Result<Schema, SqlError> {
        for (i, a) in columns.iter().enumerate() {
            for b in &columns[i + 1..] {
                if a.name == b.name && a.table == b.table {
                    return Err(SqlError::Plan(format!(
                        "duplicate column `{}` in schema",
                        a.name
                    )));
                }
            }
        }
        Ok(Schema { columns })
    }

    /// Build without duplicate checking (for internal plan nodes that have
    /// already validated, e.g. join outputs that keep qualifiers distinct).
    pub fn new_unchecked(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Resolve a possibly-qualified column reference to an index.
    ///
    /// `table` restricts the search to columns carrying that qualifier.
    /// Unqualified lookups that match more than one column are ambiguous.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize, SqlError> {
        // Parsed identifiers are lowercase already: compare them in place,
        // and lowercase (allocating) only what is not.
        let lower = |s: &str| s.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase());
        if lower(name) && table.is_none_or(lower) {
            self.resolve_lowercase(table, name)
        } else {
            let table = table.map(str::to_lowercase);
            self.resolve_lowercase(table.as_deref(), &name.to_lowercase())
        }
    }

    /// [`Schema::resolve`] for a lowercase name and qualifier.
    fn resolve_lowercase(&self, table: Option<&str>, name: &str) -> Result<usize, SqlError> {
        let mut found: Option<usize> = None;
        for (i, c) in self.columns.iter().enumerate() {
            if c.name != name || table.is_some_and(|t| c.table.as_deref() != Some(t)) {
                continue;
            }
            if found.is_some() {
                return Err(SqlError::Plan(format!("ambiguous column `{name}`")));
            }
            found = Some(i);
        }
        found.ok_or_else(|| {
            SqlError::ColumnNotFound(match table {
                Some(t) => format!("{t}.{name}"),
                None => name.to_string(),
            })
        })
    }

    /// Index of a column by exact position-independent name (unqualified).
    pub fn index_of(&self, name: &str) -> Result<usize, SqlError> {
        self.resolve(None, name)
    }

    /// A copy of this schema with every column qualified by `table`
    /// (applied when a base table enters a FROM clause, honoring aliases).
    pub fn qualify(&self, table: &str) -> Schema {
        let t = table.to_lowercase();
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column {
                    name: c.name.clone(),
                    data_type: c.data_type,
                    table: Some(t.clone()),
                })
                .collect(),
        }
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut columns = Vec::with_capacity(self.len() + right.len());
        columns.extend_from_slice(&self.columns);
        columns.extend_from_slice(&right.columns);
        Schema { columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn names_are_lowercased() {
        let c = Column::new("UserName", DataType::Text);
        assert_eq!(c.name, "username");
        let c = Column::qualified("Orders", "ID", DataType::Int);
        assert_eq!(c.table.as_deref(), Some("orders"));
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("ID", DataType::Text),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn same_name_different_qualifier_ok() {
        let r = Schema::new(vec![
            Column::qualified("a", "id", DataType::Int),
            Column::qualified("b", "id", DataType::Int),
        ]);
        assert!(r.is_ok());
    }

    #[test]
    fn resolve_unqualified() {
        assert_eq!(schema().resolve(None, "name").unwrap(), 1);
        assert_eq!(schema().resolve(None, "NAME").unwrap(), 1);
        assert!(matches!(
            schema().resolve(None, "ghost"),
            Err(SqlError::ColumnNotFound(_))
        ));
    }

    #[test]
    fn resolve_qualified() {
        let s = schema().qualify("users");
        assert_eq!(s.resolve(Some("users"), "id").unwrap(), 0);
        assert!(s.resolve(Some("orders"), "id").is_err());
    }

    #[test]
    fn resolve_ambiguous_after_join() {
        let joined = schema().qualify("a").join(&schema().qualify("b"));
        assert!(matches!(
            joined.resolve(None, "id"),
            Err(SqlError::Plan(_))
        ));
        assert_eq!(joined.resolve(Some("b"), "id").unwrap(), 2);
    }

    #[test]
    fn resolve_mixed_case_and_non_ascii_names() {
        let s = Schema::new(vec![
            Column::new("Straße", DataType::Text),
            Column::new("ÉTÉ", DataType::Int),
        ])
        .unwrap()
        .qualify("Größe");
        // Stored lowercase; any spelling resolves, qualified or not.
        assert_eq!(s.columns()[1].name, "été");
        for (table, name, want) in [
            (None, "straße", 0),
            (None, "STRAßE", 0),
            (None, "été", 1),
            (None, "Été", 1),
            (Some("größe"), "ÉTÉ", 1),
            (Some("GRÖßE"), "Straße", 0),
        ] {
            assert_eq!(s.resolve(table, name).unwrap(), want, "{table:?}.{name}");
        }
        // Unicode lowercasing, not ASCII folding: `SS` does not become `ß`.
        assert!(matches!(
            s.resolve(Some("GRÖSSE"), "Été"),
            Err(SqlError::ColumnNotFound(c)) if c == "grösse.été"
        ));
        // Error texts name the lowercased reference either way.
        let err = |t: Option<&str>, n: &str| schema().resolve(t, n).unwrap_err();
        assert!(matches!(err(None, "Ghost"), SqlError::ColumnNotFound(c) if c == "ghost"));
        assert!(matches!(err(Some("Users"), "ID"), SqlError::ColumnNotFound(c) if c == "users.id"));
        assert!(matches!(err(Some("users"), "id"), SqlError::ColumnNotFound(c) if c == "users.id"));
    }

    #[test]
    fn resolve_ambiguous_after_join_in_any_case() {
        let joined = schema().qualify("a").join(&schema().qualify("b"));
        for name in ["id", "ID", "Id"] {
            assert!(matches!(
                joined.resolve(None, name),
                Err(SqlError::Plan(m)) if m == "ambiguous column `id`"
            ));
        }
        assert_eq!(joined.resolve(Some("A"), "Id").unwrap(), 0);
        assert_eq!(joined.resolve(Some("b"), "NAME").unwrap(), 3);
    }

    #[test]
    fn join_concatenates_in_order() {
        let j = schema().qualify("a").join(&schema().qualify("b"));
        assert_eq!(j.len(), 4);
        assert_eq!(j.columns()[0].table.as_deref(), Some("a"));
        assert_eq!(j.columns()[3].table.as_deref(), Some("b"));
    }

    #[test]
    fn display_column() {
        assert_eq!(Column::new("id", DataType::Int).to_string(), "id INT");
        assert_eq!(
            Column::qualified("t", "id", DataType::Int).to_string(),
            "t.id INT"
        );
    }
}
