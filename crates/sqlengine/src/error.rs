//! Error type for the SQL engine.

use std::fmt;

/// Errors across the lex → parse → plan → execute pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexing failed (bad character, unterminated string, …).
    Lex(String),
    /// Parsing failed (unexpected token, malformed clause, …).
    Parse(String),
    /// Planning failed (unknown table/column, ambiguity, …).
    Plan(String),
    /// Execution failed (type mismatch, division by zero, …).
    Execution(String),
    /// A referenced table does not exist.
    TableNotFound(String),
    /// A table with this name already exists.
    TableExists(String),
    /// A referenced column does not exist.
    ColumnNotFound(String),
    /// A value did not match the column's declared type.
    TypeMismatch {
        /// What the schema expects.
        expected: String,
        /// What was supplied.
        found: String,
    },
    /// CSV import/export failure.
    Csv(String),
    /// A row position past the end of its table.
    Storage(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex(m) => write!(f, "lex error: {m}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::Plan(m) => write!(f, "plan error: {m}"),
            SqlError::Execution(m) => write!(f, "execution error: {m}"),
            SqlError::TableNotFound(t) => write!(f, "table not found: {t}"),
            SqlError::TableExists(t) => write!(f, "table already exists: {t}"),
            SqlError::ColumnNotFound(c) => write!(f, "column not found: {c}"),
            SqlError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            SqlError::Csv(m) => write!(f, "csv error: {m}"),
            SqlError::Storage(m) => write!(f, "storage error: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(SqlError::TableNotFound("users".into())
            .to_string()
            .contains("users"));
        assert!(SqlError::TypeMismatch {
            expected: "INT".into(),
            found: "TEXT".into()
        }
        .to_string()
        .contains("INT"));
        assert!(SqlError::Lex("x".into()).to_string().starts_with("lex"));
        assert!(SqlError::Parse("x".into()).to_string().starts_with("parse"));
        assert!(SqlError::Plan("x".into()).to_string().starts_with("plan"));
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(SqlError::Csv("bad".into()));
        assert!(e.to_string().contains("bad"));
    }
}
