//! CSV import/export — the substrate for Chat2Excel.
//!
//! DB-GPT's chat2excel ingests spreadsheets into a queryable table. This
//! module parses CSV text (quoted fields, embedded commas/newlines,
//! doubled-quote escapes), infers column types from the data, and registers
//! the result as a table.

use crate::catalog::Database;
use crate::error::SqlError;
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};

/// Parse CSV text into a header row and data records.
pub fn parse_csv(text: &str) -> Result<(Vec<String>, Vec<Vec<String>>), SqlError> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut field = String::new();
    let mut record: Vec<String> = Vec::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        field.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {} // swallow; \n terminates
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(SqlError::Csv("unterminated quoted field".into()));
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if records.is_empty() {
        return Err(SqlError::Csv("empty csv".into()));
    }
    let header = records.remove(0);
    let width = header.len();
    for (i, r) in records.iter().enumerate() {
        if r.len() != width {
            return Err(SqlError::Csv(format!(
                "row {} has {} fields, expected {width}",
                i + 2,
                r.len()
            )));
        }
    }
    Ok((header, records))
}

/// Infer the narrowest type that fits every (non-empty) value in a column.
pub fn infer_type(values: &[&str]) -> DataType {
    let mut all_int = true;
    let mut all_float = true;
    let mut all_bool = true;
    let mut any = false;
    for v in values {
        let v = v.trim();
        if v.is_empty() {
            continue;
        }
        any = true;
        if v.parse::<i64>().is_err() {
            all_int = false;
        }
        if v.parse::<f64>().is_err() {
            all_float = false;
        }
        if !v.eq_ignore_ascii_case("true") && !v.eq_ignore_ascii_case("false") {
            all_bool = false;
        }
    }
    if !any {
        return DataType::Text;
    }
    if all_int {
        DataType::Int
    } else if all_float {
        DataType::Float
    } else if all_bool {
        DataType::Bool
    } else {
        DataType::Text
    }
}

/// Convert one CSV cell into a typed value (empty → NULL).
fn cell_to_value(cell: &str, ty: DataType) -> Value {
    let cell = cell.trim();
    if cell.is_empty() {
        return Value::Null;
    }
    match ty {
        DataType::Int => cell.parse::<i64>().map(Value::Int).unwrap_or(Value::Null),
        DataType::Float => cell.parse::<f64>().map(Value::Float).unwrap_or(Value::Null),
        // Strict like the Int/Float arms: only `true`/`false` (any case)
        // parse; junk such as "yes" becomes NULL rather than `false`.
        DataType::Bool => {
            if cell.eq_ignore_ascii_case("true") {
                Value::Bool(true)
            } else if cell.eq_ignore_ascii_case("false") {
                Value::Bool(false)
            } else {
                Value::Null
            }
        }
        DataType::Text => Value::Text(cell.to_string()),
    }
}

/// Load CSV text into `db` as table `name` (replacing any existing table).
/// Returns the number of rows loaded.
pub fn load_csv(db: &mut Database, name: &str, text: &str) -> Result<usize, SqlError> {
    let (header, records) = parse_csv(text)?;
    // Sanitize header names into identifiers.
    let col_names: Vec<String> = header
        .iter()
        .map(|h| {
            let cleaned: String = h
                .trim()
                .chars()
                .map(|c| if c.is_alphanumeric() || c == '_' { c } else { '_' })
                .collect();
            if cleaned.is_empty() {
                "col".to_string()
            } else {
                cleaned.to_lowercase()
            }
        })
        .collect();
    let mut types = Vec::with_capacity(col_names.len());
    for i in 0..col_names.len() {
        let column: Vec<&str> = records.iter().map(|r| r[i].as_str()).collect();
        types.push(infer_type(&column));
    }
    let mut columns = Vec::with_capacity(col_names.len());
    for (n, t) in col_names.iter().zip(&types) {
        columns.push(Column::new(n.clone(), *t));
    }
    db.drop_table(name, true)?;
    db.create_table(name, Schema::new(columns)?, false)?;
    let table = db.table_mut(name)?;
    // One bulk append instead of per-row inserts: every row is validated
    // before any is appended.
    let rows: Vec<Vec<Value>> = records
        .iter()
        .map(|r| {
            r.iter()
                .zip(&types)
                .map(|(c, t)| cell_to_value(c, *t))
                .collect()
        })
        .collect();
    table.insert_rows(rows)
}

/// Export a table back to CSV text.
pub fn export_csv(db: &Database, name: &str) -> Result<String, SqlError> {
    let t = db.table(name)?;
    let mut out = String::new();
    let header: Vec<&str> = t.schema.columns().iter().map(|c| c.name.as_str()).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    t.for_each_row(|row| {
        let cells: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Text(s) if s.contains(',') || s.contains('"') || s.contains('\n') => {
                    format!("\"{}\"", s.replace('"', "\"\""))
                }
                other => other.to_string(),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "id,name,amount,active\n1,alice,10.5,true\n2,bob,20,false\n3,\"smith, jr\",30.25,true\n";

    #[test]
    fn parse_basic() {
        let (h, r) = parse_csv(SAMPLE).unwrap();
        assert_eq!(h, vec!["id", "name", "amount", "active"]);
        assert_eq!(r.len(), 3);
        assert_eq!(r[2][1], "smith, jr");
    }

    #[test]
    fn parse_quoted_newline_and_escape() {
        let (_, r) = parse_csv("a,b\n\"line1\nline2\",\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(r[0][0], "line1\nline2");
        assert_eq!(r[0][1], "say \"hi\"");
    }

    #[test]
    fn parse_rejects_ragged_rows() {
        assert!(parse_csv("a,b\n1\n").is_err());
    }

    #[test]
    fn parse_rejects_unterminated_quote() {
        assert!(parse_csv("a\n\"oops\n").is_err());
    }

    #[test]
    fn parse_handles_crlf() {
        let (h, r) = parse_csv("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(h, vec!["a", "b"]);
        assert_eq!(r[0], vec!["1", "2"]);
    }

    #[test]
    fn type_inference() {
        assert_eq!(infer_type(&["1", "2"]), DataType::Int);
        assert_eq!(infer_type(&["1", "2.5"]), DataType::Float);
        assert_eq!(infer_type(&["true", "FALSE"]), DataType::Bool);
        assert_eq!(infer_type(&["1", "x"]), DataType::Text);
        assert_eq!(infer_type(&["", ""]), DataType::Text);
        assert_eq!(infer_type(&["1", ""]), DataType::Int); // blanks = NULLs
    }

    #[test]
    fn bool_cells_parse_strictly() {
        // Pre-fix, any non-"true" junk silently became Bool(false).
        assert_eq!(cell_to_value("true", DataType::Bool), Value::Bool(true));
        assert_eq!(cell_to_value("FALSE", DataType::Bool), Value::Bool(false));
        assert_eq!(cell_to_value("yes", DataType::Bool), Value::Null);
        assert_eq!(cell_to_value("no", DataType::Bool), Value::Null);
        assert_eq!(cell_to_value("1", DataType::Bool), Value::Null);
        assert_eq!(cell_to_value("", DataType::Bool), Value::Null);
    }

    #[test]
    fn load_and_query() {
        let mut db = Database::new();
        let n = load_csv(&mut db, "sheet", SAMPLE).unwrap();
        assert_eq!(n, 3);
        let t = db.table("sheet").unwrap();
        assert_eq!(t.schema.columns()[0].data_type, DataType::Int);
        assert_eq!(t.schema.columns()[2].data_type, DataType::Float);
        assert_eq!(t.schema.columns()[3].data_type, DataType::Bool);
        assert_eq!(t.all_rows().unwrap()[1][2], Value::Float(20.0));
    }

    #[test]
    fn load_sanitizes_headers() {
        let mut db = Database::new();
        load_csv(&mut db, "s", "Order ID,Total $\n1,2\n").unwrap();
        let t = db.table("s").unwrap();
        assert_eq!(t.schema.columns()[0].name, "order_id");
        assert_eq!(t.schema.columns()[1].name, "total__");
    }

    #[test]
    fn load_replaces_existing() {
        let mut db = Database::new();
        load_csv(&mut db, "s", "a\n1\n").unwrap();
        load_csv(&mut db, "s", "b\nx\n").unwrap();
        let t = db.table("s").unwrap();
        assert_eq!(t.schema.columns()[0].name, "b");
    }

    #[test]
    fn export_roundtrip() {
        let mut db = Database::new();
        load_csv(&mut db, "s", SAMPLE).unwrap();
        let text = export_csv(&db, "s").unwrap();
        let mut db2 = Database::new();
        load_csv(&mut db2, "s2", &text).unwrap();
        let a = db.table("s").unwrap();
        let b = db2.table("s2").unwrap();
        assert_eq!(a.all_rows().unwrap(), b.all_rows().unwrap());
    }

    #[test]
    fn empty_csv_rejected() {
        assert!(parse_csv("").is_err());
    }
}
