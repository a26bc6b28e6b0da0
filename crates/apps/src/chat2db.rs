//! Chat2DB: talk to a live database in natural language (or raw SQL).
//!
//! The canonical data-interaction flow: the user's utterance is turned
//! into SQL by the Text-to-SQL model (or accepted verbatim if it already
//! *is* SQL), executed on the engine, explained back in English, and
//! rendered as a table.

use serde::Serialize;

use dbgpt_obs::Span;
use dbgpt_text2sql::sql_to_text;

use crate::context::AppContext;
use crate::error::AppError;

/// The result of one Chat2DB turn.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Chat2DbReply {
    /// The SQL that ran.
    pub sql: String,
    /// English explanation of the SQL.
    pub explanation: String,
    /// Rendered ASCII table of the result.
    pub table: String,
    /// Result row count (or rows affected for DML).
    pub rows: usize,
}

/// The Chat2DB app.
#[derive(Debug, Clone)]
pub struct Chat2Db {
    ctx: AppContext,
}

/// Strip a leading `EXPLAIN` keyword, returning the remainder.
fn strip_explain(input: &str) -> Option<&str> {
    let trimmed = input.trim_start();
    let first = trimmed.split_whitespace().next()?;
    if first.eq_ignore_ascii_case("EXPLAIN") {
        Some(trimmed[first.len()..].trim_start())
    } else {
        None
    }
}

/// Does the input already look like SQL?
pub fn looks_like_sql(input: &str) -> bool {
    let first = input.split_whitespace().next().unwrap_or("");
    matches!(
        first.to_uppercase().as_str(),
        "SELECT" | "INSERT" | "UPDATE" | "DELETE" | "CREATE" | "DROP"
    )
}

impl Chat2Db {
    /// App over a context.
    pub fn new(ctx: AppContext) -> Self {
        Chat2Db { ctx }
    }

    /// Handle one utterance.
    pub fn ask(&self, input: &str) -> Result<Chat2DbReply, AppError> {
        let input = input.trim();
        if input.is_empty() {
            return Err(AppError::BadInput("empty input".into()));
        }
        // EXPLAIN path: show the optimized plan instead of executing.
        if let Some(rest) = strip_explain(input) {
            let sql = if looks_like_sql(rest) {
                rest.to_string()
            } else {
                let ddl = self.ctx.schema_ddl();
                if ddl.is_empty() {
                    return Err(AppError::BadInput("database has no tables".into()));
                }
                self.ctx.t2s.generate_sql(&ddl, rest)?
            };
            let plan = self.ctx.engine.read().explain(&sql)?;
            let explanation = sql_to_text(&sql)?;
            return Ok(Chat2DbReply {
                sql,
                explanation,
                table: plan,
                rows: 0,
            });
        }
        let sql = if looks_like_sql(input) {
            input.to_string()
        } else {
            let ddl = self.ctx.schema_ddl();
            if ddl.is_empty() {
                return Err(AppError::BadInput("database has no tables".into()));
            }
            self.ctx.t2s.generate_sql(&ddl, input)?
        };
        let explanation = sql_to_text(&sql)?;
        let result = self.ctx.run_sql(&sql, &Span::noop())?;
        let rows = if result.rows.is_empty() && result.schema.is_empty() {
            result.rows_affected
        } else {
            result.rows.len()
        };
        Ok(Chat2DbReply {
            sql,
            explanation,
            table: result.to_table(),
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> Chat2Db {
        Chat2Db::new(AppContext::local_default().with_sales_demo_data())
    }

    #[test]
    fn natural_language_question() {
        let r = app().ask("how many orders are there?").unwrap();
        assert_eq!(r.sql, "SELECT COUNT(*) FROM orders;");
        assert!(r.table.contains('8'));
        assert_eq!(r.rows, 1);
        assert!(r.explanation.contains("orders table"));
    }

    #[test]
    fn raw_sql_passes_through() {
        let r = app().ask("SELECT name FROM users ORDER BY name LIMIT 2").unwrap();
        assert!(r.table.contains("alice"));
        assert!(r.table.contains("bob"));
        assert_eq!(r.rows, 2);
    }

    #[test]
    fn top_n_under_the_largest_limit_returns_every_row() {
        // The executor's top-n must not reserve room for `LIMIT` rows.
        let sql = "SELECT id FROM orders ORDER BY amount DESC, id LIMIT 9223372036854775807";
        let r = app().ask(sql).unwrap();
        assert_eq!(r.rows, 8);
        let all = app().ask("SELECT id FROM orders ORDER BY amount DESC, id").unwrap();
        assert_eq!(r.table, all.table);
    }

    #[test]
    fn dml_reports_rows_affected() {
        let a = app();
        let r = a.ask("DELETE FROM orders WHERE category = 'food'").unwrap();
        assert_eq!(r.rows, 2);
        let r = a.ask("how many orders are there?").unwrap();
        assert!(r.table.contains('6'));
    }

    #[test]
    fn grouped_question() {
        let r = app().ask("what is the total amount per category of orders?").unwrap();
        assert!(r.sql.contains("GROUP BY category"));
        assert!(r.table.contains("books"));
        assert_eq!(r.rows, 3);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(app().ask("  "), Err(AppError::BadInput(_))));
    }

    #[test]
    fn unanswerable_question_errors() {
        assert!(matches!(
            app().ask("how many unicorns are there?"),
            Err(AppError::Text2Sql(_))
        ));
    }

    #[test]
    fn bad_sql_surfaces_engine_error() {
        assert!(matches!(
            app().ask("SELECT missing_col FROM orders"),
            Err(AppError::Sql(_))
        ));
    }

    #[test]
    fn empty_database_rejected_for_nl() {
        let app = Chat2Db::new(AppContext::local_default());
        assert!(matches!(app.ask("how many things?"), Err(AppError::BadInput(_))));
    }

    #[test]
    fn explain_shows_the_plan_without_executing() {
        let a = app();
        let r = a.ask("EXPLAIN SELECT id FROM orders WHERE amount > 10").unwrap();
        assert!(r.table.contains("Scan: orders"), "{}", r.table);
        assert_eq!(r.rows, 0);
        // Explaining a natural-language question works too.
        let r = a.ask("explain how many orders are there?").unwrap();
        assert!(r.table.contains("Aggregate"), "{}", r.table);
        assert_eq!(r.sql, "SELECT COUNT(*) FROM orders;");
        // Nothing was executed: the data is intact.
        let r = a.ask("how many orders are there?").unwrap();
        assert!(r.table.contains('8'));
    }

    #[test]
    fn looks_like_sql_detection() {
        assert!(looks_like_sql("SELECT 1"));
        assert!(looks_like_sql("  delete from t"));
        assert!(!looks_like_sql("how many orders"));
        assert!(!looks_like_sql(""));
    }
}
