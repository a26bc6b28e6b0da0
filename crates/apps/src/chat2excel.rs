//! Chat2Excel: chat over spreadsheets.
//!
//! A CSV export (the offline stand-in for an Excel sheet — same rows, same
//! column semantics) is loaded into the engine with inferred types; every
//! subsequent question is ordinary Chat2Data against that table.

use serde::Serialize;

use dbgpt_sqlengine::csv::load_csv;

use crate::chat2data::{Chat2Data, Chat2DataReply};
use crate::context::AppContext;
use crate::error::AppError;

/// Sheet-loading summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SheetInfo {
    /// Table name the sheet was registered under.
    pub table: String,
    /// Rows loaded.
    pub rows: usize,
    /// Column names with inferred types.
    pub columns: Vec<(String, String)>,
}

/// The Chat2Excel app.
#[derive(Debug, Clone)]
pub struct Chat2Excel {
    ctx: AppContext,
    qa: Chat2Data,
}

impl Chat2Excel {
    /// App over a context.
    pub fn new(ctx: AppContext) -> Self {
        let qa = Chat2Data::new(ctx.clone());
        Chat2Excel { ctx, qa }
    }

    /// Load a sheet (CSV text) as `table`, replacing any previous sheet of
    /// that name. Records an `app.chat2excel.load` span with table/row
    /// attributes on the context's handle.
    pub fn load_sheet(&self, table: &str, csv_text: &str) -> Result<SheetInfo, AppError> {
        let span = self
            .ctx
            .obs
            .span("app.chat2excel.load", self.ctx.obs.tick());
        span.attr("table", table);
        let res = self.load_sheet_inner(table, csv_text);
        match &res {
            Ok(info) => {
                span.attr("outcome", "ok");
                span.attr("rows", info.rows);
            }
            Err(_) => span.attr("outcome", "error"),
        }
        span.end(span.tick());
        res
    }

    fn load_sheet_inner(&self, table: &str, csv_text: &str) -> Result<SheetInfo, AppError> {
        if table.trim().is_empty() {
            return Err(AppError::BadInput("sheet needs a table name".into()));
        }
        let mut engine = self.ctx.engine.write();
        let rows = load_csv(engine.database_mut(), table, csv_text)?;
        let t = engine.database().table(table)?;
        let columns = t
            .schema
            .columns()
            .iter()
            .map(|c| (c.name.clone(), c.data_type.name().to_string()))
            .collect();
        Ok(SheetInfo {
            table: table.to_lowercase(),
            rows,
            columns,
        })
    }

    /// Ask a question over loaded sheets.
    pub fn ask(&self, question: &str) -> Result<Chat2DataReply, AppError> {
        self.qa.ask(question)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHEET: &str = "region,sales,quarter\nnorth,100,q1\nsouth,250,q1\nnorth,300,q2\nsouth,50,q2\n";

    fn app() -> Chat2Excel {
        Chat2Excel::new(AppContext::local_default())
    }

    #[test]
    fn load_reports_shape() {
        let info = app().load_sheet("sheet1", SHEET).unwrap();
        assert_eq!(info.rows, 4);
        assert_eq!(info.table, "sheet1");
        assert_eq!(
            info.columns,
            vec![
                ("region".to_string(), "TEXT".to_string()),
                ("sales".to_string(), "INT".to_string()),
                ("quarter".to_string(), "TEXT".to_string()),
            ]
        );
    }

    #[test]
    fn chat_over_sheet() {
        let a = app();
        a.load_sheet("sheet1", SHEET).unwrap();
        let r = a.ask("what is the total sales per region of sheet1?").unwrap();
        assert!(r.answer.contains("north: 400"), "{}", r.answer);
        assert!(r.answer.contains("south: 300"), "{}", r.answer);
    }

    #[test]
    fn reload_replaces_sheet() {
        let a = app();
        a.load_sheet("s", SHEET).unwrap();
        a.load_sheet("s", "region,sales\nwest,1\n").unwrap();
        let r = a.ask("how many s are there?").unwrap();
        assert_eq!(r.answer, "The answer is 1.");
    }

    #[test]
    fn bad_csv_rejected() {
        assert!(matches!(app().load_sheet("s", ""), Err(AppError::Sql(_))));
        assert!(app().load_sheet("  ", SHEET).is_err());
    }

    #[test]
    fn question_before_loading_fails_cleanly() {
        assert!(app().ask("total sales?").is_err());
    }
}
