//! Chat2Visualization: natural-language chart requests.
//!
//! "chat-to-visualization commands (chat2visualization)" (§2.1). The
//! utterance is inspected for a chart-type cue ("as a pie chart", "draw a
//! bar chart of …"), the remaining question goes through Text-to-SQL, and
//! the result becomes a [`ChartSpec`] rendered as both SVG (web front-end)
//! and ASCII (terminal front-end).

use serde::Serialize;

use dbgpt_obs::Span;
use dbgpt_vis::{ascii, chart::ChartType, spec_from_result, svg, ChartSpec};

use crate::context::AppContext;
use crate::error::AppError;

/// One visualization reply.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Chat2VizReply {
    /// The chart description (front-end contract).
    pub spec: ChartSpec,
    /// The SQL behind the data.
    pub sql: String,
    /// SVG rendering.
    pub svg: String,
    /// Terminal rendering.
    pub ascii: String,
}

/// The Chat2Viz app.
#[derive(Debug, Clone)]
pub struct Chat2Viz {
    ctx: AppContext,
}

/// Find a chart-type cue in the utterance; returns the type and the
/// utterance with the cue phrase removed.
pub fn extract_chart_type(input: &str) -> (Option<ChartType>, String) {
    let lower = input.to_lowercase();
    for name in ["donut", "doughnut", "pie", "bar", "area", "line", "scatter", "table"] {
        if let Some(t) = ChartType::parse(name) {
            if lower.contains(name) {
                // Remove cue phrases like "as a pie chart" / "pie chart of".
                let mut cleaned = String::new();
                for w in input.split_whitespace() {
                    let wl = w.to_lowercase();
                    let wl = wl.trim_matches(|c: char| !c.is_alphanumeric());
                    if wl == name || wl == "chart" || wl == "draw" || wl == "plot" || wl == "as" {
                        continue;
                    }
                    if !cleaned.is_empty() {
                        cleaned.push(' ');
                    }
                    cleaned.push_str(w);
                }
                return (Some(t), cleaned);
            }
        }
    }
    (None, input.to_string())
}

impl Chat2Viz {
    /// App over a context.
    pub fn new(ctx: AppContext) -> Self {
        Chat2Viz { ctx }
    }

    /// Handle one visualization command.
    pub fn ask(&self, input: &str) -> Result<Chat2VizReply, AppError> {
        let input = input.trim();
        if input.is_empty() {
            return Err(AppError::BadInput("empty input".into()));
        }
        let (chart_type, question) = extract_chart_type(input);
        let chart_type = chart_type.unwrap_or(ChartType::Bar);
        let ddl = self.ctx.schema_ddl();
        if ddl.is_empty() {
            return Err(AppError::BadInput("database has no tables".into()));
        }
        let sql = self.ctx.t2s.generate_sql(&ddl, &question)?;
        let result = self.ctx.run_sql(&sql, &Span::noop())?;
        let spec = spec_from_result(&result, chart_type, input)?;
        Ok(Chat2VizReply {
            svg: svg::render(&spec),
            ascii: ascii::render(&spec),
            spec,
            sql,
        })
    }

    /// Demo area ⑥: re-render an existing spec as a different chart type.
    pub fn switch_type(&self, spec: &ChartSpec, to: ChartType) -> Chat2VizReply {
        let spec = spec.switch_type(to);
        Chat2VizReply {
            svg: svg::render(&spec),
            ascii: ascii::render(&spec),
            sql: String::new(),
            spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> Chat2Viz {
        Chat2Viz::new(AppContext::local_default().with_sales_demo_data())
    }

    #[test]
    fn pie_chart_request() {
        let r = app()
            .ask("draw a pie chart of the total amount per category of orders")
            .unwrap();
        assert_eq!(r.spec.chart_type, ChartType::Pie);
        assert_eq!(r.spec.points.len(), 3);
        assert!(r.svg.contains("<path"));
        assert!(r.ascii.contains('%'));
        assert!(r.sql.contains("GROUP BY category"));
    }

    #[test]
    fn default_type_is_bar() {
        let r = app().ask("total amount per month of orders").unwrap();
        assert_eq!(r.spec.chart_type, ChartType::Bar);
        assert!(r.svg.contains("<rect"));
    }

    #[test]
    fn chart_type_cue_is_stripped_from_question() {
        let (t, q) = extract_chart_type("draw a donut chart of sales per category");
        assert_eq!(t, Some(ChartType::Donut));
        assert!(!q.contains("donut"));
        assert!(!q.contains("chart"));
        assert!(q.contains("sales per category"));
    }

    #[test]
    fn no_cue_passes_through() {
        let (t, q) = extract_chart_type("sales per category");
        assert_eq!(t, None);
        assert_eq!(q, "sales per category");
    }

    #[test]
    fn switch_type_rerenders() {
        let a = app();
        let r = a.ask("pie chart of total amount per category of orders").unwrap();
        let switched = a.switch_type(&r.spec, ChartType::Bar);
        assert_eq!(switched.spec.chart_type, ChartType::Bar);
        assert_eq!(switched.spec.points, r.spec.points);
        assert!(switched.svg.contains("<rect"));
    }

    #[test]
    fn empty_result_is_vis_error() {
        let r = app().ask("bar chart of orders with amount greater than 99999");
        assert!(matches!(r, Err(AppError::Vis(_))));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(app().ask("").is_err());
    }
}
