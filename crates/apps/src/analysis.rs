//! Generative data analysis — the Fig. 3 demonstration.
//!
//! "consider the task of constructing detailed sales reports from at least
//! three distinct dimensions. The Multi-Agent framework initiates this
//! process by deploying a planning agent to devise a comprehensive
//! strategy, which includes the creation of: 1) a donut chart for the
//! analysis of total sales by product category, 2) a bar chart for
//! examining sales data from the perspective of user demographics, and 3)
//! an area chart for evaluating monthly sales trends. Subsequent to the
//! planning phase, dedicated chart-generating agents are tasked with the
//! production of these visual representations, which are then aggregated
//! by the planner and presented to users" (§2.3).
//!
//! [`ChartAgent`] is the "dedicated chart-generating agent": it resolves a
//! plan step's *dimension* against the live schema, writes the grouped SQL
//! (joining the users table for demographic names when available), runs
//! it, and emits a [`ChartSpec`]. [`GenerativeAnalyzer`] drives the whole
//! plan → charts → aggregate flow through the multi-agent orchestrator.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use serde_json::json;

use dbgpt_agents::{
    Agent, AgentContext, AgentError, AgentReply, LlmClient, Orchestrator, TaskRequest,
};
use dbgpt_llm::skills::planner::PlanStep;
use dbgpt_obs::Span;
use dbgpt_sqlengine::{Database, DataType};
use dbgpt_vis::{ascii, chart::ChartType, spec_from_result, svg, ChartSpec};

use crate::context::AppContext;
use crate::error::AppError;

/// The final analysis artifact (areas ③–⑤ of Fig. 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Conversation id in the agent archive.
    pub conversation: String,
    /// The plan the planner produced (area ③).
    pub plan: Vec<PlanStep>,
    /// The generated charts (area ④).
    pub charts: Vec<ChartSpec>,
    /// The SQL each chart ran.
    pub chart_sql: Vec<String>,
    /// Aggregated narrative (area ⑤).
    pub narrative: String,
}

impl AnalysisReport {
    /// Terminal rendering of every chart plus the narrative.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        for c in &self.charts {
            out.push_str(&ascii::render(c));
            out.push('\n');
        }
        out.push_str("== Narrative ==\n");
        out.push_str(&self.narrative);
        out.push('\n');
        out
    }

    /// SVG rendering of every chart.
    pub fn render_svgs(&self) -> Vec<String> {
        self.charts.iter().map(svg::render).collect()
    }
}

/// How a dimension maps onto the schema: the SQL to run and a title.
pub(crate) struct DimensionQuery {
    pub(crate) sql: String,
    pub(crate) title: String,
}

/// Column-name candidates per recognised dimension.
const DIMENSION_COLUMNS: &[(&str, &[&str])] = &[
    ("product category", &["category", "segment", "product", "genre"]),
    ("user demographics", &["user_id", "user", "customer", "member"]),
    ("monthly trend", &["month", "quarter", "period", "date"]),
    ("region", &["region", "city", "branch", "country"]),
];

/// Resolve a plan step's dimension against the live schema.
pub(crate) fn resolve_dimension(db: &Database, dimension: &str) -> Option<DimensionQuery> {
    let candidates: &[&str] = DIMENSION_COLUMNS
        .iter()
        .find(|(name, _)| *name == dimension)
        .map(|(_, cols)| *cols)?;

    // Find a fact table: one that has a candidate column AND a numeric
    // measure that is not an id.
    for table_name in db.table_names() {
        let table = db.table(table_name).ok()?;
        let cols = table.schema.columns();
        let dim_col = cols.iter().find(|c| candidates.contains(&c.name.as_str()));
        let measure = cols.iter().find(|c| {
            matches!(c.data_type, DataType::Int | DataType::Float) && !c.name.ends_with("id")
        });
        let (Some(dim_col), Some(measure)) = (dim_col, measure) else {
            continue;
        };
        // Demographic dimension: join the users table for names if the
        // dim column is a foreign key and a users-like table exists.
        if dim_col.name.ends_with("_id") {
            let ref_table = dim_col.name.trim_end_matches("_id").to_string() + "s";
            if let Ok(users) = db.table(&ref_table) {
                if users.schema.columns().iter().any(|c| c.name == "name") {
                    return Some(DimensionQuery {
                        sql: format!(
                            "SELECT u.name, SUM(o.{m}) AS total FROM {t} o \
                             JOIN {r} u ON o.{d} = u.id GROUP BY u.name",
                            m = measure.name,
                            t = table_name,
                            r = ref_table,
                            d = dim_col.name,
                        ),
                        title: format!("Total {} by {}", measure.name, dimension),
                    });
                }
            }
        }
        return Some(DimensionQuery {
            sql: format!(
                "SELECT {d}, SUM({m}) AS total FROM {t} GROUP BY {d}",
                d = dim_col.name,
                m = measure.name,
                t = table_name,
            ),
            title: format!("Total {} by {}", measure.name, dimension),
        });
    }
    None
}

/// The dedicated chart-generating agent.
pub struct ChartAgent {
    ctx: AppContext,
}

impl ChartAgent {
    /// Agent over a context.
    pub fn new(ctx: AppContext) -> Self {
        ChartAgent { ctx }
    }
}

impl Agent for ChartAgent {
    fn name(&self) -> &str {
        "chart_generator"
    }

    fn role(&self) -> &str {
        "chart_generator"
    }

    fn handle(&self, task: &TaskRequest, _ctx: &AgentContext) -> Result<AgentReply, AgentError> {
        let dimension = task
            .step
            .dimension
            .clone()
            .ok_or_else(|| AgentError::Llm("chart step carries no dimension".into()))?;
        let chart_type = task
            .step
            .chart
            .as_deref()
            .and_then(ChartType::parse)
            .unwrap_or(ChartType::Bar);
        let query = {
            let engine = self.ctx.engine.read();
            resolve_dimension(engine.database(), &dimension)
        }
        .ok_or_else(|| {
            AgentError::Llm(format!("no table supports dimension `{dimension}`"))
        })?;
        let result = self
            .ctx
            .run_sql(&query.sql, &Span::noop())
            .map_err(|e| AgentError::Llm(format!("chart query failed: {e}")))?;
        let spec = spec_from_result(&result, chart_type, &query.title)
            .map_err(|e| AgentError::Llm(format!("chart build failed: {e}")))?;
        Ok(AgentReply::structured(
            json!({
                "chart_spec": spec,
                "sql": query.sql,
            }),
            format!("{} chart: {}", chart_type.name(), query.title),
        ))
    }
}

/// Drives the full generative-data-analysis flow.
pub struct GenerativeAnalyzer {
    ctx: AppContext,
    orchestrator: Orchestrator,
}

impl GenerativeAnalyzer {
    /// Analyzer over a context.
    pub fn new(ctx: AppContext) -> Self {
        let mut orchestrator = Orchestrator::new(ctx.llm.clone());
        orchestrator.register_agent(Arc::new(ChartAgent::new(ctx.clone())));
        GenerativeAnalyzer { ctx, orchestrator }
    }

    /// Analyzer routing model calls through a specific client (e.g. SMMF).
    pub fn with_llm(ctx: AppContext, llm: LlmClient) -> Self {
        let mut orchestrator = Orchestrator::new(llm);
        orchestrator.register_agent(Arc::new(ChartAgent::new(ctx.clone())));
        GenerativeAnalyzer { ctx, orchestrator }
    }

    /// Analyzer archiving its communication history durably (the paper's
    /// local-storage reliability mechanism).
    pub fn with_archive(
        ctx: AppContext,
        archive: Arc<dbgpt_agents::HistoryArchive>,
    ) -> Self {
        let mut orchestrator = Orchestrator::with_archive(ctx.llm.clone(), archive);
        orchestrator.register_agent(Arc::new(ChartAgent::new(ctx.clone())));
        GenerativeAnalyzer { ctx, orchestrator }
    }

    /// The underlying orchestrator (inspect the archive, add agents).
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orchestrator
    }

    /// Execute a goal like the demo command and assemble the report.
    pub fn analyze(&mut self, goal: &str) -> Result<AnalysisReport, AppError> {
        if goal.trim().is_empty() {
            return Err(AppError::BadInput("empty goal".into()));
        }
        if self.ctx.engine.read().database().table_count() == 0 {
            return Err(AppError::BadInput("database has no tables".into()));
        }
        let report = self.orchestrator.execute_goal(goal)?;
        let mut charts = Vec::new();
        let mut chart_sql = Vec::new();
        for r in &report.step_results {
            if let Some(spec) = r.content.get("chart_spec") {
                let spec: ChartSpec = serde_json::from_value(spec.clone())
                    .map_err(|e| AppError::Vis(e.to_string()))?;
                charts.push(spec);
                chart_sql.push(
                    r.content
                        .get("sql")
                        .and_then(|s| s.as_str())
                        .unwrap_or_default()
                        .to_string(),
                );
            }
        }
        let narrative = report
            .final_report
            .content
            .get("narrative")
            .and_then(|n| n.as_str())
            .unwrap_or_default()
            .to_string();
        Ok(AnalysisReport {
            conversation: report.conversation,
            plan: report.plan,
            charts,
            chart_sql,
            narrative,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO_GOAL: &str =
        "Build sales reports and analyze user orders from at least three distinct dimensions";

    fn analyzer() -> GenerativeAnalyzer {
        GenerativeAnalyzer::new(AppContext::local_default().with_sales_demo_data())
    }

    #[test]
    fn demo_flow_produces_three_charts() {
        let mut a = analyzer();
        let report = a.analyze(DEMO_GOAL).unwrap();
        assert_eq!(report.plan.len(), 4, "4-step strategy (area ③)");
        assert_eq!(report.charts.len(), 3, "three charts (area ④)");
        let types: Vec<&str> = report.charts.iter().map(|c| c.chart_type.name()).collect();
        assert!(types.contains(&"donut"));
        assert!(types.contains(&"bar"));
        assert!(types.contains(&"area"));
        assert!(!report.narrative.is_empty(), "narrative (area ⑤)");
    }

    #[test]
    fn category_chart_aggregates_correctly() {
        let mut a = analyzer();
        let report = a.analyze(DEMO_GOAL).unwrap();
        let donut = report
            .charts
            .iter()
            .find(|c| c.chart_type == ChartType::Donut)
            .unwrap();
        let tech = donut.points.iter().find(|p| p.label == "tech").unwrap();
        assert_eq!(tech.value, 4500.0); // 1200+2400+300+600
    }

    #[test]
    fn demographics_chart_joins_user_names() {
        let mut a = analyzer();
        let report = a.analyze(DEMO_GOAL).unwrap();
        let bar = report
            .charts
            .iter()
            .find(|c| c.chart_type == ChartType::Bar)
            .unwrap();
        let labels: Vec<&str> = bar.points.iter().map(|p| p.label.as_str()).collect();
        assert!(labels.contains(&"alice"), "{labels:?}");
        let sql = report
            .chart_sql
            .iter()
            .find(|s| s.contains("JOIN"))
            .expect("demographics SQL joins users");
        assert!(sql.contains("GROUP BY u.name"));
    }

    #[test]
    fn monthly_chart_covers_all_months() {
        let mut a = analyzer();
        let report = a.analyze(DEMO_GOAL).unwrap();
        let area = report
            .charts
            .iter()
            .find(|c| c.chart_type == ChartType::Area)
            .unwrap();
        assert_eq!(area.points.len(), 3); // jan, feb, mar
    }

    #[test]
    fn full_history_archived() {
        let mut a = analyzer();
        let report = a.analyze(DEMO_GOAL).unwrap();
        let msgs = a.orchestrator().archive().conversation(&report.conversation);
        assert!(msgs.len() >= 9);
    }

    #[test]
    fn renderings_produced() {
        let mut a = analyzer();
        let report = a.analyze(DEMO_GOAL).unwrap();
        let text = report.render_ascii();
        assert!(text.contains("donut"));
        assert!(text.contains("== Narrative =="));
        let svgs = report.render_svgs();
        assert_eq!(svgs.len(), 3);
        assert!(svgs.iter().all(|s| s.starts_with("<svg")));
    }

    #[test]
    fn chinese_goal_works() {
        let mut a = analyzer();
        let report = a.analyze("构建销售报表，从三个维度分析用户订单").unwrap();
        assert_eq!(report.charts.len(), 3);
    }

    #[test]
    fn empty_db_rejected() {
        let mut a = GenerativeAnalyzer::new(AppContext::local_default());
        assert!(matches!(a.analyze(DEMO_GOAL), Err(AppError::BadInput(_))));
    }

    #[test]
    fn unsupported_dimension_fails_loudly() {
        // A schema with no region-like column: ask for region analysis.
        let ctx = AppContext::local_default();
        ctx.seed_sql(&[
            "CREATE TABLE orders (id INT, amount FLOAT, category TEXT)",
            "INSERT INTO orders VALUES (1, 5.0, 'x')",
        ])
        .unwrap();
        let mut a = GenerativeAnalyzer::new(ctx);
        let r = a.analyze("sales report by region only, 1 dimension");
        assert!(matches!(r, Err(AppError::Agent(_))), "{r:?}");
    }
}
