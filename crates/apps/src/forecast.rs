//! Time-series forecasting — the paper's first future-work direction.
//!
//! §4: "introducing powerful agents providing more powerful abilities,
//! such as time series predictions based on historical data and predictive
//! decision abilities". This module implements that agent: it extracts a
//! time series from the live database (the monthly-trend resolution the
//! chart agents already use), fits a forecasting method, and returns the
//! history plus predictions as a line chart and a narrative.
//!
//! Methods are deliberately classical and fully deterministic — naive
//! (last value), moving average, and least-squares linear trend — because
//! the *agent wiring* (goal → data → model → chart → report) is what the
//! future-work item describes; the estimator is pluggable.

use serde::{Deserialize, Serialize};
use serde_json::json;

use dbgpt_agents::{Agent, AgentContext, AgentError, AgentReply, TaskRequest};
use dbgpt_obs::Span;
use dbgpt_vis::{chart::ChartType, ChartSpec, DataPoint};

use crate::analysis::resolve_dimension;
use crate::context::AppContext;
use crate::error::AppError;

/// A forecasting method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForecastMethod {
    /// Repeat the last observation.
    Naive,
    /// Mean of the trailing `window` observations.
    MovingAverage(usize),
    /// Least-squares linear trend extrapolation.
    LinearTrend,
}

impl ForecastMethod {
    /// Short display name.
    pub fn name(&self) -> String {
        match self {
            ForecastMethod::Naive => "naive".into(),
            ForecastMethod::MovingAverage(w) => format!("moving-average({w})"),
            ForecastMethod::LinearTrend => "linear-trend".into(),
        }
    }

    /// Forecast `horizon` future values from `history`.
    ///
    /// Returns an empty vector when history is empty; a single observation
    /// is enough for `Naive`/`MovingAverage`, two for `LinearTrend`
    /// (which degrades to naive below that).
    pub fn forecast(&self, history: &[f64], horizon: usize) -> Vec<f64> {
        if history.is_empty() || horizon == 0 {
            return Vec::new();
        }
        match self {
            ForecastMethod::Naive => vec![*history.last().expect("non-empty"); horizon],
            ForecastMethod::MovingAverage(window) => {
                let mut extended: Vec<f64> = history.to_vec();
                let w = (*window).max(1);
                for _ in 0..horizon {
                    let start = extended.len().saturating_sub(w);
                    let tail = &extended[start..];
                    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
                    extended.push(mean);
                }
                extended[history.len()..].to_vec()
            }
            ForecastMethod::LinearTrend => {
                if history.len() < 2 {
                    return vec![history[0]; horizon];
                }
                // Least squares over (0..n) → (slope, intercept).
                let n = history.len() as f64;
                let sum_x: f64 = (0..history.len()).map(|i| i as f64).sum();
                let sum_y: f64 = history.iter().sum();
                let sum_xy: f64 = history.iter().enumerate().map(|(i, y)| i as f64 * y).sum();
                let sum_x2: f64 = (0..history.len()).map(|i| (i * i) as f64).sum();
                let denom = n * sum_x2 - sum_x * sum_x;
                let slope = if denom.abs() < f64::EPSILON {
                    0.0
                } else {
                    (n * sum_xy - sum_x * sum_y) / denom
                };
                let intercept = (sum_y - slope * sum_x) / n;
                (0..horizon)
                    .map(|h| intercept + slope * (history.len() + h) as f64)
                    .collect()
            }
        }
    }
}

/// A forecast result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForecastReply {
    /// Method used.
    pub method: String,
    /// Observed series as `(label, value)`.
    pub history: Vec<(String, f64)>,
    /// Predicted future values (labels are `+1`, `+2`, …).
    pub predictions: Vec<f64>,
    /// Combined line chart (history + forecast points).
    pub chart: ChartSpec,
    /// One-sentence narrative.
    pub narrative: String,
    /// The SQL that produced the history.
    pub sql: String,
}

/// Parse a horizon like "next 3 months" from the question (default 2).
pub fn parse_horizon(question: &str) -> usize {
    let words: Vec<&str> = question.split_whitespace().collect();
    for (i, w) in words.iter().enumerate() {
        if w.eq_ignore_ascii_case("next") {
            if let Some(n) = words.get(i + 1).and_then(|x| x.parse::<usize>().ok()) {
                return n.clamp(1, 24);
            }
            // "next month" / "next quarter" → 1.
            if words.get(i + 1).is_some() {
                return 1;
            }
        }
    }
    2
}

/// Choose a method from question vocabulary (default linear trend).
pub fn parse_method(question: &str) -> ForecastMethod {
    let q = question.to_lowercase();
    if q.contains("average") || q.contains("smooth") {
        ForecastMethod::MovingAverage(3)
    } else if q.contains("naive") || q.contains("last value") {
        ForecastMethod::Naive
    } else {
        ForecastMethod::LinearTrend
    }
}

/// The forecasting app.
#[derive(Debug, Clone)]
pub struct Forecaster {
    ctx: AppContext,
}

impl Forecaster {
    /// App over a context.
    pub fn new(ctx: AppContext) -> Self {
        Forecaster { ctx }
    }

    /// Answer a forecasting question against the live database.
    pub fn ask(&self, question: &str) -> Result<ForecastReply, AppError> {
        let question = question.trim();
        if question.is_empty() {
            return Err(AppError::BadInput("empty question".into()));
        }
        // The history is the monthly trend of the dominant fact table.
        let query = {
            let engine = self.ctx.engine.read();
            resolve_dimension(engine.database(), "monthly trend")
        }
        .ok_or_else(|| {
            AppError::BadInput("no table with a time-like column to forecast from".into())
        })?;
        let result = self.ctx.run_sql(&query.sql, &Span::noop())?;
        if result.rows.is_empty() {
            return Err(AppError::BadInput("no historical data to forecast from".into()));
        }
        let history: Vec<(String, f64)> = result
            .rows
            .iter()
            .map(|r| (r[0].to_string(), r[1].as_f64().unwrap_or(0.0)))
            .collect();
        let values: Vec<f64> = history.iter().map(|(_, v)| *v).collect();

        let method = parse_method(question);
        let horizon = parse_horizon(question);
        let predictions = method.forecast(&values, horizon);

        // Build the combined chart.
        let mut chart = ChartSpec::new(ChartType::Line, format!("Forecast: {}", query.title))
            .with_value_label("value");
        for (label, v) in &history {
            chart.points.push(DataPoint {
                label: label.clone(),
                value: *v,
            });
        }
        for (i, p) in predictions.iter().enumerate() {
            chart.points.push(DataPoint {
                label: format!("+{}", i + 1),
                value: *p,
            });
        }

        let direction = match (values.last(), predictions.last()) {
            (Some(last), Some(pred)) if pred > last => "rising",
            (Some(last), Some(pred)) if pred < last => "falling",
            _ => "flat",
        };
        let narrative = format!(
            "Using the {} method over {} observed periods, the next {} period(s) are \
             predicted at {:?} — a {direction} trajectory.",
            method.name(),
            history.len(),
            horizon,
            predictions.iter().map(|p| (p * 100.0).round() / 100.0).collect::<Vec<_>>(),
        );
        Ok(ForecastReply {
            method: method.name(),
            history,
            predictions,
            chart,
            narrative,
            sql: query.sql,
        })
    }
}

/// The forecast specialist as a multi-agent framework citizen — the
/// "powerful agent" of §4, registrable next to the chart agents.
pub struct ForecastAgent {
    app: Forecaster,
}

impl ForecastAgent {
    /// Agent over a context.
    pub fn new(ctx: AppContext) -> Self {
        ForecastAgent {
            app: Forecaster::new(ctx),
        }
    }
}

impl Agent for ForecastAgent {
    fn name(&self) -> &str {
        "forecaster"
    }

    fn role(&self) -> &str {
        "forecaster"
    }

    fn handle(&self, task: &TaskRequest, _ctx: &AgentContext) -> Result<AgentReply, AgentError> {
        let reply = self
            .app
            .ask(&task.step.description)
            .map_err(|e| AgentError::Llm(format!("forecast failed: {e}")))?;
        Ok(AgentReply::structured(
            json!({
                "chart_spec": reply.chart,
                "sql": reply.sql,
                "predictions": reply.predictions,
                "method": reply.method,
            }),
            reply.narrative,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_repeats_last() {
        assert_eq!(ForecastMethod::Naive.forecast(&[1.0, 2.0, 5.0], 3), vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn moving_average_smooths_recursively() {
        let p = ForecastMethod::MovingAverage(2).forecast(&[2.0, 4.0], 2);
        assert_eq!(p[0], 3.0); // mean(2,4)
        assert_eq!(p[1], 3.5); // mean(4,3)
    }

    #[test]
    fn linear_trend_extrapolates_exactly_on_a_line() {
        let history = [1.0, 3.0, 5.0, 7.0]; // y = 2x + 1
        let p = ForecastMethod::LinearTrend.forecast(&history, 2);
        assert!((p[0] - 9.0).abs() < 1e-9);
        assert!((p[1] - 11.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(ForecastMethod::LinearTrend.forecast(&[], 3).is_empty());
        assert!(ForecastMethod::Naive.forecast(&[1.0], 0).is_empty());
        assert_eq!(ForecastMethod::LinearTrend.forecast(&[4.0], 2), vec![4.0, 4.0]);
        // Constant series stays constant under linear trend.
        let p = ForecastMethod::LinearTrend.forecast(&[3.0, 3.0, 3.0], 2);
        assert!((p[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn horizon_parsing() {
        assert_eq!(parse_horizon("forecast sales for the next 3 months"), 3);
        assert_eq!(parse_horizon("what happens next month?"), 1);
        assert_eq!(parse_horizon("predict the sales"), 2);
        assert_eq!(parse_horizon("next 999 months"), 24); // clamped
    }

    #[test]
    fn method_parsing() {
        assert_eq!(parse_method("forecast with a moving average"), ForecastMethod::MovingAverage(3));
        assert_eq!(parse_method("naive forecast please"), ForecastMethod::Naive);
        assert_eq!(parse_method("predict the trend"), ForecastMethod::LinearTrend);
    }

    #[test]
    fn forecaster_runs_on_demo_data() {
        let app = Forecaster::new(AppContext::local_default().with_sales_demo_data());
        let r = app.ask("forecast sales for the next 2 months").unwrap();
        assert_eq!(r.history.len(), 3); // jan, feb, mar
        assert_eq!(r.predictions.len(), 2);
        assert_eq!(r.chart.points.len(), 5);
        assert_eq!(r.chart.chart_type, ChartType::Line);
        assert!(r.narrative.contains("linear-trend"));
        assert!(r.sql.contains("GROUP BY month"));
    }

    #[test]
    fn forecaster_rejects_unforecastable_db() {
        let ctx = AppContext::local_default();
        ctx.seed_sql(&["CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)"]).unwrap();
        let app = Forecaster::new(ctx);
        assert!(matches!(
            app.ask("forecast the future"),
            Err(AppError::BadInput(_))
        ));
    }

    #[test]
    fn forecast_agent_in_the_orchestrator() {
        use dbgpt_agents::{LlmClient, Orchestrator};
        use dbgpt_llm::catalog::builtin_model;
        use std::sync::Arc;

        let ctx = AppContext::local_default().with_sales_demo_data();
        let mut orch = Orchestrator::new(LlmClient::direct(builtin_model("sim-qwen").unwrap()));
        orch.register_agent(Arc::new(ForecastAgent::new(ctx)));
        assert!(orch.roles().contains(&"forecaster".to_string()));
        // Drive the agent directly through a synthetic plan step.
        let agent = ForecastAgent::new(AppContext::local_default().with_sales_demo_data());
        let task = TaskRequest {
            conversation: "c".into(),
            goal: "g".into(),
            step: dbgpt_llm::skills::planner::PlanStep {
                id: 1,
                description: "forecast sales for the next 2 months".into(),
                agent: "forecaster".into(),
                chart: None,
                dimension: None,
            },
            prior_results: vec![],
        };
        let ctx2 = AgentContext {
            llm: LlmClient::direct(builtin_model("sim-qwen").unwrap()),
            archive: Arc::new(dbgpt_agents::HistoryArchive::in_memory()),
            seed: 0,
        };
        let reply = agent.handle(&task, &ctx2).unwrap();
        assert_eq!(reply.content["predictions"].as_array().unwrap().len(), 2);
    }
}
