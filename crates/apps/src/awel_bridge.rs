//! AWEL ⇄ Multi-Agents bridge: "DB-GPT's AWEL models each agent as a
//! distinct operator, thus enabling users to intricately design their
//! agent-based workflows" (§2.4).
//!
//! [`agent_operator`] wraps any [`dbgpt_agents::Agent`] as an AWEL
//! [`Operator`]; [`analysis_workflow`] compiles a planner-produced
//! [`PlanStep`] list into the Fig. 3 DAG (goal → parallel chart agents →
//! aggregator) — so the generative-data-analysis flow can run on the
//! protocol layer's scheduler, including its **async** (level-parallel)
//! mode.
//!
//! Data on the wires is JSON: each agent operator receives the plan step
//! it owns (embedded at construction) plus its upstream results, and emits
//! `{"summary": …, "content": …}` like the orchestrator records.

use std::sync::Arc;

use serde_json::{json, Value};

use dbgpt_agents::{AgentContext, AgentReply, LlmClient, SharedAgent, TaskRequest};
use dbgpt_awel::{ops, AwelError, Dag, DagBuilder, OpOutput, Operator, SharedOperator};
use dbgpt_llm::skills::planner::PlanStep;
use dbgpt_obs::Span;

use crate::context::AppContext;

/// Wrap one agent (bound to one plan step) as an AWEL operator.
///
/// Inputs are the upstream operators' outputs (prior results); the output
/// is the agent's reply as `{"summary", "content"}`.
pub fn agent_operator(
    agent: SharedAgent,
    llm: LlmClient,
    goal: String,
    step: PlanStep,
    seed: u64,
) -> SharedOperator {
    struct AgentOp {
        agent: SharedAgent,
        llm: LlmClient,
        goal: String,
        step: PlanStep,
        seed: u64,
    }
    impl Operator for AgentOp {
        fn op_name(&self) -> &str {
            "agent"
        }
        fn run(&self, inputs: &[Value], _span: &Span) -> Result<OpOutput, AwelError> {
            let ctx = AgentContext {
                llm: self.llm.clone(),
                archive: Arc::new(dbgpt_agents::HistoryArchive::in_memory()),
                seed: self.seed,
            };
            let task = TaskRequest {
                conversation: "awel".into(),
                goal: self.goal.clone(),
                step: self.step.clone(),
                prior_results: inputs.to_vec(),
            };
            let reply: AgentReply =
                self.agent.handle(&task, &ctx).map_err(|e| AwelError::Execution {
                    node: self.agent.name().to_string(),
                    cause: e.to_string(),
                })?;
            Ok(OpOutput::Value(json!({
                "summary": reply.summary,
                "content": reply.content,
            })))
        }
    }
    Arc::new(AgentOp {
        agent,
        llm,
        goal,
        step,
        seed,
    })
}

/// Compile a plan into the Fig. 3 workflow DAG:
///
/// ```text
/// goal ──▶ step₁(chart) ─┐
///     ├──▶ step₂(chart) ─┼──▶ aggregate(join)
///     └──▶ step₃(chart) ─┘
/// ```
///
/// Chart steps (role `chart_generator`) run in parallel under the async
/// scheduler; any aggregator step in the plan becomes the fan-in node.
pub fn analysis_workflow(
    ctx: &AppContext,
    goal: &str,
    plan: &[PlanStep],
) -> Result<Dag, AwelError> {
    let chart_agent: SharedAgent = Arc::new(crate::analysis::ChartAgent::new(ctx.clone()));
    let mut builder = DagBuilder::new("generative_analysis")
        .node("goal", ops::constant(json!(goal)))
        .node("aggregate", ops::join());
    let mut chart_nodes = Vec::new();
    for step in plan {
        if step.agent == "aggregator" {
            continue;
        }
        let node = format!("step{}", step.id);
        builder = builder.node(
            node.clone(),
            agent_operator(
                chart_agent.clone(),
                ctx.llm.clone(),
                goal.to_string(),
                step.clone(),
                42,
            ),
        );
        chart_nodes.push(node);
    }
    for n in &chart_nodes {
        builder = builder.edge("goal", n.clone()).edge(n.clone(), "aggregate");
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgpt_awel::{ExecutionMode, Scheduler};
    use dbgpt_llm::catalog::builtin_model;
    use dbgpt_vis::ChartSpec;

    const DEMO_GOAL: &str =
        "Build sales reports and analyze user orders from at least three distinct dimensions";

    fn demo_plan(ctx: &AppContext) -> Vec<PlanStep> {
        use dbgpt_agents::{AgentContext, HistoryArchive, PlannerAgent};
        let planner = PlannerAgent::new();
        let agent_ctx = AgentContext {
            llm: ctx.llm.clone(),
            archive: Arc::new(HistoryArchive::in_memory()),
            seed: 42,
        };
        planner.plan(DEMO_GOAL, &agent_ctx).unwrap()
    }

    fn charts_from(run: &dbgpt_awel::RunResult) -> Vec<ChartSpec> {
        run.outputs["aggregate"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| serde_json::from_value(r["content"]["chart_spec"].clone()).unwrap())
            .collect()
    }

    #[test]
    fn demo_plan_compiles_to_the_fig3_dag() {
        let ctx = AppContext::local_default().with_sales_demo_data();
        let plan = demo_plan(&ctx);
        let dag = analysis_workflow(&ctx, DEMO_GOAL, &plan).unwrap();
        assert_eq!(dag.node_count(), 5); // goal + 3 charts + aggregate
        assert_eq!(dag.edge_count(), 6);
        // The three chart agents sit in one parallel level.
        assert_eq!(dag.levels()[1].len(), 3);
    }

    #[test]
    fn awel_batch_run_produces_the_three_charts() {
        let ctx = AppContext::local_default().with_sales_demo_data();
        let plan = demo_plan(&ctx);
        let dag = analysis_workflow(&ctx, DEMO_GOAL, &plan).unwrap();
        let run = Scheduler::new().run_batch(&dag, json!(DEMO_GOAL)).unwrap();
        let charts = charts_from(&run);
        assert_eq!(charts.len(), 3);
        let mut types: Vec<&str> = charts.iter().map(|c| c.chart_type.name()).collect();
        types.sort_unstable();
        assert_eq!(types, vec!["area", "bar", "donut"]);
    }

    #[test]
    fn async_mode_matches_batch_and_parallelises_agents() {
        let ctx = AppContext::local_default().with_sales_demo_data();
        let plan = demo_plan(&ctx);
        let dag = analysis_workflow(&ctx, DEMO_GOAL, &plan).unwrap();
        let s = Scheduler::new();
        let batch = s.run(&dag, json!(DEMO_GOAL), ExecutionMode::Batch).unwrap();
        let parallel = s.run(&dag, json!(DEMO_GOAL), ExecutionMode::Async).unwrap();
        assert_eq!(batch.outputs, parallel.outputs);
    }

    #[test]
    fn agent_failures_surface_as_named_node_errors() {
        let ctx = AppContext::local_default(); // empty DB → chart agents fail
        let plan = vec![PlanStep {
            id: 1,
            description: "chart something".into(),
            agent: "chart_generator".into(),
            chart: Some("donut".into()),
            dimension: Some("product category".into()),
        }];
        let dag = analysis_workflow(&ctx, "goal", &plan).unwrap();
        let e = Scheduler::new().run_batch(&dag, json!("goal")).unwrap_err();
        match e {
            AwelError::Execution { node, .. } => assert_eq!(node, "step1"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn any_custom_agent_becomes_an_operator() {
        use dbgpt_agents::{Agent, AgentError};
        struct Doubler;
        impl Agent for Doubler {
            fn name(&self) -> &str {
                "doubler"
            }
            fn role(&self) -> &str {
                "worker"
            }
            fn handle(&self, task: &TaskRequest, _c: &AgentContext) -> Result<AgentReply, AgentError> {
                let sum: i64 = task
                    .prior_results
                    .iter()
                    .filter_map(|v| v.as_i64())
                    .sum();
                Ok(AgentReply::structured(json!(sum * 2), "doubled"))
            }
        }
        let op = agent_operator(
            Arc::new(Doubler),
            LlmClient::direct(builtin_model("sim-qwen").unwrap()),
            "g".into(),
            PlanStep {
                id: 1,
                description: "double".into(),
                agent: "worker".into(),
                chart: None,
                dimension: None,
            },
            0,
        );
        let out = op.run(&[json!(3), json!(4)], &Span::noop()).unwrap();
        match out {
            OpOutput::Value(v) => assert_eq!(v["content"], json!(14)),
            other => panic!("{other:?}"),
        }
    }
}
