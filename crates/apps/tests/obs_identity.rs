//! Byte-identity properties of cross-crate span propagation.
//!
//! The companion of `crates/smmf/tests/obs_identity.rs`, one layer up:
//! the application, AWEL, agent and SQL-engine paths instrumented by the
//! end-to-end tracing work. Three guarantees:
//!
//! 1. **Off is free.** Every instrumented operation has one body that
//!    takes a parent span; the plain-named methods pass `Span::noop()`.
//!    With `Obs::disabled()` (what every legacy constructor passes) all
//!    spans are no-ops, the same code runs, and nothing is recorded.
//! 2. **On never perturbs.** Enabling observability changes no app
//!    semantics — replies, errors and row data are identical to a
//!    disabled run.
//! 3. **On is deterministic.** Two enabled runs under the same seeds dump
//!    byte-identical trace JSON, metric snapshots, folded flamegraphs and
//!    critical paths — and one chat2data pipeline request yields exactly
//!    one trace tree spanning the apps, AWEL, RAG, Text-to-SQL,
//!    SQL-engine and model layers.

use dbgpt_agents::{LlmClient, Orchestrator};
use dbgpt_apps::handlers::build_server;
use dbgpt_apps::{AppContext, Chat2Data, Chat2DataPipeline, KnowledgeQa};
use dbgpt_awel::{ops, DagBuilder, ExecutionMode, Scheduler};
use dbgpt_llm::catalog::builtin_model;
use dbgpt_obs::{Obs, ObsConfig, Profile};
use dbgpt_server::Request;
use dbgpt_sqlengine::Engine;
use serde_json::json;

fn demo_ctx(obs: Obs) -> AppContext {
    let ctx = AppContext::local_default()
        .with_sales_demo_data()
        .with_obs(obs);
    ctx.kb.write().add_text(
        "orders-doc",
        "Orders record purchases. Each order has an amount and a category.",
    );
    ctx
}

/// Drive every instrumented app path once (including error paths) and
/// return the Debug-formatted outcomes — the byte-comparable semantics.
fn run_apps_workload(obs: Obs) -> String {
    let ctx = demo_ctx(obs);
    let c2d = Chat2Data::new(ctx.clone());
    let qa = KnowledgeQa::new(ctx.clone());
    let pipe = Chat2DataPipeline::new(ctx);
    let mut out = String::new();
    for q in [
        "how many orders are there?",
        "what is the total amount per category of orders?",
        "list all orders",
        "how many unicorns are there?", // Text-to-SQL error path
    ] {
        out.push_str(&format!("{:?}\n", c2d.ask(q)));
    }
    out.push_str(&format!("{:?}\n", qa.ask("what do orders record?")));
    out.push_str(&format!("{:?}\n", pipe.run("how many users are there?")));
    out.push_str(&format!("{:?}\n", pipe.run("   "))); // intent error path
    out
}

#[test]
fn enabling_observability_never_perturbs_app_semantics() {
    let off = Obs::disabled();
    let on = Obs::new(ObsConfig::enabled(7));
    assert_eq!(run_apps_workload(off.clone()), run_apps_workload(on.clone()));
    assert_eq!(off.span_count(), 0, "disabled handle records nothing");
    assert!(on.span_count() > 0, "enabled handle records the same runs");
    assert!(on.counter_value("app.chat2data.requests") >= 4);
    assert!(on.counter_value("app.chat2data.errors") >= 1);
    assert!(on.counter_value("app.kbqa.requests") >= 1);
    assert!(on.counter_value("app.pipeline.requests") >= 2);
}

#[test]
fn scheduler_traced_and_legacy_runs_agree_in_both_modes() {
    let build = || {
        DagBuilder::new("wf")
            .node("a", ops::map(|v| json!(v.as_i64().unwrap_or(0) + 1)))
            .node("b", ops::map(|v| json!(v.as_i64().unwrap_or(0) * 2)))
            .edge("a", "b")
            .build()
            .unwrap()
    };
    for mode in [ExecutionMode::Batch, ExecutionMode::Async] {
        let legacy = Scheduler::new().run(&build(), json!(20), mode).unwrap();
        let obs = Obs::new(ObsConfig::enabled(3));
        let traced = Scheduler::with_obs(obs.clone())
            .run(&build(), json!(20), mode)
            .unwrap();
        assert_eq!(legacy.sole_output(), traced.sole_output());
        assert_eq!(legacy.skipped, traced.skipped);
        // One awel.dag root + one awel.op per node.
        assert_eq!(obs.span_count(), 3);
        assert_eq!(obs.counter_value("awel.runs"), 1);
        assert_eq!(obs.counter_value("awel.ops_run"), 2);
    }
}

#[test]
fn orchestrator_traced_and_legacy_runs_agree() {
    let goal = "Build sales reports and analyze user orders from at least three distinct dimensions";
    let run = |obs: Option<Obs>| {
        let llm = LlmClient::direct(builtin_model("sim-qwen").unwrap());
        let mut o = Orchestrator::new(llm);
        if let Some(obs) = obs {
            o = o.with_obs(obs);
        }
        format!("{:?}", o.execute_goal(goal).unwrap())
    };
    let obs = Obs::new(ObsConfig::enabled(5));
    assert_eq!(run(None), run(Some(obs.clone())));
    assert_eq!(obs.counter_value("agents.goals"), 1);
    assert!(obs.counter_value("agents.messages") > 0);
    assert!(obs.span_count() >= 3, "goal + plan + steps + aggregate");
}

#[test]
fn execute_under_a_recording_span_is_execute() {
    let mk = || {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        e.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
        e
    };
    let (mut plain, mut traced) = (mk(), mk());
    let obs = Obs::new(ObsConfig::enabled(13));
    let root = obs.span("request", obs.tick());
    let sqls = [
        "SELECT COUNT(*) FROM t",
        "SELECT a, b FROM t WHERE a > 1",
        "INSERT INTO t VALUES (3, 'z')",
        "SELECT nope FROM missing", // error path
    ];
    for sql in sqls {
        assert_eq!(
            format!("{:?}", plain.execute(sql)),
            format!("{:?}", traced.execute_under(sql, &root)),
            "{sql}"
        );
    }
    root.end(root.tick());
    assert_eq!(obs.counter_value("sql.statements"), sqls.len() as u64);
    let statements = obs
        .finished_spans()
        .iter()
        .filter(|s| s.name == "sql.execute" && s.parent == root.id())
        .count();
    assert_eq!(statements, sqls.len(), "one sql.execute span per statement");
}

#[test]
fn enabled_runs_dump_identical_bytes_across_the_stack() {
    let run = || {
        let obs = Obs::new(ObsConfig::enabled(11));
        let ctx = demo_ctx(obs.clone());
        let server = build_server(&ctx);
        for (i, q) in [
            "how many orders are there?",
            "what is the total amount per category of orders?",
        ]
        .iter()
        .enumerate()
        {
            server.handle(&Request::new(i as u64, "chat2data", *q));
        }
        server.handle(&Request::new(9, "kbqa", "what do orders record?"));
        Chat2DataPipeline::new(ctx)
            .run("how many users are there?")
            .unwrap();
        let spans = obs.finished_spans();
        let profile = Profile::from_spans(&spans);
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap().id;
        (
            obs.trace_json(),
            obs.metrics_json(),
            profile.folded(),
            profile.critical_path(root).unwrap().render(),
        )
    };
    assert_eq!(run(), run(), "trace/metrics/flamegraph/critical-path bytes");
}

#[test]
fn one_pipeline_request_yields_one_trace_spanning_the_stack() {
    let obs = Obs::new(ObsConfig::enabled(21));
    let ctx = demo_ctx(obs.clone());
    let pipe = Chat2DataPipeline::new(ctx);
    pipe.run("how many orders are there?").unwrap();
    let spans = obs.finished_spans();
    let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "one request, one trace tree");
    let trace = roots[0].trace;
    assert!(
        spans.iter().all(|s| s.trace == trace),
        "every span joins the request trace"
    );
    // ≥4 crates in one tree: apps, AWEL, RAG, Text-to-SQL, SQL engine,
    // and the model client.
    for prefix in [
        "app.chat2data.pipeline",
        "awel.dag",
        "awel.op",
        "rag.retrieve",
        "t2s.generate",
        "sql.execute",
        "llm.generate",
    ] {
        assert!(
            spans.iter().any(|s| s.name.starts_with(prefix)),
            "missing {prefix} span in\n{}",
            obs.render_traces()
        );
    }
    let profile = Profile::from_spans(&spans);
    let cp = profile.critical_path(trace).unwrap();
    assert!(cp.hops.len() >= 3, "critical path descends into the stack");
}

#[test]
fn server_requests_parent_app_spans_and_count_commands() {
    let obs = Obs::new(ObsConfig::enabled(31));
    let ctx = demo_ctx(obs.clone());
    let server = build_server(&ctx);
    server.handle(&Request::new(1, "chat2data", "how many orders are there?"));
    server.handle(&Request::new(2, "ghost", "x"));
    let spans = obs.finished_spans();
    let req = spans
        .iter()
        .find(|s| s.name == "server.request" && s.attr("app") == Some("chat2data"))
        .expect("server.request span");
    assert!(
        spans
            .iter()
            .any(|s| s.name == "app.chat2data" && s.parent == Some(req.id)),
        "app span nests under the request span"
    );
    assert_eq!(obs.counter_value("server.requests"), 2);
    assert_eq!(obs.counter_value("server.cmd.chat2data"), 1);
    assert_eq!(obs.counter_value("server.cmd.ghost"), 1);
    assert_eq!(obs.counter_value("server.status.ok"), 1);
    assert_eq!(obs.counter_value("server.status.bad_request"), 1);
}
