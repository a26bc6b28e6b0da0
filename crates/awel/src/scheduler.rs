//! DAG execution: batch, stream, and async modes.
//!
//! "Employing AWEL within DB-GPT empowers it to support a variety of tasks
//! including stream processing, batch processing, and asynchronous
//! operations" (§2.4).
//!
//! - **Batch** — one topological pass; every reachable node runs once.
//! - **Stream** — a sequence of events is pushed through the DAG one at a
//!   time; the result is the per-event leaf outputs, in order.
//! - **Async** — topological *levels* run on parallel threads
//!   (`std::thread::scope`); semantically identical to batch, measured by
//!   benchmark E3.
//!
//! Routed outputs ([`OpOutput::Route`]) deliver only along matching labeled
//! edges; nodes that end up with no delivered inputs (and are not roots)
//! are *skipped*, and the skip propagates.

use std::collections::HashMap;

use dbgpt_obs::{Obs, Span};
use serde_json::Value;

use crate::dag::{Dag, NodeId};
use crate::error::AwelError;
use crate::operator::OpOutput;

/// Which execution mode to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Single-threaded topological pass.
    Batch,
    /// Level-parallel threads.
    Async,
}

/// The result of one DAG run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Output of every node that ran, by name.
    pub outputs: HashMap<String, Value>,
    /// Names of nodes skipped by branch routing.
    pub skipped: Vec<String>,
    /// Leaf node names in topological order (for stable iteration).
    leaf_names: Vec<String>,
}

impl RunResult {
    /// Outputs of the DAG's leaf nodes only.
    pub fn leaf_outputs(&self) -> HashMap<String, Value> {
        self.leaf_names
            .iter()
            .filter_map(|n| self.outputs.get(n).map(|v| (n.clone(), v.clone())))
            .collect()
    }

    /// The single leaf output, if the DAG has exactly one leaf that ran.
    pub fn sole_output(&self) -> Option<&Value> {
        let ran: Vec<&String> = self
            .leaf_names
            .iter()
            .filter(|n| self.outputs.contains_key(*n))
            .collect();
        match ran.as_slice() {
            [one] => self.outputs.get(*one),
            _ => None,
        }
    }
}

/// The DAG scheduler.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    obs: Obs,
}

impl Scheduler {
    /// Create a scheduler (observability disabled).
    pub fn new() -> Self {
        Scheduler {
            obs: Obs::disabled(),
        }
    }

    /// Create a scheduler that records an `awel.dag` span per run and an
    /// `awel.op` child span per executed node on `obs`.
    pub fn with_obs(obs: Obs) -> Self {
        Scheduler { obs }
    }

    /// The scheduler's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Run once in batch mode with `trigger` as the root input.
    pub fn run_batch(&self, dag: &Dag, trigger: Value) -> Result<RunResult, AwelError> {
        self.run(dag, trigger, ExecutionMode::Batch)
    }

    /// Run once in the given mode.
    pub fn run(&self, dag: &Dag, trigger: Value, mode: ExecutionMode) -> Result<RunResult, AwelError> {
        self.run_under(dag, trigger, mode, &Span::noop())
    }

    /// Run once under a caller span: records an `awel.dag` span (see
    /// [`dbgpt_obs::Obs::enter`]) with an `awel.op` child per executed
    /// node. Spans use logical ticks from the owning tracer; in
    /// [`ExecutionMode::Async`] the coordinator thread assigns per-op
    /// start/end ticks in node order, so the dump stays deterministic
    /// (operators that trace *internally* should run in batch mode for
    /// cross-run byte identity).
    pub fn run_under(
        &self,
        dag: &Dag,
        trigger: Value,
        mode: ExecutionMode,
        parent: &Span,
    ) -> Result<RunResult, AwelError> {
        let span = self.obs.enter(parent, "awel.dag");
        let obs = span.handle();
        span.attr("dag", dag.name());
        span.attr(
            "mode",
            match mode {
                ExecutionMode::Batch => "batch",
                ExecutionMode::Async => "async",
            },
        );
        span.attr("nodes", dag.node_count());
        obs.counter("awel.runs", 1);
        let res = match mode {
            ExecutionMode::Batch => self.run_sequential(dag, trigger, &span),
            ExecutionMode::Async => self.run_parallel(dag, trigger, &span),
        };
        match &res {
            Ok(r) => {
                span.attr("outcome", "ok");
                span.attr("ops_run", r.outputs.len());
                obs.counter("awel.ops_run", r.outputs.len() as u64);
                obs.counter("awel.ops_skipped", r.skipped.len() as u64);
            }
            Err(_) => {
                span.attr("outcome", "error");
                obs.counter("awel.errors", 1);
            }
        }
        span.end(span.tick());
        res
    }

    /// Stream mode: push each event through the DAG; collect each event's
    /// leaf outputs.
    pub fn run_stream(
        &self,
        dag: &Dag,
        events: impl IntoIterator<Item = Value>,
    ) -> Result<Vec<RunResult>, AwelError> {
        events
            .into_iter()
            .map(|e| self.run(dag, e, ExecutionMode::Batch))
            .collect()
    }

    fn run_sequential(&self, dag: &Dag, trigger: Value, span: &Span) -> Result<RunResult, AwelError> {
        // delivered[node] = values delivered along its in-edges (in edge order).
        let n = dag.node_count();
        let mut delivered: Vec<Vec<Value>> = vec![Vec::new(); n];
        let mut ran = vec![false; n];
        let mut outputs: Vec<Option<OpOutput>> = vec![None; n];
        let roots = dag.roots();

        for &node in dag.topo_order() {
            let is_root = roots.contains(&node);
            let inputs: Vec<Value> = if is_root {
                vec![trigger.clone()]
            } else {
                std::mem::take(&mut delivered[node])
            };
            // Skip non-roots that received nothing (all upstreams skipped
            // or routed elsewhere).
            if !is_root && inputs.is_empty() {
                continue;
            }
            let op_span = span.child("awel.op", span.tick());
            op_span.attr("node", dag.node_name(node));
            op_span.attr("id", node);
            op_span.attr("op", dag.operator(node).op_name());
            let out = match dag.operator(node).run(&inputs, &op_span) {
                Ok(out) => {
                    op_span.end(span.tick());
                    out
                }
                Err(e) => {
                    op_span.attr("outcome", "error");
                    op_span.end(span.tick());
                    return Err(match e {
                        AwelError::Execution { cause, .. } => AwelError::Execution {
                            node: dag.node_name(node).to_string(),
                            cause,
                        },
                        other => other,
                    });
                }
            };
            ran[node] = true;
            // Deliver downstream.
            for edge in dag.out_edges(node) {
                match &out {
                    OpOutput::Value(v) => delivered[edge.to].push(v.clone()),
                    OpOutput::Route { branch, value } => {
                        let matches = match &edge.label {
                            Some(l) => l == branch,
                            None => true,
                        };
                        if matches {
                            delivered[edge.to].push(value.clone());
                        }
                    }
                }
            }
            outputs[node] = Some(out);
        }
        Ok(self.collect(dag, ran, outputs))
    }

    fn run_parallel(&self, dag: &Dag, trigger: Value, span: &Span) -> Result<RunResult, AwelError> {
        let n = dag.node_count();
        let mut delivered: Vec<Vec<Value>> = vec![Vec::new(); n];
        let mut ran = vec![false; n];
        let mut outputs: Vec<Option<OpOutput>> = vec![None; n];
        let roots = dag.roots();

        for level in dag.levels() {
            // Run this level's ready nodes concurrently.
            let mut results: Vec<(NodeId, Option<Result<OpOutput, AwelError>>)> =
                Vec::with_capacity(level.len());
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(level.len());
                for &node in &level {
                    let is_root = roots.contains(&node);
                    let inputs: Vec<Value> = if is_root {
                        vec![trigger.clone()]
                    } else {
                        std::mem::take(&mut delivered[node])
                    };
                    if !is_root && inputs.is_empty() {
                        handles.push((node, None));
                        continue;
                    }
                    let op = dag.operator(node).clone();
                    // Span ticks are assigned here, on the coordinator
                    // thread, in node order — the parallel joins stay
                    // deterministic in the dump.
                    let op_span = span.child("awel.op", span.tick());
                    op_span.attr("node", dag.node_name(node));
                    op_span.attr("id", node);
                    op_span.attr("op", op.op_name());
                    let thread_span = op_span.clone();
                    let h = scope.spawn(move || op.run(&inputs, &thread_span));
                    handles.push((node, Some((h, op_span))));
                }
                for (node, h) in handles {
                    // A panicking operator must surface as an Execution
                    // error, not unwind the scheduler: joining every handle
                    // first also lets sibling operators run to completion.
                    let joined = h.map(|(h, op_span)| {
                        let r = h.join().unwrap_or_else(|payload| {
                            Err(AwelError::Execution {
                                node: dag.node_name(node).to_string(),
                                cause: panic_cause(payload),
                            })
                        });
                        if r.is_err() {
                            op_span.attr("outcome", "error");
                        }
                        op_span.end(span.tick());
                        r
                    });
                    results.push((node, joined));
                }
            });
            for (node, result) in results {
                let Some(result) = result else { continue };
                let out = result.map_err(|e| match e {
                    AwelError::Execution { cause, .. } => AwelError::Execution {
                        node: dag.node_name(node).to_string(),
                        cause,
                    },
                    other => other,
                })?;
                ran[node] = true;
                for edge in dag.out_edges(node) {
                    match &out {
                        OpOutput::Value(v) => delivered[edge.to].push(v.clone()),
                        OpOutput::Route { branch, value } => {
                            let matches = match &edge.label {
                                Some(l) => l == branch,
                                None => true,
                            };
                            if matches {
                                delivered[edge.to].push(value.clone());
                            }
                        }
                    }
                }
                outputs[node] = Some(out);
            }
        }
        Ok(self.collect(dag, ran, outputs))
    }

    fn collect(&self, dag: &Dag, ran: Vec<bool>, outputs: Vec<Option<OpOutput>>) -> RunResult {
        let mut out_map = HashMap::new();
        let mut skipped = Vec::new();
        for node in 0..dag.node_count() {
            if ran[node] {
                let v = match outputs[node].clone().expect("ran nodes have outputs") {
                    OpOutput::Value(v) => v,
                    OpOutput::Route { value, .. } => value,
                };
                out_map.insert(dag.node_name(node).to_string(), v);
            } else {
                skipped.push(dag.node_name(node).to_string());
            }
        }
        let leaf_names = dag
            .leaves()
            .into_iter()
            .map(|n| dag.node_name(n).to_string())
            .collect();
        RunResult {
            outputs: out_map,
            skipped,
            leaf_names,
        }
    }
}

/// Best-effort message from a thread panic payload.
fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("operator panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("operator panicked: {s}")
    } else {
        "operator panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;
    use crate::operator::ops;
    use serde_json::json;

    fn pipeline() -> Dag {
        DagBuilder::new("p")
            .node("inc", ops::map(|v| json!(v.as_i64().unwrap() + 1)))
            .node("double", ops::map(|v| json!(v.as_i64().unwrap() * 2)))
            .edge("inc", "double")
            .build()
            .unwrap()
    }

    #[test]
    fn async_panicking_operator_is_an_error_not_a_crash() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let sibling_ran = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&sibling_ran);
        let dag = DagBuilder::new("boom")
            .node("src", ops::identity())
            .node("explode", ops::map(|_| panic!("kaboom")))
            .node("steady", ops::map(move |v| {
                counter.fetch_add(1, Ordering::SeqCst);
                v.clone()
            }))
            .edge("src", "explode")
            .edge("src", "steady")
            .build()
            .unwrap();
        let err = Scheduler::new()
            .run(&dag, json!(1), ExecutionMode::Async)
            .unwrap_err();
        match err {
            AwelError::Execution { node, cause } => {
                assert_eq!(node, "explode");
                assert!(cause.contains("kaboom"), "payload surfaced: {cause}");
            }
            other => panic!("expected Execution error, got {other:?}"),
        }
        // The sibling on the same level still ran to completion.
        assert_eq!(sibling_ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn batch_runs_chain() {
        let r = Scheduler::new().run_batch(&pipeline(), json!(5)).unwrap();
        assert_eq!(r.outputs["inc"], json!(6));
        assert_eq!(r.outputs["double"], json!(12));
        assert_eq!(r.sole_output(), Some(&json!(12)));
        assert!(r.skipped.is_empty());
    }

    #[test]
    fn fan_out_fan_in() {
        let dag = DagBuilder::new("fan")
            .node("src", ops::identity())
            .node("a", ops::map(|v| json!(v.as_i64().unwrap() + 1)))
            .node("b", ops::map(|v| json!(v.as_i64().unwrap() + 2)))
            .node("sum", ops::map_all(|vs| {
                json!(vs.iter().map(|v| v.as_i64().unwrap()).sum::<i64>())
            }))
            .edge("src", "a")
            .edge("src", "b")
            .edge("a", "sum")
            .edge("b", "sum")
            .build()
            .unwrap();
        let r = Scheduler::new().run_batch(&dag, json!(10)).unwrap();
        assert_eq!(r.outputs["sum"], json!(23)); // 11 + 12
    }

    #[test]
    fn branch_skips_unselected_path() {
        let dag = DagBuilder::new("br")
            .node("decide", ops::branch(|v| v.as_i64().unwrap() > 10))
            .node("big", ops::map(|v| json!(format!("big:{v}"))))
            .node("small", ops::map(|v| json!(format!("small:{v}"))))
            .edge_labeled("decide", "big", "true")
            .edge_labeled("decide", "small", "false")
            .build()
            .unwrap();
        let s = Scheduler::new();
        let r = s.run_batch(&dag, json!(42)).unwrap();
        assert_eq!(r.outputs["big"], json!("big:42"));
        assert_eq!(r.skipped, vec!["small".to_string()]);
        let r = s.run_batch(&dag, json!(1)).unwrap();
        assert_eq!(r.outputs["small"], json!("small:1"));
        assert_eq!(r.skipped, vec!["big".to_string()]);
    }

    #[test]
    fn skip_propagates_downstream() {
        let dag = DagBuilder::new("skipchain")
            .node("decide", ops::branch(|_| true))
            .node("no", ops::identity())
            .node("after_no", ops::identity())
            .node("yes", ops::identity())
            .edge_labeled("decide", "no", "false")
            .edge_labeled("decide", "yes", "true")
            .edge("no", "after_no")
            .build()
            .unwrap();
        let r = Scheduler::new().run_batch(&dag, json!(1)).unwrap();
        assert!(r.skipped.contains(&"no".to_string()));
        assert!(r.skipped.contains(&"after_no".to_string()));
        assert!(r.outputs.contains_key("yes"));
    }

    #[test]
    fn unlabeled_edge_from_router_always_delivers() {
        let dag = DagBuilder::new("audit")
            .node("decide", ops::branch(|_| true))
            .node("audit", ops::identity())
            .edge("decide", "audit") // unlabeled: receives either branch
            .build()
            .unwrap();
        let r = Scheduler::new().run_batch(&dag, json!(9)).unwrap();
        assert_eq!(r.outputs["audit"], json!(9));
    }

    #[test]
    fn multiple_roots_all_get_trigger() {
        let dag = DagBuilder::new("mr")
            .node("r1", ops::map(|v| json!(v.as_i64().unwrap() + 1)))
            .node("r2", ops::map(|v| json!(v.as_i64().unwrap() + 2)))
            .node("j", ops::join())
            .edge("r1", "j")
            .edge("r2", "j")
            .build()
            .unwrap();
        let r = Scheduler::new().run_batch(&dag, json!(0)).unwrap();
        assert_eq!(r.outputs["j"], json!([1, 2]));
        // Two leaves? No — only j. sole_output works.
        assert_eq!(r.sole_output(), Some(&json!([1, 2])));
    }

    #[test]
    fn async_mode_matches_batch() {
        let dag = DagBuilder::new("fan")
            .node("src", ops::identity())
            .node("a", ops::map(|v| json!(v.as_i64().unwrap() + 1)))
            .node("b", ops::map(|v| json!(v.as_i64().unwrap() * 3)))
            .node("join", ops::join())
            .edge("src", "a")
            .edge("src", "b")
            .edge("a", "join")
            .edge("b", "join")
            .build()
            .unwrap();
        let s = Scheduler::new();
        let batch = s.run(&dag, json!(7), ExecutionMode::Batch).unwrap();
        let parallel = s.run(&dag, json!(7), ExecutionMode::Async).unwrap();
        assert_eq!(batch.outputs, parallel.outputs);
        assert_eq!(batch.skipped, parallel.skipped);
    }

    #[test]
    fn async_branch_semantics_match_batch() {
        let dag = DagBuilder::new("br")
            .node("decide", ops::branch(|v| v.as_i64().unwrap() % 2 == 0))
            .node("even", ops::identity())
            .node("odd", ops::identity())
            .edge_labeled("decide", "even", "true")
            .edge_labeled("decide", "odd", "false")
            .build()
            .unwrap();
        let s = Scheduler::new();
        for i in 0..4 {
            let a = s.run(&dag, json!(i), ExecutionMode::Batch).unwrap();
            let b = s.run(&dag, json!(i), ExecutionMode::Async).unwrap();
            assert_eq!(a.outputs, b.outputs);
        }
    }

    #[test]
    fn stream_mode_processes_events_in_order() {
        let r = Scheduler::new()
            .run_stream(&pipeline(), (1..=3).map(|i| json!(i)))
            .unwrap();
        let outs: Vec<i64> = r
            .iter()
            .map(|rr| rr.sole_output().unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(outs, vec![4, 6, 8]); // (n+1)*2
    }

    #[test]
    fn execution_error_names_the_node() {
        let dag = DagBuilder::new("boom")
            .node("ok", ops::identity())
            .node("bad", ops::try_map(|_| Err("kaboom".into())))
            .edge("ok", "bad")
            .build()
            .unwrap();
        let e = Scheduler::new().run_batch(&dag, json!(1)).unwrap_err();
        match e {
            AwelError::Execution { node, cause } => {
                assert_eq!(node, "bad");
                assert_eq!(cause, "kaboom");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sole_output_none_with_two_ran_leaves() {
        let dag = DagBuilder::new("two")
            .node("src", ops::identity())
            .node("l1", ops::identity())
            .node("l2", ops::identity())
            .edge("src", "l1")
            .edge("src", "l2")
            .build()
            .unwrap();
        let r = Scheduler::new().run_batch(&dag, json!(1)).unwrap();
        assert!(r.sole_output().is_none());
        assert_eq!(r.leaf_outputs().len(), 2);
    }
}
