//! The operator abstraction and built-in operators.
//!
//! "each operator represents a discrete task or operation capable of
//! executing defined actions. … DB-GPT's AWEL models each agent as a
//! distinct operator" (§2.4). Operators receive the outputs of their
//! upstream nodes (in edge insertion order) and produce an [`OpOutput`]:
//! either a value broadcast to every successor, or a *routed* value that
//! only follows edges carrying a matching label — which is how branching
//! workflows steer data.

use std::sync::Arc;

use dbgpt_obs::Span;
use serde_json::Value;

use crate::error::AwelError;

/// What an operator emits.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutput {
    /// Send this value along every outgoing edge.
    Value(Value),
    /// Send this value only along edges labeled `branch`; other successors
    /// are skipped for this run.
    Route {
        /// The selected branch label.
        branch: String,
        /// The payload.
        value: Value,
    },
}

/// A discrete task in a workflow.
pub trait Operator: Send + Sync {
    /// Diagnostic name of the operator implementation.
    fn op_name(&self) -> &str;

    /// Execute with the upstream outputs (empty for root nodes, which
    /// receive the trigger input instead — the scheduler passes it as the
    /// single element of `inputs`) under the scheduler's per-node span.
    /// Operators that call into other instrumented subsystems (SMMF, the
    /// SQL engine, RAG) pass `span` on to join their spans to the workflow
    /// trace; plain operators ignore it.
    fn run(&self, inputs: &[Value], span: &Span) -> Result<OpOutput, AwelError>;
}

/// Shared operator handle.
pub type SharedOperator = Arc<dyn Operator>;

/// Built-in operator constructors.
pub mod ops {
    use super::*;

    /// An operator computed by a closure over its *first* input (the
    /// common single-upstream case).
    pub fn map<F>(f: F) -> SharedOperator
    where
        F: Fn(&Value) -> Value + Send + Sync + 'static,
    {
        struct MapOp<F>(F);
        impl<F> Operator for MapOp<F>
        where
            F: Fn(&Value) -> Value + Send + Sync,
        {
            fn op_name(&self) -> &str {
                "map"
            }
            fn run(&self, inputs: &[Value], _span: &Span) -> Result<OpOutput, AwelError> {
                let input = inputs.first().cloned().unwrap_or(Value::Null);
                Ok(OpOutput::Value((self.0)(&input)))
            }
        }
        Arc::new(MapOp(f))
    }

    /// A fallible map (errors become [`AwelError::Execution`]).
    pub fn try_map<F>(f: F) -> SharedOperator
    where
        F: Fn(&Value) -> Result<Value, String> + Send + Sync + 'static,
    {
        struct TryMapOp<F>(F);
        impl<F> Operator for TryMapOp<F>
        where
            F: Fn(&Value) -> Result<Value, String> + Send + Sync,
        {
            fn op_name(&self) -> &str {
                "try_map"
            }
            fn run(&self, inputs: &[Value], _span: &Span) -> Result<OpOutput, AwelError> {
                let input = inputs.first().cloned().unwrap_or(Value::Null);
                match (self.0)(&input) {
                    Ok(v) => Ok(OpOutput::Value(v)),
                    Err(cause) => Err(AwelError::Execution {
                        node: "try_map".into(),
                        cause,
                    }),
                }
            }
        }
        Arc::new(TryMapOp(f))
    }

    /// An operator over *all* inputs (fan-in aware).
    pub fn map_all<F>(f: F) -> SharedOperator
    where
        F: Fn(&[Value]) -> Value + Send + Sync + 'static,
    {
        struct MapAllOp<F>(F);
        impl<F> Operator for MapAllOp<F>
        where
            F: Fn(&[Value]) -> Value + Send + Sync,
        {
            fn op_name(&self) -> &str {
                "map_all"
            }
            fn run(&self, inputs: &[Value], _span: &Span) -> Result<OpOutput, AwelError> {
                Ok(OpOutput::Value((self.0)(inputs)))
            }
        }
        Arc::new(MapAllOp(f))
    }

    /// Emits a constant, ignoring inputs (workflow entry points).
    pub fn constant(v: Value) -> SharedOperator {
        struct ConstOp(Value);
        impl Operator for ConstOp {
            fn op_name(&self) -> &str {
                "constant"
            }
            fn run(&self, _inputs: &[Value], _span: &Span) -> Result<OpOutput, AwelError> {
                Ok(OpOutput::Value(self.0.clone()))
            }
        }
        Arc::new(ConstOp(v))
    }

    /// Passes its input through unchanged (useful as a named junction).
    pub fn identity() -> SharedOperator {
        map(|v| v.clone())
    }

    /// Collects every input into a JSON array — the fan-in "join" of
    /// Airflow-style DAGs (e.g. the aggregator collecting three charts).
    pub fn join() -> SharedOperator {
        map_all(|inputs| Value::Array(inputs.to_vec()))
    }

    /// Routes its input to the `"true"` or `"false"` labeled edge
    /// depending on a predicate — AWEL's branch operator.
    pub fn branch<F>(predicate: F) -> SharedOperator
    where
        F: Fn(&Value) -> bool + Send + Sync + 'static,
    {
        struct BranchOp<F>(F);
        impl<F> Operator for BranchOp<F>
        where
            F: Fn(&Value) -> bool + Send + Sync,
        {
            fn op_name(&self) -> &str {
                "branch"
            }
            fn run(&self, inputs: &[Value], _span: &Span) -> Result<OpOutput, AwelError> {
                let input = inputs.first().cloned().unwrap_or(Value::Null);
                let branch = if (self.0)(&input) { "true" } else { "false" };
                Ok(OpOutput::Route {
                    branch: branch.to_string(),
                    value: input,
                })
            }
        }
        Arc::new(BranchOp(predicate))
    }

    /// Routes its input to the edge label returned by the closure —
    /// the general n-way router.
    pub fn route<F>(selector: F) -> SharedOperator
    where
        F: Fn(&Value) -> String + Send + Sync + 'static,
    {
        struct RouteOp<F>(F);
        impl<F> Operator for RouteOp<F>
        where
            F: Fn(&Value) -> String + Send + Sync,
        {
            fn op_name(&self) -> &str {
                "route"
            }
            fn run(&self, inputs: &[Value], _span: &Span) -> Result<OpOutput, AwelError> {
                let input = inputs.first().cloned().unwrap_or(Value::Null);
                Ok(OpOutput::Route {
                    branch: (self.0)(&input),
                    value: input,
                })
            }
        }
        Arc::new(RouteOp(selector))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn map_transforms_first_input() {
        let op = ops::map(|v| json!(v.as_i64().unwrap_or(0) + 1));
        let out = op.run(&[json!(41)], &Span::noop()).unwrap();
        assert_eq!(out, OpOutput::Value(json!(42)));
        // Missing input → Null in.
        let out = op.run(&[], &Span::noop()).unwrap();
        assert_eq!(out, OpOutput::Value(json!(1)));
    }

    #[test]
    fn try_map_propagates_errors() {
        let op = ops::try_map(|v| {
            v.as_i64().map(|i| json!(i)).ok_or_else(|| "not a number".to_string())
        });
        assert!(op.run(&[json!(1)], &Span::noop()).is_ok());
        let err = op.run(&[json!("x")], &Span::noop()).unwrap_err();
        assert!(matches!(err, AwelError::Execution { .. }));
    }

    #[test]
    fn join_collects_all_inputs() {
        let op = ops::join();
        let out = op
            .run(&[json!(1), json!("two"), json!(null)], &Span::noop())
            .unwrap();
        assert_eq!(out, OpOutput::Value(json!([1, "two", null])));
    }

    #[test]
    fn constant_ignores_inputs() {
        let op = ops::constant(json!({"k": 1}));
        assert_eq!(
            op.run(&[json!(9)], &Span::noop()).unwrap(),
            OpOutput::Value(json!({"k": 1}))
        );
    }

    #[test]
    fn identity_passes_through() {
        let op = ops::identity();
        assert_eq!(
            op.run(&[json!([1, 2])], &Span::noop()).unwrap(),
            OpOutput::Value(json!([1, 2]))
        );
    }

    #[test]
    fn branch_routes_by_predicate() {
        let op = ops::branch(|v| v.as_i64().unwrap_or(0) > 10);
        assert_eq!(
            op.run(&[json!(20)], &Span::noop()).unwrap(),
            OpOutput::Route {
                branch: "true".into(),
                value: json!(20)
            }
        );
        assert_eq!(
            op.run(&[json!(5)], &Span::noop()).unwrap(),
            OpOutput::Route {
                branch: "false".into(),
                value: json!(5)
            }
        );
    }

    #[test]
    fn route_selects_arbitrary_labels() {
        let op = ops::route(|v| v["kind"].as_str().unwrap_or("other").to_string());
        assert_eq!(
            op.run(&[json!({"kind": "sql"})], &Span::noop()).unwrap(),
            OpOutput::Route {
                branch: "sql".into(),
                value: json!({"kind": "sql"})
            }
        );
    }

    #[test]
    fn operators_are_shareable_across_threads() {
        let op = ops::map(|v| v.clone());
        let op2 = op.clone();
        std::thread::spawn(move || {
            op2.run(&[json!(1)], &Span::noop()).unwrap();
        })
        .join()
        .unwrap();
        op.run(&[json!(2)], &Span::noop()).unwrap();
    }
}
