//! Chat2Data as an AWEL workflow: the end-to-end traced pipeline.
//!
//! Where [`crate::chat2data`] calls the stages directly, this module
//! expresses the same request as a five-node DAG — intent → retrieve →
//! gen_sql → execute → narrate — scheduled by [`dbgpt_awel::Scheduler`].
//! Each node is a custom [`Operator`] whose `run` passes the scheduler's
//! per-node span to the `*_under` entry point of its subsystem, so one
//! enabled run produces a single trace tree spanning the apps, AWEL, RAG,
//! Text-to-SQL, SQL-engine and model-serving crates:
//!
//! ```text
//! app.chat2data.pipeline
//! └─ awel.dag
//!    ├─ awel.op (intent)
//!    ├─ awel.op (retrieve)   └─ rag.retrieve …
//!    ├─ awel.op (gen_sql)    └─ t2s.generate …
//!    ├─ awel.op (execute)    └─ sql.execute …
//!    └─ awel.op (narrate)    └─ llm.generate / smmf.chat …
//! ```
//!
//! With observability disabled every span is a no-op and the same code
//! runs.

use std::sync::Arc;

use parking_lot::RwLock;
use serde_json::{json, Value};

use dbgpt_awel::{
    AwelError, Dag, DagBuilder, ExecutionMode, OpOutput, Operator, Scheduler,
};
use dbgpt_agents::LlmClient;
use dbgpt_llm::GenerationParams;
use dbgpt_obs::Span;
use dbgpt_rag::{KnowledgeBase, RetrievalStrategy};
use dbgpt_sqlengine::Engine;
use dbgpt_text2sql::Text2SqlModel;

use crate::chat2data::summarize_result;
use crate::context::AppContext;
use crate::error::AppError;
use crate::intent::detect_intent;

/// One pipeline answer: the Chat2Data reply plus the model's narrative.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReply {
    /// Sentence-form answer (same renderer as [`crate::chat2data`]).
    pub answer: String,
    /// Model-written narrative over the answer.
    pub narrative: String,
    /// The SQL that produced the data.
    pub sql: String,
    /// Raw result rows as JSON (label→value maps).
    pub data: Value,
    /// Knowledge chunks retrieved as background context.
    pub context_chunks: usize,
}

fn exec_err(node: &str, cause: impl std::fmt::Display) -> AwelError {
    AwelError::Execution {
        node: node.to_string(),
        cause: cause.to_string(),
    }
}

fn field<'v>(input: &'v Value, key: &str, node: &str) -> Result<&'v str, AwelError> {
    input[key]
        .as_str()
        .ok_or_else(|| exec_err(node, format!("missing upstream field `{key}`")))
}

/// Root node: validates the question and tags its detected intent.
struct IntentOp;

impl Operator for IntentOp {
    fn op_name(&self) -> &str {
        "intent"
    }
    fn run(&self, inputs: &[Value], span: &Span) -> Result<OpOutput, AwelError> {
        let question = inputs
            .first()
            .and_then(Value::as_str)
            .unwrap_or("")
            .trim()
            .to_string();
        if question.is_empty() {
            return Err(exec_err("intent", "empty question"));
        }
        let (intent, canonical) = detect_intent(&question);
        let intent = format!("{intent:?}").to_lowercase();
        span.attr("intent", &intent);
        Ok(OpOutput::Value(json!({
            "question": canonical,
            "intent": intent,
        })))
    }
}

/// Retrieves top-k knowledge chunks as background context for narration.
struct RetrieveOp {
    kb: Arc<RwLock<KnowledgeBase>>,
    k: usize,
}

impl Operator for RetrieveOp {
    fn op_name(&self) -> &str {
        "retrieve"
    }
    fn run(&self, inputs: &[Value], span: &Span) -> Result<OpOutput, AwelError> {
        let input = inputs.first().cloned().unwrap_or(Value::Null);
        let question = field(&input, "question", "retrieve")?;
        let hits =
            self.kb
                .read()
                .retrieve_under(question, self.k, RetrievalStrategy::Hybrid, span);
        let context: Vec<Value> = hits.iter().map(|h| json!(h.chunk.text)).collect();
        let mut out = input.clone();
        out["context"] = Value::Array(context);
        Ok(OpOutput::Value(out))
    }
}

/// Text-to-SQL over the live schema.
struct GenSqlOp {
    t2s: Text2SqlModel,
    engine: Arc<RwLock<Engine>>,
}

impl Operator for GenSqlOp {
    fn op_name(&self) -> &str {
        "gen_sql"
    }
    fn run(&self, inputs: &[Value], span: &Span) -> Result<OpOutput, AwelError> {
        let input = inputs.first().cloned().unwrap_or(Value::Null);
        let question = field(&input, "question", "gen_sql")?;
        let ddl = self.engine.read().database().schema_ddl();
        if ddl.is_empty() {
            return Err(exec_err("gen_sql", "database has no tables"));
        }
        let sql = self
            .t2s
            .generate_sql_under(&ddl, question, span)
            .map_err(|e| exec_err("gen_sql", e))?;
        let mut out = input.clone();
        out["sql"] = json!(sql);
        Ok(OpOutput::Value(out))
    }
}

/// Runs the SQL and renders the Chat2Data-style answer.
struct ExecOp {
    ctx: AppContext,
}

impl Operator for ExecOp {
    fn op_name(&self) -> &str {
        "execute"
    }
    fn run(&self, inputs: &[Value], span: &Span) -> Result<OpOutput, AwelError> {
        let input = inputs.first().cloned().unwrap_or(Value::Null);
        let sql = field(&input, "sql", "execute")?.to_string();
        let result = self
            .ctx
            .run_sql(&sql, span)
            .map_err(|e| exec_err("execute", e))?;
        let (answer, data) = summarize_result(&result);
        let mut out = input.clone();
        out["answer"] = json!(answer);
        out["data"] = data;
        Ok(OpOutput::Value(out))
    }
}

/// Asks the model to narrate the answer (with retrieved context inlined).
struct NarrateOp {
    llm: LlmClient,
}

impl Operator for NarrateOp {
    fn op_name(&self) -> &str {
        "narrate"
    }
    fn run(&self, inputs: &[Value], span: &Span) -> Result<OpOutput, AwelError> {
        let input = inputs.first().cloned().unwrap_or(Value::Null);
        let question = field(&input, "question", "narrate")?;
        let answer = field(&input, "answer", "narrate")?;
        let context: Vec<&str> = input["context"]
            .as_array()
            .map(|a| a.iter().filter_map(Value::as_str).collect())
            .unwrap_or_default();
        let mut prompt = String::new();
        if !context.is_empty() {
            prompt.push_str("Background:\n");
            for c in &context {
                prompt.push_str(c);
                prompt.push('\n');
            }
            prompt.push('\n');
        }
        prompt.push_str(&format!(
            "Question: {question}\nData answer: {answer}\nSummarize the finding in one sentence."
        ));
        let completion = self
            .llm
            .complete_under(&prompt, &GenerationParams::default(), span)
            .map_err(|e| exec_err("narrate", e))?;
        let mut out = input.clone();
        out["narrative"] = json!(completion.text);
        Ok(OpOutput::Value(out))
    }
}

/// The Chat2Data request expressed as an AWEL workflow.
pub struct Chat2DataPipeline {
    ctx: AppContext,
    scheduler: Scheduler,
    dag: Dag,
}

impl Chat2DataPipeline {
    /// Build the five-stage DAG over a context. The scheduler records on
    /// the context's observability handle, so `awel.*` spans and counters
    /// land in the same trace as the app/engine spans.
    pub fn new(ctx: AppContext) -> Self {
        let dag = DagBuilder::new("chat2data_pipeline")
            .node("intent", Arc::new(IntentOp))
            .node(
                "retrieve",
                Arc::new(RetrieveOp {
                    kb: ctx.kb.clone(),
                    k: 2,
                }),
            )
            .node(
                "gen_sql",
                Arc::new(GenSqlOp {
                    t2s: ctx.t2s.clone(),
                    engine: ctx.engine.clone(),
                }),
            )
            .node("execute", Arc::new(ExecOp { ctx: ctx.clone() }))
            .node("narrate", Arc::new(NarrateOp { llm: ctx.llm.clone() }))
            .edge("intent", "retrieve")
            .edge("retrieve", "gen_sql")
            .edge("gen_sql", "execute")
            .edge("execute", "narrate")
            .build()
            .expect("pipeline dag is valid");
        let scheduler = Scheduler::with_obs(ctx.obs.clone());
        Chat2DataPipeline { ctx, scheduler, dag }
    }

    /// The underlying DAG (e.g. for visualisation).
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Run one question through the workflow: records an
    /// `app.chat2data.pipeline` span on the context's handle whose
    /// `awel.dag` child carries per-operator spans, each joining the
    /// stage's own subsystem spans.
    pub fn run(&self, question: &str) -> Result<PipelineReply, AppError> {
        let span = self
            .ctx
            .obs
            .span("app.chat2data.pipeline", self.ctx.obs.tick());
        let obs = span.handle();
        obs.counter("app.pipeline.requests", 1);
        let res = self.run_inner(question, &span);
        match &res {
            Ok(r) => {
                span.attr("outcome", "ok");
                span.attr("rows", r.data.as_array().map(|a| a.len()).unwrap_or(0));
            }
            Err(_) => {
                span.attr("outcome", "error");
                obs.counter("app.pipeline.errors", 1);
            }
        }
        span.end(span.tick());
        res
    }

    fn run_inner(&self, question: &str, span: &Span) -> Result<PipelineReply, AppError> {
        let result = self
            .scheduler
            .run_under(&self.dag, json!(question), ExecutionMode::Batch, span)
            .map_err(AppError::from)?;
        let out = result
            .sole_output()
            .cloned()
            .ok_or_else(|| AppError::Workflow("pipeline produced no output".into()))?;
        Ok(PipelineReply {
            answer: out["answer"].as_str().unwrap_or_default().to_string(),
            narrative: out["narrative"].as_str().unwrap_or_default().to_string(),
            sql: out["sql"].as_str().unwrap_or_default().to_string(),
            data: out["data"].clone(),
            context_chunks: out["context"].as_array().map(Vec::len).unwrap_or(0),
        })
    }
}

impl std::fmt::Debug for Chat2DataPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chat2DataPipeline")
            .field("dag", &self.dag.name())
            .field("nodes", &self.dag.node_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> Chat2DataPipeline {
        let ctx = AppContext::local_default().with_sales_demo_data();
        ctx.kb.write().add_text(
            "orders-doc",
            "Orders record purchases. Each order has an amount and category.",
        );
        Chat2DataPipeline::new(ctx)
    }

    #[test]
    fn pipeline_answers_match_chat2data() {
        let p = pipeline();
        let r = p.run("how many orders are there?").unwrap();
        assert_eq!(r.answer, "The answer is 8.");
        assert_eq!(r.sql, "SELECT COUNT(*) FROM orders;");
        assert!(!r.narrative.is_empty());
    }

    #[test]
    fn pipeline_carries_retrieved_context() {
        let p = pipeline();
        let r = p.run("what is the total amount per category of orders?").unwrap();
        assert!(r.context_chunks > 0);
        assert_eq!(r.data.as_array().unwrap().len(), 3);
    }

    #[test]
    fn empty_question_fails_in_intent_stage() {
        let p = pipeline();
        let err = p.run("   ").unwrap_err();
        assert!(err.to_string().contains("intent"), "{err}");
    }

    #[test]
    fn bad_question_fails_in_gen_sql_stage() {
        let p = pipeline();
        let err = p.run("how many unicorns are there?").unwrap_err();
        assert!(err.to_string().contains("gen_sql"), "{err}");
    }

    #[test]
    fn dag_has_five_stages() {
        assert_eq!(pipeline().dag().node_count(), 5);
    }
}
