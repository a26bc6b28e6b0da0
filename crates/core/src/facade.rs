//! The [`DbGpt`] façade: the whole system behind one handle.

use std::fmt;
use std::sync::Arc;

use serde_json::Value;

use dbgpt_agents::{HistoryArchive, LlmClient};
use dbgpt_apps::{
    detect_intent, AppContext, Chat2Data, Chat2Db, Chat2Excel, Chat2Viz, Forecaster,
    GenerativeAnalyzer, Intent, KnowledgeQa,
};
use dbgpt_server::Server;
use dbgpt_smmf::{ApiServer, SmmfError};
use dbgpt_text2sql::{dataset, FineTuner, Text2SqlModel};

use crate::config::{DbGptBuilder, DbGptConfig};

/// Errors constructing a [`DbGpt`] instance.
#[derive(Debug)]
pub enum BuildError {
    /// The SMMF deployment failed (unknown model, privacy violation…).
    Smmf(SmmfError),
    /// The agent archive could not be opened.
    Archive(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Smmf(e) => write!(f, "model deployment failed: {e}"),
            BuildError::Archive(m) => write!(f, "archive: {m}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// The result of one routed chat turn.
#[derive(Debug, Clone)]
pub struct ChatOutcome {
    /// Which app handled the input.
    pub intent: Intent,
    /// Human-readable reply (answer / table / report).
    pub text: String,
    /// Machine-readable payload from the app.
    pub payload: Value,
}

/// The assembled DB-GPT system.
pub struct DbGpt {
    config: DbGptConfig,
    smmf: Arc<ApiServer>,
    ctx: AppContext,
    analyzer: GenerativeAnalyzer,
    server: Server,
}

impl DbGpt {
    /// Builder entry point.
    pub fn builder() -> DbGptBuilder {
        DbGptBuilder::new()
    }

    /// Assemble from a config.
    pub fn from_config(config: DbGptConfig) -> Result<DbGpt, BuildError> {
        // Module layer: SMMF deployment.
        let mut smmf = ApiServer::with_policy(config.deployment_mode, config.routing, 7);
        smmf.deploy_builtin(&config.chat_model, config.replicas)
            .map_err(BuildError::Smmf)?;
        let smmf = Arc::new(smmf);
        let llm = LlmClient::smmf(smmf.clone(), config.chat_model.clone());

        // Text-to-SQL model (optionally the fine-tuned hub output).
        let t2s = if config.fine_tuned_t2s {
            let bench = dataset::spider_like(99);
            Text2SqlModel::fine_tuned(
                "t2s-tuned",
                FineTuner::new().fit(&bench.databases, &bench.train),
            )
        } else {
            Text2SqlModel::base()
        };

        // Application context.
        let mut ctx = AppContext::local_default().with_llm(llm.clone()).with_t2s(t2s);
        if config.sales_demo {
            ctx = ctx.with_sales_demo_data();
        }

        // Multi-agent analyzer, with a durable archive if requested.
        let analyzer = match &config.archive_path {
            Some(path) => {
                let archive = HistoryArchive::at_path(path)
                    .map_err(|e| BuildError::Archive(e.to_string()))?;
                GenerativeAnalyzer::with_archive(ctx.clone(), Arc::new(archive))
            }
            None => GenerativeAnalyzer::new(ctx.clone()),
        };

        // Server layer with every app handler registered.
        let server = dbgpt_apps::handlers::build_server(&ctx);

        Ok(DbGpt {
            config,
            smmf,
            ctx,
            analyzer,
            server,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &DbGptConfig {
        &self.config
    }

    /// The SMMF deployment.
    pub fn smmf(&self) -> &Arc<ApiServer> {
        &self.smmf
    }

    /// The shared application context.
    pub fn context(&self) -> &AppContext {
        &self.ctx
    }

    /// The server layer (register extra handlers, open sessions).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Load SQL (DDL/DML) into the database.
    pub fn execute_sql(&self, sql: &str) -> Result<String, dbgpt_apps::AppError> {
        // An untraced statement: the default span records nothing.
        let result = self.ctx.run_sql(sql, &Default::default())?;
        Ok(result.to_table())
    }

    /// Ingest a document into the knowledge base.
    pub fn ingest_document(&self, id: &str, text: &str) -> usize {
        self.ctx.kb.write().add_text(id, text)
    }

    /// Load a CSV sheet (chat2excel path).
    pub fn load_sheet(&self, table: &str, csv: &str) -> Result<usize, dbgpt_apps::AppError> {
        Chat2Excel::new(self.ctx.clone())
            .load_sheet(table, csv)
            .map(|info| info.rows)
    }

    /// One free-form turn: detect the intent (multilingual), route to the
    /// right app, return its reply.
    pub fn chat(&mut self, input: &str) -> Result<ChatOutcome, dbgpt_apps::AppError> {
        let (intent, canonical) = detect_intent(input);
        let (text, payload) = match intent {
            Intent::Chat2Db => {
                let r = Chat2Db::new(self.ctx.clone()).ask(&canonical)?;
                (
                    format!("{}\n{}", r.explanation, r.table),
                    serde_json::to_value(&r).expect("reply serializes"),
                )
            }
            Intent::Chat2Data => {
                match Chat2Data::new(self.ctx.clone()).ask(&canonical) {
                    Ok(r) => {
                        (r.answer.clone(), serde_json::to_value(&r).expect("reply serializes"))
                    }
                    // The question *looked* like a data question but the
                    // database cannot answer it (no matching table/column).
                    // Fall back to the knowledge base before giving up —
                    // "how many layers does DB-GPT have?" is knowledge, not
                    // data, despite the "how many".
                    Err(data_err) => {
                        let kb_has_content = self.ctx.kb.read().chunk_count() > 0;
                        if !kb_has_content {
                            return Err(data_err);
                        }
                        let r = KnowledgeQa::new(self.ctx.clone()).ask(&canonical)?;
                        return Ok(ChatOutcome {
                            intent: Intent::Kbqa,
                            text: r.answer.clone(),
                            payload: serde_json::to_value(&r).expect("reply serializes"),
                        });
                    }
                }
            }
            Intent::Chat2Viz => {
                let r = Chat2Viz::new(self.ctx.clone()).ask(&canonical)?;
                (
                    r.ascii.clone(),
                    serde_json::json!({"spec": r.spec, "sql": r.sql, "svg": r.svg}),
                )
            }
            Intent::Analysis => {
                let r = self.analyzer.analyze(&canonical)?;
                (
                    r.render_ascii(),
                    serde_json::to_value(&r).expect("report serializes"),
                )
            }
            Intent::Kbqa => {
                let r = KnowledgeQa::new(self.ctx.clone()).ask(&canonical)?;
                (r.answer.clone(), serde_json::to_value(&r).expect("reply serializes"))
            }
            Intent::Forecast => {
                let r = Forecaster::new(self.ctx.clone()).ask(&canonical)?;
                (
                    format!("{}\n{}", r.narrative, dbgpt_vis::ascii::render(&r.chart)),
                    serde_json::to_value(&r).expect("reply serializes"),
                )
            }
        };
        Ok(ChatOutcome {
            intent,
            text,
            payload,
        })
    }

    /// Open a server-layer session; turns sent with
    /// [`DbGpt::chat_in_session`] accumulate history there.
    pub fn open_session(&self) -> String {
        self.server.open_session("chat")
    }

    /// One turn within a session: routed like [`DbGpt::chat`], but through
    /// the server layer so the conversation history persists (demo
    /// area ⑦ — the user keeps talking in the same session).
    pub fn chat_in_session(
        &mut self,
        session: &str,
        input: &str,
    ) -> Result<ChatOutcome, dbgpt_apps::AppError> {
        let (intent, canonical) = detect_intent(input);
        let mut request = dbgpt_server::Request::new(0, intent.app_name(), canonical);
        request.session = session.to_string();
        let response = self.server.handle(&request);
        match response.status {
            dbgpt_server::Status::Ok => Ok(ChatOutcome {
                intent,
                text: response
                    .rendered
                    .unwrap_or_else(|| response.content.to_string()),
                payload: response.content,
            }),
            _ => Err(dbgpt_apps::AppError::BadInput(
                response.content.as_str().unwrap_or("request failed").to_string(),
            )),
        }
    }

    /// The multi-agent analyzer (inspect its archive).
    pub fn analyzer(&self) -> &GenerativeAnalyzer {
        &self.analyzer
    }
}

impl fmt::Debug for DbGpt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DbGpt")
            .field("chat_model", &self.config.chat_model)
            .field("mode", &self.config.deployment_mode)
            .field("apps", &self.server.apps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgpt_apps::Intent;
    use dbgpt_smmf::DeploymentMode;

    fn system() -> DbGpt {
        DbGpt::builder().with_sales_demo().build().unwrap()
    }

    #[test]
    fn builds_with_defaults() {
        let db = system();
        assert_eq!(db.config().chat_model, "sim-qwen");
        assert_eq!(db.smmf().models(), vec!["sim-qwen"]);
        assert_eq!(
            db.server().apps(),
            vec!["analysis", "chat2data", "chat2db", "chat2viz", "forecast", "kbqa"]
        );
    }

    #[test]
    fn proxy_model_rejected_in_local_mode() {
        let e = DbGpt::builder().chat_model("proxy-gpt").build();
        assert!(matches!(e, Err(BuildError::Smmf(_))));
        // …but allowed in cloud mode.
        assert!(DbGpt::builder()
            .chat_model("proxy-gpt")
            .deployment_mode(DeploymentMode::Cloud)
            .build()
            .is_ok());
    }

    #[test]
    fn chat_routes_data_question() {
        let mut db = system();
        let out = db.chat("how many orders are there?").unwrap();
        assert_eq!(out.intent, Intent::Chat2Data);
        assert!(out.text.contains("The answer is 8."));
    }

    #[test]
    fn chat_routes_sql() {
        let mut db = system();
        let out = db.chat("SELECT COUNT(*) FROM users").unwrap();
        assert_eq!(out.intent, Intent::Chat2Db);
        assert!(out.text.contains('4'));
    }

    #[test]
    fn chat_routes_chart_request() {
        let mut db = system();
        let out = db
            .chat("draw a pie chart of the total amount per category of orders")
            .unwrap();
        assert_eq!(out.intent, Intent::Chat2Viz);
        assert!(out.payload["svg"].as_str().unwrap().starts_with("<svg"));
    }

    #[test]
    fn chat_routes_demo_analysis_goal() {
        let mut db = system();
        let out = db
            .chat("Build sales reports and analyze user orders from at least three distinct dimensions")
            .unwrap();
        assert_eq!(out.intent, Intent::Analysis);
        assert_eq!(out.payload["charts"].as_array().unwrap().len(), 3);
        assert!(out.text.contains("== Narrative =="));
    }

    #[test]
    fn chat_routes_knowledge_question() {
        let mut db = system();
        db.ingest_document("manual", "DB-GPT has four layers in its architecture.");
        let out = db.chat("tell me about the DB-GPT architecture").unwrap();
        assert_eq!(out.intent, Intent::Kbqa);
        assert!(out.text.contains("four layers") || !out.text.is_empty());
    }

    #[test]
    fn chinese_chat_works_end_to_end() {
        let mut db = system();
        let out = db.chat("构建销售报表，从三个维度分析用户订单").unwrap();
        assert_eq!(out.intent, Intent::Analysis);
        assert_eq!(out.payload["charts"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn sheet_loading_and_sql() {
        let db = system();
        let n = db.load_sheet("expenses", "team,cost\ncore,100\nml,250\n").unwrap();
        assert_eq!(n, 2);
        let table = db.execute_sql("SELECT SUM(cost) FROM expenses").unwrap();
        assert!(table.contains("350"));
    }

    #[test]
    fn chat_routes_forecast_request() {
        let mut db = system();
        let out = db.chat("forecast sales for the next 2 months").unwrap();
        assert_eq!(out.intent, Intent::Forecast);
        assert_eq!(out.payload["predictions"].as_array().unwrap().len(), 2);
        assert!(out.text.contains("trajectory"));
    }

    #[test]
    fn unanswerable_data_question_falls_back_to_kbqa() {
        let mut db = system();
        db.ingest_document("arch", "DB-GPT has four layers in its architecture.");
        let out = db.chat("how many layers does DB-GPT have?").unwrap();
        assert_eq!(out.intent, Intent::Kbqa);
        assert!(out.text.contains("four layers"), "{}", out.text);
        // Without knowledge content the data error surfaces.
        let mut empty = DbGpt::builder().with_sales_demo().build().unwrap();
        assert!(empty.chat("how many unicorns are there?").is_err());
    }

    #[test]
    fn session_chat_accumulates_history() {
        let mut db = system();
        let sid = db.open_session();
        let a = db.chat_in_session(&sid, "how many orders are there?").unwrap();
        assert!(a.text.contains("The answer is 8."));
        db.chat_in_session(&sid, "how many users are there?").unwrap();
        let session = db.server().sessions().get(&sid).unwrap();
        assert_eq!(session.user_turns(), 2);
        assert_eq!(session.history.len(), 4);
        // Errors surface as AppError.
        assert!(db.chat_in_session("ghost-session", "hi there folks").is_err());
    }

    #[test]
    fn fine_tuned_build_switches_t2s() {
        let db = DbGpt::builder().fine_tuned_t2s().with_sales_demo().build().unwrap();
        assert_eq!(db.context().t2s.name(), "t2s-tuned");
    }
}
