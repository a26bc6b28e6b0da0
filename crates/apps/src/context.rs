//! The shared application context.
//!
//! Applications draw on four module-layer resources: a model client
//! (direct or via SMMF), the SQL engine, the knowledge base, and a
//! Text-to-SQL model. [`AppContext`] bundles them behind locks so one
//! context can back every app and every server handler simultaneously.

use std::sync::Arc;

use parking_lot::RwLock;

use dbgpt_agents::LlmClient;
use dbgpt_llm::catalog::builtin_model;
use dbgpt_obs::{Obs, Span};
use dbgpt_rag::KnowledgeBase;
use dbgpt_sqlengine::engine::Prepared;
use dbgpt_sqlengine::{Engine, QueryResult, SqlError};
use dbgpt_text2sql::Text2SqlModel;

/// Shared resources for the application layer.
#[derive(Clone)]
pub struct AppContext {
    /// Model access (chat / planning / summarisation).
    pub llm: LlmClient,
    /// The database all SQL apps target.
    pub engine: Arc<RwLock<Engine>>,
    /// The RAG knowledge base.
    pub kb: Arc<RwLock<KnowledgeBase>>,
    /// The Text-to-SQL model (base or fine-tuned).
    pub t2s: Text2SqlModel,
    /// Observability handle (disabled by default): apps root their request
    /// spans here when no caller span is propagated in.
    pub obs: Obs,
}

impl AppContext {
    /// A context with local defaults: the `sim-qwen` model, an empty
    /// database, an empty knowledge base, and the base Text-to-SQL model.
    pub fn local_default() -> Self {
        AppContext {
            llm: LlmClient::direct(builtin_model("sim-qwen").expect("builtin exists")),
            engine: Arc::new(RwLock::new(Engine::new())),
            kb: Arc::new(RwLock::new(KnowledgeBase::with_defaults())),
            t2s: Text2SqlModel::base(),
            obs: Obs::disabled(),
        }
    }

    /// Replace the model client, builder style.
    pub fn with_llm(mut self, llm: LlmClient) -> Self {
        self.llm = llm;
        self
    }

    /// Attach an observability handle, builder style. Also points the
    /// knowledge base at the same handle so RAG spans and app spans land
    /// in one tracer.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.kb.write().set_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Replace the Text-to-SQL model, builder style.
    pub fn with_t2s(mut self, t2s: Text2SqlModel) -> Self {
        self.t2s = t2s;
        self
    }

    /// Run one SQL statement against the shared engine: the one entry
    /// point apps use. A SELECT scans its tables under the read lock and
    /// finishes (joins, aggregates, sorts, projections) after releasing
    /// it, so concurrent readers never wait on each other's operators and
    /// a writer waits only for scans. DDL and DML take the write lock.
    pub fn run_sql(&self, sql: &str, span: &Span) -> Result<QueryResult, SqlError> {
        let prepared = self.engine.read().prepare(sql, span)?;
        match prepared {
            Prepared::Read(select) => select.finish(),
            Prepared::Write(write) => self.engine.write().run_write(write),
        }
    }

    /// Execute setup SQL (DDL + seeds) against the shared engine.
    pub fn seed_sql(&self, statements: &[&str]) -> Result<(), dbgpt_sqlengine::SqlError> {
        let mut engine = self.engine.write();
        for s in statements {
            engine.execute(s)?;
        }
        Ok(())
    }

    /// The current schema DDL (the Text-to-SQL prompt context).
    pub fn schema_ddl(&self) -> String {
        self.engine.read().database().schema_ddl()
    }

    /// The demo's sales database (orders / users / products), used by the
    /// Fig. 3 walk-through, examples and benchmarks.
    pub fn with_sales_demo_data(self) -> Self {
        self.seed_sql(&[
            "CREATE TABLE orders (id INT, user_id INT, product_id INT, amount FLOAT, category TEXT, month TEXT)",
            "CREATE TABLE users (id INT, name TEXT, city TEXT, age INT)",
            "CREATE TABLE products (id INT, name TEXT, price FLOAT, stock INT)",
            "INSERT INTO users VALUES \
             (1, 'alice', 'berlin', 34), (2, 'bob', 'paris', 28), \
             (3, 'carol', 'tokyo', 45), (4, 'dave', 'berlin', 52)",
            "INSERT INTO products VALUES \
             (1, 'laptop', 1200.0, 12), (2, 'novel', 15.0, 200), \
             (3, 'coffee', 9.5, 500), (4, 'monitor', 300.0, 40)",
            "INSERT INTO orders VALUES \
             (1, 1, 1, 1200.0, 'tech', 'jan'), (2, 2, 2, 30.0, 'books', 'jan'), \
             (3, 1, 3, 19.0, 'food', 'feb'), (4, 3, 1, 2400.0, 'tech', 'feb'), \
             (5, 2, 4, 300.0, 'tech', 'mar'), (6, 4, 2, 15.0, 'books', 'mar'), \
             (7, 3, 3, 28.5, 'food', 'mar'), (8, 1, 4, 600.0, 'tech', 'jan')",
        ])
        .expect("demo data is valid");
        self
    }
}

impl std::fmt::Debug for AppContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppContext")
            .field("llm", &self.llm)
            .field("tables", &self.engine.read().database().table_count())
            .field("t2s", &self.t2s.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_is_empty() {
        let ctx = AppContext::local_default();
        assert_eq!(ctx.engine.read().database().table_count(), 0);
        assert_eq!(ctx.t2s.name(), "t2s-base");
    }

    #[test]
    fn sales_demo_data_loads() {
        let ctx = AppContext::local_default().with_sales_demo_data();
        let ddl = ctx.schema_ddl();
        assert!(ddl.contains("CREATE TABLE orders"));
        assert!(ddl.contains("CREATE TABLE users"));
        let count = ctx
            .engine
            .write()
            .execute("SELECT COUNT(*) FROM orders")
            .unwrap();
        assert_eq!(count.rows[0][0].as_i64(), Some(8));
    }

    #[test]
    fn seed_sql_propagates_errors() {
        let ctx = AppContext::local_default();
        assert!(ctx.seed_sql(&["CREATE TABLE t (a INT)", "NONSENSE"]).is_err());
    }

    #[test]
    fn context_clone_shares_engine() {
        let ctx = AppContext::local_default();
        let clone = ctx.clone();
        ctx.seed_sql(&["CREATE TABLE shared (a INT)"]).unwrap();
        assert!(clone.schema_ddl().contains("shared"));
    }
}
