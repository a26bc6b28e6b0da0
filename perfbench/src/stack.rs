//! Set-up: the default stack, the workload's data, and the TCP front door.

use std::sync::Arc;
use std::time::Instant;

use dbgpt::apps::handlers::build_server;
use dbgpt::server::{Server, TcpServer};
use dbgpt::{DbGpt, DbGptConfig};

use crate::workload::Scenario;

/// A running system.
pub struct Stack {
    /// The assembled system (`DbGpt::from_config` with the default config).
    pub db: DbGpt,
    /// The server the TCP front door routes to, with every app registered.
    pub server: Arc<Server>,
    /// The front door on loopback.
    pub tcp: TcpServer,
}

/// Wall-clock seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Stack assembly plus binding the TCP server.
    pub start_s: f64,
    /// SQL DDL, INSERT batches and indexes.
    pub load_s: f64,
    /// Knowledge-base ingest.
    pub ingest_s: f64,
    /// All of the above.
    pub total_s: f64,
}

/// Bring the stack up with the workload's data loaded.
pub fn set_up(scenario: &Scenario) -> (Stack, SetupTimes) {
    let t0 = Instant::now();
    let db = DbGpt::from_config(DbGptConfig::default()).expect("the default config builds");
    let server = Arc::new(build_server(db.context()));
    let tcp = TcpServer::bind("127.0.0.1:0", server.clone()).expect("bind a loopback port");
    let start_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    for sql in &scenario.setup_sql {
        db.execute_sql(sql).expect("set-up SQL is valid");
    }
    let load_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    for doc in scenario.docs.iter() {
        assert!(
            db.ingest_document(&doc.id, &doc.text) > 0,
            "document {} ingests",
            doc.id
        );
    }
    let ingest_s = t2.elapsed().as_secs_f64();

    let times = SetupTimes {
        start_s,
        load_s,
        ingest_s,
        total_s: t0.elapsed().as_secs_f64(),
    };
    (Stack { db, server, tcp }, times)
}

/// Set-ups per run: at least [`MIN_SETUPS`], and more while their total
/// stays under [`SETUP_BUDGET_S`], so the median of a cheap set-up is
/// taken over many samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;

/// Set up repeatedly, each stack torn down before the next is built, and
/// keep the last one running.
pub fn set_up_repeatedly(scenario: &Scenario) -> (Stack, Vec<SetupTimes>) {
    let mut times: Vec<SetupTimes> = Vec::new();
    loop {
        let (stack, t) = set_up(scenario);
        times.push(t);
        let spent: f64 = times.iter().map(|t| t.total_s).sum();
        let enough =
            times.len() >= MAX_SETUPS || (times.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S);
        if enough {
            return (stack, times);
        }
        shut_down(stack);
    }
}

/// Stop accepting connections and drop the system.
pub fn shut_down(stack: Stack) {
    stack.tcp.shutdown();
}
