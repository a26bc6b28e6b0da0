//! The cluster-wide telemetry pipeline, end to end.
//!
//! [`run_telemetry_scenario`] replays a traffic × fault schedule against
//! a [`Cluster`] with tracing enabled, so every request becomes one
//! cross-node trace tree (gateway → primary → replicas → SMMF → SQL).
//! After the run it:
//!
//! 1. pulls every node's [`dbgpt_obs::NodeDump`] through the central
//!    collector and applies the scenario's tail-sampling
//!    [`SamplePolicy`] — error traces always retained, then traces
//!    overlapping the run's own SLO alert windows, then the slowest
//!    tail, then a seeded baseline sample;
//! 2. materializes the sampled spans, metric snapshots, histogram
//!    exemplars, and per-tenant usage rollups into SQL tables
//!    (`obs_spans`, `obs_metrics`, `obs_exemplars`, `obs_tenant_usage`)
//!    on a [`dbgpt_sqlengine::Engine`]; and
//! 3. cross-checks the store: the canonical "top-k slowest spans per
//!    tenant" SQL query must match [`Telemetry::slowest_spans_per_tenant`]
//!    row for row.
//!
//! Everything is deterministic in the scenario value; the
//! [`TelemetryReport`] serializes byte-stably for the bench gate.

use dbgpt_obs::{
    export_sql, slowest_spans_query, BurnRule, SamplePolicy, SloDef, SloEngine, Telemetry,
    TraceContext, UsageLedger,
};
use dbgpt_smmf::NodeSchedule;
use dbgpt_sqlengine::{Engine, Value};

use crate::cluster::{Cluster, ClusterConfig, Outcome, RequestOutcome, TelemetryConfig};
use crate::traffic::{generate, TrafficConfig};

/// One telemetry experiment: traffic, topology, faults, and how the
/// resulting trace firehose is sampled.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryScenario {
    /// Scenario name (report key).
    pub name: String,
    /// Traffic shape.
    pub traffic: TrafficConfig,
    /// Cluster topology and policy.
    pub cluster: ClusterConfig,
    /// Tracing switch + tracer seeds.
    pub telemetry: TelemetryConfig,
    /// Node fault schedule on the simulated clock.
    pub schedule: NodeSchedule,
    /// Metrics snapshot cadence for SLO evaluation (µs; 0 disables).
    pub snapshot_every_us: u64,
    /// Latency objective for the p99 SLO (µs).
    pub slo_us: u64,
    /// Tail-sampling policy applied at collection time.
    pub policy: SamplePolicy,
}

impl TelemetryScenario {
    /// The acceptance shape: ≥3 nodes, replicated, multi-tenant traffic,
    /// one crash/restart fault (which costs quorum on the crashed node's
    /// shards → real error traces), traced and budget-sampled.
    pub fn faulted(requests: usize, tenants: usize, seed: u64) -> Self {
        let crash_at = 2_000_000;
        let restart_at = 6_000_000;
        TelemetryScenario {
            name: "telemetry-faulted".into(),
            traffic: TrafficConfig::standard(requests, tenants.max(2), seed),
            cluster: ClusterConfig::replicated(3, 2, seed),
            telemetry: TelemetryConfig::enabled(seed ^ 0x7e1e_3e7a),
            schedule: NodeSchedule::crash_restart(1, crash_at, restart_at),
            snapshot_every_us: 1_000_000,
            slo_us: 200_000,
            policy: SamplePolicy::budgeted(4000, 16, 250, seed),
        }
    }
}

/// Everything one telemetry run produces.
pub struct TelemetryRun {
    /// The sampled, aggregated cluster-wide telemetry.
    pub telemetry: Telemetry,
    /// Per-tenant usage rollups from the gateway.
    pub usage: UsageLedger,
    /// Per-request fates in arrival order.
    pub outcomes: Vec<RequestOutcome>,
    /// `(fired_us, resolved_us)` intervals fed to the sampler.
    pub alert_windows: Vec<(u64, u64)>,
    /// The admission layer's rendered per-tenant usage view.
    pub tenant_view: String,
    /// Aggregates + gate inputs, serializable byte-reproducibly.
    pub report: TelemetryReport,
}

/// Aggregate results of one telemetry scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Scenario name.
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Node count.
    pub nodes: usize,
    /// Replication factor.
    pub replication: usize,
    /// Arrivals offered.
    pub requests: u64,
    /// Acknowledged.
    pub ok: u64,
    /// Failed (quorum lost, serve error, no primary).
    pub failed: u64,
    /// Shed by admission.
    pub throttled: u64,
    /// Spans recorded across all tracers.
    pub spans_total: u64,
    /// Spans kept by the sampler (the store's row count).
    pub spans_kept: u64,
    /// The policy's span budget.
    pub span_budget: u64,
    /// Traces seen / kept / dropped.
    pub traces_total: u64,
    /// Traces kept.
    pub traces_kept: u64,
    /// Traces dropped by the budget.
    pub dropped_by_budget: u64,
    /// Traces dropped by the baseline sample.
    pub dropped_by_sampling: u64,
    /// Error traces seen.
    pub error_traces: u64,
    /// Error traces kept (must equal `error_traces`).
    pub error_traces_kept: u64,
    /// Kept-trace counts by reason: error.
    pub kept_error: u64,
    /// Kept by alert-window overlap.
    pub kept_alert: u64,
    /// Kept by the slow-tail quota.
    pub kept_slow: u64,
    /// Kept by the baseline sample.
    pub kept_sampled: u64,
    /// SLO alert fire→resolve windows observed during the run.
    pub alert_windows: u64,
    /// Largest node fan-out of any kept trace (gateway counts as one).
    pub max_trace_nodes: u64,
    /// Kept traces spanning ≥3 dumps (gateway + primary + replica).
    pub cross_node_traces: u64,
    /// Tenants with recorded usage.
    pub usage_tenants: u64,
    /// Total LLM tokens metered across tenants.
    pub usage_tokens: u64,
    /// Total SQL rows written across tenants.
    pub usage_rows: u64,
    /// Rows in `obs_spans` after materialization.
    pub store_span_rows: u64,
    /// Rows in `obs_metrics`.
    pub store_metric_rows: u64,
    /// Rows in `obs_exemplars`.
    pub store_exemplar_rows: u64,
    /// Does the SQL top-k query match the in-memory oracle everywhere?
    pub sql_matches_oracle: bool,
    /// Content fingerprint of the materialized store.
    pub store_fingerprint: u64,
}

impl TelemetryReport {
    /// Deterministic JSON (stable key order, fixed formatting).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"name\":\"{}\",", self.name));
        s.push_str(&format!("\"seed\":{},", self.seed));
        s.push_str(&format!("\"nodes\":{},", self.nodes));
        s.push_str(&format!("\"replication\":{},", self.replication));
        s.push_str(&format!("\"requests\":{},", self.requests));
        s.push_str(&format!("\"ok\":{},", self.ok));
        s.push_str(&format!("\"failed\":{},", self.failed));
        s.push_str(&format!("\"throttled\":{},", self.throttled));
        s.push_str(&format!("\"spans_total\":{},", self.spans_total));
        s.push_str(&format!("\"spans_kept\":{},", self.spans_kept));
        s.push_str(&format!("\"span_budget\":{},", self.span_budget));
        s.push_str(&format!("\"traces_total\":{},", self.traces_total));
        s.push_str(&format!("\"traces_kept\":{},", self.traces_kept));
        s.push_str(&format!("\"dropped_by_budget\":{},", self.dropped_by_budget));
        s.push_str(&format!(
            "\"dropped_by_sampling\":{},",
            self.dropped_by_sampling
        ));
        s.push_str(&format!("\"error_traces\":{},", self.error_traces));
        s.push_str(&format!(
            "\"error_traces_kept\":{},",
            self.error_traces_kept
        ));
        s.push_str(&format!("\"kept_error\":{},", self.kept_error));
        s.push_str(&format!("\"kept_alert\":{},", self.kept_alert));
        s.push_str(&format!("\"kept_slow\":{},", self.kept_slow));
        s.push_str(&format!("\"kept_sampled\":{},", self.kept_sampled));
        s.push_str(&format!("\"alert_windows\":{},", self.alert_windows));
        s.push_str(&format!("\"max_trace_nodes\":{},", self.max_trace_nodes));
        s.push_str(&format!(
            "\"cross_node_traces\":{},",
            self.cross_node_traces
        ));
        s.push_str(&format!("\"usage_tenants\":{},", self.usage_tenants));
        s.push_str(&format!("\"usage_tokens\":{},", self.usage_tokens));
        s.push_str(&format!("\"usage_rows\":{},", self.usage_rows));
        s.push_str(&format!("\"store_span_rows\":{},", self.store_span_rows));
        s.push_str(&format!(
            "\"store_metric_rows\":{},",
            self.store_metric_rows
        ));
        s.push_str(&format!(
            "\"store_exemplar_rows\":{},",
            self.store_exemplar_rows
        ));
        s.push_str(&format!(
            "\"sql_matches_oracle\":{},",
            self.sql_matches_oracle
        ));
        s.push_str(&format!(
            "\"store_fingerprint\":\"{:016x}\"",
            self.store_fingerprint
        ));
        s.push('}');
        s
    }
}

/// Pair a burn-rate engine's fire/resolve transitions into closed
/// `(fired_us, resolved_us)` windows per `(slo, rule)`; a still-firing
/// alert yields a window open to `u64::MAX`.
pub fn alert_windows(slo: &SloEngine) -> Vec<(u64, u64)> {
    let mut open: std::collections::BTreeMap<(String, String), u64> =
        std::collections::BTreeMap::new();
    let mut windows = Vec::new();
    for a in slo.alerts() {
        let key = (a.slo.clone(), a.rule.clone());
        if a.firing {
            open.entry(key).or_insert(a.at_us);
        } else if let Some(fired) = open.remove(&key) {
            windows.push((fired, a.at_us));
        }
    }
    for (_, fired) in open {
        windows.push((fired, u64::MAX));
    }
    windows.sort_unstable();
    windows
}

/// Materialize an aggregated [`Telemetry`] + [`UsageLedger`] into a SQL
/// engine — the telemetry store. Every statement comes from
/// [`dbgpt_obs::export_sql`]; failures are bugs.
pub fn materialize_store(t: &Telemetry, usage: &UsageLedger) -> Engine {
    let mut engine = Engine::new();
    for stmt in export_sql(t, usage) {
        engine.execute(&stmt).expect("telemetry store statement");
    }
    engine
}

/// Run the canonical top-k query against the store and decode the rows
/// as `(duration_us, trace, span)` with ids parsed back from hex.
pub fn slowest_from_store(
    engine: &mut Engine,
    name: &str,
    tenant: &str,
    k: usize,
) -> Vec<(u64, u64, u64)> {
    let res = engine
        .execute(&slowest_spans_query(name, tenant, k))
        .expect("telemetry store query");
    res.rows
        .iter()
        .map(|row| {
            let dur = match row.get(0) {
                Some(Value::Int(v)) => *v as u64,
                other => panic!("duration_us not an int: {other:?}"),
            };
            let parse = |v: Option<&Value>| match v {
                Some(Value::Text(s)) => {
                    TraceContext::parse_hex(s).expect("well-formed hex id in store")
                }
                other => panic!("id not text: {other:?}"),
            };
            (dur, parse(row.get(1)), parse(row.get(2)))
        })
        .collect()
}

/// Compare the SQL store against the in-memory aggregator for every
/// tenant that has `name` spans: `true` iff every tenant's top-k SQL
/// result equals [`Telemetry::slowest_spans_per_tenant`] row for row.
pub fn store_matches_oracle(engine: &mut Engine, t: &Telemetry, name: &str, k: usize) -> bool {
    let oracle = t.slowest_spans_per_tenant(name, k);
    oracle.iter().all(|(tenant, expect)| {
        let got = slowest_from_store(engine, name, tenant, k);
        got == *expect
    })
}

fn count_rows(engine: &mut Engine, table: &str) -> u64 {
    engine
        .execute(&format!("SELECT COUNT(*) FROM {table}"))
        .map(|r| match r.rows.first().and_then(|row| row.get(0)) {
            Some(Value::Int(v)) => *v as u64,
            _ => 0,
        })
        .unwrap_or(0)
}

/// Replay `scn` end to end: traced cluster run → SLO windows → tail
/// sampling → SQL store → oracle cross-check. Deterministic in `scn`.
pub fn run_telemetry_scenario(scn: &TelemetryScenario) -> TelemetryRun {
    let arrivals = generate(&scn.traffic);
    let mut cluster = Cluster::with_telemetry(scn.cluster.clone(), scn.telemetry);

    let mut events = scn.schedule.events.clone();
    events.sort_by_key(|e| e.at_us);
    let mut next_event = 0usize;

    let mut slo = SloEngine::with_rules(
        vec![
            SloDef::latency("cluster-p99-latency", "cluster.latency_us", 0.99, scn.slo_us),
            SloDef::error_rate("cluster-availability", "cluster.failed", "cluster.requests", 0.001),
        ],
        BurnRule::classic(),
    );
    let mut next_snap_us = if scn.snapshot_every_us > 0 {
        scn.snapshot_every_us
    } else {
        u64::MAX
    };

    let mut outcomes = Vec::with_capacity(arrivals.len());
    for a in &arrivals {
        while next_event < events.len() && events[next_event].at_us <= a.at_us {
            cluster.apply_node_fault(&events[next_event].fault);
            next_event += 1;
        }
        while next_snap_us <= a.at_us {
            slo.push_snapshot(next_snap_us, &cluster.metrics.snapshot());
            next_snap_us += scn.snapshot_every_us;
        }
        outcomes.push(cluster.handle(a, None));
    }
    let last_us = arrivals.last().map_or(0, |a| a.at_us);
    if scn.snapshot_every_us > 0 {
        slo.push_snapshot(last_us.max(next_snap_us), &cluster.metrics.snapshot());
    }

    let windows = alert_windows(&slo);
    let telemetry = cluster.collect(&scn.policy, &windows);
    let usage = cluster.usage().clone();
    let tenant_view = cluster.tenant_view();

    let (ok, failed, throttled) = outcomes.iter().fold((0u64, 0u64, 0u64), |acc, o| {
        match &o.outcome {
            Outcome::Ok { .. } => (acc.0 + 1, acc.1, acc.2),
            Outcome::Unavailable(_) => (acc.0, acc.1 + 1, acc.2),
            Outcome::Throttled(_) => (acc.0, acc.1, acc.2 + 1),
        }
    });

    let mut engine = materialize_store(&telemetry, &usage);
    let sql_matches_oracle = store_matches_oracle(&mut engine, &telemetry, "node.serve", 5)
        && store_matches_oracle(&mut engine, &telemetry, "sql.execute", 5);
    let store_span_rows = count_rows(&mut engine, "obs_spans");
    let store_metric_rows = count_rows(&mut engine, "obs_metrics");
    let store_exemplar_rows = count_rows(&mut engine, "obs_exemplars");
    let store_fingerprint = engine.database().fingerprint();

    let reasons = telemetry.kept_by_reason();
    let (err_total, err_kept) = telemetry.error_retention();
    let kept_summaries = telemetry.summaries.iter().filter(|s| s.kept.is_some());
    let max_trace_nodes = kept_summaries
        .clone()
        .map(|s| s.node_count)
        .max()
        .unwrap_or(0);
    let cross_node_traces = kept_summaries.filter(|s| s.node_count >= 3).count() as u64;

    let report = TelemetryReport {
        name: scn.name.clone(),
        seed: scn.cluster.seed,
        nodes: scn.cluster.nodes,
        replication: scn.cluster.replication,
        requests: arrivals.len() as u64,
        ok,
        failed,
        throttled,
        spans_total: telemetry.spans_total,
        spans_kept: telemetry.spans_kept,
        span_budget: telemetry.span_budget,
        traces_total: telemetry.traces_total,
        traces_kept: telemetry.traces_kept,
        dropped_by_budget: telemetry.dropped_by_budget,
        dropped_by_sampling: telemetry.dropped_by_sampling,
        error_traces: err_total,
        error_traces_kept: err_kept,
        kept_error: reasons.get("error").copied().unwrap_or(0),
        kept_alert: reasons.get("alert").copied().unwrap_or(0),
        kept_slow: reasons.get("slow").copied().unwrap_or(0),
        kept_sampled: reasons.get("sampled").copied().unwrap_or(0),
        alert_windows: windows.len() as u64,
        max_trace_nodes,
        cross_node_traces,
        usage_tenants: usage.tenant_count() as u64,
        usage_tokens: usage.iter().map(|(_, u)| u.total_tokens()).sum(),
        usage_rows: usage.iter().map(|(_, u)| u.rows_written).sum(),
        store_span_rows,
        store_metric_rows,
        store_exemplar_rows,
        sql_matches_oracle,
        store_fingerprint,
    };

    TelemetryRun {
        telemetry,
        usage,
        outcomes,
        alert_windows: windows,
        tenant_view,
        report,
    }
}
