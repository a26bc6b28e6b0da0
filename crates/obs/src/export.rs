//! The SQL-queryable telemetry store.
//!
//! Turns an aggregated [`Telemetry`] + [`UsageLedger`] into plain SQL —
//! `CREATE TABLE` + `INSERT` statements over four tables — so trace
//! analytics ("top 5 slowest `sql.exec` spans per tenant") run as
//! ordinary `SELECT`s through the repository's own `dbgpt-sqlengine`,
//! and can even be asked in natural language via Chat2Data. This module
//! only *emits* statements (obs cannot depend on sqlengine — sqlengine
//! already traces through obs); the cluster layer feeds them to an
//! `Engine`.
//!
//! Tables:
//!
//! - `obs_spans(trace, span, parent, node, tenant, name, start_us,
//!   end_us, duration_us, outcome, keep_reason)` — the sampled spans.
//!   Ids are 16-char lowercase hex, so text ordering == numeric ordering.
//! - `obs_metrics(node, name, kind, value, count, sum, p50, p90, p99)` —
//!   every counter/gauge/histogram from every node's snapshot.
//! - `obs_exemplars(node, metric, bucket_le, value, trace)` — histogram
//!   bucket → representative trace links (`bucket_le = -1` is overflow).
//! - `obs_tenant_usage(tenant, requests, ok, failed, throttled,
//!   prompt_tokens, completion_tokens, rows_written, latency_sum_us,
//!   latency_max_us)` — the per-tenant accounting rollup.

use crate::collect::{Telemetry, UsageLedger};
use crate::trace::TraceContext;

/// Quote a string as a SQL literal, doubling embedded quotes.
fn lit(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('\'');
    for c in s.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
    out
}

/// `CREATE TABLE` statements for the four telemetry tables.
pub fn schema_sql() -> Vec<String> {
    vec![
        "CREATE TABLE obs_spans (trace TEXT, span TEXT, parent TEXT, node TEXT, \
         tenant TEXT, name TEXT, start_us INT, end_us INT, duration_us INT, \
         outcome TEXT, keep_reason TEXT)"
            .to_string(),
        "CREATE TABLE obs_metrics (node TEXT, name TEXT, kind TEXT, value INT, \
         count INT, sum INT, p50 INT, p90 INT, p99 INT)"
            .to_string(),
        "CREATE TABLE obs_exemplars (node TEXT, metric TEXT, bucket_le INT, \
         value INT, trace TEXT)"
            .to_string(),
        "CREATE TABLE obs_tenant_usage (tenant TEXT, requests INT, ok INT, \
         failed INT, throttled INT, prompt_tokens INT, completion_tokens INT, \
         rows_written INT, latency_sum_us INT, latency_max_us INT)"
            .to_string(),
    ]
}

/// `INSERT` statements materializing `t` + `usage` (deterministic order:
/// spans as sorted in `t`, metrics per node then name, usage per tenant).
pub fn insert_sql(t: &Telemetry, usage: &UsageLedger) -> Vec<String> {
    let mut out = Vec::new();
    // Kept spans, with their trace's keep reason denormalized on.
    let mut reason_of = std::collections::BTreeMap::new();
    for s in &t.summaries {
        if let Some(r) = s.kept {
            reason_of.insert(s.trace, r.as_str());
        }
    }
    for ts in &t.spans {
        let s = &ts.span;
        out.push(format!(
            "INSERT INTO obs_spans VALUES ({}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {})",
            lit(&TraceContext::hex(s.trace)),
            lit(&TraceContext::hex(s.id)),
            lit(&s.parent.map(TraceContext::hex).unwrap_or_default()),
            lit(&ts.node),
            lit(&ts.tenant),
            lit(&s.name),
            s.start_us,
            s.end_us,
            s.duration_us(),
            lit(s.attr("outcome").unwrap_or("")),
            lit(reason_of.get(&s.trace).copied().unwrap_or("")),
        ));
    }
    // Metric snapshots: counters, gauges, histograms per node.
    for (node, snap) in &t.metrics {
        for (name, v) in &snap.counters {
            out.push(format!(
                "INSERT INTO obs_metrics VALUES ({}, {}, 'counter', {v}, 0, 0, 0, 0, 0)",
                lit(node),
                lit(name),
            ));
        }
        for (name, v) in &snap.gauges {
            out.push(format!(
                "INSERT INTO obs_metrics VALUES ({}, {}, 'gauge', {v}, 0, 0, 0, 0, 0)",
                lit(node),
                lit(name),
            ));
        }
        for (name, h) in &snap.histograms {
            out.push(format!(
                "INSERT INTO obs_metrics VALUES ({}, {}, 'histogram', 0, {}, {}, {}, {}, {})",
                lit(node),
                lit(name),
                h.count(),
                h.sum(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            ));
            for (i, ex) in h.exemplars().iter().enumerate() {
                if let Some(e) = ex {
                    let le = h
                        .bounds()
                        .get(i)
                        .map(|b| *b as i64)
                        .unwrap_or(-1); // overflow bucket
                    out.push(format!(
                        "INSERT INTO obs_exemplars VALUES ({}, {}, {le}, {}, {})",
                        lit(node),
                        lit(name),
                        e.value,
                        lit(&TraceContext::hex(e.trace)),
                    ));
                }
            }
        }
    }
    // Per-tenant usage accounting.
    for (tenant, u) in usage.iter() {
        out.push(format!(
            "INSERT INTO obs_tenant_usage VALUES ({}, {}, {}, {}, {}, {}, {}, {}, {}, {})",
            lit(tenant),
            u.requests,
            u.ok,
            u.failed,
            u.throttled,
            u.prompt_tokens,
            u.completion_tokens,
            u.rows_written,
            u.latency_sum_us,
            u.latency_max_us,
        ));
    }
    out
}

/// Schema + inserts in one batch, ready to feed an engine statement by
/// statement.
pub fn export_sql(t: &Telemetry, usage: &UsageLedger) -> Vec<String> {
    let mut out = schema_sql();
    out.extend(insert_sql(t, usage));
    out
}

/// The canonical "top `k` slowest `name` spans for `tenant`" query —
/// ordered exactly like
/// [`Telemetry::slowest_spans_per_tenant`], so the SQL result and the
/// in-memory aggregator can be compared row by row.
pub fn slowest_spans_query(name: &str, tenant: &str, k: usize) -> String {
    format!(
        "SELECT duration_us, trace, span FROM obs_spans \
         WHERE name = {} AND tenant = {} \
         ORDER BY duration_us DESC, trace, span LIMIT {k}",
        lit(name),
        lit(tenant),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{Collector, SamplePolicy};
    use crate::trace::{Obs, ObsConfig};

    fn sample_telemetry() -> (Telemetry, UsageLedger) {
        let gw = Obs::new(ObsConfig::enabled(5));
        let root = gw.span("gateway.request", 0);
        root.attr("tenant", "tenant-000");
        root.attr("outcome", "ok");
        let child = root.child("smmf.chat", 10);
        child.end(40);
        root.end(50);
        gw.observe_exemplar("cluster.latency_us", &[100, 1000], 50, root.trace_id().unwrap());
        gw.counter("cluster.requests", 1);
        let mut c = Collector::new();
        c.add_obs("gateway", &gw);
        let t = c.aggregate(&SamplePolicy::keep_all(), &[]);
        let mut usage = UsageLedger::new();
        usage.record_ok("tenant-000", 12, 34, 1, 50);
        (t, usage)
    }

    #[test]
    fn export_emits_all_four_tables() {
        let (t, usage) = sample_telemetry();
        let stmts = export_sql(&t, &usage);
        assert!(stmts[0].starts_with("CREATE TABLE obs_spans"));
        assert_eq!(stmts.iter().filter(|s| s.starts_with("CREATE")).count(), 4);
        assert_eq!(
            stmts.iter().filter(|s| s.contains("INTO obs_spans")).count(),
            2,
            "root + child"
        );
        assert_eq!(
            stmts.iter().filter(|s| s.contains("INTO obs_exemplars")).count(),
            1
        );
        assert_eq!(
            stmts.iter().filter(|s| s.contains("INTO obs_tenant_usage")).count(),
            1
        );
        assert!(stmts.iter().any(|s| s.contains("'counter', 1")));
    }

    #[test]
    fn export_is_deterministic() {
        let run = || {
            let (t, usage) = sample_telemetry();
            export_sql(&t, &usage).join(";\n")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn literals_escape_quotes() {
        assert_eq!(lit("it's"), "'it''s'");
        assert_eq!(lit(""), "''");
    }

    #[test]
    fn slowest_query_shape() {
        let q = slowest_spans_query("sql.exec", "tenant-001", 5);
        assert!(q.contains("WHERE name = 'sql.exec' AND tenant = 'tenant-001'"));
        assert!(q.ends_with("ORDER BY duration_us DESC, trace, span LIMIT 5"));
    }
}
