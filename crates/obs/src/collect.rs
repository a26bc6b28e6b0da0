//! Per-node collectors and the deterministic central aggregator.
//!
//! Every node in a cluster owns its own [`Obs`](crate::Obs) handle; this
//! module joins those islands into one picture. A [`NodeDump`] freezes a
//! node's finished spans + metrics, a [`Collector`] gathers dumps, and
//! [`Collector::aggregate`] groups spans into **distributed traces** (by
//! the propagated trace id — see [`TraceContext`](crate::trace::TraceContext))
//! and applies **tail-based sampling**: complete traces are kept or
//! dropped *atomically* under a span budget, decided only after the whole
//! trace is visible — the policy always retains error traces, then
//! SLO-alert-correlated traces, then the slowest tail, then a seeded hash
//! sample of the rest. Dropped traffic is counted, never silent.
//!
//! Everything is deterministic: trace ordering is canonical
//! `(start, trace_id)`, the baseline sample is a SplitMix64 hash of
//! `seed ^ trace_id`, and the output [`Telemetry`] serializes to
//! byte-stable JSON.

use std::collections::{BTreeMap, BTreeSet};

use crate::hash::{mix64, GOLDEN_GAMMA};
use crate::json::ObjWriter;
use crate::metrics::MetricsSnapshot;
use crate::trace::{Obs, SpanId, SpanRecord};

/// One node's frozen telemetry: finished spans + a metrics snapshot.
#[derive(Debug, Clone)]
pub struct NodeDump {
    /// Node name, e.g. `gateway` or `node-02`.
    pub node: String,
    /// The node's finished spans (already `(trace, start, id)`-sorted).
    pub spans: Vec<SpanRecord>,
    /// The node's metrics at dump time.
    pub metrics: MetricsSnapshot,
}

impl NodeDump {
    /// Snapshot `obs` as node `node`.
    pub fn of(node: &str, obs: &Obs) -> Self {
        NodeDump {
            node: node.to_string(),
            spans: obs.finished_spans(),
            metrics: obs.metrics_snapshot(),
        }
    }
}

/// The tail-sampling policy. All decisions are per-*trace*, never
/// per-span, so a kept trace is always complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePolicy {
    /// Hard cap on spans kept in the store. Error traces are exempt from
    /// the cap (they are never dropped) but still count against it.
    pub span_budget: usize,
    /// How many of the slowest non-error traces to retain (the p99 tail).
    pub slow_quota: usize,
    /// Baseline keep rate for unremarkable traces, per mille (0..=1000).
    pub keep_per_mille: u32,
    /// Seed for the baseline sampling hash.
    pub seed: u64,
}

impl SamplePolicy {
    /// Keep everything — the policy for small runs and tests.
    pub fn keep_all() -> Self {
        SamplePolicy {
            span_budget: usize::MAX,
            slow_quota: 0,
            keep_per_mille: 1000,
            seed: 0,
        }
    }

    /// A budgeted policy with a slow-tail quota and a sparse baseline.
    pub fn budgeted(span_budget: usize, slow_quota: usize, keep_per_mille: u32, seed: u64) -> Self {
        SamplePolicy {
            span_budget,
            slow_quota,
            keep_per_mille,
            seed,
        }
    }
}

/// Why a trace survived sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KeepReason {
    /// At least one span recorded a non-ok outcome — always retained.
    Error,
    /// The trace overlaps an SLO alert's fire→resolve window.
    AlertWindow,
    /// One of the `slow_quota` slowest traces (the latency tail).
    SlowTail,
    /// Survived the seeded baseline hash sample.
    Sampled,
}

impl KeepReason {
    /// Stable lowercase token (used in JSON and the SQL store).
    pub fn as_str(&self) -> &'static str {
        match self {
            KeepReason::Error => "error",
            KeepReason::AlertWindow => "alert",
            KeepReason::SlowTail => "slow",
            KeepReason::Sampled => "sampled",
        }
    }
}

/// A kept span plus the node that recorded it and its trace's tenant.
#[derive(Debug, Clone)]
pub struct TaggedSpan {
    /// Recording node's name.
    pub node: String,
    /// Tenant of the owning trace (empty if untagged).
    pub tenant: String,
    /// The span itself.
    pub span: SpanRecord,
}

/// Aggregate facts about one distributed trace (kept for *every* trace,
/// sampled or not — summaries are cheap; spans are what the budget caps).
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// The trace id.
    pub trace: SpanId,
    /// Root span's name (earliest span's name if no root was captured).
    pub root_name: String,
    /// Tenant tag (empty if no span carried one).
    pub tenant: String,
    /// Earliest span start across all nodes.
    pub start_us: u64,
    /// Latest end minus earliest start across all nodes.
    pub duration_us: u64,
    /// Spans in the trace, across all nodes.
    pub span_count: u64,
    /// Distinct nodes that contributed spans.
    pub node_count: u64,
    /// Did any span record a failure outcome?
    pub error: bool,
    /// `Some(reason)` if the trace was kept, `None` if dropped.
    pub kept: Option<KeepReason>,
}

/// The aggregated, sampled, cluster-wide telemetry.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Kept spans, sorted `(trace, start_us, id)` — the store's contents.
    pub spans: Vec<TaggedSpan>,
    /// Per-node metric snapshots, in collection order.
    pub metrics: Vec<(String, MetricsSnapshot)>,
    /// One summary per trace (kept *and* dropped), in canonical order.
    pub summaries: Vec<TraceSummary>,
    /// The policy's span budget (`u64::MAX` for keep-all).
    pub span_budget: u64,
    /// Spans seen across all dumps.
    pub spans_total: u64,
    /// Spans kept.
    pub spans_kept: u64,
    /// Spans dropped (`total - kept`).
    pub spans_dropped: u64,
    /// Traces seen.
    pub traces_total: u64,
    /// Traces kept.
    pub traces_kept: u64,
    /// Traces dropped.
    pub traces_dropped: u64,
    /// Traces dropped because keeping them would exceed the span budget.
    pub dropped_by_budget: u64,
    /// Traces dropped by the baseline hash sample.
    pub dropped_by_sampling: u64,
}

impl Telemetry {
    /// Kept-trace counts per [`KeepReason`] token.
    pub fn kept_by_reason(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        for s in &self.summaries {
            if let Some(r) = s.kept {
                *m.entry(r.as_str()).or_insert(0) += 1;
            }
        }
        m
    }

    /// Error-trace retention check: `(errors_total, errors_kept)`.
    pub fn error_retention(&self) -> (u64, u64) {
        let total = self.summaries.iter().filter(|s| s.error).count() as u64;
        let kept = self
            .summaries
            .iter()
            .filter(|s| s.error && s.kept.is_some())
            .count() as u64;
        (total, kept)
    }

    /// The in-memory answer to "top `k` slowest `name` spans per tenant"
    /// over the *kept* spans — the oracle the SQL store is checked
    /// against. Values are `(duration_us, trace, span)` sorted slowest
    /// first, ties broken by `(trace, span)` ascending (exactly the SQL
    /// `ORDER BY duration_us DESC, trace, span`).
    pub fn slowest_spans_per_tenant(
        &self,
        name: &str,
        k: usize,
    ) -> BTreeMap<String, Vec<(u64, SpanId, SpanId)>> {
        let mut per: BTreeMap<String, Vec<(u64, SpanId, SpanId)>> = BTreeMap::new();
        for t in &self.spans {
            if t.span.name == name && !t.tenant.is_empty() {
                per.entry(t.tenant.clone()).or_default().push((
                    t.span.duration_us(),
                    t.span.trace,
                    t.span.id,
                ));
            }
        }
        for v in per.values_mut() {
            v.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| (a.1, a.2).cmp(&(b.1, b.2))));
            v.truncate(k);
        }
        per
    }

    /// Just the kept [`SpanRecord`]s (for rendering / profiling).
    pub fn merged_spans(&self) -> Vec<SpanRecord> {
        self.spans.iter().map(|t| t.span.clone()).collect()
    }

    /// Deterministic JSON of the sampling outcome (counters only — the
    /// spans themselves live in the SQL store).
    pub fn summary_json(&self) -> String {
        let mut reasons = String::from("{");
        for (i, (k, v)) in self.kept_by_reason().iter().enumerate() {
            if i > 0 {
                reasons.push(',');
            }
            reasons.push('"');
            reasons.push_str(k);
            reasons.push_str("\":");
            reasons.push_str(&v.to_string());
        }
        reasons.push('}');
        let (err_total, err_kept) = self.error_retention();
        let mut o = ObjWriter::new();
        o.u64_field("span_budget", self.span_budget)
            .u64_field("spans_total", self.spans_total)
            .u64_field("spans_kept", self.spans_kept)
            .u64_field("spans_dropped", self.spans_dropped)
            .u64_field("traces_total", self.traces_total)
            .u64_field("traces_kept", self.traces_kept)
            .u64_field("traces_dropped", self.traces_dropped)
            .u64_field("dropped_by_budget", self.dropped_by_budget)
            .u64_field("dropped_by_sampling", self.dropped_by_sampling)
            .u64_field("error_traces", err_total)
            .u64_field("error_traces_kept", err_kept)
            .raw_field("kept_by_reason", &reasons);
        o.finish()
    }
}

/// Does this span record a failure? The convention across the repo: an
/// `outcome` attribute of `ok` (or a Debug-formatted `Ok {..}`) is
/// success; anything else — `err:*`, `throttled`, `unavailable:*` — is a
/// failure. An explicit `error` attribute also counts.
fn span_is_error(s: &SpanRecord) -> bool {
    if s.attr("error").is_some() {
        return true;
    }
    match s.attr("outcome") {
        Some(v) => !(v == "ok" || v.starts_with("Ok")),
        None => false,
    }
}

/// Internal per-trace accumulation during aggregation.
struct TraceGroup {
    trace: SpanId,
    /// Indices `(dump, span)` of member spans.
    members: Vec<(usize, usize)>,
    start_us: u64,
    end_us: u64,
    tenant: String,
    root_name: String,
    root_start: u64,
    nodes: BTreeSet<usize>,
    error: bool,
}

/// Gathers [`NodeDump`]s and aggregates them (see module docs).
#[derive(Debug, Clone, Default)]
pub struct Collector {
    dumps: Vec<NodeDump>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Add a pre-built dump.
    pub fn add(&mut self, dump: NodeDump) {
        self.dumps.push(dump);
    }

    /// Snapshot `obs` as node `node` and add it.
    pub fn add_obs(&mut self, node: &str, obs: &Obs) {
        self.add(NodeDump::of(node, obs));
    }

    /// Number of dumps collected.
    pub fn len(&self) -> usize {
        self.dumps.len()
    }

    /// No dumps collected yet?
    pub fn is_empty(&self) -> bool {
        self.dumps.is_empty()
    }

    /// Group spans into distributed traces and tail-sample them under
    /// `policy`. `alert_windows` are `(fired_us, resolved_us)` intervals
    /// from the SLO engine — traces overlapping one are kept with
    /// priority right after errors.
    pub fn aggregate(&self, policy: &SamplePolicy, alert_windows: &[(u64, u64)]) -> Telemetry {
        // 1. Group member spans by trace id across every dump.
        let mut groups: BTreeMap<SpanId, TraceGroup> = BTreeMap::new();
        let mut spans_total: u64 = 0;
        for (di, dump) in self.dumps.iter().enumerate() {
            for (si, span) in dump.spans.iter().enumerate() {
                spans_total += 1;
                let g = groups.entry(span.trace).or_insert_with(|| TraceGroup {
                    trace: span.trace,
                    members: Vec::new(),
                    start_us: u64::MAX,
                    end_us: 0,
                    tenant: String::new(),
                    root_name: String::new(),
                    root_start: u64::MAX,
                    nodes: BTreeSet::new(),
                    error: false,
                });
                g.members.push((di, si));
                g.start_us = g.start_us.min(span.start_us);
                g.end_us = g.end_us.max(span.end_us);
                g.nodes.insert(di);
                g.error |= span_is_error(span);
                if g.tenant.is_empty() {
                    if let Some(t) = span.attr("tenant") {
                        g.tenant = t.to_string();
                    }
                }
                // Prefer the true root's name; fall back to the earliest span.
                if span.parent.is_none() || span.id == span.trace {
                    g.root_name = span.name.clone();
                    g.root_start = 0; // pin: nothing beats the root
                } else if span.start_us < g.root_start && g.root_start != 0 {
                    g.root_name = span.name.clone();
                    g.root_start = span.start_us;
                }
            }
        }

        // 2. Canonical trace order: (earliest start, trace id).
        let mut order: Vec<SpanId> = groups.keys().copied().collect();
        order.sort_by_key(|t| (groups[t].start_us, *t));

        // 3. Classify + sample, whole traces at a time.
        let overlaps_alert = |g: &TraceGroup| {
            alert_windows
                .iter()
                .any(|&(a, b)| g.start_us <= b && g.end_us >= a)
        };
        let mut kept: BTreeMap<SpanId, KeepReason> = BTreeMap::new();
        // Traces some pass wanted but the budget refused. A trace may be
        // refused in one pass and re-considered in a later one; it is
        // classified exactly once at the end — budget-blocked beats
        // sampled-out, so the identity `dropped_by_budget +
        // dropped_by_sampling == traces_dropped` always holds.
        let mut budget_blocked: BTreeSet<SpanId> = BTreeSet::new();
        let mut kept_spans: usize = 0;

        // Pass 1 — errors, unconditionally (they still consume budget).
        for t in &order {
            let g = &groups[t];
            if g.error {
                kept.insert(*t, KeepReason::Error);
                kept_spans += g.members.len();
            }
        }
        // Pass 2 — alert-correlated traces, budget permitting.
        for t in &order {
            let g = &groups[t];
            if !kept.contains_key(t) && overlaps_alert(g) {
                if kept_spans + g.members.len() <= policy.span_budget {
                    kept.insert(*t, KeepReason::AlertWindow);
                    kept_spans += g.members.len();
                } else {
                    budget_blocked.insert(*t);
                }
            }
        }
        // Pass 3 — the slowest tail, up to the quota.
        let mut by_slowness: Vec<SpanId> = order
            .iter()
            .copied()
            .filter(|t| !kept.contains_key(t))
            .collect();
        by_slowness.sort_by_key(|t| {
            let g = &groups[t];
            (std::cmp::Reverse(g.end_us.saturating_sub(g.start_us)), *t)
        });
        let mut slow_kept = 0usize;
        for t in &by_slowness {
            if slow_kept >= policy.slow_quota {
                break;
            }
            let g = &groups[t];
            if kept_spans + g.members.len() <= policy.span_budget {
                kept.insert(*t, KeepReason::SlowTail);
                kept_spans += g.members.len();
                slow_kept += 1;
            } else {
                budget_blocked.insert(*t);
            }
        }
        // Pass 4 — seeded baseline sample over whatever remains.
        let mut sampled_out: BTreeSet<SpanId> = BTreeSet::new();
        for t in &order {
            if kept.contains_key(t) {
                continue;
            }
            let g = &groups[t];
            if mix64((policy.seed ^ *t).wrapping_add(GOLDEN_GAMMA)) % 1000
                < policy.keep_per_mille as u64
            {
                if kept_spans + g.members.len() <= policy.span_budget {
                    kept.insert(*t, KeepReason::Sampled);
                    kept_spans += g.members.len();
                    budget_blocked.remove(t);
                } else {
                    budget_blocked.insert(*t);
                }
            } else {
                sampled_out.insert(*t);
            }
        }
        let dropped_by_budget = order
            .iter()
            .filter(|t| !kept.contains_key(t) && budget_blocked.contains(t))
            .count() as u64;
        let dropped_by_sampling = order
            .iter()
            .filter(|t| {
                !kept.contains_key(t) && !budget_blocked.contains(t) && sampled_out.contains(t)
            })
            .count() as u64;

        // 4. Materialize: kept spans (tagged) + per-trace summaries.
        let mut spans: Vec<TaggedSpan> = Vec::with_capacity(kept_spans);
        let mut summaries: Vec<TraceSummary> = Vec::with_capacity(order.len());
        for t in &order {
            let g = &groups[t];
            let reason = kept.get(t).copied();
            summaries.push(TraceSummary {
                trace: g.trace,
                root_name: g.root_name.clone(),
                tenant: g.tenant.clone(),
                start_us: g.start_us,
                duration_us: g.end_us.saturating_sub(g.start_us),
                span_count: g.members.len() as u64,
                node_count: g.nodes.len() as u64,
                error: g.error,
                kept: reason,
            });
            if reason.is_some() {
                for &(di, si) in &g.members {
                    spans.push(TaggedSpan {
                        node: self.dumps[di].node.clone(),
                        tenant: g.tenant.clone(),
                        span: self.dumps[di].spans[si].clone(),
                    });
                }
            }
        }
        spans.sort_by(|a, b| {
            (a.span.trace, a.span.start_us, a.span.id).cmp(&(
                b.span.trace,
                b.span.start_us,
                b.span.id,
            ))
        });

        let traces_total = order.len() as u64;
        let traces_kept = kept.len() as u64;
        Telemetry {
            spans,
            metrics: self
                .dumps
                .iter()
                .map(|d| (d.node.clone(), d.metrics.clone()))
                .collect(),
            summaries,
            span_budget: if policy.span_budget == usize::MAX {
                u64::MAX
            } else {
                policy.span_budget as u64
            },
            spans_total,
            spans_kept: kept_spans as u64,
            spans_dropped: spans_total - kept_spans as u64,
            traces_total,
            traces_kept,
            traces_dropped: traces_total - traces_kept,
            dropped_by_budget,
            dropped_by_sampling,
        }
    }
}

/// Keep only spans of traces whose **root** span carries `key == value` —
/// e.g. a per-tenant flamegraph cut from one merged dump:
/// `filter_by_root_attr(&spans, "tenant", "tenant-003")`.
pub fn filter_by_root_attr(spans: &[SpanRecord], key: &str, value: &str) -> Vec<SpanRecord> {
    let matching: BTreeSet<SpanId> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.attr(key) == Some(value))
        .map(|s| s.trace)
        .collect();
    spans
        .iter()
        .filter(|s| matching.contains(&s.trace))
        .cloned()
        .collect()
}

/// Per-tenant usage rollup for one tenant (all counters cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Requests routed for the tenant (any outcome).
    pub requests: u64,
    /// Requests acknowledged OK.
    pub ok: u64,
    /// Requests failed (unavailable, upstream error).
    pub failed: u64,
    /// Requests shed by admission control.
    pub throttled: u64,
    /// LLM prompt tokens consumed (from `llm::Usage`).
    pub prompt_tokens: u64,
    /// LLM completion tokens generated.
    pub completion_tokens: u64,
    /// Rows written into the tenant's SQL shard (sql.exec counters).
    pub rows_written: u64,
    /// Sum of acknowledged request latencies, µs.
    pub latency_sum_us: u64,
    /// Largest acknowledged request latency, µs.
    pub latency_max_us: u64,
}

impl TenantUsage {
    /// Total LLM tokens (prompt + completion).
    pub fn total_tokens(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }

    /// Mean acknowledged latency, µs (0 when no request succeeded).
    pub fn latency_mean_us(&self) -> u64 {
        self.latency_sum_us.checked_div(self.ok).unwrap_or(0)
    }
}

/// Per-tenant usage accounting — token/row/latency rollups the admission
/// layer can read back to see *who* is consuming the cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UsageLedger {
    tenants: BTreeMap<String, TenantUsage>,
}

impl UsageLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        UsageLedger::default()
    }

    /// Record one acknowledged request.
    pub fn record_ok(
        &mut self,
        tenant: &str,
        prompt_tokens: u64,
        completion_tokens: u64,
        rows_written: u64,
        latency_us: u64,
    ) {
        let u = self.tenants.entry(tenant.to_string()).or_default();
        u.requests += 1;
        u.ok += 1;
        u.prompt_tokens += prompt_tokens;
        u.completion_tokens += completion_tokens;
        u.rows_written += rows_written;
        u.latency_sum_us += latency_us;
        u.latency_max_us = u.latency_max_us.max(latency_us);
    }

    /// Record one failed request.
    pub fn record_failed(&mut self, tenant: &str) {
        let u = self.tenants.entry(tenant.to_string()).or_default();
        u.requests += 1;
        u.failed += 1;
    }

    /// Record one admission-shed request.
    pub fn record_throttled(&mut self, tenant: &str) {
        let u = self.tenants.entry(tenant.to_string()).or_default();
        u.requests += 1;
        u.throttled += 1;
    }

    /// One tenant's rollup.
    pub fn get(&self, tenant: &str) -> Option<&TenantUsage> {
        self.tenants.get(tenant)
    }

    /// Iterate tenants in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &TenantUsage)> {
        self.tenants.iter()
    }

    /// Number of tenants with any recorded usage.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Deterministic JSON: `{"tenant-000":{...},...}` with fixed fields.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, u)) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::json::write_str(&mut out, k);
            out.push(':');
            let mut o = ObjWriter::new();
            o.u64_field("requests", u.requests)
                .u64_field("ok", u.ok)
                .u64_field("failed", u.failed)
                .u64_field("throttled", u.throttled)
                .u64_field("prompt_tokens", u.prompt_tokens)
                .u64_field("completion_tokens", u.completion_tokens)
                .u64_field("rows_written", u.rows_written)
                .u64_field("latency_sum_us", u.latency_sum_us)
                .u64_field("latency_max_us", u.latency_max_us);
            out.push_str(&o.finish());
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Obs, ObsConfig};

    /// Build a gateway + two nodes, `n` traces; trace `i` is an error when
    /// `i % err_every == 0` (err_every = 0 disables errors).
    fn cluster_dumps(n: u64, err_every: u64) -> (Collector, Vec<SpanId>) {
        let gw = Obs::new(ObsConfig::enabled(1));
        let n0 = Obs::new(ObsConfig::enabled(2));
        let n1 = Obs::new(ObsConfig::enabled(3));
        let mut roots = Vec::new();
        for i in 0..n {
            let at = i * 100;
            let root = gw.span("gateway.request", at);
            root.attr("tenant", format!("tenant-{:03}", i % 3));
            let ctx = root.context(&format!("tenant-{:03}", i % 3)).unwrap();
            let node = if i % 2 == 0 { &n0 } else { &n1 };
            let serve = node.span_in_context("node.serve", at + 5, &ctx);
            let is_err = err_every != 0 && i % err_every == 0;
            serve.attr("outcome", if is_err { "err:boom" } else { "ok" });
            serve.end(at + 5 + 10 + i); // duration grows with i
            root.attr("outcome", if is_err { "err:boom" } else { "ok" });
            root.end(at + 20 + i);
            roots.push(root.id().unwrap());
        }
        let mut c = Collector::new();
        c.add_obs("gateway", &gw);
        c.add_obs("node-00", &n0);
        c.add_obs("node-01", &n1);
        (c, roots)
    }

    #[test]
    fn keep_all_joins_cross_node_traces() {
        let (c, roots) = cluster_dumps(4, 0);
        let t = c.aggregate(&SamplePolicy::keep_all(), &[]);
        assert_eq!(t.traces_total, 4);
        assert_eq!(t.traces_kept, 4);
        assert_eq!(t.spans_total, 8, "root + serve per trace");
        assert_eq!(t.spans_dropped, 0);
        for s in &t.summaries {
            assert_eq!(s.span_count, 2);
            assert_eq!(s.node_count, 2, "gateway + one node");
            assert!(roots.contains(&s.trace));
            assert!(!s.tenant.is_empty());
            assert_eq!(s.root_name, "gateway.request");
        }
    }

    #[test]
    fn errors_survive_any_budget_and_drops_are_counted() {
        let (c, _) = cluster_dumps(10, 5); // traces 0 and 5 are errors
        let policy = SamplePolicy::budgeted(6, 1, 0, 42);
        let t = c.aggregate(&policy, &[]);
        let (err_total, err_kept) = t.error_retention();
        assert_eq!(err_total, 2);
        assert_eq!(err_kept, 2, "error traces are never dropped");
        assert!(t.spans_kept <= 6, "store stays under the budget");
        assert!(t.spans_dropped > 0);
        assert_eq!(t.traces_kept + t.traces_dropped, t.traces_total);
        assert_eq!(
            t.dropped_by_budget + t.dropped_by_sampling,
            t.traces_dropped,
            "every dropped trace is accounted for"
        );
        // The slow-tail pick is the slowest non-error trace (trace 9).
        let slow: Vec<_> = t
            .summaries
            .iter()
            .filter(|s| s.kept == Some(KeepReason::SlowTail))
            .collect();
        assert_eq!(slow.len(), 1);
        let max_dur = t
            .summaries
            .iter()
            .filter(|s| !s.error)
            .map(|s| s.duration_us)
            .max()
            .unwrap();
        assert_eq!(slow[0].duration_us, max_dur);
    }

    #[test]
    fn traces_are_kept_or_dropped_atomically() {
        let (c, _) = cluster_dumps(10, 0);
        let t = c.aggregate(&SamplePolicy::budgeted(7, 2, 500, 7), &[]);
        // Every kept trace contributes *all* of its spans.
        let mut per_trace: BTreeMap<SpanId, usize> = BTreeMap::new();
        for s in &t.spans {
            *per_trace.entry(s.span.trace).or_insert(0) += 1;
        }
        for (trace, n) in per_trace {
            let summary = t.summaries.iter().find(|s| s.trace == trace).unwrap();
            assert_eq!(n as u64, summary.span_count, "no partial traces");
        }
    }

    #[test]
    fn alert_windows_prioritize_overlapping_traces() {
        let (c, _) = cluster_dumps(6, 0);
        // Trace i spans [i*100, i*100+20+i]; alert window covers trace 3 only.
        let t = c.aggregate(&SamplePolicy::budgeted(4, 0, 0, 1), &[(300, 330)]);
        let kept: Vec<_> = t.summaries.iter().filter(|s| s.kept.is_some()).collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].kept, Some(KeepReason::AlertWindow));
        assert_eq!(kept[0].start_us, 300);
    }

    #[test]
    fn aggregation_is_deterministic() {
        let run = || {
            let (c, _) = cluster_dumps(20, 7);
            c.aggregate(&SamplePolicy::budgeted(20, 3, 250, 99), &[(100, 400)])
                .summary_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn slowest_per_tenant_orders_and_truncates() {
        let (c, _) = cluster_dumps(9, 0);
        let t = c.aggregate(&SamplePolicy::keep_all(), &[]);
        let per = t.slowest_spans_per_tenant("node.serve", 2);
        assert_eq!(per.len(), 3, "three tenants");
        for (_, rows) in per {
            assert_eq!(rows.len(), 2);
            assert!(rows[0].0 >= rows[1].0, "slowest first");
        }
    }

    #[test]
    fn filter_by_root_attr_cuts_one_tenant() {
        let (c, _) = cluster_dumps(6, 0);
        let t = c.aggregate(&SamplePolicy::keep_all(), &[]);
        let all = t.merged_spans();
        let one = filter_by_root_attr(&all, "tenant", "tenant-001");
        assert!(!one.is_empty());
        assert!(one.len() < all.len());
        let traces: BTreeSet<_> = one.iter().map(|s| s.trace).collect();
        for s in &t.summaries {
            assert_eq!(
                traces.contains(&s.trace),
                s.tenant == "tenant-001",
                "exactly the tenant's traces survive the cut"
            );
        }
    }

    #[test]
    fn usage_ledger_rolls_up_and_serializes() {
        let mut l = UsageLedger::new();
        l.record_ok("tenant-001", 10, 20, 1, 500);
        l.record_ok("tenant-001", 5, 5, 1, 1500);
        l.record_failed("tenant-001");
        l.record_throttled("tenant-000");
        let u = l.get("tenant-001").unwrap();
        assert_eq!(u.requests, 3);
        assert_eq!(u.ok, 2);
        assert_eq!(u.total_tokens(), 40);
        assert_eq!(u.rows_written, 2);
        assert_eq!(u.latency_mean_us(), 1000);
        assert_eq!(u.latency_max_us, 1500);
        assert_eq!(l.tenant_count(), 2);
        let json = l.to_json();
        assert!(json.starts_with("{\"tenant-000\":{\"requests\":1,"));
        assert_eq!(json, l.clone().to_json());
    }
}
