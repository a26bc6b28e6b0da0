//! The cluster gateway: sharded routing, replication, and failover.
//!
//! A [`Cluster`] fronts `N` nodes, each a full SMMF [`ApiServer`]
//! deployment on the shared simulated clock. Tenants are shard keys on a
//! [`HashRing`]; each tenant's state replicates to the `R` distinct nodes
//! of its replica set. The replication contract:
//!
//! - a request is **acknowledged** only after its [`StateOp`] is applied
//!   on every *serving* replica and the serving set is at least a
//!   majority (`R/2 + 1`) of the replica set — so an acked op always
//!   survives the loss of any minority of replicas;
//! - the **primary** is the first serving replica in ring order. With
//!   failover enabled the gateway skips dead/partitioned replicas (a
//!   primary change costs one election pause on the next request and
//!   fails back automatically on recovery); with failover disabled,
//!   requests to a down primary fail — the availability gap the bench
//!   measures;
//! - a replica that missed ops (crash, partition) **catches up** by
//!   replaying the quorum-durable log before applying fresh ops, so
//!   replicas are always contiguous prefixes of the log.
//!
//! Node faults arrive as [`NodeFault`]s from the smmf chaos harness's
//! [`NodeSchedule`]. Everything is deterministic in `(config, arrival
//! schedule, fault schedule)`.

use std::collections::{BTreeMap, BTreeSet};

use dbgpt_llm::GenerationParams;
use dbgpt_obs::{
    Collector, Metrics, Obs, ObsConfig, SamplePolicy, Span, Telemetry, UsageLedger,
};
use dbgpt_smmf::chaos::{build_deployment, PRIMARY_MODEL};
use dbgpt_smmf::{ApiServer, NodeFault, ResilienceConfig, RoutingPolicy};

use crate::admission::{AdmissionConfig, AdmissionController, FairQueue, ShedReason};
use crate::ring::HashRing;
use crate::state::{StateOp, TenantState};
use crate::traffic::{tenant_key, Arrival};

/// Histogram bounds for request latency (µs); includes the SLO targets
/// used by the bench so `count_le` is exact at the threshold.
pub const LATENCY_BOUNDS: &[u64] = &[
    5_000, 10_000, 20_000, 40_000, 60_000, 80_000, 120_000, 200_000, 400_000, 800_000, 1_600_000,
    3_200_000,
];

/// Cluster topology and policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of physical nodes.
    pub nodes: usize,
    /// Replicas per shard (1 = replication disabled).
    pub replication: usize,
    /// Virtual nodes per physical node on the ring.
    pub vnodes: usize,
    /// Skip dead primaries (true) or fail requests to them (false).
    pub failover: bool,
    /// Admission / fair-queueing policy.
    pub admission: AdmissionConfig,
    /// Master seed; node `i` derives its deployment seed from it.
    pub seed: u64,
    /// Latency penalty charged to the first request after a primary
    /// change (models election + lease handoff).
    pub election_pause_us: u64,
    /// Per-extra-replica latency overhead of synchronous replication.
    pub repl_rtt_us: u64,
}

impl ClusterConfig {
    /// One node, no replication, no metering: the configuration that
    /// must reproduce the single-server path byte-for-byte.
    pub fn single_node(seed: u64) -> Self {
        ClusterConfig {
            nodes: 1,
            replication: 1,
            vnodes: 64,
            failover: false,
            admission: AdmissionConfig::disabled(),
            seed,
            election_pause_us: 500_000,
            repl_rtt_us: 2_000,
        }
    }

    /// `nodes`×`replication` with failover on.
    pub fn replicated(nodes: usize, replication: usize, seed: u64) -> Self {
        ClusterConfig {
            nodes,
            replication: replication.min(nodes),
            failover: true,
            ..ClusterConfig::single_node(seed)
        }
    }
}

/// Cluster-wide telemetry switch. When enabled, the gateway opens a
/// `gateway.request` root span per arrival and injects its
/// [`dbgpt_obs::TraceContext`] into the wire-level `Request`; the primary
/// adopts it into a `node.serve` span on *its own* tracer (real
/// `smmf.chat` spans join via `chat_under`), and every replica's apply
/// becomes a `node.apply` span adopted from the replication hop — one
/// trace tree per request, spanning processes. Disabled (the default) is
/// byte-identical to the pre-telemetry request path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch.
    pub enabled: bool,
    /// Seed for the gateway tracer; node `i` derives its own from it.
    pub seed: u64,
}

impl TelemetryConfig {
    /// Telemetry off — the default.
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            seed: 0,
        }
    }

    /// Telemetry on, tracers seeded from `seed`.
    pub fn enabled(seed: u64) -> Self {
        TelemetryConfig {
            enabled: true,
            seed,
        }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::disabled()
    }
}

/// Build one node's SMMF deployment. Node 0 of a cluster seeded `s`
/// uses exactly `node_server(s)` — the identity anchor for the
/// single-node configuration.
pub fn node_server(seed: u64) -> ApiServer {
    build_deployment(RoutingPolicy::RoundRobin, &ResilienceConfig::disabled(), seed)
}

fn node_seed(seed: u64, node: usize) -> u64 {
    seed.wrapping_add((node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

struct Node {
    server: ApiServer,
    up: bool,
    latency_factor: f64,
    /// Simulated-clock watermark: how far this node's clock has advanced.
    last_us: u64,
    queue: FairQueue,
    /// The node's own tracer (disabled unless cluster telemetry is on).
    obs: Obs,
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Acknowledged; total latency (service + queue + election +
    /// replication overhead).
    Ok {
        /// End-to-end latency in simulated µs.
        latency_us: u64,
    },
    /// Shed by admission control (not an availability failure).
    Throttled(ShedReason),
    /// Failed: no serving primary, quorum lost, or serving error.
    Unavailable(&'static str),
}

/// One request's fate, for per-tenant analysis and identity tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Global sequence number from the arrival schedule.
    pub seq: u64,
    /// Arrival time (simulated µs).
    pub at_us: u64,
    /// Tenant rank.
    pub tenant: usize,
    /// Node that served it (None when never routed).
    pub node: Option<usize>,
    /// Result.
    pub outcome: Outcome,
}

/// End-of-run replica audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Tenants with at least one acked op.
    pub tenants: u64,
    /// Tenants whose full acked log is applied on ≥1 serving replica
    /// *without* any end-of-run catch-up — the zero-acked-loss witness.
    pub durable: u64,
    /// Serving replicas whose fingerprint disagrees with their shard's
    /// most-advanced replica after catch-up.
    pub divergent: u64,
    /// XOR-fold of one converged fingerprint per tenant.
    pub fingerprint: u64,
}

/// The sharded multi-tenant gateway.
pub struct Cluster {
    cfg: ClusterConfig,
    ring: HashRing,
    nodes: Vec<Node>,
    minority: BTreeSet<usize>,
    admission: AdmissionController,
    /// `(tenant, node)` → that replica's state.
    states: BTreeMap<(usize, usize), TenantState>,
    /// Per-tenant quorum-durable op log.
    logs: BTreeMap<usize, Vec<StateOp>>,
    /// Current primary per tenant (for election accounting).
    primaries: BTreeMap<usize, usize>,
    params: GenerationParams,
    /// Serving counters and the latency histogram (drives the SLO gate).
    pub metrics: Metrics,
    /// Primary changes observed.
    pub failovers: u64,
    /// Ops replayed from the log by lagging replicas.
    pub catchup_ops: u64,
    telemetry: TelemetryConfig,
    /// The gateway's tracer (disabled unless telemetry is on).
    gateway_obs: Obs,
    /// Per-tenant token/row/latency accounting (empty when telemetry off).
    usage: UsageLedger,
}

impl Cluster {
    /// Bring up `cfg.nodes` deployments and an empty ring membership of
    /// all of them. Telemetry is off — the byte-identity configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        Cluster::with_telemetry(cfg, TelemetryConfig::disabled())
    }

    /// [`Cluster::new`] with an explicit telemetry switch. The gateway
    /// tracer is seeded `telemetry.seed`; node `i`'s tracer derives its
    /// seed as `node_seed(telemetry.seed, i + 1)` so every tracer mints
    /// span ids from a distinct block.
    pub fn with_telemetry(cfg: ClusterConfig, telemetry: TelemetryConfig) -> Self {
        assert!(cfg.nodes >= 1, "cluster needs at least one node");
        assert!(
            (1..=cfg.nodes).contains(&cfg.replication),
            "replication must be in 1..=nodes"
        );
        let node_obs_cfg = |i: usize| {
            if telemetry.enabled {
                ObsConfig::enabled(node_seed(telemetry.seed, i + 1))
            } else {
                ObsConfig::disabled()
            }
        };
        let nodes = (0..cfg.nodes)
            .map(|i| Node {
                server: node_server(node_seed(cfg.seed, i)),
                up: true,
                latency_factor: 1.0,
                last_us: 0,
                queue: FairQueue::new(),
                obs: Obs::new(node_obs_cfg(i)),
            })
            .collect();
        Cluster {
            ring: HashRing::with_nodes(cfg.nodes, cfg.vnodes),
            nodes,
            minority: BTreeSet::new(),
            admission: AdmissionController::new(),
            states: BTreeMap::new(),
            logs: BTreeMap::new(),
            primaries: BTreeMap::new(),
            params: GenerationParams::default(),
            metrics: Metrics::new(),
            failovers: 0,
            catchup_ops: 0,
            gateway_obs: if telemetry.enabled {
                Obs::new(ObsConfig::enabled(telemetry.seed))
            } else {
                Obs::disabled()
            },
            telemetry,
            usage: UsageLedger::new(),
            cfg,
        }
    }

    /// The config this cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Ring membership (for placement inspection).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Admission shed counters.
    pub fn admission_stats(&self) -> (u64, u64) {
        (
            self.admission.shed_rate_limited,
            self.admission.shed_queue_full,
        )
    }

    /// Total acked ops across tenants.
    pub fn acked_ops(&self) -> u64 {
        self.logs.values().map(|l| l.len() as u64).sum()
    }

    /// Apply a node-level fault from a chaos schedule.
    pub fn apply_node_fault(&mut self, fault: &NodeFault) {
        match fault {
            NodeFault::CrashNode { node } => {
                if let Some(n) = self.nodes.get_mut(*node) {
                    n.up = false;
                }
            }
            NodeFault::RestartNode { node } => {
                if let Some(n) = self.nodes.get_mut(*node) {
                    n.up = true;
                }
            }
            NodeFault::SlowNode { node, factor } => {
                if let Some(n) = self.nodes.get_mut(*node) {
                    n.latency_factor = factor.max(0.0);
                }
            }
            NodeFault::Partition { minority } => {
                self.minority = minority.iter().copied().collect();
            }
            NodeFault::HealPartition => {
                self.minority.clear();
            }
        }
    }

    /// Is `node` up and on the majority side of any partition?
    pub fn serving(&self, node: usize) -> bool {
        self.nodes
            .get(node)
            .map(|n| n.up && !self.minority.contains(&node))
            .unwrap_or(false)
    }

    /// Route, admit, serve, and replicate one arrival. `profile` (when
    /// recording) receives model child spans for the flamegraph. With
    /// telemetry enabled every request additionally becomes one
    /// cross-node trace tree rooted at a `gateway.request` span.
    pub fn handle(&mut self, arrival: &Arrival, profile: Option<&Span>) -> RequestOutcome {
        let groot = if self.telemetry.enabled {
            let g = self.gateway_obs.span("gateway.request", arrival.at_us);
            g.attr("tenant", tenant_key(arrival.tenant));
            g.attr("seq", arrival.seq);
            Some(g)
        } else {
            None
        };
        let out = self.handle_inner(arrival, profile, groot.as_ref());
        if let Some(g) = groot {
            match &out.outcome {
                Outcome::Ok { latency_us } => {
                    g.attr("outcome", "ok");
                    if let Some(t) = g.trace_id() {
                        // Exemplar: the latency bucket links back to this
                        // trace, so `obs_exemplars` joins to `obs_spans`.
                        self.gateway_obs.observe_exemplar(
                            "cluster.latency_us",
                            LATENCY_BOUNDS,
                            *latency_us,
                            t,
                        );
                    }
                    g.end(arrival.at_us + latency_us);
                }
                Outcome::Throttled(_) => {
                    g.attr("outcome", "throttled");
                    g.end(arrival.at_us);
                }
                Outcome::Unavailable(why) => {
                    g.attr("outcome", format!("unavailable:{why}"));
                    g.end(arrival.at_us);
                }
            }
        }
        out
    }

    fn handle_inner(
        &mut self,
        arrival: &Arrival,
        profile: Option<&Span>,
        groot: Option<&Span>,
    ) -> RequestOutcome {
        let fail = |this: &mut Self, node, why| {
            this.metrics.counter("cluster.requests", 1);
            this.metrics.counter("cluster.failed", 1);
            if this.telemetry.enabled {
                this.usage.record_failed(&tenant_key(arrival.tenant));
            }
            RequestOutcome {
                seq: arrival.seq,
                at_us: arrival.at_us,
                tenant: arrival.tenant,
                node,
                outcome: Outcome::Unavailable(why),
            }
        };

        // Shard by the tenant carried in the wire-level request's
        // `params.tenant` — the same field a real front door would read.
        // With telemetry on, the gateway also injects its trace context
        // into the request, exactly as a remote node would receive it.
        let mut req = arrival.to_request();
        let key = req
            .tenant()
            .expect("arrival carries a tenant")
            .to_string();
        if let Some(ctx) = groot.and_then(|g| g.context(&key)) {
            req = req.with_trace_context(&ctx);
        }
        let replicas = self.ring.replicas(&key, self.cfg.replication);
        let serving_set: Vec<usize> = replicas
            .iter()
            .copied()
            .filter(|&n| self.serving(n))
            .collect();

        let primary = if self.cfg.failover {
            serving_set.first().copied()
        } else {
            replicas.first().copied().filter(|&n| self.serving(n))
        };
        let Some(primary) = primary else {
            return fail(self, None, "no-serving-primary");
        };
        let quorum = self.cfg.replication / 2 + 1;
        if serving_set.len() < quorum {
            return fail(self, Some(primary), "quorum-lost");
        }

        // Admission: bucket + bounded per-tenant queue share.
        let queued_us = if self.cfg.admission.enabled && self.cfg.admission.queueing {
            self.nodes[primary]
                .queue
                .tenant_queued_us(arrival.tenant, arrival.at_us)
        } else {
            0
        };
        if let Err(reason) =
            self.admission
                .admit(&self.cfg.admission, arrival.tenant, arrival.at_us, queued_us)
        {
            self.metrics.counter("cluster.requests", 1);
            self.metrics.counter("cluster.throttled", 1);
            if self.telemetry.enabled {
                self.usage.record_throttled(&key);
            }
            return RequestOutcome {
                seq: arrival.seq,
                at_us: arrival.at_us,
                tenant: arrival.tenant,
                node: Some(primary),
                outcome: Outcome::Throttled(reason),
            };
        }

        // Election accounting: a primary change charges one pause.
        let mut penalty_us = 0u64;
        if let Some(&old) = self.primaries.get(&arrival.tenant) {
            if old != primary {
                self.failovers += 1;
                penalty_us += self.cfg.election_pause_us;
            }
        }
        self.primaries.insert(arrival.tenant, primary);

        // The primary adopts the propagated context from the wire request
        // into a `node.serve` span on its *own* tracer — same trace id,
        // local span-id block, exactly what a remote process would do.
        let serve = match req.trace_context() {
            Some(ctx) => {
                // Keep the tracer's tick clock coherent with simulated
                // time, so tick-timestamped descendants (sql.* spans)
                // start inside this request's window, not near zero.
                self.nodes[primary].obs.advance_ticks_to(arrival.at_us);
                let s = self.nodes[primary]
                    .obs
                    .span_in_context("node.serve", arrival.at_us, &ctx);
                s.attr("node", primary);
                s
            }
            None => Span::noop(),
        };

        // Serve on the primary's deployment at the arrival's clock time.
        let node = &mut self.nodes[primary];
        let delta = arrival.at_us.saturating_sub(node.last_us);
        if delta > 0 {
            node.server.advance_clock(delta);
            node.last_us = arrival.at_us;
        }
        // With telemetry off `serve` is a no-op and this is `chat`; with
        // telemetry on, the real smmf.chat span joins the propagated trace
        // under node.serve.
        let completion =
            match node
                .server
                .chat_under(PRIMARY_MODEL, &arrival.prompt, &self.params, &serve)
            {
                Ok(c) => c,
                Err(_) => {
                    serve.attr("outcome", "err:serve");
                    serve.end(arrival.at_us);
                    return fail(self, Some(primary), "serve-error");
                }
            };
        let service_us = (completion.simulated_latency_us as f64 * node.latency_factor) as u64;
        let wait_us = if self.cfg.admission.queueing {
            node.queue.enqueue(arrival.tenant, arrival.at_us, service_us)
        } else {
            0
        };
        let repl_us = if self.cfg.replication > 1 {
            self.cfg.repl_rtt_us * (serving_set.len() as u64 - 1)
        } else {
            0
        };
        let latency_us = service_us + wait_us + penalty_us + repl_us;

        // Replicate: catch up lagging serving replicas, then apply. The
        // primary applies under its serve span; every other replica gets
        // a `cluster.replicate` hop whose context it adopts into a
        // `node.apply` span on its own tracer — so replica-side SQL work
        // lands in the same distributed trace.
        let op = StateOp {
            seq: self.logs.get(&arrival.tenant).map_or(0, |l| l.len() as u64),
            tenant: key.clone(),
            prompt: arrival.prompt.clone(),
            latency_us: completion.simulated_latency_us,
        };
        let serve_done_us = arrival.at_us + wait_us + service_us;
        let mut rows_written = 0u64;
        for &n in &serving_set {
            if n == primary {
                rows_written += self.apply_with_catchup(arrival.tenant, n, &op, &serve);
            } else if serve.is_recording() {
                let repl = serve.child("cluster.replicate", serve_done_us);
                repl.attr("to", n);
                let ctx = repl.context(&key).expect("recording span has a context");
                self.nodes[n].obs.advance_ticks_to(serve_done_us);
                let apply = self.nodes[n]
                    .obs
                    .span_in_context("node.apply", serve_done_us, &ctx);
                apply.attr("node", n);
                self.apply_with_catchup(arrival.tenant, n, &op, &apply);
                apply.end(serve_done_us + self.cfg.repl_rtt_us);
                repl.end(serve_done_us + self.cfg.repl_rtt_us);
            } else {
                self.apply_with_catchup(arrival.tenant, n, &op, &Span::noop());
            }
        }
        self.logs.entry(arrival.tenant).or_default().push(op);
        serve.end(serve_done_us);

        if let Some(root) = profile {
            if root.is_recording() {
                let admit = root.child("cluster.admit", arrival.at_us);
                admit.attr("tenant", &key);
                admit.end(arrival.at_us);
                let route = root.child("cluster.route", arrival.at_us);
                route.attr("node", primary);
                route.attr("tenant", &key);
                route.end(arrival.at_us);
                let chat = root.child("smmf.chat", arrival.at_us + wait_us);
                chat.attr("tenant", &key);
                chat.end(arrival.at_us + wait_us + service_us);
                let repl = root.child("cluster.replicate", arrival.at_us + wait_us + service_us);
                repl.attr("replicas", serving_set.len());
                repl.attr("tenant", &key);
                repl.end(arrival.at_us + wait_us + service_us + repl_us);
            }
        }

        if self.telemetry.enabled {
            self.usage.record_ok(
                &key,
                completion.usage.prompt_tokens as u64,
                completion.usage.completion_tokens as u64,
                rows_written,
                latency_us,
            );
        }
        self.metrics.counter("cluster.requests", 1);
        self.metrics.counter("cluster.ok", 1);
        self.metrics
            .observe_with("cluster.latency_us", LATENCY_BOUNDS, latency_us);
        RequestOutcome {
            seq: arrival.seq,
            at_us: arrival.at_us,
            tenant: arrival.tenant,
            node: Some(primary),
            outcome: Outcome::Ok { latency_us },
        }
    }

    fn apply_with_catchup(
        &mut self,
        tenant: usize,
        node: usize,
        op: &StateOp,
        parent: &Span,
    ) -> u64 {
        let key = tenant_key(tenant);
        let st = self
            .states
            .entry((tenant, node))
            .or_insert_with(|| TenantState::new(&key));
        if let Some(log) = self.logs.get(&tenant) {
            while (st.applied_seq as usize) < log.len() {
                st.apply(&log[st.applied_seq as usize]);
                self.catchup_ops += 1;
            }
        }
        st.apply_under(op, parent)
    }

    /// Aggregate every tracer's dump — the gateway plus one per node —
    /// through the central collector under `policy`. Traces overlapping
    /// any `alert_windows` interval are retained regardless of budget.
    pub fn collect(&self, policy: &SamplePolicy, alert_windows: &[(u64, u64)]) -> Telemetry {
        let mut c = Collector::new();
        c.add_obs("gateway", &self.gateway_obs);
        for (i, n) in self.nodes.iter().enumerate() {
            c.add_obs(&format!("node-{i:02}"), &n.obs);
        }
        c.aggregate(policy, alert_windows)
    }

    /// Per-tenant token/row/latency rollups (empty when telemetry is off).
    pub fn usage(&self) -> &UsageLedger {
        &self.usage
    }

    /// The gateway's tracer.
    pub fn gateway_obs(&self) -> &Obs {
        &self.gateway_obs
    }

    /// Node `i`'s tracer.
    pub fn node_obs(&self, i: usize) -> &Obs {
        &self.nodes[i].obs
    }

    /// The telemetry switch this cluster was built with.
    pub fn telemetry(&self) -> &TelemetryConfig {
        &self.telemetry
    }

    /// The admission layer's operator view: shed totals joined with the
    /// telemetry pipeline's per-tenant usage rollups.
    pub fn tenant_view(&self) -> String {
        self.admission.render_tenant_view(&self.usage)
    }

    /// One replica's applied position, if it exists.
    pub fn replica_applied(&self, tenant: usize, node: usize) -> Option<u64> {
        self.states.get(&(tenant, node)).map(|s| s.applied_seq)
    }

    /// Audit every shard: durability (full log on a serving replica with
    /// no further catch-up) and convergence (fingerprint agreement after
    /// letting serving stragglers replay the log).
    pub fn verify_consistency(&mut self) -> ConsistencyReport {
        let tenants: Vec<usize> = self.logs.keys().copied().collect();
        let mut durable = 0u64;
        let mut divergent = 0u64;
        let mut fingerprint = 0u64;
        for t in &tenants {
            let log_len = self.logs[t].len() as u64;
            let replicas = self.ring.replicas(&tenant_key(*t), self.cfg.replication);
            let serving: Vec<usize> = replicas
                .iter()
                .copied()
                .filter(|&n| self.serving(n))
                .collect();
            if serving.iter().any(|&n| {
                self.states
                    .get(&(*t, n))
                    .is_some_and(|s| s.applied_seq == log_len)
            }) {
                durable += 1;
            }
            // Catch up serving stragglers, then compare fingerprints.
            let mut fp: Option<u64> = None;
            for &n in &serving {
                let key = tenant_key(*t);
                let st = self
                    .states
                    .entry((*t, n))
                    .or_insert_with(|| TenantState::new(&key));
                let log = &self.logs[t];
                while (st.applied_seq as usize) < log.len() {
                    st.apply(&log[st.applied_seq as usize]);
                    self.catchup_ops += 1;
                }
                let f = st.fingerprint();
                match fp {
                    None => fp = Some(f),
                    Some(first) if first != f => divergent += 1,
                    Some(_) => {}
                }
            }
            if let Some(f) = fp {
                fingerprint ^= f.rotate_left((*t % 63) as u32);
            }
        }
        ConsistencyReport {
            tenants: tenants.len() as u64,
            durable,
            divergent,
            fingerprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, TrafficConfig};

    fn arrivals(n: usize, tenants: usize, seed: u64) -> Vec<Arrival> {
        generate(&TrafficConfig::standard(n, tenants, seed))
    }

    #[test]
    fn healthy_cluster_acks_everything() {
        let mut cl = Cluster::new(ClusterConfig::replicated(4, 2, 9));
        let mut ok = 0;
        for a in arrivals(120, 6, 9) {
            if matches!(cl.handle(&a, None).outcome, Outcome::Ok { .. }) {
                ok += 1;
            }
        }
        assert_eq!(ok, 120);
        assert_eq!(cl.acked_ops(), 120);
        let audit = cl.verify_consistency();
        assert_eq!(audit.durable, audit.tenants);
        assert_eq!(audit.divergent, 0);
    }

    #[test]
    fn crash_without_failover_fails_requests() {
        let mut cl = Cluster::new(ClusterConfig {
            failover: false,
            ..ClusterConfig::replicated(3, 2, 5)
        });
        cl.apply_node_fault(&NodeFault::CrashNode { node: 0 });
        let mut failed = 0;
        for a in arrivals(90, 6, 5) {
            if matches!(cl.handle(&a, None).outcome, Outcome::Unavailable(_)) {
                failed += 1;
            }
        }
        assert!(failed > 0, "some shard must have node 0 as primary");
    }

    #[test]
    fn crash_with_failover_keeps_serving() {
        // R=3 keeps a majority (2 of 3) through any single-node crash;
        // R=2 would stall its shards (quorum 2 of 2) — see the partition
        // test below for that behavior.
        let mut cl = Cluster::new(ClusterConfig::replicated(5, 3, 5));
        let traffic = arrivals(90, 6, 5);
        let (warm, rest) = traffic.split_at(30);
        for a in warm {
            assert!(matches!(cl.handle(a, None).outcome, Outcome::Ok { .. }));
        }
        // Crash the node that owns tenant 0's shard, so a failover is
        // guaranteed to be exercised.
        let victim = cl.ring().primary(&tenant_key(0)).unwrap();
        cl.apply_node_fault(&NodeFault::CrashNode { node: victim });
        for a in rest {
            let out = cl.handle(a, None);
            assert!(
                matches!(out.outcome, Outcome::Ok { .. }),
                "request {} failed: {:?}",
                a.seq,
                out.outcome
            );
        }
        assert!(cl.failovers > 0, "tenant 0's shard must have failed over");
    }

    #[test]
    fn partition_blocks_minority_quorum() {
        // R=2 quorum=2: shards with a replica in the minority stall.
        let mut cl = Cluster::new(ClusterConfig::replicated(4, 2, 8));
        cl.apply_node_fault(&NodeFault::Partition { minority: vec![1] });
        let outcomes: Vec<_> = arrivals(100, 8, 8)
            .iter()
            .map(|a| cl.handle(a, None).outcome.clone())
            .collect();
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, Outcome::Unavailable("quorum-lost"))));
        cl.apply_node_fault(&NodeFault::HealPartition);
        for a in arrivals(20, 8, 99) {
            assert!(matches!(cl.handle(&a, None).outcome, Outcome::Ok { .. }));
        }
    }

    #[test]
    fn restarted_replica_catches_up() {
        let mut cl = Cluster::new(ClusterConfig::replicated(3, 3, 4));
        let traffic = arrivals(120, 3, 4);
        let (first, rest) = traffic.split_at(40);
        for a in first {
            cl.handle(a, None);
        }
        cl.apply_node_fault(&NodeFault::CrashNode { node: 2 });
        let (mid, last) = rest.split_at(40);
        for a in mid {
            cl.handle(a, None);
        }
        cl.apply_node_fault(&NodeFault::RestartNode { node: 2 });
        for a in last {
            cl.handle(a, None);
        }
        assert!(cl.catchup_ops > 0, "node 2 must have replayed missed ops");
        let audit = cl.verify_consistency();
        assert_eq!(audit.divergent, 0);
        assert_eq!(audit.durable, audit.tenants);
    }

    #[test]
    fn slow_node_inflates_latency_only() {
        let mut cl = Cluster::new(ClusterConfig::replicated(2, 1, 3));
        cl.apply_node_fault(&NodeFault::SlowNode {
            node: 0,
            factor: 4.0,
        });
        let mut slowed = false;
        for a in arrivals(40, 4, 3) {
            let out = cl.handle(&a, None);
            if let (Some(0), Outcome::Ok { latency_us }) = (out.node, &out.outcome) {
                assert!(*latency_us >= 4 * 40_000, "slow node latency {latency_us}");
                slowed = true;
            }
        }
        assert!(slowed, "no request landed on the slow node");
    }
}
