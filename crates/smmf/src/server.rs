//! The API server — SMMF's deployment-layer entry point.
//!
//! "The deployment layer connects inference mechanisms with model serving
//! capabilities, incorporating an API server and a model handler" (§2.3).
//! [`ApiServer`] owns the controller and a router, and serves chat
//! requests with automatic failover. On top of the basic retry loop sits
//! the resilience layer ([`crate::resilience`]): per-worker circuit
//! breakers, exponential backoff with seeded jitter, per-request deadline
//! budgets measured in simulated µs, request hedging, load shedding, and
//! an optional fallback model tier.
//!
//! Time here is **simulated**: the server keeps a monotonic µs clock that
//! advances by each attempt's modelled latency (plus backoff pauses), and
//! callers — the chaos harness in particular — advance it further to model
//! request inter-arrival gaps. No wall clock is ever read, so a given
//! seed reproduces every decision exactly.
//!
//! Built with [`ApiServer::with_observability`], the server additionally
//! records a deterministic trace per request (`smmf.chat` root span,
//! attempt/hedge children, engine-drain spans under `chat_many`) and
//! mirrors its resilience counters into a [`dbgpt_obs`] metrics registry
//! — timestamped on the same simulated clock, so dumps are byte-identical
//! across identical runs. Every other constructor passes
//! [`ObsConfig::disabled`], which keeps the hot path byte-for-byte
//! identical to the uninstrumented server.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dbgpt_llm::catalog::{builtin_model, builtin_spec};
use dbgpt_llm::engine::{BatchEngine, EngineConfig};
use dbgpt_llm::prefix::PrefixCacheStats;
use dbgpt_llm::{Completion, GenerationParams, SharedModel};
use dbgpt_obs::hash::fnv1a;
use dbgpt_obs::{Obs, ObsConfig, Span};

use crate::controller::ModelController;
use crate::error::SmmfError;
use crate::privacy::{DeploymentMode, Locality};
use crate::resilience::{BreakerState, CircuitBreaker, ResilienceConfig, ResilienceMetrics};
use crate::rng::SplitMix64;
use crate::router::{Router, RoutingPolicy};
use crate::worker::{ModelWorker, WorkerHealth, WorkerId};

/// The SMMF API server (see module docs).
pub struct ApiServer {
    controller: ModelController,
    router: Router,
    resilience: ResilienceConfig,
    engine: EngineConfig,
    seed: u64,
    /// Simulated monotonic clock, µs.
    clock_us: AtomicU64,
    /// Per-worker circuit breakers, keyed `model/worker` (BTreeMap for
    /// deterministic iteration in state listings).
    breakers: Mutex<BTreeMap<String, CircuitBreaker>>,
    /// Requests in flight per model (admission control).
    inflight: Mutex<BTreeMap<String, u64>>,
    /// Jitter stream for backoff pauses.
    backoff_rng: Mutex<SplitMix64>,
    /// Per-worker batch engines, created lazily on first batched dispatch
    /// and keyed `model/worker` (each replica has its own KV-prefix cache,
    /// like a real serving process).
    engines: Mutex<BTreeMap<String, BatchEngine>>,
    /// Tracing + metrics handle; disabled (free) unless the server was
    /// built with [`ApiServer::with_observability`]. Spans use the
    /// simulated µs clock, so dumps are byte-identical across runs.
    obs: Obs,
    m_requests: AtomicU64,
    m_retries: AtomicU64,
    m_backoffs: AtomicU64,
    m_backoff_us: AtomicU64,
    m_deadline_exceeded: AtomicU64,
    m_shed: AtomicU64,
    m_hedges: AtomicU64,
    m_hedge_wins: AtomicU64,
    m_fallbacks: AtomicU64,
}

/// RAII admission slot: decrements the model's in-flight count on drop.
struct AdmissionGuard<'a> {
    inflight: &'a Mutex<BTreeMap<String, u64>>,
    model: String,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        if let Ok(mut m) = self.inflight.lock() {
            if let Some(c) = m.get_mut(&self.model) {
                *c = c.saturating_sub(1);
            }
        }
    }
}

impl ApiServer {
    /// Server with round-robin routing and the resilience layer off
    /// (seed-equivalent legacy behaviour).
    pub fn new(mode: DeploymentMode) -> Self {
        Self::with_policy(mode, RoutingPolicy::RoundRobin, 0)
    }

    /// Server with an explicit routing policy; resilience layer off.
    pub fn with_policy(mode: DeploymentMode, policy: RoutingPolicy, seed: u64) -> Self {
        Self::with_resilience(mode, policy, seed, ResilienceConfig::disabled())
    }

    /// Server with a routing policy and a full resilience configuration;
    /// the batch engine stays off.
    pub fn with_resilience(
        mode: DeploymentMode,
        policy: RoutingPolicy,
        seed: u64,
        resilience: ResilienceConfig,
    ) -> Self {
        Self::with_engine(mode, policy, seed, resilience, EngineConfig::disabled())
    }

    /// Full construction: routing policy, resilience configuration, and a
    /// batch-engine configuration for [`ApiServer::chat_many`]. With
    /// `EngineConfig::disabled()` every request — including `chat_many`
    /// jobs — takes exactly the sequential [`ApiServer::chat`] path.
    pub fn with_engine(
        mode: DeploymentMode,
        policy: RoutingPolicy,
        seed: u64,
        resilience: ResilienceConfig,
        engine: EngineConfig,
    ) -> Self {
        Self::with_observability(mode, policy, seed, resilience, engine, ObsConfig::disabled())
    }

    /// Everything, plus observability. With [`ObsConfig::enabled`] the
    /// server opens a `smmf.chat` / `smmf.chat_many` root span per request
    /// (attempt, hedge and engine-drain child spans below it) and mirrors
    /// the resilience counters into the metrics registry. With
    /// [`ObsConfig::disabled`] — what every other constructor passes — the
    /// hot path is byte-for-byte identical to the uninstrumented server.
    pub fn with_observability(
        mode: DeploymentMode,
        policy: RoutingPolicy,
        seed: u64,
        resilience: ResilienceConfig,
        engine: EngineConfig,
        obs: ObsConfig,
    ) -> Self {
        ApiServer {
            controller: ModelController::new(mode),
            router: Router::new(policy, seed),
            resilience,
            engine,
            seed,
            clock_us: AtomicU64::new(0),
            breakers: Mutex::new(BTreeMap::new()),
            inflight: Mutex::new(BTreeMap::new()),
            backoff_rng: Mutex::new(SplitMix64::stream(seed, 3)),
            engines: Mutex::new(BTreeMap::new()),
            obs: Obs::new(obs),
            m_requests: AtomicU64::new(0),
            m_retries: AtomicU64::new(0),
            m_backoffs: AtomicU64::new(0),
            m_backoff_us: AtomicU64::new(0),
            m_deadline_exceeded: AtomicU64::new(0),
            m_shed: AtomicU64::new(0),
            m_hedges: AtomicU64::new(0),
            m_hedge_wins: AtomicU64::new(0),
            m_fallbacks: AtomicU64::new(0),
        }
    }

    /// The controller (metadata registry).
    pub fn controller(&self) -> &ModelController {
        &self.controller
    }

    /// Mutable controller access (worker lifecycle).
    pub fn controller_mut(&mut self) -> &mut ModelController {
        &mut self.controller
    }

    /// The active resilience configuration.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// The active batch-engine configuration.
    pub fn engine_config(&self) -> &EngineConfig {
        &self.engine
    }

    /// The observability handle: traces and metrics accumulate here when
    /// the server was built with [`ApiServer::with_observability`];
    /// otherwise it is the free disabled handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Replace the observability handle — used to share one tracer and
    /// metrics registry across the whole stack (server layer, apps, AWEL,
    /// serving) so cross-crate spans land in one trace store.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Prefix-cache counters of every batch engine spun up so far, sorted
    /// by `model/worker` key (empty until the first batched dispatch).
    pub fn prefix_cache_stats(&self) -> Vec<(String, PrefixCacheStats)> {
        self.engines
            .lock()
            .expect("engines lock")
            .iter()
            .map(|(k, e)| (k.clone(), e.cache_stats()))
            .collect()
    }

    /// Current simulated time, µs.
    pub fn now_us(&self) -> u64 {
        self.clock_us.load(Ordering::Relaxed)
    }

    /// Advance the simulated clock (the chaos harness uses this to model
    /// request inter-arrival gaps; breaker cool-downs elapse against this
    /// clock).
    pub fn advance_clock(&self, us: u64) {
        self.clock_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Snapshot of the resilience counters.
    pub fn metrics(&self) -> ResilienceMetrics {
        let breaker_opens = self
            .breakers
            .lock()
            .expect("breakers lock")
            .values()
            .map(|b| b.opens())
            .sum();
        ResilienceMetrics {
            requests: self.m_requests.load(Ordering::Relaxed),
            retries: self.m_retries.load(Ordering::Relaxed),
            backoffs: self.m_backoffs.load(Ordering::Relaxed),
            backoff_us: self.m_backoff_us.load(Ordering::Relaxed),
            deadline_exceeded: self.m_deadline_exceeded.load(Ordering::Relaxed),
            shed: self.m_shed.load(Ordering::Relaxed),
            hedges: self.m_hedges.load(Ordering::Relaxed),
            hedge_wins: self.m_hedge_wins.load(Ordering::Relaxed),
            fallbacks: self.m_fallbacks.load(Ordering::Relaxed),
            breaker_opens,
        }
    }

    /// Breaker state for one worker, if a breaker exists for it yet.
    pub fn breaker_state(&self, model: &str, worker: &WorkerId) -> Option<BreakerState> {
        self.breakers
            .lock()
            .expect("breakers lock")
            .get(&breaker_key(model, worker))
            .map(|b| b.state())
    }

    /// All breaker states, sorted by `model/worker` key.
    pub fn breaker_states(&self) -> Vec<(String, BreakerState)> {
        self.breakers
            .lock()
            .expect("breakers lock")
            .iter()
            .map(|(k, b)| (k.clone(), b.state()))
            .collect()
    }

    /// Deploy `replicas` local workers of a built-in model. The hosted
    /// `proxy-gpt` model is registered with [`Locality::Remote`] —
    /// so deploying it in [`DeploymentMode::Local`] fails, which is the
    /// paper's privacy guarantee doing its job.
    pub fn deploy_builtin(&mut self, model: &str, replicas: usize) -> Result<(), SmmfError> {
        let spec = builtin_spec(model).ok_or_else(|| SmmfError::UnknownModel(model.to_string()))?;
        let locality = if spec.id.as_str() == "proxy-gpt" {
            Locality::Remote
        } else {
            Locality::Local
        };
        for i in 0..replicas.max(1) {
            let m = builtin_model(model).expect("spec exists so model exists");
            let worker =
                ModelWorker::with_faults(format!("{model}-w{i}"), m, locality, 0.0, i as u64);
            self.register_worker(worker)?;
        }
        Ok(())
    }

    /// Deploy replicas of a custom model instance (e.g. a fine-tuned
    /// Text-to-SQL model from DB-GPT-Hub). Workers are local.
    pub fn deploy_model(&mut self, model: SharedModel, replicas: usize) -> Result<(), SmmfError> {
        let name = model.id().to_string();
        for i in 0..replicas.max(1) {
            let worker = ModelWorker::new(format!("{name}-w{i}"), model.clone());
            self.register_worker(worker)?;
        }
        Ok(())
    }

    /// Register a single pre-built worker (full control: locality, faults).
    /// When a circuit breaker supervises the deployment, the worker's
    /// legacy consecutive-failure health counter is switched off so
    /// exactly one failure detector is in charge.
    pub fn register_worker(&mut self, worker: ModelWorker) -> Result<(), SmmfError> {
        if self.resilience.breaker.is_some() {
            worker.set_auto_unhealthy(false);
        }
        self.controller.register(worker)
    }

    /// Serve a chat request through the resilience pipeline: admission
    /// control, then the primary model's failover loop, then — if the
    /// primary tier is out of admissible workers or retries — the fallback
    /// model, still under the same deadline budget.
    pub fn chat(
        &self,
        model: &str,
        prompt: &str,
        params: &GenerationParams,
    ) -> Result<Completion, SmmfError> {
        self.chat_under(model, prompt, params, &Span::noop())
    }

    /// [`ApiServer::chat`] under a caller span: the `smmf.chat` span joins
    /// `parent`'s trace when the parent is recording, else it roots on this
    /// server's handle (see [`dbgpt_obs::Obs::enter_at`]) — how an
    /// app-layer request root absorbs the serving spans. Callers that want
    /// counters too should share one handle via [`ApiServer::set_obs`].
    pub fn chat_under(
        &self,
        model: &str,
        prompt: &str,
        params: &GenerationParams,
        parent: &Span,
    ) -> Result<Completion, SmmfError> {
        let started_us = self.now_us();
        let span = self.obs.enter_at(parent, "smmf.chat", started_us);
        span.attr("model", model);
        let result = self.chat_inner(model, prompt, params, &span);
        match &result {
            Ok(c) => {
                self.obs.counter("smmf.requests_ok", 1);
                span.attr("outcome", "ok");
                span.attr("prompt_tokens", c.usage.prompt_tokens);
                span.attr("completion_tokens", c.usage.completion_tokens);
            }
            Err(e) => {
                self.obs.counter("smmf.requests_err", 1);
                span.attr("outcome", e.kind());
            }
        }
        if self.obs.is_enabled() || span.is_recording() {
            let now = self.now_us();
            self.obs
                .observe("smmf.request_latency_us", now.saturating_sub(started_us));
            span.end(now);
        }
        result
    }

    /// [`ApiServer::chat`] minus the root span bookkeeping (so the span
    /// also covers shed rejections and the fallback tier).
    fn chat_inner(
        &self,
        model: &str,
        prompt: &str,
        params: &GenerationParams,
        span: &Span,
    ) -> Result<Completion, SmmfError> {
        let _slot = self.admit(model)?;
        self.m_requests.fetch_add(1, Ordering::Relaxed);
        self.obs.counter("smmf.requests", 1);
        let mut spent_us = 0u64;
        let primary = self.serve_on(model, prompt, params, &mut spent_us, span);
        match (&primary, &self.resilience.fallback_model) {
            (
                Err(SmmfError::NoHealthyWorker(_)) | Err(SmmfError::RetriesExhausted { .. }),
                Some(fallback),
            ) if fallback != model => {
                self.m_fallbacks.fetch_add(1, Ordering::Relaxed);
                self.obs.counter("smmf.fallbacks", 1);
                span.event(
                    self.now_us(),
                    format_args!("fallback tier: {model} -> {fallback}"),
                );
                self.serve_on(fallback, prompt, params, &mut spent_us, span)
            }
            _ => primary,
        }
    }

    /// Serve a batch of chat requests against one model.
    ///
    /// With the engine disabled (the default) this is exactly a loop over
    /// [`ApiServer::chat`] — same outputs, same clock advance, same
    /// metrics, byte for byte. With the engine enabled, each job is routed
    /// to a worker and inferred there as usual (fault injection, worker
    /// stats and breaker accounting all still apply), but *timing* is
    /// scheduled by that worker's [`BatchEngine`]: concurrent jobs share
    /// decode steps, shared prompt prefixes hit the worker's radix cache,
    /// and the server clock advances by the longest per-worker makespan
    /// instead of the sum of sequential latencies. Completion contents are
    /// byte-identical either way. Results come back in job order.
    pub fn chat_many(
        &self,
        model: &str,
        jobs: &[(String, GenerationParams)],
    ) -> Vec<Result<Completion, SmmfError>> {
        if !self.engine.enabled {
            return jobs
                .iter()
                .map(|(prompt, params)| self.chat(model, prompt, params))
                .collect();
        }
        self.chat_many_batched(model, jobs)
    }

    /// Names of all deployed models.
    pub fn models(&self) -> Vec<&str> {
        self.controller.models()
    }

    // ---- internals -----------------------------------------------------

    /// The engine-enabled half of [`ApiServer::chat_many`] (see its docs).
    fn chat_many_batched(
        &self,
        model: &str,
        jobs: &[(String, GenerationParams)],
    ) -> Vec<Result<Completion, SmmfError>> {
        let started_us = self.now_us();
        let span = self.obs.span("smmf.chat_many", started_us);
        span.attr("model", model);
        span.attr("jobs", jobs.len());
        let workers = match self.controller.workers(model) {
            Ok(w) => w,
            Err(_) => {
                span.attr("outcome", "unknown_model");
                span.end(self.now_us());
                return jobs
                    .iter()
                    .map(|_| Err(SmmfError::UnknownModel(model.to_string())))
                    .collect();
            }
        };
        let mut out: Vec<Option<Result<Completion, SmmfError>>> = vec![None; jobs.len()];
        let mut engines = self.engines.lock().expect("engines lock");
        // Worker key → the (engine request id, job index) pairs routed to it.
        let mut routed: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        let now = self.now_us();
        for (job_idx, (prompt, params)) in jobs.iter().enumerate() {
            self.m_requests.fetch_add(1, Ordering::Relaxed);
            self.obs.counter("smmf.requests", 1);
            let candidates: Vec<Arc<ModelWorker>> = workers
                .iter()
                .filter(|w| w.health() == WorkerHealth::Healthy)
                .filter(|w| self.breaker_admits(model, w.id(), now))
                .cloned()
                .collect();
            let Some(worker) = self.router.pick(&candidates) else {
                out[job_idx] = Some(Err(SmmfError::NoHealthyWorker(model.to_string())));
                continue;
            };
            self.breaker_on_dispatch(model, worker.id(), now);
            // The worker produces the completion with the caller's exact
            // (prompt, params) — batching never changes content, and
            // fault injection / worker stats behave as in the chat path.
            match worker.infer(prompt, params) {
                Ok(c) => {
                    self.breaker_record(model, worker.id(), true, now);
                    let key = breaker_key(model, worker.id());
                    let engine = engines.entry(key.clone()).or_insert_with(|| {
                        let mut e = BatchEngine::for_model(worker.model().clone(), self.engine);
                        e.set_obs(self.obs.clone());
                        e
                    });
                    let req_id = engine.submit_completed(prompt.clone(), Ok(c));
                    routed.entry(key).or_default().push((req_id, job_idx));
                }
                Err(e) => {
                    // Model-level rejections count as breaker successes
                    // (the replica responded), infrastructure faults don't.
                    let responded = matches!(e, SmmfError::Model(_));
                    self.breaker_record(model, worker.id(), responded, self.now_us());
                    out[job_idx] = Some(Err(e));
                }
            }
        }
        // Drain each touched engine. Workers decode in parallel, so the
        // server clock advances by the *longest* per-worker makespan.
        let mut max_makespan_us = 0u64;
        for (key, ids) in routed {
            let engine = engines.get_mut(&key).expect("engine was just touched");
            if engine.clock_us() < now {
                engine.advance_clock(now - engine.clock_us());
            }
            let (scheduled, run) = engine.run_under(&span);
            max_makespan_us = max_makespan_us.max(run.makespan_us);
            let mut by_id: BTreeMap<usize, _> =
                scheduled.into_iter().map(|s| (s.id, s)).collect();
            for (req_id, job_idx) in ids {
                let s = by_id.remove(&req_id).expect("engine returned every request");
                out[job_idx] = Some(s.result.map_err(SmmfError::Model));
            }
        }
        self.advance_clock(max_makespan_us);
        if self.obs.is_enabled() {
            self.obs.observe("smmf.chat_many.makespan_us", max_makespan_us);
            let ok = out.iter().filter(|o| matches!(o, Some(Ok(_)))).count();
            span.attr("ok", ok);
            span.attr("err", jobs.len() - ok);
            span.end(self.now_us());
        }
        out.into_iter()
            .map(|o| o.expect("every job resolved"))
            .collect()
    }

    /// Admission control: reserve an in-flight slot or shed the request.
    fn admit(&self, model: &str) -> Result<Option<AdmissionGuard<'_>>, SmmfError> {
        let Some(shed) = self.resilience.shed else {
            return Ok(None);
        };
        let mut m = self.inflight.lock().expect("inflight lock");
        let c = m.entry(model.to_string()).or_insert(0);
        if *c >= shed.max_inflight {
            self.m_shed.fetch_add(1, Ordering::Relaxed);
            self.obs.counter("smmf.shed", 1);
            return Err(SmmfError::Overloaded {
                model: model.to_string(),
                limit: shed.max_inflight,
            });
        }
        *c += 1;
        Ok(Some(AdmissionGuard {
            inflight: &self.inflight,
            model: model.to_string(),
        }))
    }

    /// The failover loop for one model tier. `spent_us` accumulates the
    /// request's simulated cost across tiers (attempt latencies, failure
    /// charges, backoff pauses) and is checked against the deadline
    /// budget before every dispatch — an unaffordable attempt is never
    /// started.
    fn serve_on(
        &self,
        model: &str,
        prompt: &str,
        params: &GenerationParams,
        spent_us: &mut u64,
        parent: &Span,
    ) -> Result<Completion, SmmfError> {
        let workers = self.controller.workers(model)?;
        let retry = &self.resilience.retry;
        let budget = self.resilience.deadline_budget_us;
        let max_attempts = retry.max_attempts.min(workers.len().max(1));
        let mut attempted: Vec<WorkerId> = Vec::new();
        let mut last: Option<SmmfError> = None;
        for attempt in 0..max_attempts {
            // Backoff before every retry (never before the first attempt).
            if attempt > 0 {
                let pause = self.jittered_backoff_us(attempt);
                if pause > 0 {
                    *spent_us += pause;
                    self.advance_clock(pause);
                    self.m_backoffs.fetch_add(1, Ordering::Relaxed);
                    self.m_backoff_us.fetch_add(pause, Ordering::Relaxed);
                    self.obs.counter("smmf.backoffs", 1);
                    self.obs.counter("smmf.backoff_us", pause);
                    parent.event(
                        self.now_us(),
                        format_args!("backoff {pause}us before attempt {}", attempt + 1),
                    );
                }
            }
            // Deadline gate: don't start an attempt the budget can't cover.
            if let Some(budget_us) = budget {
                if *spent_us >= budget_us {
                    self.m_deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                    self.obs.counter("smmf.deadline_exceeded", 1);
                    parent.event(
                        self.now_us(),
                        format_args!(
                            "deadline gate on {model}: spent {spent_us}us >= budget {budget_us}us"
                        ),
                    );
                    return Err(SmmfError::DeadlineExceeded {
                        model: model.to_string(),
                        budget_us,
                        spent_us: *spent_us,
                    });
                }
            }
            let now = self.now_us();
            let candidates: Vec<Arc<ModelWorker>> = workers
                .iter()
                .filter(|w| !(retry.exclude_attempted && attempted.contains(w.id())))
                .filter(|w| self.breaker_admits(model, w.id(), now))
                .cloned()
                .collect();
            let worker = match self.router.pick(&candidates) {
                Some(w) => w,
                None if self.resilience.breaker.is_none() && !retry.exclude_attempted => {
                    // Legacy path: everyone is out of rotation. Run health
                    // checks, the way a deployment's prober would, and
                    // retry once.
                    #[allow(clippy::unnecessary_fold)] // deliberate: probe every worker, no short-circuit
                    let any_revived = workers.iter().fold(false, |acc, w| w.probe() || acc);
                    match (any_revived, self.router.pick(workers)) {
                        (true, Some(w)) => w,
                        _ => {
                            return Err(last.unwrap_or_else(|| {
                                SmmfError::NoHealthyWorker(model.to_string())
                            }))
                        }
                    }
                }
                None => break, // every distinct worker attempted or gated off
            };
            let aspan = parent.child("smmf.attempt", now);
            aspan.attr("model", model);
            aspan.attr("worker", worker.id());
            aspan.attr("attempt", attempt + 1);
            self.breaker_on_dispatch(model, worker.id(), now);
            match worker.infer(prompt, params) {
                Ok(c) => {
                    let (c, effective_us) = self
                        .maybe_hedge(model, workers, &attempted, &worker, c, prompt, params, &aspan);
                    self.breaker_record(model, worker.id(), true, now);
                    *spent_us += effective_us;
                    self.advance_clock(effective_us);
                    aspan.attr("latency_us", effective_us);
                    // A success that lands after the deadline is still a
                    // deadline miss from the caller's point of view.
                    if let Some(budget_us) = budget {
                        if *spent_us > budget_us {
                            self.m_deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                            self.obs.counter("smmf.deadline_exceeded", 1);
                            aspan.attr("outcome", "deadline_exceeded");
                            aspan.end(self.now_us());
                            return Err(SmmfError::DeadlineExceeded {
                                model: model.to_string(),
                                budget_us,
                                spent_us: *spent_us,
                            });
                        }
                    }
                    aspan.attr("outcome", "ok");
                    aspan.end(self.now_us());
                    return Ok(c);
                }
                Err(e @ SmmfError::Model(_)) => {
                    // Caller error — failover cannot help. The replica did
                    // respond, so the breaker records a success (otherwise a
                    // half-open probe slot would be consumed with no outcome).
                    self.breaker_record(model, worker.id(), true, now);
                    aspan.attr("outcome", e.kind());
                    aspan.end(self.now_us());
                    return Err(e);
                }
                Err(e) => {
                    // A failed attempt is never free: charge its simulated
                    // cost (connect timeout / error turnaround).
                    *spent_us += retry.failure_latency_us;
                    self.advance_clock(retry.failure_latency_us);
                    self.breaker_record(model, worker.id(), false, self.now_us());
                    attempted.push(worker.id().clone());
                    if attempt + 1 < max_attempts {
                        self.m_retries.fetch_add(1, Ordering::Relaxed);
                        self.obs.counter("smmf.retries", 1);
                    }
                    aspan.attr("outcome", e.kind());
                    aspan.end(self.now_us());
                    last = Some(e);
                }
            }
        }
        match last {
            Some(e) => Err(SmmfError::RetriesExhausted {
                model: model.to_string(),
                attempts: attempted.len().max(1),
                last: e.to_string(),
            }),
            // Zero dispatches happened: nothing was admissible.
            None => Err(SmmfError::NoHealthyWorker(model.to_string())),
        }
    }

    /// Hedge a slow-but-successful response: when the primary's simulated
    /// latency exceeds the hedge delay, race the fastest other admissible
    /// worker and keep the deterministic winner (by simulated completion
    /// time). Returns the winning completion and its effective latency.
    #[allow(clippy::too_many_arguments)] // private plumbing, one call site
    fn maybe_hedge(
        &self,
        model: &str,
        workers: &[Arc<ModelWorker>],
        attempted: &[WorkerId],
        primary: &Arc<ModelWorker>,
        c: Completion,
        prompt: &str,
        params: &GenerationParams,
        parent: &Span,
    ) -> (Completion, u64) {
        let primary_us = c.simulated_latency_us;
        let Some(hedge) = self.resilience.hedge else {
            return (c, primary_us);
        };
        if primary_us <= hedge.delay_us {
            return (c, primary_us);
        }
        let now = self.now_us();
        let second = workers
            .iter()
            .filter(|w| w.id() != primary.id())
            .filter(|w| w.health() == WorkerHealth::Healthy)
            .filter(|w| !attempted.contains(w.id()))
            .filter(|w| self.breaker_admits(model, w.id(), now))
            .min_by(|a, b| {
                (a.stats().mean_latency_us(), a.id()).cmp(&(b.stats().mean_latency_us(), b.id()))
            });
        let Some(second) = second else {
            return (c, primary_us);
        };
        self.m_hedges.fetch_add(1, Ordering::Relaxed);
        self.obs.counter("smmf.hedges", 1);
        let hspan = parent.child("smmf.hedge", now);
        hspan.attr("worker", second.id());
        hspan.attr("primary_latency_us", primary_us);
        self.breaker_on_dispatch(model, second.id(), now);
        let outcome = match second.infer(prompt, params) {
            Ok(mut hedged) => {
                self.breaker_record(model, second.id(), true, now);
                let hedged_us = hedge.delay_us + hedged.simulated_latency_us;
                hspan.attr("hedged_latency_us", hedged_us);
                if hedged_us < primary_us {
                    self.m_hedge_wins.fetch_add(1, Ordering::Relaxed);
                    self.obs.counter("smmf.hedge_wins", 1);
                    hspan.attr("outcome", "win");
                    hedged.simulated_latency_us = hedged_us;
                    (hedged, hedged_us)
                } else {
                    hspan.attr("outcome", "lose");
                    (c, primary_us)
                }
            }
            Err(_) => {
                // The hedge lost outright; the primary result stands.
                self.breaker_record(model, second.id(), false, now);
                hspan.attr("outcome", "failed");
                (c, primary_us)
            }
        };
        hspan.end(now);
        outcome
    }

    /// Backoff before 1-based retry `attempt`, with seeded jitter.
    fn jittered_backoff_us(&self, attempt: usize) -> u64 {
        let retry = &self.resilience.retry;
        let base = retry.backoff_base_us(attempt);
        if base == 0 {
            return 0;
        }
        let jitter = self
            .backoff_rng
            .lock()
            .expect("backoff rng lock")
            .gen_f64(retry.jitter_frac.max(0.0));
        (base as f64 * (1.0 + jitter)) as u64
    }

    fn breaker_admits(&self, model: &str, worker: &WorkerId, now_us: u64) -> bool {
        let Some(cfg) = &self.resilience.breaker else {
            return true;
        };
        let mut map = self.breakers.lock().expect("breakers lock");
        let key = breaker_key(model, worker);
        let seed = self.seed;
        map.entry(key.clone())
            .or_insert_with(|| CircuitBreaker::new(cfg.clone(), seed ^ fnv1a(key.as_bytes())))
            .admits(now_us)
    }

    fn breaker_on_dispatch(&self, model: &str, worker: &WorkerId, now_us: u64) {
        if self.resilience.breaker.is_none() {
            return;
        }
        if let Some(b) = self
            .breakers
            .lock()
            .expect("breakers lock")
            .get_mut(&breaker_key(model, worker))
        {
            let before = b.state();
            b.on_dispatch(now_us);
            self.note_breaker_transition(before, b.state());
        }
    }

    fn breaker_record(&self, model: &str, worker: &WorkerId, success: bool, now_us: u64) {
        if self.resilience.breaker.is_none() {
            return;
        }
        if let Some(b) = self
            .breakers
            .lock()
            .expect("breakers lock")
            .get_mut(&breaker_key(model, worker))
        {
            let before = b.state();
            b.record(success, now_us);
            self.note_breaker_transition(before, b.state());
        }
    }

    /// Mirror circuit-breaker state changes into the metrics registry
    /// (a no-op branch when observability is off).
    fn note_breaker_transition(&self, before: BreakerState, after: BreakerState) {
        if before == after || !self.obs.is_enabled() {
            return;
        }
        self.obs.counter("smmf.breaker.transitions", 1);
        let name = match after {
            BreakerState::Closed => "smmf.breaker.closed",
            BreakerState::Open => "smmf.breaker.opened",
            BreakerState::HalfOpen => "smmf.breaker.half_open",
        };
        self.obs.counter(name, 1);
    }
}

fn breaker_key(model: &str, worker: &WorkerId) -> String {
    format!("{model}/{worker}")
}

impl std::fmt::Debug for ApiServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApiServer")
            .field("controller", &self.controller)
            .field("router", &self.router)
            .field("resilience", &self.resilience.label())
            .field("engine", &self.engine)
            .field("now_us", &self.now_us())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploy_and_chat() {
        let mut s = ApiServer::new(DeploymentMode::Local);
        s.deploy_builtin("sim-qwen", 2).unwrap();
        let out = s
            .chat("sim-qwen", "hello world", &GenerationParams::default())
            .unwrap();
        assert_eq!(out.model, "sim-qwen");
        assert_eq!(s.models(), vec!["sim-qwen"]);
    }

    #[test]
    fn unknown_model_rejected() {
        let s = ApiServer::new(DeploymentMode::Local);
        assert!(matches!(
            s.chat("ghost", "x", &GenerationParams::default()),
            Err(SmmfError::UnknownModel(_))
        ));
        let mut s = ApiServer::new(DeploymentMode::Local);
        assert!(s.deploy_builtin("ghost", 1).is_err());
    }

    #[test]
    fn proxy_model_blocked_in_local_mode() {
        let mut s = ApiServer::new(DeploymentMode::Local);
        let e = s.deploy_builtin("proxy-gpt", 1).unwrap_err();
        assert!(matches!(e, SmmfError::PrivacyViolation { .. }));
        // …but fine in cloud mode.
        let mut s = ApiServer::new(DeploymentMode::Cloud);
        s.deploy_builtin("proxy-gpt", 1).unwrap();
        assert!(s.chat("proxy-gpt", "hi there", &GenerationParams::default()).is_ok());
    }

    #[test]
    fn failover_rescues_flaky_worker() {
        let mut s = ApiServer::new(DeploymentMode::Local);
        // One always-failing worker plus one good one.
        let bad = ModelWorker::with_faults(
            "bad",
            dbgpt_llm::catalog::builtin_model("sim-qwen").unwrap(),
            Locality::Local,
            1.0,
            0,
        );
        s.register_worker(bad).unwrap();
        s.deploy_builtin("sim-qwen", 1).unwrap();
        // Round-robin will sometimes hit `bad` first; failover must save
        // every request.
        for _ in 0..6 {
            assert!(s
                .chat("sim-qwen", "hello again", &GenerationParams::default())
                .is_ok());
        }
    }

    #[test]
    fn all_workers_failing_exhausts_retries() {
        let mut s = ApiServer::new(DeploymentMode::Local);
        for i in 0..2 {
            let w = ModelWorker::with_faults(
                format!("bad{i}"),
                dbgpt_llm::catalog::builtin_model("sim-qwen").unwrap(),
                Locality::Local,
                1.0,
                i,
            );
            s.register_worker(w).unwrap();
        }
        let e = s
            .chat("sim-qwen", "hello", &GenerationParams::default())
            .unwrap_err();
        assert!(
            matches!(e, SmmfError::RetriesExhausted { .. } | SmmfError::NoHealthyWorker(_)),
            "{e:?}"
        );
    }

    #[test]
    fn model_errors_are_not_retried() {
        let mut s = ApiServer::new(DeploymentMode::Local);
        s.deploy_builtin("sim-qwen", 2).unwrap();
        let e = s.chat("sim-qwen", "   ", &GenerationParams::default()).unwrap_err();
        assert!(matches!(e, SmmfError::Model(_)));
        // No worker should have been damaged.
        assert!(s.controller().has_healthy_worker("sim-qwen"));
    }

    #[test]
    fn custom_model_deployment() {
        use dbgpt_llm::{SimLlm, SimModelSpec};
        use std::sync::Arc;
        let custom: dbgpt_llm::model::SharedModel =
            Arc::new(SimLlm::with_default_skills(SimModelSpec::for_tests("my-finetune")));
        let mut s = ApiServer::new(DeploymentMode::Local);
        s.deploy_model(custom, 3).unwrap();
        assert_eq!(s.controller().workers("my-finetune").unwrap().len(), 3);
        assert!(s.chat("my-finetune", "hello", &GenerationParams::default()).is_ok());
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use crate::resilience::{BreakerConfig, HedgeConfig, RetryConfig, ShedConfig};
    use dbgpt_llm::catalog::builtin_model;

    fn flaky(id: &str, rate: f64, seed: u64) -> ModelWorker {
        ModelWorker::with_faults(
            id,
            builtin_model("sim-qwen").unwrap(),
            Locality::Local,
            rate,
            seed,
        )
    }

    /// Sum of (served + failed) over a model's workers = dispatches made.
    fn dispatches(s: &ApiServer, model: &str) -> u64 {
        s.controller()
            .workers(model)
            .unwrap()
            .iter()
            .map(|w| {
                let st = w.stats();
                st.served + st.failed
            })
            .sum()
    }

    #[test]
    fn exhausted_deadline_rejects_without_dispatch() {
        let mut cfg = ResilienceConfig::full();
        cfg.deadline_budget_us = Some(0); // the budget is already gone
        let mut s =
            ApiServer::with_resilience(DeploymentMode::Local, RoutingPolicy::RoundRobin, 1, cfg);
        s.deploy_builtin("sim-qwen", 2).unwrap();
        let e = s.chat("sim-qwen", "hello", &GenerationParams::default()).unwrap_err();
        assert!(matches!(e, SmmfError::DeadlineExceeded { spent_us: 0, .. }), "{e:?}");
        assert_eq!(dispatches(&s, "sim-qwen"), 0, "no dispatch may start");
        assert_eq!(s.metrics().deadline_exceeded, 1);
    }

    #[test]
    fn deadline_budget_stops_failover_mid_request() {
        // Every worker fails; each failed attempt costs 5ms. With a 12ms
        // budget the third attempt is unaffordable (2×5ms + backoff ≥
        // 12ms) and must not be dispatched.
        let cfg = ResilienceConfig {
            breaker: None,
            retry: RetryConfig {
                max_attempts: 8,
                base_backoff_us: 1_000,
                max_backoff_us: 4_000,
                jitter_frac: 0.0,
                failure_latency_us: 5_000,
                exclude_attempted: true,
            },
            deadline_budget_us: Some(12_000),
            hedge: None,
            shed: None,
            fallback_model: None,
        };
        let mut s =
            ApiServer::with_resilience(DeploymentMode::Local, RoutingPolicy::RoundRobin, 1, cfg);
        for i in 0..4 {
            s.register_worker(flaky(&format!("bad{i}"), 1.0, i)).unwrap();
        }
        let e = s.chat("sim-qwen", "hello", &GenerationParams::default()).unwrap_err();
        assert!(matches!(e, SmmfError::DeadlineExceeded { .. }), "{e:?}");
        // Attempt 1 (5ms) + attempt 2 (5ms + 1ms backoff) = 11ms spent,
        // then 2ms more backoff puts 13 ≥ 12: exactly 2 dispatches.
        assert_eq!(dispatches(&s, "sim-qwen"), 2);
    }

    #[test]
    fn late_success_is_still_a_deadline_miss() {
        // A healthy worker whose latency exceeds the budget: the attempt
        // runs (the server can't know the future), but the result is a
        // DeadlineExceeded, not a success delivered after the caller gave up.
        let cfg = ResilienceConfig {
            deadline_budget_us: Some(1),
            retry: RetryConfig::legacy(),
            ..ResilienceConfig::disabled()
        };
        let mut s =
            ApiServer::with_resilience(DeploymentMode::Local, RoutingPolicy::RoundRobin, 1, cfg);
        s.deploy_builtin("sim-qwen", 1).unwrap();
        let e = s.chat("sim-qwen", "hello", &GenerationParams::default()).unwrap_err();
        assert!(matches!(e, SmmfError::DeadlineExceeded { budget_us: 1, .. }), "{e:?}");
        assert_eq!(dispatches(&s, "sim-qwen"), 1);
    }

    #[test]
    fn failover_never_redispatches_an_attempted_worker() {
        let cfg = ResilienceConfig {
            retry: RetryConfig {
                max_attempts: 10, // far more than the worker count
                base_backoff_us: 0,
                max_backoff_us: 0,
                jitter_frac: 0.0,
                failure_latency_us: 0,
                exclude_attempted: true,
            },
            ..ResilienceConfig::disabled()
        };
        let mut s =
            ApiServer::with_resilience(DeploymentMode::Local, RoutingPolicy::RoundRobin, 1, cfg);
        for i in 0..3 {
            s.register_worker(flaky(&format!("bad{i}"), 1.0, i)).unwrap();
        }
        let e = s.chat("sim-qwen", "hello", &GenerationParams::default()).unwrap_err();
        assert!(
            matches!(e, SmmfError::RetriesExhausted { attempts: 3, .. }),
            "each worker exactly once: {e:?}"
        );
        for w in s.controller().workers("sim-qwen").unwrap() {
            assert_eq!(w.stats().failed, 1, "worker {} re-dispatched", w.id());
        }
    }

    #[test]
    fn breaker_opens_then_recovers_through_half_open() {
        let cfg = ResilienceConfig {
            breaker: Some(BreakerConfig {
                window: 4,
                min_samples: 4,
                failure_rate_to_open: 0.75,
                open_cooldown_us: 100_000,
                cooldown_jitter_frac: 0.0,
                half_open_probes: 2,
            }),
            retry: RetryConfig {
                max_attempts: 1,
                base_backoff_us: 0,
                max_backoff_us: 0,
                jitter_frac: 0.0,
                failure_latency_us: 1_000,
                exclude_attempted: true,
            },
            ..ResilienceConfig::disabled()
        };
        let mut s =
            ApiServer::with_resilience(DeploymentMode::Local, RoutingPolicy::RoundRobin, 1, cfg);
        s.register_worker(flaky("w0", 1.0, 7)).unwrap();
        let wid = WorkerId::new("w0");
        // Four failures trip the breaker.
        for _ in 0..4 {
            let _ = s.chat("sim-qwen", "hello", &GenerationParams::default());
        }
        assert_eq!(s.breaker_state("sim-qwen", &wid), Some(BreakerState::Open));
        // While open: fail fast, no dispatch reaches the worker.
        let before = dispatches(&s, "sim-qwen");
        let e = s.chat("sim-qwen", "hello", &GenerationParams::default()).unwrap_err();
        assert!(matches!(e, SmmfError::NoHealthyWorker(_)), "{e:?}");
        assert_eq!(dispatches(&s, "sim-qwen"), before, "open gate must block");
        // The replica recovers; simulated time passes the cool-down.
        s.controller().workers("sim-qwen").unwrap()[0].set_failure_rate(0.0);
        s.advance_clock(200_000);
        assert!(s.chat("sim-qwen", "hello", &GenerationParams::default()).is_ok());
        assert_eq!(
            s.breaker_state("sim-qwen", &wid),
            Some(BreakerState::HalfOpen),
            "one probe success of two"
        );
        assert!(s.chat("sim-qwen", "hello", &GenerationParams::default()).is_ok());
        assert_eq!(s.breaker_state("sim-qwen", &wid), Some(BreakerState::Closed));
        assert_eq!(s.metrics().breaker_opens, 1);
    }

    #[test]
    fn fallback_model_serves_when_primary_tier_is_down() {
        use dbgpt_llm::{SimLlm, SimModelSpec};
        use std::sync::Arc;
        let cfg = ResilienceConfig {
            retry: RetryConfig {
                max_attempts: 4,
                base_backoff_us: 0,
                max_backoff_us: 0,
                jitter_frac: 0.0,
                failure_latency_us: 0,
                exclude_attempted: true,
            },
            fallback_model: Some("tiny-fallback".into()),
            ..ResilienceConfig::disabled()
        };
        let mut s =
            ApiServer::with_resilience(DeploymentMode::Local, RoutingPolicy::RoundRobin, 1, cfg);
        s.register_worker(flaky("dead0", 1.0, 0)).unwrap();
        s.register_worker(flaky("dead1", 1.0, 1)).unwrap();
        let tiny: dbgpt_llm::SharedModel =
            Arc::new(SimLlm::with_default_skills(SimModelSpec::for_tests("tiny-fallback")));
        s.deploy_model(tiny, 1).unwrap();
        let out = s.chat("sim-qwen", "hello", &GenerationParams::default()).unwrap();
        assert_eq!(out.model, "tiny-fallback", "degraded tier must answer");
        assert_eq!(s.metrics().fallbacks, 1);
    }

    #[test]
    fn shedding_rejects_beyond_the_inflight_limit() {
        let cfg = ResilienceConfig {
            shed: Some(ShedConfig { max_inflight: 0 }),
            ..ResilienceConfig::disabled()
        };
        let mut s =
            ApiServer::with_resilience(DeploymentMode::Local, RoutingPolicy::RoundRobin, 1, cfg);
        s.deploy_builtin("sim-qwen", 1).unwrap();
        let e = s.chat("sim-qwen", "hello", &GenerationParams::default()).unwrap_err();
        assert!(matches!(e, SmmfError::Overloaded { limit: 0, .. }), "{e:?}");
        assert_eq!(s.metrics().shed, 1);
        assert_eq!(dispatches(&s, "sim-qwen"), 0);
    }

    #[test]
    fn shedding_slot_is_released_after_each_request() {
        let cfg = ResilienceConfig {
            shed: Some(ShedConfig { max_inflight: 1 }),
            ..ResilienceConfig::disabled()
        };
        let mut s =
            ApiServer::with_resilience(DeploymentMode::Local, RoutingPolicy::RoundRobin, 1, cfg);
        s.deploy_builtin("sim-qwen", 1).unwrap();
        // Sequential requests each fit in the single slot.
        for _ in 0..5 {
            assert!(s.chat("sim-qwen", "hello", &GenerationParams::default()).is_ok());
        }
        assert_eq!(s.metrics().shed, 0);
    }

    #[test]
    fn hedge_rescues_a_slow_primary() {
        let cfg = ResilienceConfig {
            hedge: Some(HedgeConfig { delay_us: 50_000 }),
            ..ResilienceConfig::disabled()
        };
        let mut s =
            ApiServer::with_resilience(DeploymentMode::Local, RoutingPolicy::LeastLatency, 1, cfg);
        s.deploy_builtin("sim-qwen", 2).unwrap();
        // Spike replica w0 (least-latency picks it first: both cold, id order).
        s.controller().workers("sim-qwen").unwrap()[0].set_latency_factor(100.0);
        let out = s.chat("sim-qwen", "hello there", &GenerationParams::default()).unwrap();
        let m = s.metrics();
        assert_eq!(m.hedges, 1);
        assert_eq!(m.hedge_wins, 1, "the healthy replica must win the race");
        // Winner's effective latency = hedge delay + its own latency, far
        // below the spiked primary's.
        let fast = s.controller().workers("sim-qwen").unwrap()[1].stats().mean_latency_us();
        assert_eq!(out.simulated_latency_us, 50_000 + fast);
    }

    #[test]
    fn same_seed_same_outcomes() {
        let run = |seed: u64| {
            // Full mechanisms minus the deadline budget: models with large
            // simulated latencies would otherwise turn every outcome into
            // DeadlineExceeded and mask the seed-dependence this asserts.
            let mut cfg = ResilienceConfig::full();
            cfg.deadline_budget_us = None;
            let mut s = ApiServer::with_resilience(
                DeploymentMode::Local,
                RoutingPolicy::Weighted,
                seed,
                cfg,
            );
            for i in 0..3 {
                s.register_worker(flaky(&format!("w{i}"), 0.5, seed + i)).unwrap();
            }
            let mut outcomes = Vec::new();
            for _ in 0..40 {
                s.advance_clock(10_000);
                outcomes.push(
                    s.chat("sim-qwen", "hello", &GenerationParams::default())
                        .map(|c| c.simulated_latency_us)
                        .map_err(|e| e.kind()),
                );
            }
            (outcomes, s.metrics())
        };
        assert_eq!(run(11), run(11), "same seed must replay identically");
        assert_ne!(run(11).0, run(12).0, "different seed must differ");
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use dbgpt_llm::engine::EngineConfig;

    fn jobs(n: usize) -> Vec<(String, GenerationParams)> {
        let system = "### Task: chat\nYou are DB-GPT, a data analysis copilot \
                      serving the analytics team. Answer precisely.";
        (0..n)
            .map(|i| {
                (
                    format!("{system}\nUser question {i}: explain join ordering"),
                    GenerationParams::default(),
                )
            })
            .collect()
    }

    fn server_with(engine: EngineConfig) -> ApiServer {
        let mut s = ApiServer::with_engine(
            DeploymentMode::Local,
            RoutingPolicy::RoundRobin,
            1,
            ResilienceConfig::disabled(),
            engine,
        );
        s.deploy_builtin("sim-qwen", 2).unwrap();
        s
    }

    #[test]
    fn disabled_engine_chat_many_is_the_sequential_path_byte_for_byte() {
        let batch = server_with(EngineConfig::disabled());
        let type_check: &EngineConfig = batch.engine_config();
        assert!(!type_check.enabled);
        let seq = server_with(EngineConfig::disabled());
        let js = jobs(6);
        let many = batch.chat_many("sim-qwen", &js);
        let one_by_one: Vec<_> = js
            .iter()
            .map(|(p, params)| seq.chat("sim-qwen", p, params))
            .collect();
        assert_eq!(many, one_by_one, "disabled engine must change nothing");
        assert_eq!(batch.now_us(), seq.now_us(), "same clock advance");
        assert_eq!(batch.metrics(), seq.metrics());
        assert!(batch.prefix_cache_stats().is_empty(), "no engine spun up");
    }

    #[test]
    fn batched_chat_many_keeps_completions_and_compresses_time() {
        let batched = server_with(EngineConfig::full());
        let sequential = server_with(EngineConfig::disabled());
        let js = jobs(8);
        let fast = batched.chat_many("sim-qwen", &js);
        let slow = sequential.chat_many("sim-qwen", &js);
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(
                f.as_ref().unwrap(),
                s.as_ref().unwrap(),
                "batching must never change completion content"
            );
        }
        assert!(
            batched.now_us() < sequential.now_us(),
            "batched makespan {}µs must beat sequential {}µs",
            batched.now_us(),
            sequential.now_us()
        );
        let hit_tokens: u64 = batched
            .prefix_cache_stats()
            .iter()
            .map(|(_, st)| st.hit_tokens)
            .sum();
        assert!(hit_tokens > 0, "shared prompt prefixes must hit the cache");
    }

    #[test]
    fn batched_model_errors_pass_through_in_job_order() {
        let s = server_with(EngineConfig::full());
        let mut js = jobs(3);
        js.insert(1, ("   ".to_string(), GenerationParams::default()));
        let out = s.chat_many("sim-qwen", &js);
        assert_eq!(out.len(), 4);
        assert!(matches!(out[1], Err(SmmfError::Model(_))));
        for (i, r) in out.iter().enumerate() {
            if i != 1 {
                assert!(r.is_ok(), "job {i} should succeed: {r:?}");
            }
        }
    }

    #[test]
    fn batched_unknown_model_rejects_every_job() {
        let s = server_with(EngineConfig::full());
        let out = s.chat_many("ghost", &jobs(2));
        assert_eq!(out.len(), 2);
        for r in out {
            assert!(matches!(r, Err(SmmfError::UnknownModel(_))));
        }
    }

    #[test]
    fn batched_dispatch_is_deterministic() {
        let run = || {
            let s = server_with(EngineConfig::full());
            let out = s.chat_many("sim-qwen", &jobs(6));
            (
                out.into_iter().map(|r| r.unwrap().text).collect::<Vec<_>>(),
                s.now_us(),
            )
        };
        assert_eq!(run(), run(), "same seed, same batch, same schedule");
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use crate::resilience::HedgeConfig;
    use dbgpt_llm::engine::EngineConfig;

    fn observed(resilience: ResilienceConfig, engine: EngineConfig) -> ApiServer {
        let mut s = ApiServer::with_observability(
            DeploymentMode::Local,
            RoutingPolicy::LeastLatency,
            1,
            resilience,
            engine,
            ObsConfig::enabled(42),
        );
        s.deploy_builtin("sim-qwen", 2).unwrap();
        s
    }

    #[test]
    fn default_constructors_keep_observability_off() {
        let mut s = ApiServer::new(DeploymentMode::Local);
        s.deploy_builtin("sim-qwen", 1).unwrap();
        s.chat("sim-qwen", "hello", &GenerationParams::default()).unwrap();
        assert!(!s.obs().is_enabled());
        assert_eq!(s.obs().span_count(), 0);
        assert_eq!(s.obs().metrics_json(), Obs::disabled().metrics_json());
    }

    #[test]
    fn chat_records_a_root_span_with_attempt_children() {
        let s = observed(ResilienceConfig::disabled(), EngineConfig::disabled());
        s.chat("sim-qwen", "hello world", &GenerationParams::default()).unwrap();
        let spans = s.obs().finished_spans();
        let root = spans.iter().find(|r| r.name == "smmf.chat").expect("root span");
        assert_eq!(root.attr("model"), Some("sim-qwen"));
        assert_eq!(root.attr("outcome"), Some("ok"));
        let attempt = spans.iter().find(|r| r.name == "smmf.attempt").expect("attempt");
        assert_eq!(attempt.parent, Some(root.id));
        assert_eq!(attempt.attr("outcome"), Some("ok"));
        assert_eq!(s.obs().counter_value("smmf.requests"), 1);
        assert_eq!(s.obs().counter_value("smmf.requests_ok"), 1);
    }

    #[test]
    fn hedge_span_and_mirrored_counters() {
        let cfg = ResilienceConfig {
            hedge: Some(HedgeConfig { delay_us: 50_000 }),
            ..ResilienceConfig::disabled()
        };
        let s = observed(cfg, EngineConfig::disabled());
        s.controller().workers("sim-qwen").unwrap()[0].set_latency_factor(100.0);
        s.chat("sim-qwen", "hello there", &GenerationParams::default()).unwrap();
        let spans = s.obs().finished_spans();
        let hedge = spans.iter().find(|r| r.name == "smmf.hedge").expect("hedge span");
        assert_eq!(hedge.attr("outcome"), Some("win"));
        let attempt = spans.iter().find(|r| r.name == "smmf.attempt").unwrap();
        assert_eq!(hedge.parent, Some(attempt.id));
        let m = s.metrics();
        assert_eq!(s.obs().counter_value("smmf.hedges"), m.hedges);
        assert_eq!(s.obs().counter_value("smmf.hedge_wins"), m.hedge_wins);
    }

    #[test]
    fn chat_many_span_parents_the_engine_drain() {
        let s = observed(ResilienceConfig::disabled(), EngineConfig::full());
        let jobs: Vec<(String, GenerationParams)> = (0..4)
            .map(|i| (format!("shared prefix, question {i}"), GenerationParams::default()))
            .collect();
        for r in s.chat_many("sim-qwen", &jobs) {
            r.unwrap();
        }
        let spans = s.obs().finished_spans();
        let root = spans.iter().find(|r| r.name == "smmf.chat_many").expect("root");
        assert_eq!(root.attr("ok"), Some("4"));
        let drain = spans.iter().find(|r| r.name == "llm.engine.run").expect("drain");
        assert_eq!(drain.parent, Some(root.id));
        assert_eq!(s.obs().counter_value("smmf.requests"), 4);
        assert!(s.obs().counter_value("llm.engine.succeeded") >= 4);
    }

    #[test]
    fn enabled_observability_never_changes_outcomes_or_the_clock() {
        let run = |obs: ObsConfig| {
            let mut s = ApiServer::with_observability(
                DeploymentMode::Local,
                RoutingPolicy::Weighted,
                9,
                ResilienceConfig::full(),
                EngineConfig::disabled(),
                obs,
            );
            s.deploy_builtin("sim-qwen", 3).unwrap();
            let mut outcomes = Vec::new();
            for _ in 0..25 {
                s.advance_clock(5_000);
                outcomes.push(
                    s.chat("sim-qwen", "hello", &GenerationParams::default())
                        .map(|c| c.text)
                        .map_err(|e| e.kind()),
                );
            }
            (outcomes, s.now_us(), s.metrics())
        };
        assert_eq!(
            run(ObsConfig::disabled()),
            run(ObsConfig::enabled(7)),
            "observability must be invisible to request semantics"
        );
    }

    #[test]
    fn two_enabled_runs_dump_identical_bytes() {
        let run = || {
            let s = observed(ResilienceConfig::full(), EngineConfig::disabled());
            for _ in 0..10 {
                s.advance_clock(3_000);
                let _ = s.chat("sim-qwen", "hello", &GenerationParams::default());
            }
            (s.obs().trace_json(), s.obs().metrics_json())
        };
        assert_eq!(run(), run(), "same seed must dump byte-identical traces");
    }
}
