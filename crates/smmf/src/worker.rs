//! The model worker: one serving replica.
//!
//! "the model worker establishes connectivity with inference and
//! infrastructure, ensuring efficient model operation" (§2.3). A worker
//! wraps one model instance and adds the serving concerns the controller
//! cares about: health, load/latency accounting, and — for resilience
//! experiments (E2) — seeded failure injection that makes a configurable
//! fraction of requests fail like real infrastructure does.
//!
//! For chaos scenarios the fault surface is dynamic: the failure rate can
//! be changed mid-run, the worker can be hard-crashed (it fails every
//! request until restored, the way a dead host with a stale registration
//! does), and a latency factor can simulate a degraded replica. All
//! randomness comes from two *independent* seeded streams — one for
//! request-level faults, one for health probes — so probing a worker never
//! perturbs the request-level fault sequence.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use dbgpt_llm::{Completion, GenerationParams, SharedModel};

use crate::error::SmmfError;
use crate::privacy::Locality;
use crate::rng::SplitMix64;

/// Stable worker identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub String);

impl WorkerId {
    /// Construct from anything string-like.
    pub fn new(s: impl Into<String>) -> Self {
        WorkerId(s.into())
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Worker lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerHealth {
    /// Accepting requests.
    Healthy,
    /// Finishing in-flight work; no new requests.
    Draining,
    /// Out of rotation after repeated failures.
    Unhealthy,
}

/// Point-in-time serving statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Requests served successfully.
    pub served: u64,
    /// Requests that failed (injected faults or model errors).
    pub failed: u64,
    /// Sum of simulated latencies over successful requests, µs.
    pub total_latency_us: u64,
}

impl WorkerStats {
    /// Mean simulated latency per successful request, µs (0 if none).
    pub fn mean_latency_us(&self) -> u64 {
        self.total_latency_us.checked_div(self.served).unwrap_or(0)
    }
}

/// Consecutive failures before a worker marks itself
/// [`WorkerHealth::Unhealthy`] — the legacy coarse health mechanism, used
/// when no circuit breaker supervises the worker (see
/// [`ModelWorker::set_auto_unhealthy`]).
const FAILURE_THRESHOLD: u32 = 3;

/// Salt for the probe RNG stream (distinct from the request-fault stream).
const PROBE_STREAM_SALT: u64 = 0x0050_524f_4245; // "PROBE"

/// A serving replica (see module docs).
pub struct ModelWorker {
    id: WorkerId,
    model: SharedModel,
    locality: Locality,
    health: Mutex<WorkerHealth>,
    consecutive_failures: Mutex<u32>,
    /// When `false`, the legacy consecutive-failure counter no longer
    /// flips health to Unhealthy — a circuit breaker owns failure
    /// detection instead.
    auto_unhealthy: AtomicBool,
    /// Probability a request fails with an infrastructure fault
    /// (changeable mid-run by chaos schedules).
    failure_rate: Mutex<f64>,
    /// Hard-down: every request fails until [`ModelWorker::restore`].
    crashed: AtomicBool,
    /// Multiplier applied to simulated latency (chaos latency spikes).
    latency_factor: Mutex<f64>,
    /// Request-level fault stream.
    rng: Mutex<SplitMix64>,
    /// Independent probe stream (probing must not consume request draws).
    probe_rng: Mutex<SplitMix64>,
    served: AtomicU64,
    failed: AtomicU64,
    total_latency_us: AtomicU64,
}

impl ModelWorker {
    /// A local worker with no fault injection.
    pub fn new(id: impl Into<String>, model: SharedModel) -> Self {
        Self::with_faults(id, model, Locality::Local, 0.0, 0)
    }

    /// Full construction: locality plus a seeded failure rate.
    pub fn with_faults(
        id: impl Into<String>,
        model: SharedModel,
        locality: Locality,
        failure_rate: f64,
        seed: u64,
    ) -> Self {
        ModelWorker {
            id: WorkerId::new(id),
            model,
            locality,
            health: Mutex::new(WorkerHealth::Healthy),
            consecutive_failures: Mutex::new(0),
            auto_unhealthy: AtomicBool::new(true),
            failure_rate: Mutex::new(failure_rate.clamp(0.0, 1.0)),
            crashed: AtomicBool::new(false),
            latency_factor: Mutex::new(1.0),
            rng: Mutex::new(SplitMix64::stream(seed, 0)),
            probe_rng: Mutex::new(SplitMix64::stream(seed, PROBE_STREAM_SALT)),
            served: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            total_latency_us: AtomicU64::new(0),
        }
    }

    /// Worker id.
    pub fn id(&self) -> &WorkerId {
        &self.id
    }

    /// The model this worker serves.
    pub fn model(&self) -> &SharedModel {
        &self.model
    }

    /// Where the worker runs.
    pub fn locality(&self) -> Locality {
        self.locality
    }

    /// Current health.
    pub fn health(&self) -> WorkerHealth {
        *self.health.lock().expect("health lock")
    }

    /// Begin draining (no new requests; used for graceful scale-down).
    pub fn drain(&self) {
        *self.health.lock().expect("health lock") = WorkerHealth::Draining;
    }

    /// Return a drained/unhealthy worker to rotation.
    pub fn revive(&self) {
        *self.health.lock().expect("health lock") = WorkerHealth::Healthy;
        *self.consecutive_failures.lock().expect("cf lock") = 0;
    }

    /// Enable/disable the legacy consecutive-failure health transition.
    /// [`crate::ApiServer`] disables it when a circuit breaker supervises
    /// the worker, so exactly one failure detector is in charge.
    pub fn set_auto_unhealthy(&self, enabled: bool) {
        self.auto_unhealthy.store(enabled, Ordering::Relaxed);
    }

    /// Current failure-injection rate.
    pub fn failure_rate(&self) -> f64 {
        *self.failure_rate.lock().expect("failure_rate lock")
    }

    /// Change the failure-injection rate mid-run (chaos schedules).
    pub fn set_failure_rate(&self, rate: f64) {
        *self.failure_rate.lock().expect("failure_rate lock") = rate.clamp(0.0, 1.0);
    }

    /// Multiply simulated latency by `factor` (chaos latency spikes;
    /// `1.0` restores normal speed).
    pub fn set_latency_factor(&self, factor: f64) {
        *self.latency_factor.lock().expect("latency_factor lock") = factor.max(0.0);
    }

    /// Hard-crash the worker: every request fails with a
    /// [`SmmfError::WorkerFailure`] and probes stay negative until
    /// [`ModelWorker::restore`]. Health is *not* flipped here — detecting
    /// the crash is the failure detector's job, exactly as with a real
    /// dead host whose registration is still live.
    pub fn crash(&self) {
        self.crashed.store(true, Ordering::Relaxed);
    }

    /// Undo [`ModelWorker::crash`]: the process is back; health recovery
    /// still goes through probing / breaker half-open as usual.
    pub fn restore(&self) {
        self.crashed.store(false, Ordering::Relaxed);
    }

    /// Is the worker hard-crashed?
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Health-check the worker. Crashed workers always fail the probe. An
    /// unhealthy worker's probe succeeds unless the injected fault fires,
    /// and a passing probe returns the worker to rotation. Draining
    /// workers are left alone (graceful shutdown is deliberate). Returns
    /// whether the worker is healthy afterwards.
    ///
    /// Probes draw from their own seeded stream, so interleaving probes
    /// with requests never changes request outcomes (regression-tested in
    /// `probe_tests::probing_does_not_perturb_infer_outcomes`).
    pub fn probe(&self) -> bool {
        if self.is_crashed() {
            return false;
        }
        match self.health() {
            WorkerHealth::Healthy => true,
            WorkerHealth::Draining => false,
            WorkerHealth::Unhealthy => {
                let rate = self.failure_rate();
                let fault =
                    rate > 0.0 && self.probe_rng.lock().expect("probe rng lock").gen_bool(rate);
                if !fault {
                    self.revive();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Serving statistics snapshot.
    pub fn stats(&self) -> WorkerStats {
        WorkerStats {
            served: self.served.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            total_latency_us: self.total_latency_us.load(Ordering::Relaxed),
        }
    }

    /// Serve one request.
    pub fn infer(&self, prompt: &str, params: &GenerationParams) -> Result<Completion, SmmfError> {
        if self.health() != WorkerHealth::Healthy {
            return Err(SmmfError::NoHealthyWorker(self.model.id().to_string()));
        }
        if self.is_crashed() {
            self.record_failure();
            return Err(SmmfError::WorkerFailure {
                worker: self.id.to_string(),
                cause: "simulated crash (host down)".into(),
            });
        }
        // Injected infrastructure fault?
        let rate = self.failure_rate();
        if rate > 0.0 && self.rng.lock().expect("rng lock").gen_bool(rate) {
            self.record_failure();
            return Err(SmmfError::WorkerFailure {
                worker: self.id.to_string(),
                cause: "injected infrastructure fault".into(),
            });
        }
        match self.model.generate(prompt, params) {
            Ok(mut c) => {
                let factor = *self.latency_factor.lock().expect("latency_factor lock");
                if factor != 1.0 {
                    c.simulated_latency_us = (c.simulated_latency_us as f64 * factor) as u64;
                }
                self.served.fetch_add(1, Ordering::Relaxed);
                self.total_latency_us
                    .fetch_add(c.simulated_latency_us, Ordering::Relaxed);
                *self.consecutive_failures.lock().expect("cf lock") = 0;
                Ok(c)
            }
            Err(e) => {
                // Model-level errors (bad prompt) are the caller's fault and
                // do not damage worker health.
                self.failed.fetch_add(1, Ordering::Relaxed);
                Err(SmmfError::Model(e))
            }
        }
    }

    fn record_failure(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut cf = self.consecutive_failures.lock().expect("cf lock");
        *cf += 1;
        if *cf >= FAILURE_THRESHOLD && self.auto_unhealthy.load(Ordering::Relaxed) {
            *self.health.lock().expect("health lock") = WorkerHealth::Unhealthy;
        }
    }
}

impl fmt::Debug for ModelWorker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelWorker")
            .field("id", &self.id)
            .field("model", &self.model.id().to_string())
            .field("locality", &self.locality)
            .field("health", &self.health())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgpt_llm::catalog::builtin_model;

    fn worker() -> ModelWorker {
        ModelWorker::new("w0", builtin_model("sim-qwen").unwrap())
    }

    #[test]
    fn serves_and_accounts() {
        let w = worker();
        let out = w.infer("hello there", &GenerationParams::default()).unwrap();
        assert!(!out.text.is_empty());
        let s = w.stats();
        assert_eq!(s.served, 1);
        assert_eq!(s.failed, 0);
        assert!(s.total_latency_us > 0);
        assert_eq!(s.mean_latency_us(), s.total_latency_us);
    }

    #[test]
    fn draining_rejects_requests() {
        let w = worker();
        w.drain();
        assert_eq!(w.health(), WorkerHealth::Draining);
        assert!(w.infer("x", &GenerationParams::default()).is_err());
        w.revive();
        assert!(w.infer("hello again", &GenerationParams::default()).is_ok());
    }

    #[test]
    fn model_errors_do_not_mark_unhealthy() {
        let w = worker();
        for _ in 0..5 {
            let e = w.infer("  ", &GenerationParams::default()).unwrap_err();
            assert!(matches!(e, SmmfError::Model(_)));
        }
        assert_eq!(w.health(), WorkerHealth::Healthy);
        assert_eq!(w.stats().failed, 5);
    }

    #[test]
    fn injected_faults_eventually_mark_unhealthy() {
        let w = ModelWorker::with_faults(
            "flaky",
            builtin_model("sim-qwen").unwrap(),
            Locality::Local,
            1.0, // always fail
            7,
        );
        for _ in 0..FAILURE_THRESHOLD {
            let e = w.infer("hello", &GenerationParams::default()).unwrap_err();
            assert!(matches!(e, SmmfError::WorkerFailure { .. }));
        }
        assert_eq!(w.health(), WorkerHealth::Unhealthy);
        // While unhealthy the worker refuses outright.
        assert!(matches!(
            w.infer("hello", &GenerationParams::default()),
            Err(SmmfError::NoHealthyWorker(_))
        ));
    }

    #[test]
    fn auto_unhealthy_can_be_disabled() {
        let w = ModelWorker::with_faults(
            "flaky",
            builtin_model("sim-qwen").unwrap(),
            Locality::Local,
            1.0,
            7,
        );
        w.set_auto_unhealthy(false);
        for _ in 0..10 {
            let e = w.infer("hello", &GenerationParams::default()).unwrap_err();
            assert!(matches!(e, SmmfError::WorkerFailure { .. }));
        }
        // Still Healthy: failure detection is the breaker's job now.
        assert_eq!(w.health(), WorkerHealth::Healthy);
        assert_eq!(w.stats().failed, 10);
    }

    #[test]
    fn fault_injection_is_seeded_and_partial() {
        let run = |seed: u64| -> u64 {
            let w = ModelWorker::with_faults(
                "flaky",
                builtin_model("sim-qwen").unwrap(),
                Locality::Local,
                0.3,
                seed,
            );
            let mut failures = 0;
            for _ in 0..50 {
                w.revive(); // keep it in rotation for the experiment
                if w.infer("hello", &GenerationParams::default()).is_err() {
                    failures += 1;
                }
            }
            failures
        };
        assert_eq!(run(1), run(1), "same seed, same outcome");
        let f = run(1);
        assert!(f > 0 && f < 50, "failure rate 0.3 should be partial, got {f}");
    }

    #[test]
    fn success_resets_consecutive_failures() {
        // 50% fault rate: verify a success between failures prevents the
        // unhealthy transition for longer than 3 total failures.
        let w = ModelWorker::with_faults(
            "flaky",
            builtin_model("sim-qwen").unwrap(),
            Locality::Local,
            0.5,
            42,
        );
        let mut total_failures = 0;
        for _ in 0..30 {
            if w.health() != WorkerHealth::Healthy {
                break;
            }
            if w.infer("hello", &GenerationParams::default()).is_err() {
                total_failures += 1;
            }
        }
        // With p=0.5, three-in-a-row takes a while; we must have seen ≥3
        // failures total before (possibly) going unhealthy.
        assert!(total_failures >= 3);
    }

    #[test]
    fn failure_rate_is_dynamic() {
        let w = worker();
        assert!(w.infer("hello", &GenerationParams::default()).is_ok());
        w.set_failure_rate(1.0);
        assert!(matches!(
            w.infer("hello", &GenerationParams::default()),
            Err(SmmfError::WorkerFailure { .. })
        ));
        w.set_failure_rate(0.0);
        w.revive();
        assert!(w.infer("hello", &GenerationParams::default()).is_ok());
    }

    #[test]
    fn crash_fails_every_request_until_restore() {
        let w = worker();
        w.crash();
        assert!(w.is_crashed());
        // Health is untouched by the crash itself…
        assert_eq!(w.health(), WorkerHealth::Healthy);
        for _ in 0..2 {
            assert!(matches!(
                w.infer("hello", &GenerationParams::default()),
                Err(SmmfError::WorkerFailure { .. })
            ));
        }
        // …until the legacy detector trips it.
        let _ = w.infer("hello", &GenerationParams::default());
        assert_eq!(w.health(), WorkerHealth::Unhealthy);
        assert!(!w.probe(), "crashed workers must fail probes");
        w.restore();
        assert!(w.probe(), "restored fault-free worker revives on probe");
        assert!(w.infer("hello", &GenerationParams::default()).is_ok());
    }

    #[test]
    fn latency_factor_scales_simulated_latency() {
        let w = worker();
        let base = w
            .infer("hello there friend", &GenerationParams::default())
            .unwrap()
            .simulated_latency_us;
        w.set_latency_factor(10.0);
        let spiked = w
            .infer("hello there friend", &GenerationParams::default())
            .unwrap()
            .simulated_latency_us;
        assert_eq!(spiked, base * 10, "deterministic model, exact scaling");
        w.set_latency_factor(1.0);
        let back = w
            .infer("hello there friend", &GenerationParams::default())
            .unwrap()
            .simulated_latency_us;
        assert_eq!(back, base);
    }
}

#[cfg(test)]
mod probe_tests {
    use super::*;
    use dbgpt_llm::catalog::builtin_model;
    use dbgpt_llm::GenerationParams;

    #[test]
    fn probe_revives_when_fault_clears() {
        // Fault rate 0.5: an unhealthy worker's probes eventually pass.
        let w = ModelWorker::with_faults(
            "flaky",
            builtin_model("sim-qwen").unwrap(),
            Locality::Local,
            0.5,
            11,
        );
        // Drive it unhealthy.
        while w.health() == WorkerHealth::Healthy {
            let _ = w.infer("hello", &GenerationParams::default());
        }
        assert_eq!(w.health(), WorkerHealth::Unhealthy);
        let mut revived = false;
        for _ in 0..20 {
            if w.probe() {
                revived = true;
                break;
            }
        }
        assert!(revived, "probe should eventually pass at 50% fault rate");
        assert_eq!(w.health(), WorkerHealth::Healthy);
    }

    #[test]
    fn probe_leaves_draining_workers_alone() {
        let w = ModelWorker::new("w", builtin_model("sim-qwen").unwrap());
        w.drain();
        assert!(!w.probe());
        assert_eq!(w.health(), WorkerHealth::Draining);
    }

    #[test]
    fn probe_on_healthy_is_true() {
        let w = ModelWorker::new("w", builtin_model("sim-qwen").unwrap());
        assert!(w.probe());
    }

    #[test]
    fn probing_does_not_perturb_infer_outcomes() {
        // Two identical flaky workers, same seed. Worker A is revived
        // manually whenever it goes unhealthy; worker B is revived by
        // probing (which may take several probe draws). If probes shared
        // the request-fault RNG, the two infer-outcome sequences would
        // diverge; with independent streams they are identical.
        let mk = || {
            ModelWorker::with_faults(
                "flaky",
                builtin_model("sim-qwen").unwrap(),
                Locality::Local,
                0.5,
                1234,
            )
        };
        let a = mk();
        let b = mk();
        let params = GenerationParams::default();
        let mut outcomes_a = Vec::new();
        let mut outcomes_b = Vec::new();
        for _ in 0..40 {
            if a.health() != WorkerHealth::Healthy {
                a.revive();
            }
            if b.health() != WorkerHealth::Healthy {
                // Probe until it comes back (p=0.5 ⇒ a handful of draws).
                let mut guard = 0;
                while !b.probe() {
                    guard += 1;
                    assert!(guard < 10_000, "probe never revived worker");
                }
            }
            outcomes_a.push(a.infer("hello", &params).is_ok());
            outcomes_b.push(b.infer("hello", &params).is_ok());
        }
        assert_eq!(
            outcomes_a, outcomes_b,
            "probing consumed request-level fault draws"
        );
    }
}
