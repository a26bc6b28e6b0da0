//! Spans, the tracer, and the [`Obs`] handle components thread through.
//!
//! A [`Span`] covers one unit of work (a request, an attempt, an engine
//! drain, a retrieval scan). Spans nest: `root.child(...)` opens a span
//! whose `parent` points at the root, and all spans of one tree share the
//! root's id as their `trace` id — so a per-request trace tree can be
//! reassembled from the flat record list (Dapper's model).
//!
//! Timestamps are supplied by the caller: components with a simulated
//! microsecond clock (SMMF's `ApiServer`, the llm `BatchEngine`) pass
//! simulated µs; components without one (RAG retrieval) pass the logical
//! tick counter from [`Obs::tick`]. Either way no wall clock is read, so
//! identical runs dump identical bytes.
//!
//! Span ids come from a counter whose starting block is derived from the
//! configured seed (SplitMix64 of the seed, high bits), never from time or
//! randomness.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hash::{mix64, GOLDEN_GAMMA};
use crate::json::{array_of, ObjWriter};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::render;

/// Switch + seed for one observability domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch; `false` makes every recording call a no-op branch.
    pub enabled: bool,
    /// Seed for the span-id counter block (tags dumps; no randomness).
    pub seed: u64,
}

impl ObsConfig {
    /// Observability off — the default everywhere, byte-for-byte identical
    /// to the pre-instrumentation hot paths.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            seed: 0,
        }
    }

    /// Tracing + metrics on, span ids seeded with `seed`.
    pub fn enabled(seed: u64) -> Self {
        ObsConfig {
            enabled: true,
            seed,
        }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::disabled()
    }
}

/// A span identifier (unique within one [`Obs`]).
pub type SpanId = u64;

/// Wire-portable trace context for **cross-node propagation**.
///
/// One process opens a span, exports its coordinates with
/// [`Span::context`], carries them across the wire (the server protocol
/// `Request` has a `with_trace_context` helper), and the receiving
/// process adopts them with [`Obs::span_in_context`] — the remote span
/// joins the originator's trace tree even though it is recorded by a
/// different tracer with its own seed block. Ids travel as fixed-width
/// hex so they sort identically as text (SQL) and as integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// Root span id of the distributed trace.
    pub trace_id: SpanId,
    /// The span on the sending side that the receiver should parent under.
    pub parent_span_id: SpanId,
    /// Tenant key, so every hop can tag its spans for per-tenant queries.
    pub tenant: String,
}

impl TraceContext {
    /// Fixed-width lowercase hex for a span/trace id — the wire and SQL
    /// representation (16 chars, so lexicographic order == numeric order).
    pub fn hex(id: SpanId) -> String {
        format!("{id:016x}")
    }

    /// Parse a [`TraceContext::hex`] string back to an id.
    pub fn parse_hex(s: &str) -> Option<SpanId> {
        if s.len() != 16 {
            return None;
        }
        SpanId::from_str_radix(s, 16).ok()
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// Parent span id (`None` for a trace root).
    pub parent: Option<SpanId>,
    /// Root span id of the tree this span belongs to.
    pub trace: SpanId,
    /// Operation name, e.g. `smmf.chat` or `rag.scan.vector`.
    pub name: String,
    /// Start timestamp (simulated µs or logical ticks — caller's clock).
    pub start_us: u64,
    /// End timestamp, same clock as `start_us`.
    pub end_us: u64,
    /// Key-value attributes, in recording order.
    pub attrs: Vec<(String, String)>,
    /// Point-in-time events `(at_us, message)`, in recording order.
    pub events: Vec<(u64, String)>,
}

impl SpanRecord {
    /// `end - start` (0 if the clock did not move).
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// First attribute value recorded under `key`.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Deterministic JSON with a fixed field order.
    pub fn to_json(&self) -> String {
        let attrs = array_of(self.attrs.iter().map(|(k, v)| {
            let mut o = ObjWriter::new();
            o.str_field("k", k).str_field("v", v);
            o.finish()
        }));
        let events = array_of(self.events.iter().map(|(at, msg)| {
            let mut o = ObjWriter::new();
            o.u64_field("at_us", *at).str_field("msg", msg);
            o.finish()
        }));
        let mut o = ObjWriter::new();
        o.u64_field("id", self.id);
        match self.parent {
            Some(p) => o.u64_field("parent", p),
            None => o.raw_field("parent", "null"),
        };
        o.u64_field("trace", self.trace)
            .str_field("name", &self.name)
            .u64_field("start_us", self.start_us)
            .u64_field("end_us", self.end_us)
            .raw_field("attrs", &attrs)
            .raw_field("events", &events);
        o.finish()
    }
}

/// A not-yet-ended span's mutable state.
struct OpenSpan {
    parent: Option<SpanId>,
    trace: SpanId,
    name: String,
    start_us: u64,
    attrs: Vec<(String, String)>,
    events: Vec<(u64, String)>,
}

struct Inner {
    seed: u64,
    next_id: AtomicU64,
    ticks: AtomicU64,
    open: Mutex<BTreeMap<SpanId, OpenSpan>>,
    done: Mutex<Vec<SpanRecord>>,
    metrics: Metrics,
}

/// The observability handle (see module docs). Cheap to clone; all clones
/// share one tracer and one metrics registry. A disabled handle holds no
/// allocation at all.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl Obs {
    /// A handle that records nothing, at near-zero cost.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// Build from a config (disabled config → disabled handle).
    pub fn new(config: ObsConfig) -> Self {
        if !config.enabled {
            return Obs::disabled();
        }
        Obs {
            inner: Some(Arc::new(Inner {
                seed: config.seed,
                // Span ids live in a seed-derived block: 16 seed bits up
                // top, a plain counter (from 1) below. Deterministic and
                // collision-free within one handle.
                next_id: AtomicU64::new(
                    ((mix64(config.seed.wrapping_add(GOLDEN_GAMMA)) >> 48) << 48) | 1,
                ),
                ticks: AtomicU64::new(0),
                open: Mutex::new(BTreeMap::new()),
                done: Mutex::new(Vec::new()),
                metrics: Metrics::new(),
            })),
        }
    }

    /// Is this handle recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The configured seed (0 when disabled).
    pub fn seed(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.seed)
    }

    /// Next value of the logical tick clock — the timestamp source for
    /// components with no simulated clock. Returns 0 when disabled.
    pub fn tick(&self) -> u64 {
        match &self.inner {
            Some(i) => i.ticks.fetch_add(1, Ordering::Relaxed) + 1,
            None => 0,
        }
    }

    /// Fast-forward the tick clock to at least `us`. Hosts with a
    /// simulated clock call this before handing spans to tick-timestamped
    /// components (e.g. the SQL engine), so tick-clock children stay
    /// time-coherent with their simulated-clock ancestors instead of
    /// starting near zero. Monotonic: never moves the clock backwards.
    pub fn advance_ticks_to(&self, us: u64) {
        if let Some(i) = &self.inner {
            i.ticks.fetch_max(us, Ordering::Relaxed);
        }
    }

    /// Open a root span (a new trace).
    pub fn span(&self, name: &str, start_us: u64) -> Span {
        let Some(inner) = &self.inner else {
            return Span { inner: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.open.lock().expect("open spans lock").insert(
            id,
            OpenSpan {
                parent: None,
                trace: id,
                name: name.to_string(),
                start_us,
                attrs: Vec::new(),
                events: Vec::new(),
            },
        );
        Span {
            inner: Some(SpanInner {
                obs: Arc::clone(inner),
                id,
                trace: id,
            }),
        }
    }

    /// Adopt a remote [`TraceContext`]: open a span recorded by *this*
    /// tracer whose parent and trace ids come from the sending process.
    /// The context's tenant is recorded as the span's first attribute
    /// (when non-empty). A disabled handle returns a no-op span, so the
    /// propagation path costs one branch when telemetry is off.
    pub fn span_in_context(&self, name: &str, start_us: u64, ctx: &TraceContext) -> Span {
        let Some(inner) = &self.inner else {
            return Span { inner: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let mut attrs = Vec::new();
        if !ctx.tenant.is_empty() {
            attrs.push(("tenant".to_string(), ctx.tenant.clone()));
        }
        inner.open.lock().expect("open spans lock").insert(
            id,
            OpenSpan {
                parent: Some(ctx.parent_span_id),
                trace: ctx.trace_id,
                name: name.to_string(),
                start_us,
                attrs,
                events: Vec::new(),
            },
        );
        Span {
            inner: Some(SpanInner {
                obs: Arc::clone(inner),
                id,
                trace: ctx.trace_id,
            }),
        }
    }

    /// Open the span of one instrumented operation — the single entry
    /// point every `*_under` method uses. A recording `parent` gets a
    /// child (joining the caller's trace, whichever handle owns it);
    /// otherwise the span is a new root on this handle, which is a no-op
    /// span when this handle is disabled. The start timestamp is the next
    /// tick of whichever tracer owns the new span.
    pub fn enter(&self, parent: &Span, name: &str) -> Span {
        if parent.is_recording() {
            parent.child(name, parent.tick())
        } else {
            self.span(name, self.tick())
        }
    }

    /// [`Obs::enter`] with an explicit start timestamp, for components
    /// that run on a simulated clock.
    pub fn enter_at(&self, parent: &Span, name: &str, start_us: u64) -> Span {
        if parent.is_recording() {
            parent.child(name, start_us)
        } else {
            self.span(name, start_us)
        }
    }

    /// Add `delta` to counter `name` (no-op when disabled).
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(i) = &self.inner {
            i.metrics.counter(name, delta);
        }
    }

    /// Current counter value (0 when disabled or untouched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.metrics.counter_value(name))
    }

    /// Set gauge `name` (no-op when disabled).
    pub fn gauge(&self, name: &str, value: i64) {
        if let Some(i) = &self.inner {
            i.metrics.gauge(name, value);
        }
    }

    /// Observe into histogram `name` with default latency buckets.
    pub fn observe(&self, name: &str, v: u64) {
        if let Some(i) = &self.inner {
            i.metrics.observe(name, v);
        }
    }

    /// Observe with explicit bucket bounds (applied on first touch).
    pub fn observe_with(&self, name: &str, bounds: &[u64], v: u64) {
        if let Some(i) = &self.inner {
            i.metrics.observe_with(name, bounds, v);
        }
    }

    /// Observe with explicit bounds *and* an exemplar trace-id link: the
    /// bucket the value lands in remembers the largest value seen there
    /// together with the trace that produced it (no-op when disabled).
    pub fn observe_exemplar(&self, name: &str, bounds: &[u64], v: u64, trace: SpanId) {
        if let Some(i) = &self.inner {
            i.metrics.observe_exemplar(name, bounds, v, trace);
        }
    }

    /// Snapshot every metric (empty snapshot when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map(|i| i.metrics.snapshot())
            .unwrap_or_default()
    }

    /// Deterministic metrics JSON (an empty registry when disabled).
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    /// Every *finished* span, sorted `(trace, start_us, id)` so the dump
    /// order is stable whatever order spans ended in. Spans still open are
    /// excluded (they have no end timestamp yet).
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut spans = inner.done.lock().expect("done spans lock").clone();
        spans.sort_by(|a, b| {
            (a.trace, a.start_us, a.id).cmp(&(b.trace, b.start_us, b.id))
        });
        spans
    }

    /// Number of finished spans.
    pub fn span_count(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.done.lock().expect("done spans lock").len())
    }

    /// Deterministic JSON dump of every finished span:
    /// `{"seed":N,"spans":[...]}`.
    pub fn trace_json(&self) -> String {
        let spans = array_of(self.finished_spans().iter().map(|s| s.to_json()));
        let mut o = ObjWriter::new();
        o.u64_field("seed", self.seed()).raw_field("spans", &spans);
        o.finish()
    }

    /// Render every finished trace as a text tree (see [`render`]).
    pub fn render_traces(&self) -> String {
        render::render_all(&self.finished_spans())
    }

    /// Render one trace tree by its root span id.
    pub fn render_trace(&self, trace: SpanId) -> String {
        render::render_trace(&self.finished_spans(), trace)
    }

    /// Root span ids of every finished trace, in dump order.
    pub fn trace_ids(&self) -> Vec<SpanId> {
        let mut ids: Vec<SpanId> = self
            .finished_spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.id)
            .collect();
        ids.dedup();
        ids
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .field("seed", &self.seed())
            .field("finished_spans", &self.span_count())
            .finish()
    }
}

#[derive(Clone)]
struct SpanInner {
    obs: Arc<Inner>,
    id: SpanId,
    trace: SpanId,
}

/// A handle to one span; a disabled (no-op) handle is free to pass around.
/// Spans are ended explicitly with [`Span::end`] — a span never ended
/// simply stays out of the dump (deliberate: no Drop-time clock reads).
#[derive(Clone)]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// A span that records nothing (what a disabled [`Obs`] hands out).
    pub fn noop() -> Span {
        Span { inner: None }
    }

    /// Is this span recording?
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's id, if recording.
    pub fn id(&self) -> Option<SpanId> {
        self.inner.as_ref().map(|i| i.id)
    }

    /// The trace (root span) id, if recording.
    pub fn trace_id(&self) -> Option<SpanId> {
        self.inner.as_ref().map(|i| i.trace)
    }

    /// Export this span's coordinates for cross-process propagation (see
    /// [`TraceContext`]). `None` for a no-op span, so a disabled sender
    /// injects nothing and the receiver's hot path stays byte-identical.
    pub fn context(&self, tenant: &str) -> Option<TraceContext> {
        self.inner.as_ref().map(|si| TraceContext {
            trace_id: si.trace,
            parent_span_id: si.id,
            tenant: tenant.to_string(),
        })
    }

    /// Open a child span. A child of a no-op span is a no-op span.
    pub fn child(&self, name: &str, start_us: u64) -> Span {
        let Some(si) = &self.inner else {
            return Span::noop();
        };
        let id = si.obs.next_id.fetch_add(1, Ordering::Relaxed);
        si.obs.open.lock().expect("open spans lock").insert(
            id,
            OpenSpan {
                parent: Some(si.id),
                trace: si.trace,
                name: name.to_string(),
                start_us,
                attrs: Vec::new(),
                events: Vec::new(),
            },
        );
        Span {
            inner: Some(SpanInner {
                obs: Arc::clone(&si.obs),
                id,
                trace: si.trace,
            }),
        }
    }

    /// Next value of the owning tracer's logical tick clock (see
    /// [`Obs::tick`]); 0 for a no-op span. Lets a callee timestamp child
    /// spans given only a `&Span`.
    pub fn tick(&self) -> u64 {
        match &self.inner {
            Some(si) => si.obs.ticks.fetch_add(1, Ordering::Relaxed) + 1,
            None => 0,
        }
    }

    /// An [`Obs`] handle onto the tracer that owns this span (a disabled
    /// handle for a no-op span) — lets a callee record counters and
    /// histograms given only a `&Span`.
    pub fn handle(&self) -> Obs {
        Obs {
            inner: self.inner.as_ref().map(|si| Arc::clone(&si.obs)),
        }
    }

    /// Record a key-value attribute. The value is only formatted when the
    /// span is live, so disabled paths pay one branch.
    pub fn attr(&self, key: &str, value: impl std::fmt::Display) {
        if let Some(si) = &self.inner {
            if let Some(s) = si.obs.open.lock().expect("open spans lock").get_mut(&si.id) {
                s.attrs.push((key.to_string(), value.to_string()));
            }
        }
    }

    /// Record a point-in-time event on this span.
    pub fn event(&self, at_us: u64, msg: impl std::fmt::Display) {
        if let Some(si) = &self.inner {
            if let Some(s) = si.obs.open.lock().expect("open spans lock").get_mut(&si.id) {
                s.events.push((at_us, msg.to_string()));
            }
        }
    }

    /// End the span at `end_us`, moving it into the finished set. Ending
    /// twice (or ending a clone) is a no-op the second time.
    pub fn end(&self, end_us: u64) {
        if let Some(si) = &self.inner {
            let open = si.obs.open.lock().expect("open spans lock").remove(&si.id);
            if let Some(s) = open {
                si.obs.done.lock().expect("done spans lock").push(SpanRecord {
                    id: si.id,
                    parent: s.parent,
                    trace: s.trace,
                    name: s.name,
                    start_us: s.start_us,
                    end_us,
                    attrs: s.attrs,
                    events: s.events,
                });
            }
        }
    }
}

impl Default for Span {
    /// The no-op span ([`Span::noop`]).
    fn default() -> Span {
        Span::noop()
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("recording", &self.is_recording())
            .field("id", &self.id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::new(ObsConfig::disabled());
        assert!(!obs.is_enabled());
        let s = obs.span("root", 0);
        assert!(!s.is_recording());
        let c = s.child("child", 1);
        c.attr("k", "v");
        c.event(2, "e");
        c.end(3);
        s.end(4);
        obs.counter("c", 1);
        obs.observe("h", 5);
        assert_eq!(obs.span_count(), 0);
        assert_eq!(obs.counter_value("c"), 0);
        assert_eq!(obs.trace_json(), "{\"seed\":0,\"spans\":[]}");
        assert_eq!(obs.tick(), 0);
    }

    #[test]
    fn spans_nest_and_dump_deterministically() {
        let run = || {
            let obs = Obs::new(ObsConfig::enabled(7));
            let root = obs.span("chat", 0);
            root.attr("model", "sim-qwen");
            let a = root.child("attempt", 5);
            a.attr("worker", "w0");
            a.event(9, "dispatched");
            a.end(20);
            let b = root.child("attempt", 21);
            b.end(30);
            root.end(31);
            obs.trace_json()
        };
        let a = run();
        assert_eq!(a, run(), "same run must dump identical bytes");
        assert!(a.contains("\"name\":\"chat\""));
        assert!(a.contains("\"msg\":\"dispatched\""));
    }

    #[test]
    fn different_seed_different_span_ids_same_shape() {
        let dump = |seed| {
            let obs = Obs::new(ObsConfig::enabled(seed));
            let s = obs.span("x", 0);
            s.end(1);
            (obs.trace_ids(), obs.trace_json())
        };
        let (ids1, _) = dump(1);
        let (ids2, _) = dump(2);
        assert_ne!(ids1, ids2, "id blocks are seed-derived");
    }

    #[test]
    fn unended_spans_stay_out_of_the_dump() {
        let obs = Obs::new(ObsConfig::enabled(1));
        let root = obs.span("root", 0);
        let _child = root.child("never-ended", 1);
        root.end(10);
        let spans = obs.finished_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "root");
    }

    #[test]
    fn double_end_is_idempotent() {
        let obs = Obs::new(ObsConfig::enabled(1));
        let s = obs.span("s", 0);
        s.end(5);
        s.end(99);
        let spans = obs.finished_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].end_us, 5);
    }

    #[test]
    fn record_accessors() {
        let obs = Obs::new(ObsConfig::enabled(3));
        let s = obs.span("s", 10);
        s.attr("k", 42);
        s.end(30);
        let r = &obs.finished_spans()[0];
        assert_eq!(r.duration_us(), 20);
        assert_eq!(r.attr("k"), Some("42"));
        assert_eq!(r.attr("missing"), None);
        assert!(r.to_json().starts_with("{\"id\":"));
    }

    #[test]
    fn ticks_are_monotonic() {
        let obs = Obs::new(ObsConfig::enabled(1));
        let a = obs.tick();
        let b = obs.tick();
        assert!(b > a);
    }

    #[test]
    fn context_propagates_across_tracers() {
        let gateway = Obs::new(ObsConfig::enabled(1));
        let node = Obs::new(ObsConfig::enabled(2));
        let root = gateway.span("gateway.request", 0);
        let ctx = root.context("tenant-003").expect("recording span has a context");
        let serve = node.span_in_context("node.serve", 5, &ctx);
        serve.end(9);
        root.end(10);
        let remote = &node.finished_spans()[0];
        assert_eq!(remote.trace, root.id().unwrap(), "same trace across tracers");
        assert_eq!(remote.parent, Some(ctx.parent_span_id));
        assert_eq!(remote.attr("tenant"), Some("tenant-003"));
        assert_ne!(remote.id, root.id().unwrap(), "local id from the node's block");
    }

    #[test]
    fn context_of_noop_span_is_none_and_adoption_on_disabled_is_inert() {
        assert!(Span::noop().context("t").is_none());
        let obs = Obs::new(ObsConfig::disabled());
        let ctx = TraceContext {
            trace_id: 7,
            parent_span_id: 7,
            tenant: "t".into(),
        };
        let s = obs.span_in_context("node.serve", 0, &ctx);
        assert!(!s.is_recording());
        s.end(1);
        assert_eq!(obs.span_count(), 0);
    }

    #[test]
    fn hex_roundtrip_is_fixed_width() {
        let id: SpanId = 0x00ab_cdef_0123_4567;
        let h = TraceContext::hex(id);
        assert_eq!(h.len(), 16);
        assert_eq!(h, "00abcdef01234567");
        assert_eq!(TraceContext::parse_hex(&h), Some(id));
        assert_eq!(TraceContext::parse_hex("xyz"), None);
    }

    #[test]
    fn enter_joins_a_recording_parent_from_another_handle() {
        let caller = Obs::new(ObsConfig::enabled(1));
        let own = Obs::new(ObsConfig::enabled(2));
        let parent = caller.span("request", caller.tick());
        let span = own.enter(&parent, "op");
        span.end(span.tick());
        parent.end(parent.tick());
        assert_eq!(own.span_count(), 0, "nothing lands on the callee's handle");
        let spans = caller.finished_spans();
        let op = spans.iter().find(|s| s.name == "op").expect("op span");
        assert_eq!(op.parent, parent.id());
        assert_eq!(op.trace, parent.id().unwrap());
        assert_eq!(op.start_us, 2, "start tick from the parent's tracer");
    }

    #[test]
    fn enter_under_a_noop_parent_roots_on_an_enabled_handle() {
        let own = Obs::new(ObsConfig::enabled(3));
        own.tick();
        let span = own.enter(&Span::noop(), "op");
        assert!(span.is_recording());
        span.end(10);
        let r = &own.finished_spans()[0];
        assert_eq!(r.parent, None, "a new root");
        assert_eq!(r.trace, r.id);
        assert_eq!(r.start_us, 2, "start tick from this handle");
    }

    #[test]
    fn enter_with_nothing_recording_records_nothing() {
        let own = Obs::disabled();
        let span = own.enter(&Span::noop(), "op");
        assert!(!span.is_recording());
        span.child("stage", span.tick()).end(1);
        span.end(span.tick());
        assert_eq!(own.span_count(), 0);
        assert!(!own.enter_at(&Span::noop(), "op", 5).is_recording());
    }

    #[test]
    fn enter_at_keeps_the_given_start() {
        let own = Obs::new(ObsConfig::enabled(4));
        own.enter_at(&Span::noop(), "root", 1_000).end(1_500);
        let parent = own.span("parent", 0);
        own.enter_at(&parent, "child", 2_000).end(2_500);
        parent.end(3_000);
        let spans = own.finished_spans();
        let start = |name: &str| spans.iter().find(|s| s.name == name).unwrap().start_us;
        assert_eq!(start("root"), 1_000);
        assert_eq!(start("child"), 2_000);
        assert_eq!(own.tick(), 1, "no tick consumed");
    }

    #[test]
    fn clones_share_the_registry() {
        let obs = Obs::new(ObsConfig::enabled(1));
        let clone = obs.clone();
        clone.counter("shared", 2);
        assert_eq!(obs.counter_value("shared"), 2);
    }
}
