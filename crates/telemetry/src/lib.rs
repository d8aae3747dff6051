//! # vnfguard-telemetry
//!
//! Zero-dependency observability substrate for the deployment: counters,
//! gauges and log-bucketed latency histograms in a [`MetricsRegistry`],
//! spans assembled into distributed traces by a [`TraceCollector`], and a
//! ring-buffered structured [`Journal`] of audit events — bundled behind
//! one clonable [`Telemetry`] handle that every crate in the workspace can
//! thread through its hot paths. The per-request [`RequestScope`] carries
//! the current trace context and deadline on the handling thread.
//!
//! Design rules:
//!
//! - **Two time bases.** Event timestamps come from the deployment's
//!   simulated clock (callers pass unix seconds), so the audit timeline is
//!   deterministic and replayable. Latency measurements use the monotonic
//!   wall clock (`std::time::Instant`) internally, because simulated time
//!   does not advance while code executes.
//! - **Cheap when off.** [`Telemetry::disabled`] returns a handle whose
//!   spans and journal writes are no-ops and whose counters are detached
//!   from any registry; the enrollment-path overhead of the enabled mode is
//!   measured by the `e10_observability` bench and must stay under 5%.
//! - **Shared by clone.** All types are `Arc`-backed; clones observe the
//!   same state, mirroring how `SimClock` and `Network` behave elsewhere
//!   in the workspace.
//!
//! Metric names: a series is registered only through a [`Namespace`]
//! from [`Telemetry::namespace`], which names it
//! `vnfguard_<namespace>_<name>` and sorts its labels, so an unprefixed
//! series does not compile. By convention counters end in `_total` and
//! latency histograms in `_micros` (see DESIGN.md §Observability).

pub mod health;
pub mod journal;
pub mod metrics;
pub mod scope;
pub mod spans;
pub mod trace;

pub use health::{AlertSnapshot, AlertState, HealthMonitor, SloKind, SloSpec};
pub use journal::{Event, Journal};
pub use metrics::{
    Counter, Exemplar, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Namespace,
    EXEMPLAR_CAP,
};
pub use scope::{current_deadline, current_trace, Deadline, RequestScope};
pub use spans::SpanGuard;
pub use trace::{Annotation, TraceCollector, TraceContext, TraceIds, TraceSpan, TraceSummary};

/// One observability handle bundling metrics, spans and the event journal.
///
/// Cloning shares the underlying state. Constructed enabled by
/// [`Telemetry::new`] (or `Default`); [`Telemetry::disabled`] yields a
/// no-op handle for overhead baselines.
#[derive(Clone)]
pub struct Telemetry {
    enabled: bool,
    metrics: MetricsRegistry,
    journal: Journal,
    traces: TraceCollector,
    trace_ids: TraceIds,
}

impl Telemetry {
    /// An enabled telemetry bundle with default capacities.
    pub fn new() -> Telemetry {
        Telemetry {
            enabled: true,
            metrics: MetricsRegistry::default(),
            journal: Journal::default(),
            traces: TraceCollector::default(),
            trace_ids: TraceIds::default(),
        }
    }

    /// A disabled bundle: spans and journal writes are no-ops, counters and
    /// histograms are detached from the registry (atomic bumps on dead
    /// storage). Used to measure instrumentation overhead.
    pub fn disabled() -> Telemetry {
        Telemetry {
            enabled: false,
            ..Telemetry::new()
        }
    }

    /// The metrics registry backing this handle.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The structured event journal backing this handle.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The distributed-trace collector backing this handle.
    pub fn traces(&self) -> &TraceCollector {
        &self.traces
    }

    /// Reseed the trace/span id generator (the deployment builder derives
    /// this from its HMAC-DRBG so ids are deterministic per testbed seed).
    pub fn seed_trace_ids(&self, seed: u64) {
        self.trace_ids.seed(seed);
    }

    /// Set the head-based sampling rate for new trace roots.
    pub fn set_trace_sampling(&self, rate: f64) {
        self.trace_ids.set_sample_rate(rate);
    }

    /// The metric namespace `vnfguard_<name>_`: the one way to register a
    /// series. A crate registers under its own name; the admission
    /// controller's `net` and the health plane's `health` are shared
    /// namespaces named where they are used. Disabled handles hand out
    /// detached metrics that never appear in the rendered exposition.
    ///
    /// There is no unscoped registrar, so a series outside a namespace
    /// does not compile:
    ///
    /// ```compile_fail
    /// let telemetry = vnfguard_telemetry::Telemetry::new();
    /// telemetry.counter("vnfguard_core_x_total").inc();
    /// ```
    ///
    /// nor through the registry behind the handle:
    ///
    /// ```compile_fail
    /// let telemetry = vnfguard_telemetry::Telemetry::new();
    /// telemetry.metrics().counter("vnfguard_core_x_total").inc();
    /// ```
    ///
    /// The same series, registered through its namespace:
    ///
    /// ```
    /// let telemetry = vnfguard_telemetry::Telemetry::new();
    /// telemetry.namespace("core").counter("x_total", &[]).inc();
    /// assert_eq!(
    ///     telemetry.metrics().counter_value("vnfguard_core_x_total"),
    ///     Some(1)
    /// );
    /// ```
    pub fn namespace(&self, name: &'static str) -> Namespace {
        Namespace::new(self.enabled.then(|| self.metrics.clone()), name)
    }

    /// Append a structured event to the journal; returns its sequence
    /// number (0 when disabled).
    pub fn event(&self, time: u64, kind: &str, detail: &str) -> u64 {
        if self.enabled {
            self.journal.record(time, kind, detail)
        } else {
            0
        }
    }

    /// Open a span named `name`, attributed to `service`, as a child of
    /// the thread's current trace context (see [`scope`]). While the
    /// returned guard lives the span is the current context, so spans and
    /// outgoing requests opened meanwhile chain under it. When the current
    /// context is not recording (no request scope, unsampled, or disabled
    /// telemetry) the guard only times an attached histogram. `unix_now`
    /// stamps the span's position on the simulated timeline; the duration
    /// itself is wall-clock microseconds.
    pub fn span(&self, service: &str, name: &str, unix_now: u64) -> SpanGuard {
        let parent = scope::current_trace();
        if !self.enabled || !parent.is_recording() {
            return SpanGuard::timer(parent);
        }
        let ctx = TraceContext {
            trace_id: parent.trace_id,
            span_id: self.trace_ids.next_span_id(),
            parent_id: Some(parent.span_id),
            sampled: true,
        };
        self.open(ctx, service, name, unix_now)
    }

    /// Start a new distributed trace: draws a fresh trace id, makes the
    /// head-based sampling decision, and opens the root span (named `name`,
    /// attributed to `service`) as the thread's current context. Returns
    /// the root's context plus its guard. Disabled handles return an
    /// invalid context and a guard that leaves the scope alone.
    pub fn trace_root(
        &self,
        service: &str,
        name: &str,
        unix_now: u64,
    ) -> (TraceContext, SpanGuard) {
        if !self.enabled {
            return (
                TraceContext::disabled(),
                SpanGuard::timer(scope::current_trace()),
            );
        }
        let ctx = TraceContext {
            trace_id: self.trace_ids.next_trace_id(),
            span_id: self.trace_ids.next_span_id(),
            parent_id: None,
            sampled: self.trace_ids.decide_sampled(),
        };
        (ctx.clone(), self.open(ctx, service, name, unix_now))
    }

    fn open(&self, ctx: TraceContext, service: &str, name: &str, unix_now: u64) -> SpanGuard {
        let record = ctx.is_recording().then(|| spans::OpenTraceSpan {
            collector: self.traces.clone(),
            service: service.to_string(),
            name: name.to_string(),
            started_at: unix_now,
            offset_micros: self.traces.offset_micros(),
        });
        SpanGuard::install(ctx, record)
    }

    /// Attach an annotation (fault, retry, breaker transition, crash,
    /// recovery, ...) to the span identified by `ctx`. No-op when disabled
    /// or when the context is not recording.
    pub fn trace_annotate(&self, ctx: &TraceContext, time: u64, kind: &str, detail: &str) {
        if self.enabled && ctx.is_recording() {
            self.traces.annotate(ctx.span_id, time, kind, detail);
        }
    }

    /// [`trace_annotate`](Self::trace_annotate) the thread's current span.
    pub fn annotate(&self, time: u64, kind: &str, detail: &str) {
        self.trace_annotate(&scope::current_trace(), time, kind, detail);
    }

    /// Render every registered metric in Prometheus text exposition format,
    /// plus the telemetry subsystem's own data-loss counters (journal and
    /// trace-collector evictions) so scrape-side can detect observability
    /// data loss.
    pub fn render_prometheus(&self) -> String {
        let mut out = self.metrics.render_prometheus();
        if !self.enabled {
            return out;
        }
        for (name, value) in [
            (
                "vnfguard_telemetry_journal_dropped_total",
                self.journal.dropped(),
            ),
            (
                "vnfguard_telemetry_trace_spans_dropped_total",
                self.traces.dropped(),
            ),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        out
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("journal_len", &self.journal.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_bundle_registers_and_renders() {
        let tele = Telemetry::new();
        let test = tele.namespace("test");
        test.counter("ops_total", &[]).add(3);
        test.histogram("latency_micros", &[]).record(100);
        tele.event(1_600_000_000, "test_event", "detail");
        let text = tele.render_prometheus();
        assert!(text.contains("vnfguard_test_ops_total 3"));
        assert!(text.contains("vnfguard_test_latency_micros_count 1"));
        assert_eq!(tele.journal().len(), 1);
    }

    #[test]
    fn disabled_bundle_is_inert() {
        let tele = Telemetry::disabled();
        tele.namespace("test").counter("ops_total", &[]).add(3);
        let (root, _root) = tele.trace_root("operator", "invisible", 0);
        assert!(!root.is_valid());
        {
            let _span = tele.span("vm", "invisible", 0);
            assert!(
                !current_trace().is_valid(),
                "disabled spans leave the scope alone"
            );
        }
        tele.event(0, "invisible", "");
        assert_eq!(tele.render_prometheus(), "");
        assert_eq!(tele.journal().len(), 0);
        assert_eq!(tele.traces().span_count(), 0);
    }

    #[test]
    fn spans_nest_under_the_scope_and_restore_it() {
        let tele = Telemetry::new();
        let (root, root_guard) = tele.trace_root("operator", "drill", 100);
        assert!(root.is_recording());
        assert_eq!(current_trace(), root);
        let (outer_ctx, inner_ctx) = {
            let outer = tele.span("vm", "enrollment", 101);
            let inner_ctx = {
                let inner = tele.span("vm", "ias_verify", 101);
                tele.annotate(101, "fault", "ias:443 refused");
                inner.context().clone()
            };
            // The inner guard restored its parent as the current context.
            assert_eq!(current_trace(), *outer.context());
            let _sibling = tele.span("vm", "wrap_credentials", 102);
            (outer.context().clone(), inner_ctx)
        };
        assert_eq!(current_trace(), root);
        drop(root_guard);
        assert!(!current_trace().is_valid());

        let spans = tele.traces().trace(root.trace_id);
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("drill").parent_id, None);
        assert_eq!(by_name("enrollment").parent_id, Some(root.span_id));
        assert_eq!(by_name("ias_verify").parent_id, Some(outer_ctx.span_id));
        assert_eq!(by_name("ias_verify").span_id, inner_ctx.span_id);
        assert_eq!(
            by_name("wrap_credentials").parent_id,
            Some(outer_ctx.span_id)
        );
        assert_eq!(by_name("enrollment").service, "vm");
        let verify = by_name("ias_verify");
        assert_eq!(verify.annotations.len(), 1);
        assert_eq!(verify.annotations[0].detail, "ias:443 refused");
    }

    #[test]
    fn span_histograms_carry_exemplars_only_when_sampled() {
        let tele = Telemetry::new();
        let histogram = tele.namespace("test").histogram("span_micros", &[]);
        {
            // No request scope: a plain timing.
            let _span = tele
                .span("vm", "untraced", 0)
                .with_histogram(histogram.clone());
        }
        let (root, _root) = tele.trace_root("operator", "traced", 0);
        {
            let _span = tele
                .span("vm", "traced", 0)
                .with_histogram(histogram.clone());
        }
        assert_eq!(histogram.count(), 2);
        let exemplars = histogram.exemplars();
        assert_eq!(exemplars.len(), 1);
        assert_eq!(exemplars[0].trace_id, root.trace_id);
    }

    #[test]
    fn unsampled_roots_propagate_but_record_nothing() {
        let tele = Telemetry::new();
        tele.set_trace_sampling(0.0);
        let (root, guard) = tele.trace_root("operator", "quiet", 0);
        assert!(root.is_valid() && !root.sampled);
        {
            // The unsampled decision stays current for downstream hops.
            let _child = tele.span("vm", "quiet_child", 0);
            assert_eq!(current_trace(), root);
        }
        drop(guard);
        assert_eq!(tele.traces().span_count(), 0);
    }

    #[test]
    fn concurrent_spans_parent_under_their_own_threads_scope() {
        let tele = Telemetry::new();
        let barrier = std::sync::Barrier::new(2);
        let roots: Vec<(TraceContext, TraceContext)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (tele, barrier) = (&tele, &barrier);
                    s.spawn(move || {
                        let (root, _guard) = tele.trace_root("operator", "request", 0);
                        barrier.wait();
                        let span = tele.span("vm", "work", 0);
                        // Both threads hold a span open at the same time.
                        barrier.wait();
                        (root, span.context().clone())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_ne!(roots[0].0.trace_id, roots[1].0.trace_id);
        for (root, child) in &roots {
            assert_eq!(child.trace_id, root.trace_id);
            assert_eq!(child.parent_id, Some(root.span_id));
            let spans = tele.traces().trace(root.trace_id);
            assert_eq!(spans.len(), 2, "each trace holds its own root and child");
        }
    }

    #[test]
    fn render_exposes_drop_counters() {
        let tele = Telemetry::new();
        let text = tele.render_prometheus();
        assert!(text.contains("vnfguard_telemetry_journal_dropped_total 0"));
        assert!(text.contains("vnfguard_telemetry_trace_spans_dropped_total 0"));
        assert_eq!(Telemetry::disabled().render_prometheus(), "");
    }

    #[test]
    fn clones_share_state() {
        let tele = Telemetry::new();
        let other = tele.clone();
        other.namespace("test").counter("shared_total", &[]).inc();
        assert_eq!(
            tele.metrics().counter_value("vnfguard_test_shared_total"),
            Some(1)
        );
    }
}
