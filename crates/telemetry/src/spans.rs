//! Spans: RAII-timed regions that become the request scope's current
//! context while they are open.
//!
//! A span is one thing: on close it records its duration into an optional
//! histogram and, when its trace is sampled, one [`TraceSpan`] into the
//! [`TraceCollector`]. Spans are opened through
//! [`Telemetry::span`](crate::Telemetry::span) and
//! [`Telemetry::trace_root`](crate::Telemetry::trace_root).

use crate::metrics::Histogram;
use crate::scope;
use crate::trace::{TraceCollector, TraceContext, TraceSpan};
use std::marker::PhantomData;
use std::time::Instant;

/// The collector-side half of a sampled span: where and as-what to record
/// it when the guard drops.
pub(crate) struct OpenTraceSpan {
    pub collector: TraceCollector,
    pub service: String,
    pub name: String,
    pub started_at: u64,
    pub offset_micros: u64,
}

/// RAII guard for an open span. While it lives, its context is the
/// thread's current trace context (when it has one of its own); on drop it
/// restores the context it replaced, records its duration into the
/// attached histogram (with its trace id as exemplar when sampled) and, when
/// sampled, records the span into the collector.
///
/// The guard is bound to the thread that opened it.
pub struct SpanGuard {
    begun: Instant,
    histogram: Option<Histogram>,
    ctx: TraceContext,
    /// The context this span replaced in the request scope, restored on
    /// drop; `None` when the span did not change the scope.
    restore: Option<TraceContext>,
    record: Option<OpenTraceSpan>,
    _thread: PhantomData<*const ()>,
}

impl SpanGuard {
    /// A guard that only measures time: it leaves the scope alone and
    /// records nothing but an attached histogram sample.
    pub(crate) fn timer(ctx: TraceContext) -> SpanGuard {
        SpanGuard {
            begun: Instant::now(),
            histogram: None,
            ctx,
            restore: None,
            record: None,
            _thread: PhantomData,
        }
    }

    /// Install `ctx` as the scope's current context until the guard drops,
    /// recording into the collector when `record` is given.
    pub(crate) fn install(ctx: TraceContext, record: Option<OpenTraceSpan>) -> SpanGuard {
        let mut guard = SpanGuard::timer(ctx.clone());
        guard.restore = Some(scope::replace_trace(ctx));
        guard.record = record;
        guard
    }

    /// Also record the span's duration into `histogram` on drop.
    pub fn with_histogram(mut self, histogram: Histogram) -> SpanGuard {
        self.histogram = Some(histogram);
        self
    }

    /// This span's trace context (the enclosing one when the span is not
    /// part of a sampled trace).
    pub fn context(&self) -> &TraceContext {
        &self.ctx
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let micros = self.begun.elapsed().as_micros() as u64;
        if let Some(previous) = self.restore.take() {
            scope::replace_trace(previous);
        }
        if let Some(histogram) = &self.histogram {
            // A sampled span leaves its trace id behind as an exemplar, so
            // a breached latency series links back to a concrete waterfall.
            match &self.record {
                Some(_) => histogram.record_with_exemplar(micros, self.ctx.trace_id),
                None => histogram.record(micros),
            }
        }
        if let Some(open) = self.record.take() {
            open.collector.record(TraceSpan {
                trace_id: self.ctx.trace_id,
                span_id: self.ctx.span_id,
                parent_id: self.ctx.parent_id,
                service: open.service,
                name: open.name,
                started_at: open.started_at,
                offset_micros: open.offset_micros,
                duration_micros: micros,
                annotations: Vec::new(),
            });
        }
    }
}
