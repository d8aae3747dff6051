//! Benchmark-side spans for the traced run. Every call the benchmark makes
//! gets a span; requests carry a benchmark-created trace context, so the
//! program's own server, workflow, agent and IAS spans join the same tree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use vnfguard_telemetry::{Telemetry, TraceContext};
use wirebench::spans::{Span, SpanLog};

/// Marks the benchmark's own span and trace ids apart from the program's.
const BENCH_ID_TAG: u64 = 0xbe00_0000_0000_0000;

/// The traced run's span source, sharing one clock with the program's
/// trace collector.
pub struct BenchTrace {
    telemetry: Telemetry,
    base_instant: Instant,
    base_offset: u64,
    next_id: AtomicU64,
    pub log: SpanLog,
}

impl BenchTrace {
    pub fn new(telemetry: &Telemetry) -> BenchTrace {
        BenchTrace {
            telemetry: telemetry.clone(),
            base_instant: Instant::now(),
            base_offset: telemetry.traces().offset_micros(),
            next_id: AtomicU64::new(1),
            log: SpanLog::default(),
        }
    }

    /// An instant on the collector's microsecond clock.
    pub fn us(&self, at: Instant) -> u64 {
        self.base_offset + at.saturating_duration_since(self.base_instant).as_micros() as u64
    }

    fn id(&self) -> u64 {
        BENCH_ID_TAG | self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a request: one trace, rooted at a benchmark span.
    pub fn request(&self) -> Req<'_> {
        let request = self.id();
        Req {
            trace: self,
            request,
            trace_id: (u128::from(BENCH_ID_TAG) << 64) | u128::from(request),
            root: self.id(),
            spans: Vec::new(),
        }
    }
}

/// One traced benchmark request under construction.
pub struct Req<'a> {
    trace: &'a BenchTrace,
    request: u64,
    trace_id: u128,
    pub root: u64,
    spans: Vec<Span>,
}

impl Req<'_> {
    /// The propagated context naming span `span_id` as the parent.
    pub fn ctx(&self, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id,
            parent_id: None,
            sampled: true,
        }
    }

    /// A fresh span id under this request's trace.
    pub fn child_id(&self) -> u64 {
        self.trace.id()
    }

    /// Record one finished benchmark span.
    pub fn span(&mut self, id: u64, parent: Option<u64>, name: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us: self.trace.us(start),
            end_us: self.trace.us(end),
            request: self.request,
        });
    }

    /// Close the request: record the root span, pull the program's spans
    /// of the same trace out of its collector and keep the whole tree.
    pub fn finish(mut self, name: &str, start: Instant, end: Instant) {
        let root = self.root;
        self.span(root, None, name, start, end);
        let request = self.request;
        let program = self
            .trace
            .telemetry
            .traces()
            .trace(self.trace_id)
            .into_iter()
            .map(|s| Span {
                id: s.span_id,
                parent: s.parent_id,
                name: s.name,
                start_us: s.offset_micros,
                end_us: s.offset_micros + s.duration_micros,
                request,
            });
        self.spans.extend(program);
        self.trace.log.extend(std::mem::take(&mut self.spans));
    }
}
