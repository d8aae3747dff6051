//! Distributed tracing: trace-context propagation and bounded trace assembly.
//!
//! A [`TraceContext`] is the unit that travels across process boundaries as a
//! W3C-style `traceparent` HTTP header; a [`TraceCollector`] assembles the
//! spans recorded under those contexts into per-trace trees and renders them
//! as an ASCII waterfall or Chrome `trace_event` JSON.
//!
//! Trace and span identifiers are drawn from a seeded [`TraceIds`] generator
//! so that a deployment built from a fixed seed produces the same ids on
//! every run — there is no ambient-entropy `Math.random` analogue anywhere in
//! this module.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default capacity of the collector's finished-span ring buffer.
pub const DEFAULT_COLLECTOR_CAPACITY: usize = 4096;

/// Propagated trace identity: which trace a unit of work belongs to and which
/// span caused it.
///
/// The wire format is the W3C `traceparent` header,
/// `00-{trace_id:032x}-{span_id:016x}-{flags:02x}`, where bit 0 of the flags
/// byte carries the head-based sampling decision. The parent id is local
/// bookkeeping and is not carried on the wire — the receiver's spans parent
/// to the sender's `span_id`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace identifier shared by every span in the tree.
    pub trace_id: u128,
    /// 64-bit identifier of the span this context describes.
    pub span_id: u64,
    /// Local parent span id, if any. Never serialized.
    pub parent_id: Option<u64>,
    /// Head-based sampling decision, made once at the root and propagated.
    pub sampled: bool,
}

impl TraceContext {
    /// A context that carries no identity; [`TraceContext::is_valid`] is
    /// false and injection/recording are no-ops.
    pub fn disabled() -> TraceContext {
        TraceContext::default()
    }

    /// True when the context carries real (non-zero) identifiers.
    pub fn is_valid(&self) -> bool {
        self.trace_id != 0 && self.span_id != 0
    }

    /// True when spans under this context should be recorded.
    pub fn is_recording(&self) -> bool {
        self.is_valid() && self.sampled
    }

    /// Render the context as a `traceparent` header value.
    pub fn traceparent(&self) -> String {
        let flags: u8 = if self.sampled { 0x01 } else { 0x00 };
        format!(
            "00-{:032x}-{:016x}-{:02x}",
            self.trace_id, self.span_id, flags
        )
    }

    /// Parse a `traceparent` header value. Returns `None` for malformed
    /// input, unknown versions, or all-zero identifiers.
    pub fn parse(header: &str) -> Option<TraceContext> {
        let mut parts = header.trim().split('-');
        let version = parts.next()?;
        let trace_hex = parts.next()?;
        let span_hex = parts.next()?;
        let flags_hex = parts.next()?;
        if parts.next().is_some() {
            return None;
        }
        if version.len() != 2 || version == "ff" || u8::from_str_radix(version, 16).is_err() {
            return None;
        }
        if trace_hex.len() != 32 || span_hex.len() != 16 || flags_hex.len() != 2 {
            return None;
        }
        let trace_id = u128::from_str_radix(trace_hex, 16).ok()?;
        let span_id = u64::from_str_radix(span_hex, 16).ok()?;
        let flags = u8::from_str_radix(flags_hex, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id,
            parent_id: None,
            sampled: flags & 0x01 != 0,
        })
    }
}

struct IdsInner {
    state: u64,
    sample_rate: f64,
}

/// Seeded, deterministic source of trace/span identifiers and head-based
/// sampling decisions (SplitMix64 under the hood). The deployment builder
/// reseeds it from the testbed's HMAC-DRBG.
#[derive(Clone)]
pub struct TraceIds {
    inner: Arc<Mutex<IdsInner>>,
}

impl Default for TraceIds {
    fn default() -> TraceIds {
        TraceIds::new(0x9e37_79b9_7f4a_7c15)
    }
}

impl TraceIds {
    /// Create a generator from an explicit seed.
    pub fn new(seed: u64) -> TraceIds {
        TraceIds {
            inner: Arc::new(Mutex::new(IdsInner {
                state: seed,
                sample_rate: 1.0,
            })),
        }
    }

    /// Replace the generator state with a new seed.
    pub fn seed(&self, seed: u64) {
        self.inner.lock().unwrap().state = seed;
    }

    /// Set the head-based sampling rate in `[0.0, 1.0]`.
    pub fn set_sample_rate(&self, rate: f64) {
        self.inner.lock().unwrap().sample_rate = rate.clamp(0.0, 1.0);
    }

    /// The configured head-based sampling rate.
    pub fn sample_rate(&self) -> f64 {
        self.inner.lock().unwrap().sample_rate
    }

    fn next(inner: &mut IdsInner) -> u64 {
        // SplitMix64: deterministic given the seed, well distributed.
        inner.state = inner.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = inner.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Draw a non-zero 64-bit span id.
    pub fn next_span_id(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        loop {
            let id = Self::next(&mut inner);
            if id != 0 {
                return id;
            }
        }
    }

    /// Draw a non-zero 128-bit trace id.
    pub fn next_trace_id(&self) -> u128 {
        let mut inner = self.inner.lock().unwrap();
        loop {
            let hi = Self::next(&mut inner);
            let lo = Self::next(&mut inner);
            let id = (u128::from(hi) << 64) | u128::from(lo);
            if id != 0 {
                return id;
            }
        }
    }

    /// Make the head-based sampling decision for a new root.
    pub fn decide_sampled(&self) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let rate = inner.sample_rate;
        if rate >= 1.0 {
            return true;
        }
        if rate <= 0.0 {
            return false;
        }
        let draw = Self::next(&mut inner);
        (draw as f64 / u64::MAX as f64) < rate
    }
}

/// A timestamped note attached to a span: faults, retries, breaker
/// transitions, crashes and recoveries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Simulated unix seconds when the event happened.
    pub time: u64,
    /// Short machine-readable kind, e.g. `fault`, `retry`, `breaker`,
    /// `crash`, `recovery`.
    pub kind: String,
    /// Human-readable detail naming the site or cause.
    pub detail: String,
}

/// A finished span as stored by the collector.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Trace the span belongs to.
    pub trace_id: u128,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id within the same trace, `None` for roots.
    pub parent_id: Option<u64>,
    /// Logical service that produced the span (`vm`, `ias`, `agent`, ...).
    pub service: String,
    /// Operation name.
    pub name: String,
    /// Simulated unix seconds when the span opened.
    pub started_at: u64,
    /// Microseconds since the collector epoch when the span opened; the
    /// waterfall's x axis.
    pub offset_micros: u64,
    /// Wall-clock duration in microseconds.
    pub duration_micros: u64,
    /// Events attached to this span.
    pub annotations: Vec<Annotation>,
}

/// One row of the `GET /vm/traces` index.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Trace identifier.
    pub trace_id: u128,
    /// Name of the earliest span in the trace (normally the root).
    pub root_name: String,
    /// Number of spans retained for the trace.
    pub span_count: usize,
    /// Total annotations across the trace's spans.
    pub annotation_count: usize,
    /// Simulated unix seconds of the earliest span.
    pub started_at: u64,
    /// End-to-end duration: latest end minus earliest start, microseconds.
    pub duration_micros: u64,
}

struct CollectorInner {
    finished: VecDeque<TraceSpan>,
    capacity: usize,
    dropped: u64,
    /// Annotations for spans that have not finished yet, merged at finish.
    pending: HashMap<u64, Vec<Annotation>>,
    /// The trace context active when the manager last simulated a crash;
    /// consumed by recovery to stitch the recovery generation onto the
    /// crashed trace across manager incarnations.
    crash_scope: Option<TraceContext>,
}

/// Bounded assembly point for finished trace spans.
///
/// Spans land in a ring buffer (`capacity`, evictions counted in
/// [`TraceCollector::dropped`]) and are grouped per trace id on read.
/// Annotations may arrive before or after their span finishes; both orders
/// merge onto the stored span.
#[derive(Clone)]
pub struct TraceCollector {
    inner: Arc<Mutex<CollectorInner>>,
    epoch: Instant,
}

impl Default for TraceCollector {
    fn default() -> TraceCollector {
        TraceCollector::new(DEFAULT_COLLECTOR_CAPACITY)
    }
}

impl TraceCollector {
    /// Create a collector retaining at most `capacity` finished spans.
    pub fn new(capacity: usize) -> TraceCollector {
        TraceCollector {
            inner: Arc::new(Mutex::new(CollectorInner {
                finished: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
                pending: HashMap::new(),
                crash_scope: None,
            })),
            epoch: Instant::now(),
        }
    }

    /// Microseconds elapsed since the collector was created; used as the
    /// common x axis for span offsets.
    pub fn offset_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Store a finished span, merging any annotations that arrived early.
    pub fn record(&self, mut span: TraceSpan) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(mut early) = inner.pending.remove(&span.span_id) {
            span.annotations.append(&mut early);
        }
        if inner.finished.len() >= inner.capacity {
            inner.finished.pop_front();
            inner.dropped += 1;
        }
        inner.finished.push_back(span);
    }

    /// Attach an annotation to a span by id. If the span has already
    /// finished the annotation is merged in place; otherwise it is held
    /// until the span finishes.
    pub fn annotate(&self, span_id: u64, time: u64, kind: &str, detail: &str) {
        let annotation = Annotation {
            time,
            kind: kind.to_string(),
            detail: detail.to_string(),
        };
        let mut inner = self.inner.lock().unwrap();
        if let Some(span) = inner
            .finished
            .iter_mut()
            .rev()
            .find(|span| span.span_id == span_id)
        {
            span.annotations.push(annotation);
            return;
        }
        inner.pending.entry(span_id).or_default().push(annotation);
    }

    /// Number of spans evicted from the ring buffer.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Number of finished spans currently retained.
    pub fn span_count(&self) -> usize {
        self.inner.lock().unwrap().finished.len()
    }

    /// Remember the context that was active when a crash fired.
    pub fn set_crash_scope(&self, ctx: TraceContext) {
        if ctx.is_recording() {
            self.inner.lock().unwrap().crash_scope = Some(ctx);
        }
    }

    /// Consume the crash scope, if any — recovery calls this to annotate
    /// the crashed trace with the new generation.
    pub fn take_crash_scope(&self) -> Option<TraceContext> {
        self.inner.lock().unwrap().crash_scope.take()
    }

    /// All spans of one trace, ordered by start offset.
    pub fn trace(&self, trace_id: u128) -> Vec<TraceSpan> {
        let inner = self.inner.lock().unwrap();
        let mut spans: Vec<TraceSpan> = inner
            .finished
            .iter()
            .filter(|span| span.trace_id == trace_id)
            .cloned()
            .collect();
        spans.sort_by_key(|span| (span.offset_micros, span.span_id));
        spans
    }

    /// Index of retained traces in first-seen order.
    pub fn summaries(&self) -> Vec<TraceSummary> {
        let inner = self.inner.lock().unwrap();
        let mut order: Vec<u128> = Vec::new();
        let mut grouped: BTreeMap<u128, Vec<&TraceSpan>> = BTreeMap::new();
        for span in &inner.finished {
            if !grouped.contains_key(&span.trace_id) {
                order.push(span.trace_id);
            }
            grouped.entry(span.trace_id).or_default().push(span);
        }
        order
            .into_iter()
            .map(|trace_id| {
                let spans = &grouped[&trace_id];
                let first = spans
                    .iter()
                    .min_by_key(|span| span.offset_micros)
                    .expect("non-empty trace group");
                let start = first.offset_micros;
                let end = spans
                    .iter()
                    .map(|span| span.offset_micros + span.duration_micros)
                    .max()
                    .unwrap_or(start);
                TraceSummary {
                    trace_id,
                    root_name: first.name.clone(),
                    span_count: spans.len(),
                    annotation_count: spans.iter().map(|span| span.annotations.len()).sum(),
                    started_at: first.started_at,
                    duration_micros: end.saturating_sub(start),
                }
            })
            .collect()
    }

    /// Render a trace as an indented ASCII waterfall, or `None` when the
    /// trace has no retained spans.
    pub fn render_waterfall(&self, trace_id: u128) -> Option<String> {
        let spans = self.trace(trace_id);
        if spans.is_empty() {
            return None;
        }
        let start = spans.iter().map(|s| s.offset_micros).min().unwrap_or(0);
        let end = spans
            .iter()
            .map(|s| s.offset_micros + s.duration_micros)
            .max()
            .unwrap_or(start);
        let window = (end - start).max(1);
        const BAR: usize = 32;

        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        let mut children: HashMap<u64, Vec<&TraceSpan>> = HashMap::new();
        let mut roots: Vec<&TraceSpan> = Vec::new();
        for span in &spans {
            match span.parent_id {
                Some(parent) if ids.contains(&parent) => {
                    children.entry(parent).or_default().push(span)
                }
                _ => roots.push(span),
            }
        }

        let label_width = spans
            .iter()
            .map(|s| s.name.len() + s.service.len() + 3)
            .max()
            .unwrap_or(16)
            + 8;
        let mut out = format!("trace {trace_id:032x} ({} spans)\n", spans.len());
        let mut stack: Vec<(&TraceSpan, usize)> = roots.into_iter().rev().map(|s| (s, 0)).collect();
        while let Some((span, depth)) = stack.pop() {
            let from = ((span.offset_micros - start) as usize * BAR) / window as usize;
            let len = ((span.duration_micros as usize * BAR) / window as usize).max(1);
            let to = (from + len).min(BAR);
            let mut bar = String::with_capacity(BAR);
            for i in 0..BAR {
                bar.push(if i >= from && i < to { '#' } else { '.' });
            }
            let label = format!("{}{} [{}]", "  ".repeat(depth), span.name, span.service);
            out.push_str(&format!(
                "{label:<label_width$} |{bar}| {:>8} us\n",
                span.duration_micros
            ));
            for annotation in &span.annotations {
                out.push_str(&format!(
                    "{}  ! {}: {}\n",
                    "  ".repeat(depth + 1),
                    annotation.kind,
                    annotation.detail
                ));
            }
            if let Some(kids) = children.get(&span.span_id) {
                for kid in kids.iter().rev() {
                    stack.push((kid, depth + 1));
                }
            }
        }
        Some(out)
    }

    /// Render a trace as a Chrome `trace_event` JSON array (load it at
    /// `chrome://tracing` or in Perfetto), or `None` when the trace has no
    /// retained spans.
    pub fn render_chrome(&self, trace_id: u128) -> Option<String> {
        let spans = self.trace(trace_id);
        if spans.is_empty() {
            return None;
        }
        let mut out = String::from("[");
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"span_id\":\"{:016x}\"",
                json_escape(&span.name),
                json_escape(&span.service),
                span.offset_micros,
                span.duration_micros.max(1),
                span.span_id,
            ));
            if let Some(parent) = span.parent_id {
                out.push_str(&format!(",\"parent_id\":\"{parent:016x}\""));
            }
            if !span.annotations.is_empty() {
                out.push_str(",\"annotations\":[");
                for (j, annotation) in span.annotations.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "\"{}: {}\"",
                        json_escape(&annotation.kind),
                        json_escape(&annotation.detail)
                    ));
                }
                out.push(']');
            }
            out.push_str("}}");
        }
        out.push(']');
        Some(out)
    }
}

fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: u128, span_id: u64, parent: Option<u64>, name: &str) -> TraceSpan {
        TraceSpan {
            trace_id,
            span_id,
            parent_id: parent,
            service: "vm".into(),
            name: name.into(),
            started_at: 1_600_000_000,
            offset_micros: span_id * 10,
            duration_micros: 100,
            annotations: Vec::new(),
        }
    }

    #[test]
    fn traceparent_roundtrip() {
        let ctx = TraceContext {
            trace_id: 0x0123_4567_89ab_cdef_0123_4567_89ab_cdef,
            span_id: 0xfeed_face_dead_beef,
            parent_id: Some(7),
            sampled: true,
        };
        let header = ctx.traceparent();
        assert_eq!(
            header,
            "00-0123456789abcdef0123456789abcdef-feedfacedeadbeef-01"
        );
        let parsed = TraceContext::parse(&header).expect("parses");
        assert_eq!(parsed.trace_id, ctx.trace_id);
        assert_eq!(parsed.span_id, ctx.span_id);
        assert_eq!(parsed.parent_id, None);
        assert!(parsed.sampled);
    }

    #[test]
    fn traceparent_rejects_malformed() {
        assert!(TraceContext::parse("").is_none());
        assert!(TraceContext::parse("00-short-feedfacedeadbeef-01").is_none());
        assert!(
            TraceContext::parse("ff-0123456789abcdef0123456789abcdef-feedfacedeadbeef-01")
                .is_none()
        );
        // all-zero trace id is invalid per the W3C spec
        assert!(
            TraceContext::parse("00-00000000000000000000000000000000-feedfacedeadbeef-01")
                .is_none()
        );
        let unsampled =
            TraceContext::parse("00-0123456789abcdef0123456789abcdef-feedfacedeadbeef-00")
                .expect("parses");
        assert!(!unsampled.sampled);
    }

    #[test]
    fn ids_are_deterministic_for_a_seed() {
        let a = TraceIds::new(42);
        let b = TraceIds::new(42);
        assert_eq!(a.next_trace_id(), b.next_trace_id());
        assert_eq!(a.next_span_id(), b.next_span_id());
        let c = TraceIds::new(43);
        assert_ne!(TraceIds::new(42).next_trace_id(), c.next_trace_id());
    }

    #[test]
    fn sampling_rates_bound_decisions() {
        let always = TraceIds::new(1);
        always.set_sample_rate(1.0);
        assert!((0..100).all(|_| always.decide_sampled()));
        let never = TraceIds::new(1);
        never.set_sample_rate(0.0);
        assert!((0..100).all(|_| !never.decide_sampled()));
        let half = TraceIds::new(1);
        half.set_sample_rate(0.5);
        let hits = (0..1000).filter(|_| half.decide_sampled()).count();
        assert!(hits > 300 && hits < 700, "got {hits}/1000 at rate 0.5");
    }

    #[test]
    fn collector_ring_buffer_drops_and_counts() {
        let collector = TraceCollector::new(8);
        for i in 1..=20u64 {
            collector.record(span(1, i, None, "s"));
        }
        assert_eq!(collector.span_count(), 8);
        assert_eq!(collector.dropped(), 12);
    }

    #[test]
    fn annotations_merge_before_and_after_finish() {
        let collector = TraceCollector::new(16);
        collector.annotate(5, 10, "fault", "early");
        collector.record(span(1, 5, None, "work"));
        collector.annotate(5, 20, "retry", "late");
        let spans = collector.trace(1);
        assert_eq!(spans.len(), 1);
        let kinds: Vec<&str> = spans[0]
            .annotations
            .iter()
            .map(|a| a.kind.as_str())
            .collect();
        assert_eq!(kinds, vec!["fault", "retry"]);
    }

    #[test]
    fn waterfall_and_chrome_render_tree() {
        let collector = TraceCollector::new(16);
        collector.record(span(9, 1, None, "root"));
        collector.record(span(9, 2, Some(1), "child"));
        collector.annotate(2, 5, "crash", "enrollment.commit");
        let waterfall = collector.render_waterfall(9).expect("renders");
        assert!(waterfall.contains("root [vm]"));
        assert!(waterfall.contains("  child [vm]"));
        assert!(waterfall.contains("crash: enrollment.commit"));
        let chrome = collector.render_chrome(9).expect("renders");
        assert!(chrome.starts_with('[') && chrome.ends_with(']'));
        assert!(chrome.contains("\"name\":\"child\""));
        assert!(chrome.contains("\"parent_id\":\"0000000000000001\""));
        assert!(collector.render_waterfall(1234).is_none());
    }

    #[test]
    fn summaries_group_by_trace() {
        let collector = TraceCollector::new(16);
        collector.record(span(1, 1, None, "a"));
        collector.record(span(1, 2, Some(1), "b"));
        collector.record(span(2, 3, None, "c"));
        let summaries = collector.summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].trace_id, 1);
        assert_eq!(summaries[0].span_count, 2);
        assert_eq!(summaries[1].root_name, "c");
    }

    #[test]
    fn crash_scope_is_consumed_once() {
        let collector = TraceCollector::new(4);
        let ctx = TraceContext {
            trace_id: 7,
            span_id: 8,
            parent_id: None,
            sampled: true,
        };
        collector.set_crash_scope(ctx.clone());
        assert_eq!(collector.take_crash_scope(), Some(ctx));
        assert_eq!(collector.take_crash_scope(), None);
        // non-recording contexts are ignored
        collector.set_crash_scope(TraceContext::disabled());
        assert_eq!(collector.take_crash_scope(), None);
    }
}
