//! Counters, gauges, and log-bucketed latency histograms, collected in a
//! [`MetricsRegistry`] and rendered as Prometheus text exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter. Cloning shares the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not attached to any registry (used by disabled telemetry:
    /// increments land on dead storage and are never rendered).
    pub fn detached() -> Counter {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge. Cloning shares the same cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of finite histogram buckets; one more holds the overflow.
pub const FINITE_BUCKETS: usize = 32;

/// How many exemplars a histogram (or a merged snapshot) retains.
pub const EXEMPLAR_CAP: usize = 8;

/// Upper bound (inclusive) of finite bucket `idx`: `2^idx`.
pub fn bucket_bound(idx: usize) -> u64 {
    1u64 << idx
}

/// A sampled observation that links a histogram bucket back to the
/// distributed trace that produced it: the operator path from "p99
/// breached" to the exact `/vm/traces/{id}` waterfall to blame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// The recorded sample (typically microseconds).
    pub value: u64,
    /// The 128-bit trace id of the request that produced the sample.
    pub trace_id: u128,
    /// Index of the log₂ bucket the sample landed in.
    pub bucket: usize,
}

impl Exemplar {
    /// Strict total order used for retention: slowest samples first, ties
    /// broken by trace id then bucket. A *total* order (no equal distinct
    /// elements survive ambiguously) is what makes top-K retention under
    /// merge associative and commutative.
    fn rank(&self) -> (u64, u128, usize) {
        (self.value, self.trace_id, self.bucket)
    }
}

/// Keep only the top-[`EXEMPLAR_CAP`] exemplars by [`Exemplar::rank`],
/// descending. Shared by live recording and snapshot merge so both sides
/// agree on which exemplars survive.
fn retain_top_exemplars(exemplars: &mut Vec<Exemplar>) {
    exemplars.sort_by_key(|e| std::cmp::Reverse(e.rank()));
    exemplars.dedup_by(|a, b| a.rank() == b.rank());
    exemplars.truncate(EXEMPLAR_CAP);
}

struct HistogramInner {
    buckets: [AtomicU64; FINITE_BUCKETS + 1],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    // Only traced requests pay for this lock, and only rarely: the hot
    // untraced path stays lock-free atomics.
    exemplars: Mutex<Vec<Exemplar>>,
}

/// A log₂-bucketed histogram of `u64` samples (typically microseconds).
///
/// Finite bucket `i` holds samples in `(2^(i-1), 2^i]` (bucket 0 holds 0
/// and 1); samples above `2^31` land in the overflow bucket. Tracks exact
/// count, sum and max alongside the buckets, so `max` is precise while
/// `p50/p90/p99` are bucket-bound estimates.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
                exemplars: Mutex::new(Vec::new()),
            }),
        }
    }
}

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(FINITE_BUCKETS)
        }
    }

    pub fn record(&self, v: u64) {
        let inner = &self.inner;
        inner.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a sample that came from a traced request, keeping its trace
    /// id as an [`Exemplar`] so the rendered series links back to the
    /// waterfall that produced it.
    pub fn record_with_exemplar(&self, v: u64, trace_id: u128) {
        self.record(v);
        let mut exemplars = self
            .inner
            .exemplars
            .lock()
            .expect("histogram exemplars poisoned");
        exemplars.push(Exemplar {
            value: v,
            trace_id,
            bucket: Self::bucket_index(v),
        });
        retain_top_exemplars(&mut exemplars);
    }

    /// The retained exemplars, slowest first.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        self.inner
            .exemplars
            .lock()
            .expect("histogram exemplars poisoned")
            .clone()
    }

    /// A point-in-time copy of the full distribution — buckets, exact
    /// aggregates, and exemplars — suitable for exact cross-node merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.bucket_counts(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            exemplars: self.exemplars(),
        }
    }

    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (finite buckets then overflow).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimate the `q`-quantile (0 < q ≤ 1) as the upper bound of the
    /// bucket containing the target rank, clamped to the exact observed
    /// max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (idx, bucket) in self.inner.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                return if idx < FINITE_BUCKETS {
                    bucket_bound(idx).min(self.max())
                } else {
                    self.max()
                };
            }
        }
        self.max()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

/// A detached copy of a [`Histogram`]'s state. Because the buckets are
/// exact log₂ counts (not sketches), merging two snapshots elementwise is
/// *exact*: the merge of N nodes' snapshots is bit-identical to the
/// histogram a single node would have produced observing all N streams.
/// Merge is associative and commutative, so fleet aggregation order never
/// changes the answer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts: [`FINITE_BUCKETS`] finite buckets then overflow.
    pub buckets: Vec<u64>,
    /// Exact total sample count.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Retained trace exemplars, slowest first (top-[`EXEMPLAR_CAP`]).
    pub exemplars: Vec<Exemplar>,
}

impl HistogramSnapshot {
    /// An empty snapshot — the identity element for [`merge`](Self::merge).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; FINITE_BUCKETS + 1],
            ..HistogramSnapshot::default()
        }
    }

    /// Fold another snapshot into this one: buckets, count and sum add;
    /// max takes the max; exemplars keep the global top-[`EXEMPLAR_CAP`]
    /// under a strict total-order rank, so an exemplar recorded on any node
    /// survives every merge order the fleet aggregator might use.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.exemplars.extend(other.exemplars.iter().copied());
        retain_top_exemplars(&mut self.exemplars);
    }

    /// Bucket-bound quantile estimate, mirroring [`Histogram::quantile`]:
    /// the upper bound of the bucket holding the target rank, clamped to
    /// the exact observed max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (idx, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= target {
                return if idx < FINITE_BUCKETS {
                    bucket_bound(idx).min(self.max)
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Split a registry key into its metric family and the label body (the
/// text between the braces), if any.
fn split_series(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(pos) => (&name[..pos], Some(name[pos + 1..].trim_end_matches('}'))),
        None => (name, None),
    }
}

/// A companion series line (`_sum`, `_count`, …) for a possibly-labeled
/// histogram: the suffix attaches to the family, the labels re-attach
/// after it.
fn companion(family: &str, suffix: &str, labels: Option<&str>) -> String {
    match labels {
        Some(labels) => format!("{family}{suffix}{{{labels}}}"),
        None => format!("{family}{suffix}"),
    }
}

/// A `_bucket` line for a possibly-labeled histogram: `le` merges after
/// any existing labels, matching Prometheus exposition conventions.
fn bucket_series(family: &str, labels: Option<&str>, le: &str) -> String {
    match labels {
        Some(labels) => format!("{family}_bucket{{{labels},le=\"{le}\"}}"),
        None => format!("{family}_bucket{{le=\"{le}\"}}"),
    }
}

/// A registry of named metrics. Cloning shares the registry. Series are
/// registered only through a [`Namespace`]; the registry itself reads them
/// back and renders Prometheus text exposition, with
/// `_p50/_p90/_p99/_max` companion lines for each histogram.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// Current value of a registered counter (None if never registered).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.inner
            .lock()
            .expect("metrics registry poisoned")
            .counters
            .get(name)
            .map(Counter::get)
    }

    /// Snapshot of a registered histogram (None if never registered).
    pub fn histogram_snapshot(&self, name: &str) -> Option<Histogram> {
        self.inner
            .lock()
            .expect("metrics registry poisoned")
            .histograms
            .get(name)
            .cloned()
    }

    /// Render every metric in Prometheus text exposition format, sorted by
    /// name. Labeled series of one family share one `# TYPE` header. Histogram bucket lines stop at the
    /// highest occupied finite bucket (plus the mandatory `+Inf` line) to
    /// keep the surface compact; a bucket holding a retained exemplar
    /// carries it OpenMetrics-style after a `#`.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        // Families can interleave with unrelated names in key order (`{`
        // sorts after `_`), so track emitted TYPE headers by family rather
        // than by adjacency.
        let mut typed = std::collections::BTreeSet::new();
        for (name, counter) in &inner.counters {
            let (family, _) = split_series(name);
            if typed.insert(family.to_string()) {
                out.push_str(&format!("# TYPE {family} counter\n"));
            }
            out.push_str(&format!("{name} {}\n", counter.get()));
        }
        for (name, gauge) in &inner.gauges {
            let (family, _) = split_series(name);
            if typed.insert(family.to_string()) {
                out.push_str(&format!("# TYPE {family} gauge\n"));
            }
            out.push_str(&format!("{name} {}\n", gauge.get()));
        }
        for (name, histogram) in &inner.histograms {
            let (family, labels) = split_series(name);
            if typed.insert(family.to_string()) {
                out.push_str(&format!("# TYPE {family} histogram\n"));
            }
            let counts = histogram.bucket_counts();
            let exemplars = histogram.exemplars();
            let last_occupied = counts[..FINITE_BUCKETS]
                .iter()
                .rposition(|&c| c > 0)
                .unwrap_or(0);
            let mut cumulative = 0u64;
            for (idx, &count) in counts.iter().take(last_occupied + 1).enumerate() {
                cumulative += count;
                out.push_str(&format!(
                    "{} {cumulative}",
                    bucket_series(family, labels, &bucket_bound(idx).to_string())
                ));
                if let Some(ex) = exemplars.iter().find(|e| e.bucket == idx) {
                    out.push_str(&format!(
                        " # {{trace_id=\"{:032x}\"}} {}",
                        ex.trace_id, ex.value
                    ));
                }
                out.push('\n');
            }
            out.push_str(&format!(
                "{} {}\n",
                bucket_series(family, labels, "+Inf"),
                histogram.count()
            ));
            out.push_str(&format!(
                "{} {}\n",
                companion(family, "_sum", labels),
                histogram.sum()
            ));
            out.push_str(&format!(
                "{} {}\n",
                companion(family, "_count", labels),
                histogram.count()
            ));
            out.push_str(&format!(
                "{} {}\n",
                companion(family, "_p50", labels),
                histogram.quantile(0.50)
            ));
            out.push_str(&format!(
                "{} {}\n",
                companion(family, "_p90", labels),
                histogram.quantile(0.90)
            ));
            out.push_str(&format!(
                "{} {}\n",
                companion(family, "_p99", labels),
                histogram.quantile(0.99)
            ));
            out.push_str(&format!(
                "{} {}\n",
                companion(family, "_max", labels),
                histogram.max()
            ));
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// A metric namespace, the only way to register a series: every series
/// registered through it is named `vnfguard_<namespace>_<name>`, its
/// labels sorted by key. A namespace of a disabled
/// [`Telemetry`](crate::Telemetry) hands out detached metrics.
pub struct Namespace {
    registry: Option<MetricsRegistry>,
    name: &'static str,
}

impl Namespace {
    pub(crate) fn new(registry: Option<MetricsRegistry>, name: &'static str) -> Namespace {
        Namespace { registry, name }
    }

    /// Get-or-register series `name` with `labels` in the map `kind`
    /// picks, under the key `vnfguard_<namespace>_<name>{k="v",...}` that
    /// [`MetricsRegistry::render_prometheus`] splits into family and labels.
    fn register<M: Clone + Default>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: fn(&mut RegistryInner) -> &mut BTreeMap<String, M>,
    ) -> M {
        let Some(registry) = &self.registry else {
            return M::default();
        };
        let mut labels = labels.to_vec();
        labels.sort_unstable();
        let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        let mut key = format!("vnfguard_{}_{name}", self.name);
        if !labels.is_empty() {
            key.push_str(&format!("{{{}}}", labels.join(",")));
        }
        let mut inner = registry.inner.lock().expect("metrics registry poisoned");
        kind(&mut inner).entry(key).or_default().clone()
    }

    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.register(name, labels, |r| &mut r.counters)
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.register(name, labels, |r| &mut r.gauges)
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.register(name, labels, |r| &mut r.histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Namespace `x` over `registry`.
    fn x(registry: &MetricsRegistry) -> Namespace {
        Namespace::new(Some(registry.clone()), "x")
    }

    #[test]
    fn counter_and_gauge_basics() {
        let registry = MetricsRegistry::default();
        let c = x(&registry).counter("c_total", &[]);
        c.inc();
        c.add(4);
        assert_eq!(x(&registry).counter("c_total", &[]).get(), 5);
        let g = x(&registry).gauge("g", &[]);
        g.set(-3);
        g.add(10);
        assert_eq!(x(&registry).gauge("g", &[]).get(), 7);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket i holds (2^(i-1), 2^i]; bucket 0 holds {0, 1}.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(1 << 10), 10);
        assert_eq!(Histogram::bucket_index((1 << 10) + 1), 11);
        assert_eq!(Histogram::bucket_index(1 << 31), 31);
        assert_eq!(Histogram::bucket_index((1u64 << 31) + 1), FINITE_BUCKETS);
        assert_eq!(Histogram::bucket_index(u64::MAX), FINITE_BUCKETS);
    }

    #[test]
    fn histogram_exact_aggregates_and_quantiles() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 6106);
        assert_eq!(h.max(), 5000);
        // p50: rank 3 of 6 → the bucket holding 3 (bound 4).
        assert_eq!(h.quantile(0.50), 4);
        // p99: rank 6 → bucket holding 5000 (bound 8192), clamped to max.
        assert_eq!(h.quantile(0.99), 5000);
        assert_eq!(h.quantile(1.0), 5000);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::default().quantile(0.99), 0);
    }

    #[test]
    fn overflow_bucket_quantile_returns_max() {
        let h = Histogram::default();
        h.record(u64::MAX / 2);
        assert_eq!(h.quantile(0.5), u64::MAX / 2);
    }

    #[test]
    fn quantile_clamped_to_observed_max() {
        let h = Histogram::default();
        h.record(5); // bucket bound 8, but max is 5
        assert_eq!(h.quantile(0.5), 5);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let registry = MetricsRegistry::default();
        x(&registry).counter("ops_total", &[]).add(2);
        x(&registry).gauge("depth", &[]).set(4);
        let h = x(&registry).histogram("micros", &[]);
        h.record(3);
        h.record(300);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE vnfguard_x_ops_total counter"));
        assert!(text.contains("vnfguard_x_ops_total 2"));
        assert!(text.contains("vnfguard_x_depth 4"));
        assert!(text.contains("vnfguard_x_micros_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("vnfguard_x_micros_sum 303"));
        assert!(text.contains("vnfguard_x_micros_count 2"));
        assert!(text.contains("vnfguard_x_micros_p50 "));
        assert!(text.contains("vnfguard_x_micros_max 300"));
        // Cumulative bucket counts are monotone: the le="4" line counts the
        // sample 3, the last finite line counts both.
        assert!(text.contains("vnfguard_x_micros_bucket{le=\"4\"} 1"));
        assert!(text.contains("vnfguard_x_micros_bucket{le=\"512\"} 2"));
    }

    #[test]
    fn detached_metrics_never_render() {
        let registry = MetricsRegistry::default();
        let c = Counter::detached();
        c.add(10);
        assert_eq!(registry.render_prometheus(), "");
    }

    #[test]
    fn labeled_series_share_one_type_header() {
        let registry = MetricsRegistry::default();
        x(&registry).counter("ops_total", &[("shard", "0")]).add(2);
        x(&registry).counter("ops_total", &[("shard", "1")]).add(5);
        let text = registry.render_prometheus();
        assert_eq!(
            text.matches("# TYPE vnfguard_x_ops_total counter").count(),
            1
        );
        assert!(text.contains("vnfguard_x_ops_total{shard=\"0\"} 2"));
        assert!(text.contains("vnfguard_x_ops_total{shard=\"1\"} 5"));
    }

    #[test]
    fn labeled_histogram_merges_labels_into_companion_lines() {
        let registry = MetricsRegistry::default();
        x(&registry)
            .histogram("micros", &[("shard", "2")])
            .record(3);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE vnfguard_x_micros histogram"));
        assert!(text.contains("vnfguard_x_micros_bucket{shard=\"2\",le=\"4\"} 1"));
        assert!(text.contains("vnfguard_x_micros_bucket{shard=\"2\",le=\"+Inf\"} 1"));
        assert!(text.contains("vnfguard_x_micros_sum{shard=\"2\"} 3"));
        assert!(text.contains("vnfguard_x_micros_count{shard=\"2\"} 1"));
        assert!(text.contains("vnfguard_x_micros_max{shard=\"2\"} 3"));
    }

    #[test]
    fn namespace_prefixes_names_and_sorts_labels() {
        let registry = MetricsRegistry::default();
        x(&registry)
            .counter("ops_total", &[("shard", "1"), ("backend", "snp")])
            .add(2);
        // The same labels in the other order name the same series.
        x(&registry)
            .counter("ops_total", &[("backend", "snp"), ("shard", "1")])
            .inc();
        assert_eq!(
            registry.counter_value("vnfguard_x_ops_total{backend=\"snp\",shard=\"1\"}"),
            Some(3)
        );
        // A disabled namespace hands out detached metrics.
        Namespace::new(None, "x").counter("gone_total", &[]).inc();
        assert_eq!(registry.counter_value("vnfguard_x_gone_total"), None);
    }

    #[test]
    fn exemplars_retained_slowest_first_and_rendered() {
        let h = Histogram::default();
        for v in 0..(EXEMPLAR_CAP as u64 + 4) {
            h.record_with_exemplar(v * 100, 0xAB00 + v as u128);
        }
        let exemplars = h.exemplars();
        assert_eq!(exemplars.len(), EXEMPLAR_CAP);
        // Slowest survive; the 4 fastest were evicted.
        assert_eq!(exemplars[0].value, (EXEMPLAR_CAP as u64 + 3) * 100);
        assert!(exemplars.iter().all(|e| e.value >= 400));
        let registry = MetricsRegistry::default();
        let h = x(&registry).histogram("micros", &[]);
        h.record_with_exemplar(300, 0xDEAD);
        let text = registry.render_prometheus();
        assert!(text.contains(&format!(" # {{trace_id=\"{:032x}\"}} 300", 0xDEADu128)));
    }

    #[test]
    fn snapshot_merge_is_exact() {
        let a = Histogram::default();
        let b = Histogram::default();
        let whole = Histogram::default();
        for v in [1u64, 7, 300, 9000] {
            a.record(v);
            whole.record(v);
        }
        for v in [2u64, 300, 40_000] {
            b.record(v);
            whole.record(v);
        }
        b.record_with_exemplar(1_000_000, 0x77);
        whole.record(1_000_000);
        let mut merged = HistogramSnapshot::empty();
        merged.merge(&a.snapshot());
        merged.merge(&b.snapshot());
        assert_eq!(merged.buckets, whole.snapshot().buckets);
        assert_eq!(merged.count, whole.count());
        assert_eq!(merged.sum, whole.sum());
        assert_eq!(merged.max, whole.max());
        assert_eq!(merged.quantile(0.5), whole.quantile(0.5));
        assert_eq!(merged.quantile(0.99), whole.quantile(0.99));
        // The exemplar recorded on node b survives the merge.
        assert!(merged.exemplars.iter().any(|e| e.trace_id == 0x77));
    }
}
