//! The benchmark's span tree: its own spans around every call it makes,
//! merged with the spans the program records under the same trace, and
//! the self-time arithmetic over them.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// One finished span. Times are microseconds on one shared clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// The benchmark request the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_us, span.end_us));
        }
    }
    spans
        .iter()
        .map(|span| {
            let inner = children
                .get(&span.id)
                .map(|c| covered(c, span.start_us, span.end_us))
                .unwrap_or(0);
            (span.id, span.duration() - inner)
        })
        .collect()
}

/// Time of `root` accounted to layers: the part of the root's interval
/// covered by its children, which equals the summed self time of the
/// spans below it along a sequential blocking path.
pub fn accounted(spans: &[Span], root: &Span) -> u64 {
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(root.id))
        .map(|s| (s.start_us, s.end_us))
        .collect();
    covered(&children, root.start_us, root.end_us)
}

/// Self time of every span, grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<String, Vec<f64>> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for span in spans {
        by_name
            .entry(span.name.clone())
            .or_default()
            .push(selfs[&span.id] as f64);
    }
    by_name
}

/// Per request rooted at a span named `root_name`: the root's duration and
/// the part of it accounted to layers below.
pub fn accounted_by_request(spans: &[Span], root_name: &str) -> Vec<(u64, u64)> {
    let mut by_request: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for span in spans {
        by_request
            .entry(span.request)
            .or_default()
            .push(span.clone());
    }
    by_request
        .values()
        .filter_map(|tree| {
            let root = tree
                .iter()
                .find(|s| s.parent.is_none() && s.name == root_name)?;
            Some((root.duration(), accounted(tree, root)))
        })
        .collect()
}

/// Spans kept in memory for the run and written out when it ends.
#[derive(Default)]
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        self.spans.lock().expect("span log poisoned").extend(spans);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}
