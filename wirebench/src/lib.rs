//! The benchmark's own arithmetic, kept apart from the workloads so it can
//! be unit-tested without standing up a deployment: the percentile rule,
//! open-loop due-time latency, failure ratios, and self time over a span
//! tree.

pub mod spans;
pub mod stats;
