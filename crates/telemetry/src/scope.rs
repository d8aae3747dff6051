//! The request scope: one request's trace context and deadline, installed
//! on the thread that handles it.
//!
//! A request is served start to finish on one thread, so its identity can
//! live in a thread-local instead of being threaded through every call.
//! [`RequestScope::enter`] installs a [`TraceContext`] and an optional
//! [`Deadline`]; everything downstream reads them with [`current_trace`]
//! and [`current_deadline`]. Spans opened through
//! [`Telemetry`](crate::Telemetry) become children of the current context
//! and replace it until their guard drops, so nesting follows the call
//! stack. Scopes nest; dropping one restores what it replaced.

use crate::trace::TraceContext;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

/// A request's remaining time budget, in both simulated and wall-clock
/// time. Expired when **either** component is exhausted: the simulated
/// component catches budget burned by backoff loops (which advance the
/// deployment's simulated clock), the wall-clock component catches real
/// stalls (queueing, WAL group-commit flushes) during which the simulated
/// clock stands still. A deadline started without a simulated clock has
/// only the wall-clock component.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    sim_expires_at: Option<u64>,
    real_expires: Instant,
}

impl Deadline {
    /// Start a deadline `budget_millis` from now. `sim_now` is the current
    /// simulated time in unix seconds, if the caller has a simulated
    /// clock; the simulated component rounds the budget up to whole
    /// seconds. A zero budget is already expired.
    pub fn start(sim_now: Option<u64>, budget_millis: u64) -> Deadline {
        Deadline {
            sim_expires_at: sim_now.map(|now| now.saturating_add(budget_millis.div_ceil(1000))),
            real_expires: Instant::now() + Duration::from_millis(budget_millis),
        }
    }

    /// True once either component has run out at simulated time `sim_now`.
    pub fn expired(&self, sim_now: u64) -> bool {
        self.sim_expires_at.is_some_and(|at| sim_now >= at) || Instant::now() >= self.real_expires
    }

    /// Remaining budget in milliseconds at simulated time `sim_now`: the
    /// tighter of the two components.
    pub fn remaining_millis(&self, sim_now: u64) -> u64 {
        let real = self
            .real_expires
            .saturating_duration_since(Instant::now())
            .as_millis() as u64;
        match self.sim_expires_at {
            Some(at) => real.min(at.saturating_sub(sim_now).saturating_mul(1000)),
            None => real,
        }
    }
}

#[derive(Default)]
struct Ambient {
    trace: TraceContext,
    deadline: Option<Deadline>,
}

thread_local! {
    static AMBIENT: RefCell<Ambient> = RefCell::new(Ambient::default());
}

/// RAII guard installing a request's trace context and deadline as the
/// thread's ambient scope. Dropping it restores the scope it replaced.
///
/// The guard is bound to the thread that entered it.
#[derive(Debug)]
pub struct RequestScope {
    previous_trace: TraceContext,
    previous_deadline: Option<Deadline>,
    _thread: PhantomData<*const ()>,
}

impl RequestScope {
    /// Enter a request: `trace` becomes the current context (pass
    /// [`TraceContext::disabled`] for an untraced request) and `deadline`
    /// the current budget.
    pub fn enter(trace: TraceContext, deadline: Option<Deadline>) -> RequestScope {
        let (previous_trace, previous_deadline) = AMBIENT.with(|cell| {
            let mut ambient = cell.borrow_mut();
            (
                std::mem::replace(&mut ambient.trace, trace),
                std::mem::replace(&mut ambient.deadline, deadline),
            )
        });
        RequestScope {
            previous_trace,
            previous_deadline,
            _thread: PhantomData,
        }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        let trace = std::mem::take(&mut self.previous_trace);
        let deadline = self.previous_deadline;
        AMBIENT.with(|cell| {
            let mut ambient = cell.borrow_mut();
            ambient.trace = trace;
            ambient.deadline = deadline;
        });
    }
}

/// The thread's current trace context: the innermost open span, else the
/// request's incoming context, else an invalid (untraced) context.
pub fn current_trace() -> TraceContext {
    AMBIENT.with(|cell| cell.borrow().trace.clone())
}

/// The deadline of the thread's current request, if it carries one.
pub fn current_deadline() -> Option<Deadline> {
    AMBIENT.with(|cell| cell.borrow().deadline)
}

/// Make `trace` the current context, returning the one it replaced.
pub(crate) fn replace_trace(trace: TraceContext) -> TraceContext {
    AMBIENT.with(|cell| std::mem::replace(&mut cell.borrow_mut().trace, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace_id: u128, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id,
            span_id,
            parent_id: None,
            sampled: true,
        }
    }

    #[test]
    fn zero_budget_deadline_is_born_expired() {
        let deadline = Deadline::start(Some(100), 0);
        assert!(deadline.expired(100));
        assert_eq!(deadline.remaining_millis(100), 0);
    }

    #[test]
    fn sim_time_expires_deadline() {
        let deadline = Deadline::start(Some(100), 2_000);
        assert!(!deadline.expired(100));
        assert!(!deadline.expired(101));
        assert!(deadline.expired(102));
        assert_eq!(deadline.remaining_millis(102), 0);
    }

    #[test]
    fn wall_clock_expires_deadline_while_sim_time_stands_still() {
        let deadline = Deadline::start(Some(100), 5);
        std::thread::sleep(Duration::from_millis(10));
        assert!(deadline.expired(100));
        // Without a simulated clock only the wall-clock half counts.
        let wall_only = Deadline::start(None, 60_000);
        assert!(!wall_only.expired(u64::MAX));
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert!(!current_trace().is_valid());
        assert!(current_deadline().is_none());
        let outer = RequestScope::enter(ctx(1, 1), Some(Deadline::start(None, 60_000)));
        {
            let _inner = RequestScope::enter(ctx(2, 2), Some(Deadline::start(None, 0)));
            assert_eq!(current_trace().trace_id, 2);
            assert!(current_deadline().unwrap().expired(0));
        }
        assert_eq!(current_trace().trace_id, 1);
        assert!(!current_deadline().unwrap().expired(0));
        drop(outer);
        assert!(!current_trace().is_valid());
        assert!(current_deadline().is_none());
    }

    #[test]
    fn scopes_are_per_thread() {
        let _scope = RequestScope::enter(ctx(7, 7), None);
        let seen = std::thread::spawn(|| current_trace().is_valid())
            .join()
            .unwrap();
        assert!(!seen, "another thread must not see this thread's scope");
        assert_eq!(current_trace().trace_id, 7);
    }
}
