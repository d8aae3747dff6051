//! Retry, backoff and circuit breaking for the workflow's network calls.
//!
//! The attestation pipeline crosses the fabric three times (VM → agent,
//! VM → IAS, VM → agent again); any hop can refuse, stall or drop
//! mid-stream under the fault plans of `vnfguard_net::fault`. This module
//! gives the callers a uniform recovery vocabulary:
//!
//! - [`RetryPolicy`] — bounded attempts with exponential backoff and
//!   *full jitter* (AWS-style: each delay is uniform in `[0, bound]`).
//!   Waits advance the deployment's [`SimClock`] instead of sleeping, so
//!   a test with thirty retries still runs in microseconds and every
//!   delay is reproducible from the policy seed;
//! - [`CircuitBreaker`] — closed → open after K consecutive failures →
//!   half-open probe after a cooldown, with a transition log.
//!
//! Retries are deadline-aware: when the calling thread's request scope
//! carries a [`crate::overload::Deadline`] and it expires, the loop stops
//! rather than burning attempts nobody will wait for.

use crate::overload::deadline_expired;
use vnfguard_controller::SimClock;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Bounded retries with exponentially growing, fully jittered delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff bound after the first failed attempt, in clock seconds.
    pub base_delay_secs: u64,
    /// Ceiling for the backoff bound.
    pub max_delay_secs: u64,
    /// Seed for the jitter draws; a fixed seed replays the delays.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay_secs: 1,
            max_delay_secs: 30,
            seed: 0x5eed,
        }
    }
}

/// One attempt in a [`RetryPolicy::run`] execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// 0-based attempt index.
    pub attempt: u32,
    /// Clock time when the attempt started.
    pub at: u64,
    /// Jittered delay (seconds) waited before this attempt.
    pub delay_before_secs: u64,
    /// `None` for the successful attempt, the error text otherwise.
    pub error: Option<String>,
}

/// Result of a retried operation plus its full attempt log.
#[derive(Debug)]
pub struct RetryOutcome<T, E> {
    pub result: Result<T, E>,
    pub attempts: Vec<AttemptRecord>,
}

impl RetryPolicy {
    pub fn new(max_attempts: u32, base_delay_secs: u64, max_delay_secs: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay_secs,
            max_delay_secs,
            ..RetryPolicy::default()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// The (pre-jitter) backoff bound after the 0-based `attempt`:
    /// `min(max_delay, base_delay * 2^attempt)`.
    pub fn backoff_bound(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.base_delay_secs
            .saturating_mul(factor)
            .min(self.max_delay_secs)
    }

    /// Run `op` until it succeeds or attempts are exhausted. Between
    /// attempts the deployment clock is advanced by a uniform draw from
    /// `[0, backoff_bound(attempt)]` — full jitter, no real sleeping. No
    /// retry starts once the ambient request deadline, if one is
    /// installed, has expired: the loop ends with the last error.
    pub fn run<T, E: std::fmt::Display>(
        &self,
        clock: &SimClock,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> RetryOutcome<T, E> {
        let attempts_allowed = self.max_attempts.max(1);
        let mut rng_state = self.seed;
        let mut attempts = Vec::with_capacity(attempts_allowed as usize);
        let mut delay_before_secs = 0;
        let mut last_error = None;
        for attempt in 0..attempts_allowed {
            let at = clock.now();
            match op(attempt) {
                Ok(value) => {
                    attempts.push(AttemptRecord {
                        attempt,
                        at,
                        delay_before_secs,
                        error: None,
                    });
                    return RetryOutcome {
                        result: Ok(value),
                        attempts,
                    };
                }
                Err(error) => {
                    attempts.push(AttemptRecord {
                        attempt,
                        at,
                        delay_before_secs,
                        error: Some(error.to_string()),
                    });
                    last_error = Some(error);
                    if attempt + 1 < attempts_allowed {
                        if deadline_expired(clock) {
                            break;
                        }
                        let bound = self.backoff_bound(attempt);
                        delay_before_secs = if bound == 0 {
                            0
                        } else {
                            splitmix(&mut rng_state) % (bound + 1)
                        };
                        clock.advance(delay_before_secs);
                    }
                }
            }
        }
        RetryOutcome {
            result: Err(last_error.expect("at least one attempt ran")),
            attempts,
        }
    }
}

/// Circuit breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed,
    /// Calls are refused without touching the dependency.
    Open,
    /// The cooldown elapsed; one probe call is allowed through.
    HalfOpen,
}

/// Closed → open after `failure_threshold` consecutive failures; after
/// `cooldown_secs` a half-open probe decides between re-open and close.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    cooldown_secs: u64,
    consecutive_failures: u32,
    open_since: Option<u64>,
    transitions: Vec<(u64, BreakerState)>,
}

impl CircuitBreaker {
    pub fn new(failure_threshold: u32, cooldown_secs: u64) -> CircuitBreaker {
        CircuitBreaker {
            failure_threshold: failure_threshold.max(1),
            cooldown_secs,
            consecutive_failures: 0,
            open_since: None,
            transitions: Vec::new(),
        }
    }

    pub fn state(&self, at: u64) -> BreakerState {
        match self.open_since {
            None => BreakerState::Closed,
            Some(opened) if at >= opened.saturating_add(self.cooldown_secs) => {
                BreakerState::HalfOpen
            }
            Some(_) => BreakerState::Open,
        }
    }

    /// Should a call be attempted right now? (Closed or half-open probe.)
    pub fn allows(&self, at: u64) -> bool {
        self.state(at) != BreakerState::Open
    }

    pub fn record_success(&mut self, at: u64) {
        self.consecutive_failures = 0;
        if self.open_since.take().is_some() {
            self.transitions.push((at, BreakerState::Closed));
        }
    }

    pub fn record_failure(&mut self, at: u64) {
        match self.state(at) {
            BreakerState::HalfOpen => {
                // Failed probe: restart the cooldown.
                self.open_since = Some(at);
                self.transitions.push((at, BreakerState::Open));
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.failure_threshold {
                    self.open_since = Some(at);
                    self.transitions.push((at, BreakerState::Open));
                }
            }
            // Failures reported while open (callers that bypassed
            // `allows`) don't restart the cooldown.
            BreakerState::Open => {}
        }
    }

    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// `(time, entered-state)` log of every open/close transition.
    pub fn transitions(&self) -> &[(u64, BreakerState)] {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_returns_first_success_without_waiting() {
        let clock = SimClock::at(100);
        let outcome = RetryPolicy::default().run(&clock, |_| Ok::<_, String>(42));
        assert_eq!(outcome.result.unwrap(), 42);
        assert_eq!(outcome.attempts.len(), 1);
        assert_eq!(clock.now(), 100, "no delay before or after a success");
    }

    #[test]
    fn retry_recovers_after_transient_failures() {
        let clock = SimClock::at(0);
        let outcome = RetryPolicy::new(5, 1, 8).run(&clock, |attempt| {
            if attempt < 3 {
                Err("refused")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(outcome.result.unwrap(), 3);
        assert_eq!(outcome.attempts.len(), 4);
        assert!(outcome.attempts[..3].iter().all(|a| a.error.is_some()));
        assert!(outcome.attempts[3].error.is_none());
    }

    #[test]
    fn retry_exhaustion_keeps_the_log() {
        let clock = SimClock::at(0);
        let outcome = RetryPolicy::new(3, 2, 50).run(&clock, |_| Err::<(), _>("down"));
        assert!(outcome.result.is_err());
        assert_eq!(outcome.attempts.len(), 3);
        // Two waits happened (none after the final attempt), each within
        // its exponential bound.
        assert!(outcome.attempts[1].delay_before_secs <= 2);
        assert!(outcome.attempts[2].delay_before_secs <= 4);
        let waited: u64 = outcome.attempts.iter().map(|a| a.delay_before_secs).sum();
        assert_eq!(clock.now(), waited, "waits advance the sim clock only");
    }

    #[test]
    fn backoff_bound_caps_and_saturates() {
        let policy = RetryPolicy::new(64, 3, 40);
        assert_eq!(policy.backoff_bound(0), 3);
        assert_eq!(policy.backoff_bound(1), 6);
        assert_eq!(policy.backoff_bound(3), 24);
        assert_eq!(policy.backoff_bound(4), 40, "capped");
        assert_eq!(policy.backoff_bound(63), 40);
        assert_eq!(policy.backoff_bound(64), 40, "shift overflow saturates");
    }

    #[test]
    fn same_seed_replays_delays() {
        let run = |seed: u64| {
            let clock = SimClock::at(0);
            RetryPolicy::new(6, 1, 30)
                .with_seed(seed)
                .run(&clock, |_| Err::<(), _>("x"))
                .attempts
                .iter()
                .map(|a| a.delay_before_secs)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn expired_ambient_deadline_stops_retrying() {
        use vnfguard_telemetry::{Deadline, RequestScope, TraceContext};
        let clock = SimClock::at(0);
        let _scope = RequestScope::enter(
            TraceContext::disabled(),
            Some(Deadline::start(Some(clock.now()), 3_000)),
        );
        // Each failure advances the clock by exactly 2s; the 3s budget
        // dies after the first backoff, so only two attempts run even
        // though the policy allows ten.
        let outcome = RetryPolicy {
            max_attempts: 10,
            base_delay_secs: 2,
            max_delay_secs: 2,
            seed: 7,
        }
        .run(&clock, |attempt| {
            clock.advance(2);
            Err::<(), _>(format!("attempt {attempt} failed"))
        });
        assert!(outcome.result.is_err());
        assert_eq!(outcome.attempts.len(), 2);
    }

    #[test]
    fn breaker_opens_half_opens_and_recloses() {
        let mut breaker = CircuitBreaker::new(3, 60);
        assert_eq!(breaker.state(0), BreakerState::Closed);
        breaker.record_failure(1);
        breaker.record_failure(2);
        assert_eq!(breaker.state(2), BreakerState::Closed, "below threshold");
        breaker.record_failure(3);
        assert_eq!(breaker.state(3), BreakerState::Open);
        assert!(!breaker.allows(30));
        // Cooldown elapses: half-open probe allowed.
        assert_eq!(breaker.state(63), BreakerState::HalfOpen);
        assert!(breaker.allows(63));
        // Failed probe re-opens and restarts the cooldown.
        breaker.record_failure(63);
        assert_eq!(breaker.state(100), BreakerState::Open);
        assert_eq!(breaker.state(123), BreakerState::HalfOpen);
        // Successful probe closes.
        breaker.record_success(123);
        assert_eq!(breaker.state(123), BreakerState::Closed);
        assert_eq!(breaker.consecutive_failures(), 0);
        let states: Vec<BreakerState> = breaker.transitions().iter().map(|(_, s)| *s).collect();
        assert_eq!(
            states,
            vec![BreakerState::Open, BreakerState::Open, BreakerState::Closed]
        );
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut breaker = CircuitBreaker::new(3, 10);
        breaker.record_failure(0);
        breaker.record_failure(1);
        breaker.record_success(2);
        breaker.record_failure(3);
        breaker.record_failure(4);
        assert_eq!(
            breaker.state(4),
            BreakerState::Closed,
            "streak was reset; 2 < threshold"
        );
    }
}
