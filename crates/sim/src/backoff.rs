//! Bounded exponential backoff schedules for protocol retry ladders.
//!
//! Recovery procedures (RAS re-registration, admission retry, setup
//! supervision) need retry timers that are *deterministic* — the same
//! attempt number always yields the same delay, with no wall-clock or
//! RNG input — and *bounded* — a capped per-attempt delay and a hard
//! attempt limit, so a dead peer produces a finite, known amount of
//! retry traffic instead of a retry storm.
//!
//! [`Backoff`] is a pure description of such a schedule. Nodes store one
//! and ask it for the delay of attempt `n`; `None` means the ladder is
//! exhausted and the caller must give up (release the call, reject the
//! registration) with an appropriate cause.

use crate::time::SimDuration;

/// A deterministic, bounded exponential backoff schedule.
///
/// Attempt `n` (zero-based) is delayed by `base * factor^n`, saturating
/// at `cap`; attempts at or beyond `max_attempts` are refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Multiplier applied per attempt (>= 1 for a sane schedule).
    pub factor: u32,
    /// Upper bound on any single delay.
    pub cap: SimDuration,
    /// Number of retries permitted before the ladder is exhausted.
    pub max_attempts: u32,
}

impl Backoff {
    /// Delay before retry number `attempt` (zero-based), or `None` once
    /// the ladder is exhausted.
    pub fn delay(&self, attempt: u32) -> Option<SimDuration> {
        if attempt >= self.max_attempts {
            return None;
        }
        let base_us = self.base.as_micros();
        let cap_us = self.cap.as_micros();
        let scale = (self.factor as u64).saturating_pow(attempt);
        let us = base_us.saturating_mul(scale).min(cap_us);
        Some(SimDuration::from_micros(us))
    }

    /// How long after a first send the ladder runs out: the sum of the
    /// delays of every attempt it allows.
    pub fn budget(&self) -> SimDuration {
        let us = (0..self.max_attempts)
            .map_while(|attempt| self.delay(attempt))
            .fold(0, |sum: u64, d| sum.saturating_add(d.as_micros()));
        SimDuration::from_micros(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> Backoff {
        Backoff {
            base: SimDuration::from_millis(1000),
            factor: 2,
            cap: SimDuration::from_millis(4000),
            max_attempts: 3,
        }
    }

    #[test]
    fn delays_are_deterministic() {
        let b = schedule();
        for attempt in 0..8 {
            assert_eq!(b.delay(attempt), b.delay(attempt), "attempt {attempt}");
        }
    }

    #[test]
    fn doubles_then_caps() {
        let b = Backoff { max_attempts: 10, ..schedule() };
        assert_eq!(b.delay(0), Some(SimDuration::from_millis(1000)));
        assert_eq!(b.delay(1), Some(SimDuration::from_millis(2000)));
        assert_eq!(b.delay(2), Some(SimDuration::from_millis(4000)));
        assert_eq!(b.delay(3), Some(SimDuration::from_millis(4000)), "capped");
        assert_eq!(b.delay(9), Some(SimDuration::from_millis(4000)), "stays capped");
    }

    #[test]
    fn monotone_nondecreasing_until_exhausted() {
        let b = Backoff { max_attempts: 16, ..schedule() };
        let mut prev = SimDuration::from_micros(0);
        for attempt in 0..16 {
            let d = b.delay(attempt).expect("within max_attempts");
            assert!(d >= prev, "attempt {attempt} shrank: {d:?} < {prev:?}");
            prev = d;
        }
    }

    #[test]
    fn exhausts_at_max_attempts() {
        let b = schedule();
        assert!(b.delay(2).is_some());
        assert_eq!(b.delay(3), None);
        assert_eq!(b.delay(u32::MAX), None);
    }

    #[test]
    fn zero_attempts_never_retries() {
        let b = Backoff { max_attempts: 0, ..schedule() };
        assert_eq!(b.delay(0), None);
        assert_eq!(b.budget(), SimDuration::ZERO);
    }

    #[test]
    fn the_budget_sums_every_allowed_delay() {
        assert_eq!(schedule().budget(), SimDuration::from_millis(1000 + 2000 + 4000));
        let long = Backoff { max_attempts: 5, ..schedule() };
        assert_eq!(long.budget(), SimDuration::from_millis(1000 + 2000 + 4000 + 4000 + 4000));
    }

    #[test]
    fn extreme_schedule_saturates_instead_of_overflowing() {
        let extreme = Backoff {
            base: SimDuration::from_millis(u64::MAX / 2_000),
            factor: u32::MAX,
            cap: SimDuration::from_micros(u64::MAX),
            max_attempts: 64,
        };
        for attempt in 0..64 {
            assert!(extreme.delay(attempt).is_some());
        }
        assert_eq!(extreme.budget(), SimDuration::from_micros(u64::MAX));
    }
}
