//! Timer bookkeeping: O(1) cancellation via per-slot generation counters.
//!
//! The previous kernel recorded cancellations in a hash set of tokens
//! consulted when each timer event popped. That had two defects: a hash
//! probe on the hot path for every firing timer, and a leak — cancelling a
//! timer whose event had already fired (or cancelling twice) inserted a
//! token that nothing would ever remove, so long-lived networks grew the
//! set without bound.
//!
//! The [`TimerTable`] replaces the set. Every armed timer occupies a slot
//! with a generation counter; the [`TimerToken`](crate::TimerToken) packs
//! `(generation, slot)`. Cancelling or firing a timer bumps the slot's
//! generation and returns the slot to a free list, so:
//!
//! * a queued timer event whose token generation no longer matches is a
//!   *stale* event — it was cancelled — and is counted, not dispatched;
//! * cancel-after-fire and double-cancel find a mismatched generation and
//!   are free no-ops, leaving no residual state;
//! * the table's size is bounded by the peak number of *concurrently*
//!   armed timers, not by the total ever cancelled.

use crate::context::TimerToken;

/// Bits of a [`TimerToken`] holding the slot index (low half).
const SLOT_SHIFT: u32 = 32;

/// Slot/generation table for armed timers. See the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct TimerTable {
    /// Current generation of each slot. A token is live iff its packed
    /// generation equals its slot's current generation.
    gens: Vec<u32>,
    /// Slots available for reuse.
    free: Vec<u32>,
    /// Number of currently armed timers.
    live: usize,
}

impl TimerTable {
    pub(crate) fn new() -> Self {
        TimerTable::default()
    }

    /// Arms a new timer: reuses a free slot or grows the table.
    pub(crate) fn alloc(&mut self) -> TimerToken {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.gens.push(0);
                (self.gens.len() - 1) as u32
            }
        };
        self.live += 1;
        TimerToken(((self.gens[slot as usize] as u64) << SLOT_SHIFT) | slot as u64)
    }

    /// Cancels a timer. Returns true if it was live (now cancelled);
    /// cancelling a fired, cancelled, or unknown timer is a no-op.
    pub(crate) fn cancel(&mut self, token: TimerToken) -> bool {
        self.retire(token)
    }

    /// Attempts to fire the timer behind a popped event. Returns false for
    /// stale (cancelled) events.
    pub(crate) fn try_fire(&mut self, token: TimerToken) -> bool {
        self.retire(token)
    }

    fn retire(&mut self, token: TimerToken) -> bool {
        let slot = (token.0 & u32::MAX as u64) as usize;
        let generation = (token.0 >> SLOT_SHIFT) as u32;
        match self.gens.get_mut(slot) {
            Some(g) if *g == generation => {
                *g = g.wrapping_add(1);
                self.free.push(slot as u32);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Number of currently armed timers.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated — bounded by peak concurrency, not by
    /// churn.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.gens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_fire_cycle() {
        let mut t = TimerTable::new();
        let a = t.alloc();
        assert_eq!(t.live(), 1);
        assert!(t.try_fire(a));
        assert_eq!(t.live(), 0);
        // Firing again is stale.
        assert!(!t.try_fire(a));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut t = TimerTable::new();
        let a = t.alloc();
        assert!(t.try_fire(a));
        assert!(!t.cancel(a));
        assert!(!t.cancel(a));
        assert_eq!(t.live(), 0);
        assert_eq!(t.slots(), 1);
    }

    #[test]
    fn slot_reuse_bounds_table() {
        let mut t = TimerTable::new();
        for _ in 0..10_000 {
            let tok = t.alloc();
            assert!(t.try_fire(tok));
        }
        assert_eq!(t.slots(), 1, "churn must reuse the single free slot");
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn reused_slot_gets_fresh_generation() {
        let mut t = TimerTable::new();
        let a = t.alloc();
        assert!(t.cancel(a));
        let b = t.alloc();
        assert_ne!(a, b, "reused slot must not alias the old token");
        assert!(!t.try_fire(a), "old token is stale");
        assert!(t.try_fire(b));
    }

    #[test]
    fn cancel_during_backoff_never_fires_stale_attempt() {
        // A retry ladder re-arms a fresh timer per attempt and cancels the
        // previous one. However the cancel/re-arm/fire operations interleave,
        // a cancelled attempt's token must never fire — even when its slot
        // has been recycled for the replacement attempt.
        let mut t = TimerTable::new();
        let mut cancelled: Vec<TimerToken> = Vec::new();
        let mut armed = t.alloc();
        for _ in 0..100 {
            assert!(t.cancel(armed), "live attempt cancels exactly once");
            cancelled.push(armed);
            armed = t.alloc();
            for stale in &cancelled {
                assert!(!t.try_fire(*stale), "cancelled attempt fired");
            }
        }
        assert_eq!(t.live(), 1, "only the newest attempt is armed");
        assert!(t.slots() <= 2, "ladder churn must not grow the table");
        assert!(t.try_fire(armed), "the live attempt still fires");
    }

    #[test]
    fn concurrent_timers_get_distinct_slots() {
        let mut t = TimerTable::new();
        let toks: Vec<_> = (0..5).map(|_| t.alloc()).collect();
        assert_eq!(t.live(), 5);
        assert_eq!(t.slots(), 5);
        for tok in &toks {
            assert!(t.cancel(*tok));
        }
        assert_eq!(t.live(), 0);
    }
}
