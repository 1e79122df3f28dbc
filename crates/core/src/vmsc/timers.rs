//! The VMSC's one timer table: every guard and supervision timer it has
//! armed, by what the timer guards.
//!
//! A fired timer is found by its token (the tag is unused), so the table
//! also says which timers are *not* this node's business any more: one
//! that was cancelled never fires, and one that was forgotten — by a
//! crash, which loses the table but not the kernel's events — fires into
//! a lookup that finds nothing.

use vgprs_sim::{Context, IdMap, SimDuration, SimTime, TimerToken};
use vgprs_wire::{CallId, Imsi, Message};

/// What a timer guards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(super) enum TimerKey {
    /// The RAS registration (RRQ) retry ladder of one MS.
    Ras(Imsi),
    /// What the MS's leg is waiting for: the gatekeeper's answer (the
    /// ARQ retry ladder) while it is in admission, then — on an MO leg —
    /// the far end's (Q.931 setup supervision).
    Leg(Imsi),
    /// Paging supervision of one MT call. Never cancelled: it fires and
    /// finds the call answered, gone, or still paging — which is why it
    /// names the call, and an earlier call's timer cannot time out a
    /// later call's page.
    Paging(Imsi, CallId),
}

/// One armed timer: a rung of a guard's retry ladder.
#[derive(Clone, Copy, Debug)]
pub(super) struct Guard {
    token: TimerToken,
    /// Retries already sent.
    pub(super) attempts: u32,
    /// When the first request of this ladder went out.
    first_at: SimTime,
}

#[derive(Debug, Default)]
pub(super) struct Timers {
    keys: IdMap<TimerToken, TimerKey>,
    guards: IdMap<TimerKey, Guard>,
}

impl Timers {
    /// Arms the timer for `key`: the first rung of a fresh ladder, or —
    /// when `fired` is the rung that just expired — the next one of the
    /// same ladder. A timer still armed under the key is cancelled.
    pub(super) fn arm(
        &mut self,
        ctx: &mut Context<'_, Message>,
        key: TimerKey,
        delay: SimDuration,
        fired: Option<Guard>,
    ) {
        self.cancel(ctx, &key);
        let guard = Guard {
            token: ctx.set_timer(delay, 0),
            attempts: fired.map_or(0, |g| g.attempts + 1),
            first_at: fired.map_or(ctx.now(), |g| g.first_at),
        };
        self.keys.insert(guard.token, key);
        self.guards.insert(key, guard);
    }

    /// Cancels the timer for `key`, if one is armed, and returns it.
    pub(super) fn cancel(
        &mut self,
        ctx: &mut Context<'_, Message>,
        key: &TimerKey,
    ) -> Option<Guard> {
        let guard = self.guards.remove(key)?;
        self.keys.remove(&guard.token);
        ctx.cancel_timer(guard.token);
        Some(guard)
    }

    /// The guarded answer arrived: cancels the timer for `key` and, when
    /// its ladder had to retry, records under `recovery` how long the
    /// outage held the answer up.
    pub(super) fn answered(
        &mut self,
        ctx: &mut Context<'_, Message>,
        key: &TimerKey,
        recovery: &'static str,
    ) {
        if let Some(guard) = self.cancel(ctx, key).filter(|g| g.attempts > 0) {
            ctx.observe_duration(recovery, ctx.now().duration_since(guard.first_at));
        }
    }

    /// The timer armed for `key`, if any.
    pub(super) fn guard(&self, key: &TimerKey) -> Option<&Guard> {
        self.guards.get(key)
    }

    /// Resolves a fired timer to what it guarded and the rung that
    /// expired. `None` for a timer the table has forgotten.
    pub(super) fn fired(&mut self, token: TimerToken) -> Option<(TimerKey, Guard)> {
        let key = self.keys.remove(&token)?;
        Some((key, self.guards.remove(&key)?))
    }
}
