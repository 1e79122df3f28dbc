//! The side-effect API available to a node during a callback.

use std::fmt;
use std::sync::Arc;

use crate::node::NodeId;
use crate::rng::SimRng;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::timer::TimerTable;

/// Handle identifying a pending timer, returned by [`Context::set_timer`].
///
/// Packs the timer table's `(generation, slot)` pair; see
/// `crates/sim/src/timer.rs`. Opaque to callers — store it, pass it to
/// [`Context::cancel_timer`], or compare it against the token handed to
/// [`Node::on_timer`](crate::Node::on_timer).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub(crate) u64);

impl fmt::Debug for TimerToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let slot = self.0 & u32::MAX as u64;
        let generation = self.0 >> 32;
        write!(f, "timer#{slot}.{generation}")
    }
}

/// Deferred side effects collected during a node callback and applied by the
/// network afterwards, keeping execution deterministic and borrow-friendly.
#[derive(Debug)]
pub(crate) enum Effect<M> {
    Send { to: NodeId, msg: M },
    Broadcast { to: Arc<Vec<NodeId>>, msg: M },
    Timer { at: SimTime, token: TimerToken, tag: u64 },
    CancelTimer { token: TimerToken },
    Note { text: String },
}

/// A node's window onto the simulation during a callback.
///
/// All interaction with the outside world — sending messages, arming timers,
/// recording statistics, drawing randomness — goes through the context.
/// Effects are applied after the callback returns, in the order they were
/// requested.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) self_id: NodeId,
    pub(crate) effects: Vec<Effect<M>>,
    /// Whether the trace records notes; when not, [`Context::note`]
    /// never builds its string.
    pub(crate) notes: bool,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) stats: &'a mut Stats,
    pub(crate) timers: &'a mut TimerTable,
}

impl<M> Context<'_, M> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being called back.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Sends `msg` to `to` over the link provisioned between the two nodes.
    ///
    /// The message is subject to the link's latency, jitter, loss and
    /// bandwidth. If no link exists the network panics when applying the
    /// effect — a missing link is a topology bug, not a runtime condition.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Sends one copy of `msg` to every listener in `to` that
    /// [hears](crate::Node::hears) it, as a single queued event.
    ///
    /// A broadcast channel is one medium: the delay is sampled once, on
    /// the link to the first listener, and every hearing listener is
    /// called back at that instant, in list order, exactly as if each
    /// had been sent its own copy over an identical link. Listeners
    /// that do not hear the message cost a `&self` check, not an event.
    /// An empty list sends nothing.
    pub fn broadcast(&mut self, to: Arc<Vec<NodeId>>, msg: M) {
        self.effects.push(Effect::Broadcast { to, msg });
    }

    /// Arms a one-shot timer that fires after `delay` with the given `tag`.
    /// Returns a token usable with [`cancel_timer`](Context::cancel_timer).
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerToken {
        let token = self.timers.alloc();
        self.effects.push(Effect::Timer {
            at: self.now + delay,
            token,
            tag,
        });
        token
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.effects.push(Effect::CancelTimer { token });
    }

    /// Appends a free-text annotation to the trace, attributed to this node
    /// at the current time. Used to mark procedure steps (e.g. `"Step 1.3"`).
    /// Free when trace capture is off: the text is never materialized.
    pub fn note(&mut self, text: impl Into<String>) {
        if self.notes {
            self.effects.push(Effect::Note { text: text.into() });
        }
    }

    /// Increments the named counter.
    pub fn count(&mut self, name: &str) {
        self.stats.count(name);
    }

    /// Adds `value` to the named counter.
    pub fn count_by(&mut self, name: &str, value: u64) {
        self.stats.count_by(name, value);
    }

    /// Records an observation in the named histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.stats.observe(name, value);
    }

    /// Records a duration observation (in milliseconds) in the named
    /// histogram.
    pub fn observe_duration(&mut self, name: &str, value: SimDuration) {
        self.stats.observe(name, value.as_secs_f64() * 1_000.0);
    }

    /// The deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        rng: &'a mut SimRng,
        stats: &'a mut Stats,
        timers: &'a mut TimerTable,
    ) -> Context<'a, u32> {
        Context {
            now: SimTime::from_micros(1_000),
            self_id: NodeId(3),
            effects: Vec::new(),
            notes: true,
            rng,
            stats,
            timers,
        }
    }

    #[test]
    fn effects_accumulate_in_order() {
        let mut rng = SimRng::new(0);
        let mut stats = Stats::new();
        let mut nt = TimerTable::new();
        let mut c = ctx(&mut rng, &mut stats, &mut nt);
        c.send(NodeId(1), 42);
        let t = c.set_timer(SimDuration::from_millis(5), 9);
        c.cancel_timer(t);
        c.note("hello");
        assert_eq!(c.effects.len(), 4);
        match &c.effects[1] {
            Effect::Timer { at, tag, .. } => {
                assert_eq!(*at, SimTime::from_micros(6_000));
                assert_eq!(*tag, 9);
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn note_is_free_when_nothing_records_it() {
        let mut rng = SimRng::new(0);
        let mut stats = Stats::new();
        let mut nt = TimerTable::new();
        let mut c = ctx(&mut rng, &mut stats, &mut nt);
        c.notes = false;
        c.note("dropped");
        assert!(c.effects.is_empty());
    }

    #[test]
    fn timer_tokens_unique() {
        let mut rng = SimRng::new(0);
        let mut stats = Stats::new();
        let mut nt = TimerTable::new();
        let mut c = ctx(&mut rng, &mut stats, &mut nt);
        let a = c.set_timer(SimDuration::ZERO, 0);
        let b = c.set_timer(SimDuration::ZERO, 0);
        assert_ne!(a, b);
        assert_eq!(nt.live(), 2);
    }

    #[test]
    fn stats_accessible() {
        let mut rng = SimRng::new(0);
        let mut stats = Stats::new();
        let mut nt = TimerTable::new();
        {
            let mut c = ctx(&mut rng, &mut stats, &mut nt);
            c.count("x");
            c.count_by("x", 2);
            c.observe("h", 1.5);
            c.observe_duration("d", SimDuration::from_millis(3));
        }
        assert_eq!(stats.counter("x"), 3);
        assert_eq!(stats.histogram("h").unwrap().count(), 1);
        assert!((stats.histogram("d").unwrap().mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn identity_accessors() {
        let mut rng = SimRng::new(0);
        let mut stats = Stats::new();
        let mut nt = TimerTable::new();
        let c = ctx(&mut rng, &mut stats, &mut nt);
        assert_eq!(c.id(), NodeId(3));
        assert_eq!(c.now(), SimTime::from_micros(1_000));
    }
}
