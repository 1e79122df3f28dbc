//! A one-second-window rate throttle with a bounded deferral queue.
//!
//! Overload controls (the VMSC's page broadcast, the SGSN's PDP
//! admission) share one shape: at most `rate` operations proceed per
//! simulated second; excess operations wait, oldest first, in a queue
//! bounded at twice the rate for a tick at the next window boundary; and
//! overflow is shed back to the caller. Like [`Backoff`](crate::Backoff)
//! it is deterministic — a function of simulated time and arrival order.

use std::collections::VecDeque;

use crate::context::{Context, TimerToken};
use crate::time::{SimDuration, SimTime};

/// What became of an operation offered to a [`Throttle`].
#[derive(Debug)]
pub enum Offer<T> {
    /// Inside the window's budget: do it now.
    Admitted(T),
    /// Queued for a later window; a drain tick is armed.
    Deferred,
    /// The queue is full: refuse it.
    Shed(T),
}

/// The throttle. A rate of `0` admits everything.
#[derive(Debug)]
pub struct Throttle<T> {
    rate: u32,
    /// Index of the one-second window `spent` counts in.
    window: u64,
    spent: u32,
    /// Deferred operations with the time each was queued.
    queue: VecDeque<(T, SimTime)>,
    tick: Option<TimerToken>,
}

impl<T> Throttle<T> {
    /// A throttle passing `rate` operations per simulated second.
    pub fn new(rate: u32) -> Self {
        Throttle {
            rate,
            window: 0,
            spent: 0,
            queue: VecDeque::new(),
            tick: None,
        }
    }

    /// Admits `item` while the current window has budget and nothing is
    /// queued (deferral stays FIFO: a newcomer never overtakes a
    /// backlog), defers it behind the bounded queue otherwise, and sheds
    /// it once the queue is full.
    pub fn offer<M>(&mut self, ctx: &mut Context<'_, M>, item: T) -> Offer<T> {
        if self.rate == 0 {
            return Offer::Admitted(item);
        }
        let window = ctx.now().as_millis() / 1_000;
        if window != self.window {
            self.window = window;
            self.spent = 0;
        }
        if self.spent < self.rate && self.queue.is_empty() {
            self.spent += 1;
            Offer::Admitted(item)
        } else if self.queue.len() < 2 * self.rate as usize {
            self.queue.push_back((item, ctx.now()));
            self.arm(ctx);
            Offer::Deferred
        } else {
            Offer::Shed(item)
        }
    }

    /// Whether `token` is the armed drain tick.
    pub fn is_tick(&self, token: TimerToken) -> bool {
        self.tick == Some(token)
    }

    /// The drain tick fired: a fresh window opens. The owner then pulls
    /// with [`next`](Self::next) until it returns `None` — or, while it
    /// is down, leaves the backlog for the tick a later offer arms.
    pub fn tick(&mut self, now: SimTime) {
        self.tick = None;
        self.window = now.as_millis() / 1_000;
        self.spent = 0;
    }

    /// The oldest deferred operation that is still `live`, with how long
    /// it waited, while the window has budget; dead entries are dropped
    /// without spending any. `None` ends the drain and re-arms the tick
    /// if a backlog remains.
    pub fn next<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        live: impl Fn(&T) -> bool,
    ) -> Option<(T, SimDuration)> {
        while self.spent < self.rate {
            let Some((item, queued_at)) = self.queue.pop_front() else {
                break;
            };
            if live(&item) {
                self.spent += 1;
                return Some((item, ctx.now().duration_since(queued_at)));
            }
        }
        if !self.queue.is_empty() {
            self.arm(ctx);
        }
        None
    }

    /// Total state loss (the owner crashed): the backlog is gone and the
    /// tick cancelled.
    pub fn reset<M>(&mut self, ctx: &mut Context<'_, M>) {
        self.queue.clear();
        self.spent = 0;
        if let Some(token) = self.tick.take() {
            ctx.cancel_timer(token);
        }
    }

    /// Arms the drain tick for the next one-second boundary.
    fn arm<M>(&mut self, ctx: &mut Context<'_, M>) {
        if self.tick.is_none() {
            let delay = SimDuration::from_micros(1_000_000 - ctx.now().as_micros() % 1_000_000);
            self.tick = Some(ctx.set_timer(delay, 0));
        }
    }
}
