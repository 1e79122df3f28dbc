//! Internal event queue with deterministic ordering.
//!
//! Two interchangeable kernels sit behind [`EventQueue`]: the original
//! binary heap and the hierarchical timer wheel
//! ([`CalendarWheel`](crate::CalendarWheel)). Both order events by
//! `(time, seq)` with a monotone per-queue sequence number, so
//! simultaneous events fire in scheduling order on either kernel — the
//! wheel is validated against the heap as a differential oracle (see
//! `crates/sim/tests/differential.rs`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::context::TimerToken;
use crate::interface::Interface;
use crate::node::NodeId;
use crate::time::SimTime;
use crate::wheel::CalendarWheel;

/// Which event-queue implementation a [`Network`](crate::Network) runs on.
///
/// The wheel is the default, and since its slots became lists through
/// one slab it leads the heap on every measured workload (EXPERIMENTS
/// "Compact kernel"); the heap is retained as the differential oracle
/// the wheel is checked against (`crates/sim/tests/differential.rs` at
/// network level, `crates/load/tests/determinism.rs` at run level) and
/// for nothing else. Both produce bit-identical schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// Binary min-heap over `(time, seq)` — `O(log n)` per operation.
    Heap,
    /// Hierarchical timer wheel — amortized `O(1)` per operation.
    #[default]
    Wheel,
}

impl Kernel {
    /// Stable lowercase name, used by the bench harness and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Heap => "heap",
            Kernel::Wheel => "wheel",
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver `msg` to `to`, as sent by `from` over `iface`.
    Deliver {
        from: NodeId,
        to: NodeId,
        iface: Interface,
        msg: M,
    },
    /// Deliver `msg` to every listener on `from`'s `iface` links that
    /// hears it.
    Broadcast {
        from: NodeId,
        iface: Interface,
        msg: M,
    },
    /// Fire a timer on `node`.
    Timer {
        node: NodeId,
        token: TimerToken,
        tag: u64,
    },
    /// Invoke `on_start` for a node added after the network started.
    Start { node: NodeId },
}

#[derive(Debug)]
pub(crate) struct Event<M> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    // Reversed so the BinaryHeap pops the earliest (time, seq) first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-heap over (time, sequence) with a monotonically increasing sequence
/// number so simultaneous events fire in scheduling order.
#[derive(Debug)]
pub(crate) struct HeapQueue<M> {
    heap: BinaryHeap<Event<M>>,
    next_seq: u64,
}

impl<M> HeapQueue<M> {
    pub(crate) fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, EventKind<M>)> {
        self.heap.pop().map(|e| (e.at, e.kind))
    }

    pub(crate) fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, EventKind<M>)> {
        match self.heap.peek() {
            Some(e) if e.at <= deadline => self.pop(),
            _ => None,
        }
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn release(&mut self) {
        self.heap.shrink_to_fit();
    }
}

/// The per-network event queue: one of the two [`Kernel`]s.
// One EventQueue exists per Network, never in a collection, so the size
// gap between the variants costs nothing; boxing the wheel would add a
// pointer chase to every push/pop on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum EventQueue<M> {
    Heap(HeapQueue<M>),
    Wheel(CalendarWheel<EventKind<M>>),
}

impl<M> EventQueue<M> {
    pub(crate) fn new(kernel: Kernel) -> Self {
        match kernel {
            Kernel::Heap => EventQueue::Heap(HeapQueue::new()),
            Kernel::Wheel => EventQueue::Wheel(CalendarWheel::new()),
        }
    }

    pub(crate) fn kernel(&self) -> Kernel {
        match self {
            EventQueue::Heap(_) => Kernel::Heap,
            EventQueue::Wheel(_) => Kernel::Wheel,
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        match self {
            EventQueue::Heap(q) => q.push(at, kind),
            EventQueue::Wheel(w) => w.push(at, kind),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, EventKind<M>)> {
        match self {
            EventQueue::Heap(q) => q.pop(),
            EventQueue::Wheel(w) => w.pop(),
        }
    }

    /// Pops the earliest event only if it is due at or before `deadline`,
    /// replacing the peek-then-pop dance in the run loop.
    pub(crate) fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, EventKind<M>)> {
        match self {
            EventQueue::Heap(q) => q.pop_at_or_before(deadline),
            EventQueue::Wheel(w) => w.pop_at_or_before(deadline),
        }
    }

    #[cfg(test)]
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            EventQueue::Heap(q) => q.peek_time(),
            EventQueue::Wheel(w) => w.peek_time(),
        }
    }

    /// The instant of the earliest event, if it is due at or before
    /// `deadline`. Removes nothing; the wheel's cursor goes no further
    /// than the deadline's slot.
    pub(crate) fn next_at_or_before(&mut self, deadline: SimTime) -> Option<SimTime> {
        match self {
            EventQueue::Heap(q) => q.peek_time().filter(|&at| at <= deadline),
            EventQueue::Wheel(w) => w.next_at_or_before(deadline),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Heap(q) => q.len(),
            EventQueue::Wheel(w) => w.len(),
        }
    }

    /// Gives back the storage a drained queue still holds for its
    /// largest burst; the next push numbers on from the last.
    pub(crate) fn release(&mut self) {
        match self {
            EventQueue::Heap(q) => q.release(),
            EventQueue::Wheel(w) => w.release(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every queued event of a world is an `EventKind` over the wire's
    /// `Message` (80 B, pinned in `crates/wire/tests/message_sizes.rs`).
    /// Pinned at today's size on 64-bit targets: a change that moves it
    /// moves every shard's queue, and is measured before it lands.
    #[test]
    fn event_kind_of_a_message_is_96_bytes() {
        assert_eq!(std::mem::size_of::<EventKind<vgprs_wire::Message>>(), 96);
    }

    fn timer_event(node: u32, tag: u64) -> EventKind<()> {
        EventKind::Timer {
            node: NodeId::new(node),
            token: TimerToken(tag),
            tag,
        }
    }

    fn both_kernels() -> [EventQueue<()>; 2] {
        [
            EventQueue::new(Kernel::Heap),
            EventQueue::new(Kernel::Wheel),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both_kernels() {
            q.push(SimTime::from_micros(30), timer_event(0, 0));
            q.push(SimTime::from_micros(10), timer_event(0, 1));
            q.push(SimTime::from_micros(20), timer_event(0, 2));
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(at, _)| at.as_micros())
                .collect();
            assert_eq!(order, vec![10, 20, 30], "kernel {}", q.kernel());
        }
    }

    #[test]
    fn simultaneous_events_fifo() {
        for mut q in both_kernels() {
            for tag in 0..5 {
                q.push(SimTime::from_micros(100), timer_event(0, tag));
            }
            let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, kind)| match kind {
                    EventKind::Timer { tag, .. } => tag,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(tags, vec![0, 1, 2, 3, 4], "kernel {}", q.kernel());
        }
    }

    #[test]
    fn peek_and_len() {
        for mut q in both_kernels() {
            assert_eq!(q.len(), 0);
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_micros(5), timer_event(0, 0));
            assert_eq!(q.len(), 1);
            assert_eq!(q.next_at_or_before(SimTime::from_micros(4)), None);
            assert_eq!(q.next_at_or_before(SimTime::MAX), Some(SimTime::from_micros(5)));
            assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        }
    }

    #[test]
    fn pop_at_or_before_deadline() {
        for mut q in both_kernels() {
            q.push(SimTime::from_micros(10), timer_event(0, 0));
            q.push(SimTime::from_micros(40), timer_event(0, 1));
            let first = q.pop_at_or_before(SimTime::from_micros(20));
            assert_eq!(first.map(|(at, _)| at), Some(SimTime::from_micros(10)));
            assert!(q.pop_at_or_before(SimTime::from_micros(20)).is_none());
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn released_kernels_agree_with_each_other() {
        // Drain, release, push again: the heap oracle and the wheel pop
        // the second burst in the same `(time, seq)` order.
        let pops = |mut q: EventQueue<()>| {
            for tag in 0..200 {
                q.push(SimTime::from_micros(tag * 7_919 % 90_000_000), timer_event(0, tag));
            }
            let last = std::iter::from_fn(|| q.pop()).last().expect("pushed").0;
            q.release();
            for tag in 0..200 {
                let at = last + crate::time::SimDuration::from_micros(tag % 5 * 300_000);
                q.push(at, timer_event(0, tag));
            }
            std::iter::from_fn(|| q.pop())
                .map(|(at, kind)| match kind {
                    EventKind::Timer { tag, .. } => (at, tag),
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>()
        };
        let [heap, wheel] = both_kernels();
        assert_eq!(pops(heap), pops(wheel));
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Kernel::Heap.name(), "heap");
        assert_eq!(Kernel::Wheel.name(), "wheel");
        assert_eq!(Kernel::default(), Kernel::Wheel);
    }
}
