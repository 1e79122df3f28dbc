//! Hierarchical timer wheel (calendar queue) — the default event kernel.
//!
//! The busy-hour workload is dominated by short-horizon, quantized work:
//! 20 ms vocoder frames, RTP ticks, GSM supervision timers. A binary heap
//! pays `O(log n)` per operation and sifts whole events through the heap
//! array; a timer wheel serves the same workload in amortized `O(1)` by
//! bucketing events into fixed-width time slots and draining each slot as a
//! batch.
//!
//! ## Layout
//!
//! * **Level 0** — 256 slots of 2^10 µs (1.024 ms) each, covering ≈262 ms of
//!   near horizon. The slot width quantizes the 20 ms frame cadence into
//!   ~20 slots, so a steady media stream occupies a rotating band of slots.
//! * **Level 1** — 256 slots of ≈262 ms each (horizon ≈67 s): call setup and
//!   supervision timers.
//! * **Level 2** — 256 slots of ≈67 s each (horizon ≈4.8 h): call hold times
//!   and long-idle work.
//! * **Overflow** — a small binary heap for anything beyond the level-2
//!   horizon. Population-scale runs put a negligible fraction of events here.
//!
//! Each level keeps a 256-bit occupancy bitmap so the drain path skips empty
//! slots with a couple of `trailing_zeros` calls instead of a linear scan.
//!
//! ## One slab, and lists through it
//!
//! Simulation events are large (a `Message` alone is ~100 bytes), and a
//! binary heap sifts whole events through its array on every push and pop.
//! The wheel never does: a payload is written once into a slab entry
//! `{ at, seq, next, item }` and moved out of it at pop. A slot is not a
//! container but the slab index of the first entry of an intrusive singly
//! linked list threaded through `next`; a level is 256 such heads plus its
//! bitmap, inline in the wheel. Pushing into a slot links the entry at the
//! head, a cascade walks the list and links each entry into its slot one
//! level down, and a popped entry joins the free list through the same
//! `next`. Only the sorted batch and the two heaps hold 24-byte [`Key`]s
//! `(at, seq, slab index)`.
//!
//! So a wheel is 3 kB of heads and one slab as long as the most events it
//! ever held at once, however bursty its history. With a buffer per slot
//! it was not: a registration burst sized one buffer, the drain handed that
//! buffer on to whichever slot drained next, and every later push landed in
//! a different cold one — 580 buffers and 156 kB parked in a 256-subscriber
//! shard's two wheels (`DESIGN.md` §2.13 has the count).
//!
//! Linking at the head leaves a slot's list in reverse push order, and a
//! cascade reverses what it moves once more. Neither can reach the pop
//! order: nothing reads a list but the level-0 drain, which collects the
//! whole slot into the batch and sorts it by `(at, seq)` — and `seq` was
//! assigned at push.
//!
//! ## Ordering contract
//!
//! Pops are strictly ordered by `(time, seq)` where `seq` is a per-wheel
//! monotone counter assigned at push — identical to the binary-heap kernel,
//! so simultaneous events drain in FIFO push order. The proof sketch (see
//! `DESIGN.md` §2.13) rests on two invariants:
//!
//! 1. every buffered key whose level-0 slot index is `<= cursor` lives in
//!    the `batch` (sorted descending; the back is the minimum) or in the
//!    `late` min-heap, and
//! 2. every key still in a wheel slot or the overflow heap has a level-0
//!    slot index strictly greater than `cursor` — hence a time strictly
//!    after every key in `batch` or `late`.
//!
//! Together they mean the minimum of `batch.last()` and `late.peek()` is
//! always the global minimum. Late pushes that land at or behind the cursor
//! (possible when a caller peeks ahead and then schedules something
//! earlier) go to the `late` heap in `O(log k)` where `k` is the handful of
//! such keys in flight — never an `O(n)` insertion into the batch.

use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the level-0 slot width in microseconds (2^10 µs = 1.024 ms).
const SLOT_BITS: u32 = 10;
/// log2 of the number of slots per level.
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Mask extracting a level-local slot index.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Number of wheel levels before the overflow heap takes over.
const LEVELS: usize = 3;
/// Words in a per-level occupancy bitmap.
const WORDS: usize = SLOTS / 64;

/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// What the sorted batch and the two heaps hold: the ordering key plus
/// the slab index of the parked payload. 24 bytes, `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    at: u64,
    seq: u64,
    idx: u32,
}

impl Key {
    #[inline]
    fn rank(self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// Min-heap wrapper: `BinaryHeap<MinKey>` pops the smallest `(at, seq)`.
#[derive(PartialEq, Eq)]
struct MinKey(Key);

impl PartialOrd for MinKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MinKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.rank().cmp(&self.0.rank())
    }
}

/// One slab entry: a parked payload with its ordering key, and the link
/// that threads it into a slot's list — or, once popped, into the free
/// list.
struct Entry<T> {
    at: u64,
    seq: u64,
    next: u32,
    item: Option<T>,
}

/// A level owns no memory of its own: a slot is the slab index of the
/// first entry of its list.
struct Level {
    heads: [u32; SLOTS],
    occupied: [u64; WORDS],
}

impl Level {
    const EMPTY: Level = Level {
        heads: [NIL; SLOTS],
        occupied: [0; WORDS],
    };
}

fn set_bit(bits: &mut [u64; WORDS], idx: usize) {
    bits[idx / 64] |= 1u64 << (idx % 64);
}

fn clear_bit(bits: &mut [u64; WORDS], idx: usize) {
    bits[idx / 64] &= !(1u64 << (idx % 64));
}

/// First set bit at index `>= from`, if any.
fn find_set(bits: &[u64; WORDS], from: usize) -> Option<usize> {
    if from >= SLOTS {
        return None;
    }
    let word = from / 64;
    let masked = bits[word] & (!0u64 << (from % 64));
    if masked != 0 {
        return Some(word * 64 + masked.trailing_zeros() as usize);
    }
    for (w, &bitsw) in bits.iter().enumerate().skip(word + 1) {
        if bitsw != 0 {
            return Some(w * 64 + bitsw.trailing_zeros() as usize);
        }
    }
    None
}

/// A hierarchical timer wheel with deterministic `(time, seq)` ordering.
///
/// Drop-in priority-queue replacement for a `BinaryHeap` keyed on
/// `(SimTime, push order)`: [`push`](CalendarWheel::push) buffers an item
/// for a given instant, [`pop`](CalendarWheel::pop) returns items in
/// non-decreasing time order with FIFO tie-breaking for equal times. See the
/// [module docs](self) for the layout and the ordering argument.
pub struct CalendarWheel<T> {
    levels: [Level; LEVELS],
    overflow: BinaryHeap<MinKey>,
    /// Keys at or behind the cursor, sorted **descending** by `(at, seq)`:
    /// the back is the minimum, so a pop is `O(1)` with no shifting.
    batch: Vec<Key>,
    /// Keys pushed at or behind the cursor after the batch was formed.
    /// Usually empty or a handful deep; pops take the smaller of
    /// `batch.last()` and `late.peek()`.
    late: BinaryHeap<MinKey>,
    /// Parked payloads and the slot lists through them; `Key::idx` and
    /// every slot head point here.
    slab: Vec<Entry<T>>,
    /// Head of the list of popped entries, reused before the slab grows.
    free: u32,
    /// Absolute level-0 slot index the wheel has drained up to.
    cursor: u64,
    next_seq: u64,
    len: usize,
}

impl<T> Default for CalendarWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarWheel<T> {
    /// Creates an empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        CalendarWheel {
            levels: [Level::EMPTY; LEVELS],
            overflow: BinaryHeap::new(),
            batch: Vec::new(),
            late: BinaryHeap::new(),
            slab: Vec::new(),
            free: NIL,
            cursor: 0,
            next_seq: 0,
            len: 0,
        }
    }

    /// Number of buffered items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffers `item` to pop at `at`. Items pushed for the same instant pop
    /// in push order.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let at = at.as_micros();
        let idx = self.free;
        if idx == NIL {
            self.slab.push(Entry {
                at,
                seq,
                next: NIL,
                item: Some(item),
            });
            return self.place((self.slab.len() - 1) as u32);
        }
        // Field by field: the payload is large, and assigning a whole
        // `Entry` copies it twice.
        let reused = &mut self.slab[idx as usize];
        self.free = reused.next;
        reused.at = at;
        reused.seq = seq;
        reused.item = Some(item);
        self.place(idx);
    }

    /// Removes and returns the earliest item, with the instant it was
    /// scheduled for.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if !self.ensure_ready_until(None) {
            return None;
        }
        Some(self.take_min())
    }

    /// Like [`pop`](CalendarWheel::pop), but leaves the queue untouched and
    /// returns `None` if the earliest item is scheduled after `deadline`.
    ///
    /// The internal cursor advances **no further than the deadline's
    /// slot**. This matters for throughput, not correctness: a run loop
    /// that drains to a deadline and then schedules near-future work keeps
    /// that work on the O(1) wheel path instead of overshooting the cursor
    /// to the next far-future event and forcing every subsequent push
    /// through the late heap.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        if !self.ensure_ready_until(Some(deadline.as_micros() >> SLOT_BITS)) {
            return None;
        }
        if self.min_key().at > deadline.as_micros() {
            return None;
        }
        Some(self.take_min())
    }

    /// The instant of the earliest buffered item. Advances the internal
    /// cursor (hence `&mut`), but removes nothing.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.ensure_ready_until(None) {
            return None;
        }
        Some(SimTime::from_micros(self.min_key().at))
    }

    /// The instant of the earliest buffered item, if it is due at or
    /// before `deadline`; like [`peek_time`](CalendarWheel::peek_time) but
    /// with the cursor bounded by the deadline's slot (see
    /// [`pop_at_or_before`](CalendarWheel::pop_at_or_before)).
    pub fn next_at_or_before(&mut self, deadline: SimTime) -> Option<SimTime> {
        if !self.ensure_ready_until(Some(deadline.as_micros() >> SLOT_BITS)) {
            return None;
        }
        let at = self.min_key().at;
        (at <= deadline.as_micros()).then(|| SimTime::from_micros(at))
    }

    /// The smallest ready key. Callers must have seen
    /// [`ensure_ready_until`](Self::ensure_ready_until) return true.
    #[inline]
    fn min_key(&self) -> Key {
        match (self.batch.last(), self.late.peek()) {
            (Some(&b), Some(l)) => {
                if l.0.rank() < b.rank() {
                    l.0
                } else {
                    b
                }
            }
            (Some(&b), None) => b,
            (None, Some(l)) => l.0,
            (None, None) => unreachable!("ensure_ready guarantees a ready key"),
        }
    }

    /// Removes the smallest ready key and unparks its payload.
    #[inline]
    fn take_min(&mut self) -> (SimTime, T) {
        let key = match (self.batch.last(), self.late.peek()) {
            (Some(&b), Some(l)) if l.0.rank() < b.rank() => self.late.pop().expect("peeked").0,
            (Some(_), _) => self.batch.pop().expect("checked"),
            (None, Some(_)) => self.late.pop().expect("peeked").0,
            (None, None) => unreachable!("ensure_ready guarantees a ready key"),
        };
        let entry = &mut self.slab[key.idx as usize];
        let item = entry.item.take().expect("key points at a parked payload");
        entry.next = self.free;
        self.free = key.idx;
        self.len -= 1;
        (SimTime::from_micros(key.at), item)
    }

    /// The key of the entry parked at `idx`.
    #[inline]
    fn key(&self, idx: u32) -> Key {
        let entry = &self.slab[idx as usize];
        Key {
            at: entry.at,
            seq: entry.seq,
            idx,
        }
    }

    /// Routes the entry at `idx` to the late heap, a wheel slot, or the
    /// overflow heap, according to where its slot lies relative to the
    /// cursor. A slot takes it at the head of its list: the order inside
    /// a slot is never read, the drain sorts.
    fn place(&mut self, idx: u32) {
        let key = self.key(idx);
        let s0 = key.at >> SLOT_BITS;
        if s0 <= self.cursor {
            // At or behind the cursor: ready now, ahead of every slot.
            self.late.push(MinKey(key));
            return;
        }
        for (l, level) in self.levels.iter_mut().enumerate() {
            let parent_shift = LEVEL_BITS * (l as u32 + 1);
            if (s0 >> parent_shift) == (self.cursor >> parent_shift) {
                let slot = ((s0 >> (LEVEL_BITS * l as u32)) & SLOT_MASK) as usize;
                set_bit(&mut level.occupied, slot);
                self.slab[idx as usize].next = std::mem::replace(&mut level.heads[slot], idx);
                return;
            }
        }
        self.overflow.push(MinKey(key));
    }

    /// Empties slot `slot` of level `l` and returns the head of its list.
    fn take_slot(&mut self, l: usize, slot: usize) -> u32 {
        clear_bit(&mut self.levels[l].occupied, slot);
        std::mem::replace(&mut self.levels[l].heads[slot], NIL)
    }

    /// Advances the cursor until some key is ready (returns true) or it is
    /// proven that no buffered key lives at a level-0 slot `<= limit`
    /// (returns false). With `limit: None` the scan is unbounded and
    /// `false` means the wheel is empty.
    ///
    /// In the bounded-stop case the cursor parks exactly at `limit`: every
    /// slot up to `limit` has been drained or shown unoccupied, so both
    /// ordering invariants keep holding, and later pushes beyond the
    /// deadline take the normal wheel path instead of the late heap.
    fn ensure_ready_until(&mut self, limit: Option<u64>) -> bool {
        loop {
            if !self.batch.is_empty() || !self.late.is_empty() {
                return true;
            }
            if limit.is_some_and(|lim| lim < self.cursor) {
                // Everything at or before the limit was already drained.
                return false;
            }
            // Level 0: drain the next occupied slot in the current window.
            let from = (self.cursor & SLOT_MASK) as usize;
            if let Some(idx) = find_set(&self.levels[0].occupied, from) {
                let candidate = (self.cursor & !SLOT_MASK) | idx as u64;
                if let Some(lim) = limit {
                    if candidate > lim {
                        // Nothing occupied in (cursor, lim]; lim is in this
                        // same level-0 window, so no upper level covers it.
                        self.cursor = lim;
                        return false;
                    }
                }
                self.cursor = candidate;
                // The batch is empty: collect the slot's keys into it. The
                // list is in reverse push order; the sort alone decides
                // the pop order.
                let mut at = self.take_slot(0, idx);
                while at != NIL {
                    self.batch.push(self.key(at));
                    at = self.slab[at as usize].next;
                }
                if self.batch.len() > 1 {
                    self.batch
                        .sort_unstable_by_key(|k| std::cmp::Reverse(k.rank()));
                }
                continue;
            }
            if let Some(lim) = limit {
                if (lim >> LEVEL_BITS) == (self.cursor >> LEVEL_BITS) {
                    // Level 0 is empty through the end of this window and
                    // the limit lies inside it: park and stop.
                    self.cursor = lim;
                    return false;
                }
            }
            // Levels 1..: cascade the next occupied slot down one level.
            let mut cascaded = false;
            for l in 1..LEVELS {
                let shift = LEVEL_BITS * l as u32;
                let cl = ((self.cursor >> shift) & SLOT_MASK) as usize;
                debug_assert!(
                    self.levels[l].occupied[cl / 64] & (1 << (cl % 64)) == 0,
                    "cursor's own upper-level slot must already be drained"
                );
                if let Some(idx) = find_set(&self.levels[l].occupied, cl + 1) {
                    let high = (self.cursor >> (shift + LEVEL_BITS)) << (shift + LEVEL_BITS);
                    let candidate = high | ((idx as u64) << shift);
                    if let Some(lim) = limit {
                        if candidate > lim {
                            // The next occupied region starts after the
                            // limit; every level below is already empty.
                            self.cursor = lim;
                            return false;
                        }
                    }
                    self.cursor = candidate;
                    let mut at = self.take_slot(l, idx);
                    while at != NIL {
                        // `place` relinks the entry: read its link first.
                        let next = self.slab[at as usize].next;
                        self.place(at);
                        at = next;
                    }
                    cascaded = true;
                    break;
                }
                if let Some(lim) = limit {
                    let parent = shift + LEVEL_BITS;
                    if (lim >> parent) == (self.cursor >> parent) {
                        // This level is empty through the end of its window
                        // and the limit lies inside it.
                        self.cursor = lim;
                        return false;
                    }
                }
            }
            if cascaded {
                continue;
            }
            // All levels empty: jump to the overflow's earliest block and
            // pull every overflow key of that block into the wheel.
            if let Some(head) = self.overflow.peek() {
                let top_shift = LEVEL_BITS * LEVELS as u32;
                let s0 = head.0.at >> SLOT_BITS;
                debug_assert!(s0 >= self.cursor, "overflow behind the cursor");
                if let Some(lim) = limit {
                    if s0 > lim {
                        // Park for the deadline, but never inside the
                        // head's block: once the cursor shares a block
                        // with an overflow key, later pushes land in the
                        // levels and a cascade could overtake the head
                        // without pulling it. The levels are provably
                        // empty here, so stopping short of `lim` at the
                        // block boundary is safe.
                        let block_start = (s0 >> top_shift) << top_shift;
                        self.cursor = lim.min(block_start.saturating_sub(1));
                        return false;
                    }
                }
                self.cursor = s0;
                let top_shift = LEVEL_BITS * LEVELS as u32;
                let block = s0 >> top_shift;
                while let Some(head) = self.overflow.peek() {
                    if (head.0.at >> SLOT_BITS) >> top_shift != block {
                        break;
                    }
                    let MinKey(key) = self.overflow.pop().expect("peeked");
                    self.place(key.idx);
                }
                continue;
            }
            // Completely empty. Park at the limit, if any, so near-future
            // pushes land ahead of the cursor.
            if let Some(lim) = limit {
                self.cursor = lim;
            }
            return false;
        }
    }
}

impl<T> std::fmt::Debug for CalendarWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarWheel")
            .field("len", &self.len)
            .field("cursor", &self.cursor)
            .field("batch", &self.batch.len())
            .field("late", &self.late.len())
            .field("overflow", &self.overflow.len())
            .field("slab", &self.slab.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn ms(n: u64) -> SimTime {
        SimTime::from_micros(n * 1_000)
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = CalendarWheel::new();
        w.push(SimTime::from_micros(30), 'c');
        w.push(SimTime::from_micros(10), 'a');
        w.push(SimTime::from_micros(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| w.pop()).map(|(_, c)| c).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
        assert!(w.is_empty());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut w = CalendarWheel::new();
        for tag in 0..50u64 {
            w.push(ms(100), tag);
        }
        let tags: Vec<u64> = std::iter::from_fn(|| w.pop()).map(|(_, t)| t).collect();
        assert_eq!(tags, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn slot_cascade_preserves_order() {
        // One entry per level plus interleaved near entries: a level-1
        // entry (~300 ms) and a level-2 entry (~70 s) must cascade down
        // and interleave correctly with level-0 entries.
        let mut w = CalendarWheel::new();
        w.push(ms(70_000), "l2");
        w.push(ms(300), "l1");
        w.push(ms(1), "l0");
        w.push(ms(250), "l0-late");
        w.push(ms(69_999), "l1-after-cascade");
        let order: Vec<&str> = std::iter::from_fn(|| w.pop()).map(|(_, s)| s).collect();
        assert_eq!(order, vec!["l0", "l0-late", "l1", "l1-after-cascade", "l2"]);
    }

    #[test]
    fn far_future_overflow() {
        // Beyond the level-2 horizon (~4.8 h) entries go to the overflow
        // heap and still pop in order.
        let mut w = CalendarWheel::new();
        let five_hours = SimTime::ZERO + SimDuration::from_secs(5 * 3600);
        let six_hours = SimTime::ZERO + SimDuration::from_secs(6 * 3600);
        w.push(six_hours, "later");
        w.push(five_hours, "far");
        w.push(ms(5), "near");
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop().map(|(_, s)| s), Some("near"));
        assert_eq!(w.pop(), Some((five_hours, "far")));
        assert_eq!(w.pop(), Some((six_hours, "later")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn push_behind_cursor_after_peek() {
        // Peeking at a far entry advances the cursor; a later push for an
        // earlier instant must still pop first.
        let mut w = CalendarWheel::new();
        w.push(ms(500), "far");
        assert_eq!(w.peek_time(), Some(ms(500)));
        w.push(ms(20), "early");
        w.push(ms(20), "early-2");
        assert_eq!(w.pop().map(|(_, s)| s), Some("early"));
        assert_eq!(w.pop().map(|(_, s)| s), Some("early-2"));
        assert_eq!(w.pop().map(|(_, s)| s), Some("far"));
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut w = CalendarWheel::new();
        w.push(ms(10), 1u32);
        w.push(ms(30), 2u32);
        assert_eq!(
            w.pop_at_or_before(ms(20)),
            Some((ms(10), 1))
        );
        assert_eq!(w.pop_at_or_before(ms(20)), None);
        assert_eq!(w.len(), 1);
        assert_eq!(
            w.pop_at_or_before(ms(30)),
            Some((ms(30), 2))
        );
    }

    /// Walks the free list and holds the slab to `free + len == slab`:
    /// every entry is either parked or reusable, and the list ends.
    fn check_slab<T>(w: &CalendarWheel<T>) {
        let (mut free, mut at) = (0, w.free);
        while at != NIL {
            free += 1;
            assert!(free <= w.slab.len(), "the free list loops");
            assert!(w.slab[at as usize].item.is_none(), "a parked entry is free");
            at = w.slab[at as usize].next;
        }
        assert_eq!(free + w.len(), w.slab.len());
    }

    #[test]
    fn same_instant_keys_pop_fifo_after_a_cascade() {
        // A slot's list is in reverse push order, and a cascade re-links
        // it reversed again: only the drain's sort by `seq` makes the pop
        // order FIFO. Level 1 (300 ms out) and the overflow heap (6 h).
        let six_hours = SimTime::ZERO + SimDuration::from_secs(6 * 3600);
        for at in [ms(300), six_hours] {
            let mut w = CalendarWheel::new();
            for tag in 0..50u64 {
                w.push(at, tag);
            }
            let popped: Vec<(SimTime, u64)> = std::iter::from_fn(|| w.pop()).collect();
            let fifo: Vec<(SimTime, u64)> = (0..50).map(|tag| (at, tag)).collect();
            assert_eq!(popped, fifo);
            check_slab(&w);
        }
    }

    #[test]
    fn a_burst_leaves_nothing_behind_but_the_slab() {
        // The regression the slot lists remove: a burst used to size a
        // slot's own buffer, and the batch swap then parked that buffer
        // in whichever slot drained next. Now a level is heads and a
        // bitmap, inline in the wheel — its only heap objects are the
        // slab, `batch`, `late` and `overflow` — and the slab is as long
        // as the burst's peak however long the wheel runs afterwards.
        assert_eq!(
            std::mem::size_of::<[Level; LEVELS]>(),
            LEVELS * (SLOTS * 4 + WORDS * 8)
        );
        let mut w = CalendarWheel::new();
        for tag in 0..10_000u64 {
            w.push(ms(100), tag);
        }
        let mut now = 0;
        for round in 0..100_000u64 {
            // Steady traffic: 20 ms frames and the odd supervision timer.
            let ahead = if round % 64 == 0 { 5_000_000 } else { 20_000 };
            w.push(SimTime::from_micros(now + ahead), round);
            now = w.pop().expect("never empty").0.as_micros();
        }
        assert_eq!(w.len(), 10_000);
        assert_eq!(w.slab.len(), 10_001, "the burst's peak plus the one in flight");
        check_slab(&w);
        while w.pop().is_some() {}
        check_slab(&w);
    }

    #[test]
    fn slab_recycles_freed_indices() {
        // Steady-state churn must not grow the payload slab: every pop
        // frees its slot for the next push.
        let mut w = CalendarWheel::new();
        for round in 0..10_000u64 {
            w.push(SimTime::from_micros(round * 100), [round; 4]);
            let (_, item) = w.pop().expect("just pushed");
            assert_eq!(item, [round; 4]);
        }
        assert!(w.is_empty());
        assert_eq!(w.slab.len(), 1, "churn must reuse the single slab slot");
    }

    #[test]
    fn randomized_against_sorted_oracle() {
        // Heap-free oracle: collect (at, seq) keys, sort, and require the
        // wheel to pop in exactly that order — across several seeds, with
        // horizons spanning all levels and the overflow, and with pushes
        // interleaved mid-drain (always at or after the last popped time,
        // matching the simulation's monotone-clock contract).
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let mut w = CalendarWheel::new();
            let mut expected: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut push = |w: &mut CalendarWheel<u64>, expected: &mut Vec<(u64, u64)>, at: u64| {
                w.push(SimTime::from_micros(at), seq);
                expected.push((at, seq));
                seq += 1;
            };
            for _ in 0..500 {
                // Mix of horizons: sub-slot, level 0, level 1, level 2, overflow.
                let at = match rng.range(0, 5) {
                    0 => rng.range(0, 1_000),
                    1 => rng.range(0, 260_000),
                    2 => rng.range(0, 60_000_000),
                    3 => rng.range(0, 4 * 3_600_000_000),
                    _ => rng.range(0, 20 * 3_600_000_000),
                };
                push(&mut w, &mut expected, at);
            }
            // Drain half, interleaving monotone pushes.
            let mut popped: Vec<(u64, u64)> = Vec::new();
            for _ in 0..250 {
                let (at, item) = w.pop().expect("wheel has entries");
                popped.push((at.as_micros(), item));
                if rng.range(0, 3) == 0 {
                    let delta = rng.range(0, 3_600_000_000);
                    push(&mut w, &mut expected, at.as_micros() + delta);
                }
                check_slab(&w);
            }
            while let Some((at, item)) = w.pop() {
                popped.push((at.as_micros(), item));
                check_slab(&w);
            }
            // The oracle: all keys in (at, seq) order. Interleaved pushes
            // were >= the pop time at which they were made, so the already
            // popped prefix is unaffected.
            expected.sort_unstable();
            assert_eq!(popped, expected, "seed {seed}");
            assert!(w.is_empty());
        }
    }

    #[test]
    fn bounded_pops_against_sorted_oracle() {
        // Epoch-stepped drains with far-horizon pushes. This is the
        // regression net for cursor parking around overflow blocks: the
        // deadlines sweep the clock across several 2^34 µs top-level
        // blocks while keys sit in the overflow heap, and the cursor
        // must never park past an overflow key it has not pulled.
        for seed in 0..6u64 {
            let mut rng = SimRng::new(seed);
            let mut w = CalendarWheel::new();
            let mut oracle: Vec<(u64, u64)> = Vec::new();
            let mut popped: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let push = |w: &mut CalendarWheel<u64>,
                        oracle: &mut Vec<(u64, u64)>,
                        seq: &mut u64,
                        at: u64| {
                w.push(SimTime::from_micros(at), *seq);
                oracle.push((at, *seq));
                *seq += 1;
            };
            for epoch in 1..3_000u64 {
                // 20 s epochs: ~16 simulated hours, several block
                // boundaries.
                let deadline = epoch * 20_000_000;
                for _ in 0..rng.range(0, 4) {
                    let dt = match rng.range(0, 12) {
                        0..=5 => rng.range(0, 2_000),
                        6..=7 => rng.range(0, 60_000),
                        8 => rng.range(0, 10_000_000),
                        9 => rng.range(0, 4_000_000_000),
                        10 => rng.range(60_000_000, 40_000_000_000),
                        _ => 0,
                    };
                    push(&mut w, &mut oracle, &mut seq, now + dt);
                }
                while let Some((at, item)) =
                    w.pop_at_or_before(SimTime::from_micros(deadline))
                {
                    now = at.as_micros();
                    popped.push((now, item));
                    if rng.range(0, 4) == 0 {
                        let dt = rng.range(0, 30_000_000_000);
                        push(&mut w, &mut oracle, &mut seq, now + dt);
                    }
                    check_slab(&w);
                }
                check_slab(&w);
                now = deadline;
            }
            while let Some((at, item)) = w.pop() {
                popped.push((at.as_micros(), item));
                check_slab(&w);
            }
            oracle.sort_unstable();
            assert_eq!(popped, oracle, "seed {seed}");
            assert!(w.is_empty());
        }
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut w = CalendarWheel::new();
        assert!(w.is_empty());
        for i in 0..10 {
            w.push(ms(i * 7), i);
        }
        assert_eq!(w.len(), 10);
        w.pop();
        w.pop();
        assert_eq!(w.len(), 8);
    }
}
