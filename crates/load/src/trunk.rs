//! Partition-tolerant inter-shard trunks.
//!
//! The bare barrier mailbox of PR 2 assumed the
//! inter-VMSC trunks between shards never lose, duplicate, reorder or
//! partition traffic. [`TrunkFabric`] removes that assumption: it wraps
//! the epoch barrier with a **reliable sequenced protocol** — per
//! `(src, dst)` sequence numbers, a retransmit queue driven by the
//! deterministic [`Backoff`] ladder, duplicate-suppression windows and
//! in-order release — and injects the seeded per-shard-pair chaos
//! compiled by [`vgprs_faults::compile_trunk_plan`].
//!
//! Determinism is structural, not defensive: every fabric step runs on
//! the barrier (shards iterated in index order), every
//! chaos decision is a **stateless draw** from
//! `(seed, src, dst, seq, attempt)` — no mutable RNG whose consumption
//! order could drift — and retransmit deadlines quantize to epoch
//! boundaries. The same configuration therefore produces bit-identical
//! delivery streams on either event kernel.
//!
//! When the trunk plan is empty the fabric is **disarmed**: `post` and
//! `take_inbox` reproduce the bare mailbox byte for byte (same delivery
//! order, same HLR-directory observation point, zero extra counters), so
//! a zero-intensity plan matches the fault-free fingerprint exactly.
//!
//! Failure semantics mirror an SS7 trunk group:
//!
//! * a flit that exhausts its retransmission ladder is **abandoned**:
//!   the receiver is resynchronized past the hole (later flits release)
//!   and the *sender* shard gets a [`Flit::TrunkExpired`] naming the
//!   casualty, so a mid-ladder Figure 9 handoff resolves by supervised
//!   teardown with a q850 cause instead of hanging forever;
//! * when the last partition window on a pair closes, both ends get a
//!   [`Flit::TrunkHeal`] and re-route the legs they tore down — the
//!   heal-to-recovery delay is a fingerprinted KPI.

use std::collections::{BTreeMap, BTreeSet};

use vgprs_faults::{mix_salt, TrunkFaultClass, TrunkPlan, TrunkPlanConfig, compile_trunk_plan};
use vgprs_sim::{Backoff, SimDuration, SimRng, Stats};

use crate::mailbox::{Envelope, Flit, HlrDirectory, EPOCH_MS};

/// Salt for per-transmission drop/duplicate/reorder decisions.
const SALT_XMIT: u64 = 0x01;
/// Salt for per-transmission duplication decisions.
const SALT_DUP: u64 = 0x02;
/// Salt for per-transmission reorder decisions.
const SALT_REORDER: u64 = 0x03;
/// Salt for ack-return drop decisions.
const SALT_ACK: u64 = 0x04;

/// The retransmission ladder every trunk channel runs: first retry after
/// two epochs, doubling to a 1.6 s cap, six attempts. A short partition
/// recovers by retransmission, while a long one exhausts its
/// [`Backoff::budget`] and ends deterministically in supervised
/// teardown: the sender hears of the casualty no later than the budget
/// and one epoch after it posted the flit.
pub fn retransmit_backoff() -> Backoff {
    Backoff {
        base: SimDuration::from_millis(100),
        factor: 2,
        cap: SimDuration::from_millis(1_600),
        max_attempts: 6,
    }
}

/// Sender half of one directed `(src, dst)` trunk channel.
///
/// A drained channel keeps only its counter: an emptied `BTreeMap`
/// still holds its root leaf (808 B for the retransmit queue's), so the
/// fabric swaps in a fresh map whenever `unacked` or `buffer` empties
/// (`crates/load/tests/fabric_footprint.rs`).
#[derive(Debug, Default)]
struct TxChannel {
    /// Next sequence number to assign.
    next_seq: u64,
    /// Unacknowledged flits by sequence number.
    unacked: BTreeMap<u64, Pending>,
}

/// One unacknowledged flit awaiting cumulative ack or exhaustion.
#[derive(Debug)]
struct Pending {
    flit: Flit,
    /// Retransmissions performed so far.
    attempt: u32,
    /// Absolute ms when the next retransmission is due.
    due_ms: u64,
}

/// Receiver half of one directed `(src, dst)` trunk channel.
#[derive(Debug, Default)]
struct RxChannel {
    /// Lowest sequence number not yet released in order.
    next_expected: u64,
    /// Out-of-order arrivals awaiting the gap to fill.
    buffer: BTreeMap<u64, Flit>,
}

/// One transmission staged for delivery at the current barrier.
struct Staged {
    src: usize,
    dst: usize,
    seq: u64,
    flit: Flit,
    /// Reorder chaos: shuffled behind this barrier's other deliveries.
    delayed: bool,
}

/// The impaired medium between the channel ends: the compiled chaos and
/// everything one transmission attempt writes. Its own struct so an
/// attempt can read the flit straight out of the sender's retransmit
/// queue (a disjoint field of the fabric) instead of a copy.
struct Medium {
    shards: usize,
    seed: u64,
    /// Per unordered pair, indexed `a * shards + b` (a < b); empty when
    /// disarmed.
    plans: Vec<TrunkPlan>,
    /// The barrier being sealed; transmissions roll against its levels.
    now_ms: u64,
    /// Transmissions that survived, for this barrier's receive step.
    staged: Vec<Staged>,
    /// Transport KPIs, merged into the run report only when armed.
    stats: Stats,
}

impl Medium {
    /// The pair plan governing traffic between `a` and `b`.
    fn plan(&self, a: usize, b: usize) -> &TrunkPlan {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        &self.plans[a * self.shards + b]
    }

    /// Stateless uniform draw for one chaos decision. Pure function of
    /// the identifiers, so a retransmission rolls fresh dice while the
    /// same transmission always rolls the same ones.
    fn draw(&self, kind: u64, src: usize, dst: usize, seq: u64, attempt: u32) -> f64 {
        let stream = mix_salt(
            mix_salt(mix_salt(mix_salt(kind, src as u64), dst as u64), seq),
            attempt as u64,
        );
        SimRng::derive(self.seed, stream).uniform()
    }

    /// Attempts one transmission of `(src → dst, seq)` under the pair's
    /// chaos levels at the current barrier, staging it on survival.
    fn transmit(&mut self, src: usize, dst: usize, seq: u64, attempt: u32, flit: &Flit) {
        let plan = self.plan(src, dst);
        let p_part = plan.level_at(TrunkFaultClass::Partition, self.now_ms);
        let p_loss = plan.level_at(TrunkFaultClass::Loss, self.now_ms);
        let p_dup = plan.level_at(TrunkFaultClass::Dup, self.now_ms);
        let p_reorder = plan.level_at(TrunkFaultClass::Reorder, self.now_ms);
        // One draw decides drop; the partition claims the low range so
        // attribution, like the combined probability, is monotone in
        // intensity.
        let u = self.draw(SALT_XMIT, src, dst, seq, attempt);
        let p_drop = 1.0 - (1.0 - p_part) * (1.0 - p_loss);
        if u < p_drop {
            if u < p_part {
                self.stats.count("trunk.drops_partition");
            } else {
                self.stats.count("trunk.drops_loss");
            }
            return;
        }
        let delayed = self.draw(SALT_REORDER, src, dst, seq, attempt) < p_reorder;
        if delayed {
            self.stats.count("trunk.reordered");
        }
        self.staged.push(Staged { src, dst, seq, flit: flit.clone(), delayed });
        if self.draw(SALT_DUP, src, dst, seq, attempt) < p_dup {
            self.stats.count("trunk.dup_injected");
            self.staged.push(Staged { src, dst, seq, flit: flit.clone(), delayed });
        }
    }
}

/// Every heal edge the pair plans will ever produce, as
/// `(barrier_ms, a, b)` in the order the barriers reach them.
///
/// A heal is what a scan of all pairs at every barrier would see as
/// "partition level positive at the previous barrier, zero at this one"
/// (nothing is partitioned before the first barrier). The level is
/// positive exactly on the union of the windows' supports, so the scan's
/// answer is fixed by geometry: map each support to the barriers that
/// sample it, merge spans that overlap or abut (no zero sample falls
/// between them), and each merged span heals at the first barrier past
/// it. O(windows log windows) once, instead of O(pairs) per barrier.
fn heal_agenda(shards: usize, plans: &[TrunkPlan]) -> Vec<(u64, usize, usize)> {
    let mut agenda = Vec::new();
    // A heal past the end of time never arrives.
    let mut heal_at = |barrier: u64, a, b| {
        if let Some(ms) = barrier.checked_mul(EPOCH_MS) {
            agenda.push((ms, a, b));
        }
    };
    let mut spans: Vec<(u64, u64)> = Vec::new();
    for (idx, plan) in plans.iter().enumerate() {
        let (a, b) = (idx / shards, idx % shards);
        // Half-open barrier-index spans the pair samples partitioned.
        spans.clear();
        spans.extend(
            plan.windows
                .iter()
                .filter(|w| w.class == TrunkFaultClass::Partition)
                .filter_map(|w| w.support_ms())
                .map(|(start_ms, end_ms)| (start_ms.div_ceil(EPOCH_MS).max(1), end_ms.div_ceil(EPOCH_MS)))
                .filter(|(first, heal)| first < heal),
        );
        spans.sort_unstable();
        let mut open: Option<u64> = None;
        for &(first, heal) in &spans {
            open = match open {
                Some(h) if first <= h => Some(h.max(heal)),
                Some(h) => {
                    heal_at(h, a, b);
                    Some(heal)
                }
                None => Some(heal),
            };
        }
        if let Some(h) = open {
            heal_at(h, a, b);
        }
    }
    agenda.sort_unstable();
    agenda
}

/// The epoch-barrier trunk layer: the bare mailbox when disarmed, the
/// reliable sequenced protocol plus chaos injection when a trunk plan is
/// in force.
pub struct TrunkFabric {
    armed: bool,
    backoff: Backoff,
    medium: Medium,
    /// Heal edges still ahead, see [`heal_agenda`]; consumed from
    /// `next_heal` as the barriers pass them.
    heals: Vec<(u64, usize, usize)>,
    next_heal: usize,
    inboxes: Vec<Vec<(usize, Flit)>>,
    tx: BTreeMap<(usize, usize), TxChannel>,
    rx: BTreeMap<(usize, usize), RxChannel>,
    /// The tx channels with a non-empty `unacked` map: all the
    /// retransmit scan has to visit.
    live: BTreeSet<(usize, usize)>,
    /// Cumulative acks generated at the previous barrier, applied at the
    /// next (the one-epoch return trip of a real trunk).
    acks: Vec<(usize, usize, u64)>,
    /// Inbox entries + unacked flits + buffered arrivals, kept in step
    /// with every insert and remove so `in_flight` never re-sums.
    owed: usize,
}

impl TrunkFabric {
    /// Builds the fabric. With a zero-intensity (or absent) trunk config
    /// the fabric is disarmed and behaves exactly like the bare mailbox.
    pub fn new(shards: usize, seed: u64, cfg: &TrunkPlanConfig, window_secs: u64) -> Self {
        let armed = shards > 1 && !cfg.is_off() && window_secs > 0;
        let mut plans = Vec::new();
        if armed {
            plans.resize(shards * shards, TrunkPlan::default());
            for a in 0..shards {
                for b in (a + 1)..shards {
                    plans[a * shards + b] = compile_trunk_plan(cfg, seed, a, b, window_secs);
                }
            }
        }
        Self::with_plans(shards, seed, plans)
    }

    /// The fabric over explicit pair plans (`a * shards + b`, a < b):
    /// armed, or with none at all disarmed. An armed fabric's first
    /// delivery to each shard is [`Flit::TrunkArmed`].
    fn with_plans(shards: usize, seed: u64, plans: Vec<TrunkPlan>) -> Self {
        let armed = !plans.is_empty();
        let told = |shard| Vec::from_iter(armed.then_some((shard, Flit::TrunkArmed)));
        TrunkFabric {
            armed,
            backoff: retransmit_backoff(),
            heals: heal_agenda(shards, &plans),
            next_heal: 0,
            medium: Medium {
                shards,
                seed,
                plans,
                now_ms: 0,
                staged: Vec::new(),
                stats: Stats::new(),
            },
            inboxes: (0..shards).map(told).collect(),
            tx: BTreeMap::new(),
            rx: BTreeMap::new(),
            live: BTreeSet::new(),
            acks: Vec::new(),
            owed: if armed { shards } else { 0 },
        }
    }

    /// True when the reliable protocol (and chaos) is in force.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Transport KPIs accumulated so far (empty when disarmed).
    pub fn stats(&self) -> &Stats {
        &self.medium.stats
    }

    /// Posts one shard's epoch output. **Must** be called in ascending
    /// `from_shard` order within a barrier.
    ///
    /// Disarmed, this is the bare mailbox's post (append to the
    /// destination inbox) plus the historical post-time HLR
    /// observation. Armed, each envelope gets the next sequence number
    /// on its directed channel, joins the retransmit queue and rolls
    /// its first transmission's dice; the directory is observed at
    /// *delivery* instead, so HLR ownership reflects what actually
    /// arrived.
    pub fn post(&mut self, from_shard: usize, envelopes: Vec<Envelope>, directory: &mut HlrDirectory) {
        self.owed += envelopes.len();
        if !self.armed {
            for env in envelopes {
                directory.observe(from_shard, env.to_shard, &env.flit);
                self.inboxes[env.to_shard].push((from_shard, env.flit));
            }
            return;
        }
        let first_retry_ms = self.backoff.delay(0).expect("ladder allows a first retry").as_millis();
        for env in envelopes {
            let dst = env.to_shard;
            let chan = self.tx.entry((from_shard, dst)).or_default();
            let seq = chan.next_seq;
            chan.next_seq += 1;
            self.medium.transmit(from_shard, dst, seq, 0, &env.flit);
            if chan.unacked.is_empty() {
                self.live.insert((from_shard, dst));
            }
            let due_ms = self.medium.now_ms + first_retry_ms;
            chan.unacked.insert(seq, Pending { flit: env.flit, attempt: 0, due_ms });
        }
    }

    /// Runs the armed barrier step at `now_ms` (the boundary the epoch
    /// just reached; barriers come [`EPOCH_MS`] apart, starting at
    /// `EPOCH_MS`): applies last barrier's acks, retransmits due
    /// flits, resolves exhausted ones, releases arrivals in sequence
    /// order, emits heal notifications and generates this barrier's
    /// acks. A no-op when disarmed.
    pub fn seal(&mut self, now_ms: u64, directory: &mut HlrDirectory) {
        if !self.armed {
            return;
        }
        self.medium.now_ms = now_ms;

        // 1. Acks generated at the previous barrier arrive now and
        //    cancel retransmission for everything below them.
        for (src, dst, cum) in std::mem::take(&mut self.acks) {
            if let Some(chan) = self.tx.get_mut(&(src, dst)) {
                let before = chan.unacked.len();
                chan.unacked.retain(|&seq, _| seq >= cum);
                self.owed -= before - chan.unacked.len();
                if chan.unacked.is_empty() {
                    self.live.remove(&(src, dst));
                    chan.unacked = BTreeMap::new();
                }
            }
        }

        // 2. Retransmit scan over the channels with anything unacked,
        //    channels and sequences in ascending order. A flit whose
        //    ladder is exhausted is abandoned: the receiver
        //    resynchronizes past the hole and the sender shard is told
        //    (`owed` stays put: the casualty's unacked slot becomes its
        //    notice's inbox slot in step 5).
        let mut expired = Vec::new();
        let Self { tx, live, medium, backoff, .. } = self;
        live.retain(|&(src, dst)| {
            let chan = tx.get_mut(&(src, dst)).expect("a live channel was posted on");
            chan.unacked.retain(|&seq, pending| {
                if pending.due_ms > now_ms {
                    return true;
                }
                pending.attempt += 1;
                match backoff.delay(pending.attempt) {
                    Some(d) => {
                        pending.due_ms = now_ms + d.as_millis();
                        medium.stats.count("trunk.retransmits");
                        medium.transmit(src, dst, seq, pending.attempt, &pending.flit);
                        true
                    }
                    None => {
                        expired.push((src, dst, seq, pending.flit.casualty()));
                        false
                    }
                }
            });
            if chan.unacked.is_empty() {
                chan.unacked = BTreeMap::new();
                return false;
            }
            true
        });
        let mut touched: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &(src, dst, seq, _) in &expired {
            self.medium.stats.count("trunk.expired");
            // Resynchronize the receiver past the abandoned sequence so
            // buffered later flits release instead of waiting forever.
            let chan = self.rx.entry((src, dst)).or_default();
            if chan.next_expected <= seq {
                chan.next_expected = seq + 1;
                touched.insert((src, dst));
                Self::release(chan, src, dst, &mut self.inboxes, directory);
            }
        }

        // 3. Reorder chaos: delayed transmissions slip behind the rest
        //    of the barrier (stable, so everything else keeps its order).
        let mut staged = std::mem::take(&mut self.medium.staged);
        staged.sort_by_key(|s| s.delayed);

        // 4. Receive: duplicate suppression, out-of-order buffering,
        //    in-order release into the destination inbox.
        for s in staged {
            let chan = self.rx.entry((s.src, s.dst)).or_default();
            touched.insert((s.src, s.dst));
            if s.seq < chan.next_expected || chan.buffer.contains_key(&s.seq) {
                self.medium.stats.count("trunk.dup_drops");
                continue;
            }
            if s.seq > chan.next_expected {
                self.medium.stats.observe("trunk.reorder_depth", (s.seq - chan.next_expected) as f64);
            }
            chan.buffer.insert(s.seq, s.flit);
            self.owed += 1;
            Self::release(chan, s.src, s.dst, &mut self.inboxes, directory);
        }

        // 5. Abandonment notices to the sender shards, after any
        //    releases the resynchronization produced.
        for (src, dst, _seq, (call, global, kind)) in expired {
            self.inboxes[src].push((dst, Flit::TrunkExpired { peer: dst, call, global, kind }));
        }

        // 6. Heal edges: at the first barrier that samples a pair's
        //    partition level back at zero, both ends learn the trunk is
        //    back.
        while let Some(&(at_ms, a, b)) = self.heals.get(self.next_heal) {
            if at_ms > now_ms {
                break;
            }
            self.next_heal += 1;
            self.medium.stats.count("trunk.heals");
            self.inboxes[a].push((b, Flit::TrunkHeal { peer: b }));
            self.inboxes[b].push((a, Flit::TrunkHeal { peer: a }));
            self.owed += 2;
        }

        // 7. Cumulative acks for every channel that heard anything this
        //    barrier, subject to reverse-direction chaos, applied at the
        //    next barrier.
        for (src, dst) in touched {
            let cum = self.rx[&(src, dst)].next_expected;
            let plan = self.medium.plan(src, dst);
            let p_part = plan.level_at(TrunkFaultClass::Partition, now_ms);
            let p_loss = plan.level_at(TrunkFaultClass::Loss, now_ms);
            let p_drop = 1.0 - (1.0 - p_part) * (1.0 - p_loss);
            if self.medium.draw(mix_salt(SALT_ACK, now_ms), dst, src, cum, 0) < p_drop {
                self.medium.stats.count("trunk.acks_dropped");
                continue;
            }
            self.acks.push((src, dst, cum));
        }
    }

    /// Releases every in-sequence buffered flit on `(src → dst)` into
    /// the destination inbox (buffer to inbox: `owed` does not move),
    /// observing the HLR directory at delivery. A buffer this empties
    /// gives back its tree.
    fn release(
        chan: &mut RxChannel,
        src: usize,
        dst: usize,
        inboxes: &mut [Vec<(usize, Flit)>],
        directory: &mut HlrDirectory,
    ) {
        while let Some(flit) = chan.buffer.remove(&chan.next_expected) {
            chan.next_expected += 1;
            directory.observe(src, dst, &flit);
            inboxes[dst].push((src, flit));
        }
        if chan.buffer.is_empty() {
            chan.buffer = BTreeMap::new();
        }
    }

    /// The barrier, in ms, at which the next heal edge falls due;
    /// `u64::MAX` when none is left (always, disarmed). The engine never
    /// skips past it: the heal's notices go out at that seal.
    pub(crate) fn next_heal_ms(&self) -> u64 {
        self.heals.get(self.next_heal).map_or(u64::MAX, |&(ms, ..)| ms)
    }

    /// Takes everything queued for `shard`, in delivery order.
    pub fn take_inbox(&mut self, shard: usize) -> Vec<(usize, Flit)> {
        let inbox = std::mem::take(&mut self.inboxes[shard]);
        self.owed -= inbox.len();
        inbox
    }

    /// Work still owed by the fabric: undelivered inbox entries plus —
    /// when armed — unacknowledged flits, buffered out-of-order
    /// arrivals and in-flight acks. The engine keeps epoching while any
    /// of these remain, so retransmission ladders always resolve.
    pub fn in_flight(&self) -> usize {
        self.owed + self.acks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::{ExpiredKind, Mailbox};
    use vgprs_faults::TrunkWindow;

    const EPOCH: u64 = EPOCH_MS;

    fn arrive(to_shard: usize, global: usize) -> Envelope {
        Envelope { to_shard, flit: Flit::Arrive { global } }
    }

    fn directory() -> HlrDirectory {
        HlrDirectory::new(&[(0, 8), (8, 8)])
    }

    fn partition_window(at_ms: u64, duration_ms: u64, ramp_ms: u64) -> TrunkWindow {
        TrunkWindow { at_ms, duration_ms, class: TrunkFaultClass::Partition, level: 1.0, ramp_ms }
    }

    /// An armed two-shard fabric whose only pair carries `windows`.
    fn two_shard_fabric(windows: Vec<TrunkWindow>) -> TrunkFabric {
        let mut plans = vec![TrunkPlan::default(); 4];
        plans[1].windows = windows;
        told(TrunkFabric::with_plans(2, 42, plans))
    }

    /// An armed `fabric` after every shard took its first inbox: the
    /// notice that the trunk is armed, and nothing else.
    fn told(mut fabric: TrunkFabric) -> TrunkFabric {
        for shard in 0..fabric.inboxes.len() {
            let first = fabric.take_inbox(shard);
            assert!(matches!(first.as_slice(), [(s, Flit::TrunkArmed)] if *s == shard));
        }
        assert_eq!(fabric.in_flight(), 0);
        fabric
    }

    /// The heal rule as the barrier used to evaluate it — every pair's
    /// partition level sampled at every barrier against the previous
    /// sample, pairs in ascending `(a, b)` — kept as the reference the
    /// agenda is checked against. Returns the `(barrier_ms, a, b)` edges.
    fn sampled_heals(shards: usize, plans: &[TrunkPlan], barriers: u64) -> Vec<(u64, usize, usize)> {
        let mut was_partitioned = vec![false; shards * shards];
        let mut edges = Vec::new();
        for k in 1..=barriers {
            let now_ms = k * EPOCH;
            for a in 0..shards {
                for b in (a + 1)..shards {
                    let idx = a * shards + b;
                    let level = plans[idx].level_at(TrunkFaultClass::Partition, now_ms);
                    let partitioned = level > 0.0;
                    if was_partitioned[idx] && !partitioned {
                        edges.push((now_ms, a, b));
                    }
                    was_partitioned[idx] = partitioned;
                }
            }
        }
        edges
    }

    /// `in_flight` as it used to be computed: every inbox, every tx and
    /// rx channel, summed.
    fn recounted_in_flight(f: &TrunkFabric) -> usize {
        f.inboxes.iter().map(Vec::len).sum::<usize>()
            + f.tx.values().map(|c| c.unacked.len()).sum::<usize>()
            + f.rx.values().map(|c| c.buffer.len()).sum::<usize>()
            + f.acks.len()
    }

    /// The channels a walk over all of `tx` would find work on.
    fn live_by_scan(f: &TrunkFabric) -> BTreeSet<(usize, usize)> {
        f.tx.iter().filter(|(_, c)| !c.unacked.is_empty()).map(|(&k, _)| k).collect()
    }

    fn assert_books_balance(f: &TrunkFabric, when: &str) {
        assert_eq!(f.in_flight(), recounted_in_flight(f), "in_flight drifted after {when}");
        assert_eq!(f.live, live_by_scan(f), "live-channel index drifted after {when}");
    }

    /// Disarmed, the fabric must be byte-for-byte the bare mailbox:
    /// same delivery tuples, same HLR observation point.
    #[test]
    fn disarmed_fabric_matches_bare_mailbox() {
        let mut fabric = TrunkFabric::new(2, 42, &TrunkPlanConfig::all(0.0), 300);
        assert!(!fabric.armed());
        let mut mb = Mailbox::new(2);
        let mut dir_f = directory();
        let mut dir_m = directory();
        let posts = vec![arrive(1, 2), arrive(1, 3)];
        fabric.post(0, posts.clone(), &mut dir_f);
        for env in posts {
            dir_m.observe(0, env.to_shard, &env.flit);
            mb.post(0, vec![env]);
        }
        fabric.seal(EPOCH, &mut dir_f);
        assert_eq!(fabric.in_flight(), mb.in_flight());
        let a = fabric.take_inbox(1);
        let b = mb.take_inbox(1);
        assert_eq!(a.len(), b.len());
        for ((fa, xa), (fb, xb)) in a.iter().zip(&b) {
            assert_eq!(fa, fb);
            assert_eq!(format!("{xa:?}"), format!("{xb:?}"));
        }
        assert_eq!(dir_f.owner_of(2), dir_m.owner_of(2));
        assert_eq!(dir_f.relocations(), dir_m.relocations());
    }

    /// Armed but between chaos windows, delivery is next-barrier and
    /// in order, exactly like the bare mailbox.
    #[test]
    fn armed_fabric_delivers_in_order_when_quiet() {
        let mut fabric = told(TrunkFabric::new(2, 42, &TrunkPlanConfig::all(1.0), 300));
        assert!(fabric.armed());
        let mut dir = directory();
        // t = 0 is before every chaos window (they start at >= 5% of
        // the run), so nothing drops.
        fabric.post(0, vec![arrive(1, 0), arrive(1, 1)], &mut dir);
        fabric.seal(EPOCH, &mut dir);
        let inbox = fabric.take_inbox(1);
        let globals: Vec<usize> = inbox
            .iter()
            .map(|(_, f)| match f {
                Flit::Arrive { global } => *global,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(globals, vec![0, 1]);
        // Delivery-time observation moved ownership.
        assert_eq!(dir.owner_of(0), 1);
        // Ack returns next barrier; after it the channel is clean.
        fabric.seal(2 * EPOCH, &mut dir);
        fabric.seal(3 * EPOCH, &mut dir);
        assert_eq!(fabric.in_flight(), 0, "acked channel must drain");
        assert_eq!(fabric.stats().counter("trunk.retransmits"), 0);
    }

    /// A fabric under a full partition retransmits on the backoff
    /// ladder and, when it exhausts, abandons the flit, notifies the
    /// sender and leaves no pending state behind — the
    /// cancel-during-retransmit / no-leaked-timers property.
    #[test]
    fn exhausted_retransmission_resolves_and_leaks_nothing() {
        // A plan whose partition covers the whole run: one synthetic
        // window, full drop, no ramp.
        let mut fabric = two_shard_fabric(vec![partition_window(0, u64::MAX / 2, 0)]);
        let mut dir = directory();
        fabric.post(0, vec![arrive(1, 3)], &mut dir);
        let budget_ms = retransmit_backoff().budget().as_millis();
        let mut t = 0;
        while fabric.in_flight() > 0 && t < budget_ms + 10 * EPOCH {
            t += EPOCH;
            fabric.seal(t, &mut dir);
        }
        assert_eq!(fabric.in_flight() , 1, "only the expiry notice may remain");
        let notice = fabric.take_inbox(0);
        assert_eq!(notice.len(), 1);
        match &notice[0].1 {
            Flit::TrunkExpired { peer: 1, call: None, global: Some(3), kind } => {
                assert_eq!(*kind, ExpiredKind::Mobility);
            }
            other => panic!("expected TrunkExpired, got {other:?}"),
        }
        assert_eq!(fabric.stats().counter("trunk.expired"), 1);
        assert_eq!(
            fabric.stats().counter("trunk.retransmits"),
            (retransmit_backoff().max_attempts - 1) as u64,
            "every rung of the ladder must have been climbed"
        );
        // Nothing leaked: no unacked entries, no buffers, no acks.
        assert_eq!(fabric.in_flight(), 0);
        // The HLR never heard about the move — it was never delivered.
        assert_eq!(dir.owner_of(3), 0);
        assert_eq!(dir.relocations(), 0);
    }

    /// Driven as the engine drives it — each epoch the shards take their
    /// inboxes, run, post, and the barrier seals — a full partition
    /// tells each sender of its casualty no later than the ladder's
    /// budget and one epoch after the earliest instant of the epoch it
    /// posted in. The voice-train exposure rule rests on this bound.
    #[test]
    fn a_casualty_notice_comes_within_the_budget_and_an_epoch() {
        let mut fabric = two_shard_fabric(vec![partition_window(0, u64::MAX / 2, 0)]);
        let mut dir = directory();
        let bound_ms = retransmit_backoff().budget().as_millis() + EPOCH;
        // Subscriber `global` posts its flit in epoch 3 * global + global % 2.
        let posts: Vec<u64> = (0..8).map(|g| 3 * g + g % 2).collect();
        let mut told = 0;
        for epoch in 0..posts[7] + bound_ms / EPOCH + 2 {
            for (from, flit) in fabric.take_inbox(0) {
                let Flit::TrunkExpired { global: Some(g), .. } = flit else {
                    panic!("unexpected {flit:?} from {from}");
                };
                let posted_ms = posts[g] * EPOCH;
                assert!(epoch * EPOCH <= posted_ms + bound_ms, "{g}: told at epoch {epoch}");
                told += 1;
            }
            let due = (0..8).filter(|&g| posts[g] == epoch).map(|g| arrive(1, g));
            fabric.post(0, due.collect(), &mut dir);
            fabric.seal((epoch + 1) * EPOCH, &mut dir);
        }
        assert_eq!((told, fabric.in_flight()), (8, 0), "every casualty was told");
    }

    /// An ack arriving while retransmissions are outstanding cancels
    /// the pending entry: no further retransmits, no leaked state.
    #[test]
    fn ack_cancels_outstanding_retransmission() {
        let mut fabric = told(TrunkFabric::new(2, 42, &TrunkPlanConfig::all(1.0), 300));
        let mut dir = directory();
        fabric.post(0, vec![arrive(1, 5)], &mut dir);
        fabric.seal(EPOCH, &mut dir); // delivered, ack generated
        assert_eq!(fabric.take_inbox(1).len(), 1);
        fabric.seal(2 * EPOCH, &mut dir); // ack applied
        let retransmits = fabric.stats().counter("trunk.retransmits");
        for k in 3..40 {
            fabric.seal(k * EPOCH, &mut dir);
        }
        assert_eq!(
            fabric.stats().counter("trunk.retransmits"),
            retransmits,
            "acked flit kept retransmitting"
        );
        assert_eq!(fabric.in_flight(), 0);
    }

    /// The (time, seq) FIFO contract: whatever the reorder chaos does
    /// within a barrier, a channel's flits are released in exactly the
    /// order they were posted.
    #[test]
    fn reordered_flits_release_in_posted_order() {
        let mut fabric = told(TrunkFabric::new(2, 7, &TrunkPlanConfig::only(TrunkFaultClass::Reorder, 4.0), 300));
        let mut dir = HlrDirectory::new(&[(0, 64), (64, 64)]);
        let mut released = Vec::new();
        let mut posted = Vec::new();
        let mut next_global = 0usize;
        // Walk the whole run so several reorder windows are crossed.
        for k in 1..=600u64 {
            let mut batch = Vec::new();
            for _ in 0..3 {
                batch.push(arrive(1, next_global % 64));
                posted.push(next_global % 64);
                next_global += 1;
            }
            fabric.post(0, batch, &mut dir);
            fabric.seal(k * EPOCH, &mut dir);
            for (_, flit) in fabric.take_inbox(1) {
                if let Flit::Arrive { global } = flit {
                    released.push(global);
                }
            }
        }
        // Drain the tail.
        for k in 601..=700u64 {
            fabric.seal(k * EPOCH, &mut dir);
            for (_, flit) in fabric.take_inbox(1) {
                if let Flit::Arrive { global } = flit {
                    released.push(global);
                }
            }
        }
        assert!(
            fabric.stats().counter("trunk.reordered") > 0,
            "the reorder windows never fired"
        );
        assert_eq!(released, posted, "in-order release violated");
    }

    /// Duplicate chaos is suppressed at the receiver: each sequence
    /// number is released exactly once.
    #[test]
    fn duplicates_are_suppressed() {
        let mut fabric = told(TrunkFabric::new(2, 7, &TrunkPlanConfig::only(TrunkFaultClass::Dup, 4.0), 300));
        let mut dir = HlrDirectory::new(&[(0, 64), (64, 64)]);
        let mut released = 0u64;
        let mut posted = 0u64;
        for k in 1..=600u64 {
            fabric.post(0, vec![arrive(1, (k % 64) as usize)], &mut dir);
            posted += 1;
            fabric.seal(k * EPOCH, &mut dir);
            released += fabric.take_inbox(1).len() as u64;
        }
        for k in 601..=700u64 {
            fabric.seal(k * EPOCH, &mut dir);
            released += fabric.take_inbox(1).len() as u64;
        }
        assert!(fabric.stats().counter("trunk.dup_injected") > 0, "dup windows never fired");
        assert!(fabric.stats().counter("trunk.dup_drops") > 0, "no duplicate was suppressed");
        assert_eq!(released, posted, "duplicate escaped suppression");
    }

    /// A heal edge notifies both ends exactly once per closed window.
    #[test]
    fn partition_heal_notifies_both_ends() {
        let mut fabric = two_shard_fabric(vec![partition_window(100, 200, 50)]);
        let mut dir = directory();
        for k in 1..=10u64 {
            fabric.seal(k * EPOCH, &mut dir);
        }
        assert_eq!(fabric.stats().counter("trunk.heals"), 1);
        let a: Vec<_> = fabric.take_inbox(0);
        let b: Vec<_> = fabric.take_inbox(1);
        assert!(matches!(a.as_slice(), [(1, Flit::TrunkHeal { peer: 1 })]));
        assert!(matches!(b.as_slice(), [(0, Flit::TrunkHeal { peer: 0 })]));
    }

    /// A window that never ends is one agenda entry that never comes
    /// due, not a loop to the end of time and not an overflow.
    #[test]
    fn endless_window_builds_an_empty_agenda() {
        for ramp_ms in [0, 400] {
            let mut fabric = two_shard_fabric(vec![partition_window(120, u64::MAX, ramp_ms)]);
            assert!(fabric.heals.is_empty(), "a heal at the end of time was scheduled");
            let mut dir = directory();
            for k in 1..=20 {
                fabric.seal(k * EPOCH, &mut dir);
            }
            assert_eq!(fabric.stats().counter("trunk.heals"), 0);
        }
    }

    /// Random partition geometry for one differential case: windows on
    /// and off the 50 ms grid, square and ramped, empty, overlapping,
    /// back to back, starting at 0 and outliving the last barrier, with
    /// other classes mixed in that must not matter.
    fn random_plans(shards: usize, rng: &mut SimRng, horizon_ms: u64) -> Vec<TrunkPlan> {
        let mut plans = vec![TrunkPlan::default(); shards * shards];
        for a in 0..shards {
            for b in (a + 1)..shards {
                let windows = &mut plans[a * shards + b].windows;
                let mut prev_end = 0;
                for _ in 0..rng.range(0, 5) {
                    let at_ms = match rng.range(0, 5) {
                        0 => prev_end,
                        1 => rng.range(0, horizon_ms / EPOCH) * EPOCH,
                        2 => 0,
                        _ => rng.range(0, horizon_ms),
                    };
                    let duration_ms = match rng.range(0, 6) {
                        0 => 0,
                        1 => rng.range(1, 8) * EPOCH,
                        2 => (rng.range(1, 8) * EPOCH).saturating_sub(at_ms % EPOCH),
                        3 => u64::MAX - rng.range(0, 2_000),
                        _ => rng.range(1, 700),
                    };
                    let ramp_ms = if rng.range(0, 2) == 0 { 0 } else { rng.range(1, 400) };
                    let class = match rng.range(0, 4) {
                        0 => TrunkFaultClass::Loss,
                        _ => TrunkFaultClass::Partition,
                    };
                    let level = [0.0, 0.3, 1.0, 1.0][rng.range(0, 4) as usize];
                    let w = TrunkWindow { at_ms, duration_ms, class, level, ramp_ms };
                    prev_end = w.end_ms();
                    windows.push(w);
                }
            }
        }
        plans
    }

    /// The agenda against the sampled all-pairs scan it replaced: same
    /// heal edges in the same order, same inbox contents at every
    /// barrier.
    #[test]
    fn heal_agenda_matches_the_sampled_scan() {
        const BARRIERS: u64 = 80;
        let horizon_ms = BARRIERS * EPOCH;
        let mut edges_seen = 0;
        for (shards, cases) in [(2, 400), (5, 100), (64, 3)] {
            for case in 0..cases {
                let mut rng = SimRng::derive(0xA6E7DA, (shards as u64) << 32 | case);
                let plans = random_plans(shards, &mut rng, horizon_ms);
                let edges = sampled_heals(shards, &plans, BARRIERS);
                edges_seen += edges.len();

                let mut fabric = told(TrunkFabric::with_plans(shards, 1, plans));
                let due: Vec<_> =
                    fabric.heals.iter().copied().filter(|&(ms, ..)| ms <= horizon_ms).collect();
                assert_eq!(due, edges, "agenda differs: {shards} shards, case {case}");

                let mut dir = HlrDirectory::new(&[(0, 1)]);
                for k in 1..=BARRIERS {
                    fabric.seal(k * EPOCH, &mut dir);
                    assert_books_balance(&fabric, "seal");
                    // Each edge of this barrier, in scan order, told `a` then `b`.
                    let mut expected = vec![Vec::new(); shards];
                    for &(_, a, b) in edges.iter().filter(|&&(ms, ..)| ms == k * EPOCH) {
                        expected[a].push((b, b));
                        expected[b].push((a, a));
                    }
                    for (shard, expected) in expected.iter().enumerate() {
                        let got: Vec<(usize, usize)> = fabric
                            .take_inbox(shard)
                            .into_iter()
                            .map(|(from, flit)| match flit {
                                Flit::TrunkHeal { peer } => (from, peer),
                                other => panic!("unexpected {other:?}"),
                            })
                            .collect();
                        assert_eq!(&got, expected, "{shards} shards, case {case}, barrier {k}, inbox {shard}");
                    }
                }
                assert_eq!(fabric.stats().counter("trunk.heals"), edges.len() as u64);
            }
        }
        assert!(edges_seen > 1_000, "the generator barely produced heals: {edges_seen}");
    }

    /// `in_flight` is bookkeeping now, not a sum: walk a fabric through
    /// full chaos — posts, seals, partial inbox drains — and after every
    /// single call compare it (and the live-channel index) with the
    /// recount over every inbox and channel.
    #[test]
    fn in_flight_matches_the_recount_through_a_chaos_walk() {
        const SHARDS: usize = 5;
        for seed in [3, 42] {
            let mut fabric = TrunkFabric::new(SHARDS, seed, &TrunkPlanConfig::all(4.0), 30);
            let mut dir = HlrDirectory::new(&[(0, 8), (8, 8), (16, 8), (24, 8), (32, 8)]);
            let mut rng = SimRng::derive(seed, 0xB00C);
            let mut peak = 0;
            for k in 1..=900u64 {
                if k <= 520 {
                    for from in 0..SHARDS {
                        let batch: Vec<Envelope> = (0..rng.range(0, 4))
                            .map(|_| {
                                let to = (from + 1 + rng.range(0, SHARDS as u64 - 1) as usize) % SHARDS;
                                arrive(to, rng.range(0, 40) as usize)
                            })
                            .collect();
                        fabric.post(from, batch, &mut dir);
                        assert_books_balance(&fabric, "post");
                    }
                }
                fabric.seal(k * EPOCH, &mut dir);
                assert_books_balance(&fabric, "seal");
                peak = peak.max(fabric.in_flight());
                for shard in 0..SHARDS {
                    // Past the traffic, drain everything so the walk ends empty.
                    if k > 520 || rng.range(0, 3) > 0 {
                        fabric.take_inbox(shard);
                        assert_books_balance(&fabric, "take_inbox");
                    }
                }
            }
            assert!(peak > 20, "the walk never loaded the fabric (peak {peak})");
            for name in ["trunk.retransmits", "trunk.dup_drops", "trunk.expired", "trunk.heals"] {
                assert!(fabric.stats().counter(name) > 0, "{name} never fired at seed {seed}");
            }
            assert_eq!(fabric.in_flight(), 0, "the walk must end drained");
            assert!(fabric.live.is_empty());
        }
    }
}
