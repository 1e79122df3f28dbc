//! The sharded driver.
//!
//! The population is partitioned into a fixed number of shards — a pure
//! function of the configuration, never of the machine — and every
//! shard advances through the busy hour in **epoch lockstep**: each
//! epoch that runs, every shard simulates the same window, and an epoch
//! barrier exchanges cross-shard traffic through the [`TrunkFabric`].
//! An epoch in which no shard has work and nothing is in flight is not
//! run at all: the engine jumps to the next one that has work (see
//! `lockstep`), and each shard catches its clock up when it next runs,
//! so the jump reaches no output. Barrier routing iterates shards in
//! index order and delivery happens at epoch boundaries, so the
//! interleaving of inter-shard messages — handoff dialogue, trunk voice,
//! HLR ownership moves — is a function of the configuration and seed
//! alone. Reports are merged in shard order.
//!
//! One crew of workers runs the whole run, started once per run and
//! stepped in rounds. Round 0 is the build: before epoch 0 no shard can
//! send another anything, so the workers take shard indices from one
//! counter and the fleet is put back in index order, so which core
//! built a shard cannot reach it. Round `k + 1` is epoch `k`, and rounds
//! jump as the epochs do. Within an
//! epoch no shard can reach another either, because the barrier
//! delivers a flit posted in epoch `k` at the start of epoch `k + 1`:
//! the barrier is conservative lookahead with a horizon of exactly one
//! epoch, so running one epoch's shards on several cores is exact. Each
//! worker keeps one contiguous block of shards for the whole run, so a
//! shard's cache lines and malloc arena stay on one core. The caller
//! runs its own block, takes over any block whose worker has not
//! started it, waits for the rest and then holds the barrier alone:
//! outboxes posted in ascending shard order, seal, inboxes handed out.
//! A pool that spawned and joined threads at each of `busy_hour`'s
//! 13 868 barriers ran it 2.3× slower (ROADMAP, "Threads pay or go");
//! the crew's workers wait for the next round on one atomic word.

use std::cell::Cell;
use std::hint::spin_loop;
use std::num::NonZeroUsize;
use std::ops::{Deref, DerefMut, Range};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::thread::{self, ScopedJoinHandle};
use std::time::Instant;

use vgprs_core::OverloadControls;
use vgprs_faults::{FaultPlanConfig, TrunkPlanConfig};
use vgprs_scenario::{compile_demand, ScenarioConfig};
use vgprs_sim::Kernel;

use crate::mailbox::{Envelope, Flit, HlrDirectory, EPOCH_MS};
use crate::population::{subscriber_plan_demand, PopulationConfig, SubscriberPlan};
use crate::report::LoadReport;
use crate::shard::{Registration, Shard, ShardConfig, ShardReport};
use crate::trunk::TrunkFabric;

/// Target shard size when the caller lets the engine pick: small enough
/// that one cell's 64 traffic channels see realistic contention, large
/// enough that per-shard fixed cost (two serving areas) amortizes.
const DEFAULT_SHARD_SUBSCRIBERS: usize = 256;

/// A complete load-run configuration.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Total population size.
    pub subscribers: usize,
    /// Shard count; `0` derives one shard per ~256 subscribers.
    /// Changing this changes the simulated world (it is part of the
    /// experiment).
    pub shards: usize,
    /// Accepted and ignored: the run takes every core the host offers,
    /// whatever this says. The field stays because `benchmark/`
    /// constructs it.
    pub threads: usize,
    /// Master seed; every random stream in the run derives from it.
    pub seed: u64,
    /// Population behavior (rates, holds, mix, mobility).
    pub population: PopulationConfig,
    /// Traffic channels per cell.
    pub tch_capacity: usize,
    /// Shared PDCH capacity per cell, bits/second.
    pub pdch_bps: u64,
    /// Gatekeeper admission budget per serving area.
    pub gk_bandwidth: u32,
    /// How long each call's voice is actually sampled; see
    /// [`ShardConfig::voice_sample_ms`].
    pub voice_sample_ms: u64,
    /// Event kernel every shard network runs on. The timer wheel is the
    /// default and the faster of the two on every measured workload
    /// (EXPERIMENTS "Compact kernel"); the binary heap is the
    /// differential oracle and nothing else
    /// (`crates/load/tests/determinism.rs` runs every family on both,
    /// and fingerprints are identical on both).
    pub kernel: Kernel,
    /// Deterministic fault-injection schedule. The all-off default
    /// compiles to empty plans, and the run is byte-identical to one
    /// without the fault machinery.
    pub faults: FaultPlanConfig,
    /// Deterministic inter-shard trunk chaos (loss, duplication,
    /// reordering, partitions). The all-off default leaves the trunk
    /// fabric disarmed — a bare mailbox — so the run is byte-identical
    /// to one without the reliable-delivery machinery.
    pub trunk: TrunkPlanConfig,
    /// Demand scenario: at most one flash-crowd shock, compiled per
    /// shard into time-varying arrival plans. The
    /// flat default compiles to empty plans and the run is
    /// byte-identical to one without the scenario machinery.
    pub scenario: ScenarioConfig,
    /// Overload controls (paging throttle, gatekeeper ARJ shedding,
    /// SGSN PDP admission control). All-off by default, which keeps
    /// every node on its historical code path.
    pub controls: OverloadControls,
    /// KPI snapshot cadence in simulated seconds (default 60); `0`
    /// turns time-series sampling off. Sampling is read-only, so the
    /// run's events and fingerprint are identical either way.
    pub snapshot_secs: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            subscribers: 1024,
            shards: 0,
            threads: 0,
            seed: 42,
            population: PopulationConfig::default(),
            tch_capacity: 64,
            pdch_bps: 1_600_000,
            gk_bandwidth: 100_000_000,
            voice_sample_ms: 1_000,
            kernel: Kernel::default(),
            faults: FaultPlanConfig::default(),
            trunk: TrunkPlanConfig::default(),
            scenario: ScenarioConfig::default(),
            controls: OverloadControls::default(),
            snapshot_secs: 60,
        }
    }
}

impl LoadConfig {
    /// The configuration of shard `index` of `parts`, the slices
    /// [`partition`] cuts the population into.
    pub fn shard_config(&self, index: usize, parts: &[(usize, usize)]) -> ShardConfig {
        let (base_index, subscribers) = parts[index];
        ShardConfig {
            shard_index: index,
            base_index,
            subscribers,
            total_shards: parts.len(),
            master_seed: self.seed,
            population: self.population.clone(),
            tch_capacity: self.tch_capacity,
            pdch_bps: self.pdch_bps,
            gk_bandwidth: self.gk_bandwidth,
            voice_sample_ms: self.voice_sample_ms,
            kernel: self.kernel,
            faults: self.faults,
            scenario: self.scenario.clone(),
            controls: self.controls,
            snapshot_secs: self.snapshot_secs,
        }
    }

    /// The shard count this configuration resolves to.
    pub fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards.min(self.subscribers.max(1))
        } else {
            self.subscribers.div_ceil(DEFAULT_SHARD_SUBSCRIBERS).max(1)
        }
    }
}

/// Partitions `subscribers` into `shards` near-equal contiguous slices
/// and returns each shard's `(base_index, size)`.
pub fn partition(subscribers: usize, shards: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(shards);
    let base_size = subscribers / shards;
    let remainder = subscribers % shards;
    let mut base = 0;
    for s in 0..shards {
        let size = base_size + usize::from(s < remainder);
        out.push((base, size));
        base += size;
    }
    out
}

/// Runs the configured busy hour and returns the merged report.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    run_load_with(cfg, cores, Registration::Provision, |_| {})
}

/// [`run_load`] on `workers` threads (the caller's included; capped at
/// the shard count), every shard registered as `registration` says and
/// then handed to a hook before its first epoch. Tests use the first to
/// hold results to any worker count whatever the host has, and the
/// other two to put the shards on an oracle model (the registration
/// ladder, [`Shard::set_media_cut_through`]); none is a configuration
/// surface.
#[doc(hidden)]
pub fn run_load_with(
    cfg: &LoadConfig,
    workers: usize,
    registration: Registration,
    prepare: impl Fn(&mut Shard) + Sync,
) -> LoadReport {
    let shards = cfg.effective_shards();
    let parts = partition(cfg.subscribers, shards);
    let started = Instant::now();
    let mut fabric = TrunkFabric::new(shards, cfg.seed, &cfg.trunk, cfg.population.window_secs);
    let mut directory = HlrDirectory::new(&parts);

    // Round 0 builds every shard's world and registers its population,
    // the workers taking indices from one counter; round k + 1 runs
    // epoch k on each worker's block. Relaxed: the counter only hands
    // out indices, and each shard reaches the caller through the pool.
    let next = AtomicUsize::new(0);
    let pool = Mutex::new(Vec::with_capacity(shards));
    let salt = vgprs_sim::salt();
    let lanes = partition(shards, workers.clamp(1, shards))
        .into_iter()
        .map(Lane::new)
        .collect();
    // Helpers inherit the caller's table salt: a table built under one
    // hash and probed under another would lose its keys.
    let init = || vgprs_sim::set_salt(salt);
    let work = |lane: &mut Lane, round: u64| match round {
        0 => loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= shards {
                break;
            }
            let shard = build_shard(cfg, &parts, index, registration, &prepare);
            pool.lock()
                .expect("a builder panicked")
                .push((index, shard));
        },
        _ => lane.run_epoch(round - 1),
    };
    let fleet = with_crew(lanes, init, work, |crew| {
        let mut lanes = crew.round(0);
        deal(
            &mut lanes,
            std::mem::take(&mut *pool.lock().expect("a builder panicked")),
        );
        lockstep(crew, lanes, &mut fabric, &mut directory)
    });
    let wall = started.elapsed();

    // Seal shards in index order and merge, on the caller.
    let mut reports: Vec<ShardReport> = fleet.into_iter().map(Shard::finish).collect();
    reports[0]
        .stats
        .count_by("load.hlr_relocations", directory.relocations());
    // Transport KPIs exist only when the fabric was armed; a disarmed
    // run must not even *create* the counters, or its fingerprint would
    // drift from the fault-free baseline.
    if fabric.armed() {
        reports[0].stats.merge(fabric.stats());
    }
    // One thread, whatever `cfg.threads` says.
    LoadReport::merge(cfg.subscribers, 1, cfg.snapshot_secs, &reports, wall)
}

/// Epoch lockstep on the crew, from the lanes round 0 dealt until no
/// shard is busy. Every epoch that runs, every shard simulates the same
/// window, then the barrier routes cross-shard flits (sent epoch k,
/// delivered epoch k+1) and the HLR directory tracks ownership. The
/// trunk fabric is the barrier's delivery layer: a bare mailbox when the
/// trunk plan is empty, the reliable sequenced protocol (retransmits,
/// dedup, in-order release) under trunk chaos. Returns the fleet in
/// index order.
///
/// After a barrier that leaves nothing in flight, the epochs before the
/// first one a shard has work in would run no event, carry no flit and
/// seal nothing: they are skipped, up to the epoch cap and never past
/// the next trunk heal, and their last barrier is sealed once, so the
/// fabric's clock reads what it would have. A shard catches its own
/// clock up on its next epoch, and after the last.
fn lockstep<'a, W: Fn(&mut Lane, u64)>(
    crew: &Crew<'a, '_, Lane, W>,
    mut lanes: Vec<MutexGuard<'a, Block<Lane>>>,
    fabric: &mut TrunkFabric,
    directory: &mut HlrDirectory,
) -> Vec<Shard> {
    let mut epoch: u64 = 0;
    loop {
        let cap = lanes.iter().map(|lane| lane.cap).max().unwrap_or(0);
        if fabric.in_flight() == 0 {
            let Some(work) = lanes.iter().filter_map(|lane| lane.due).min() else {
                break; // Done.
            };
            let next = work.min(cap + 1).min(fabric.next_heal_ms() / EPOCH_MS);
            if next > epoch {
                fabric.seal(next * EPOCH_MS, directory);
                epoch = next;
            }
        }
        if epoch > cap {
            // The runaway backstop tripped: the shards still busy count
            // `load.drain_capped` on finish.
            break;
        }
        for lane in &mut lanes {
            lane.take_inboxes(fabric);
        }
        drop(lanes);
        lanes = crew.round(epoch + 1);
        // Inboxes were taken before the round, so a flit posted in epoch
        // k is delivered in epoch k+1 whichever shard sent it. Disarmed,
        // the fabric observes the HLR directory at post time (the
        // historical behavior); armed, ownership is observed at
        // *delivery*, when an Arrive/Depart actually survives the trunk.
        for lane in &mut lanes {
            for (index, outbox) in lane.outboxes.drain(..) {
                fabric.post(index, outbox, directory);
            }
        }
        fabric.seal((epoch + 1) * EPOCH_MS, directory);
        epoch += 1;
    }
    let mut fleet: Vec<Shard> = lanes
        .iter_mut()
        .flat_map(|lane| lane.shards.drain(..))
        .collect();
    for shard in &mut fleet {
        shard.catch_up(epoch);
    }
    fleet
}

/// Builds shard `index` of `parts`, registered as `registration` says,
/// and applies `prepare` to it.
fn build_shard(
    cfg: &LoadConfig,
    parts: &[(usize, usize)],
    index: usize,
    registration: Registration,
    prepare: &impl Fn(&mut Shard),
) -> Shard {
    let (base, size) = parts[index];
    let shard_cfg = cfg.shard_config(index, parts);
    let demand = compile_demand(&cfg.scenario, cfg.seed, index, cfg.population.window_secs);
    let plans: Vec<SubscriberPlan> = (0..size)
        .map(|i| subscriber_plan_demand(&cfg.population, &demand, cfg.seed, base + i))
        .collect();
    let mut shard = Shard::build(&shard_cfg, &plans, registration);
    prepare(&mut shard);
    shard
}

/// One worker's contiguous block of the fleet, and what it tells the
/// barrier: the caller reads one tally per lane, not one per shard.
struct Lane {
    /// Fleet indices of the lane's shards.
    span: Range<usize>,
    shards: Vec<Shard>,
    /// Each shard's inbox for the next epoch, by position in the lane.
    inboxes: Vec<Vec<(usize, Flit)>>,
    /// The last epoch's non-empty outboxes, by fleet index, ascending.
    outboxes: Vec<(usize, Vec<Envelope>)>,
    /// After the last round: the first epoch a shard of the lane has
    /// work in (`None` when none is busy), and the largest epoch hint.
    due: Option<u64>,
    cap: u64,
}

impl Lane {
    fn new((first, len): (usize, usize)) -> Self {
        Lane {
            span: first..first + len,
            shards: Vec::with_capacity(len),
            inboxes: (0..len).map(|_| Vec::new()).collect(),
            outboxes: Vec::new(),
            due: None,
            cap: 0,
        }
    }

    /// Hands each shard of the lane its inbox from the fabric.
    fn take_inboxes(&mut self, fabric: &mut TrunkFabric) {
        for (slot, index) in self.inboxes.iter_mut().zip(self.span.clone()) {
            let inbox = fabric.take_inbox(index);
            if !inbox.is_empty() {
                *slot = inbox;
            }
        }
    }

    /// Runs epoch `epoch` on every shard of the lane, in index order,
    /// and tallies it.
    fn run_epoch(&mut self, epoch: u64) {
        for ((index, shard), inbox) in self
            .span
            .clone()
            .zip(&mut self.shards)
            .zip(&mut self.inboxes)
        {
            let outbox = shard.run_epoch(epoch, std::mem::take(inbox));
            if !outbox.is_empty() {
                self.outboxes.push((index, outbox));
            }
        }
        self.tally(epoch + 1);
    }

    /// Reads the lane's next busy epoch from `from` on and its cap. A
    /// shard with work in `from` ends the search: nothing comes sooner.
    fn tally(&mut self, from: u64) {
        self.cap = self
            .shards
            .iter()
            .map(Shard::max_epoch_hint)
            .max()
            .unwrap_or(0);
        self.due = None;
        for shard in &mut self.shards {
            if let Some(at) = shard.next_busy_epoch(from) {
                self.due = Some(self.due.map_or(at, |due| due.min(at)));
                if at == from {
                    break;
                }
            }
        }
    }
}

/// Puts the built shards in index order and deals each lane its block.
/// A shard is a pure function of its index, so which worker built it
/// cannot reach it.
fn deal(lanes: &mut [MutexGuard<'_, Block<Lane>>], mut built: Vec<(usize, Shard)>) {
    built.sort_unstable_by_key(|&(index, _)| index);
    let mut fleet = built.into_iter().map(|(_, shard)| shard);
    for lane in lanes {
        let len = lane.span.len();
        lane.shards.extend(fleet.by_ref().take(len));
        lane.tally(0);
    }
}

/// The value of the round word that stops the crew.
const STOP: u64 = u64::MAX;
/// How many times a waiting thread spins before it starts yielding.
const SPINS: u32 = 1 << 10;

/// One item of a [`Crew`] and the next round it is due to run. Aligned
/// to its own cache lines, so two workers never write one line.
#[repr(align(128))]
struct Block<T> {
    item: T,
    next: u64,
}

impl<T> Block<T> {
    /// Runs round `round` unless the block has run it already. Rounds
    /// may jump ahead, never back.
    fn run(&mut self, round: u64, work: &impl Fn(&mut T, u64)) {
        if round >= self.next {
            work(&mut self.item, round);
            self.next = round + 1;
        }
    }
}

impl<T> Deref for Block<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.item
    }
}

impl<T> DerefMut for Block<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.item
    }
}

/// The caller's handle on workers that live as long as the run: block
/// 0 is the caller's own, block `h` helper `h`'s. Dropping it (a panic
/// on the caller included) stops the helpers, so the scope can join.
struct Crew<'a, 's, T, W> {
    blocks: &'a [Mutex<Block<T>>],
    /// The round published last, or [`STOP`]. Stored with `Release` and
    /// loaded with `Acquire`, so a helper that sees a round sees what the
    /// caller wrote before publishing it; the items themselves pass
    /// between threads through their blocks' locks.
    word: &'a AtomicU64,
    work: &'a W,
    helpers: Cell<Vec<ScopedJoinHandle<'s, ()>>>,
}

/// Starts one helper thread per item past the first, each running
/// `init` and then `work` on its item in every round, and hands the
/// caller a [`Crew`] that steps them. Round 0 starts with the crew;
/// `lead` publishes each later one. A helper's panic resumes on the
/// caller with its own payload.
fn with_crew<T: Send, W: Fn(&mut T, u64) + Sync, R>(
    items: Vec<T>,
    init: impl Fn() + Sync,
    work: W,
    lead: impl FnOnce(&Crew<'_, '_, T, W>) -> R,
) -> R {
    let blocks: Vec<_> = items
        .into_iter()
        .map(|item| Mutex::new(Block { item, next: 0 }))
        .collect();
    let word = AtomicU64::new(0);
    let (init, word, work) = (&init, &word, &work);
    thread::scope(|scope| {
        let helpers = blocks[1..]
            .iter()
            .map(|block| {
                scope.spawn(move || {
                    init();
                    help(block, word, work);
                })
            })
            .collect();
        let crew = Crew {
            blocks: &blocks,
            word,
            work,
            helpers: Cell::new(helpers),
        };
        let out = lead(&crew);
        crew.stop();
        out
    })
}

/// A helper's life: run its block in each round it sees, then wait for
/// the next, until the word says stop. The caller may have taken the
/// block over, and then the helper finds it locked or already run. A
/// poisoned block means the caller panicked in it and is about to stop
/// the crew.
fn help<T>(block: &Mutex<Block<T>>, word: &AtomicU64, work: &impl Fn(&mut T, u64)) {
    let mut round = 0;
    loop {
        if let Ok(mut held) = block.try_lock() {
            held.run(round, work);
        }
        let mut spins = 0;
        loop {
            match word.load(Ordering::Acquire) {
                STOP => return,
                next if next != round => {
                    round = next;
                    break;
                }
                _ => snooze(&mut spins),
            }
        }
    }
}

/// Spins a while, then yields: how a helper waits for a round and the
/// caller for a block.
fn snooze(spins: &mut u32) {
    if *spins < SPINS {
        *spins += 1;
        spin_loop();
    } else {
        thread::yield_now();
    }
}

impl<'a, T, W: Fn(&mut T, u64)> Crew<'a, '_, T, W> {
    /// Runs round `round` on every block and returns them all locked, in
    /// order. The caller runs its own block first, then every helper
    /// block not yet started, then waits for the ones running.
    fn round(&self, round: u64) -> Vec<MutexGuard<'a, Block<T>>> {
        if round > 0 {
            self.word.store(round, Ordering::Release);
        }
        let held: Vec<_> = self
            .blocks
            .iter()
            .map(|block| self.try_run(block, round))
            .collect();
        held.into_iter()
            .zip(self.blocks)
            .map(|(held, block)| {
                held.unwrap_or_else(|| {
                    let mut spins = 0;
                    loop {
                        if let Some(held) = self.try_run(block, round) {
                            return held;
                        }
                        snooze(&mut spins);
                    }
                })
            })
            .collect()
    }

    /// Locks `block` and runs `round` on it unless its helper has, or
    /// returns `None` while its helper holds it.
    fn try_run(&self, block: &'a Mutex<Block<T>>, round: u64) -> Option<MutexGuard<'a, Block<T>>> {
        match block.try_lock() {
            Ok(mut held) => {
                held.run(round, self.work);
                Some(held)
            }
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(_)) => {
                self.stop();
                panic!("a crew block was poisoned by a panic no helper raised");
            }
        }
    }

    /// Stops the helpers and joins them; the first helper that panicked
    /// resumes its panic here.
    fn stop(&self) {
        self.word.store(STOP, Ordering::Release);
        for helper in self.helpers.take() {
            if let Err(panic) = helper.join() {
                resume_unwind(panic);
            }
        }
    }
}

impl<T, W> Drop for Crew<'_, '_, T, W> {
    fn drop(&mut self) {
        self.word.store(STOP, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn partition_covers_everything_contiguously() {
        for (subs, shards) in [(10, 3), (7, 7), (100, 8), (5, 1)] {
            let parts = partition(subs, shards);
            assert_eq!(parts.len(), shards);
            let mut expected_base = 0;
            for (base, size) in &parts {
                assert_eq!(*base, expected_base);
                expected_base += size;
            }
            assert_eq!(expected_base, subs);
            let sizes: Vec<usize> = parts.iter().map(|p| p.1).collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1, "near-equal slices: {sizes:?}");
        }
    }

    #[test]
    fn shard_count_is_machine_independent() {
        let cfg = LoadConfig {
            subscribers: 10_000,
            ..LoadConfig::default()
        };
        assert_eq!(cfg.effective_shards(), 40);
        let pinned = LoadConfig {
            shards: 3,
            ..cfg.clone()
        };
        assert_eq!(pinned.effective_shards(), 3);
    }

    // ---- the crew, on toy items ----

    /// A toy item: the rounds it ran and the thread that ran each.
    #[derive(Default)]
    struct Toy {
        rounds: Vec<u64>,
        threads: Vec<thread::ThreadId>,
    }

    fn record(toy: &mut Toy, round: u64) {
        toy.rounds.push(round);
        toy.threads.push(thread::current().id());
    }

    fn toys(n: usize) -> Vec<Toy> {
        (0..n).map(|_| Toy::default()).collect()
    }

    /// The message `run` panicked with.
    fn panic_message(run: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the crew must fail");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .expect("a text payload")
                .to_string(),
        }
    }

    #[test]
    fn every_item_runs_once_per_round() {
        let logs = with_crew(
            toys(4),
            || {},
            record,
            |crew| {
                for round in 0..200 {
                    for item in crew.round(round) {
                        assert_eq!(item.rounds.last(), Some(&round));
                    }
                }
                crew.round(200)
                    .iter()
                    .map(|item| item.rounds.clone())
                    .collect::<Vec<_>>()
            },
        );
        for rounds in logs {
            assert_eq!(rounds, (0..=200).collect::<Vec<_>>());
        }
    }

    /// The helper is held in its start-up until round 0 is over, so the
    /// caller must have run its block.
    #[test]
    fn the_caller_runs_a_held_helpers_block() {
        let gate = Barrier::new(2);
        let caller = thread::current().id();
        let init = || {
            gate.wait();
        };
        let rounds = with_crew(toys(2), init, record, |crew| {
            assert_eq!(crew.round(0)[1].threads, [caller]);
            gate.wait();
            (1..50)
                .map(|round| crew.round(round)[1].rounds.len())
                .last()
        });
        assert_eq!(rounds, Some(50));
    }

    /// Rounds may jump: each block runs each published round once, in
    /// order. The helper is held in its start-up through the jump to 9,
    /// so the caller runs its block there.
    #[test]
    fn rounds_may_jump() {
        const ROUNDS: [u64; 6] = [0, 1, 2, 9, 10, 57];
        let gate = Barrier::new(2);
        let caller = thread::current().id();
        let init = || {
            gate.wait();
        };
        let logs = with_crew(toys(2), init, record, |crew| {
            for &round in &ROUNDS[..4] {
                crew.round(round);
            }
            gate.wait();
            crew.round(ROUNDS[4]);
            crew.round(ROUNDS[5])
                .iter()
                .map(|item| (item.rounds.clone(), item.threads.clone()))
                .collect::<Vec<_>>()
        });
        for (rounds, _) in &logs {
            assert_eq!(rounds[..], ROUNDS);
        }
        assert_eq!(logs[1].1[..4], [caller; 4]);
    }

    /// A run the epoch cap cuts short while its shard idles skips to
    /// the cap, and the shard still ends there: clock, snapshot frames
    /// and report are those of running every epoch by hand.
    #[test]
    fn a_run_cut_at_the_cap_ends_on_the_cap() {
        let cfg = LoadConfig {
            subscribers: 16,
            shards: 1,
            snapshot_secs: 7,
            population: PopulationConfig {
                window_secs: 30,
                ..PopulationConfig::default()
            },
            ..LoadConfig::default()
        };
        let park = |shard: &mut Shard| shard.park_beyond_the_cap();
        let skipped = run_load_with(&cfg, 1, Registration::Provision, park);

        let parts = partition(cfg.subscribers, 1);
        let mut shard = build_shard(&cfg, &parts, 0, Registration::Provision, &park);
        let mut epoch = 0;
        while shard.is_busy() && epoch <= shard.max_epoch_hint() {
            shard.run_epoch(epoch, Vec::new());
            epoch += 1;
        }
        let mut report = shard.finish();
        report.stats.count_by("load.hlr_relocations", 0);
        let every = LoadReport::merge(
            cfg.subscribers,
            1,
            cfg.snapshot_secs,
            &[report],
            Duration::ZERO,
        );

        assert_eq!(skipped.stats.counter("load.drain_capped"), 1);
        assert_eq!(skipped.render_deterministic(), every.render_deterministic());
        assert_eq!(skipped.fingerprint(), every.fingerprint());
        assert_eq!(skipped.snapshots, every.snapshots);
    }

    /// In round 3 the caller's item waits for the helper's, so the helper
    /// surely runs its own block, and it panics there.
    #[test]
    fn a_helpers_panic_surfaces_on_the_caller() {
        let met = Barrier::new(2);
        let work = |item: &mut usize, round: u64| {
            if round == 3 {
                met.wait();
                assert_eq!(*item, 0, "helper failed in round {round}");
            }
        };
        let message = panic_message(|| {
            with_crew(
                vec![0, 1],
                || {},
                work,
                |crew| {
                    for round in 0..10 {
                        crew.round(round);
                    }
                },
            )
        });
        assert!(message.contains("helper failed in round 3"), "{message}");
    }

    /// A panic on the caller, in its own block or between rounds, stops
    /// the crew: the scope joins and the panic keeps its message.
    #[test]
    fn a_callers_panic_stops_the_crew() {
        let work = |item: &mut usize, round: u64| {
            assert!(*item != 0 || round != 2, "caller failed in its block")
        };
        let message = panic_message(|| {
            with_crew(
                vec![0, 1, 2],
                || {},
                work,
                |crew| {
                    for round in 0..10 {
                        crew.round(round);
                    }
                },
            )
        });
        assert_eq!(message, "caller failed in its block");
        let message = panic_message(|| {
            with_crew(
                toys(3),
                || {},
                record,
                |crew| {
                    crew.round(0);
                    crew.round(1);
                    panic!("caller failed between rounds");
                },
            )
        });
        assert_eq!(message, "caller failed between rounds");
    }
}
