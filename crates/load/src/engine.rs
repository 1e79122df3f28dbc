//! The sharded driver.
//!
//! The population is partitioned into a fixed number of shards — a pure
//! function of the configuration, never of the machine — and every
//! shard advances through the busy hour in **epoch lockstep**: each
//! epoch one loop runs the shards in index order, and an epoch barrier
//! exchanges cross-shard traffic through the [`TrunkFabric`]. Barrier
//! routing iterates shards in index order and delivery happens at epoch
//! boundaries, so the interleaving of inter-shard messages — handoff
//! dialogue, trunk voice, HLR ownership moves — is a function of the
//! configuration and seed alone. Reports are merged in shard order.
//!
//! The loop is single-threaded on purpose. A 50 ms epoch is ~47 µs of
//! simulation shared by 64 shards, more than half of them idle, so any
//! per-epoch hand-off to workers costs as much as the work it
//! distributes (two threads ran `busy_hour` 2.3× slower; ROADMAP,
//! "Threads pay or go"). Parallelism comes back together with a
//! benchmark workload that can measure it.

use std::time::Instant;

use vgprs_faults::{FaultPlanConfig, TrunkPlanConfig};
use vgprs_scenario::{compile_demand, OverloadControls, ScenarioConfig};
use vgprs_sim::Kernel;

use crate::mailbox::{HlrDirectory, EPOCH_MS};
use crate::population::{subscriber_plan_demand, PopulationConfig, SubscriberPlan};
use crate::report::LoadReport;
use crate::shard::{Shard, ShardConfig, ShardReport};
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
    /// Accepted and ignored: the engine is one loop on the caller's
    /// thread. The field stays because `benchmark/` constructs it.
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
    /// Demand scenario: a daily-profile rate curve plus flash-crowd
    /// shocks, compiled per shard into time-varying arrival plans. The
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
    run_load_with(cfg, |_| {})
}

/// [`run_load`] with a hook applied to every shard between its build
/// and its first epoch. Differential tests use it to put the shards on
/// an oracle model ([`Shard::set_media_cut_through`]); it is not a
/// configuration surface.
#[doc(hidden)]
pub fn run_load_with(cfg: &LoadConfig, prepare: impl Fn(&mut Shard)) -> LoadReport {
    let shards = cfg.effective_shards();
    let parts = partition(cfg.subscribers, shards);
    let started = Instant::now();

    // Phase 1: build every shard's world and register its population,
    // in index order (shards are independent until their busy hours
    // start).
    let mut fleet: Vec<Shard> = parts
        .iter()
        .enumerate()
        .map(|(index, &(base, size))| {
            let shard_cfg = ShardConfig {
                shard_index: index,
                base_index: base,
                subscribers: size,
                total_shards: shards,
                master_seed: cfg.seed,
                population: cfg.population.clone(),
                tch_capacity: cfg.tch_capacity,
                pdch_bps: cfg.pdch_bps,
                gk_bandwidth: cfg.gk_bandwidth,
                voice_sample_ms: cfg.voice_sample_ms,
                kernel: cfg.kernel,
                faults: cfg.faults,
                scenario: cfg.scenario.clone(),
                controls: cfg.controls,
                snapshot_secs: cfg.snapshot_secs,
            };
            let demand = compile_demand(&cfg.scenario, cfg.seed, index, cfg.population.window_secs);
            let plans: Vec<SubscriberPlan> = (0..size)
                .map(|i| subscriber_plan_demand(&cfg.population, &demand, cfg.seed, base + i))
                .collect();
            let mut shard = Shard::new(&shard_cfg, &plans);
            prepare(&mut shard);
            shard
        })
        .collect();

    // Phase 2: epoch lockstep. Each epoch every shard simulates the
    // same window, then the barrier routes cross-shard flits (sent epoch
    // k, delivered epoch k+1) and the HLR directory tracks ownership.
    // The trunk fabric is the barrier's delivery layer: a bare mailbox
    // when the trunk plan is empty, the reliable sequenced protocol
    // (retransmits, dedup, in-order release) under trunk chaos.
    let mut fabric = TrunkFabric::new(shards, cfg.seed, &cfg.trunk, cfg.population.window_secs);
    let mut directory = HlrDirectory::new(&parts);
    let mut inboxes: Vec<_> = (0..shards).map(|_| Vec::new()).collect();
    let mut epoch: u64 = 0;
    loop {
        let mut busy = fabric.in_flight() > 0;
        let mut cap = 0;
        for (index, shard) in fleet.iter().enumerate() {
            inboxes[index] = fabric.take_inbox(index);
            busy |= shard.is_busy() || !inboxes[index].is_empty();
            cap = cap.max(shard.max_epoch_hint());
        }
        if !busy || epoch > cap {
            // Done — or the runaway backstop tripped, in which case the
            // shards still busy count `load.drain_capped` on finish.
            break;
        }
        // Inboxes were taken above, so a flit posted in epoch k is
        // delivered in epoch k+1 whichever shard sent it. Disarmed, the
        // fabric observes the HLR directory at post time (the
        // historical behavior); armed, ownership is observed at
        // *delivery*, when an Arrive/Depart actually survives the trunk.
        for (index, shard) in fleet.iter_mut().enumerate() {
            let outbox = shard.run_epoch(epoch, std::mem::take(&mut inboxes[index]));
            fabric.post(index, outbox, &mut directory);
        }
        fabric.seal((epoch + 1) * EPOCH_MS, &mut directory);
        epoch += 1;
    }
    let wall = started.elapsed();

    // Phase 3: seal shards in index order and merge.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
