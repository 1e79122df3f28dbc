//! The population workloads.
//!
//! Every workload is a `LoadConfig` for the wheel kernel on one thread
//! with a 60 s observation window; fields not named here are
//! `LoadConfig::default()`. The `why` lines are the ones `BENCHMARK.json`
//! carries.
//!
//! There is no two-thread workload: on this 2-CPU host the same world on
//! two threads showed a 27 % run-to-run spread in `run_s` and a
//! three-mode peak RSS (82 / 112 / 144 MB, one allocator arena more or
//! less), which no bound of at most 25 % can gate. The per-layer pass
//! runs every workload's world at both thread counts instead and reports
//! `load.engine.thread_speedup` and `load.engine.pool_overhead_s`.

use vgprs_load::{LoadConfig, TrunkPlanConfig};
use vgprs_sim::Kernel;

/// One benchmark workload: a named simulated world.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub subscribers: usize,
    /// `0` lets the engine derive one shard per 256 subscribers.
    pub shards: usize,
    pub cross_shard_fraction: f64,
    pub calls_per_sub_hour: f64,
    /// How long each call's voice is sampled. Must stay under 2 500 ms:
    /// the load driver's liveness probe fires 5.5 s after the dial, and a
    /// call it abandons keeps only the mute scheduled before that point
    /// (3 s grace + this), so a longer sample leaves abandoned calls
    /// talking until the engine's drain cap (`load.drain_capped` > 0).
    pub voice_sample_ms: u64,
    /// Non-vacuity floor on voice frames sent per connected leg.
    pub min_frames_per_leg: u64,
    /// Arms the trunk fabric with every fault class at intensity 1.0.
    pub trunk_chaos: bool,
}

/// `--quick` divides every population by this.
pub const QUICK_DIVISOR: usize = 8;

pub const ALL: [Workload; 4] = [
    Workload {
        name: "busy_hour",
        why: "canonical 16384 subscribers in 64 shards: epoch simulation dominates, trunk fabric disarmed; the bypass workload for trunk and paging changes",
        subscribers: 16_384,
        shards: 0,
        cross_shard_fraction: 0.1,
        calls_per_sub_hour: 4.0,
        voice_sample_ms: 1_000,
        min_frames_per_leg: 0,
        trunk_chaos: false,
    },
    Workload {
        name: "dense_paging",
        why: "8192 subscribers in one shard: every page fans out to each camped handset, so paging events and a deep wheel dominate",
        subscribers: 8_192,
        shards: 1,
        cross_shard_fraction: 0.1,
        calls_per_sub_hour: 4.0,
        voice_sample_ms: 1_000,
        min_frames_per_leg: 0,
        trunk_chaos: false,
    },
    Workload {
        name: "voice_media",
        why: "6144 subscribers at 16 calls/h with 2.4 s of sampled voice per call: 20 ms RTP frames through BTS, VMSC, SGSN, GGSN and the codecs are most of the events",
        subscribers: 6_144,
        shards: 0,
        cross_shard_fraction: 0.1,
        calls_per_sub_hour: 16.0,
        voice_sample_ms: 2_400,
        min_frames_per_leg: 100,
        trunk_chaos: false,
    },
    Workload {
        name: "trunk_chaos",
        why: "8192 subscribers in 64 shards with the trunk fabric armed at full chaos: seal and the per-epoch mailbox poll dominate instead of the shards",
        subscribers: 8_192,
        shards: 64,
        cross_shard_fraction: 0.35,
        calls_per_sub_hour: 4.0,
        voice_sample_ms: 1_000,
        min_frames_per_leg: 0,
        trunk_chaos: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// Population size, divided down under `--quick`.
    pub fn population(&self, quick: bool) -> usize {
        if quick {
            self.subscribers / QUICK_DIVISOR
        } else {
            self.subscribers
        }
    }

    /// The simulated input: everything the program receives.
    pub fn config(&self, seed: u64, quick: bool) -> LoadConfig {
        let mut cfg = LoadConfig {
            subscribers: self.population(quick),
            shards: self.shards,
            threads: 1,
            seed,
            voice_sample_ms: self.voice_sample_ms,
            kernel: Kernel::Wheel,
            ..LoadConfig::default()
        };
        cfg.population.window_secs = 60;
        cfg.population.cross_shard_fraction = self.cross_shard_fraction;
        cfg.population.calls_per_sub_hour = self.calls_per_sub_hour;
        if self.trunk_chaos {
            cfg.trunk = TrunkPlanConfig::all(1.0);
        }
        cfg
    }
}
