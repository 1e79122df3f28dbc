//! # vgprs-load — population-scale busy-hour traffic for the vGPRS testbed
//!
//! This crate answers the capacity questions the paper's testbed was too
//! small to ask: *how many subscribers can one VMSC deployment carry
//! before call-setup latency, blocking or voice quality degrade?*
//!
//! It is built from three pieces:
//!
//! - [`population`] — a statistical subscriber model: per-subscriber
//!   Poisson call arrivals, exponential holding times, a configurable
//!   MO/MT/mobile-to-mobile mix and idle-mode mobility excursions.
//!   Every subscriber's behavior derives from the master seed and the
//!   subscriber's global index alone, so it is invariant under
//!   re-partitioning.
//! - [`shard`] + [`engine`] + [`mailbox`] — the population is split
//!   across vGPRS serving-area pairs (built with
//!   `vgprs_core::VgprsZone`), one `vgprs_sim::Network` per shard,
//!   advanced in **epoch lockstep** by one loop. Shards exchange
//!   traffic — inter-VMSC handoff dialogue, trunk voice, idle-mode HLR
//!   ownership moves — through a sequenced inter-shard mailbox whose
//!   delivery order depends only on the configuration and seed, so a
//!   run is **bit-identical on every machine and event kernel**.
//! - [`kpi`] + [`report`] — streaming KPIs merged from the shards'
//!   O(buckets) histograms, each declared once as a row of the KPI
//!   table: call-setup delay, paging latency, voice-PDP activation
//!   time, blocking/reject rates, RTP frame delay/loss scored through
//!   the ITU-T G.107 E-model, and events/second.
//!
//! ```no_run
//! use vgprs_load::{run_load, LoadConfig};
//!
//! let report = run_load(&LoadConfig {
//!     subscribers: 100_000,
//!     ..LoadConfig::default()
//! });
//! print!("{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod kpi;
pub mod mailbox;
pub mod population;
pub mod report;
pub mod shard;
pub mod snapshot;
pub mod trunk;

pub use engine::{partition, run_load, run_load_with, LoadConfig};
pub use mailbox::{
    Envelope, ExpiredKind, Flit, HlrDirectory, RadioGate, TrunkGate, BORDER_CELL, EPOCH_MS,
};
pub use population::{
    subscriber_plan, subscriber_plan_demand, Arrival, CallKind, CallMix, Excursion,
    PopulationConfig, SubscriberPlan,
};
pub use report::LoadReport;
pub use shard::{unavailability_counter, Outcome, Registration, Shard, ShardConfig, ShardReport};
pub use snapshot::{SnapshotFrame, SnapshotRecorder, SNAPSHOT_COUNTERS, SNAPSHOT_HISTOGRAMS};
pub use trunk::{retransmit_backoff, TrunkFabric};
// Re-exported so load-engine callers can configure fault plans, demand
// scenarios and overload controls without naming those crates
// themselves.
pub use vgprs_core::OverloadControls;
pub use vgprs_faults::{FaultClass, FaultPlanConfig, TrunkFaultClass, TrunkPlanConfig};
pub use vgprs_scenario::{compile_demand, DemandPlan, FlashCrowd, ScenarioConfig};
