//! # vgprs-faults — deterministic fault plans for the vGPRS testbed
//!
//! The load engine exercises a *perfect* network: links never degrade,
//! nodes never restart, signaling peers always answer. This crate adds the
//! missing failure axis without giving up the repo's core invariant —
//! **bit-identical runs on every machine and event kernel**.
//!
//! The trick is that faults are not injected by a stochastic process racing
//! the simulation; they are *compiled ahead of time* into a [`FaultPlan`]:
//! a sorted list of `(start, duration, kind)` impairment windows derived
//! purely from `(config, master_seed, shard_index)` by [`compile_plan`].
//! The load driver walks the plan exactly like it walks subscriber call
//! schedules — every injection is an ordinary driver action at a fixed
//! simulated time, so the event kernel sees the same totally-ordered event
//! stream on either of `Kernel::{Heap,Wheel}`.
//!
//! Three fault classes cover the failure modes the paper's deployment
//! would meet in the field:
//!
//! * [`FaultClass::LinkDegrade`] — loss, added latency and a bandwidth
//!   clamp on the Gb (VMSC↔SGSN) or Gn (SGSN↔GGSN) link,
//! * [`FaultClass::NodeCrash`] — crash-and-restart with state loss for
//!   SGSN, GGSN, gatekeeper or VMSC, forcing cold-start re-registration,
//! * [`FaultClass::Blackhole`] — the node stays up but silently drops all
//!   signaling (RAS/ISUP requests time out instead of being rejected).
//!
//! Intensity `0.0` compiles to an **empty plan**, which the driver treats
//! as "faults disabled" — the run is then byte-for-byte identical to one
//! that never linked this crate's output at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vgprs_sim::{SimDuration, SimRng};

/// Sub-stream salt for fault-plan derivation, disjoint from the load
/// engine's shard/call/mobility streams.
pub const STREAM_FAULTS: u64 = 0x0FA1_75EE_D0DD_BA11_u64;

/// The three injectable failure classes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FaultClass {
    /// Loss / latency / bandwidth impairment on a backbone link.
    LinkDegrade,
    /// Node crash with state loss, followed by a restart.
    NodeCrash,
    /// Node silently drops all traffic while keeping its state.
    Blackhole,
}

impl FaultClass {
    /// All classes, in a fixed order used for plan compilation and KPIs.
    pub const ALL: [FaultClass; 3] =
        [FaultClass::LinkDegrade, FaultClass::NodeCrash, FaultClass::Blackhole];

    /// Stable lowercase name: a chaos cell's label in `harness chaos`
    /// and `BENCH_chaos.json`, and the suffix of the class's
    /// `resilience.dropped_*` KPI row.
    pub fn key(self) -> &'static str {
        match self {
            FaultClass::LinkDegrade => "link_degrade",
            FaultClass::NodeCrash => "node_crash",
            FaultClass::Blackhole => "blackhole",
        }
    }
}

/// Which backbone link a [`FaultKind::DegradeLink`] impairs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkSel {
    /// VMSC ↔ SGSN (all LLC-tunneled signaling and voice).
    Gb,
    /// SGSN ↔ GGSN (GTP tunnel toward the IP backbone).
    Gn,
}

/// Which network element a crash or blackhole targets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeSel {
    /// Serving GPRS support node: loses MM and PDP contexts.
    Sgsn,
    /// Gateway GPRS support node: loses dynamic PDP records.
    Ggsn,
    /// H.323 gatekeeper: loses registrations and admissions.
    Gatekeeper,
    /// The paper's VMSC: loses every MS entry and active call.
    Vmsc,
}

impl NodeSel {
    const ALL: [NodeSel; 4] = [NodeSel::Sgsn, NodeSel::Ggsn, NodeSel::Gatekeeper, NodeSel::Vmsc];
}

/// A concrete impairment, parameterized by its class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Degrade a backbone link for the window's duration.
    DegradeLink {
        /// Link to impair.
        link: LinkSel,
        /// Extra one-way latency while degraded.
        added_latency: SimDuration,
        /// Loss probability applied to unreliable frames.
        loss: f64,
        /// Clamped bandwidth in bits/s (0 = leave unchanged).
        bandwidth_bps: u64,
    },
    /// Crash the node (state loss); it restarts when the window ends.
    Crash {
        /// Node to crash.
        node: NodeSel,
    },
    /// Blackhole the node (drops everything, keeps state) until the
    /// window ends.
    Blackhole {
        /// Node to silence.
        node: NodeSel,
    },
}

impl FaultKind {
    /// The class this kind belongs to.
    pub fn class(self) -> FaultClass {
        match self {
            FaultKind::DegradeLink { .. } => FaultClass::LinkDegrade,
            FaultKind::Crash { .. } => FaultClass::NodeCrash,
            FaultKind::Blackhole { .. } => FaultClass::Blackhole,
        }
    }
}

/// One scheduled impairment window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Window start, in ms of simulated time after the warm-up origin.
    pub at_ms: u64,
    /// Window length in ms; the driver restores/restarts at `at_ms +
    /// duration_ms`.
    pub duration_ms: u64,
    /// What the window does.
    pub kind: FaultKind,
}

/// Knobs for a plan of windows of class `C`: an intensity and a class
/// filter. `Default` is all-off (zero intensity).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanConfig<C> {
    /// Scales the number of windows, their length and their severity.
    /// `0.0` (or NaN) compiles to an empty plan; `1.0` is the nominal
    /// chaos level.
    pub intensity: f64,
    /// The one class whose windows the plan keeps; `None` keeps every
    /// class.
    pub class: Option<C>,
}

/// Knobs for [`compile_plan`].
pub type FaultPlanConfig = PlanConfig<FaultClass>;

/// Knobs for [`compile_trunk_plan`].
pub type TrunkPlanConfig = PlanConfig<TrunkFaultClass>;

impl<C> Default for PlanConfig<C> {
    fn default() -> Self {
        PlanConfig::all(0.0)
    }
}

impl<C> PlanConfig<C> {
    /// Convenience: every class enabled at the given intensity.
    pub fn all(intensity: f64) -> Self {
        PlanConfig { intensity, class: None }
    }

    /// Convenience: a single class enabled at the given intensity.
    pub fn only(class: C, intensity: f64) -> Self {
        PlanConfig { intensity, class: Some(class) }
    }

    /// True if no window can ever be compiled from this config.
    pub fn is_off(&self) -> bool {
        self.intensity.is_nan() || self.intensity <= 0.0
    }
}

/// A compiled, per-shard fault schedule. Windows are sorted by
/// `(at_ms, duration_ms)` with class order breaking exact ties.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled impairment windows.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// True if the plan schedules nothing (faults disabled).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True if `[from_ms, to_ms]` overlaps any window of `class`.
    pub fn overlaps(&self, class: FaultClass, from_ms: u64, to_ms: u64) -> bool {
        self.events.iter().any(|e| {
            e.kind.class() == class && e.at_ms <= to_ms && from_ms <= e.at_ms + e.duration_ms
        })
    }
}

/// Where the windows of a plan over `window_secs` of busy hour fall:
/// the clamped intensity; the range their starts are drawn from, after
/// the warm-up (5 %) and before a tail (20 %) that leaves every
/// restart's recovery and every partition's heal inside the run; and
/// how many each class gets, about one per 30 s at intensity 1. `None`
/// for a plan that `cfg` or an empty window leaves empty.
fn envelope<C>(cfg: &PlanConfig<C>, window_secs: u64) -> Option<(f64, u64, u64, u64)> {
    if cfg.is_off() || window_secs == 0 {
        return None;
    }
    let intensity = cfg.intensity.clamp(0.0, 4.0);
    let window_ms = window_secs * 1_000;
    let count = ((intensity * window_secs as f64 / 30.0).round() as u64).max(1);
    Some((intensity, window_ms / 20, window_ms * 8 / 10, count))
}

/// Compiles the per-shard fault schedule.
///
/// Pure function of its arguments: the same `(cfg, master_seed,
/// shard_index, window_secs)` always yields the same plan, and plans for
/// different shards are derived from independent RNG sub-streams, so
/// re-partitioning the population does not reshuffle any shard's faults.
pub fn compile_plan(
    cfg: &FaultPlanConfig,
    master_seed: u64,
    shard_index: usize,
    window_secs: u64,
) -> FaultPlan {
    let mut plan = FaultPlan::default();
    let Some((intensity, lo_ms, hi_ms, count)) = envelope(cfg, window_secs) else {
        return plan;
    };
    let mut rng = SimRng::derive(master_seed, STREAM_FAULTS ^ shard_index as u64);

    for class in FaultClass::ALL {
        let enabled = cfg.class.is_none_or(|c| c == class);
        // Draw the class's randomness unconditionally so enabling one
        // class never perturbs another class's schedule.
        for _ in 0..count {
            let at_ms = rng.range(lo_ms, hi_ms.max(lo_ms + 1));
            let duration_ms = 2_000 + (rng.uniform() * intensity * 8_000.0) as u64;
            let kind = match class {
                FaultClass::LinkDegrade => {
                    let link = if rng.chance(0.5) { LinkSel::Gb } else { LinkSel::Gn };
                    FaultKind::DegradeLink {
                        link,
                        added_latency: SimDuration::from_micros(
                            (rng.uniform() * intensity * 200_000.0) as u64,
                        ),
                        loss: (0.05 + 0.25 * intensity * rng.uniform()).min(0.9),
                        bandwidth_bps: 2_000_000,
                    }
                }
                FaultClass::NodeCrash => {
                    let node = NodeSel::ALL[rng.range(0, NodeSel::ALL.len() as u64) as usize];
                    FaultKind::Crash { node }
                }
                FaultClass::Blackhole => {
                    // Blackholes target the signaling path peers: the
                    // gatekeeper (RAS timeouts) or the SGSN (everything
                    // the VMSC tunnels over Gb times out).
                    let node = if rng.chance(0.5) { NodeSel::Gatekeeper } else { NodeSel::Sgsn };
                    FaultKind::Blackhole { node }
                }
            };
            if enabled {
                plan.events.push(FaultEvent { at_ms, duration_ms, kind });
            }
        }
    }

    // Deterministic order for the driver's schedule: class order (the
    // push order above) breaks (at_ms, duration_ms) ties via sort
    // stability.
    plan.events.sort_by_key(|e| (e.at_ms, e.duration_ms));
    plan
}

// ---------------------------------------------------------------------------
// Inter-shard trunk chaos
// ---------------------------------------------------------------------------

/// Sub-stream salt for inter-shard trunk chaos, disjoint from
/// [`STREAM_FAULTS`] and from every load-engine stream.
pub const STREAM_TRUNK: u64 = 0x7B0C_41E5_CAB1_E5A7_u64;

/// Multiplicative mixer for composing trunk sub-stream salts. XOR-ing
/// raw indices together collides (`src=1,dst=2` vs `src=2,dst=1`); a
/// fold through an odd multiplier keeps every `(pair, class, window)`
/// combination on its own RNG stream.
pub fn mix_salt(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The four injectable trunk failure classes. They impair the
/// epoch-barrier mailbox between a *pair* of shards — the inter-VMSC
/// E-interface trunks of the paper's Figure 9 — rather than any link
/// inside a shard.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum TrunkFaultClass {
    /// Envelopes vanish in transit and must be retransmitted.
    Loss,
    /// Envelopes arrive twice; the receiver must suppress the copy.
    Dup,
    /// Envelopes are reshuffled within an epoch; the receiver must
    /// buffer and release in sequence order.
    Reorder,
    /// Full bidirectional partition with trapezoidal onset and heal:
    /// the drop probability ramps 0 → 1, holds, and ramps back down.
    Partition,
}

impl TrunkFaultClass {
    /// All classes, in a fixed order used for plan compilation and KPIs.
    pub const ALL: [TrunkFaultClass; 4] = [
        TrunkFaultClass::Loss,
        TrunkFaultClass::Dup,
        TrunkFaultClass::Reorder,
        TrunkFaultClass::Partition,
    ];

    /// Stable lowercase name: a chaos cell's label in `harness chaos`
    /// and `BENCH_chaos.json`, and what `--trunk-class` accepts (the
    /// `trunk_` prefix optional).
    pub fn key(self) -> &'static str {
        match self {
            TrunkFaultClass::Loss => "trunk_loss",
            TrunkFaultClass::Dup => "trunk_dup",
            TrunkFaultClass::Reorder => "trunk_reorder",
            TrunkFaultClass::Partition => "trunk_partition",
        }
    }
}

/// One scheduled trunk impairment window on a shard pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrunkWindow {
    /// Window start, ms after the busy-hour origin.
    pub at_ms: u64,
    /// Window length in ms.
    pub duration_ms: u64,
    /// What the window does.
    pub class: TrunkFaultClass,
    /// Plateau impairment level: a probability for loss/dup/reorder,
    /// `1.0` (full drop) for partitions.
    pub level: f64,
    /// Trapezoid ramp length: the level climbs from 0 to `level` over
    /// the first `ramp_ms` and descends over the last `ramp_ms`. `0`
    /// means a square window.
    pub ramp_ms: u64,
}

impl TrunkWindow {
    /// First ms past the window. Saturating: the fields are `pub`, and a
    /// window that "never ends" must not overflow.
    pub fn end_ms(&self) -> u64 {
        self.at_ms.saturating_add(self.duration_ms)
    }

    /// Effective level at `t_ms`: trapezoidal interpolation inside the
    /// window, zero outside.
    pub fn level_at(&self, t_ms: u64) -> f64 {
        let end_ms = self.end_ms();
        if t_ms < self.at_ms || t_ms >= end_ms {
            return 0.0;
        }
        if self.ramp_ms == 0 {
            return self.level;
        }
        let into = (t_ms - self.at_ms) as f64;
        let left = (end_ms - t_ms) as f64;
        let ramp = self.ramp_ms as f64;
        self.level * (into / ramp).min(left / ramp).min(1.0)
    }

    /// The half-open ms interval on which [`level_at`](Self::level_at)
    /// is positive, or `None` if it never is. A square window is live
    /// on all of `[at_ms, end_ms)`; a ramped one starts its climb *from*
    /// zero, so `at_ms` itself is excluded. (`level` is a probability:
    /// one so small that `level / ramp_ms` underflows is not modelled.)
    pub fn support_ms(&self) -> Option<(u64, u64)> {
        let start_ms = self.at_ms.saturating_add(u64::from(self.ramp_ms > 0));
        let end_ms = self.end_ms();
        (self.level > 0.0 && start_ms < end_ms).then_some((start_ms, end_ms))
    }
}

/// A compiled trunk chaos schedule for one unordered shard pair.
/// Windows are sorted by `(at_ms, duration_ms)` with class order
/// breaking exact ties.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrunkPlan {
    /// The scheduled impairment windows.
    pub windows: Vec<TrunkWindow>,
}

impl TrunkPlan {
    /// True if the plan schedules nothing (trunk chaos disabled).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Effective level of `class` at `t_ms`: the max across windows, so
    /// overlapping windows never *reduce* an impairment.
    pub fn level_at(&self, class: TrunkFaultClass, t_ms: u64) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.class == class)
            .map(|w| w.level_at(t_ms))
            .fold(0.0, f64::max)
    }
}

/// Compiles the trunk chaos schedule for the unordered shard pair
/// `{a, b}`.
///
/// Pure function of its arguments, and monotone in `intensity` by
/// construction: every window's parameters are drawn from an RNG stream
/// derived from `(pair, class, window_index)` — never from the
/// intensity — so raising the intensity only *adds* windows (the count
/// grows), *lengthens* them and *raises* their levels, leaving every
/// lower-intensity window in place at the same start time. Combined
/// with the transport's stateless per-`(src, dst, seq, attempt)`
/// decision draws, a flit dropped at intensity 0.3 is also dropped at
/// 1.0 — the degradation rows in `BENCH_chaos.json` are monotone by
/// design, not by luck.
pub fn compile_trunk_plan(
    cfg: &TrunkPlanConfig,
    master_seed: u64,
    shard_a: usize,
    shard_b: usize,
    window_secs: u64,
) -> TrunkPlan {
    let mut plan = TrunkPlan::default();
    let Some((intensity, lo_ms, hi_ms, count)) = envelope(cfg, window_secs) else {
        return plan;
    };
    if shard_a == shard_b {
        return plan;
    }
    let (a, b) = if shard_a < shard_b { (shard_a, shard_b) } else { (shard_b, shard_a) };
    let pair_salt = mix_salt(mix_salt(STREAM_TRUNK, a as u64), b as u64);

    for (ci, class) in TrunkFaultClass::ALL.into_iter().enumerate() {
        let enabled = cfg.class.is_none_or(|c| c == class);
        for w in 0..count {
            let mut rng = SimRng::derive(
                master_seed,
                mix_salt(pair_salt, (ci as u64) << 32 | w),
            );
            // Fixed draw order for every class so a window's geometry
            // is the same whichever classes are enabled.
            let at_ms = rng.range(lo_ms, hi_ms.max(lo_ms + 1));
            let dur_u = rng.uniform();
            let lvl_u = rng.uniform();
            let ramp_u = rng.uniform();
            let (duration_ms, level, ramp_ms) = match class {
                TrunkFaultClass::Loss => {
                    (2_000 + (dur_u * intensity * 8_000.0) as u64,
                     (0.10 + 0.35 * intensity * lvl_u).min(0.9), 0)
                }
                TrunkFaultClass::Dup => {
                    (2_000 + (dur_u * intensity * 8_000.0) as u64,
                     (0.10 + 0.30 * intensity * lvl_u).min(0.8), 0)
                }
                TrunkFaultClass::Reorder => {
                    (2_000 + (dur_u * intensity * 8_000.0) as u64,
                     (0.15 + 0.35 * intensity * lvl_u).min(0.9), 0)
                }
                TrunkFaultClass::Partition => {
                    // Full drop at the plateau; the trapezoid's ramp is
                    // intensity-independent so the onset shape never
                    // shifts under a stronger plan.
                    (3_000 + (dur_u * intensity * 7_000.0) as u64,
                     1.0,
                     400 + (ramp_u * 1_200.0) as u64)
                }
            };
            if enabled {
                plan.windows.push(TrunkWindow { at_ms, duration_ms, class, level, ramp_ms });
            }
        }
    }

    plan.windows.sort_by_key(|w| (w.at_ms, w.duration_ms));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_compiles_to_empty_plan() {
        for intensity in [0.0, f64::NAN] {
            assert!(FaultPlanConfig::all(intensity).is_off(), "{intensity}");
            assert!(compile_plan(&FaultPlanConfig::all(intensity), 42, 0, 300).is_empty());
        }
        let off = compile_plan(&FaultPlanConfig::default(), 42, 3, 300);
        assert!(off.is_empty());
    }

    #[test]
    fn plans_are_deterministic() {
        let cfg = FaultPlanConfig::all(1.0);
        let a = compile_plan(&cfg, 0xD15EA5E, 2, 300);
        let b = compile_plan(&cfg, 0xD15EA5E, 2, 300);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn shards_and_seeds_get_independent_plans() {
        let cfg = FaultPlanConfig::all(1.0);
        let a = compile_plan(&cfg, 42, 0, 300);
        let b = compile_plan(&cfg, 42, 1, 300);
        let c = compile_plan(&cfg, 43, 0, 300);
        assert_ne!(a, b, "shard index must vary the plan");
        assert_ne!(a, c, "seed must vary the plan");
    }

    #[test]
    fn window_count_is_monotone_in_intensity() {
        let counts: Vec<usize> = [0.0, 0.3, 1.0, 2.0]
            .iter()
            .map(|&i| compile_plan(&FaultPlanConfig::all(i), 7, 0, 600).events.len())
            .collect();
        for pair in counts.windows(2) {
            assert!(pair[0] <= pair[1], "window count shrank: {counts:?}");
        }
        assert_eq!(counts[0], 0);
        assert!(counts[3] > counts[1]);
    }

    #[test]
    fn windows_are_sorted_bounded_and_inside_the_run() {
        let plan = compile_plan(&FaultPlanConfig::all(2.0), 99, 1, 300);
        let mut prev = 0;
        for e in &plan.events {
            assert!(e.at_ms >= prev, "plan must be sorted");
            prev = e.at_ms;
            assert!(e.at_ms >= 300_000 / 20, "window starts before warm-up");
            assert!(e.at_ms < 300_000 * 8 / 10, "window starts in the tail");
            assert!(e.duration_ms >= 2_000 && e.duration_ms <= 2_000 + 2 * 8_000);
            if let FaultKind::DegradeLink { loss, .. } = e.kind {
                assert!((0.0..=0.9).contains(&loss));
            }
        }
    }

    #[test]
    fn single_class_plans_are_a_subset_of_the_combined_plan() {
        // Enabling one class must not perturb another's schedule.
        let all = compile_plan(&FaultPlanConfig::all(1.0), 11, 0, 300);
        for class in FaultClass::ALL {
            let only = compile_plan(&FaultPlanConfig::only(class, 1.0), 11, 0, 300);
            assert!(!only.is_empty());
            for e in &only.events {
                assert!(e.kind.class() == class);
                assert!(all.events.contains(e), "{e:?} missing from combined plan");
            }
        }
    }

    #[test]
    fn unavailability_and_overlap_accounting() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at_ms: 1_000,
                    duration_ms: 2_000,
                    kind: FaultKind::Crash { node: NodeSel::Sgsn },
                },
                FaultEvent {
                    at_ms: 10_000,
                    duration_ms: 3_000,
                    kind: FaultKind::Crash { node: NodeSel::Vmsc },
                },
            ],
        };
        assert!(plan.overlaps(FaultClass::NodeCrash, 2_500, 4_000));
        assert!(!plan.overlaps(FaultClass::NodeCrash, 4_000, 9_000));
        assert!(!plan.overlaps(FaultClass::LinkDegrade, 0, 20_000));
    }

    // ---- trunk chaos ----

    #[test]
    fn trunk_zero_intensity_compiles_to_empty_plan() {
        for intensity in [0.0, f64::NAN] {
            assert!(TrunkPlanConfig::all(intensity).is_off(), "{intensity}");
            assert!(compile_trunk_plan(&TrunkPlanConfig::all(intensity), 42, 0, 1, 300).is_empty());
        }
        assert!(compile_trunk_plan(&TrunkPlanConfig::default(), 42, 0, 1, 300).is_empty());
        // A degenerate pair (a shard with itself) never gets a plan.
        assert!(compile_trunk_plan(&TrunkPlanConfig::all(1.0), 42, 2, 2, 300).is_empty());
    }

    #[test]
    fn trunk_plans_are_deterministic_and_pair_symmetric() {
        let cfg = TrunkPlanConfig::all(1.0);
        let a = compile_trunk_plan(&cfg, 7, 0, 1, 300);
        let b = compile_trunk_plan(&cfg, 7, 0, 1, 300);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // The pair is unordered: (1, 0) is the same trunk as (0, 1).
        assert_eq!(a, compile_trunk_plan(&cfg, 7, 1, 0, 300));
        // Other pairs and seeds get independent plans.
        assert_ne!(a, compile_trunk_plan(&cfg, 7, 0, 2, 300));
        assert_ne!(a, compile_trunk_plan(&cfg, 8, 0, 1, 300));
    }

    #[test]
    fn trunk_single_class_plans_are_a_subset_of_the_combined_plan() {
        let all = compile_trunk_plan(&TrunkPlanConfig::all(1.0), 11, 0, 3, 300);
        for class in TrunkFaultClass::ALL {
            let only = compile_trunk_plan(&TrunkPlanConfig::only(class, 1.0), 11, 0, 3, 300);
            assert!(!only.is_empty());
            for w in &only.windows {
                assert_eq!(w.class, class);
                assert!(all.windows.contains(w), "{w:?} missing from combined plan");
            }
        }
    }

    /// The monotone-degradation cornerstone: every lower-intensity
    /// window persists at a higher intensity with the same start, a
    /// duration at least as long and a level at least as high — so the
    /// effective impairment at any instant never decreases.
    #[test]
    fn trunk_plans_are_monotone_in_intensity() {
        let lo = compile_trunk_plan(&TrunkPlanConfig::all(0.3), 5, 0, 1, 300);
        let hi = compile_trunk_plan(&TrunkPlanConfig::all(1.0), 5, 0, 1, 300);
        assert!(!lo.is_empty());
        assert!(hi.windows.len() >= lo.windows.len());
        for w in &lo.windows {
            let sup = hi
                .windows
                .iter()
                .find(|h| h.class == w.class && h.at_ms == w.at_ms)
                .unwrap_or_else(|| panic!("window at {} ms vanished at intensity 1.0", w.at_ms));
            assert!(sup.duration_ms >= w.duration_ms);
            assert!(sup.level >= w.level);
            assert_eq!(sup.ramp_ms, w.ramp_ms, "trapezoid ramp must not shift");
        }
        for t in (0..300_000).step_by(250) {
            for class in TrunkFaultClass::ALL {
                assert!(
                    hi.level_at(class, t) >= lo.level_at(class, t) - 1e-12,
                    "{class:?} level fell at {t} ms"
                );
            }
        }
    }

    #[test]
    fn trunk_partition_windows_are_trapezoidal() {
        let plan = compile_trunk_plan(
            &TrunkPlanConfig::only(TrunkFaultClass::Partition, 1.0),
            9,
            0,
            1,
            300,
        );
        let w = plan.windows.first().expect("at least one partition window");
        assert!(w.ramp_ms > 0);
        assert_eq!(w.level, 1.0);
        // Zero outside, ramping at the edges, full at the plateau.
        assert_eq!(w.level_at(w.at_ms.saturating_sub(1)), 0.0);
        assert_eq!(w.level_at(w.at_ms + w.duration_ms), 0.0);
        let mid = w.level_at(w.at_ms + w.duration_ms / 2);
        assert!((mid - 1.0).abs() < 1e-9, "plateau must be a full partition, got {mid}");
        let onset = w.level_at(w.at_ms + w.ramp_ms / 2);
        assert!(onset > 0.0 && onset < 1.0, "onset must ramp, got {onset}");
    }

    /// The fields are `pub`: a window that never ends must neither panic
    /// (debug) nor wrap to an empty window (release).
    #[test]
    fn trunk_window_end_saturates() {
        for ramp_ms in [0, 400] {
            let w = TrunkWindow {
                at_ms: 1_000,
                duration_ms: u64::MAX,
                class: TrunkFaultClass::Partition,
                level: 1.0,
                ramp_ms,
            };
            assert_eq!(w.end_ms(), u64::MAX);
            assert_eq!(w.level_at(999), 0.0);
            assert_eq!(w.level_at(1_000 + 400), 1.0);
            assert_eq!(w.level_at(u64::MAX - 1), if ramp_ms == 0 { 1.0 } else { 1.0 / 400.0 });
            assert_eq!(w.level_at(u64::MAX), 0.0);
            assert_eq!(w.support_ms(), Some((1_000 + u64::from(ramp_ms > 0), u64::MAX)));
        }
    }

    /// `support_ms` is exactly where `level_at` is positive, ms by ms.
    #[test]
    fn trunk_window_support_matches_level_at() {
        for at_ms in [0, 1, 7] {
            for duration_ms in [0, 1, 2, 9] {
                for ramp_ms in [0, 1, 3, 20] {
                    for level in [0.0, 0.25, 1.0] {
                        let w = TrunkWindow {
                            at_ms,
                            duration_ms,
                            class: TrunkFaultClass::Partition,
                            level,
                            ramp_ms,
                        };
                        let live: Vec<u64> = (0..40).filter(|&t| w.level_at(t) > 0.0).collect();
                        let expected: Vec<u64> = w.support_ms().map_or(Vec::new(), |(s, e)| (s..e).collect());
                        assert_eq!(live, expected, "{w:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn trunk_windows_are_sorted_and_inside_the_run() {
        let plan = compile_trunk_plan(&TrunkPlanConfig::all(2.0), 3, 1, 2, 300);
        let mut prev = 0;
        for w in &plan.windows {
            assert!(w.at_ms >= prev, "plan must be sorted");
            prev = w.at_ms;
            assert!(w.at_ms >= 300_000 / 20);
            assert!(w.at_ms < 300_000 * 8 / 10);
            assert!((0.0..=1.0).contains(&w.level));
        }
    }
}
