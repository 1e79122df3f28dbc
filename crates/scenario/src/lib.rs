//! # vgprs-scenario — seeded demand plans for the vGPRS load engine
//!
//! The load engine's population model is *stationary*: every subscriber
//! attempts calls at a flat busy-hour Poisson rate for the whole window.
//! Real GPRS cores die on the non-stationary days — the stadium letting
//! out, New-Year midnight — where arrivals spike ×10–50 in a few cells
//! and the crowd's correlated mobility adds a location-update and paging
//! storm on top. This crate describes those days.
//!
//! It follows the same compiled-plan discipline as `vgprs-faults`: demand
//! is never sampled by a stochastic process racing the simulation.
//! [`compile_demand`] turns a [`ScenarioConfig`] — a daily-profile rate
//! curve plus superimposed [`FlashCrowd`] specs — into a per-shard
//! [`DemandPlan`]: a piecewise-constant arrival-rate multiplier curve
//! plus correlated-mobility drift windows, derived purely from
//! `(config, master_seed, shard_index, window_secs)`. The load engine
//! drives the curve through its existing per-subscriber Poisson streams
//! by thinning, so runs stay **bit-identical across event kernels**.
//!
//! A flat configuration (the default) compiles to an **empty plan**, and
//! the load engine then takes its original arrival path untouched — a
//! zero-shock run is byte-for-byte identical to one that never linked
//! this crate.
//!
//! [`OverloadControls`] lives here too: the knob block for the three
//! controls a real core raises against a crowd (paging throttling at the
//! VMSC, gatekeeper ARJ load shedding, SGSN PDP admission control), kept
//! beside the demand model that trips them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vgprs_sim::SimRng;

/// Sub-stream salt for demand-plan jitter and per-subscriber crowd-drift
/// draws, disjoint from the load engine's call/mobility/shard/fault
/// streams.
pub const STREAM_DRIFT: u64 = 0xC0FF_EE00_D21F_7E55_u64;

/// Demand multipliers above this are attributed to the peak minute in
/// KPI accounting (peak-minute blocking vs steady-state blocking).
pub const PEAK_ATTRIBUTION_THRESHOLD: f64 = 1.05;

/// Hard ceiling on the compiled multiplier; keeps thinning envelopes
/// finite even for absurd crowd specs.
const MAX_MULTIPLIER: f64 = 64.0;

/// A 24-hour arrival-rate profile, as hourly multipliers of the nominal
/// busy-hour rate.
///
/// The observation window is mapped onto the slice of the day starting
/// at `start_hour` and spanning `span_hours`, with linear interpolation
/// between hourly points (wrapping at midnight). The default profile is
/// flat (every hour at 1.0), which [`ScenarioConfig::is_flat`] treats as
/// "no profile at all".
#[derive(Clone, Debug, PartialEq)]
pub struct DailyProfile {
    /// Rate multiplier for each hour of the day, `hourly[h]` applying at
    /// `h:00` exactly.
    pub hourly: [f64; 24],
    /// Hour of day (fractional) the window starts at.
    pub start_hour: f64,
    /// Hours of profile time the window spans; `0.0` holds the profile
    /// at `start_hour` for the whole window.
    pub span_hours: f64,
}

impl Default for DailyProfile {
    fn default() -> Self {
        DailyProfile { hourly: [1.0; 24], start_hour: 11.0, span_hours: 0.0 }
    }
}

impl DailyProfile {
    /// A stylized metropolitan diurnal curve: night trough, morning
    /// ramp, lunchtime shoulder and an early-evening peak.
    pub fn diurnal() -> Self {
        DailyProfile {
            hourly: [
                0.20, 0.12, 0.08, 0.06, 0.06, 0.10, // 00–05: night trough
                0.25, 0.55, 0.85, 1.00, 1.05, 1.10, // 06–11: morning ramp
                1.15, 1.05, 1.00, 1.00, 1.05, 1.20, // 12–17: working day
                1.30, 1.25, 1.10, 0.90, 0.60, 0.35, // 18–23: evening peak, wind-down
            ],
            start_hour: 17.0,
            span_hours: 2.0,
        }
    }

    /// True if the profile is the flat 1.0 curve.
    pub fn is_flat(&self) -> bool {
        self.hourly.iter().all(|&m| (m - 1.0).abs() < 1e-12)
    }

    /// Profile multiplier at `frac` of the way through the window.
    pub fn multiplier_at(&self, frac: f64) -> f64 {
        let h = (self.start_hour + frac.clamp(0.0, 1.0) * self.span_hours).rem_euclid(24.0);
        let lo = h.floor() as usize % 24;
        let hi = (lo + 1) % 24;
        let t = h - h.floor();
        (self.hourly[lo] * (1.0 - t) + self.hourly[hi] * t).max(0.0)
    }
}

/// One flash-crowd shock: a trapezoidal arrival-rate spike over a set of
/// epicenter shards, with correlated mobility drift from the rest of the
/// population toward the epicenter.
///
/// All times are fractions of the observation window so a spec scales
/// with `window_secs`. A crowd with `multiplier <= 1.0` is inert (it
/// contributes neither rate nor drift), which is what lets a zero-shock
/// sweep point reproduce the flat run exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlashCrowd {
    /// Onset, as a fraction of the window.
    pub start_frac: f64,
    /// Linear ramp-up duration, fraction of the window.
    pub ramp_frac: f64,
    /// Plateau duration at full `multiplier`, fraction of the window.
    pub peak_frac: f64,
    /// Linear decay duration, fraction of the window.
    pub decay_frac: f64,
    /// Arrival-rate multiplier at the plateau (the shock intensity).
    pub multiplier: f64,
    /// Number of epicenter shards: shards `0..epicenter_shards` carry
    /// the spike; everyone else only contributes drifters.
    pub epicenter_shards: usize,
    /// Fraction of each non-epicenter shard's subscribers that drift to
    /// an epicenter shard for the crowd's duration.
    pub drift_fraction: f64,
}

impl FlashCrowd {
    /// True if this crowd can affect a run at all.
    pub fn is_active(&self) -> bool {
        self.multiplier > 1.0 && self.epicenter_shards > 0
    }

    /// The trapezoid envelope at `t_ms`, given the crowd's absolute
    /// onset `onset_ms` (start + per-shard jitter) and the window length.
    fn envelope(&self, t_ms: u64, onset_ms: u64, window_ms: u64) -> f64 {
        let ramp = (self.ramp_frac * window_ms as f64) as u64;
        let peak = (self.peak_frac * window_ms as f64) as u64;
        let decay = (self.decay_frac * window_ms as f64) as u64;
        let t = t_ms;
        if t < onset_ms || t >= onset_ms + ramp + peak + decay {
            return 1.0;
        }
        let excess = self.multiplier - 1.0;
        let into = t - onset_ms;
        if into < ramp {
            1.0 + excess * into as f64 / ramp as f64
        } else if into < ramp + peak {
            self.multiplier
        } else {
            let through = (into - ramp - peak) as f64 / decay.max(1) as f64;
            1.0 + excess * (1.0 - through)
        }
    }
}

/// A complete demand scenario. `Default` is flat/no-shock.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioConfig {
    /// The daily-profile rate curve the window is cut from.
    pub profile: DailyProfile,
    /// Flash crowds superimposed on the profile.
    pub crowds: Vec<FlashCrowd>,
}

impl ScenarioConfig {
    /// Convenience: the surge harness's canonical single flash crowd at
    /// the given intensity (plateau arrival multiplier). Intensity at or
    /// below 1.0 yields a flat scenario.
    pub fn flash(intensity: f64) -> Self {
        ScenarioConfig {
            profile: DailyProfile::default(),
            crowds: vec![FlashCrowd {
                start_frac: 0.20,
                ramp_frac: 0.10,
                peak_frac: 0.30,
                decay_frac: 0.15,
                multiplier: intensity,
                epicenter_shards: 1,
                drift_fraction: 0.30,
            }],
        }
    }

    /// True if compiling this scenario can only ever yield flat plans.
    pub fn is_flat(&self) -> bool {
        self.profile.is_flat() && !self.crowds.iter().any(|c| c.is_active())
    }
}

/// One piecewise-constant stretch of the compiled multiplier curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DemandSegment {
    /// Segment start, ms into the window (inclusive).
    pub from_ms: u64,
    /// Segment end, ms into the window (exclusive).
    pub to_ms: u64,
    /// Arrival-rate multiplier over the segment.
    pub multiplier: f64,
}

/// One correlated-mobility recruitment window: during a crowd, a
/// fraction of a non-epicenter shard's subscribers travel to an
/// epicenter shard and camp there until the crowd disperses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftWindow {
    /// When drifters leave home, ms into the window.
    pub out_ms: u64,
    /// When drifters return, ms into the window.
    pub back_ms: u64,
    /// Fraction of the shard's subscribers recruited.
    pub fraction: f64,
    /// Epicenter shard count; a drifter's destination is
    /// `draw % epicenter_shards`.
    pub epicenter_shards: u64,
}

/// A compiled, per-shard demand schedule.
///
/// The empty (default) plan means "flat demand": the load engine must
/// take its original, un-thinned arrival path so the run is
/// byte-identical to one without the scenario machinery.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DemandPlan {
    /// Multiplier curve, sorted by `from_ms`, covering the window with
    /// adjacent equal segments coalesced. Empty means flat.
    pub segments: Vec<DemandSegment>,
    /// Maximum multiplier across the curve — the thinning envelope.
    pub peak: f64,
    /// Correlated-drift recruitment windows (non-epicenter shards only).
    pub drift: Vec<DriftWindow>,
}

impl DemandPlan {
    /// True if the plan is flat (scenario machinery disabled).
    pub fn is_flat(&self) -> bool {
        self.segments.is_empty() && self.drift.is_empty()
    }

    /// The thinning envelope: an upper bound on every multiplier.
    pub fn envelope(&self) -> f64 {
        self.peak.max(1.0)
    }

    /// Multiplier at `at_ms` (1.0 outside any segment).
    pub fn multiplier_at_ms(&self, at_ms: u64) -> f64 {
        match self.segments.binary_search_by(|s| {
            if at_ms < s.from_ms {
                std::cmp::Ordering::Greater
            } else if at_ms >= s.to_ms {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => self.segments[i].multiplier,
            Err(_) => 1.0,
        }
    }

    /// True if `at_ms` falls in the shock's peak (demand above the
    /// attribution threshold) — used to split blocking KPIs into
    /// peak-minute vs steady-state.
    pub fn in_peak(&self, at_ms: u64) -> bool {
        self.multiplier_at_ms(at_ms) > PEAK_ATTRIBUTION_THRESHOLD
    }
}

/// Curve resolution: one sample per simulated second, matching the
/// "peak minute vs steady state" KPI granularity.
const SEGMENT_MS: u64 = 1_000;

/// Compiles the per-shard demand schedule.
///
/// Pure function of its arguments: the same `(cfg, master_seed,
/// shard_index, window_secs)` always yields the same plan. Per-shard
/// onset jitter is drawn from an independent sub-stream per shard, so
/// neighboring cells see the crowd arrive a few seconds apart — and
/// re-running with the same seed replays the exact same stagger.
pub fn compile_demand(
    cfg: &ScenarioConfig,
    master_seed: u64,
    shard_index: usize,
    window_secs: u64,
) -> DemandPlan {
    let mut plan = DemandPlan::default();
    if cfg.is_flat() || window_secs == 0 {
        return plan;
    }
    let mut rng = SimRng::derive(master_seed, STREAM_DRIFT ^ shard_index as u64);
    let window_ms = window_secs * 1_000;

    // Per-crowd onset jitter (up to 2% of the window), drawn
    // unconditionally for every crowd — active or not, epicenter or not —
    // so adding a crowd or moving the epicenter never perturbs another
    // crowd's stagger.
    let onsets: Vec<(u64, bool)> = cfg
        .crowds
        .iter()
        .map(|c| {
            let jitter = rng.range(0, (window_ms / 50).max(1));
            let onset =
                ((c.start_frac.clamp(0.0, 1.0) * window_ms as f64) as u64 + jitter).min(window_ms);
            let epicenter = shard_index < c.epicenter_shards;
            (onset, epicenter)
        })
        .collect();

    // Sample the curve at 1 s resolution and coalesce equal neighbors.
    for s in 0..window_secs {
        let from_ms = s * SEGMENT_MS;
        let mid_ms = from_ms + SEGMENT_MS / 2;
        let mut m = cfg.profile.multiplier_at(mid_ms as f64 / window_ms as f64);
        for (crowd, &(onset_ms, epicenter)) in cfg.crowds.iter().zip(&onsets) {
            if crowd.is_active() && epicenter {
                m *= crowd.envelope(mid_ms, onset_ms, window_ms);
            }
        }
        let m = m.clamp(0.0, MAX_MULTIPLIER);
        match plan.segments.last_mut() {
            Some(last) if last.multiplier == m => last.to_ms = from_ms + SEGMENT_MS,
            _ => plan.segments.push(DemandSegment {
                from_ms,
                to_ms: from_ms + SEGMENT_MS,
                multiplier: m,
            }),
        }
    }
    plan.peak = plan
        .segments
        .iter()
        .map(|s| s.multiplier)
        .fold(0.0, f64::max);

    // Drift recruitment: non-epicenter shards send a slice of their
    // population toward the epicenter for the crowd's duration.
    for (crowd, &(onset_ms, epicenter)) in cfg.crowds.iter().zip(&onsets) {
        if crowd.is_active() && !epicenter && crowd.drift_fraction > 0.0 {
            let span = ((crowd.ramp_frac + crowd.peak_frac + crowd.decay_frac)
                * window_ms as f64) as u64;
            let back_ms = (onset_ms + span.max(SEGMENT_MS)).min(window_ms);
            if back_ms > onset_ms {
                plan.drift.push(DriftWindow {
                    out_ms: onset_ms,
                    back_ms,
                    fraction: crowd.drift_fraction.clamp(0.0, 1.0),
                    epicenter_shards: crowd.epicenter_shards as u64,
                });
            }
        }
    }

    // Normalize: an all-ones curve is no curve (non-epicenter shards
    // keep their flat rate and only drift), and a plan with neither
    // curve nor drift is the flat plan — the engine then takes the
    // exact original arrival path.
    if plan
        .segments
        .iter()
        .all(|s| (s.multiplier - 1.0).abs() < 1e-12)
    {
        plan.segments.clear();
        plan.peak = 0.0;
    }
    if plan.segments.is_empty() && plan.drift.is_empty() {
        return DemandPlan::default();
    }
    plan
}

/// The overload-control knob block: the three mechanisms a real core
/// raises against a demand shock. `Default` is everything off, which
/// leaves every node on its historical code path (byte-identical runs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverloadControls {
    /// VMSC paging-request throttle: at most this many pages per
    /// simulated second; excess pages queue (bounded) and then shed.
    /// `0` disables the throttle.
    pub paging_rate_per_s: u32,
    /// Gatekeeper ARJ load shedding: new admissions that would push
    /// bandwidth utilization above this fraction are rejected with
    /// network-congestion, feeding the VMSC's bounded ARQ retry ladder.
    /// `0.0` disables shedding.
    pub gk_shed_utilization: f64,
    /// SGSN PDP admission control: at most this many PDP-context
    /// activations admitted per simulated second; excess queues
    /// (bounded) and then rejects with a q850 congestion cause.
    /// `0` disables admission control.
    pub pdp_rate_per_s: u32,
}

impl Default for OverloadControls {
    fn default() -> Self {
        OverloadControls { paging_rate_per_s: 0, gk_shed_utilization: 0.0, pdp_rate_per_s: 0 }
    }
}

impl OverloadControls {
    /// The surge harness's canonical "controls on" setting, sized for
    /// its per-shard population. The shed threshold sits at the
    /// admission-budget boundary: every admission the budget would
    /// hard-reject is shed with a retryable congestion cause instead,
    /// so overload degrades to deferred setups rather than failures
    /// while the budget itself is unchanged.
    pub fn standard() -> Self {
        OverloadControls {
            paging_rate_per_s: 5,
            gk_shed_utilization: 1.0,
            pdp_rate_per_s: 8,
        }
    }

    /// True if any control is active.
    pub fn enabled(&self) -> bool {
        self.paging_rate_per_s > 0 || self.gk_shed_utilization > 0.0 || self.pdp_rate_per_s > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_scenario_compiles_to_flat_plan() {
        let plan = compile_demand(&ScenarioConfig::default(), 42, 0, 300);
        assert!(plan.is_flat());
        assert_eq!(plan, DemandPlan::default());
        // Intensity <= 1.0 is a zero-shock point, not a degenerate crowd.
        for intensity in [0.0, 0.5, 1.0] {
            let plan = compile_demand(&ScenarioConfig::flash(intensity), 42, 0, 300);
            assert!(plan.is_flat(), "flash({intensity}) must be flat");
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let cfg = ScenarioConfig::flash(10.0);
        let a = compile_demand(&cfg, 0xD15EA5E, 1, 300);
        let b = compile_demand(&cfg, 0xD15EA5E, 1, 300);
        assert_eq!(a, b);
        assert!(!a.is_flat());
    }

    #[test]
    fn shards_and_seeds_get_independent_jitter() {
        let cfg = ScenarioConfig::flash(10.0);
        let a = compile_demand(&cfg, 42, 0, 300);
        let c = compile_demand(&cfg, 43, 0, 300);
        assert_ne!(a, c, "seed must vary the plan");
        // Two epicenter shards: same spec, independently jittered onsets.
        let mut wide = ScenarioConfig::flash(10.0);
        wide.crowds[0].epicenter_shards = 2;
        let s0 = compile_demand(&wide, 42, 0, 300);
        let s1 = compile_demand(&wide, 42, 1, 300);
        assert_ne!(s0, s1, "shard index must vary the stagger");
    }

    #[test]
    fn epicenter_gets_rate_others_get_drift() {
        let cfg = ScenarioConfig::flash(10.0);
        let epi = compile_demand(&cfg, 42, 0, 300);
        assert!(epi.peak > 5.0, "epicenter must carry the spike: {}", epi.peak);
        assert!(epi.drift.is_empty(), "epicenter shards do not drift");
        let other = compile_demand(&cfg, 42, 1, 300);
        assert!(other.segments.is_empty(), "non-epicenter rate stays flat");
        assert_eq!(other.drift.len(), 1);
        let d = other.drift[0];
        assert!(d.back_ms > d.out_ms && d.back_ms <= 300_000);
        assert!((d.fraction - 0.30).abs() < 1e-12);
        assert_eq!(d.epicenter_shards, 1);
    }

    #[test]
    fn peak_is_monotone_in_intensity() {
        let peaks: Vec<f64> = [1.0, 4.0, 10.0, 25.0]
            .iter()
            .map(|&i| compile_demand(&ScenarioConfig::flash(i), 7, 0, 300).envelope())
            .collect();
        for pair in peaks.windows(2) {
            assert!(pair[0] <= pair[1], "envelope shrank: {peaks:?}");
        }
        assert!(peaks[3] > peaks[1]);
    }

    #[test]
    fn segments_tile_the_window_sorted_and_coalesced() {
        let plan = compile_demand(&ScenarioConfig::flash(25.0), 99, 0, 300);
        let mut cursor = 0;
        for pair in plan.segments.windows(2) {
            assert!(
                pair[0].multiplier != pair[1].multiplier,
                "adjacent equal segments must coalesce"
            );
        }
        for s in &plan.segments {
            assert_eq!(s.from_ms, cursor, "segments must tile contiguously");
            assert!(s.to_ms > s.from_ms);
            assert!(s.multiplier >= 0.0 && s.multiplier <= MAX_MULTIPLIER);
            cursor = s.to_ms;
        }
        assert_eq!(cursor, 300_000);
        assert!((plan.envelope() - plan.peak).abs() < 1e-12);
    }

    #[test]
    fn multiplier_lookup_and_peak_attribution() {
        let plan = compile_demand(&ScenarioConfig::flash(10.0), 42, 0, 300);
        // Before onset (minus jitter slack) the curve is flat.
        assert_eq!(plan.multiplier_at_ms(1_000), 1.0);
        assert!(!plan.in_peak(1_000));
        // Mid-plateau (onset ~20% + ramp 10% → plateau spans ~30–60%).
        let mid = 135_000;
        assert!(plan.multiplier_at_ms(mid) > 5.0, "plateau missing at {mid}");
        assert!(plan.in_peak(mid));
        // Past the end of every segment the curve is flat again.
        assert_eq!(plan.multiplier_at_ms(10_000_000), 1.0);
    }

    #[test]
    fn diurnal_profile_shapes_the_curve() {
        let cfg = ScenarioConfig { profile: DailyProfile::diurnal(), crowds: Vec::new() };
        assert!(!cfg.is_flat());
        let plan = compile_demand(&cfg, 42, 3, 600);
        assert!(!plan.is_flat());
        assert!(plan.drift.is_empty(), "a profile alone never drifts");
        // The 17:00→19:00 slice rises into the evening peak.
        let early = plan.multiplier_at_ms(30_000);
        let late = plan.multiplier_at_ms(450_000);
        assert!(late > early, "evening ramp missing: {early} → {late}");
    }

    #[test]
    fn profile_interpolates_and_wraps() {
        let p = DailyProfile::diurnal();
        let m = DailyProfile { start_hour: 23.5, span_hours: 1.0, ..p.clone() };
        // 23.5h → halfway between hour 23 and hour 0 (wrap).
        let expect = (p.hourly[23] + p.hourly[0]) / 2.0;
        assert!((m.multiplier_at(0.0) - expect).abs() < 1e-9);
        assert!(DailyProfile::default().is_flat());
        assert!(!p.is_flat());
    }

    #[test]
    fn controls_default_off() {
        let off = OverloadControls::default();
        assert!(!off.enabled());
        assert!(OverloadControls::standard().enabled());
        assert!(OverloadControls { paging_rate_per_s: 1, ..off }.enabled());
        assert!(OverloadControls { gk_shed_utilization: 0.5, ..off }.enabled());
        assert!(OverloadControls { pdp_rate_per_s: 9, ..off }.enabled());
    }
}
