//! The synthetic subscriber population.
//!
//! Every subscriber owns two independent random streams — one for call
//! arrivals, one for mobility — derived from the master seed and the
//! subscriber's *global* index. Because the streams never depend on how
//! the population is partitioned, a subscriber's behavior is identical
//! whether the run uses 1 shard or 400, which is what makes sharded
//! results reproducible and comparable across machine sizes.

use vgprs_scenario::DemandPlan;
use vgprs_sim::SimRng;

/// Stream-class salts for [`SimRng::derive`]; distinct odd constants so
/// the call, mobility and crowd-drift streams of one subscriber never
/// collide (nor collide with the scenario compiler's per-shard jitter
/// stream).
const STREAM_CALLS: u64 = 0x9E37_79B9_7F4A_7C15;
const STREAM_MOBILITY: u64 = 0xC2B2_AE3D_27D4_EB4F;
const STREAM_CROWD: u64 = 0xB10C_7A27_5EED_CA11;

/// What a call attempt looks like from the traffic generator's side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// The mobile dials its paired wireline H.323 terminal.
    MoToTerminal,
    /// The paired terminal dials the mobile (exercises paging).
    MtFromTerminal,
    /// The mobile dials another mobile in the same serving area.
    MsToMs,
}

/// Relative weights of the three call kinds; normalized on use.
#[derive(Clone, Copy, Debug)]
pub struct CallMix {
    /// Mobile-originated calls to wireline terminals.
    pub mo: f64,
    /// Mobile-terminated calls from wireline terminals.
    pub mt: f64,
    /// Mobile-to-mobile calls within the serving area.
    pub m2m: f64,
}

impl Default for CallMix {
    fn default() -> Self {
        CallMix {
            mo: 0.45,
            mt: 0.45,
            m2m: 0.10,
        }
    }
}

impl CallMix {
    /// Maps a uniform draw in `[0, 1)` to a call kind.
    pub fn pick(&self, u: f64) -> CallKind {
        let total = (self.mo + self.mt + self.m2m).max(f64::MIN_POSITIVE);
        let x = u * total;
        if x < self.mo {
            CallKind::MoToTerminal
        } else if x < self.mo + self.mt {
            CallKind::MtFromTerminal
        } else {
            CallKind::MsToMs
        }
    }
}

/// Statistical description of the population's busy-hour behavior.
#[derive(Clone, Debug)]
pub struct PopulationConfig {
    /// Poisson call-attempt rate per subscriber, in calls per hour.
    pub calls_per_sub_hour: f64,
    /// Mean call holding time (exponential), seconds.
    pub mean_hold_secs: f64,
    /// Holding-time floor so connected calls outlive ringing and answer.
    pub min_hold_secs: f64,
    /// Observation window, seconds of simulated time.
    pub window_secs: u64,
    /// Relative mix of MO / MT / mobile-to-mobile attempts.
    pub mix: CallMix,
    /// Fraction of subscribers that make one idle-mode excursion to the
    /// neighboring location area during the window.
    pub mobility_fraction: f64,
    /// Fraction of subscribers whose excursion leaves their home shard
    /// entirely: the trip targets another shard's serving area, crossing
    /// the inter-shard mailbox (idle-mode HLR ownership transfer, or an
    /// inter-VMSC handoff if the trip lands mid-call). A subscriber
    /// selected here that has no excursion gets one synthesized.
    pub cross_shard_fraction: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            calls_per_sub_hour: 4.0,
            mean_hold_secs: 90.0,
            min_hold_secs: 8.0,
            window_secs: 60,
            mix: CallMix::default(),
            mobility_fraction: 0.05,
            cross_shard_fraction: 0.0,
        }
    }
}

/// One scheduled call attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Offset into the window, in milliseconds.
    pub at_ms: u64,
    /// Who calls whom.
    pub kind: CallKind,
    /// How long the originator holds the call before hanging up.
    pub hold_ms: u64,
    /// Raw draw used to select the peer of an [`CallKind::MsToMs`]
    /// call; the shard maps it onto a local subscriber index.
    pub peer_draw: u64,
}

/// One round trip to the neighboring location area and back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Excursion {
    /// When the subscriber re-camps on the neighbor cell, ms.
    pub out_ms: u64,
    /// When it returns to the home cell, ms.
    pub back_ms: u64,
    /// `Some(draw)` when the trip leaves the home shard; the shard maps
    /// the raw draw onto a destination shard index (the plan itself must
    /// stay independent of shard topology).
    pub cross_shard: Option<u64>,
    /// True for a flash-crowd drift trip: `cross_shard` then already
    /// holds the destination *epicenter* shard index (the crowd spec
    /// names its epicenter, so no topology-dependent mapping is needed).
    pub drift: bool,
}

/// Everything one subscriber will do during the window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubscriberPlan {
    /// Position in the whole population (not the shard).
    pub global_index: usize,
    /// Call attempts, in time order.
    pub arrivals: Vec<Arrival>,
    /// Optional trip to the neighbor location area.
    pub excursion: Option<Excursion>,
}

/// Generates the plan for one subscriber.
///
/// Depends only on `(cfg, master_seed, global_index)` — never on shard
/// topology — so re-partitioning the population cannot change anyone's
/// behavior.
pub fn subscriber_plan(
    cfg: &PopulationConfig,
    master_seed: u64,
    global_index: usize,
) -> SubscriberPlan {
    subscriber_plan_demand(cfg, &DemandPlan::default(), master_seed, global_index)
}

/// The mobility half of a subscriber's plan, on its own RNG stream so
/// a demand curve can never perturb anyone's idle-mode travel.
fn mobility_excursion(
    cfg: &PopulationConfig,
    master_seed: u64,
    global_index: usize,
) -> Option<Excursion> {
    let g = global_index as u64;
    let window = cfg.window_secs as f64;
    let mut mobility = SimRng::derive(master_seed, STREAM_MOBILITY.wrapping_add(g));
    let excursion = if mobility.chance(cfg.mobility_fraction) {
        let out = mobility.uniform() * window * 0.7;
        let stay = 5.0 + mobility.exponential(window * 0.1);
        Some(Excursion {
            out_ms: (out * 1000.0) as u64,
            back_ms: ((out + stay) * 1000.0) as u64,
            cross_shard: None,
            drift: false,
        })
    } else {
        None
    };
    if cfg.cross_shard_fraction > 0.0 && mobility.chance(cfg.cross_shard_fraction) {
        let draw = mobility.next_u64();
        match excursion {
            Some(e) => Some(Excursion {
                cross_shard: Some(draw),
                ..e
            }),
            None => {
                let out = mobility.uniform() * window * 0.7;
                let stay = 5.0 + mobility.exponential(window * 0.1);
                Some(Excursion {
                    out_ms: (out * 1000.0) as u64,
                    back_ms: ((out + stay) * 1000.0) as u64,
                    cross_shard: Some(draw),
                    drift: false,
                })
            }
        }
    } else {
        excursion
    }
}

/// Generates one subscriber's plan under a compiled [`DemandPlan`].
///
/// A flat plan is the plain Poisson stream — not even an accept draw
/// is spent — so a zero-shock scenario is byte-identical to a run
/// without the scenario machinery. A shaped plan drives the
/// time-varying arrival rate by **thinning**: candidates are generated
/// as a homogeneous Poisson stream at the plan's envelope rate, and
/// each is kept with probability `multiplier(t) / envelope`, which
/// yields the exact inhomogeneous process while staying a pure function
/// of `(cfg, demand, master_seed, global_index)`.
///
/// Crowd drift rides a third RNG stream: each [`DriftWindow`] in the
/// plan recruits this subscriber with its window's probability, and a
/// recruit travels to an epicenter shard for the crowd's duration. The
/// draws happen unconditionally per window so one window's outcome
/// never perturbs another's.
///
/// [`DriftWindow`]: vgprs_scenario::DriftWindow
pub fn subscriber_plan_demand(
    cfg: &PopulationConfig,
    demand: &DemandPlan,
    master_seed: u64,
    global_index: usize,
) -> SubscriberPlan {
    let g = global_index as u64;
    let mut calls = SimRng::derive(master_seed, STREAM_CALLS.wrapping_add(g));
    let window = cfg.window_secs as f64;
    let shaped = !demand.is_flat();
    let envelope = if shaped { demand.envelope() } else { 1.0 };

    let mut arrivals = Vec::new();
    if cfg.calls_per_sub_hour > 0.0 {
        let mean_gap = 3600.0 / (cfg.calls_per_sub_hour * envelope);
        let extra_hold = (cfg.mean_hold_secs - cfg.min_hold_secs).max(0.1);
        let mut t = calls.exponential(mean_gap);
        while t < window {
            let at_ms = (t * 1000.0) as u64;
            if !shaped || calls.chance(demand.multiplier_at_ms(at_ms) / envelope) {
                let kind = cfg.mix.pick(calls.uniform());
                let hold = cfg.min_hold_secs + calls.exponential(extra_hold);
                arrivals.push(Arrival {
                    at_ms,
                    kind,
                    hold_ms: (hold * 1000.0) as u64,
                    peer_draw: calls.next_u64(),
                });
            }
            t += calls.exponential(mean_gap);
        }
    }

    let mut excursion = mobility_excursion(cfg, master_seed, global_index);

    let mut drift_rng = SimRng::derive(master_seed, STREAM_CROWD.wrapping_add(g));
    for w in &demand.drift {
        // Unconditional draws per window, in a fixed order.
        let recruited = drift_rng.chance(w.fraction);
        let target_draw = drift_rng.next_u64();
        let out_jitter = drift_rng.next_u64();
        let back_jitter = drift_rng.next_u64();
        if !recruited || excursion.is_some_and(|e| e.drift) || w.epicenter_shards == 0 {
            continue;
        }
        // Stagger departures over the crowd's first quarter and returns
        // over a few seconds so the location-update storm ramps the way
        // a real crowd builds, instead of arriving in one event burst.
        let span = w.back_ms.saturating_sub(w.out_ms).max(1);
        let out_ms = w.out_ms + out_jitter % (span / 4).max(1);
        let back_ms = (w.back_ms + back_jitter % 5_000).max(out_ms + 1);
        excursion = Some(Excursion {
            out_ms,
            back_ms,
            cross_shard: Some(target_draw % w.epicenter_shards),
            drift: true,
        });
    }

    SubscriberPlan {
        global_index,
        arrivals,
        excursion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_reproducible() {
        let cfg = PopulationConfig::default();
        for g in [0usize, 7, 999] {
            let a = subscriber_plan(&cfg, 42, g);
            let b = subscriber_plan(&cfg, 42, g);
            assert_eq!(a.arrivals.len(), b.arrivals.len());
            for (x, y) in a.arrivals.iter().zip(&b.arrivals) {
                assert_eq!(x.at_ms, y.at_ms);
                assert_eq!(x.kind, y.kind);
                assert_eq!(x.hold_ms, y.hold_ms);
                assert_eq!(x.peer_draw, y.peer_draw);
            }
        }
    }

    #[test]
    fn different_subscribers_differ() {
        let cfg = PopulationConfig {
            calls_per_sub_hour: 60.0,
            window_secs: 3600,
            ..PopulationConfig::default()
        };
        let a = subscriber_plan(&cfg, 42, 0);
        let b = subscriber_plan(&cfg, 42, 1);
        let ta: Vec<u64> = a.arrivals.iter().map(|x| x.at_ms).collect();
        let tb: Vec<u64> = b.arrivals.iter().map(|x| x.at_ms).collect();
        assert_ne!(ta, tb, "independent streams should not coincide");
    }

    #[test]
    fn arrival_rate_is_roughly_poisson() {
        let cfg = PopulationConfig {
            calls_per_sub_hour: 6.0,
            window_secs: 3600,
            mobility_fraction: 0.0,
            ..PopulationConfig::default()
        };
        let total: usize = (0..200)
            .map(|g| subscriber_plan(&cfg, 7, g).arrivals.len())
            .sum();
        // 200 subscribers * 6 calls/hour over one hour = 1200 expected.
        assert!((900..1500).contains(&total), "got {total} arrivals");
    }

    #[test]
    fn holds_respect_the_floor() {
        let cfg = PopulationConfig {
            calls_per_sub_hour: 30.0,
            window_secs: 600,
            ..PopulationConfig::default()
        };
        for g in 0..20 {
            for a in subscriber_plan(&cfg, 3, g).arrivals {
                assert!(a.hold_ms >= (cfg.min_hold_secs * 1000.0) as u64);
            }
        }
    }

    #[test]
    fn cross_shard_rate_zero_leaves_plans_unchanged() {
        let cfg = PopulationConfig {
            mobility_fraction: 0.5,
            ..PopulationConfig::default()
        };
        for g in 0..50 {
            let p = subscriber_plan(&cfg, 42, g);
            assert!(p.excursion.is_none_or(|e| e.cross_shard.is_none()));
        }
    }

    #[test]
    fn cross_shard_fraction_marks_excursions() {
        let cfg = PopulationConfig {
            mobility_fraction: 0.0,
            cross_shard_fraction: 1.0,
            ..PopulationConfig::default()
        };
        // Even subscribers with no idle-mobility excursion get one
        // synthesized when selected for a cross-shard trip.
        for g in 0..50 {
            let e = subscriber_plan(&cfg, 42, g)
                .excursion
                .expect("cross-shard trip synthesized");
            assert!(e.cross_shard.is_some());
            assert!(e.back_ms > e.out_ms, "trip must have positive stay");
        }
    }

    #[test]
    fn cross_shard_draws_are_reproducible() {
        let cfg = PopulationConfig {
            mobility_fraction: 0.3,
            cross_shard_fraction: 0.4,
            ..PopulationConfig::default()
        };
        for g in [0usize, 11, 512] {
            let a = subscriber_plan(&cfg, 9, g);
            let b = subscriber_plan(&cfg, 9, g);
            assert_eq!(
                a.excursion.map(|e| (e.out_ms, e.back_ms, e.cross_shard)),
                b.excursion.map(|e| (e.out_ms, e.back_ms, e.cross_shard)),
            );
        }
    }

    #[test]
    fn mix_extremes() {
        let all_mo = CallMix {
            mo: 1.0,
            mt: 0.0,
            m2m: 0.0,
        };
        assert_eq!(all_mo.pick(0.0), CallKind::MoToTerminal);
        assert_eq!(all_mo.pick(0.999), CallKind::MoToTerminal);
        let all_m2m = CallMix {
            mo: 0.0,
            mt: 0.0,
            m2m: 1.0,
        };
        assert_eq!(all_m2m.pick(0.5), CallKind::MsToMs);
    }
}
