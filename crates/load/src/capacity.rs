//! Offered-load sweep: find the knee where the deployment degrades.
//!
//! The sweep holds the world fixed (population, shards, radio capacity)
//! and scales the per-subscriber call-attempt rate. The *knee* is the
//! first load point whose p99 call-setup delay exceeds a multiple of
//! the lightest point's p99, or whose blocking crosses an absolute
//! floor — the same definition capacity planners use for Erlang tables.

use crate::engine::{run_load, LoadConfig};
use crate::report::LoadReport;

/// One measured point of the sweep.
#[derive(Clone, Debug)]
pub struct CapacityPoint {
    /// Offered load multiplier applied to the base attempt rate.
    pub load_factor: f64,
    /// Calls per subscriber-hour actually offered.
    pub calls_per_sub_hour: f64,
    /// Offered traffic intensity in Erlangs (attempt rate x mean hold).
    pub offered_erlangs: f64,
    /// The full report for this point.
    pub report: LoadReport,
}

/// Setup-delay degradation threshold: p99 beyond this multiple of the
/// lightest point's p99 marks the knee.
const KNEE_P99_FACTOR: f64 = 2.0;
/// Blocking floor that marks the knee regardless of latency.
const KNEE_BLOCKING: f64 = 0.01;

/// The refined knee located by [`capacity_knee`].
#[derive(Clone, Copy, Debug)]
pub struct KneeEstimate {
    /// Smallest probed load multiplier that degraded.
    pub load_factor: f64,
    /// Calls per subscriber-hour at that multiplier.
    pub calls_per_sub_hour: f64,
    /// Offered traffic intensity in Erlangs at that multiplier.
    pub offered_erlangs: f64,
    /// Largest probed multiplier that did *not* degrade — the knee lies
    /// in `(good_factor, load_factor]`.
    pub good_factor: f64,
}

/// Result of [`capacity_knee`]: every probe in the order it ran, plus
/// the bracketed estimate.
#[derive(Clone, Debug)]
pub struct KneeSearch {
    /// Every probed point, in probe order (doubling phase first, then
    /// the bisection refinements).
    pub probes: Vec<CapacityPoint>,
    /// The refined knee, or `None` if nothing degraded up to the cap.
    pub knee: Option<KneeEstimate>,
}

/// Locates the capacity knee by geometric bisection instead of a fixed
/// grid: double the offered load until a probe degrades (p99 setup
/// delay beyond [`KNEE_P99_FACTOR`]× the 1× point's, or blocking over
/// [`KNEE_BLOCKING`]), then split the bracket on the geometric mean for
/// `refine_steps` rounds. Each halving of bracket width costs one run,
/// so the knee lands within a factor of `2^(1/2^refine_steps)` for
/// `log2(max_factor) + refine_steps` runs — far fewer than sweeping the
/// same resolution. Deterministic: probe order and factors depend only
/// on the measurements, never on wall time.
pub fn capacity_knee(base: &LoadConfig, max_factor: f64, refine_steps: u32) -> KneeSearch {
    fn probe(base: &LoadConfig, probes: &mut Vec<CapacityPoint>, factor: f64) -> usize {
        let mut cfg = base.clone();
        cfg.population.calls_per_sub_hour = base.population.calls_per_sub_hour * factor;
        let report = run_load(&cfg);
        probes.push(CapacityPoint {
            load_factor: factor,
            calls_per_sub_hour: cfg.population.calls_per_sub_hour,
            offered_erlangs: cfg.population.calls_per_sub_hour / 3600.0
                * cfg.population.mean_hold_secs
                * cfg.subscribers as f64,
            report,
        });
        probes.len() - 1
    }
    let mut probes = Vec::new();

    // The 1x probe is the reference the latency criterion is judged
    // against.
    let baseline = probe(base, &mut probes, 1.0);
    let base_p99 = probes[baseline].report.setup_delay().percentile(99.0);
    let degraded = |p: &CapacityPoint| {
        let p99 = p.report.setup_delay().percentile(99.0);
        (base_p99 > 0.0 && p99 > base_p99 * KNEE_P99_FACTOR)
            || p.report.blocking_rate() > KNEE_BLOCKING
    };

    // Phase 1: doubling bracket. `lo` is the last good factor, `hi` the
    // first degraded one.
    let (mut lo, mut hi) = (1.0, None);
    if degraded(&probes[baseline]) {
        // Already over the knee at the base rate; report 1x directly.
        (lo, hi) = (0.0, Some(1.0));
    } else {
        let mut factor = 2.0;
        while factor <= max_factor {
            let i = probe(base, &mut probes, factor);
            if degraded(&probes[i]) {
                hi = Some(factor);
                break;
            }
            lo = factor;
            factor *= 2.0;
        }
    }
    let Some(mut hi) = hi else {
        return KneeSearch { probes, knee: None };
    };

    // Phase 2: geometric bisection inside (lo, hi]. Skipped when the
    // base rate itself degraded (lo == 0 has no geometric mean).
    if lo > 0.0 {
        for _ in 0..refine_steps {
            let mid = (lo * hi).sqrt();
            let i = probe(base, &mut probes, mid);
            if degraded(&probes[i]) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    }

    let at = probes
        .iter()
        .position(|p| p.load_factor == hi)
        .expect("hi was probed");
    let knee = Some(KneeEstimate {
        load_factor: hi,
        calls_per_sub_hour: probes[at].calls_per_sub_hour,
        offered_erlangs: probes[at].offered_erlangs,
        good_factor: lo,
    });
    KneeSearch { probes, knee }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base() -> LoadConfig {
        // Two traffic channels and a hot population: blocking crosses
        // the 1% knee threshold within a few doublings.
        let mut cfg = LoadConfig {
            subscribers: 32,
            shards: 1,
            seed: 7,
            tch_capacity: 2,
            ..LoadConfig::default()
        };
        cfg.population.window_secs = 30;
        cfg.population.calls_per_sub_hour = 30.0;
        cfg.population.mean_hold_secs = 20.0;
        cfg.population.mobility_fraction = 0.0;
        cfg
    }

    #[test]
    fn bisect_brackets_the_knee() {
        let search = capacity_knee(&tiny_base(), 16.0, 2);
        let knee = search.knee.expect("a 2-TCH cell must saturate by 16x");
        assert!(knee.load_factor > knee.good_factor);
        assert!(knee.load_factor <= 16.0);
        // Bracket width after 2 refinements of a doubling bracket.
        assert!(knee.load_factor / knee.good_factor.max(1.0) <= 2.0_f64.sqrt() + 1e-9);
        // The degraded point really is degraded.
        let at = search
            .probes
            .iter()
            .position(|p| p.load_factor == knee.load_factor)
            .unwrap();
        let base_p99 = search.probes[0].report.setup_delay().percentile(99.0);
        let p = &search.probes[at];
        assert!(
            p.report.blocking_rate() > KNEE_BLOCKING
                || p.report.setup_delay().percentile(99.0) > base_p99 * KNEE_P99_FACTOR
        );
    }

    #[test]
    fn no_knee_below_cap_returns_none() {
        // Cap the search below where this world degrades.
        let mut cfg = tiny_base();
        cfg.tch_capacity = 64;
        cfg.population.calls_per_sub_hour = 1.0;
        let search = capacity_knee(&cfg, 2.0, 1);
        assert!(search.knee.is_none());
        // Doubling phase still probed 1x and 2x.
        assert_eq!(search.probes.len(), 2);
    }
}
