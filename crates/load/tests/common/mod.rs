//! What the oracle tests compare: a run's statistics outside the
//! kernel's own `sim.*` census, which only the kernel's choices move.

use std::collections::BTreeMap;

use vgprs_sim::Stats;

/// Every counter and histogram of `stats` outside `sim.*` and the names
/// in `exempt`, by name, rendered comparably: a histogram by its count,
/// sum, extremes and buckets.
pub fn outside_the_kernel(stats: &Stats, exempt: &[&str]) -> BTreeMap<String, String> {
    let counters = stats.counters().map(|(name, value)| (name, value.to_string()));
    let histograms = stats.histograms().map(|(name, h)| {
        let buckets: Vec<(f64, u64)> = h.nonzero_buckets().collect();
        let shape = format!("{} {} {:?} {:?} {buckets:?}", h.count(), h.sum(), h.min(), h.max());
        (name, shape)
    });
    (counters.chain(histograms))
        .filter(|&(name, _)| !is_exempt(name, exempt))
        .map(|(name, shape)| (name.to_owned(), shape))
        .collect()
}

/// Whether a comparison leaves `name` out: the kernel's census, or one
/// of `exempt`.
pub fn is_exempt(name: &str, exempt: &[&str]) -> bool {
    name.starts_with("sim.") || exempt.contains(&name)
}
