//! `--agree A.json B.json`: do two full result sets of the same code
//! tell the same story?
//!
//! End-to-end metrics must lie within their `BENCHMARK.json` bound of
//! each other, exact metrics and fingerprints must be identical, and
//! neither set may hold a failed operation. Everything else (host-time
//! layer metrics) is printed for reading, not judged: it has no bound.

use vgprs_sim::JsonValue;

use crate::schema::{self, PER_LAYER};

/// How far apart two values are, as a share of the smaller one.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let (lo, hi) = if a.abs() <= b.abs() {
        (a.abs(), b.abs())
    } else {
        (b.abs(), a.abs())
    };
    if lo > 0.0 {
        (hi - lo) / lo
    } else if hi > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

fn metric_value(set: &JsonValue, workload: &str, name: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Compares two result documents; returns the disagreements.
pub fn disagreements(a: &JsonValue, b: &JsonValue) -> Vec<String> {
    let mut out = Vec::new();
    for (label, set) in [("A", a), ("B", b)] {
        if set.get("failed").and_then(JsonValue::as_f64) != Some(0.0) {
            out.push(format!("set {label}: ops_failed is not 0"));
        }
    }
    let Some(JsonValue::Object(workloads)) = a.get("workloads") else {
        out.push("set A: no workloads".to_owned());
        return out;
    };
    for (workload, in_a) in workloads {
        let Some(in_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            out.push(format!("{workload}: missing from set B"));
            continue;
        };
        for key in ["fingerprint", "snapshot_fingerprint"] {
            let (fa, fb) = (
                in_a.get(key).and_then(JsonValue::as_str),
                in_b.get(key).and_then(JsonValue::as_str),
            );
            if fa.is_none() || fa != fb {
                out.push(format!("{workload}: {key} differs: {fa:?} vs {fb:?}"));
            }
        }
        for def in &schema::END_TO_END {
            let name = def.metric.name;
            match (
                metric_value(a, workload, name),
                metric_value(b, workload, name),
            ) {
                (Some(va), Some(vb)) => {
                    let gap = relative_gap(va, vb);
                    let verdict = if gap <= def.bound {
                        "agree"
                    } else {
                        "DISAGREE"
                    };
                    println!(
                        "{workload:<14} {name:<12} {va:>10.4} {vb:>10.4} {:>6.2} % (bound {:.0} %) {verdict}",
                        gap * 100.0,
                        def.bound * 100.0
                    );
                    if gap > def.bound {
                        out.push(format!(
                            "{workload}: {name} {va} vs {vb} is {:.1} % apart",
                            gap * 100.0
                        ));
                    }
                }
                (va, vb) => out.push(format!("{workload}: {name} missing: {va:?} vs {vb:?}")),
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (va, vb) = (
                metric_value(a, workload, m.name),
                metric_value(b, workload, m.name),
            );
            if va.is_none() || va != vb {
                out.push(format!(
                    "{workload}: exact metric {} differs: {va:?} vs {vb:?}",
                    m.name
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(run_s: f64, events: f64, failed: f64) -> JsonValue {
        let mut metrics = format!(
            "\"run_s\":{{\"value\":{run_s},\"unit\":\"s\"}},\"setup_s\":{{\"value\":0.2,\"unit\":\"s\"}},\
             \"peak_rss_mb\":{{\"value\":80.0,\"unit\":\"MB\"}}"
        );
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let v = if m.name == "sim.events" { events } else { 1.0 };
            metrics.push_str(&format!(
                ",\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                m.name, m.unit
            ));
        }
        let text = format!(
            "{{\"failed\":{failed},\"workloads\":{{\"busy_hour\":{{\"fingerprint\":\"ab\",\
             \"snapshot_fingerprint\":\"cd\",\"metrics\":{{{metrics}}}}}}}}}"
        );
        JsonValue::parse(&text).expect("test document parses")
    }

    /// `run_s` values this share of the bound apart.
    fn apart(share_of_bound: f64) -> f64 {
        1.0 + schema::END_TO_END[0].bound * share_of_bound
    }

    #[test]
    fn sets_within_the_bounds_agree() {
        assert_eq!(
            disagreements(&set(1.00, 5.0, 0.0), &set(apart(0.9), 5.0, 0.0)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_wide_timing_an_event_count_or_a_failure_disagrees() {
        assert_eq!(
            disagreements(&set(1.00, 5.0, 0.0), &set(apart(1.1), 5.0, 0.0)).len(),
            1
        );
        assert_eq!(
            disagreements(&set(1.00, 5.0, 0.0), &set(1.00, 6.0, 0.0)).len(),
            1
        );
        assert_eq!(
            disagreements(&set(1.00, 5.0, 1.0), &set(1.00, 5.0, 0.0)).len(),
            1
        );
    }

    #[test]
    fn the_gap_is_relative_to_the_smaller_value() {
        assert!((relative_gap(1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((relative_gap(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
    }
}
