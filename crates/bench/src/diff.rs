//! `harness diff`: structural KPI comparison of two report dumps.
//!
//! Compares two `LoadReport::to_json` / `BENCH_*.json` documents
//! path-by-path (dotted JSON paths, [`vgprs_sim::JsonValue::flatten`])
//! against the per-KPI absolute/relative tolerances of [`RULES`]. Runs
//! are bit-identical for a configuration and seed, so the tolerances
//! matter only when two different worlds are compared: two commits, two
//! seeds, two workloads.
//!
//! Semantics:
//!
//! * Numeric leaves compare within `tol = max(abs, rel * |baseline|)`,
//!   directionally — a KPI marked `higher_is_worse` only *regresses*
//!   upward (a drop is an improvement), and vice versa. The direction
//!   of a path the KPI table (`vgprs_load::kpi`) covers comes from its
//!   row; [`RULES`] supplies tolerances, and directions only for paths
//!   the table does not know.
//! * A path present in the baseline but missing from the candidate is
//!   a **regression** (a dropped KPI field is exactly the silent
//!   breakage a comparison must not pass); an extra candidate path is a
//!   warning.
//! * Known-nondeterministic paths (wall clock, throughput,
//!   fingerprints, `meta`, raw counter/histogram dumps) are skipped.

use std::fmt::Write as _;

use vgprs_load::kpi;
pub use vgprs_load::kpi::Direction;
use vgprs_sim::{IdMap, IdSet, JsonValue, JsonWriter};

/// One threshold rule: tolerance plus direction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rule {
    /// Absolute tolerance.
    pub abs: f64,
    /// Relative tolerance (fraction of the baseline magnitude).
    pub rel: f64,
    /// Which way a change regresses.
    pub direction: Direction,
}

/// The rule of a path no [`RULES`] key matches.
pub const DEFAULT: Rule = Rule {
    abs: 1e-9,
    rel: 0.20,
    direction: Direction::HigherIsWorse,
};

/// [`DEFAULT`] with other tolerances.
const fn tol(abs: f64, rel: f64) -> Rule {
    Rule { abs, rel, ..DEFAULT }
}

/// A rule for a delivered volume that shrinks when things get worse.
const fn volume(abs: f64, rel: f64) -> Rule {
    Rule {
        direction: Direction::LowerIsWorse,
        ..tol(abs, rel)
    }
}

/// Per-KPI tolerances, keyed by a path fragment: a key matches a dotted
/// path as a run of whole segments ([`kpi::has_run`]), so one `mos`
/// entry governs `kpis.mos` and every `snapshots.frames.N.mos` alike.
/// The first match wins, so the table is in precedence order: longest
/// key first.
///
/// Same-seed reruns are bit-identical, so these exist for comparisons
/// across commits, seeds and workloads: keep them tight.
pub const RULES: &[(&str, Rule)] = &[
    // Raw frame counters with no KPI row of their own.
    ("voice_frames_received", volume(16.0, 0.05)),
    // The raw frame counter `load.handoff_success`; the KPI
    // `handoff_successes` rides the default.
    ("handoff_success", tol(2.0, 0.05)),
    // Rates over small denominators, per frame and in aggregate, are
    // noisier than the end-of-run KPI: absolute slack.
    ("blocking_rate", tol(0.01, 0.25)),
    ("rtp_received", volume(16.0, 0.05)),
    ("reject_rate", tol(0.01, 0.25)),
    ("frame_loss", tol(0.005, 0.25)),
    // Offered load moving either way is a workload change, not a
    // quality regression; still bound it.
    ("attempts", tol(4.0, 0.10)),
    // Integer counters in snapshot frames: a few events of slack, so
    // one boundary-straddling call does not read as a regression.
    ("counters", tol(4.0, 0.25)),
    ("count", tol(4.0, 0.20)),
    // Delay statistics: histogram buckets quantize to ~4 % steps.
    ("mean", tol(2.0, 0.15)),
    ("mos", tol(0.05, 0.0)),
    ("p50", tol(2.0, 0.15)),
    ("p99", tol(2.0, 0.25)),
];

/// The rule governing a dotted path: tolerances from the first
/// [`RULES`] key that matches it, else [`DEFAULT`]; direction from the
/// KPI table row covering the path, when there is one.
pub fn rule_for(path: &str) -> Rule {
    let mut rule = RULES
        .iter()
        .find(|(key, _)| kpi::has_run(path, key))
        .map_or(DEFAULT, |&(_, rule)| rule);
    if let Some(row) = kpi::for_path(path) {
        rule.direction = row.direction;
    }
    rule
}

/// The outcome of one compared path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Within tolerance (including bit-identical).
    Ok,
    /// Moved beyond tolerance in the *good* direction.
    Improved,
    /// Moved beyond tolerance in the regression direction.
    Regressed,
    /// Present in the baseline, missing from the candidate.
    Missing,
    /// Present in the candidate only (informational).
    Extra,
    /// Non-numeric leaf whose value changed (informational).
    Changed,
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Dotted JSON path.
    pub path: String,
    /// Baseline value (numeric leaves).
    pub a: Option<f64>,
    /// Candidate value (numeric leaves).
    pub b: Option<f64>,
    /// The verdict.
    pub status: Status,
}

/// The full comparison result.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Every compared path, in baseline order (extras appended).
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Paths that regressed or went missing — the comparison's failures.
    pub fn failures(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows
            .iter()
            .filter(|r| matches!(r.status, Status::Regressed | Status::Missing))
    }

    /// True when no path regressed or disappeared.
    pub fn passed(&self) -> bool {
        self.failures().next().is_none()
    }

    fn count(&self, status: Status) -> usize {
        self.rows.iter().filter(|r| r.status == status).count()
    }

    /// The human-readable table: every non-Ok row plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<52} {:>14} {:>14} {:>10}",
            "path", "baseline", "candidate", "verdict"
        );
        for row in &self.rows {
            if row.status == Status::Ok {
                continue;
            }
            let verdict = match row.status {
                Status::Ok => "ok",
                Status::Improved => "improved",
                Status::Regressed => "REGRESSED",
                Status::Missing => "MISSING",
                Status::Extra => "extra",
                Status::Changed => "changed",
            };
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.6}"),
                None => "-".to_owned(),
            };
            let _ = writeln!(
                out,
                "  {:<52} {:>14} {:>14} {:>10}",
                row.path,
                fmt(row.a),
                fmt(row.b),
                verdict
            );
        }
        let _ = writeln!(
            out,
            "  {} paths: {} ok, {} improved, {} regressed, {} missing, {} extra, {} changed",
            self.rows.len(),
            self.count(Status::Ok),
            self.count(Status::Improved),
            self.count(Status::Regressed),
            self.count(Status::Missing),
            self.count(Status::Extra),
            self.count(Status::Changed),
        );
        out
    }

    /// The machine-readable result: the verdict and every non-Ok row.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("passed").bool(self.passed());
        w.key("rows").begin_array();
        for row in self.rows.iter().filter(|r| r.status != Status::Ok) {
            w.begin_inline_object().key("path").string(&row.path);
            for (name, value) in [("baseline", row.a), ("candidate", row.b)] {
                // An absent side prints like a non-finite one: `null`.
                w.key(name).f64(value.unwrap_or(f64::NAN));
            }
            w.key("status").string(&format!("{:?}", row.status)).end();
        }
        w.end().end();
        w.finish()
    }
}

/// Paths excluded from comparison: wall-clock and environment facts
/// that legitimately differ between runs, fingerprints (they change
/// whenever anything does and carry no thresholdable magnitude), and
/// the raw counter/histogram dumps (run-shape specific — the KPI
/// surface above them is the compared contract).
fn skipped(path: &str) -> bool {
    if path.starts_with("meta.")
        || path.starts_with("counters.")
        || path.starts_with("histograms.")
        || path == "threads"
    {
        return true;
    }
    path.split('.').any(|seg| {
        matches!(
            seg,
            "wall_secs" | "events_per_sec" | "fingerprint" | "git" | "threads"
        )
    })
}

/// Compares candidate `b` against baseline `a` under [`rule_for`].
pub fn compare(a: &JsonValue, b: &JsonValue) -> DiffReport {
    let flat_a = a.flatten();
    let flat_b = b.flatten();
    let lookup: IdMap<&str, &JsonValue> = flat_b
        .iter()
        .map(|(p, v)| (p.as_str(), *v))
        .collect();
    let mut report = DiffReport::default();
    let mut seen: IdSet<&str> = IdSet::default();
    for (path, va) in &flat_a {
        if skipped(path) {
            continue;
        }
        seen.insert(path.as_str());
        let Some(vb) = lookup.get(path.as_str()) else {
            report.rows.push(DiffRow {
                path: path.clone(),
                a: va.as_f64(),
                b: None,
                status: Status::Missing,
            });
            continue;
        };
        let status = match (va.as_f64(), vb.as_f64()) {
            (Some(x), Some(y)) => {
                let rule = rule_for(path);
                let tol = rule.abs.max(rule.rel * x.abs());
                if (y - x).abs() <= tol {
                    Status::Ok
                } else {
                    let worse = match rule.direction {
                        Direction::HigherIsWorse => y > x,
                        Direction::LowerIsWorse => y < x,
                    };
                    if worse {
                        Status::Regressed
                    } else {
                        Status::Improved
                    }
                }
            }
            // Non-numeric leaves (strings, bools, nulls): equality only.
            _ => {
                if va == vb {
                    Status::Ok
                } else {
                    Status::Changed
                }
            }
        };
        report.rows.push(DiffRow {
            path: path.clone(),
            a: va.as_f64(),
            b: vb.as_f64(),
            status,
        });
    }
    for (path, vb) in &flat_b {
        if skipped(path) || seen.contains(path.as_str()) {
            continue;
        }
        report.rows.push(DiffRow {
            path: path.clone(),
            a: None,
            b: vb.as_f64(),
            status: Status::Extra,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(blocking: f64, mos: f64, p99: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"kpis": {{"attempts": 100, "blocking_rate": {blocking}, "mos": {mos},
                 "handoff_interruption_ms": {{"count": 7, "p99": {p99}}}}},
                "wall_secs": 1.5}}"#
        ))
        .expect("synthetic report parses")
    }

    #[test]
    fn identical_reports_pass() {
        let a = report(0.02, 4.1, 180.0);
        let d = compare(&a, &a);
        assert!(d.passed(), "{}", d.render());
        assert!(d.rows.iter().all(|r| r.status == Status::Ok));
    }

    #[test]
    fn blocking_regression_flags() {
        // Doubled blocking: past the rule's 0.01 absolute slack.
        let d = compare(&report(0.02, 4.1, 180.0), &report(0.04, 4.1, 180.0));
        assert!(!d.passed());
        let failing: Vec<&str> = d.failures().map(|r| r.path.as_str()).collect();
        assert_eq!(failing, vec!["kpis.blocking_rate"]);
    }

    #[test]
    fn mos_drop_flags_and_mos_gain_passes() {
        let d = compare(&report(0.02, 4.1, 180.0), &report(0.02, 3.6, 180.0));
        assert!(!d.passed(), "MOS -0.5 must regress");
        let d = compare(&report(0.02, 4.1, 180.0), &report(0.02, 4.4, 180.0));
        assert!(d.passed(), "a MOS gain is an improvement, not a failure");
        assert!(d.rows.iter().any(|r| r.status == Status::Improved));
    }

    #[test]
    fn p99_doubling_flags() {
        let d = compare(&report(0.02, 4.1, 180.0), &report(0.02, 4.1, 360.0));
        assert!(!d.passed());
        assert!(d
            .failures()
            .any(|r| r.path == "kpis.handoff_interruption_ms.p99"));
    }

    #[test]
    fn jitter_within_thresholds_passes() {
        // +5% blocking, -0.03 MOS, +10% p99: all inside tolerance.
        let d = compare(&report(0.0200, 4.10, 180.0), &report(0.0210, 4.07, 198.0));
        assert!(d.passed(), "{}", d.render());
    }

    #[test]
    fn missing_fields_fail_and_extra_fields_warn() {
        let a = JsonValue::parse(r#"{"kpis": {"mos": 4.1, "blocking_rate": 0.02}}"#).unwrap();
        let b = JsonValue::parse(r#"{"kpis": {"mos": 4.1, "new_kpi": 1.0}}"#).unwrap();
        let d = compare(&a, &b);
        assert!(!d.passed(), "a dropped KPI field must fail the comparison");
        assert!(d
            .rows
            .iter()
            .any(|r| r.path == "kpis.blocking_rate" && r.status == Status::Missing));
        assert!(d
            .rows
            .iter()
            .any(|r| r.path == "kpis.new_kpi" && r.status == Status::Extra));
    }

    #[test]
    fn nondeterministic_paths_are_skipped() {
        let a = JsonValue::parse(
            r#"{"wall_secs": 1.0, "events_per_sec": 100.0, "threads": 1,
                "fingerprint": "aa", "meta": {"git": "x"}, "kpis": {"mos": 4.0}}"#,
        )
        .unwrap();
        let b = JsonValue::parse(
            r#"{"wall_secs": 9.0, "events_per_sec": 5.0, "threads": 8,
                "fingerprint": "bb", "meta": {"git": "y"}, "kpis": {"mos": 4.0}}"#,
        )
        .unwrap();
        let d = compare(&a, &b);
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.rows.len(), 1, "only kpis.mos is compared");
    }

    #[test]
    fn threshold_fragments_cover_snapshot_frames() {
        let tolerances = |path| {
            let r = rule_for(path);
            (r.abs, r.rel)
        };
        assert_eq!(
            tolerances("snapshots.aggregate.attempts"),
            (4.0, 0.10),
            "fragment keys reach nested rows"
        );
        assert_eq!(tolerances("snapshots.frames.2.frame_loss"), (0.005, 0.25));
        assert_eq!(
            tolerances("kpis.handoff_successes"),
            (DEFAULT.abs, DEFAULT.rel),
            "whole segments only"
        );
    }

    /// The first matching key wins, so a longer key must come first: the
    /// raw counter under a frame's `counters` takes `rtp_received`'s
    /// rule, not the shorter `counters` one.
    #[test]
    fn rules_are_in_precedence_order() {
        assert!(
            RULES.windows(2).all(|w| w[0].0.len() >= w[1].0.len()),
            "RULES must list longer keys first"
        );
        use Direction::{HigherIsWorse as Higher, LowerIsWorse as Lower};
        let rule = |abs, rel, direction| Rule { abs, rel, direction };
        for (path, want) in [
            ("kpis.mos", rule(0.05, 0.0, Lower)),
            ("snapshots.frames.3.mos", rule(0.05, 0.0, Lower)),
            ("kpis.setup_delay_ms.p99", rule(2.0, 0.25, Higher)),
            (
                "snapshots.frames.1.counters.term.rtp_received",
                rule(16.0, 0.05, Lower),
            ),
            ("subscribers", rule(1e-9, 0.20, Higher)),
        ] {
            assert_eq!(rule_for(path), want, "{path}");
        }
    }

    #[test]
    fn diff_json_is_wellformed() {
        let d = compare(&report(0.02, 4.1, 180.0), &report(0.04, 4.1, 180.0));
        let doc = JsonValue::parse(&d.to_json()).expect("diff JSON parses");
        assert_eq!(
            doc.get("passed"),
            Some(&JsonValue::Bool(false)),
            "regression reflected in JSON"
        );
    }
}
