//! `harness diff`: structural KPI comparison of two report dumps.
//!
//! Compares two `LoadReport::to_json` / `BENCH_*.json` documents
//! path-by-path (dotted JSON paths, [`vgprs_sim::JsonValue::flatten`])
//! against per-KPI absolute/relative thresholds loaded from a
//! TOML-subset file (`diff-thresholds.toml`). The comparison is the
//! enforceable half of the observability layer: `scripts/verify.sh`
//! runs a fresh small-population load and diffs it against the
//! committed baseline, turning the BENCH trajectory into a gate
//! instead of a pile of snapshots.
//!
//! Semantics:
//!
//! * Numeric leaves compare within `tol = max(abs, rel * |baseline|)`,
//!   directionally — a KPI marked `higher_is_worse` only *regresses*
//!   upward (a drop is an improvement), and vice versa. The direction
//!   of a path the KPI table (`vgprs_load::kpi`) covers comes from its
//!   row; the threshold file supplies tolerances, and directions only
//!   for paths the table does not know.
//! * A path present in the baseline but missing from the candidate is
//!   a **regression** (a dropped KPI field is exactly the silent
//!   breakage the gate exists to catch); an extra candidate path is a
//!   warning.
//! * Known-nondeterministic paths (wall clock, throughput,
//!   fingerprints, `meta`, raw counter/histogram dumps) are skipped.

use std::fmt::Write as _;

use vgprs_load::kpi;
pub use vgprs_load::kpi::Direction;
use vgprs_sim::{IdMap, IdSet, JsonValue, JsonWriter};

/// One threshold rule: tolerance plus direction.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Absolute tolerance.
    pub abs: f64,
    /// Relative tolerance (fraction of the baseline magnitude).
    pub rel: f64,
    /// Which way a change regresses.
    pub direction: Direction,
}

impl Default for Rule {
    fn default() -> Self {
        Rule {
            abs: 1e-9,
            rel: 0.20,
            direction: Direction::HigherIsWorse,
        }
    }
}

/// The parsed `diff-thresholds.toml`: a default rule plus per-KPI
/// overrides keyed by path fragments.
#[derive(Clone, Debug, Default)]
pub struct Thresholds {
    /// Applied when no per-KPI key matches.
    pub default: Rule,
    /// `(key, rule)` overrides, most specific (longest key) first.
    pub per_kpi: Vec<(String, Rule)>,
}

impl Thresholds {
    /// Parses the TOML subset the repo uses (the workspace is hermetic,
    /// so no toml crate): `[default]` and `[kpi."KEY"]` sections with
    /// `abs = <float>`, `rel = <float>` and
    /// `direction = "higher_is_worse" | "lower_is_worse"` assignments,
    /// `#` comments, blank lines.
    pub fn parse(text: &str) -> Result<Thresholds, String> {
        let mut out = Thresholds::default();
        // None = before any section; Some(None) = [default];
        // Some(Some(i)) = the i-th per-KPI rule.
        let mut section: Option<Option<usize>> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("{msg} at line {}: {raw:?}", lineno + 1);
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                if header == "default" {
                    section = Some(None);
                } else if let Some(key) = header
                    .strip_prefix("kpi.\"")
                    .and_then(|h| h.strip_suffix('"'))
                {
                    // Per-KPI rules inherit the default as parsed so far.
                    out.per_kpi.push((key.to_owned(), out.default));
                    section = Some(Some(out.per_kpi.len() - 1));
                } else {
                    return Err(err("unknown section"));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err("expected `key = value`"));
            };
            let (key, value) = (key.trim(), value.trim());
            let rule = match section {
                None => return Err(err("assignment before any section")),
                Some(None) => &mut out.default,
                Some(Some(i)) => &mut out.per_kpi[i].1,
            };
            // A NaN or negative tolerance makes every comparison false:
            // nothing regresses and an unchanged report "improves".
            let tolerance = || match value.parse::<f64>() {
                Ok(t) if t.is_finite() && t >= 0.0 => Ok(t),
                _ => Err(err("tolerance must be a finite, non-negative float")),
            };
            match key {
                "abs" => rule.abs = tolerance()?,
                "rel" => rule.rel = tolerance()?,
                "direction" => {
                    rule.direction = match value.trim_matches('"') {
                        "higher_is_worse" => Direction::HigherIsWorse,
                        "lower_is_worse" => Direction::LowerIsWorse,
                        _ => return Err(err("unknown direction")),
                    };
                }
                _ => return Err(err("unknown key")),
            }
        }
        // Longest key first, so the most specific override wins.
        out.per_kpi.sort_by_key(|k| std::cmp::Reverse(k.0.len()));
        Ok(out)
    }

    /// The rule governing a dotted path: tolerances from the longest
    /// per-KPI key that matches it (exactly, as a `.`-delimited
    /// suffix/prefix, or as an interior segment run), else the default;
    /// direction from the KPI table row covering the path, when there
    /// is one. Fragment matching is what lets one `[kpi."mos"]` entry
    /// govern `kpis.mos` and every `snapshots.frames.N.mos` alike.
    pub fn rule_for(&self, path: &str) -> Rule {
        let mut rule = self
            .per_kpi
            .iter()
            .find(|(key, _)| kpi::has_run(path, key))
            .map_or(self.default, |(_, rule)| *rule);
        if let Some(row) = kpi::for_path(path) {
            rule.direction = row.direction;
        }
        rule
    }
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
    /// Paths that regressed or went missing — the gate's failures.
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
/// surface above them is the gated contract).
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

/// Compares candidate `b` against baseline `a` under `thresholds`.
pub fn compare(a: &JsonValue, b: &JsonValue, thresholds: &Thresholds) -> DiffReport {
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
                let rule = thresholds.rule_for(path);
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

    const THRESHOLDS: &str = r#"
# test thresholds
[default]
abs = 1e-9
rel = 0.20
direction = "higher_is_worse"

[kpi."mos"]
direction = "lower_is_worse"
abs = 0.05
rel = 0.0

[kpi."attempts"]
abs = 5
rel = 0.10
"#;

    fn report(blocking: f64, mos: f64, p99: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"kpis": {{"attempts": 100, "blocking_rate": {blocking}, "mos": {mos},
                 "handoff_interruption_ms": {{"count": 7, "p99": {p99}}}}},
                "wall_secs": 1.5}}"#
        ))
        .expect("synthetic report parses")
    }

    fn thresholds() -> Thresholds {
        Thresholds::parse(THRESHOLDS).expect("test thresholds parse")
    }

    #[test]
    fn identical_reports_pass() {
        let a = report(0.02, 4.1, 180.0);
        let d = compare(&a, &a, &thresholds());
        assert!(d.passed(), "{}", d.render());
        assert!(d.rows.iter().all(|r| r.status == Status::Ok));
    }

    #[test]
    fn blocking_regression_flags() {
        // +50% blocking: well past the 20% relative default.
        let d = compare(&report(0.02, 4.1, 180.0), &report(0.03, 4.1, 180.0), &thresholds());
        assert!(!d.passed());
        let failing: Vec<&str> = d.failures().map(|r| r.path.as_str()).collect();
        assert_eq!(failing, vec!["kpis.blocking_rate"]);
    }

    #[test]
    fn mos_drop_flags_and_mos_gain_passes() {
        let t = thresholds();
        let d = compare(&report(0.02, 4.1, 180.0), &report(0.02, 3.6, 180.0), &t);
        assert!(!d.passed(), "MOS -0.5 must regress");
        let d = compare(&report(0.02, 4.1, 180.0), &report(0.02, 4.4, 180.0), &t);
        assert!(d.passed(), "a MOS gain is an improvement, not a failure");
        assert!(d.rows.iter().any(|r| r.status == Status::Improved));
    }

    #[test]
    fn p99_doubling_flags() {
        let d = compare(&report(0.02, 4.1, 180.0), &report(0.02, 4.1, 360.0), &thresholds());
        assert!(!d.passed());
        assert!(d
            .failures()
            .any(|r| r.path == "kpis.handoff_interruption_ms.p99"));
    }

    #[test]
    fn jitter_within_thresholds_passes() {
        // +5% blocking, -0.03 MOS, +10% p99: all inside tolerance.
        let d = compare(
            &report(0.0200, 4.10, 180.0),
            &report(0.0210, 4.07, 198.0),
            &thresholds(),
        );
        assert!(d.passed(), "{}", d.render());
    }

    #[test]
    fn missing_fields_fail_and_extra_fields_warn() {
        let a = JsonValue::parse(r#"{"kpis": {"mos": 4.1, "blocking_rate": 0.02}}"#).unwrap();
        let b = JsonValue::parse(r#"{"kpis": {"mos": 4.1, "new_kpi": 1.0}}"#).unwrap();
        let d = compare(&a, &b, &thresholds());
        assert!(!d.passed(), "a dropped KPI field must fail the gate");
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
        let d = compare(&a, &b, &thresholds());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.rows.len(), 1, "only kpis.mos is compared");
    }

    #[test]
    fn threshold_fragments_cover_snapshot_frames() {
        let t = thresholds();
        assert_eq!(t.rule_for("kpis.mos").direction, Direction::LowerIsWorse);
        assert_eq!(
            t.rule_for("snapshots.frames.3.mos").direction,
            Direction::LowerIsWorse
        );
        assert_eq!(
            t.rule_for("snapshots.aggregate.attempts").abs,
            5.0,
            "fragment keys reach nested rows"
        );
        assert_eq!(t.rule_for("kpis.frame_loss").rel, 0.20, "default otherwise");
    }

    #[test]
    fn threshold_parser_rejects_garbage() {
        assert!(Thresholds::parse("abs = 1.0").is_err(), "no section");
        assert!(Thresholds::parse("[bogus]").is_err(), "unknown section");
        assert!(Thresholds::parse("[default]\nnope = 3").is_err(), "unknown key");
        assert!(
            Thresholds::parse("[default]\ndirection = \"sideways\"").is_err(),
            "unknown direction"
        );
        for bad in ["abs = nan", "rel = -1", "abs = inf", "rel = x"] {
            let e = Thresholds::parse(&format!("[default]\n{bad}")).expect_err(bad);
            assert!(e.contains("line 2"), "{bad}: {e}");
        }
    }

    #[test]
    fn diff_json_is_wellformed() {
        let d = compare(&report(0.02, 4.1, 180.0), &report(0.03, 4.1, 180.0), &thresholds());
        let doc = JsonValue::parse(&d.to_json()).expect("diff JSON parses");
        assert_eq!(
            doc.get("passed"),
            Some(&JsonValue::Bool(false)),
            "regression reflected in JSON"
        );
    }
}
