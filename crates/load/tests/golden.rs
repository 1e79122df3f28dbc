//! Golden-file tests for [`LoadReport::to_json`] and
//! [`LoadReport::render_deterministic`].
//!
//! The committed `tests/golden/load_report.json` is the dump of one
//! small fixed-seed run. The test re-runs that configuration, parses
//! both documents with the in-tree JSON parser and compares them
//! field-by-field: every dotted path must exist on both sides and every
//! deterministic value must match exactly. Only the two wall-clock
//! figures (`wall_secs`, `events_per_sec`) are value-exempt — their
//! *presence* is still required. With those two lines masked the
//! documents must then agree byte for byte, which also pins the numeric
//! rendering (`1` and `1.0` parse alike) and the layout.
//! `tests/golden/load_report.txt` pins the text report of the same run
//! the same way — that text feeds the run fingerprint.
//!
//! This pins the artifact contract that `harness diff` and any
//! downstream tooling parse: an accidental rename,
//! dropped field or changed numeric rendering fails here first, with
//! the offending path in the message.
//!
//! After an *intentional* schema or KPI change, regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p vgprs-load --test golden` and commit
//! the refreshed files alongside the change.

use vgprs_load::{run_load, run_load_with, CallMix, LoadConfig, PopulationConfig, Registration};
use vgprs_sim::JsonValue;

/// Paths whose values legitimately differ between runs. Everything else
/// in the dump is a pure function of this configuration.
fn value_exempt(path: &str) -> bool {
    path == "wall_secs" || path == "events_per_sec"
}

fn golden_cfg() -> LoadConfig {
    LoadConfig {
        subscribers: 48,
        shards: 2,
        seed: 42,
        snapshot_secs: 30,
        population: PopulationConfig {
            calls_per_sub_hour: 40.0,
            mean_hold_secs: 15.0,
            window_secs: 60,
            mix: CallMix {
                mo: 0.4,
                mt: 0.4,
                m2m: 0.2,
            },
            mobility_fraction: 0.15,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    }
}

/// The committed golden file `name`, or `None` after rewriting it from
/// `fresh` because `UPDATE_GOLDEN` is set.
fn golden_or_update(name: &str, fresh: &str) -> Option<String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        std::fs::write(&path, fresh).expect("write golden file");
        eprintln!("golden file regenerated: {}", path.display());
        return None;
    }
    Some(std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    }))
}

/// The document without its two wall-clock lines.
fn masked(json: &str) -> String {
    json.lines()
        .filter(|l| !value_exempt(l.trim_start().split('"').nth(1).unwrap_or("")))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn report_text_matches_the_committed_golden_file() {
    let fresh = run_load(&golden_cfg()).render_deterministic();
    if let Some(golden) = golden_or_update("load_report.txt", &fresh) {
        assert_eq!(fresh, golden, "the deterministic text report moved");
    }
}

#[test]
fn report_json_matches_the_committed_golden_file() {
    let fresh_text = run_load(&golden_cfg()).to_json();
    let Some(golden_text) = golden_or_update("load_report.json", &fresh_text) else {
        return;
    };
    let golden = JsonValue::parse(&golden_text).expect("golden file parses");
    let fresh = JsonValue::parse(&fresh_text).expect("fresh report parses");

    let flat_golden = golden.flatten();
    let flat_fresh = fresh.flatten();
    let fresh_map: std::collections::HashMap<&str, &JsonValue> = flat_fresh
        .iter()
        .map(|(p, v)| (p.as_str(), *v))
        .collect();
    let golden_map: std::collections::HashMap<&str, &JsonValue> = flat_golden
        .iter()
        .map(|(p, v)| (p.as_str(), *v))
        .collect();

    let mut problems = Vec::new();
    for (p, golden_value) in &flat_golden {
        match fresh_map.get(p.as_str()) {
            None => problems.push(format!("missing from fresh report: {p}")),
            Some(fresh_value) if !value_exempt(p) && *fresh_value != *golden_value => {
                problems.push(format!(
                    "value changed at {p}: golden {golden_value:?} != fresh {fresh_value:?}"
                ));
            }
            Some(_) => {}
        }
    }
    for (p, _) in &flat_fresh {
        if !golden_map.contains_key(p.as_str()) {
            problems.push(format!("new path not in golden file: {p}"));
        }
    }
    assert!(
        problems.is_empty(),
        "report JSON drifted from the golden schema ({} problem(s); regenerate \
         with UPDATE_GOLDEN=1 only if the change is intentional):\n  {}",
        problems.len(),
        problems.join("\n  ")
    );
    assert_eq!(
        masked(&fresh_text),
        masked(&golden_text),
        "same values, different bytes: number rendering or layout moved"
    );
}

/// Voice in trains moved the golden files' kernel census and event
/// count alone: frame by frame (the oracle), the run keeps the identity
/// the files had before, `11e1470b64b8f206` over 12 921 events.
#[test]
fn frame_by_frame_the_golden_run_keeps_its_identity() {
    let oracle = run_load_with(&golden_cfg(), 1, Registration::Provision, |shard| {
        shard.set_voice_trains(false)
    });
    assert_eq!((oracle.fingerprint(), oracle.events), (0x11e1_470b_64b8_f206, 12_921));
}

/// The golden configuration must exercise the interesting parts of the
/// schema — a vacuous golden file (no snapshots, no calls) would pin
/// nothing.
#[test]
fn golden_run_is_not_vacuous() {
    let r = run_load(&golden_cfg());
    assert!(r.attempts() > 0, "golden run produced no call attempts");
    assert!(
        r.snapshots.len() >= 2,
        "golden run produced {} snapshot frame(s); the schema's frames \
         array needs at least 2",
        r.snapshots.len()
    );
    assert!(r.kpi("voice_delay_ms.count") > 0.0, "golden run carried no voice");
}
