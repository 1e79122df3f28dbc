//! Gates on the harness's artifacts: the diff direction of every KPI
//! and the schema of the committed `BENCH_*.json` cells.

use std::path::Path;

use vgprs_bench::diff::Thresholds;
use vgprs_bench::harness::{
    chaos_json, drain_capped_error, load_config_from, surge_json, Flags, RunDefaults,
};
use vgprs_load::kpi::{Snapshot, KPIS};
use vgprs_load::{run_load, LoadConfig, OverloadControls};
use vgprs_sim::JsonValue;

fn repo_file(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// For every KPI of the table, the direction `harness diff` applies to
/// each of its paths in a real report — the summary member, its
/// histogram statistics, and the copy in every snapshot frame — is the
/// row's. (Before the table supplied the direction,
/// `kpis.handoff_successes` rising read as a regression: the threshold
/// file's `handoff_success` fragment matched the raw counter only.)
#[test]
fn diff_direction_of_every_kpi_path_is_its_rows() {
    let thresholds = Thresholds::parse(&repo_file("diff-thresholds.toml")).expect("thresholds parse");
    let golden = JsonValue::parse(&repo_file("crates/load/tests/golden/load_report.json"))
        .expect("golden report parses");
    let paths: Vec<String> = golden.flatten().into_iter().map(|(p, _)| p).collect();
    for k in KPIS.iter().filter(|k| k.json) {
        let mut roots = vec![format!("kpis.{}", k.path)];
        if k.snapshot == Snapshot::Shown {
            roots.push(format!("snapshots.aggregate.{}", k.path));
            roots.push(format!("snapshots.frames.1.{}", k.path));
        }
        for root in roots {
            let under: Vec<&String> = paths
                .iter()
                .filter(|p| **p == root || p.starts_with(&format!("{root}.")))
                .collect();
            assert!(!under.is_empty(), "the golden report has no {root}");
            for path in under {
                assert_eq!(
                    thresholds.rule_for(path).direction,
                    k.direction,
                    "{path} is gated in the wrong direction"
                );
            }
        }
    }
}

fn first_cell_members(doc: &str) -> Vec<String> {
    let doc = JsonValue::parse(doc).expect("artifact parses");
    let cells = doc.get("cells").and_then(JsonValue::as_array).expect("cells array");
    match &cells[0] {
        JsonValue::Object(members) => members.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("cell is not an object: {other:?}"),
    }
}

/// A freshly emitted chaos / surge cell has exactly the members, in
/// order, of the cells in the committed artifacts — and the root holds
/// no other `BENCH_*.json`: an artifact no emitter here produces is a
/// stale number waiting to be quoted.
#[test]
fn emitted_cells_match_the_committed_bench_schema() {
    let cfg = LoadConfig {
        subscribers: 16,
        shards: 1,
        ..LoadConfig::default()
    };
    let report = run_load(&cfg);
    let emitted = [
        ("BENCH_chaos.json", chaos_json(&cfg, &[("baseline", 0.0, report.clone())])),
        ("BENCH_surge.json", surge_json(&cfg, OverloadControls::standard(), &[(0.0, false, report)])),
    ];
    for (file, doc) in &emitted {
        assert_eq!(first_cell_members(doc), first_cell_members(&repo_file(file)), "{file}");
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut committed: Vec<String> = std::fs::read_dir(&root)
        .expect("repo root lists")
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    committed.sort();
    assert_eq!(committed, emitted.map(|(file, _)| file), "root BENCH_*.json vs emitters");
}

/// `harness load` exits non-zero exactly when this returns a complaint:
/// a drained run has none, and the same report carrying either of the
/// engine's backstop counters — `load.event_capped`, `load.drain_capped`
/// — has one naming the counter and its count.
#[test]
fn a_drain_capped_report_takes_the_failing_exit() {
    let mut cfg = LoadConfig { subscribers: 16, shards: 2, ..LoadConfig::default() };
    cfg.population.window_secs = 10;
    let mut report = run_load(&cfg);
    assert_eq!(drain_capped_error(&report), None, "a small plain run must drain");
    assert_eq!(report.stats.counter("load.event_capped"), 0);
    report.stats.count_by("load.event_capped", 3);
    let complaint = drain_capped_error(&report).expect("an event-capped run must fail");
    assert!(complaint.contains("load.event_capped = 3"), "{complaint}");
    report.stats.count_by("load.drain_capped", 2);
    let complaint = drain_capped_error(&report).expect("a capped run must fail");
    assert!(complaint.contains("load.drain_capped = 2"), "{complaint}");
}

/// `--threads` is accepted for old scripts and selects nothing: the
/// configuration it yields is the one the bare command line yields.
#[test]
fn the_threads_flag_changes_no_configuration() {
    let config = |args: &[&str]| {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        format!("{:?}", load_config_from(&Flags(&args), &RunDefaults::default()))
    };
    assert_eq!(config(&["--seed", "7", "--threads", "8"]), config(&["--seed", "7"]));
}

/// A subcommand that moved out (`cargo test` holds the determinism
/// contract, `benchmark/` the timings) is an unknown experiment like any
/// other: exit 2, and the message names only commands that exist. The
/// sweeps refuse the `--check` they used to take rather than run and
/// overwrite their committed artifact.
#[test]
fn an_unknown_experiment_lists_the_commands_that_exist() {
    let harness = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("harness runs");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let (code, message) = harness(&["bench"]);
    assert_eq!(code, Some(2), "{message}");
    assert!(message.contains("load, capacity, chaos, surge, diff or all"), "{message}");
    for sweep in ["chaos", "surge"] {
        let (code, message) = harness(&[sweep, "--check"]);
        assert_eq!(code, Some(2), "harness {sweep} --check: {message}");
    }
}
