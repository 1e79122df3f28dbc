//! Gates on the harness's artifacts: the diff direction of every KPI,
//! the schema of the committed `BENCH_*.json` cells, and the flags and
//! values the binary refuses.

use std::path::Path;

use vgprs_bench::diff::rule_for;
use vgprs_bench::harness::{chaos_json, drain_capped_error, surge_json};
use vgprs_load::kpi::{Snapshot, KPIS};
use vgprs_load::{run_load, LoadConfig, OverloadControls};
use vgprs_sim::JsonValue;

fn repo_file(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// A real report dump: the golden file of `crates/load/tests/golden.rs`.
const GOLDEN: &str = "crates/load/tests/golden/load_report.json";

/// For every KPI of the table, the direction `harness diff` applies to
/// each of its paths in a real report — the summary member, its
/// histogram statistics, and the copy in every snapshot frame — is the
/// row's. (Before the table supplied the direction,
/// `kpis.handoff_successes` rising read as a regression: the
/// `handoff_success` fragment matched the raw counter only.)
#[test]
fn diff_direction_of_every_kpi_path_is_its_rows() {
    let golden = JsonValue::parse(&repo_file(GOLDEN)).expect("golden report parses");
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
                    rule_for(path).direction,
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

/// The engine takes every core itself (one crew per run), so no
/// configuration carries a thread count: every subcommand that reads
/// the shared flags refuses `--threads` with a usage error naming it,
/// rather than run.
#[test]
fn the_threads_flag_changes_no_configuration() {
    for sub in ["load", "chaos", "surge"] {
        let (code, message) = harness(&[sub, "--threads", "2"]);
        assert_eq!(code, Some(2), "harness {sub} --threads 2: {message}");
        assert!(message.contains("has no flag --threads"), "{message}");
    }
}

/// Runs the harness binary; its exit code and stderr.
fn harness(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("harness runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// A flag value the model cannot run is refused before anything runs:
/// `--rate inf` used to leave no gap between a subscriber's arrivals,
/// and the run never ended; `--rate 1e300` planned arrivals until the
/// host's memory ran out. Exit 2, naming the flag; the child is killed
/// at the deadline, so a lost refusal fails this test rather than hangs
/// it.
#[test]
fn a_value_the_model_cannot_run_exits_2_naming_its_flag() {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};
    for (args, flag) in [
        (&["load", "--subscribers", "4", "--rate", "inf"][..], "--rate"),
        (&["load", "--subscribers", "4", "--rate", "1e300"], "--rate"),
        (&["surge", "--subscribers", "4", "--gk-shed", "nan"], "--gk-shed"),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("harness starts");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("harness waits") {
                break status;
            }
            if Instant::now() > deadline {
                child.kill().expect("harness is killed");
                child.wait().expect("harness is reaped");
                panic!("harness {} still ran after 10 s", args.join(" "));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().expect("piped"), &mut stderr)
            .expect("stderr reads");
        assert_eq!(status.code(), Some(2), "harness {}: {stderr}", args.join(" "));
        assert!(stderr.contains(flag), "{stderr}");
    }
}

/// A subcommand that moved out (`cargo test` holds the determinism
/// contract, `benchmark/` the timings) or went (the capacity knee search)
/// is an unknown experiment like any other: exit 2, and the message
/// names only commands that exist. The
/// sweeps refuse the `--check` they used to take rather than run and
/// overwrite their committed artifact.
#[test]
fn an_unknown_experiment_lists_the_commands_that_exist() {
    for gone in ["bench", "capacity"] {
        let (code, message) = harness(&[gone]);
        assert_eq!(code, Some(2), "harness {gone}: {message}");
        assert!(message.contains("load, chaos, surge, diff or all"), "{message}");
    }
    for sweep in ["chaos", "surge"] {
        let (code, message) = harness(&[sweep, "--check"]);
        assert_eq!(code, Some(2), "harness {sweep} --check: {message}");
    }
}

/// `harness diff` compares two dumps and takes one flag: a report
/// against itself passes, one operand is a usage error, and `--check`
/// is refused like any flag its usage entry does not name.
#[test]
fn harness_diff_takes_two_dumps_and_no_check() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(GOLDEN);
    let golden = golden.to_str().expect("a UTF-8 path");
    let (code, message) = harness(&["diff", golden, golden]);
    assert_eq!(code, Some(0), "{message}");
    let (code, message) = harness(&["diff", golden]);
    assert_eq!(code, Some(2), "{message}");
    let (code, message) = harness(&["diff", "--check"]);
    assert_eq!(code, Some(2), "{message}");
    assert!(message.contains("has no flag --check"), "{message}");
}
