//! The repo benchmark: host time and memory of the population-scale load
//! engine on five fixed simulated worlds, plus an outside-in trace of
//! where that time goes. See `benchmark/README.md`.
//!
//! ```text
//! vgprs-benchmark                      every workload, both passes, tables
//! vgprs-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                      one workload, one result line
//! vgprs-benchmark --agree A.json B.json
//! options: --seed N (42)  --repeats R (15)  --quick  --out FILE
//! ```

mod agree;
mod child;
mod driver;
mod host;
mod jsonw;
mod micro;
mod runner;
mod schema;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use vgprs_sim::{JsonValue, Kernel};

use child::ChildSpec;
use host::Spread;
use jsonw::{hex, num, obj, text, to_string};
use runner::{layer_metrics, EndToEnd, Measured, Session, Stop};
use schema::{MetricDef, END_TO_END, PER_LAYER};
use workloads::Workload;

const DEFAULT_SEED: u64 = 42;
/// Repeats per workload when every workload runs in one command: enough
/// that two full sets taken minutes apart agree within the bounds on this
/// host, few enough that the command stays under 3 min in a slow phase;
/// see the noise policy in the README.
const DEFAULT_REPEATS: usize = 15;

struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn values(&self, flag: &str, n: usize) -> Option<&[String]> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1..at + 1 + n)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag, 1).map(|v| v[0].as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }
}

/// The directory that holds `BENCHMARK.json`: the working directory when
/// run as the one command from the repository root, its parent when run
/// from inside `benchmark/`.
fn find_root() -> Result<PathBuf, String> {
    [".", ".."]
        .iter()
        .map(PathBuf::from)
        .find(|dir| dir.join("BENCHMARK.json").is_file())
        .ok_or_else(|| {
            "BENCHMARK.json not found in . or ..: run from the repository root".to_owned()
        })
}

fn metric_json(def: &MetricDef, value: f64) -> (String, JsonValue) {
    (
        def.name.to_owned(),
        obj([("value", num(value)), ("unit", text(def.unit))]),
    )
}

/// The metrics object for the declared table, in declaration order. A
/// declared metric without a value is a failure, never a silent gap.
fn metrics_json<'a>(
    defs: impl Iterator<Item = &'a MetricDef>,
    values: &BTreeMap<&'static str, f64>,
    session: &mut Session,
    workload: &str,
) -> Vec<(String, JsonValue)> {
    let mut out = Vec::new();
    for def in defs {
        match values.get(def.name) {
            Some(v) => out.push(metric_json(def, *v)),
            None => session.tally.fail(format!(
                "{workload}: no value for declared metric {}",
                def.name
            )),
        }
    }
    out
}

fn spread_json(s: &Spread) -> JsonValue {
    obj([
        ("min", num(s.min)),
        ("median", num(s.median)),
        ("max", num(s.max)),
        ("n", num(s.n as f64)),
    ])
}

fn print_spread(name: &str, unit: &str, s: &Spread, metric: &str) {
    println!(
        "  {name:<12} min {:>9.4}  median {:>9.4}  max {:>9.4} {unit:<3} R={:<3} (metric: {metric})",
        s.min, s.median, s.max, s.n
    );
}

fn print_end_to_end(w: &Workload, e: &EndToEnd) {
    println!("workload {}: {}", w.name, w.why);
    print_spread("run_s", "s", &e.run_s, "min");
    print_spread("setup_s", "s", &e.setup_s, "min");
    print_spread("peak_rss_mb", "MB", &e.peak_rss_mb, "median");
}

fn print_identity(session: &Session, w: &Workload) {
    match session.identity_of(w) {
        Some(id) => println!("identity[{}]: {id}", w.name),
        None => println!("identity[{}]: none (no run succeeded)", w.name),
    }
}

fn print_calibration(session: &Session) -> Option<Spread> {
    let calib = Spread::of(&session.calib_ns)?;
    println!(
        "bench.calib_ns: min {:.0}  median {:.0}  max {:.0}  n={} (fixed loop; moves with the host only)",
        calib.min, calib.median, calib.max, calib.n
    );
    Some(calib)
}

fn print_layers(w: &Workload, values: &BTreeMap<&'static str, f64>) {
    println!("per-layer {}", w.name);
    for def in &PER_LAYER {
        if let Some(v) = values.get(def.name) {
            println!("  {:<32} {:>16.6} {}", def.name, v, def.unit);
        }
    }
}

/// One workload through the per-layer pass; the micro spans and the
/// calibration minimum are the caller's (they are per invocation).
fn layer_values(
    session: &mut Session,
    w: &'static Workload,
    m: &mut Measured,
    stop: Stop,
    traced_runs: usize,
    shared: &[(&'static str, f64)],
) -> BTreeMap<&'static str, f64> {
    session.trace(w, m, stop, traced_runs);
    let mut values = layer_metrics(w, session.quick, m).unwrap_or_default();
    values.extend(shared.iter().copied());
    if let Some(calib) = Spread::of(&session.calib_ns) {
        values.insert("bench.calib_ns", calib.min);
    }
    values
}

fn summary(session: &Session) -> Vec<(String, JsonValue)> {
    vec![
        (
            "correct".to_owned(),
            JsonValue::Bool(session.tally.failed == 0),
        ),
        (
            "attempted".to_owned(),
            num(session.tally.attempted.max(1) as f64),
        ),
        ("failed".to_owned(), num(session.tally.failed as f64)),
    ]
}

fn exit_code(session: &Session) -> ExitCode {
    if session.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload W --seed N --seconds S --trace 0|1`: one workload, and as
/// the last line of output one JSON object with the pass's metrics.
fn one_workload(
    args: &Args,
    w: &'static Workload,
    mut session: Session,
) -> Result<ExitCode, String> {
    let seconds: f64 = args.parsed("--seconds", 10.0)?;
    let traced = match args.parsed("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let quick_or = |stop| if session.quick { Stop::Rounds(1) } else { stop };
    let metrics = if traced {
        // Half the time goes to the untraced thread comparison; the
        // traced runs and the micro spans are fixed work on top.
        let stop = quick_or(Stop::Budget(Duration::from_secs_f64(seconds / 2.0)));
        let shared = micro::run_all();
        let mut measured = Measured::default();
        let values = layer_values(&mut session, w, &mut measured, stop, 3, &shared);
        print_layers(w, &values);
        metrics_json(PER_LAYER.iter(), &values, &mut session, w.name)
    } else {
        let stop = quick_or(Stop::Budget(Duration::from_secs_f64(seconds)));
        let measured = session.measure(&[w], stop).pop().unwrap_or_default();
        session.oracle(w);
        let values = match EndToEnd::of(&measured.own) {
            Some(e) => {
                print_end_to_end(w, &e);
                e.metrics()
            }
            None => BTreeMap::new(),
        };
        metrics_json(
            END_TO_END.iter().map(|d| &d.metric),
            &values,
            &mut session,
            w.name,
        )
    };
    print_identity(&session, w);
    print_calibration(&session);
    let mut line = summary(&session);
    line.push(("metrics".to_owned(), JsonValue::Object(metrics)));
    println!("{}", to_string(&JsonValue::Object(line)));
    Ok(exit_code(&session))
}

/// Every workload, both passes: repeats interleaved round-robin across
/// the workloads, then oracle and traced pass per workload. Prints the
/// tables and writes the full result set for `--agree`.
fn all_workloads(args: &Args, mut session: Session) -> Result<ExitCode, String> {
    let repeats = if session.quick {
        1
    } else {
        args.parsed("--repeats", DEFAULT_REPEATS)?
    };
    let out_path = match args.value("--out") {
        Some(path) => PathBuf::from(path),
        None => session
            .root
            .join("benchmark")
            .join("out")
            .join("result.json"),
    };
    let all: Vec<&'static Workload> = workloads::ALL.iter().collect();
    let mut measured = session.measure(&all, Stop::Rounds(repeats));
    let shared = micro::run_all();

    let mut sets = Vec::new();
    let mut events_per_sub = BTreeMap::new();
    for (w, m) in all.iter().zip(measured.iter_mut()) {
        session.oracle(w);
        let (rounds, traced_runs) = if session.quick { (1, 1) } else { (2, 3) };
        let mut values = layer_values(
            &mut session,
            w,
            m,
            Stop::Rounds(rounds),
            traced_runs,
            &shared,
        );
        let end_to_end = EndToEnd::of(&m.own);
        if let Some(e) = &end_to_end {
            print_end_to_end(w, e);
            values.extend(e.metrics());
        }
        print_layers(w, &values);
        print_identity(&session, w);
        if let Some(v) = values.get("sim.events_per_sub") {
            events_per_sub.insert(w.name, *v);
        }

        let defs = END_TO_END.iter().map(|d| &d.metric).chain(PER_LAYER.iter());
        let metrics = metrics_json(defs, &values, &mut session, w.name);
        let id = session.identity_of(w);
        let mut set = vec![
            (
                "fingerprint".to_owned(),
                id.map_or(JsonValue::Null, |i| hex(i.fingerprint)),
            ),
            (
                "snapshot_fingerprint".to_owned(),
                id.map_or(JsonValue::Null, |i| hex(i.snapshot_fingerprint)),
            ),
            ("metrics".to_owned(), JsonValue::Object(metrics)),
        ];
        if let Some(e) = &end_to_end {
            set.push((
                "timing".to_owned(),
                obj([
                    ("run_s", spread_json(&e.run_s)),
                    ("setup_s", spread_json(&e.setup_s)),
                    ("peak_rss_mb", spread_json(&e.peak_rss_mb)),
                ]),
            ));
        }
        sets.push((w.name.to_owned(), JsonValue::Object(set)));
    }

    report_paging_fan_out(&events_per_sub);

    let calib = print_calibration(&session);
    let mut doc = summary(&session);
    doc.push(("seed".to_owned(), num(session.seed as f64)));
    doc.push(("quick".to_owned(), JsonValue::Bool(session.quick)));
    doc.push(("repeats".to_owned(), num(repeats as f64)));
    if let Some(calib) = &calib {
        doc.push(("calib_ns".to_owned(), spread_json(calib)));
    }
    doc.push(("workloads".to_owned(), JsonValue::Object(sets)));
    write_result(&out_path, &JsonValue::Object(doc))?;
    println!("result set -> {}", out_path.display());
    println!("{}", to_string(&JsonValue::Object(summary(&session))));
    Ok(exit_code(&session))
}

/// Reported, not asserted: paging fans out per camped handset, so the
/// dense shard should simulate more events per subscriber.
fn report_paging_fan_out(events_per_sub: &BTreeMap<&'static str, f64>) {
    if let (Some(dense), Some(canonical)) = (
        events_per_sub.get("dense_paging"),
        events_per_sub.get("busy_hour"),
    ) {
        println!(
            "paging fan-out: sim.events_per_sub dense_paging {dense:.1} vs busy_hour {canonical:.1} ({})",
            if dense > canonical { "greater, as expected" } else { "NOT greater" }
        );
    }
}

fn write_result(path: &Path, doc: &JsonValue) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, to_string(doc) + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_result(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn agree(paths: &[String]) -> Result<ExitCode, String> {
    let (a, b) = (read_result(&paths[0])?, read_result(&paths[1])?);
    let problems = agree::disagreements(&a, &b);
    for p in &problems {
        println!("DISAGREE: {p}");
    }
    if problems.is_empty() {
        println!("the two sets agree: end-to-end metrics within their bounds, exact metrics and fingerprints identical");
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let seed = args.parsed("--seed", DEFAULT_SEED)?;
    let quick = args.has("--quick");
    let workload = match args.value("--workload") {
        Some(name) => {
            Some(workloads::by_name(name).ok_or_else(|| format!("no workload named {name:?}"))?)
        }
        None => None,
    };
    if args.has("--child") {
        let w = workload.ok_or("--child needs --workload")?;
        let kernel = if args.has("--heap") {
            Kernel::Heap
        } else {
            Kernel::Wheel
        };
        let spec = ChildSpec {
            threads: args.parsed("--threads", 1)?,
            kernel,
            ..ChildSpec::of(w, seed, quick)
        };
        child::child_main(&spec);
        return Ok(ExitCode::SUCCESS);
    }

    let root = find_root()?;
    let declaration = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if let Err(problems) = schema::check_declaration(&declaration) {
        return Err(format!(
            "BENCHMARK.json and the runner disagree:\n  {}",
            problems.join("\n  ")
        ));
    }
    if let Some(paths) = args.values("--agree", 2) {
        return agree(paths);
    }
    println!(
        "vgprs-benchmark: seed {seed}{}, {} hardware threads",
        if quick {
            ", quick (populations / 8, one repeat)"
        } else {
            ""
        },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let session = Session::new(seed, quick, root);
    match workload {
        Some(w) => one_workload(args, w, session),
        None => all_workloads(args, session),
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("vgprs-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
