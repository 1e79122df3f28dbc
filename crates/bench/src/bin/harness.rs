//! The experiment harness: regenerates every figure and Section 6 claim
//! of the paper on stdout, and hosts the population-scale load tools.
//!
//! Usage: `vgprs_bench::harness::USAGE`, printed on a usage error; a
//! subcommand refuses any `--flag` its entries there do not name.
//!
//! With no argument it runs every paper experiment (`all`). The outputs
//! recorded in `EXPERIMENTS.md` are produced by `harness all`, the
//! capacity table by `harness capacity`, the resilience matrix in
//! `BENCH_chaos.json` by `harness chaos`, and the flash-crowd overload
//! sweep in `BENCH_surge.json` by `harness surge`. Timing lives in
//! `benchmark/`, and the determinism contract in
//! `crates/load/tests/determinism.rs`; the harness hosts neither. `harness
//! diff` compares two such dumps KPI-by-KPI against the thresholds in
//! `diff-thresholds.toml` and exits nonzero on regression; `harness
//! diff --check` is the verify-script gate, diffing a fresh canonical
//! small run against the committed `baselines/load_small.json`.
//! `harness load` exits 1, after printing the report, when one of the
//! engine's backstops cut the run short (`load.drain_capped` or
//! `load.event_capped` > 0).

use vgprs_bench::diff::{compare, Thresholds};
use vgprs_bench::experiments::{
    c1_voice_quality, c2_idle_ablation, c2_setup_latency, c3_context_memory, c4_signaling,
    c5_handoff_cost, interface_usage,
};
use vgprs_bench::harness::{
    capacity_json, chaos_json, drain_capped_error, heading, load_config_from, surge_json,
    write_file, Flags, RunDefaults, DROP_RATE, SEED, USAGE,
};
use vgprs_bench::scenarios::{
    intersystem_handoff, tromboning_classic, tromboning_vgprs, SingleZone,
};
use vgprs_load::{
    capacity_knee, run_load, FaultClass, FaultPlanConfig, LoadConfig, LoadReport,
    OverloadControls, ScenarioConfig, TrunkFaultClass, TrunkPlanConfig,
};
use vgprs_sim::{LadderDiagram, SimDuration};
use vgprs_wire::{CallId, Command, Message};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = args.first().map(String::as_str).unwrap_or("all");
    if let Some(run) = subcommand(arg) {
        let flags = Flags(&args[1..]);
        if let Err(stranger) = flags.check(USAGE, arg) {
            eprintln!("{stranger}\n{USAGE}");
            std::process::exit(2);
        }
        return run(&flags);
    }
    let all = arg == "all";
    let mut ran = false;
    macro_rules! run {
        ($name:literal, $f:expr) => {
            if all || arg == $name {
                $f;
                ran = true;
            }
        };
    }
    run!("fig1", fig1());
    run!("fig2", fig2());
    run!("fig3", fig3());
    run!("fig4", fig4());
    run!("fig5", fig5());
    run!("fig6", fig6());
    run!("fig7", fig7());
    run!("fig8", fig8());
    run!("fig9", fig9());
    run!("c1", c1());
    run!("c2", c2());
    run!("c2b", c2_ablation());
    run!("c3", c3());
    run!("c4", c4());
    run!("c5", c5());
    if !ran {
        eprintln!(
            "unknown experiment {arg:?}; expected fig1..fig9, c1..c5, c2b, \
             load, capacity, chaos, surge, diff or all"
        );
        std::process::exit(2);
    }
}

/// The population-scale tools, by name.
fn subcommand(name: &str) -> Option<fn(&Flags<'_>)> {
    Some(match name {
        "load" => load_cmd,
        "capacity" => capacity_cmd,
        "chaos" => chaos_cmd,
        "surge" => surge_cmd,
        "diff" => diff_cmd,
        _ => return None,
    })
}

fn load_cmd(flags: &Flags<'_>) {
    let cfg = load_config_from(flags, &RunDefaults::default());
    heading(&format!(
        "Busy hour — {} subscribers, {} shards, seed {}, {} kernel",
        cfg.subscribers,
        cfg.effective_shards(),
        cfg.seed,
        cfg.kernel
    ));
    let report = run_load(&cfg);
    print!("{}", report.render());
    println!("fingerprint           : {:016x}", report.fingerprint());
    if cfg.snapshot_secs > 0 {
        println!(
            "snapshot fingerprint  : {:016x} ({} frames @ {} s)",
            report.snapshot_fingerprint(),
            report.snapshots.len(),
            cfg.snapshot_secs
        );
    }
    if let Some(path) = flags.get("--json") {
        write_file(path, &report.to_json());
        println!("json report           : {path}");
    }
    let per_shard = flags.has("--snapshots-per-shard");
    if let Some(path) = flags.get("--snapshots") {
        write_file(path, &report.snapshots_json(per_shard));
        println!(
            "snapshot series       : {path}{}",
            if per_shard { " (with per-shard series)" } else { "" }
        );
    }
    if let Some(path) = flags.get("--snapshots-csv") {
        write_file(path, &report.snapshots_csv(per_shard));
        println!("snapshot csv          : {path}");
    }
    // Last, so the report and artifacts of a capped run are still there
    // to diagnose it with.
    if let Some(complaint) = drain_capped_error(&report) {
        eprintln!("{complaint}");
        std::process::exit(1);
    }
}

/// Default threshold file and committed baseline for `harness diff`.
const DIFF_THRESHOLDS: &str = "diff-thresholds.toml";
const DIFF_BASELINE: &str = "baselines/load_small.json";

/// Reads and parses one JSON report, exiting with a diagnostic on
/// failure (a malformed dump is an input error, not a panic).
fn read_report(path: &str) -> vgprs_sim::JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    vgprs_sim::JsonValue::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

/// Loads the threshold file named by `--thresholds` (default
/// `diff-thresholds.toml`), falling back to built-in defaults when the
/// default file does not exist.
fn read_thresholds(flags: &Flags<'_>) -> Thresholds {
    let (path, required) = match flags.get("--thresholds") {
        Some(p) => (p, true),
        None => (DIFF_THRESHOLDS, false),
    };
    match std::fs::read_to_string(path) {
        Ok(text) => Thresholds::parse(&text).unwrap_or_else(|e| {
            eprintln!("bad thresholds in {path}: {e}");
            std::process::exit(2);
        }),
        Err(e) if required => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
        Err(_) => Thresholds::default(),
    }
}

/// The canonical small population `diff --check` runs against the
/// committed baseline: tiny, so the gate finishes in seconds.
fn check_defaults() -> RunDefaults {
    RunDefaults {
        subscribers: 96,
        shards: 4,
        window_secs: 90,
        calls_per_sub_hour: 40.0,
        mean_hold_secs: 20.0,
        ..RunDefaults::default()
    }
}

/// `harness diff`: structural KPI regression gate. With two positional
/// paths it compares candidate against baseline and exits nonzero on any
/// regressed or missing KPI. `--check` instead runs the canonical small
/// population fresh and diffs it against `baselines/load_small.json`;
/// `--update-baseline` regenerates that file (after intentional KPI
/// changes — see `scripts/update-baselines.sh`).
fn diff_cmd(flags: &Flags<'_>) {
    let rest = flags.0;
    let thresholds = read_thresholds(flags);
    if flags.has("--check") || flags.has("--update-baseline") {
        let baseline_path = flags.get("--baseline").unwrap_or(DIFF_BASELINE);
        let cfg = load_config_from(&Flags(&[]), &check_defaults());
        heading(&format!(
            "KPI regression gate — {} subscribers, {} shards, seed {} vs {}",
            cfg.subscribers,
            cfg.effective_shards(),
            cfg.seed,
            baseline_path
        ));
        let report = run_load(&cfg);
        println!(
            "  fresh run: fingerprint {:016x}, snapshot fingerprint {:016x}",
            report.fingerprint(),
            report.snapshot_fingerprint()
        );
        if flags.has("--update-baseline") {
            write_file(baseline_path, &report.to_json());
            println!("  baseline updated: {baseline_path}");
            return;
        }
        let baseline = read_report(baseline_path);
        let candidate = vgprs_sim::JsonValue::parse(&report.to_json())
            .expect("a freshly rendered report always parses");
        let diff = compare(&baseline, &candidate, &thresholds);
        print!("{}", diff.render());
        if !diff.passed() {
            eprintln!("  KPI REGRESSION against {baseline_path}");
            std::process::exit(1);
        }
        println!("  no KPI regressions against the committed baseline");
        return;
    }
    let positional: Vec<&String> = {
        // Positional operands: everything not consumed as a flag value.
        let mut skip = false;
        rest.iter()
            .filter(|a| {
                if skip {
                    skip = false;
                    return false;
                }
                if a.as_str() == "--thresholds" || a.as_str() == "--baseline" {
                    skip = true;
                    return false;
                }
                !a.starts_with("--")
            })
            .collect()
    };
    let [a_path, b_path] = positional.as_slice() else {
        eprintln!(
            "usage: harness diff BASELINE.json CANDIDATE.json [--thresholds PATH] [--json]\n\
             \x20      harness diff --check [--update-baseline] [--baseline PATH]"
        );
        std::process::exit(2);
    };
    heading(&format!("KPI diff — {a_path} (baseline) vs {b_path} (candidate)"));
    let diff = compare(&read_report(a_path), &read_report(b_path), &thresholds);
    if flags.has("--json") {
        print!("{}", diff.to_json());
    } else {
        print!("{}", diff.render());
    }
    if !diff.passed() {
        if !flags.has("--json") {
            eprintln!("  KPI REGRESSION: {b_path} regressed against {a_path}");
        }
        std::process::exit(1);
    }
}

fn capacity_cmd(flags: &Flags<'_>) {
    let mut base = load_config_from(flags, &RunDefaults::default());
    if flags.get("--subscribers").is_none() {
        base.subscribers = 2048;
    }
    let max_load: f64 = flags.parse("--max-load", 32.0);
    let refine: u32 = flags.parse("--refine", 3);
    heading(&format!(
        "Capacity knee — {} subscribers, seed {}: bisecting offered load to the knee",
        base.subscribers, base.seed
    ));
    let search = capacity_knee(&base, max_load, refine);
    println!(
        "  {:>6} | {:>9} | {:>8} | {:>8} | {:>7} | {:>9} {:>9} | {:>5}",
        "load", "calls/s/h", "erlangs", "attempts", "block%", "setup p50", "setup p99", "MOS"
    );
    let mut rows: Vec<usize> = (0..search.probes.len()).collect();
    rows.sort_by(|&a, &b| {
        search.probes[a]
            .load_factor
            .total_cmp(&search.probes[b].load_factor)
    });
    for i in rows {
        let p = &search.probes[i];
        println!(
            "  {:>5.2}x | {:>9.1} | {:>8.1} | {:>8} | {:>6.2}% | {:>7.1}ms {:>7.1}ms | {:>5.2}",
            p.load_factor,
            p.calls_per_sub_hour,
            p.offered_erlangs,
            p.report.attempts(),
            p.report.blocking_rate() * 100.0,
            p.report.kpi("setup_delay_ms.p50"),
            p.report.kpi("setup_delay_ms.p99"),
            p.report.mos()
        );
    }
    match &search.knee {
        Some(k) => println!(
            "  knee bracketed in ({:.2}x, {:.2}x]: degrades at {:.1} Erlangs \
             ({:.1} calls/sub-hour)",
            k.good_factor, k.load_factor, k.offered_erlangs, k.calls_per_sub_hour
        ),
        None => println!("  no knee up to {max_load}x offered load"),
    }
    if let Some(path) = flags.get("--json") {
        write_file(path, &capacity_json(&search, &base, max_load, refine));
        println!("  json report: {path}");
    }
}

/// One cell of the chaos matrix: a fault class (or a baseline label),
/// its intensity, and the run it produced.
type ChaosRun = (&'static str, f64, LoadReport);

fn run_chaos_cell(base: &LoadConfig, class: Option<FaultClass>, intensity: f64) -> ChaosRun {
    let mut cfg = base.clone();
    cfg.faults = match class {
        Some(c) => FaultPlanConfig::only(c, intensity),
        None => FaultPlanConfig::default(),
    };
    (class.map_or("baseline", FaultClass::key), intensity, run_load(&cfg))
}

fn run_trunk_cell(base: &LoadConfig, class: Option<TrunkFaultClass>, intensity: f64) -> ChaosRun {
    let mut cfg = base.clone();
    cfg.trunk = match class {
        Some(c) => TrunkPlanConfig::only(c, intensity),
        None => TrunkPlanConfig::default(),
    };
    (class.map_or("trunk_baseline", TrunkFaultClass::key), intensity, run_load(&cfg))
}

/// Resilience matrix: every fault class at two intensities against the
/// zero-fault baseline, on one fixed workload. Records drop rates,
/// recovery percentiles and retry volumes in `BENCH_chaos.json`.
fn chaos_cmd(flags: &Flags<'_>) {
    let base = load_config_from(
        flags,
        &RunDefaults {
            subscribers: 512,
            shards: 2,
            window_secs: 120,
            calls_per_sub_hour: 60.0,
            mean_hold_secs: 20.0,
            ..RunDefaults::default()
        },
    );
    heading(&format!(
        "Chaos matrix — {} subscribers, {} shards, seed {}: fault classes x intensity",
        base.subscribers,
        base.effective_shards(),
        base.seed
    ));
    let mut cells = vec![run_chaos_cell(&base, None, 0.0)];
    for class in FaultClass::ALL {
        for intensity in [0.3, 1.0] {
            cells.push(run_chaos_cell(&base, Some(class), intensity));
        }
    }
    // Trunk faults only bite flits that cross a shard boundary, so the
    // trunk rows run a population where a third of the calls do.
    let mut xbase = base.clone();
    if xbase.population.cross_shard_fraction == 0.0 {
        xbase.population.cross_shard_fraction = 0.35;
    }
    let trunk_start = cells.len();
    cells.push(run_trunk_cell(&xbase, None, 0.0));
    for class in TrunkFaultClass::ALL {
        for intensity in [0.3, 1.0] {
            cells.push(run_trunk_cell(&xbase, Some(class), intensity));
        }
    }
    println!(
        "  {:<15} {:>5} | {:>6} {:>7} {:>6} | {:>9} {:>9} {:>4} | {:>7} {:>5}",
        "class", "int", "faults", "drop%", "redial", "rec p50", "rec p99", "n", "loss%", "MOS"
    );
    for (label, intensity, r) in &cells[..trunk_start] {
        println!(
            "  {:<15} {:>5.1} | {:>6} {:>6.2}% {:>6} | {:>7.1}ms {:>7.1}ms {:>4} | {:>6.2}% {:>5.2}",
            label,
            intensity,
            r.kpi("resilience.faults_injected"),
            r.kpi(DROP_RATE) * 100.0,
            r.kpi("resilience.redial_attempts"),
            r.kpi("resilience.recovery_ms.p50"),
            r.kpi("resilience.recovery_ms.p99"),
            r.kpi("resilience.recovery_ms.count"),
            r.frame_loss() * 100.0,
            r.mos()
        );
    }
    println!(
        "  {:<15} {:>5} | {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>7} | {:>7} {:>5}",
        "trunk class", "int", "retx", "dup", "reord", "exp", "hodrop", "route", "frames", "loss%",
        "MOS"
    );
    for (label, intensity, r) in &cells[trunk_start..] {
        println!(
            "  {:<15} {:>5.1} | {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>7} | {:>6.2}% {:>5.2}",
            label,
            intensity,
            r.trunk_retransmits(),
            r.trunk_dup_drops(),
            r.kpi("trunk.reordered"),
            r.trunk_expired(),
            r.kpi("trunk.handoff_drops"),
            r.kpi("trunk.reroutes"),
            r.kpi("trunk.frame_drops"),
            r.frame_loss() * 100.0,
            r.mos()
        );
    }
    let path = flags.get("--out").unwrap_or("BENCH_chaos.json");
    write_file(path, &chaos_json(&base, &cells));
    println!("  recorded: {path}");
}

/// Runs one cell of the surge sweep: a flash-crowd intensity with the
/// overload controls on or off, returned with the run it produced.
fn run_surge_cell(
    base: &LoadConfig,
    controls: OverloadControls,
    intensity: f64,
    on: bool,
    verbose: bool,
) -> (f64, bool, LoadReport) {
    let mut cfg = base.clone();
    cfg.scenario = ScenarioConfig::flash(intensity);
    cfg.controls = if on { controls } else { OverloadControls::default() };
    let report = run_load(&cfg);
    if verbose {
        println!(
            "\n--- {intensity}x, controls {} ---",
            if on { "on" } else { "off" }
        );
        println!("{}", report.render_deterministic());
    }
    (intensity, on, report)
}

/// Flash-crowd overload sweep: shock intensity x {controls off, on} on
/// one fixed workload, recording shed/throttle volumes, admission
/// delay, peak-vs-steady drop rates and MOS in `BENCH_surge.json`.
fn surge_cmd(flags: &Flags<'_>) {
    let base = load_config_from(
        flags,
        &RunDefaults {
            subscribers: 512,
            shards: 2,
            window_secs: 120,
            calls_per_sub_hour: 30.0,
            mean_hold_secs: 20.0,
            gk_bandwidth: 25_600,
            ..RunDefaults::default()
        },
    );
    let std = OverloadControls::standard();
    let controls = OverloadControls {
        paging_rate_per_s: flags.parse("--paging-rate", std.paging_rate_per_s),
        gk_shed_utilization: flags.parse("--gk-shed", std.gk_shed_utilization),
        pdp_rate_per_s: flags.parse("--pdp-rate", std.pdp_rate_per_s),
    };
    heading(&format!(
        "Surge sweep — {} subscribers, {} shards, seed {}: shock intensity x overload controls",
        base.subscribers,
        base.effective_shards(),
        base.seed
    ));
    let verbose = flags.has("--verbose");
    let mut cells = Vec::new();
    for intensity in [0.0, 4.0, 10.0, 25.0] {
        for on in [false, true] {
            cells.push(run_surge_cell(&base, controls, intensity, on, verbose));
        }
    }
    println!(
        "  {:>5} {:<8} | {:>8} {:>7} | {:>6} {:>6} | {:>6} {:>5} {:>5} | {:>9} | {:>9} {:>5}",
        "shock", "controls", "attempts", "peak", "pk dr%", "st dr%", "thrtl", "shed", "GK", "adm p99", "setup p99", "MOS"
    );
    for (intensity, on, r) in &cells {
        println!(
            "  {:>4.0}x {:<8} | {:>8} {:>7} | {:>5.1}% {:>5.1}% | {:>6} {:>5} {:>5} | {:>7.1}ms | {:>7.1}ms {:>5.2}",
            intensity,
            if *on { "on" } else { "off" },
            r.attempts(),
            r.kpi("overload.attempts_peak"),
            r.kpi("overload.peak_drop_rate") * 100.0,
            r.kpi("overload.steady_drop_rate") * 100.0,
            r.kpi("overload.pages_throttled"),
            r.kpi("overload.pages_shed"),
            r.kpi("overload.gk_admission_shed"),
            r.kpi("overload.admission_delay_ms.p99"),
            r.kpi("setup_delay_ms.p99"),
            r.mos()
        );
    }
    let path = flags.get("--out").unwrap_or("BENCH_surge.json");
    write_file(path, &surge_json(&base, controls, &cells));
    println!("  recorded: {path}");
}

fn fig1() {
    heading("Figure 1 — the GPRS network: data path MS → BSS → SGSN → GGSN → PSDN");
    let s = SingleZone::build(SEED);
    // Evidence: the MS's RRQ crossed every element of the data path in
    // order (Gb → Gn → Gi). Chain by trace index so the terminal's own
    // LAN-side RRQ is not mistaken for it.
    let t = s.net.trace();
    let gb = t.find_label("LLC:RAS_RRQ", 0).expect("RRQ on Gb");
    let gn = t.find_label("GTP:RAS_RRQ", gb).expect("RRQ on Gn");
    let gi = t.find_label("RAS_RRQ", gn).expect("RRQ on Gi/LAN");
    for (idx, label) in [(gb, "LLC:RAS_RRQ (Gb)"), (gn, "GTP:RAS_RRQ (Gn)"), (gi, "RAS_RRQ (Gi)")] {
        println!("  {label:<20} at {}", t.entries()[idx].at());
    }
    println!("  (Gb → Gn → Gi/LAN traversal confirms the Figure 1 topology)");
}

fn fig2() {
    heading("Figure 2 — VMSC interfaces and the vGPRS voice path");
    for row in interface_usage(SEED) {
        if row.messages > 0 {
            println!("  {:<6} {:>5} messages", row.interface.to_string(), row.messages);
        }
    }
    println!("  (A/B/Gb/Gn/Gi/LAN all carry traffic in one register + call cycle)");
}

fn fig3() {
    heading("Figure 3 — protocol layering per link (encapsulation labels)");
    let mut s = SingleZone::build(SEED);
    s.net.trace_mut().clear();
    s.call_from_ms(CallId(1), SimDuration::from_secs(1));
    let mut shown = std::collections::BTreeSet::new();
    for (label, iface) in s.net.trace().labeled_interfaces() {
        let key = (label.split(':').next().unwrap_or(label).to_owned(), iface);
        if shown.insert(key.clone()) && (label.contains(':') || iface.is_packet_core()) {
            println!("  [{:<4}] {label}", iface.to_string());
        }
    }
    println!("  (LLC: on Gb, GTP: on Gn — H.323 rides the tunnel exactly as Figure 3 draws)");
}

fn registration_ladder() -> (SingleZone, String) {
    let s = SingleZone::build(SEED);
    let ladder = LadderDiagram::new(s.net.trace()).render();
    (s, ladder)
}

fn fig4() {
    heading("Figure 4 — message flow for vGPRS registration (steps 1.1–1.6)");
    let (_s, ladder) = registration_ladder();
    print!("{ladder}");
}

fn fig5() {
    heading("Figure 5 — MS call origination and release (steps 2.1–2.9, 3.1–3.4)");
    let mut s = SingleZone::build(SEED);
    s.net.trace_mut().clear();
    s.call_from_ms(CallId(1), SimDuration::from_secs(1));
    s.hangup_from_ms();
    print!("{}", LadderDiagram::new(s.net.trace()).render());
}

fn fig6() {
    heading("Figure 6 — MS call termination (steps 4.1–4.8)");
    let mut s = SingleZone::build(SEED);
    s.net.trace_mut().clear();
    let ms_msisdn = s.ms_msisdn;
    s.net.inject(
        SimDuration::ZERO,
        s.term,
        Message::Cmd(Command::Dial {
            call: CallId(2),
            called: ms_msisdn,
        }),
    );
    let deadline = s.net.now() + SimDuration::from_secs(8);
    s.net.run_until(deadline);
    print!("{}", LadderDiagram::new(s.net.trace()).render());
}

fn fig7() {
    heading("Figure 7 — tromboning: classic GSM delivery to a roamer");
    let r = tromboning_classic(SEED);
    println!("  connected:            {}", r.connected);
    println!("  international trunks: {}", r.international_trunks);
    println!("  local trunks:         {}", r.local_trunks);
    println!("  trunk cost (60 s):    {:.1} units", r.trunk_cost_60s);
    if let Some(d) = r.post_dial_delay_ms {
        println!("  post-dial delay:      {d:.1} ms");
    }
}

fn fig8() {
    heading("Figure 8 — tromboning eliminated by vGPRS (visited-network GK)");
    let r = tromboning_vgprs(SEED, true);
    println!("  connected:            {}", r.connected);
    println!("  international trunks: {}", r.international_trunks);
    println!("  local trunks:         {}", r.local_trunks);
    println!("  trunk cost (60 s):    {:.1} units", r.trunk_cost_60s);
    if let Some(d) = r.post_dial_delay_ms {
        println!("  post-dial delay:      {d:.1} ms");
    }
    let f = tromboning_vgprs(SEED, false);
    println!("  --- gatekeeper miss (roamer absent): fallback to PSTN ---");
    println!("  connected:            {}", f.connected);
    println!("  international trunks: {}", f.international_trunks);
}

fn fig9() {
    heading("Figure 9 — inter-system handoff with the VMSC as anchor");
    let r = intersystem_handoff(SEED);
    println!("  handoffs completed:   {}", r.handoffs_completed);
    println!("  MS frames before:     {}", r.frames_before);
    println!("  MS frames after:      {}", r.frames_after);
    println!("  terminal frames after:{}", r.term_frames_after);
}

fn c1() {
    heading("C1 — voice quality vs. load (MOS; circuit air vs. shared PDCH)");
    println!(
        "  {:>5} | {:>10} {:>7} {:>5} | {:>10} {:>7} {:>5}",
        "calls", "vGPRS ms", "loss", "MOS", "TR ms", "loss", "MOS"
    );
    for row in c1_voice_quality(&[1, 2, 3, 4, 6], SEED) {
        println!(
            "  {:>5} | {:>10.1} {:>6.1}% {:>5.2} | {:>10.1} {:>6.1}% {:>5.2}",
            row.calls,
            row.vgprs_delay_ms,
            row.vgprs_loss * 100.0,
            row.vgprs_mos,
            row.tr_delay_ms,
            row.tr_loss * 100.0,
            row.tr_mos
        );
    }
}

fn c2() {
    heading("C2 — call-setup latency: pre-activated vs. per-call PDP context");
    println!(
        "  {:>5} | {:>9} | {:>9} {:>12} | {:>9} {:>9}",
        "scale", "vGPRS MO", "TR MO", "TR MO(on)", "vGPRS MT", "TR MT"
    );
    for row in c2_setup_latency(&[1, 5, 10], SEED) {
        println!(
            "  {:>4}x | {:>7.1}ms | {:>7.1}ms {:>10.1}ms | {:>7.1}ms {:>7.1}ms",
            row.core_scale,
            row.vgprs_mo_ms,
            row.tr_mo_ms,
            row.tr_mo_always_on_ms,
            row.vgprs_mt_ms,
            row.tr_mt_ms
        );
    }
}

fn c2_ablation() {
    heading("C2b — the paper's rejected variant: deactivate vGPRS contexts when idle");
    let r = c2_idle_ablation(SEED);
    println!("  standard vGPRS MO post-dial : {:.1} ms", r.standard_mo_ms);
    println!("  idle-deactivation variant   : {:.1} ms", r.idle_mode_mo_ms);
    println!(
        "  penalty                     : +{:.1} ms ({} context reactivation)",
        r.idle_mode_mo_ms - r.standard_mo_ms,
        r.reactivations
    );
}

fn c3() {
    heading("C3 — resident PDP contexts (always-on vs. on-demand)");
    println!(
        "  {:>11} {:>12} | {:>14} {:>11}",
        "subscribers", "active calls", "vGPRS contexts", "TR contexts"
    );
    for row in c3_context_memory(&[(10, 1), (20, 2), (40, 4)], SEED) {
        println!(
            "  {:>11} {:>12} | {:>14} {:>11}",
            row.subscribers, row.active_calls, row.vgprs_contexts, row.tr_contexts
        );
    }
}

fn c4() {
    heading("C4 — signaling volume and IMSI confidentiality");
    let (rows, conf) = c4_signaling(SEED);
    println!("  {:<20} {:>12} {:>12}", "procedure", "vGPRS msgs", "TR msgs");
    for r in rows {
        println!(
            "  {:<20} {:>12} {:>12}",
            r.procedure, r.vgprs_messages, r.tr_messages
        );
    }
    println!(
        "  IMSIs leaked to the H.323 domain: vGPRS = {}, TR = {}",
        conf.vgprs_imsi_disclosures, conf.tr_imsi_disclosures
    );
}

fn c5() {
    heading("C5 — anchor-path cost after inter-system handoff");
    let r = c5_handoff_cost(SEED);
    println!("  handoffs:            {}", r.handoffs);
    println!("  delay before:        {:.2} ms", r.delay_before_ms);
    println!("  delay after:         {:.2} ms", r.delay_after_ms);
    println!(
        "  anchor detour cost:  +{:.2} ms per frame",
        r.delay_after_ms - r.delay_before_ms
    );
}
