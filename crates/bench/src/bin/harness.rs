//! The experiment harness: regenerates every figure and Section 6 claim
//! of the paper on stdout, and hosts the population-scale load tools.
//!
//! Usage: `vgprs_bench::harness::USAGE`, printed on a usage error; a
//! subcommand refuses any `--flag` its entries there do not name.
//!
//! `fig4`, `fig5`, `fig6` and `fig9` check their ladders against the
//! tables of `vgprs_core::figures` and exit 1 on a missing rung.
//!
//! With no argument it runs every paper experiment (`all`). The outputs
//! recorded in `EXPERIMENTS.md` are produced by `harness all`, the
//! resilience matrix in `BENCH_chaos.json` by `harness chaos`, and the
//! flash-crowd overload sweep in `BENCH_surge.json` by `harness surge`.
//! Timing lives in `benchmark/`, and the determinism contract in
//! `crates/load/tests/determinism.rs`; the harness hosts neither. `harness
//! diff` compares two such dumps KPI-by-KPI under the tolerances of
//! `vgprs_bench::diff::RULES` and exits nonzero on regression.
//! `harness load` exits 1, after printing the report, when one of the
//! engine's backstops cut the run short (`load.drain_capped` or
//! `load.event_capped` > 0).

use vgprs_bench::diff::compare;
use vgprs_bench::experiments::{
    c1_voice_quality, c2_idle_ablation, c2_setup_latency, c3_context_memory, c4_signaling,
    c5_handoff_cost, interface_usage,
};
use vgprs_bench::harness::{
    chaos_json, drain_capped_error, heading, parse_load_config, surge_json, write_file, Failure,
    Flags, DROP_RATE, SEED, USAGE,
};
use vgprs_bench::scenarios::{handed_over, tromboning_classic, tromboning_vgprs, SingleZone};
use vgprs_core::figures::{
    classic_neighbor, Figure, FIGURE_4, FIGURE_5_ORIGINATION, FIGURE_5_RELEASE, FIGURE_6, FIGURE_9,
};
use vgprs_load::{
    run_load, FaultClass, FaultPlanConfig, LoadConfig, LoadReport, OverloadControls,
    PopulationConfig, ScenarioConfig, TrunkFaultClass, TrunkPlanConfig,
};
use vgprs_sim::{LadderDiagram, SimDuration, Trace};
use vgprs_wire::{CallId, Command, Message};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = args.first().map(String::as_str).unwrap_or("all");
    if let Some(run) = subcommand(arg) {
        let flags = Flags(&args[1..]);
        let checked = flags.check(USAGE, arg).map_err(|e| Failure::Usage(format!("{e}\n{USAGE}")));
        let (code, message) = match checked.and_then(|()| run(&flags)) {
            Ok(()) => return,
            Err(Failure::Usage(message)) => (2, message),
            Err(Failure::Run(message)) => (1, message),
        };
        eprintln!("{message}");
        std::process::exit(code);
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
             load, chaos, surge, diff or all"
        );
        std::process::exit(2);
    }
}

/// A population-scale tool: its run, or why it failed.
type Subcommand = fn(&Flags<'_>) -> Result<(), Failure>;

/// The population-scale tools, by name.
fn subcommand(name: &str) -> Option<Subcommand> {
    Some(match name {
        "load" => load_cmd,
        "chaos" => chaos_cmd,
        "surge" => surge_cmd,
        "diff" => diff_cmd,
        _ => return None,
    })
}

/// How the run's voice travelled, from the kernel's `sim.voice.*`
/// census: the trains, the frames they carried, the frames sent one by
/// one — every frame, in a world with no train horizon (a fault plan or
/// an overload control) — the dials an armed trunk kept frame by
/// frame, because a trunk casualty could still reach a party, and the
/// network seconds no train ran into, because enough dials could page
/// a cell in them to clip its voice.
fn voice_trains(report: &LoadReport) -> String {
    let count = |name| report.stats.counter(name);
    let (trains, carried) = (count("sim.voice.trains"), count("sim.voice.train_frames"));
    let sent = count("ms.voice_frames_sent") + count("term.rtp_sent");
    let (alone, held) = (sent - carried, count("sim.voice.trunk_held"));
    let paging = count("sim.voice.paging_held");
    format!(
        "{trains} carried {carried} frames; {alone} frames sent one by one; \
         {held} dials held by the trunk; {paging} paging seconds held"
    )
}

fn load_cmd(flags: &Flags<'_>) -> Result<(), Failure> {
    let cfg = parse_load_config(flags, &LoadConfig::default())?;
    let json = flags.value("--json")?;
    let snapshots = flags.value("--snapshots")?;
    let snapshots_csv = flags.value("--snapshots-csv")?;
    heading(&format!(
        "Busy hour — {} subscribers, {} shards, seed {}, {} kernel",
        cfg.subscribers,
        cfg.effective_shards(),
        cfg.seed,
        cfg.kernel
    ));
    let report = run_load(&cfg);
    print!("{}", report.render());
    println!("voice trains          : {}", voice_trains(&report));
    println!("fingerprint           : {:016x}", report.fingerprint());
    if cfg.snapshot_secs > 0 {
        println!(
            "snapshot fingerprint  : {:016x} ({} frames @ {} s)",
            report.snapshot_fingerprint(),
            report.snapshots.len(),
            cfg.snapshot_secs
        );
    }
    if let Some(path) = json {
        write_file(path, &report.to_json())?;
        println!("json report           : {path}");
    }
    let per_shard = flags.has("--snapshots-per-shard");
    if let Some(path) = snapshots {
        write_file(path, &report.snapshots_json(per_shard))?;
        println!(
            "snapshot series       : {path}{}",
            if per_shard { " (with per-shard series)" } else { "" }
        );
    }
    if let Some(path) = snapshots_csv {
        write_file(path, &report.snapshots_csv(per_shard))?;
        println!("snapshot csv          : {path}");
    }
    // Last, so the report and artifacts of a capped run are still there
    // to diagnose it with.
    drain_capped_error(&report).map_or(Ok(()), |complaint| Err(Failure::Run(complaint)))
}

/// Reads and parses one JSON report (a malformed dump is an input
/// error, not a panic).
fn read_report(path: &str) -> Result<vgprs_sim::JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    vgprs_sim::JsonValue::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// `harness diff`: structural KPI comparison of two dumps. Compares
/// candidate against baseline and fails on any regressed or missing
/// KPI.
fn diff_cmd(flags: &Flags<'_>) -> Result<(), Failure> {
    let operands: Vec<&String> = flags.0.iter().filter(|a| !a.starts_with("--")).collect();
    let [a_path, b_path] = operands.as_slice() else {
        return Err("usage: harness diff BASELINE.json CANDIDATE.json [--json]".to_string().into());
    };
    heading(&format!("KPI diff — {a_path} (baseline) vs {b_path} (candidate)"));
    let diff = compare(&read_report(a_path)?, &read_report(b_path)?);
    if flags.has("--json") {
        print!("{}", diff.to_json());
    } else {
        print!("{}", diff.render());
    }
    if diff.passed() {
        Ok(())
    } else {
        Err(Failure::Run(format!("  KPI REGRESSION: {b_path} regressed against {a_path}")))
    }
}

/// The workload both sweeps run: 512 subscribers in 2 shards for a
/// 120 s window of 20 s calls, at `rate` calls per subscriber-hour.
fn sweep_base(rate: f64) -> LoadConfig {
    LoadConfig {
        subscribers: 512,
        shards: 2,
        population: PopulationConfig {
            window_secs: 120,
            calls_per_sub_hour: rate,
            mean_hold_secs: 20.0,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
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
fn chaos_cmd(flags: &Flags<'_>) -> Result<(), Failure> {
    let base = parse_load_config(flags, &sweep_base(60.0))?;
    let path = flags.value("--out")?.unwrap_or("BENCH_chaos.json");
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
    write_file(path, &chaos_json(&base, &cells))?;
    println!("  recorded: {path}");
    Ok(())
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
fn surge_cmd(flags: &Flags<'_>) -> Result<(), Failure> {
    let base = LoadConfig { gk_bandwidth: 25_600, ..sweep_base(30.0) };
    let base = parse_load_config(flags, &base)?;
    let std = OverloadControls::standard();
    let controls = OverloadControls {
        paging_rate_per_s: flags.parsed("--paging-rate", std.paging_rate_per_s)?,
        gk_shed_utilization: flags.non_negative("--gk-shed", std.gk_shed_utilization)?,
        pdp_rate_per_s: flags.parsed("--pdp-rate", std.pdp_rate_per_s)?,
    };
    let path = flags.value("--out")?.unwrap_or("BENCH_surge.json");
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
    write_file(path, &surge_json(&base, controls, &cells))?;
    println!("  recorded: {path}");
    Ok(())
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

/// Prints `trace`'s ladder and, under it, how far the trace follows each
/// of `figures`. Exits 1 when it misses a rung of one.
fn ladder(trace: &Trace, figures: &[&Figure]) {
    print!("{}", LadderDiagram::new(trace).render());
    let mut missed = false;
    for figure in figures {
        let conformance = figure.follow(trace.labels());
        println!("  {conformance}");
        missed |= !conformance.holds();
    }
    if missed {
        eprintln!("error: the ladder misses a rung of the paper's figure");
        std::process::exit(1);
    }
}

fn fig4() {
    heading("Figure 4 — message flow for vGPRS registration (steps 1.1–1.6)");
    ladder(SingleZone::build(SEED).net.trace(), &[&FIGURE_4]);
}

fn fig5() {
    heading("Figure 5 — MS call origination and release (steps 2.1–2.9, 3.1–3.4)");
    let mut s = SingleZone::build(SEED);
    s.net.trace_mut().clear();
    s.call_from_ms(CallId(1), SimDuration::from_secs(1));
    s.hangup_from_ms();
    ladder(s.net.trace(), &[&FIGURE_5_ORIGINATION, &FIGURE_5_RELEASE]);
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
    ladder(s.net.trace(), &[&FIGURE_6]);
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
    let (world, r) = handed_over(SEED, classic_neighbor);
    ladder(world.home.net.trace(), &[&FIGURE_9]);
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
