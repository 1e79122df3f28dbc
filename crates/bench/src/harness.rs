//! Shared plumbing for the `harness` binary's subcommands.
//!
//! Every population-scale subcommand (`load`, `chaos`, `surge`) parses
//! the same flag vocabulary into a [`LoadConfig`], prints the same
//! banner style, and stamps the same run-metadata block into its
//! `BENCH_*.json` artifact. Keeping the pieces here means a new
//! subcommand cannot drift from the others.

use std::fmt::Display;
use std::str::FromStr;

use vgprs_load::{CallMix, LoadConfig, LoadReport, OverloadControls, TrunkFaultClass};
use vgprs_sim::JsonWriter;

/// The master seed every experiment defaults to.
pub const SEED: u64 = 42;

/// What `harness` accepts. Printed on a usage error, and the vocabulary
/// [`Flags::check`] holds each subcommand's arguments to: the shared
/// entry is what [`parse_load_config`] reads, for all three that call it.
pub const USAGE: &str = "\
harness [fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|c1|c2|c3|c4|c5|all]
harness load|chaos|surge
             [--subscribers N] [--shards N] [--seed N]
             [--window-secs N] [--rate CALLS_PER_SUB_HOUR] [--hold SECS]
             [--mix MO,MT,M2M] [--mobility FRAC] [--cross-shard-rate FRAC]
             [--tch N] [--voice-sample-ms N]
             [--trunk-intensity F] [--trunk-class CLASS]
             [--gk-bandwidth N] [--snapshot-secs N]
harness load [--json PATH] [--snapshots PATH] [--snapshots-per-shard]
             [--snapshots-csv PATH]
harness chaos [--out PATH]
harness surge [--paging-rate N] [--gk-shed F] [--pdp-rate N]
              [--out PATH] [--verbose]
harness diff BASELINE.json CANDIDATE.json [--json]";

/// Why a `load`, `chaos`, `surge` or `diff` run failed: `main` prints
/// the message on stderr and exits with the variant's code.
pub enum Failure {
    /// Input the subcommand cannot use: a flag, an operand or a file to
    /// compare. Exit code 2.
    Usage(String),
    /// A run that went wrong: an artifact it could not write, a run cut
    /// short, a regression. Exit code 1.
    Run(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Usage(message)
    }
}

/// Tiny flag parser: `--name value` pairs plus bare `--flag` switches.
pub struct Flags<'a>(pub &'a [String]);

impl Flags<'_> {
    /// The raw value following `--name`, `None` when the flag is absent.
    /// A flag given as the last argument, or followed by another
    /// `--flag`, has no value: an error naming it, not a silent default.
    pub fn value(&self, name: &str) -> Result<Option<&str>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        match self.0.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(format!("{name} needs a value")),
        }
    }

    /// The value of `--name` parsed as `T`; `default` when the flag is
    /// absent.
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for {name}")),
        }
    }

    /// [`Flags::parsed`], refused unless `ok` holds of the value: a
    /// value the model cannot run is an error naming the flag and what
    /// it `expected`.
    fn parsed_where<T: FromStr + Display + Copy>(
        &self,
        name: &str,
        default: T,
        expected: &str,
        ok: impl Fn(T) -> bool,
    ) -> Result<T, String> {
        let value = self.parsed(name, default)?;
        if ok(value) {
            Ok(value)
        } else {
            Err(format!("invalid value {value} for {name}; expected {expected}"))
        }
    }

    /// The value of `--name` as a finite number ≥ 0: a rate, a time or
    /// an intensity.
    pub fn non_negative(&self, name: &str, default: f64) -> Result<f64, String> {
        self.parsed_where(name, default, "a finite number >= 0", |x| x.is_finite() && x >= 0.0)
    }

    /// The value of `--name` as a fraction of the population, in [0, 1].
    fn fraction(&self, name: &str, default: f64) -> Result<f64, String> {
        self.parsed_where(name, default, "a fraction in [0, 1]", |x| (0.0..=1.0).contains(&x))
    }

    /// Refuses a `--flag` that the `harness <subcommand>` entries of
    /// `usage` (and their continuation lines) do not name: a misspelt
    /// flag is an error naming it, not a run on the defaults.
    pub fn check(&self, usage: &str, subcommand: &str) -> Result<(), String> {
        let mut mine = false;
        let mut known = Vec::new();
        for line in usage.lines() {
            if let Some(entry) = line.strip_prefix("harness ") {
                let names = entry.split_whitespace().next().unwrap_or_default();
                mine = names.split('|').any(|name| name == subcommand);
            }
            if mine {
                let words = line.split(|c: char| c.is_whitespace() || c == '[' || c == ']');
                known.extend(words.filter(|w| w.starts_with("--")));
            }
        }
        let stranger = |a: &&String| a.starts_with("--") && !known.contains(&a.as_str());
        match self.0.iter().find(stranger) {
            Some(stranger) => Err(format!("harness {subcommand} has no flag {stranger}")),
            None => Ok(()),
        }
    }

    /// Presence of a bare flag with no value (e.g. `--json`).
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// The longest window whose microseconds fit in a `u64`, the width of
/// simulated time.
const MAX_WINDOW_SECS: u64 = u64::MAX / 1_000_000;

/// The most calls a subscriber may be expected to place over the window
/// (`--rate` × `--window-secs` / 3600). Every call is planned, and held,
/// before the run starts, and a handset places one at a time: ten
/// thousand is a call every 0.36 s of a busy hour, past any population
/// the model stands for.
const MAX_CALLS_PER_SUBSCRIBER: f64 = 10_000.0;

/// Parses a trunk fault class name: a [`TrunkFaultClass::key`], the
/// `trunk_` prefix optional.
fn parse_trunk_class(raw: &str) -> Result<TrunkFaultClass, String> {
    let short = |class: TrunkFaultClass| &class.key()["trunk_".len()..];
    let name = raw.strip_prefix("trunk_").unwrap_or(raw);
    TrunkFaultClass::ALL.into_iter().find(|&c| short(c) == name).ok_or_else(|| {
        let names: String = TrunkFaultClass::ALL.map(|c| format!("{}, ", short(c))).concat();
        format!("invalid value {raw:?} for --trunk-class; expected {names}or all")
    })
}

/// Parses the `--mix` weights: three, each finite and ≥ 0, not all zero.
fn parse_mix(raw: &str) -> Result<CallMix, String> {
    let parts: Result<Vec<f64>, _> = raw.split(',').map(str::parse).collect();
    match parts.as_deref() {
        Ok(&[mo, mt, m2m])
            if [mo, mt, m2m].iter().all(|w| w.is_finite() && *w >= 0.0) && mo + mt + m2m > 0.0 =>
        {
            Ok(CallMix { mo, mt, m2m })
        }
        _ => Err(format!(
            "invalid value {raw:?} for --mix; expected MO,MT,M2M weights, finite, >= 0 and \
             not all zero, e.g. 0.45,0.45,0.10"
        )),
    }
}

/// Builds a subcommand's [`LoadConfig`]: `base` with each field the
/// shared flag vocabulary names overridden by its flag. The error names
/// the flag whose value is missing, malformed or one the model cannot
/// run.
pub fn parse_load_config(flags: &Flags<'_>, base: &LoadConfig) -> Result<LoadConfig, String> {
    let mut cfg = base.clone();
    cfg.subscribers = flags.parsed("--subscribers", base.subscribers)?;
    cfg.shards = flags.parsed("--shards", base.shards)?;
    cfg.seed = flags.parsed("--seed", base.seed)?;
    cfg.tch_capacity = flags.parsed("--tch", base.tch_capacity)?;
    cfg.voice_sample_ms = flags.parsed("--voice-sample-ms", base.voice_sample_ms)?;
    cfg.gk_bandwidth = flags.parsed("--gk-bandwidth", base.gk_bandwidth)?;
    cfg.snapshot_secs = flags.parsed("--snapshot-secs", base.snapshot_secs)?;
    let (pop, base_pop) = (&mut cfg.population, &base.population);
    pop.window_secs = flags.parsed_where(
        "--window-secs",
        base_pop.window_secs,
        &format!("at most {MAX_WINDOW_SECS}, whose microseconds fit in a u64"),
        |secs| secs <= MAX_WINDOW_SECS,
    )?;
    pop.calls_per_sub_hour = flags.non_negative("--rate", base_pop.calls_per_sub_hour)?;
    let calls = pop.calls_per_sub_hour * pop.window_secs as f64 / 3_600.0;
    if calls > MAX_CALLS_PER_SUBSCRIBER {
        return Err(format!(
            "--rate over --window-secs plans {calls:.3e} calls per subscriber; \
             at most {MAX_CALLS_PER_SUBSCRIBER} can be planned"
        ));
    }
    pop.mean_hold_secs = flags.non_negative("--hold", base_pop.mean_hold_secs)?;
    pop.mobility_fraction = flags.fraction("--mobility", base_pop.mobility_fraction)?;
    pop.cross_shard_fraction = flags.fraction("--cross-shard-rate", base_pop.cross_shard_fraction)?;
    if let Some(raw) = flags.value("--mix")? {
        pop.mix = parse_mix(raw)?;
    }
    cfg.trunk.intensity = flags.non_negative("--trunk-intensity", base.trunk.intensity)?;
    // A bad class name is a usage error even when no intensity arms it.
    match flags.value("--trunk-class")? {
        None => {}
        Some("all") => cfg.trunk.class = None,
        Some(raw) => cfg.trunk.class = Some(parse_trunk_class(raw)?),
    }
    Ok(cfg)
}

/// Writes an artifact; a failed run when it cannot.
pub fn write_file(path: &str, contents: &str) -> Result<(), Failure> {
    std::fs::write(path, contents).map_err(|e| Failure::Run(format!("cannot write {path}: {e}")))
}

/// The complaint about a run one of the engine's runaway backstops cut
/// short, or `None` for a run that drained. `run_load` stops epoching at
/// `epoch > cap` and every shard still busy then counts
/// `load.drain_capped`; a shard network that hits its `max_events` cap
/// inside a run call counts `load.event_capped`. Either report describes
/// a world frozen mid-call, so `harness load` prints this on stderr and
/// exits non-zero instead of passing the KPIs off as results.
pub fn drain_capped_error(report: &LoadReport) -> Option<String> {
    [
        ("load.drain_capped", "shard(s) were still busy at the engine's epoch cap"),
        ("load.event_capped", "run call(s) of a shard network hit its event cap"),
    ]
    .into_iter()
    .find_map(|(counter, what)| {
        let n = report.stats.counter(counter);
        (n > 0).then(|| {
            format!("error: {counter} = {n}: {n} {what}; the KPIs above describe a truncated run")
        })
    })
}

/// Prints the section banner every subcommand uses.
pub fn heading(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a repository. Identifies the code that produced an artifact;
/// never part of any fingerprint.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Opens a `BENCH_*.json` document: the workload name, the run-metadata
/// block — enough to re-run the experiment and to trace the artifact
/// back to the code revision — and the population's size, shards, seed
/// and window.
fn begin_artifact(workload: &str, cfg: &LoadConfig) -> JsonWriter {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("workload").string(workload);
    w.key("meta").begin_inline_object();
    w.key("seed").u64(cfg.seed);
    w.key("subscribers").u64(cfg.subscribers as u64);
    w.key("shards").u64(cfg.effective_shards() as u64);
    w.key("threads").u64(1);
    w.key("kernel").string(&cfg.kernel.to_string());
    w.key("window_secs").u64(cfg.population.window_secs);
    w.key("git").string(&git_describe());
    w.end();
    w.key("subscribers").u64(cfg.subscribers as u64);
    w.key("shards").u64(cfg.effective_shards() as u64);
    w.key("seed").u64(cfg.seed);
    w.key("window_secs").u64(cfg.population.window_secs);
    w
}

/// How an artifact column prints its KPI.
#[derive(Clone, Copy, Debug)]
pub enum Fmt {
    /// An event count.
    Int,
    /// A float rounded to this many decimals.
    Fixed(usize),
}

/// One KPI column of a `BENCH_*.json` cell: the JSON member name, the
/// KPI expression [`LoadReport::kpi`] evaluates, and the number format.
pub type Column = (&'static str, &'static str, Fmt);

/// The KPI columns of a `BENCH_chaos.json` cell, between its
/// `class`/`intensity` labels and its `fingerprint`. Node-fault cells
/// leave the trunk columns at zero and vice versa — the matrix keeps
/// one schema for both fault families.
pub const CHAOS_COLUMNS: &[Column] = &[
    ("faults_injected", "resilience.faults_injected", Fmt::Int),
    ("attempts", "attempts", Fmt::Int),
    ("dropped_faulted", DROPPED_FAULTED, Fmt::Int),
    ("drop_rate", DROP_RATE, Fmt::Fixed(6)),
    ("recovery_n", "resilience.recovery_ms.count", Fmt::Int),
    ("recovery_p50_ms", "resilience.recovery_ms.p50", Fmt::Fixed(1)),
    ("recovery_p99_ms", "resilience.recovery_ms.p99", Fmt::Fixed(1)),
    ("ras_retries", "resilience.ras_retries", Fmt::Int),
    ("arq_retries", "resilience.arq_retries", Fmt::Int),
    ("redial_attempts", "resilience.redial_attempts", Fmt::Int),
    (
        "unavailability_secs",
        "resilience.unavailability_secs.link_degrade+resilience.unavailability_secs.node_crash\
         +resilience.unavailability_secs.blackhole",
        Fmt::Fixed(1),
    ),
    ("frame_loss", "frame_loss", Fmt::Fixed(6)),
    ("mos", "mos", Fmt::Fixed(3)),
    ("trunk_retransmits", "trunk.retransmits", Fmt::Int),
    ("trunk_dup_drops", "trunk.dup_drops", Fmt::Int),
    ("trunk_dup_injected", "trunk.dup_injected", Fmt::Int),
    ("trunk_reordered", "trunk.reordered", Fmt::Int),
    ("trunk_expired", "trunk.expired", Fmt::Int),
    ("trunk_frame_drops", "trunk.frame_drops", Fmt::Int),
    ("trunk_handoff_drops", "trunk.handoff_drops", Fmt::Int),
    ("trunk_reroutes", "trunk.reroutes", Fmt::Int),
];

/// Dials that failed inside a fault window of any class.
const DROPPED_FAULTED: &str = "resilience.dropped_link_degrade+resilience.dropped_node_crash\
                               +resilience.dropped_blackhole";
/// Dials that failed inside a fault window of any class
/// (`DROPPED_FAULTED`), as a fraction of the attempts.
pub const DROP_RATE: &str = "resilience.dropped_link_degrade+resilience.dropped_node_crash\
                             +resilience.dropped_blackhole/attempts";

/// The KPI columns of a `BENCH_surge.json` cell, between its
/// `intensity`/`controls` labels and its `fingerprint`.
pub const SURGE_COLUMNS: &[Column] = &[
    ("attempts", "attempts", Fmt::Int),
    ("attempts_peak", "overload.attempts_peak", Fmt::Int),
    ("peak_drop_rate", "overload.peak_drop_rate", Fmt::Fixed(6)),
    ("steady_drop_rate", "overload.steady_drop_rate", Fmt::Fixed(6)),
    ("pages_throttled", "overload.pages_throttled", Fmt::Int),
    ("pages_shed", "overload.pages_shed", Fmt::Int),
    ("gk_admission_shed", "overload.gk_admission_shed", Fmt::Int),
    ("gk_shed_deferred", "overload.gk_shed_deferred", Fmt::Int),
    ("pdp_deferred", "overload.pdp_deferred", Fmt::Int),
    ("pdp_rejected", "overload.pdp_rejected", Fmt::Int),
    ("admission_delay_n", "overload.admission_delay_ms.count", Fmt::Int),
    ("admission_delay_p50_ms", "overload.admission_delay_ms.p50", Fmt::Fixed(1)),
    ("admission_delay_p99_ms", "overload.admission_delay_ms.p99", Fmt::Fixed(1)),
    ("setup_p99_ms", "setup_delay_ms.p99", Fmt::Fixed(1)),
    ("mos", "mos", Fmt::Fixed(3)),
];

/// Writes `columns` of `report` into the open cell object, then the
/// run fingerprint that closes every cell.
fn write_columns(w: &mut JsonWriter, report: &LoadReport, columns: &[Column]) {
    for &(name, expr, fmt) in columns {
        let value = report.kpi(expr);
        match fmt {
            Fmt::Int => w.key(name).u64(value as u64),
            Fmt::Fixed(places) => w.key(name).f64_fixed(value, places),
        };
    }
    w.key("fingerprint").hex64(report.fingerprint());
}

/// `BENCH_chaos.json`: one cell per `(class, intensity, run)`.
pub fn chaos_json(base: &LoadConfig, cells: &[(&str, f64, LoadReport)]) -> String {
    let mut w = begin_artifact("busy_hour_chaos", base);
    w.key("cells").begin_array();
    for (class, intensity, report) in cells {
        w.begin_inline_object();
        w.key("class").string(class).key("intensity").f64_short(*intensity);
        write_columns(&mut w, report, CHAOS_COLUMNS);
        w.end();
    }
    w.end().end();
    w.finish()
}

/// `BENCH_surge.json`: one cell per `(shock intensity, controls on, run)`.
pub fn surge_json(
    base: &LoadConfig,
    controls: OverloadControls,
    cells: &[(f64, bool, LoadReport)],
) -> String {
    let mut w = begin_artifact("busy_hour_surge", base);
    w.key("controls").begin_inline_object();
    w.key("paging_rate_per_s").u64(controls.paging_rate_per_s.into());
    w.key("gk_shed_utilization").f64_short(controls.gk_shed_utilization);
    w.key("pdp_rate_per_s").u64(controls.pdp_rate_per_s.into());
    w.end();
    w.key("cells").begin_array();
    for (intensity, on, report) in cells {
        w.begin_inline_object();
        w.key("intensity").f64_short(*intensity).key("controls").bool(*on);
        write_columns(&mut w, report, SURGE_COLUMNS);
        w.end();
    }
    w.end().end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgprs_load::TrunkPlanConfig;

    fn parse(args: &[&str]) -> Result<LoadConfig, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_load_config(&Flags(&args), &LoadConfig::default())
    }

    #[test]
    fn well_formed_flags_parse() {
        let cfg = parse(&["--seed", "7", "--mix", "0.4,0.3,0.3", "--rate", "0"]).unwrap();
        assert_eq!((cfg.seed, cfg.population.mix.mt), (7, 0.3));
        assert_eq!(cfg.population.calls_per_sub_hour, 0.0);
        let edges = ["--window-secs", "18446744073709", "--mobility", "1", "--hold", "0"];
        let cfg = parse(&[&edges[..], &["--rate", "0"]].concat()).unwrap();
        assert_eq!(cfg.population.window_secs, MAX_WINDOW_SECS);
        // Ten thousand calls per subscriber are the most a run plans.
        let cfg = parse(&["--rate", "10000", "--window-secs", "3600"]).unwrap();
        assert_eq!(cfg.population.calls_per_sub_hour, 10_000.0);
        // A value that starts with `-` is read as a value, and refused by
        // its range rather than taken for a missing one.
        let err = parse(&["--rate", "-1"]).unwrap_err();
        assert!(err.contains("--rate") && err.contains(">= 0"), "{err}");
        for class in TrunkFaultClass::ALL {
            for name in [&class.key()["trunk_".len()..], class.key()] {
                let cfg = parse(&["--trunk-intensity", "0.5", "--trunk-class", name]).unwrap();
                assert_eq!(cfg.trunk, TrunkPlanConfig::only(class, 0.5), "{name}");
            }
        }
        let cfg = parse(&["--trunk-intensity", "0.5", "--trunk-class", "all"]).unwrap();
        assert_eq!(cfg.trunk, TrunkPlanConfig::all(0.5));
    }

    #[test]
    fn absent_flags_keep_the_base() {
        let mut base = LoadConfig { subscribers: 512, shards: 2, ..LoadConfig::default() };
        base.population.calls_per_sub_hour = 60.0;
        base.trunk = TrunkPlanConfig::only(TrunkFaultClass::Dup, 0.5);
        let args = ["--seed".to_string(), "7".to_string()];
        let cfg = parse_load_config(&Flags(&args), &base).unwrap();
        assert_eq!((cfg.subscribers, cfg.shards, cfg.seed), (512, 2, 7));
        assert_eq!(cfg.population.calls_per_sub_hour, 60.0);
        assert_eq!(cfg.trunk, base.trunk);
    }

    #[test]
    fn malformed_flags_name_the_flag() {
        for (args, flag) in [
            (&["--mix", "0.4,x,0.3,0.3"][..], "--mix"),
            (&["--mix", "0.4,0.6"], "--mix"),
            (&["--subscribers", "64", "--seed"], "--seed"),
            (&["--seed", "--subscribers", "64"], "--seed"),
            (&["--seed", "forty-two"], "--seed"),
            (
                &["--trunk-intensity", "0.5", "--trunk-class", "flood"],
                "--trunk-class",
            ),
            (&["--trunk-class", "flood"], "--trunk-class"),
            (&["--trunk-class", "trunk_trunk_loss"], "--trunk-class"),
            (&["--rate", "inf"], "--rate"),
            (&["--rate", "-1"], "--rate"),
            (&["--hold", "nan"], "--hold"),
            (&["--hold", "-0.5"], "--hold"),
            (&["--trunk-intensity", "nan"], "--trunk-intensity"),
            (&["--trunk-intensity", "-1"], "--trunk-intensity"),
            (&["--mobility", "nan"], "--mobility"),
            (&["--mobility", "1.5"], "--mobility"),
            (&["--cross-shard-rate", "nan"], "--cross-shard-rate"),
            (&["--cross-shard-rate", "-0.1"], "--cross-shard-rate"),
            (&["--mix", "nan,0,0"], "--mix"),
            (&["--mix", "-1,1,1"], "--mix"),
            (&["--mix", "inf,1,1"], "--mix"),
            (&["--mix", "0,0,0"], "--mix"),
            (&["--window-secs", "18446744073709551615"], "--window-secs"),
            (&["--window-secs", "18446744073710"], "--window-secs"),
            (&["--rate", "1e300"], "--rate"),
            (&["--rate", "10001", "--window-secs", "3600"], "--rate"),
            (&["--window-secs", "18446744073709"], "--window-secs"),
        ] {
            let err = parse(args).expect_err(&args.join(" "));
            assert!(err.contains(flag), "{args:?} -> {err}");
        }
    }

    #[test]
    fn unknown_flags_name_the_stranger() {
        let check = |sub: &str, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Flags(&args).check(USAGE, sub)
        };
        let shared = ["--subscribers", "64", "--rate", "-1", "--snapshot-secs", "2"];
        for sub in ["load", "chaos", "surge"] {
            assert_eq!(check(sub, &shared), Ok(()), "{sub} reads the shared flags");
        }
        assert_eq!(check("diff", &["a.json", "b.json", "--json"]), Ok(()));
        assert_eq!(
            check("surge", &["--pdp-rate", "2", "--verbose"]),
            Ok(()),
            "continuation line"
        );
        for (sub, args, stranger) in [
            ("load", &["--subscribes", "64"][..], "--subscribes"),
            ("chaos", &["--check"], "--check"),
            ("load", &["--paging-rate", "2"], "--paging-rate"),
            ("diff", &["--seed", "7"], "--seed"),
            ("diff", &["--check"], "--check"),
            ("load", &["--kernel", "heap"], "--kernel"),
        ] {
            let err = check(sub, args).expect_err(&args.join(" "));
            assert!(
                err.contains(stranger) && err.contains(sub),
                "{args:?} -> {err}"
            );
        }
    }
}
