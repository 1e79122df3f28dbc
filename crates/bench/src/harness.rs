//! Shared plumbing for the `harness` binary's subcommands.
//!
//! Every population-scale subcommand (`load`, `chaos`, `surge`) parses
//! the same flag vocabulary into a [`LoadConfig`], prints the same
//! banner style, and stamps the same run-metadata block into its
//! `BENCH_*.json` artifact. Keeping the pieces here means a new
//! subcommand cannot drift from the others.

use vgprs_load::{
    CallMix, LoadConfig, LoadReport, OverloadControls, TrunkFaultClass, TrunkPlanConfig,
};
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

/// Ends the process with a usage error: the only exit in flag parsing,
/// kept apart from it so the parsing is testable.
fn usage_exit(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
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
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for {name}")),
        }
    }

    /// [`Flags::value`], exiting with a usage error on a missing value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.value(name).unwrap_or_else(|e| usage_exit(e))
    }

    /// [`Flags::parsed`], exiting with a usage error on a bad value.
    pub fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.parsed(name, default).unwrap_or_else(|e| usage_exit(e))
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

/// Parses a trunk fault class name (`loss`, `dup`, `reorder`,
/// `partition` — the `trunk_` prefix is optional).
fn parse_trunk_class(raw: &str) -> Result<TrunkFaultClass, String> {
    match raw.strip_prefix("trunk_").unwrap_or(raw) {
        "loss" => Ok(TrunkFaultClass::Loss),
        "dup" => Ok(TrunkFaultClass::Dup),
        "reorder" => Ok(TrunkFaultClass::Reorder),
        "partition" => Ok(TrunkFaultClass::Partition),
        _ => Err(format!(
            "invalid value {raw:?} for --trunk-class; expected loss, dup, \
             reorder, partition or all"
        )),
    }
}

/// Per-subcommand defaults for the shared flag vocabulary. Start from
/// [`RunDefaults::default`] and override the fields the experiment
/// needs; every field is overridable on the command line.
#[derive(Clone, Debug)]
pub struct RunDefaults {
    /// `--subscribers` default.
    pub subscribers: usize,
    /// `--shards` default (`0` = derive from population).
    pub shards: usize,
    /// `--window-secs` default.
    pub window_secs: u64,
    /// `--rate` default (calls per subscriber-hour).
    pub calls_per_sub_hour: f64,
    /// `--hold` default (mean seconds).
    pub mean_hold_secs: f64,
    /// `--mobility` default.
    pub mobility_fraction: f64,
    /// `--gk-bandwidth` default (admission budget per serving area).
    pub gk_bandwidth: u32,
}

impl Default for RunDefaults {
    fn default() -> Self {
        let base = LoadConfig::default();
        RunDefaults {
            subscribers: base.subscribers,
            shards: base.shards,
            window_secs: base.population.window_secs,
            calls_per_sub_hour: base.population.calls_per_sub_hour,
            mean_hold_secs: base.population.mean_hold_secs,
            mobility_fraction: base.population.mobility_fraction,
            gk_bandwidth: base.gk_bandwidth,
        }
    }
}

/// Builds a [`LoadConfig`] from the shared flag vocabulary over the
/// given per-subcommand defaults, exiting with a usage error on a flag
/// [`parse_load_config`] refuses.
pub fn load_config_from(flags: &Flags<'_>, defaults: &RunDefaults) -> LoadConfig {
    parse_load_config(flags, defaults).unwrap_or_else(|e| usage_exit(e))
}

/// The parse behind [`load_config_from`]: the error names the flag whose
/// value is missing or malformed.
pub fn parse_load_config(flags: &Flags<'_>, defaults: &RunDefaults) -> Result<LoadConfig, String> {
    let mut cfg = LoadConfig {
        subscribers: flags.parsed("--subscribers", defaults.subscribers)?,
        shards: flags.parsed("--shards", defaults.shards)?,
        seed: flags.parsed("--seed", SEED)?,
        tch_capacity: flags.parsed("--tch", 64)?,
        voice_sample_ms: flags.parsed("--voice-sample-ms", 1_000)?,
        gk_bandwidth: flags.parsed("--gk-bandwidth", defaults.gk_bandwidth)?,
        ..LoadConfig::default()
    };
    cfg.population.window_secs = flags.parsed("--window-secs", defaults.window_secs)?;
    cfg.population.calls_per_sub_hour = flags.parsed("--rate", defaults.calls_per_sub_hour)?;
    cfg.population.mean_hold_secs = flags.parsed("--hold", defaults.mean_hold_secs)?;
    cfg.population.mobility_fraction = flags.parsed("--mobility", defaults.mobility_fraction)?;
    cfg.population.cross_shard_fraction = flags.parsed("--cross-shard-rate", 0.0)?;
    cfg.snapshot_secs = flags.parsed("--snapshot-secs", cfg.snapshot_secs)?;
    let trunk_intensity: f64 = flags.parsed("--trunk-intensity", 0.0)?;
    // A bad class name is a usage error even when no intensity arms it.
    let trunk_class = match flags.value("--trunk-class")? {
        None | Some("all") => None,
        Some(raw) => Some(parse_trunk_class(raw)?),
    };
    if trunk_intensity > 0.0 {
        cfg.trunk = match trunk_class {
            None => TrunkPlanConfig::all(trunk_intensity),
            Some(class) => TrunkPlanConfig::only(class, trunk_intensity),
        };
    }
    if let Some(mix) = flags.value("--mix")? {
        let parts: Result<Vec<f64>, _> = mix.split(',').map(str::parse).collect();
        let Ok([mo, mt, m2m]) = parts.as_deref() else {
            return Err(format!(
                "invalid value {mix:?} for --mix; expected MO,MT,M2M weights, e.g. 0.45,0.45,0.10"
            ));
        };
        cfg.population.mix = CallMix {
            mo: *mo,
            mt: *mt,
            m2m: *m2m,
        };
    }
    Ok(cfg)
}

/// Writes an artifact, exiting on I/O failure.
pub fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
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
/// back to the code revision — and the population size.
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
    w.key("shards").u64(base.effective_shards() as u64);
    w.key("seed").u64(base.seed);
    w.key("window_secs").u64(base.population.window_secs);
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
    w.key("shards").u64(base.effective_shards() as u64);
    w.key("seed").u64(base.seed);
    w.key("window_secs").u64(base.population.window_secs);
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

    fn parse(args: &[&str]) -> Result<LoadConfig, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_load_config(&Flags(&args), &RunDefaults::default())
    }

    #[test]
    fn well_formed_flags_parse() {
        let cfg = parse(&["--seed", "7", "--mix", "0.4,0.3,0.3", "--rate", "-1"]).unwrap();
        assert_eq!((cfg.seed, cfg.population.mix.mt), (7, 0.3));
        assert_eq!(
            cfg.population.calls_per_sub_hour, -1.0,
            "a negative number is a value"
        );
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
