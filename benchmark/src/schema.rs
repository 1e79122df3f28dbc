//! The metric tables, and the check that `BENCHMARK.json` declares
//! exactly what the runner emits.
//!
//! `exact` marks a metric that is a pure function of the simulated input
//! (an event count, a model KPI): two runs of the same code must agree
//! on it to the last bit, so `--agree` compares it for equality instead
//! of against a bound.

use vgprs_sim::JsonValue;

use crate::workloads;
use Better::{Higher, Lower};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

/// An end-to-end metric and the share of the parent's value by which it
/// may worsen before a change counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEndDef {
    pub metric: MetricDef,
    pub bound: f64,
}

pub const RUN_S: &str = "run_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

pub const END_TO_END: [EndToEndDef; 3] = [
    EndToEndDef {
        metric: timed(RUN_S, "s"),
        bound: 0.25,
    },
    EndToEndDef {
        metric: timed(SETUP_S, "s"),
        bound: 0.25,
    },
    EndToEndDef {
        metric: timed(PEAK_RSS_MB, "MB"),
        bound: 0.15,
    },
];

pub const PER_LAYER: [MetricDef; 63] = [
    // Phase 1: plans and shard worlds.
    timed("load.population.plan_s", "s"),
    exact("load.population.plans", "count", Lower),
    timed("load.shard.build_s", "s"),
    // Phase 2: the epoch loop.
    timed("load.shard.epoch_s", "s"),
    exact("load.shard.epoch_calls", "count", Lower),
    exact("load.shard.idle_epoch_share", "ratio", Lower),
    timed("load.engine.poll_s", "s"),
    timed("load.trunk.new_s", "s"),
    timed("load.trunk.post_s", "s"),
    timed("load.trunk.seal_s", "s"),
    exact("load.trunk.flits", "count", Lower),
    exact("load.trunk.retransmits", "count", Lower),
    exact("load.trunk.dup_drops", "count", Lower),
    exact("load.trunk.expired", "count", Lower),
    exact("load.trunk.retx_per_flit", "ratio", Lower),
    // Phase 3: finish, merge, render.
    timed("load.shard.finish_s", "s"),
    timed("load.report.merge_s", "s"),
    timed("load.report.json_s", "s"),
    timed("load.report.fingerprint_s", "s"),
    exact("load.snapshot.frames", "count", Lower),
    // The engine around the phases.
    timed("load.engine.pool_overhead_s", "s"),
    MetricDef {
        name: "load.engine.thread_speedup",
        unit: "ratio",
        better: Higher,
        exact: false,
    },
    timed("load.engine.cpu_s", "s"),
    timed("load.engine.driver_gap_s", "s"),
    timed("load.rss_kb_per_sub", "kB"),
    // Simulated work and host time per unit of it.
    exact("sim.events", "count", Lower),
    exact("sim.secs", "s", Lower),
    MetricDef {
        name: "sim.events_per_s",
        unit: "1/s",
        better: Higher,
        exact: false,
    },
    timed("sim.ns_per_event", "ns"),
    exact("sim.events_per_sub", "ratio", Lower),
    exact("sim.events_per_attempt", "ratio", Lower),
    // Model work counts from the merged report.
    exact("gsm.pages", "count", Lower),
    exact("gsm.reselections", "count", Higher),
    exact("core.attempts", "count", Higher),
    exact("core.connected_legs", "count", Higher),
    exact("core.handoffs_attempted", "count", Higher),
    exact("core.handoffs_completed", "count", Higher),
    exact("gsm.hlr_relocations", "count", Higher),
    exact("media.voice_frames", "count", Higher),
    exact("media.mos", "mos", Higher),
    exact("media.frame_loss", "ratio", Lower),
    exact("core.setup_p99_ms", "ms", Lower),
    exact("core.blocking_rate", "ratio", Lower),
    // Micro spans on fixed synthetic inputs.
    timed("sim.wheel.push_pop_ns", "ns"),
    timed("sim.net.dispatch_ns", "ns"),
    timed("sim.net.dispatch_heap_ns", "ns"),
    timed("sim.net.timer_ns", "ns"),
    timed("sim.stats.count_ns", "ns"),
    timed("sim.stats.observe_ns", "ns"),
    MetricDef {
        name: "sim.json.parse_mb_s",
        unit: "MB/s",
        better: Higher,
        exact: false,
    },
    timed("wire.gtp_roundtrip_ns", "ns"),
    timed("wire.rtp_roundtrip_ns", "ns"),
    timed("wire.q931_roundtrip_ns", "ns"),
    timed("wire.isup_roundtrip_ns", "ns"),
    timed("wire.map_roundtrip_ns", "ns"),
    timed("wire.ras_roundtrip_ns", "ns"),
    timed("media.emodel_mos_ns", "ns"),
    timed("media.jitter_offer_ns", "ns"),
    timed("core.registration_us", "us"),
    timed("core.call_cycle_us", "us"),
    timed("faults.compile_trunk_plan_us", "us"),
    timed("scenario.compile_demand_us", "us"),
    // Host drift evidence.
    timed("bench.calib_ns", "ns"),
];

/// Letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn name_is_valid(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One declared metric as `BENCHMARK.json` spells it.
fn declared_metric(entry: &JsonValue) -> Option<(String, String, String)> {
    let field = |key: &str| Some(entry.get(key)?.as_str()?.to_owned());
    Some((field("name")?, field("unit")?, field("better")?))
}

/// Compares one declared metric list against one emitted table; every
/// difference becomes a line in `problems`.
fn compare_metrics(
    section: &str,
    declared: Option<&JsonValue>,
    emitted: &[(MetricDef, Option<f64>)],
    problems: &mut Vec<String>,
) {
    let Some(entries) = declared.and_then(JsonValue::as_array) else {
        problems.push(format!("{section}: missing or not an array"));
        return;
    };
    let mut seen: Vec<String> = Vec::new();
    for entry in entries {
        let Some((name, unit, better)) = declared_metric(entry) else {
            problems.push(format!("{section}: an entry lacks name, unit or better"));
            continue;
        };
        if !name_is_valid(&name) {
            problems.push(format!("{section}: invalid name {name:?}"));
        }
        match emitted.iter().find(|(m, _)| m.name == name) {
            None => problems.push(format!("{section}: {name} is declared but never emitted")),
            Some((m, bound)) => {
                if m.unit != unit || m.better.name() != better {
                    problems.push(format!(
                        "{section}: {name} declared as {unit}/{better}, emitted as {}/{}",
                        m.unit,
                        m.better.name()
                    ));
                }
                let declared_bound = entry.get("bound").and_then(JsonValue::as_f64);
                if *bound != declared_bound {
                    problems.push(format!(
                        "{section}: {name} bound declared {declared_bound:?}, runner uses {bound:?}"
                    ));
                }
            }
        }
        seen.push(name);
    }
    for (m, _) in emitted {
        if !seen.iter().any(|n| n == m.name) {
            problems.push(format!("{section}: {} is emitted but not declared", m.name));
        }
    }
}

/// Checks a `BENCHMARK.json` document against the runner's tables.
pub fn check_declaration(text: &str) -> Result<(), Vec<String>> {
    let doc = JsonValue::parse(text).map_err(|e| vec![e.to_string()])?;
    let mut problems = Vec::new();

    let declared: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    for name in &declared {
        if !name_is_valid(name) {
            problems.push(format!("workloads: invalid name {name:?}"));
        }
        if workloads::by_name(name).is_none() {
            problems.push(format!(
                "workloads: {name} is declared but the runner has no such workload"
            ));
        }
    }
    for w in &workloads::ALL {
        if !declared.contains(&w.name) {
            problems.push(format!("workloads: {} is run but not declared", w.name));
        }
    }

    let end_to_end: Vec<(MetricDef, Option<f64>)> = END_TO_END
        .iter()
        .map(|d| (d.metric, Some(d.bound)))
        .collect();
    compare_metrics(
        "end_to_end",
        doc.get("end_to_end"),
        &end_to_end,
        &mut problems,
    );
    let per_layer: Vec<(MetricDef, Option<f64>)> = PER_LAYER.iter().map(|m| (*m, None)).collect();
    compare_metrics("per_layer", doc.get("per_layer"), &per_layer, &mut problems);

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECLARATION: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn the_committed_declaration_matches_the_runner() {
        assert_eq!(check_declaration(DECLARATION), Ok(()));
    }

    #[test]
    fn every_emitted_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|d| d.metric.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(workloads::ALL.iter().map(|w| w.name));
        for name in &names {
            assert!(name_is_valid(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(workloads::ALL
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn a_drifted_declaration_is_refused() {
        let missing = DECLARATION.replacen("\"run_s\"", "\"run_secs\"", 1);
        let problems = check_declaration(&missing).expect_err("renamed metric");
        assert!(problems
            .iter()
            .any(|p| p.contains("run_secs is declared but never emitted")));
        assert!(problems
            .iter()
            .any(|p| p.contains("run_s is emitted but not declared")));

        let bad_name = DECLARATION.replacen("\"busy_hour\"", "\"busy hour\"", 1);
        let problems = check_declaration(&bad_name).expect_err("space in a name");
        assert!(problems.iter().any(|p| p.contains("invalid name")));

        assert!(!name_is_valid("a/b") && !name_is_valid("") && !name_is_valid(".x"));
    }
}
