//! Pins what is derived from the KPI table in `vgprs_load::kpi`.

use std::collections::HashSet;

use vgprs_load::kpi::{self, Kind, KPIS, SNAPSHOT_COUNTERS, SNAPSHOT_HISTOGRAMS};
use vgprs_load::FaultClass;
use vgprs_sim::Stats;

/// The snapshot schema is derived (sources of the rows marked for
/// snapshots, name-sorted), and its order is what the snapshot
/// fingerprint folds values in — so a table edit that moves it must
/// show up here, next to the re-baselined fingerprints.
#[test]
fn snapshot_schema_order_is_pinned() {
    assert_eq!(
        *SNAPSHOT_COUNTERS,
        [
            "bsc.tch_blocked",
            "gk.admission_rejected_bandwidth",
            "gk.admission_rejected_unknown_alias",
            "gk.admission_shed",
            "load.attempts",
            "load.busy_skipped",
            "load.dropped_baseline",
            "load.dropped_blackhole",
            "load.dropped_link_degrade",
            "load.dropped_node_crash",
            "load.faults_injected",
            "load.handoff_attempts",
            "load.handoff_success",
            "load.trunk_frame_drops",
            "load.trunk_handoff_drops",
            "load.trunk_reroutes",
            "ms.voice_frames_received",
            "ms.voice_frames_sent",
            "sgsn.pdp_admission_deferred",
            "sgsn.pdp_admission_rejected",
            "term.rtp_received",
            "term.rtp_sent",
            "vmsc.admission_rejected",
            "vmsc.pages_shed",
            "vmsc.pages_throttled",
        ]
    );
    assert_eq!(
        *SNAPSHOT_HISTOGRAMS,
        [
            "load.handoff_interruption_ms",
            "load.heal_recovery_ms",
            "ms.post_dial_delay_ms",
            "ms.voice_e2e_ms",
            "term.post_dial_delay_ms",
            "term.voice_e2e_ms",
        ]
    );
}

/// Every row evaluates (its operand rows exist and have the kind the
/// formula needs), no path is declared twice, and no counter or
/// histogram is named by two rows — the "declared once" property.
#[test]
fn rows_are_unique_and_resolve() {
    let empty = Stats::new();
    let mut paths = HashSet::new();
    let mut sources = HashSet::new();
    for k in KPIS {
        match k.kind {
            Kind::Hist(_) => drop(k.hist(&empty)),
            _ => drop(k.scalar(&empty)),
        }
        assert!(paths.insert(k.path), "row {} declared twice", k.path);
        let lists: Vec<&[&str]> = match &k.kind {
            Kind::Count(n) | Kind::Secs(n) => vec![std::slice::from_ref(n)],
            Kind::Hist(n) | Kind::Ratio(n, _) => vec![n],
            Kind::Loss { received, sent } => vec![received, sent],
            Kind::Diff(..) | Kind::Mos { .. } => vec![],
        };
        for name in lists.into_iter().flatten() {
            assert!(sources.insert(*name), "{name} is a source of two rows");
        }
    }
}

/// The per-class rows are literals; they must cover the fault classes
/// the shards count under (`load.dropped_<key>`, `load.unavailability_ms_<key>`).
#[test]
fn fault_class_rows_cover_every_class() {
    let mut stats = Stats::new();
    for (i, class) in FaultClass::ALL.into_iter().enumerate() {
        stats.count_by(&format!("load.dropped_{}", class.key()), i as u64 + 1);
        stats.count_by(&format!("load.unavailability_ms_{}", class.key()), 1500);
    }
    for (i, class) in FaultClass::ALL.into_iter().enumerate() {
        let key = class.key();
        assert_eq!(kpi::value(&stats, &format!("resilience.dropped_{key}")), i as f64 + 1.0);
        assert_eq!(kpi::value(&stats, &format!("resilience.unavailability_secs.{key}")), 1.5);
    }
}

/// `a+b/c` is `(a+b)/c`, histogram statistics are leaf paths, and a
/// zero divisor yields zero rather than NaN.
#[test]
fn expressions_sum_then_divide() {
    let mut stats = Stats::new();
    stats.count_by("load.attempts", 12);
    stats.count_by("load.busy_skipped", 2);
    stats.count_by("load.dropped_blackhole", 3);
    stats.count_by("load.dropped_node_crash", 2);
    stats.observe("ms.voice_e2e_ms", 40.0);
    stats.observe("term.voice_e2e_ms", 60.0);
    assert_eq!(kpi::value(&stats, "attempts"), 10.0);
    assert_eq!(
        kpi::value(&stats, "resilience.dropped_blackhole+resilience.dropped_node_crash/attempts"),
        0.5
    );
    assert_eq!(kpi::value(&stats, "voice_delay_ms.count"), 2.0);
    assert_eq!(kpi::value(&stats, "voice_delay_ms.mean"), 50.0);
    assert_eq!(kpi::value(&stats, "attempts/handoff_attempts"), 0.0);
}
