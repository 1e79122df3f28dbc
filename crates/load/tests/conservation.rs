//! Conservation at the end of a run: what the driver starts, it must
//! finish. Every dial ends in exactly one outcome, and every traffic
//! channel, voice PDP context and gatekeeper admission a call takes is
//! given back once the run has drained.
//!
//! The load driver breaks these today. Its drop probe abandons a call
//! it finds dead without telling either end, so that call's channel,
//! context and admission outlive it; and it files a blocked or rejected
//! call as a drop as well, so those calls are counted twice. Each test
//! pins its world's exact violation list: a fix empties the list, a new
//! leak lengthens it, and either edits this file.
//!
//! The checks read the merged report's counters. The ones that need the
//! live shards — no armed timer at quiescence, HLR ownership as a
//! partition, drained trunk sequence spaces — belong to an end-of-run
//! audit inside the engine, which alone holds the shards.

use vgprs_load::{run_load, FaultClass, LoadConfig, LoadReport, PopulationConfig};

/// Resources a call takes and must give back, as (taken, returned).
const BALANCES: [(&str, &str); 3] = [
    ("bsc.tch_allocated", "bsc.tch_released"),
    ("vmsc.voice_context_requested", "vmsc.voice_context_deactivated"),
    ("gk.admissions", "gk.disengages"),
];

/// Every identity `report` breaks, one line each, in a fixed order.
fn violations(report: &LoadReport) -> Vec<String> {
    let count = |name: &str| report.stats.counter(name);
    let sum = |names: &[&str]| names.iter().map(|&n| count(n)).sum::<u64>();
    let mut out = Vec::new();

    // Each dial decision, a redial included, ends in exactly one way:
    // the originator sees the connect, a cell has no TCH, the gatekeeper
    // rejects, the probe finds the call dead (inside a fault window or
    // not), or a party is busy, away or missing and nothing is dialed.
    let attempts = count("load.attempts");
    let connected = report.kpi("setup_delay_ms.count") as u64;
    let blocked = count("bsc.tch_blocked");
    let rejected = sum(&[
        "gk.admission_rejected_bandwidth",
        "gk.admission_rejected_unknown_alias",
    ]);
    let dropped = FaultClass::ALL
        .map(FaultClass::key)
        .into_iter()
        .chain(["baseline"])
        .map(|key| count(&format!("load.dropped_{key}")))
        .sum::<u64>();
    let skipped = sum(&["load.busy_skipped", "load.away_skipped", "load.no_peer_available"]);
    let outcomes = connected + blocked + rejected + dropped + skipped;
    if attempts != outcomes {
        out.push(format!(
            "load.attempts {attempts} != {connected} connected + {blocked} blocked \
             + {rejected} rejected + {dropped} dropped + {skipped} skipped"
        ));
    }

    for (taken, returned) in BALANCES {
        let (t, r) = (count(taken), count(returned));
        if t != r {
            out.push(format!("{taken} {t} != {returned} {r}"));
        }
    }
    out
}

/// `harness load --subscribers 2048`: the canonical world, scaled down.
#[test]
fn canonical_world_leaks_what_its_probe_abandons() {
    let report = run_load(&LoadConfig {
        subscribers: 2048,
        ..LoadConfig::default()
    });
    assert_eq!(report.fingerprint(), 0x7fee_3f68_db21_0f7a, "the harness's world");
    assert_eq!(
        violations(&report),
        [
            "load.attempts 131 != 121 connected + 0 blocked + 2 rejected + 6 dropped + 4 skipped",
            "vmsc.voice_context_requested 133 != vmsc.voice_context_deactivated 132",
            "gk.admissions 248 != gk.disengages 246",
        ]
    );
}

/// `harness load --subscribers 1024 --rate 16 --voice-sample-ms 2400`:
/// the `voice_media` benchmark workload's shape, scaled down.
#[test]
fn voice_world_leaks_what_its_probe_abandons() {
    let report = run_load(&LoadConfig {
        subscribers: 1024,
        voice_sample_ms: 2_400,
        population: PopulationConfig {
            calls_per_sub_hour: 16.0,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    });
    assert_eq!(report.fingerprint(), 0x2543_5ce3_abc8_3376, "the harness's world");
    assert_eq!(
        violations(&report),
        [
            "load.attempts 249 != 215 connected + 0 blocked + 6 rejected + 6 dropped + 28 skipped",
            "bsc.tch_allocated 241 != bsc.tch_released 240",
            "vmsc.voice_context_requested 236 != vmsc.voice_context_deactivated 233",
            "gk.admissions 430 != gk.disengages 426",
        ]
    );
}
