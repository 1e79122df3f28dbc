//! Conservation at the end of a run: what the driver starts, it must
//! finish. Every dial ends in exactly one outcome, and every traffic
//! channel, voice PDP context and gatekeeper admission a call takes is
//! given back once the run has drained.
//!
//! The driver judges each dial once, from the endpoint that dialed: it
//! connected, or it failed for one named cause, and a failed call is
//! torn down at both ends. Both worlds hold every identity exactly; a
//! new leak or a dial judged twice or never fails the test.
//!
//! The checks read the merged report's counters. The ones that need the
//! live shards — no armed timer at quiescence, HLR ownership as a
//! partition, drained trunk sequence spaces — belong to an end-of-run
//! audit inside the engine, which alone holds the shards.

use vgprs_load::{
    run_load, run_load_with, LoadConfig, LoadReport, Outcome, PopulationConfig, Registration,
};

/// Resources a call takes and must give back, as (taken, returned).
const BALANCES: [(&str, &str); 3] = [
    ("bsc.tch_allocated", "bsc.tch_released"),
    (
        "vmsc.voice_context_requested",
        "vmsc.voice_context_deactivated",
    ),
    ("gk.admissions", "gk.disengages"),
];

/// Every identity `report` breaks, one line each, in a fixed order.
fn violations(report: &LoadReport) -> Vec<String> {
    let count = |name: &str| report.stats.counter(name);
    let sum = |names: &[&str]| names.iter().map(|&n| count(n)).sum::<u64>();
    let mut out = Vec::new();

    // Each dial decision, a redial included, ends in exactly one way:
    // one of the outcomes (a fault class's among them, zero in these
    // worlds), or a party is busy, away or missing and nothing is
    // dialed.
    let attempts = count("load.attempts");
    let outcomes = Outcome::ALL.map(|o| count(o.counter()));
    let skipped = sum(&[
        "load.busy_skipped",
        "load.away_skipped",
        "load.no_peer_available",
    ]);
    let judged = outcomes.iter().sum::<u64>();
    if attempts != judged + skipped {
        out.push(format!(
            "load.attempts {attempts} != {outcomes:?} judged + {skipped} skipped"
        ));
    }

    // Fault-free, a gatekeeper's ARJ is the one way a dial is rejected,
    // and the reject rate counts each ARJ once.
    let rejected = sum(&[
        "gk.admission_rejected_bandwidth",
        "gk.admission_rejected_unknown_alias",
    ]);
    let filed = report.kpi("outcome.rejected_gk") as u64;
    if filed != rejected {
        out.push(format!("outcome.rejected_gk {filed} != {rejected} ARJs"));
    }
    let rate = rejected as f64 / report.kpi("attempts");
    if report.kpi("reject_rate") != rate {
        out.push(format!(
            "reject_rate {} != {rate}",
            report.kpi("reject_rate")
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

/// `cfg`'s run, its fingerprint held to `pinned`; sent frame by frame
/// (voice trains off) the same world has `per_frame`, its identity
/// before voice rode trains.
fn pinned_run(cfg: &LoadConfig, pinned: u64, per_frame: u64) -> LoadReport {
    let oracle = run_load_with(cfg, 1, Registration::Provision, |shard| {
        shard.set_voice_trains(false)
    });
    assert_eq!(oracle.fingerprint(), per_frame, "the harness's world, frame by frame");
    let report = run_load(cfg);
    assert_eq!(report.fingerprint(), pinned, "the harness's world");
    report
}

/// `harness load --subscribers 2048`: the canonical world, scaled down.
#[test]
fn canonical_world_gives_back_what_it_takes() {
    let cfg = LoadConfig {
        subscribers: 2048,
        ..LoadConfig::default()
    };
    let report = pinned_run(&cfg, 0x474c_a990_3d36_fdf0, 0xefad_ec73_4efa_5ada);
    assert_eq!(violations(&report), Vec::<String>::new());
}

/// `harness load --subscribers 1024 --rate 16 --voice-sample-ms 2400`:
/// the `voice_media` benchmark workload's shape, scaled down.
#[test]
fn voice_world_gives_back_what_it_takes() {
    let cfg = LoadConfig {
        subscribers: 1024,
        voice_sample_ms: 2_400,
        population: PopulationConfig {
            calls_per_sub_hour: 16.0,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    };
    let report = pinned_run(&cfg, 0x710d_701e_8544_38e2, 0x24bf_6870_d005_bac2);
    assert_eq!(violations(&report), Vec::<String>::new());
}

/// `harness load --subscribers 512 --rate 16 --hold 10
/// --voice-sample-ms 10000`: voice sampled for as long as a call is
/// held on average. A call the driver gives up on is torn down at both
/// ends, so none is left talking past the engine's drain cap.
#[test]
fn voice_sampled_for_the_whole_hold_drains() {
    let report = run_load(&LoadConfig {
        subscribers: 512,
        voice_sample_ms: 10_000,
        population: PopulationConfig {
            calls_per_sub_hour: 16.0,
            mean_hold_secs: 10.0,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    });
    assert_eq!(report.stats.counter("load.drain_capped"), 0);
    assert_eq!(violations(&report), Vec::<String>::new());
}
