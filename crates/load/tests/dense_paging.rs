//! One big cell, pinned. Every other pinned world camps about 256
//! handsets on a cell; the benchmark's `dense_paging` world puts its
//! whole population on one, so each page fans out to all of them. This
//! is that world at the benchmark's `--quick` size: 1 024 subscribers in
//! one shard at seed 42, its other fields the benchmark's (a 60 s
//! window, a tenth of the movers crossing shards, 4 calls an hour, 1 s
//! of voice per call, the wheel kernel on one thread).
//!
//! A change to how a cell's page reaches its handsets is correct iff
//! nothing here moves: the fingerprints, the event count, the pages the
//! cell broadcast and the stale-cell pages its handsets ignored — with
//! voice in trains, and frame by frame (the identity it had before
//! voice rode trains).

use vgprs_load::{run_load, run_load_with, LoadConfig, LoadReport, Registration};
use vgprs_sim::Kernel;

fn dense_paging_quick() -> LoadConfig {
    let mut cfg = LoadConfig {
        subscribers: 1_024,
        shards: 1,
        threads: 1,
        seed: 42,
        voice_sample_ms: 1_000,
        kernel: Kernel::Wheel,
        ..LoadConfig::default()
    };
    cfg.population.window_secs = 60;
    cfg.population.cross_shard_fraction = 0.1;
    cfg.population.calls_per_sub_hour = 4.0;
    cfg
}

fn identity(report: &LoadReport) -> String {
    let stats = &report.stats;
    format!(
        "{:016x} {:016x} {} pages={} stale={}",
        report.fingerprint(),
        report.snapshot_fingerprint(),
        report.events,
        stats.counter("bts.pages_broadcast"),
        stats.counter("ms.ignored_stale_cell"),
    )
}

#[test]
fn one_big_cell_is_pinned() {
    let cfg = dense_paging_quick();
    assert_eq!(
        identity(&run_load(&cfg)),
        "0e8f795a34f9e12a ab92ef4ed7b6fbd7 28228 pages=30 stale=945",
        "the dense-paging world drifted from its pinned identity"
    );
    let per_frame = run_load_with(&cfg, 1, Registration::Provision, |shard| {
        shard.set_voice_trains(false)
    });
    assert_eq!(
        identity(&per_frame),
        "4fae271aff4bcfe7 ab92ef4ed7b6fbd7 54669 pages=30 stale=945",
        "the dense-paging world, frame by frame, drifted from its pinned identity"
    );
}
