//! Voice trains against the per-frame oracle (rule iv).
//!
//! A talking source sends the frames it would send before its call's
//! next possible change as one message; every hop routes the train as
//! its first frame, and the sink counts each frame at the path's one
//! delay. Sent frame by frame (`Shard::set_voice_trains(false)`) the
//! same world is the oracle: the two must agree on every counter and
//! every histogram — count, sum, extremes and buckets — outside the
//! kernel's `sim.*` census, on the benchmark's four shapes, on a world
//! whose cells clip voice and on worlds under trunk chaos.

use std::collections::BTreeMap;

use vgprs_load::{
    run_load_with, FaultPlanConfig, LoadConfig, LoadReport, OverloadControls, PopulationConfig,
    Registration, ScenarioConfig, TrunkFaultClass, TrunkPlanConfig,
};

mod common;

/// `cfg` on one worker, voice in trains or frame by frame.
fn run(cfg: &LoadConfig, trains: bool) -> LoadReport {
    run_load_with(cfg, 1, Registration::Provision, |shard| {
        shard.set_voice_trains(trains)
    })
}

/// Every counter and histogram outside `sim.*`, and the simulated span.
fn outside_the_kernel(report: &LoadReport) -> (BTreeMap<String, String>, f64) {
    (common::outside_the_kernel(&report.stats, &[]), report.sim_secs)
}

/// Runs `cfg` both ways and holds them to one world; returns the train
/// run.
fn agrees(shape: &str, cfg: LoadConfig) -> LoadReport {
    let (oracle, trains) = (run(&cfg, false), run(&cfg, true));
    assert_eq!(oracle.stats.counter("sim.voice.trains"), 0, "{shape}");
    assert_eq!(
        outside_the_kernel(&oracle),
        outside_the_kernel(&trains),
        "{shape}: trains left the per-frame world"
    );
    assert!(
        trains.events < oracle.events,
        "{shape}: trains saved no event"
    );
    trains
}

/// The benchmark's population: a 60 s window at seed 42.
fn population(calls_per_sub_hour: f64, cross_shard_fraction: f64) -> PopulationConfig {
    PopulationConfig {
        calls_per_sub_hour,
        cross_shard_fraction,
        window_secs: 60,
        ..PopulationConfig::default()
    }
}

/// The four benchmark shapes, scaled down: canonical, `busy_hour`
/// (movers crossing shards), `voice_media` (16 calls an hour, 2.4 s of
/// voice each) and `dense_paging` (one cell for everyone).
#[test]
fn trains_agree_with_the_per_frame_oracle_on_the_benchmark_shapes() {
    let shapes = [
        ("canonical", 1_024, 0, population(4.0, 0.0), 1_000),
        ("busy_hour", 1_024, 0, population(4.0, 0.1), 1_000),
        ("voice_media", 768, 0, population(16.0, 0.1), 2_400),
        ("dense_paging", 1_024, 1, population(4.0, 0.1), 1_000),
    ];
    for (shape, subscribers, shards, population, voice_sample_ms) in shapes {
        let cfg = LoadConfig {
            subscribers,
            shards,
            voice_sample_ms,
            population,
            ..LoadConfig::default()
        };
        let trains = agrees(shape, cfg);
        let carried = trains.stats.counter("sim.voice.train_frames");
        assert!(carried > 0, "{shape}: no frame rode a train");
    }
}

/// A flash crowd of MT calls into one cell: while it lasts the cell's
/// pages pass its per-second budget and clip voice, and trains stop
/// short of every second that could clip; before and after it they
/// run.
#[test]
fn trains_agree_with_the_per_frame_oracle_where_cells_clip() {
    let cfg = LoadConfig {
        subscribers: 1_024,
        shards: 1,
        voice_sample_ms: 2_400,
        population: population(8.0, 0.0),
        scenario: ScenarioConfig::flash(8.0),
        ..LoadConfig::default()
    };
    let trains = agrees("clipping", cfg);
    let stats = &trains.stats;
    assert!(
        stats.counter("bts.pdch_voice_clipped") > 0,
        "no cell clipped"
    );
    assert!(stats.counter("sim.voice.trains") > 0, "no train ran");
}

/// Under trunk chaos a call rides trains unless a trunk casualty can
/// still reach one of its parties: on the `trunk_chaos` shape, scaled
/// down, and on every trunk cell of `harness chaos` (512 subscribers in
/// two shards over 120 s, 60 calls an hour of 20 s, a third of the
/// movers crossing shards; each class alone at 0.3 and at 1), where
/// some dials are exposed and go frame by frame.
#[test]
fn trains_agree_with_the_per_frame_oracle_under_trunk_chaos() {
    let scaled = LoadConfig {
        subscribers: 1_024,
        shards: 8,
        population: population(4.0, 0.35),
        trunk: TrunkPlanConfig::all(1.0),
        ..LoadConfig::default()
    };
    let trains = agrees("trunk_chaos", scaled);
    assert!(trains.stats.counter("sim.voice.train_frames") > 0, "trunk_chaos: no train");
    let sweep = PopulationConfig {
        window_secs: 120,
        calls_per_sub_hour: 60.0,
        mean_hold_secs: 20.0,
        cross_shard_fraction: 0.35,
        ..PopulationConfig::default()
    };
    for class in TrunkFaultClass::ALL {
        for intensity in [0.3, 1.0] {
            let cfg = LoadConfig {
                subscribers: 512,
                shards: 2,
                population: sweep.clone(),
                trunk: TrunkPlanConfig::only(class, intensity),
                ..LoadConfig::default()
            };
            let shape = format!("{class:?} at {intensity}");
            let stats = agrees(&shape, cfg).stats;
            assert!(stats.counter("sim.voice.train_frames") > 0, "{shape}: no train");
            let held = stats.counter("sim.voice.trunk_held");
            assert!(held > 0, "{shape}: no dial was exposed");
        }
    }
}

/// A world with a fault plan or an overload control sends every frame
/// on its own, whatever the switch says: switched on, it is the very run
/// it is switched off.
#[test]
fn a_world_that_can_change_unforeseen_keeps_every_frame_on_its_own() {
    let base = || LoadConfig {
        subscribers: 512,
        shards: 4,
        voice_sample_ms: 2_400,
        population: population(16.0, 0.3),
        ..LoadConfig::default()
    };
    let paging = OverloadControls {
        paging_rate_per_s: 4,
        ..OverloadControls::default()
    };
    let worlds = [
        (
            "faults",
            LoadConfig {
                faults: FaultPlanConfig::all(1.0),
                ..base()
            },
        ),
        (
            "surge",
            LoadConfig {
                controls: paging,
                ..base()
            },
        ),
    ];
    for (world, cfg) in worlds {
        let (on, off) = (run(&cfg, true), run(&cfg, false));
        assert!(
            on.stats.counter("ms.voice_frames_sent") > 0,
            "{world}: no voice"
        );
        assert_eq!(
            on.stats.counter("sim.voice.trains"),
            0,
            "{world} sent trains"
        );
        assert_eq!(
            (on.fingerprint(), on.events),
            (off.fingerprint(), off.events),
            "{world}"
        );
    }
}
