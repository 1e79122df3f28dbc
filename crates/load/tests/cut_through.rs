//! Media cut-through against the hop-by-hop oracle at population scale.
//!
//! Cut-through decides a voice frame's fate at the relays when it
//! enters the chain instead of at each passage, so the two models may
//! disagree only about frames in flight while their own call's state
//! changes. This file states that bound, and pins the saving so a later
//! change cannot silently queue the hops again. Both run frame by frame
//! (voice trains off): a train is held to the per-frame path by
//! `voice_trains.rs`, and its own saving is pinned here too.

use std::collections::BTreeMap;

use vgprs_load::{run_load_with, LoadConfig, LoadReport, PopulationConfig, Registration};

mod common;

/// A small cousin of the benchmark's `voice_media` world: four shards,
/// a third of the movers crossing between them, 16 calls an hour.
fn media_cfg(voice_sample_ms: u64) -> LoadConfig {
    LoadConfig {
        subscribers: 512,
        shards: 4,
        voice_sample_ms,
        population: PopulationConfig {
            calls_per_sub_hour: 16.0,
            window_secs: 60,
            cross_shard_fraction: 0.3,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    }
}

/// What the two models may disagree on: the kernel's own census, the
/// receive side of the media plane, and the two drop counters a frame
/// bumps when it finds its route not yet (SGSN: voice context still
/// pending) or no longer (BTS: connection released) there. Everything
/// else — every call, paging, registration,
/// handoff and trunk figure, and every frame *sent* — must be identical.
const MAY_DIFFER: &[&str] = &[
    "ms.voice_frames_received",
    "term.rtp_received",
    "ms.voice_e2e_ms",
    "term.voice_e2e_ms",
    "bts.downlink_unknown_conn",
    "sgsn.llc_context_pending",
];

/// Every counter and histogram outside the named list.
fn settled(report: &LoadReport) -> BTreeMap<String, String> {
    common::outside_the_kernel(&report.stats, MAY_DIFFER)
}

fn frames_received(report: &LoadReport) -> f64 {
    let c = |name| report.stats.counter(name) as f64;
    c("ms.voice_frames_received") + c("term.rtp_received")
}

fn frames_sent(report: &LoadReport) -> u64 {
    report.stats.counter("ms.voice_frames_sent") + report.stats.counter("term.rtp_sent")
}

/// `cfg` run on one worker, voice trains on or off.
fn run(cfg: &LoadConfig, trains: bool) -> LoadReport {
    run_load_with(cfg, 1, Registration::Provision, |shard| {
        shard.set_voice_trains(trains)
    })
}

#[test]
fn media_cut_through_stays_within_its_bound() {
    let cfg = media_cfg(2_400);
    let oracle = run_load_with(&cfg, 1, Registration::Provision, |shard| {
        shard.set_media_cut_through(false);
        shard.set_voice_trains(false);
    });
    let fast = run(&cfg, false);

    // The world is the one meant: voice dominates, shards trade
    // handoffs, and the oracle really does walk every hop.
    assert!(
        frames_sent(&oracle) > 20_000,
        "{}",
        oracle.render_deterministic()
    );
    assert!(
        oracle.handoff_successes() > 0,
        "{}",
        oracle.render_deterministic()
    );
    assert_eq!(oracle.stats.counter("sim.relayed"), 0);
    assert!(fast.stats.counter("sim.relayed") > 2 * frames_sent(&fast));

    assert_eq!(settled(&oracle), settled(&fast));
    assert_eq!(frames_sent(&oracle), frames_sent(&fast));
    let (slow_rx, fast_rx) = (frames_received(&oracle), frames_received(&fast));
    assert!(
        (slow_rx - fast_rx).abs() < 0.001 * slow_rx,
        "received frames moved by 0.1 % or more: {slow_rx} vs {fast_rx}"
    );
    assert!(
        (oracle.mos() - fast.mos()).abs() < 0.01,
        "MOS moved: {} vs {}",
        oracle.mos(),
        fast.mos()
    );
    // An inline hop replaces a queued one; apart from the frames in
    // flight the two models deliver the same messages.
    let deliveries =
        |r: &LoadReport| (r.stats.counter("sim.delivered") + r.stats.counter("sim.relayed")) as f64;
    assert!((deliveries(&oracle) - deliveries(&fast)).abs() < 0.001 * deliveries(&oracle));
}

/// Queued events per voice frame the longer sample adds, trains on or
/// off.
fn events_per_frame(trains: bool) -> f64 {
    let (short, long) = (run(&media_cfg(400), trains), run(&media_cfg(2_400), trains));
    let frames = (frames_sent(&long) - frames_sent(&short)) as f64;
    assert!(
        frames > 10_000.0,
        "the longer sample must add frames: {frames}"
    );
    (long.events - short.events) as f64 / frames
}

/// The tripwire: what one more voice frame costs in queued events,
/// frame by frame. A frame is its sender's timer, the BTS and the far
/// end — three — plus a second cell for mobile-to-mobile calls and the
/// cross-shard gates for handed-off ones. Hop by hop the same figure is
/// above eight.
#[test]
fn a_voice_frame_costs_at_most_three_and_a_half_queued_events() {
    let per_frame = events_per_frame(false);
    assert!(
        (2.9..=3.5).contains(&per_frame),
        "{per_frame:.2} queued events per voice frame"
    );
}

/// The same tripwire with voice in trains (0.30 when pinned): a train
/// costs what a frame did, and the frames a call sends near a change of
/// its own, or of the window's second, still go one by one.
#[test]
fn a_voice_frame_in_a_train_costs_at_most_half_a_queued_event() {
    let per_frame = events_per_frame(true);
    assert!(
        (0.2..=0.5).contains(&per_frame),
        "{per_frame:.2} queued events per voice frame"
    );
}
