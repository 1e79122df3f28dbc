//! Media cut-through against the hop-by-hop oracle at population scale.
//!
//! Cut-through decides a voice frame's fate at the relays when it
//! enters the chain instead of at each passage, so the two models may
//! disagree only about frames in flight while their own call's state
//! changes. This file states that bound, and pins the saving so a later
//! change cannot silently queue the hops again.

use std::collections::BTreeMap;

use vgprs_load::{run_load, run_load_with, LoadConfig, LoadReport, PopulationConfig};

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

fn may_differ(name: &str) -> bool {
    name.starts_with("sim.") || MAY_DIFFER.contains(&name)
}

/// Every counter and histogram outside the named list, rendered
/// comparably (histograms by count, sum and buckets).
fn settled(report: &LoadReport) -> BTreeMap<String, String> {
    let counters = report
        .stats
        .counters()
        .map(|(name, value)| (name.to_owned(), value.to_string()));
    let histograms = report.stats.histograms().map(|(name, h)| {
        let buckets: Vec<(f64, u64)> = h.nonzero_buckets().collect();
        (
            name.to_owned(),
            format!("{} {} {buckets:?}", h.count(), h.sum()),
        )
    });
    counters
        .chain(histograms)
        .filter(|(name, _)| !may_differ(name))
        .collect()
}

fn frames_received(report: &LoadReport) -> f64 {
    let c = |name| report.stats.counter(name) as f64;
    c("ms.voice_frames_received") + c("term.rtp_received")
}

fn frames_sent(report: &LoadReport) -> u64 {
    report.stats.counter("ms.voice_frames_sent") + report.stats.counter("term.rtp_sent")
}

#[test]
fn media_cut_through_stays_within_its_bound() {
    let cfg = media_cfg(2_400);
    let oracle = run_load_with(&cfg, |shard| shard.set_media_cut_through(false));
    let fast = run_load(&cfg);

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

/// The tripwire: what one more voice frame costs in queued events. A
/// frame is its sender's timer, the BTS and the far end — three — plus
/// a second cell for mobile-to-mobile calls and the cross-shard gates
/// for handed-off ones. Hop by hop the same figure is above eight.
#[test]
fn a_voice_frame_costs_at_most_three_and_a_half_queued_events() {
    let (short, long) = (run_load(&media_cfg(400)), run_load(&media_cfg(2_400)));
    let frames = (frames_sent(&long) - frames_sent(&short)) as f64;
    assert!(
        frames > 10_000.0,
        "the longer sample must add frames: {frames}"
    );
    let per_frame = (long.events - short.events) as f64 / frames;
    assert!(
        (2.9..=3.5).contains(&per_frame),
        "{per_frame:.2} queued events per voice frame"
    );
}
