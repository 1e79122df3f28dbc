//! Degraded-transport behavior: packet loss and jitter on the H.323
//! zone's IP segments hurt voice (measurably, via the E-model) but never
//! destabilize signaling or leak state.

use vgprs_bench::scenarios::SingleZone;
use vgprs_core::Vmsc;
use vgprs_gsm::{MobileStation, MsState};
use vgprs_media::{EModel, Vocoder};
use vgprs_sim::{LinkQuality, SimDuration};
use vgprs_wire::CallId;

/// Runs a call with the given Gi/Gn link quality; returns
/// (ms_frames, terminal_frames, mean_delay_ms).
fn run_with_quality(quality: Option<LinkQuality>) -> (u64, u64, f64) {
    let mut s = SingleZone::build(42);
    if let Some(q) = quality {
        // Degrade the packet core links that carry the tunneled voice.
        s.net
            .set_link_quality(s.zone.packet.ggsn, s.zone.packet.router, q);
        s.net
            .set_link_quality(s.zone.packet.sgsn, s.zone.packet.ggsn, q);
    }
    s.call_from_ms(CallId(1), SimDuration::from_secs(20));
    let ms_frames = s.net.node::<MobileStation>(s.ms).unwrap().frames_received;
    let term_frames = s
        .net
        .node::<vgprs_h323::H323Terminal>(s.term)
        .unwrap()
        .frames_received;
    let delay = s
        .net
        .stats()
        .histogram("term.voice_e2e_ms")
        .map(|h| h.mean())
        .unwrap_or(f64::NAN);
    (ms_frames, term_frames, delay)
}

#[test]
fn packet_loss_degrades_mos_proportionally() {
    let (clean_ms, clean_term, clean_delay) = run_with_quality(None);
    let lossy = LinkQuality::new(SimDuration::from_millis(3)).with_loss(0.05);
    let (lossy_ms, lossy_term, lossy_delay) = run_with_quality(Some(lossy));

    // Signaling survived in both runs (the calls connected and talked).
    assert!(clean_term > 800, "{clean_term}");
    assert!(lossy_term > 500, "{lossy_term}");
    // ~5 % loss per link, two lossy links ⇒ ≈10 % fewer frames end to end.
    let ratio = lossy_term as f64 / clean_term as f64;
    assert!(
        (0.82..=0.97).contains(&ratio),
        "two 5%-loss hops should strip ≈10% of frames: ratio {ratio}"
    );
    // Score both with the E-model: loss must cost well over a MOS point.
    let model = EModel::for_codec(&Vocoder::gsm_full_rate());
    let m2e = |d: f64| SimDuration::from_micros(((d + 80.0) * 1000.0) as u64);
    let clean_mos = model.mos(m2e(clean_delay), 0.0);
    let lossy_mos = model.mos(m2e(lossy_delay), 1.0 - ratio);
    assert!(
        clean_mos - lossy_mos > 0.5,
        "loss must show up in MOS: {clean_mos} vs {lossy_mos}"
    );
    let _ = (clean_ms, lossy_ms);
}

#[test]
fn jitter_inflates_tail_delay_only() {
    let jittery =
        LinkQuality::new(SimDuration::from_millis(3)).with_jitter(SimDuration::from_millis(30));
    let mut s = SingleZone::build(42);
    s.net
        .set_link_quality(s.zone.packet.ggsn, s.zone.packet.router, jittery);
    s.call_from_ms(CallId(1), SimDuration::from_secs(20));
    // Everything still works…
    assert_eq!(
        s.net.node::<MobileStation>(s.ms).unwrap().state(),
        MsState::Active
    );
    assert_eq!(
        s.net
            .node::<Vmsc>(s.zone.access.msc)
            .unwrap()
            .active_calls(),
        1
    );
    // …but the delay distribution spread out.
    let h = s.net.stats().histogram("term.voice_e2e_ms").unwrap();
    assert!(
        h.percentile(95.0) - h.percentile(5.0) > 15.0,
        "30 ms of jitter must widen the spread: p5 {} p95 {}",
        h.percentile(5.0),
        h.percentile(95.0)
    );
}
