//! Reproduction of the paper's Figure 9: inter-system handoff with the
//! VMSC as the anchor.

use vgprs_bench::scenarios::handed_over;
use vgprs_core::figures::{classic_neighbor, vmsc_neighbor, FIGURE_9};
use vgprs_core::{GsmZone, GsmZoneConfig, LatencyProfile, VgprsZone, VgprsZoneConfig};
use vgprs_gsm::GsmMsc;
use vgprs_pstn::{PstnPhone, PstnSwitch, TrunkClass};
use vgprs_sim::{Interface, Network, SimDuration, SimTime};
use vgprs_wire::{CallId, CellId, Command, Imsi, Lai, Message, Msisdn};

#[test]
fn figure9_anchor_vmsc_keeps_voice_flowing() {
    let (world, report) = handed_over(42, classic_neighbor);
    FIGURE_9.assert_holds(world.home.net.trace());
    assert_eq!(report.handoffs_completed, 1, "{report:?}");
    assert!(
        report.frames_before > 100,
        "voice flowed before the move: {report:?}"
    );
    assert!(
        report.frames_after > 100,
        "downlink voice continues through the anchor + E-trunk: {report:?}"
    );
    assert!(
        report.term_frames_after > 100,
        "uplink voice continues from the new cell: {report:?}"
    );
}

#[test]
fn section7_vmsc_to_vmsc_handoff_follows_the_same_procedure() {
    let (world, report) = handed_over(42, vmsc_neighbor);
    FIGURE_9.assert_holds(world.home.net.trace());
    assert_eq!(report.handoffs_completed, 1, "{report:?}");
    assert!(report.frames_before > 100, "{report:?}");
    assert!(
        report.frames_after > 100,
        "downlink continues via the target VMSC: {report:?}"
    );
    assert!(
        report.term_frames_after > 100,
        "uplink continues via anchor → H.323: {report:?}"
    );
}

/// The one direction of Section 7 the two scenarios above do not take: a
/// call anchored at a *classic* MSC (MS ↔ PSTN phone) whose MS moves into
/// a cell of a neighboring *VMSC*. The VMSC is only the radio end of the
/// E-leg here — no PDP context, no H.323 — and the classic MSC bridges
/// its ISUP trunk onto the inter-MSC circuit.
#[test]
fn section7_classic_anchor_hands_over_to_a_vmsc() {
    let mut net = Network::new(42);
    let lat = LatencyProfile::default();
    let switch = net.add_node("pstn", PstnSwitch::new("tw"));
    let anchor = GsmZone::build(
        &mut net,
        GsmZoneConfig {
            name: "tw".into(),
            country_code: "886".into(),
            home_prefix: "8869".into(),
            msrn_prefix: "8869990".into(),
            lai: Lai::new(466, 92, 1),
            cell: CellId(1),
            latency: lat,
        },
        switch,
    )
    .access;
    let target = VgprsZone::build(
        &mut net,
        VgprsZoneConfig {
            name: "tw2".into(),
            lai: Lai::new(466, 92, 2),
            cell: CellId(2),
            msrn_prefix: "8869991".into(),
            ..VgprsZoneConfig::taiwan()
        },
    )
    .access;
    net.connect(anchor.msc, target.msc, Interface::E, lat.e);
    net.node_mut::<GsmMsc>(anchor.msc)
        .expect("msc")
        .add_neighbor_cell(target.cell, target.msc);

    let ms = anchor.add_subscriber(
        &mut net,
        "ms1",
        Imsi::parse("466920000000001").expect("valid"),
        0xABCD,
        Msisdn::parse("886912000001").expect("valid"),
    );
    target.cover(&mut net, ms);
    let phone_number = Msisdn::parse("886221230001").expect("valid");
    let phone = net.add_node("phone", PstnPhone::new(phone_number, switch));
    net.connect(phone, switch, Interface::Isup, lat.isup);
    net.node_mut::<PstnSwitch>(switch)
        .expect("switch")
        .add_route("88622", phone, TrunkClass::Local);

    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    let dial = Command::Dial {
        call: CallId(1),
        called: phone_number,
    };
    net.inject(SimDuration::ZERO, ms, Message::Cmd(dial));
    net.run_until(SimTime::from_micros(10_000_000));
    let heard = |net: &Network<Message>| {
        (
            net.stats().counter("ms.voice_frames_received"),
            net.stats().counter("phone.voice_frames_received"),
        )
    };
    let (ms_before, phone_before) = heard(&net);
    assert!(
        ms_before > 100 && phone_before > 100,
        "voice flowed before the move"
    );

    net.trace_mut().clear();
    let moved = Command::MoveToCell { cell: CellId(2) };
    net.inject(SimDuration::ZERO, ms, Message::Cmd(moved));
    net.run_until(SimTime::from_micros(20_000_000));

    FIGURE_9.assert_holds(net.trace());
    assert_eq!(net.stats().counter("msc.handover_anchored"), 1);
    assert_eq!(net.stats().counter("vmsc.handover_target_completed"), 1);
    assert_eq!(net.stats().counter("ms.handoffs"), 1);
    let (ms_after, phone_after) = heard(&net);
    assert!(
        ms_after > ms_before + 100,
        "downlink continues trunk → anchor → E-leg → VMSC: {ms_before} → {ms_after}"
    );
    assert!(
        phone_after > phone_before + 100,
        "uplink continues VMSC → E-leg → anchor → trunk: {phone_before} → {phone_after}"
    );
}
