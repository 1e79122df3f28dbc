//! The classic circuit-switched GSM baseline, end to end: registration,
//! mobile-originated and mobile-terminated calls against the PSTN, and
//! clean release in both directions. This is the system the VMSC
//! replaces, and the "before" side of every comparison.

use vgprs_core::{GsmZone, GsmZoneConfig, LatencyProfile};
use vgprs_gsm::{GsmMsc, MobileStation, MsState};
use vgprs_pstn::{PhoneState, PstnPhone, PstnSwitch, TrunkClass};
use vgprs_sim::{Interface, Network, NodeId, SimDuration};
use vgprs_wire::{CallId, CellId, Command, Imsi, Lai, Message, Msisdn};

struct World {
    net: Network<Message>,
    zone: GsmZone,
    switch: NodeId,
    ms: NodeId,
    ms_msisdn: Msisdn,
    phone: NodeId,
    phone_msisdn: Msisdn,
}

fn build() -> World {
    let mut net = Network::new(42);
    let switch = net.add_node("pstn", PstnSwitch::new("tw"));
    let zone = GsmZone::build(
        &mut net,
        GsmZoneConfig {
            name: "tw".into(),
            country_code: "886".into(),
            home_prefix: "8869".into(),
            msrn_prefix: "8869990".into(),
            lai: Lai::new(466, 92, 1),
            cell: CellId(1),
            latency: LatencyProfile::default(),
        },
        switch,
    );
    let ms_msisdn = Msisdn::parse("886912000001").unwrap();
    let ms = zone.access.add_subscriber(
        &mut net,
        "ms1",
        Imsi::parse("466920000000001").unwrap(),
        0xABCD,
        ms_msisdn,
    );
    let phone_msisdn = Msisdn::parse("886221230001").unwrap();
    let phone = net.add_node("phone", PstnPhone::new(phone_msisdn, switch));
    net.connect(phone, switch, Interface::Isup, SimDuration::from_millis(5));
    {
        let s = net.node_mut::<PstnSwitch>(switch).unwrap();
        // Fixed line lives on the switch; mobile numbers route to the
        // MSC: the home prefix for GMSC interrogation, the MSRN prefix
        // for delivery legs.
        s.add_route("88622", phone, TrunkClass::Local);
        s.add_route("8869", zone.access.msc, TrunkClass::Local);
    }
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    World {
        net,
        zone,
        switch,
        ms,
        ms_msisdn,
        phone,
        phone_msisdn,
    }
}

#[test]
fn classic_registration_completes() {
    let w = build();
    let m = w.net.node::<MobileStation>(w.ms).unwrap();
    assert_eq!(m.state(), MsState::Idle);
    assert!(m.tmsi().is_some());
    assert!(w.net.trace().contains_subsequence(&[
        "Um_Location_Update_Request",
        "MAP_Update_Location_Area",
        "MAP_Update_Location",
        "MAP_Insert_Subs_Data",
        "MAP_Update_Location_Area_ack",
        "Um_Location_Update_Accept",
    ]));
    // Crucially, NO GPRS or H.323 involvement in classic GSM:
    assert!(!w.net.trace().labels().iter().any(|l| l.starts_with("GPRS")
        || l.starts_with("RAS")
        || l.contains("PDP")));
}

#[test]
fn classic_mo_call_to_fixed_line() {
    let mut w = build();
    w.net.trace_mut().clear();
    w.net.inject(
        SimDuration::ZERO,
        w.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: w.phone_msisdn,
        }),
    );
    w.net.run_until(w.net.now() + SimDuration::from_secs(8));
    assert_eq!(w.net.node::<MobileStation>(w.ms).unwrap().state(), MsState::Active);
    assert_eq!(w.net.node::<PstnPhone>(w.phone).unwrap().state(), PhoneState::Active);
    assert!(w.net.trace().contains_subsequence(&[
        "Um_CM_Service_Request",
        "Um_Setup",
        "MAP_Send_Info_For_Outgoing_Call",
        "ISUP_IAM",
        "ISUP_ACM",
        "Um_Alerting",
        "ISUP_ANM",
        "Um_Connect",
    ]));
    // Voice flows both ways over the circuit path.
    for heard in ["ms.voice_frames_received", "phone.voice_frames_received"] {
        let frames = w.net.stats().counter(heard);
        assert!(frames > 50, "{heard}: {frames}");
    }
}

#[test]
fn classic_mt_call_via_gmsc_and_msrn() {
    let mut w = build();
    w.net.trace_mut().clear();
    // The fixed line dials the mobile: switch → MSC (home prefix, GMSC
    // role) → HLR SRI → MSRN → second leg → paging → delivery.
    let called = w.ms_msisdn;
    w.net.inject(
        SimDuration::ZERO,
        w.phone,
        Message::Cmd(Command::Dial {
            call: CallId(2),
            called,
        }),
    );
    w.net.run_until(w.net.now() + SimDuration::from_secs(10));
    assert_eq!(w.net.node::<MobileStation>(w.ms).unwrap().state(), MsState::Active);
    assert_eq!(w.net.node::<PstnPhone>(w.phone).unwrap().state(), PhoneState::Active);
    assert!(w.net.trace().contains_subsequence(&[
        "ISUP_IAM",                        // phone → switch → GMSC
        "MAP_Send_Routing_Information",    // GMSC → HLR
        "MAP_Provide_Roaming_Number",      // HLR → VLR
        "MAP_Send_Routing_Information_ack",
        "ISUP_IAM",                        // GMSC → switch → serving MSC
        "MAP_Send_Info_For_Incoming_Call", // MSRN resolution
        "A_Paging",
        "Um_Paging_Response",
        "Um_Alerting",
        "ISUP_ACM",
        "Um_Connect",
        "ISUP_ANM",
    ]));
}

#[test]
fn classic_release_from_each_side() {
    // MS hangs up.
    let mut w = build();
    w.net.inject(
        SimDuration::ZERO,
        w.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: w.phone_msisdn,
        }),
    );
    w.net.run_until(w.net.now() + SimDuration::from_secs(6));
    w.net.inject(SimDuration::ZERO, w.ms, Message::Cmd(Command::Hangup));
    w.net.run_until_quiescent();
    assert_eq!(
        w.net.node::<MobileStation>(w.ms).unwrap().state(),
        MsState::Idle
    );
    assert_eq!(
        w.net.node::<PstnPhone>(w.phone).unwrap().state(),
        PhoneState::Idle
    );
    assert_eq!(
        w.net
            .node::<GsmMsc>(w.zone.access.msc)
            .unwrap()
            .active_calls(),
        0
    );
    assert_eq!(
        w.net.node::<PstnSwitch>(w.switch).unwrap().active_calls(),
        0
    );

    // Fixed line hangs up.
    let mut w = build();
    w.net.inject(
        SimDuration::ZERO,
        w.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: w.phone_msisdn,
        }),
    );
    w.net.run_until(w.net.now() + SimDuration::from_secs(6));
    w.net
        .inject(SimDuration::ZERO, w.phone, Message::Cmd(Command::Hangup));
    w.net.run_until_quiescent();
    assert_eq!(
        w.net.node::<MobileStation>(w.ms).unwrap().state(),
        MsState::Idle
    );
    assert_eq!(
        w.net
            .node::<GsmMsc>(w.zone.access.msc)
            .unwrap()
            .active_calls(),
        0
    );
}

#[test]
fn classic_call_to_unreachable_number_cleared() {
    let mut w = build();
    w.net.inject(
        SimDuration::ZERO,
        w.ms,
        Message::Cmd(Command::Dial {
            call: CallId(3),
            called: Msisdn::parse("85299999999").unwrap(), // no route
        }),
    );
    w.net.run_until_quiescent();
    assert_eq!(w.net.node::<MobileStation>(w.ms).unwrap().state(), MsState::Idle);
    assert_eq!(w.net.stats().counter("pstn.unroutable"), 1);
    assert_eq!(
        w.net
            .node::<GsmMsc>(w.zone.access.msc)
            .unwrap()
            .active_calls(),
        0
    );
}

#[test]
fn classic_paging_timeout_when_ms_unreachable() {
    // The MS powers off without an IMSI detach (battery pulled): the VLR
    // still considers it registered, so an incoming call pages into the
    // void until the paging timer clears the trunk.
    let mut w = build();
    w.net
        .inject(SimDuration::ZERO, w.ms, Message::Cmd(Command::PowerOff));
    w.net.run_until_quiescent();
    let called = w.ms_msisdn;
    w.net.inject(
        SimDuration::ZERO,
        w.phone,
        Message::Cmd(Command::Dial {
            call: CallId(4),
            called,
        }),
    );
    w.net.run_until(w.net.now() + SimDuration::from_secs(30));
    assert_eq!(w.net.stats().counter("msc.paging_timeouts"), 1);
    assert_eq!(
        w.net.node::<PstnPhone>(w.phone).unwrap().state(),
        PhoneState::Idle,
        "the caller's trunk was released"
    );
    assert_eq!(
        w.net
            .node::<GsmMsc>(w.zone.access.msc)
            .unwrap()
            .active_calls(),
        0
    );
    assert_eq!(
        w.net.node::<PstnSwitch>(w.switch).unwrap().active_calls(),
        0
    );
}
