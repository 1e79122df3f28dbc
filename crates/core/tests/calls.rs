//! End-to-end reproduction of the paper's Figures 5 and 6: vGPRS call
//! origination + release, and call termination, between a standard GSM
//! MS and an H.323 terminal.

use vgprs_core::figures::{SingleZone, FIGURE_5_ORIGINATION, FIGURE_5_RELEASE, FIGURE_6};
use vgprs_core::Vmsc;
use vgprs_gsm::{MobileStation, MsState};
use vgprs_h323::{Gatekeeper, H323Terminal, TerminalState};
use vgprs_sim::{Interface, Network, NodeId, ScriptedPeer, SimDuration, SimTime};
use vgprs_wire::{
    CallId, Cause, Command, ConnRef, Crv, Dtap, GmmMessage, Imsi, IpPacket, IpPayload, Ipv4Addr,
    Lai, MapMessage, Message, MsIdentity, Msisdn, Nsapi, Q931Kind, Q931Message, QosProfile,
    RasMessage, Tmsi, TransportAddr,
};

#[test]
fn figure5_origination_ladder() {
    let mut r = SingleZone::build(42);
    r.net.trace_mut().clear();
    dial(&mut r.net, r.ms, 1, r.term_alias);
    r.net.run_until(SimTime::from_micros(8_000_000));
    FIGURE_5_ORIGINATION.assert_holds(r.net.trace());
    // Both ends connected.
    assert_eq!(
        r.net.node::<MobileStation>(r.ms).unwrap().state(),
        MsState::Active
    );
    assert_eq!(
        r.net.node::<H323Terminal>(r.term).unwrap().state(),
        TerminalState::Active
    );
}

#[test]
fn voice_flows_both_ways() {
    let mut r = SingleZone::build(42);
    dial(&mut r.net, r.ms, 1, r.term_alias);
    // ~8 s: connect around 4.3 s (auto-answer 2 s), then talking.
    r.net.run_until(SimTime::from_micros(10_000_000));
    // The world's one handset and one terminal.
    let heard = |name| r.net.stats().counter(name);
    let handset = heard("ms.voice_frames_received");
    assert!(handset > 100, "MS heard {handset} frames");
    let terminal = heard("term.rtp_received");
    assert!(terminal > 100, "terminal heard {terminal} frames");
    // The MS→terminal path crosses the GPRS tunnel; its delay is the sum
    // of Um+Abis+A (circuit) + Gb+Gn+Gi+LAN (packet) one-way latencies.
    let h = r.net.stats().histogram("term.voice_e2e_ms").unwrap();
    assert!(h.mean() > 5.0 && h.mean() < 60.0, "mean {}", h.mean());
}

#[test]
fn figure5_release_ladder() {
    let mut r = SingleZone::build(42);
    dial(&mut r.net, r.ms, 1, r.term_alias);
    r.net.run_until(SimTime::from_micros(6_000_000));
    r.net.trace_mut().clear();
    // Step 3.1: the calling party (the GSM user) hangs up first.
    r.net
        .inject(SimDuration::ZERO, r.ms, Message::Cmd(Command::Hangup));
    r.net.run_until_quiescent();
    FIGURE_5_RELEASE.assert_holds(r.net.trace());
    // Both DRQs (VMSC and terminal) were recorded for charging.
    let gk = r.net.node::<Gatekeeper>(r.zone.packet.gk).unwrap();
    assert_eq!(gk.charging_records().len(), 2);
    assert_eq!(gk.bandwidth_used(), 0);
    // Everyone back to idle; voice context gone.
    assert_eq!(
        r.net.node::<MobileStation>(r.ms).unwrap().state(),
        MsState::Idle
    );
    assert_eq!(
        r.net.node::<H323Terminal>(r.term).unwrap().state(),
        TerminalState::Idle
    );
    let vmsc = r.net.node::<Vmsc>(r.zone.access.msc).unwrap();
    assert_eq!(vmsc.active_calls(), 0);
    assert!(vmsc.ms_entry(&r.ms_imsi).unwrap().voice_addr.is_none());
}

#[test]
fn figure6_termination_ladder() {
    let mut r = SingleZone::build(42);
    r.net.trace_mut().clear();
    // The H.323 terminal calls the MS.
    dial(&mut r.net, r.term, 2, r.ms_msisdn);
    r.net.run_until(SimTime::from_micros(10_000_000));
    FIGURE_6.assert_holds(r.net.trace());
    assert_eq!(
        r.net.node::<MobileStation>(r.ms).unwrap().state(),
        MsState::Active
    );
    assert_eq!(
        r.net.node::<H323Terminal>(r.term).unwrap().state(),
        TerminalState::Active
    );
    // Voice flows to the world's one handset.
    assert!(r.net.stats().counter("ms.voice_frames_received") > 50);
}

#[test]
fn busy_ms_rejects_second_call() {
    let mut r = SingleZone::build(42);
    let term2 = {
        let t =
            r.zone
                .packet
                .add_terminal(&mut r.net, "term2", Msisdn::parse("886220002222").unwrap());
        r.net.run_until_quiescent();
        t
    };
    dial(&mut r.net, r.ms, 1, r.term_alias);
    r.net.run_until(SimTime::from_micros(6_000_000));
    // terminal 2 now calls the busy MS
    dial(&mut r.net, term2, 2, r.ms_msisdn);
    r.net.run_until(SimTime::from_micros(12_000_000));
    assert_eq!(
        r.net.node::<H323Terminal>(term2).unwrap().state(),
        TerminalState::Idle,
        "second caller was released (user busy)"
    );
    assert_eq!(
        r.net.node::<MobileStation>(r.ms).unwrap().state(),
        MsState::Active,
        "first call survives"
    );
}

#[test]
fn remote_hangup_clears_ms() {
    let mut r = SingleZone::build(42);
    dial(&mut r.net, r.ms, 1, r.term_alias);
    r.net.run_until(SimTime::from_micros(6_000_000));
    r.net
        .inject(SimDuration::ZERO, r.term, Message::Cmd(Command::Hangup));
    r.net.run_until_quiescent();
    assert_eq!(
        r.net.node::<MobileStation>(r.ms).unwrap().state(),
        MsState::Idle
    );
    assert_eq!(
        r.net
            .node::<Vmsc>(r.zone.access.msc)
            .unwrap()
            .active_calls(),
        0
    );
}

#[test]
fn call_to_unknown_number_denied() {
    let mut r = SingleZone::build(42);
    dial(&mut r.net, r.ms, 1, Msisdn::parse("886299999999").unwrap());
    r.net.run_until_quiescent();
    assert_eq!(
        r.net.node::<MobileStation>(r.ms).unwrap().state(),
        MsState::Idle,
        "MS returns to idle after the reject"
    );
    assert_eq!(r.net.stats().counter("vmsc.admission_rejected"), 1);
}

#[test]
fn consecutive_calls_reuse_signaling_context() {
    let mut r = SingleZone::build(42);
    for call_id in 1..=3u64 {
        dial(&mut r.net, r.ms, call_id, r.term_alias);
        r.net.run_until(r.net.now() + SimDuration::from_secs(6));
        assert_eq!(
            r.net.node::<MobileStation>(r.ms).unwrap().state(),
            MsState::Active,
            "call {call_id} connected"
        );
        r.net
            .inject(SimDuration::ZERO, r.ms, Message::Cmd(Command::Hangup));
        r.net.run_until_quiescent();
        assert_eq!(
            r.net.node::<MobileStation>(r.ms).unwrap().state(),
            MsState::Idle,
            "call {call_id} cleared"
        );
    }
    // The signaling context was never torn down (the paper's key
    // Section 6 point), while the voice context cycled per call.
    assert_eq!(r.net.stats().counter("sgsn.attaches"), 1);
    assert_eq!(r.net.stats().counter("vmsc.voice_context_requested"), 3);
    assert_eq!(r.net.stats().counter("vmsc.voice_context_deactivated"), 3);
    assert_eq!(r.net.stats().counter("ms.calls_connected"), 3);
}

// ---- two handsets under one VMSC ----

fn dial(net: &mut Network<Message>, node: NodeId, call: u64, called: Msisdn) {
    let dial = Command::Dial {
        call: CallId(call),
        called,
    };
    net.inject(SimDuration::ZERO, node, Message::Cmd(dial));
}

fn ms_state(net: &Network<Message>, ms: NodeId) -> MsState {
    net.node::<MobileStation>(ms).unwrap().state()
}

/// A mobile-to-mobile call is two legs, one in each handset's row: both
/// are admitted, both carry voice, and both are released when either
/// side hangs up — leaving rows the next call can use.
#[test]
fn mobile_to_mobile_call_is_two_legs() {
    let mut r = SingleZone::build(42);
    let (a, vmsc) = (r.ms, r.zone.access.msc);
    let b_imsi = Imsi::parse("466920000000002").unwrap();
    let b_number = Msisdn::parse("886912000002").unwrap();
    let b = r
        .zone
        .access
        .add_subscriber(&mut r.net, "ms2", b_imsi, 0xBCDE, b_number);
    r.net
        .inject(SimDuration::ZERO, b, Message::Cmd(Command::PowerOn));
    r.net.run_until_quiescent();
    let counter = |net: &Network<Message>, name| net.stats().counter(name);
    let (admitted, voice) = (
        counter(&r.net, "gk.admissions"),
        counter(&r.net, "vmsc.voice_context_requested"),
    );

    // A dials B.
    dial(&mut r.net, a, 1, b_number);
    r.net.run_until(r.net.now() + SimDuration::from_secs(8));
    assert_eq!(
        (ms_state(&r.net, a), ms_state(&r.net, b)),
        (MsState::Active, MsState::Active)
    );
    assert_eq!(r.net.node::<Vmsc>(vmsc).unwrap().active_calls(), 2);
    // Each handset hears only the other, which heard no more than this
    // one sent: this one heard at least the rest.
    let heard = counter(&r.net, "ms.voice_frames_received");
    for ms in [a, b] {
        let sent = r.net.node::<MobileStation>(ms).unwrap().frames_sent();
        let at_least = heard.saturating_sub(u64::from(sent));
        assert!(at_least > 50, "a handset heard at least {at_least} frames");
    }

    // A hangs up: B is released too, and nothing stays held for the call.
    r.net
        .inject(SimDuration::ZERO, a, Message::Cmd(Command::Hangup));
    r.net.run_until_quiescent();
    assert_eq!(
        (ms_state(&r.net, a), ms_state(&r.net, b)),
        (MsState::Idle, MsState::Idle)
    );
    assert_eq!(r.net.node::<Vmsc>(vmsc).unwrap().active_calls(), 0);
    assert_eq!(counter(&r.net, "gk.admissions") - admitted, 2);
    assert_eq!(counter(&r.net, "gk.disengages"), 2);
    assert_eq!(counter(&r.net, "vmsc.voice_context_requested") - voice, 2);
    assert_eq!(counter(&r.net, "vmsc.voice_context_deactivated"), 2);

    // A's row is free again: a terminal reaches it.
    dial(&mut r.net, r.term, 2, r.ms_msisdn);
    r.net.run_until(r.net.now() + SimDuration::from_secs(8));
    assert_eq!(ms_state(&r.net, a), MsState::Active);
    assert_eq!(
        r.net.node::<H323Terminal>(r.term).unwrap().state(),
        TerminalState::Active
    );

    // B dials A, who is busy: B hears so, and A's call is not disturbed.
    r.net.trace_mut().clear();
    dial(&mut r.net, b, 3, r.ms_msisdn);
    r.net.run_until(r.net.now() + SimDuration::from_secs(4));
    assert!(r
        .net
        .trace()
        .any_on_interface_contains(Interface::Um, "UserBusy"));
    assert_eq!(
        (ms_state(&r.net, a), ms_state(&r.net, b)),
        (MsState::Active, MsState::Idle)
    );
    assert_eq!(
        r.net.node::<H323Terminal>(r.term).unwrap().state(),
        TerminalState::Active
    );
    assert_eq!(r.net.node::<Vmsc>(vmsc).unwrap().active_calls(), 1);
    assert_eq!(counter(&r.net, "vmsc.out_of_state"), 0);
}

// ---- every ladder message, in every state ----

/// The row's `RegPhase/CallPhase` and its radio connection.
fn row_state(net: &Network<Message>, vmsc: NodeId, imsi: Imsi) -> (String, ConnRef) {
    let row = net.node::<Vmsc>(vmsc).unwrap().ms_entry(&imsi);
    let Some((reg, call, conn)) = row.map(|row| row.state()) else {
        return ("/".into(), ConnRef(1));
    };
    let state = format!("{reg:?}/{}", call.unwrap_or_default());
    (state, conn.unwrap_or(ConnRef(1)))
}

/// Every message the Figure 4–6 ladders deliver to a VMSC, built for the
/// MS of `r` on `conn` with PDP address `addr`, about call `call`.
fn ladder_messages(
    r: &SingleZone,
    conn: ConnRef,
    addr: Ipv4Addr,
    call: CallId,
) -> Vec<(Interface, Message)> {
    let imsi = r.ms_imsi;
    let identity = MsIdentity::Imsi(imsi);
    let cause = Cause::TemporaryFailure;
    let peer = TransportAddr::new(Ipv4Addr::from_octets(10, 1, 0, 9), 1720);
    let nsapi = |n| Nsapi::new(n).unwrap();
    let a = |dtap| (Interface::A, Message::a(conn, dtap));
    let map = |m| (Interface::B, Message::Map(m));
    let gmm = |m| (Interface::Gb, Message::Gmm(m));
    let ip = |payload| {
        let inner = Box::new(IpPacket::new(peer, TransportAddr::new(addr, 1720), payload));
        (
            Interface::Gb,
            Message::Llc {
                imsi,
                nsapi: nsapi(5),
                inner,
            },
        )
    };
    let ras = |m| ip(IpPayload::Ras(m));
    let q931 = |kind| {
        ip(IpPayload::Q931(Q931Message {
            crv: Crv(7),
            call,
            kind,
        }))
    };
    vec![
        a(Dtap::LocationUpdateRequest {
            identity,
            lai: Lai::new(466, 92, 1),
        }),
        a(Dtap::AuthenticationResponse { sres: 1 }),
        a(Dtap::CipherModeComplete),
        a(Dtap::CmServiceRequest { identity }),
        a(Dtap::Setup {
            call,
            called: r.term_alias,
        }),
        a(Dtap::ChannelAssignmentComplete),
        a(Dtap::ChannelAssignmentFailure { cause }),
        a(Dtap::PagingResponse { identity }),
        a(Dtap::Alerting { call }),
        a(Dtap::Connect { call }),
        a(Dtap::ConnectAck { call }),
        a(Dtap::Disconnect { call, cause }),
        a(Dtap::Release { call }),
        a(Dtap::ReleaseComplete { call }),
        map(MapMessage::UpdateLocationAreaAck {
            conn,
            imsi,
            tmsi: None,
            msisdn: Some(r.ms_msisdn),
        }),
        map(MapMessage::UpdateLocationAreaReject {
            conn,
            identity,
            cause,
        }),
        map(MapMessage::Authenticate {
            conn,
            imsi,
            rand: 1,
        }),
        map(MapMessage::StartCiphering { conn, imsi }),
        map(MapMessage::ProcessAccessRequestAck {
            conn,
            imsi,
            rejection: None,
        }),
        map(MapMessage::ProcessAccessRequestAck {
            conn,
            imsi,
            rejection: Some(cause),
        }),
        map(MapMessage::SendInfoForOutgoingCallAck {
            conn,
            imsi,
            msisdn: None,
            rejection: None,
        }),
        map(MapMessage::SendInfoForOutgoingCallAck {
            conn,
            imsi,
            msisdn: None,
            rejection: Some(cause),
        }),
        gmm(GmmMessage::AttachAccept {
            imsi,
            ptmsi: Tmsi(1),
        }),
        gmm(GmmMessage::AttachReject { imsi, cause }),
        gmm(GmmMessage::ActivatePdpContextAccept {
            imsi,
            nsapi: nsapi(5),
            addr,
            qos: QosProfile::signaling(),
        }),
        gmm(GmmMessage::ActivatePdpContextAccept {
            imsi,
            nsapi: nsapi(6),
            addr,
            qos: QosProfile::realtime_voice(),
        }),
        gmm(GmmMessage::ActivatePdpContextReject {
            imsi,
            nsapi: nsapi(5),
            cause,
        }),
        gmm(GmmMessage::DeactivatePdpContextAccept {
            imsi,
            nsapi: nsapi(6),
        }),
        ras(RasMessage::Rcf { alias: r.ms_msisdn }),
        ras(RasMessage::Rrj {
            alias: r.ms_msisdn,
            cause,
        }),
        ras(RasMessage::Acf {
            call,
            dest_call_signal_addr: peer,
        }),
        ras(RasMessage::Arj { call, cause }),
        ras(RasMessage::Dcf { call }),
        q931(Q931Kind::Setup {
            calling: None,
            called: r.ms_msisdn,
            signal_addr: peer,
            media_addr: peer,
        }),
        q931(Q931Kind::CallProceeding),
        q931(Q931Kind::Alerting),
        q931(Q931Kind::Connect { media_addr: peer }),
        q931(Q931Kind::ReleaseComplete { cause }),
    ]
}

/// The scenario the states are taken from: registration, a mobile-
/// originated call and its release, then a mobile-terminated one. Runs
/// `until_ms`, calling `each_ms` after every millisecond.
fn drive(r: &mut SingleZone, until_ms: u64, mut each_ms: impl FnMut(u64, &Network<Message>)) {
    // The grid reads counters and queues, not the trace.
    r.net.set_trace_capture(false);
    r.net
        .inject(SimDuration::ZERO, r.ms, Message::Cmd(Command::PowerOn));
    for ms in 0..=until_ms {
        match ms {
            1_000 => dial(&mut r.net, r.ms, 1, r.term_alias),
            5_000 => r
                .net
                .inject(SimDuration::ZERO, r.ms, Message::Cmd(Command::Hangup)),
            6_000 => dial(&mut r.net, r.term, 2, r.ms_msisdn),
            _ => {}
        }
        r.net.run_until(SimTime::from_micros(ms * 1_000));
        each_ms(ms, &r.net);
    }
}

/// Whatever state the MS's row is in, no message of the Figure 4–6
/// ladders — about the row's call or a stranger — panics the VMSC, and
/// each one leaves a mark: a counter, or a message sent on.
#[test]
fn every_ladder_message_in_every_state_is_answered_or_counted() {
    // The states the scenario passes through, with when each first shows.
    let mut states: Vec<(String, u64)> = Vec::new();
    let mut r = SingleZone::new(42);
    let (vmsc, imsi) = (r.zone.access.msc, r.ms_imsi);
    drive(&mut r, 10_000, |ms, net| {
        let (state, _) = row_state(net, vmsc, imsi);
        if !states.iter().any(|(seen, _)| *seen == state) {
            states.push((state, ms));
        }
    });
    for phase in [
        "GsmUpdating",
        "Attaching",
        "ActivatingSignalingContext",
        "RasRegistering",
        "Registered/",
    ] {
        assert!(
            states.iter().any(|(s, _)| s.starts_with(phase)),
            "no row in {phase}: {states:?}"
        );
    }
    for phase in [
        "MoAuthorizing",
        "MoAssigning",
        "MoAdmission",
        "MoProgress",
        "MtAdmission",
        "MtPaging",
        "MtAccess",
        "MtRinging",
        "Active",
    ] {
        assert!(
            states.iter().any(|(s, _)| s.ends_with(phase)),
            "no leg in {phase}: {states:?}"
        );
    }

    // Messages that close a dialogue have nothing to answer.
    let closes_a_dialogue = |m: &Message| {
        format!("{m:?}").contains("Dcf")
            || format!("{m:?}").contains("DeactivatePdpContextAccept")
            || format!("{m:?}").contains("ReleaseComplete")
    };
    let addr = Ipv4Addr::from_octets(10, 200, 0, 1);
    let count = ladder_messages(&r, ConnRef(1), addr, CallId(1)).len();
    for (state, at_ms) in &states {
        for stranger in [false, true] {
            for index in 0..count {
                let mut r = SingleZone::new(42);
                drive(&mut r, *at_ms, |_, _| {});
                let (reached, conn) = row_state(&r.net, vmsc, imsi);
                assert_eq!(reached, *state);
                let row = r.net.node::<Vmsc>(vmsc).unwrap().ms_entry(&r.ms_imsi);
                let addr = row.and_then(|row| row.signaling_addr.get());
                let addr = addr.unwrap_or(Ipv4Addr::from_octets(10, 200, 9, 9));
                let call = if stranger {
                    CallId(999)
                } else if state.contains("/Mt") {
                    CallId(2)
                } else {
                    CallId(1)
                };
                let (iface, msg) = ladder_messages(&r, conn, addr, call).swap_remove(index);
                let what = format!("{msg:?} (stranger: {stranger}) in {state}");
                let silent_by_design = closes_a_dialogue(&msg);
                // A peer of its own sends the message, as the BSC, the
                // SGSN or the VLR would.
                let feeder = r.net.add_node("feeder", ScriptedPeer::sending(vmsc, [msg]));
                r.net
                    .connect(feeder, vmsc, iface, SimDuration::from_micros(1));
                let counted = |net: &Network<Message>| -> u64 {
                    let vmsc = net
                        .stats()
                        .counters()
                        .filter(|(n, _)| n.starts_with("vmsc."));
                    vmsc.map(|(_, v)| v).sum()
                };
                // The feeder starts and sends now; the VMSC hears it a
                // microsecond later. Whatever that microsecond adds to the
                // event queue beyond what it takes out, the VMSC sent or
                // armed.
                r.net.run_until(r.net.now());
                let before = (counted(&r.net), r.net.pending_events() as u64);
                let heard = r.net.run_until(r.net.now() + SimDuration::from_micros(1));
                let after = (
                    counted(&r.net),
                    r.net.pending_events() as u64 + heard.events,
                );
                assert!(heard.events >= 1, "the VMSC never heard {what}");
                assert!(
                    silent_by_design || after != before,
                    "no mark left by {what}"
                );
            }
        }
    }
}
