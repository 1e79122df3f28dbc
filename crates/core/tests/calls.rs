//! End-to-end reproduction of the paper's Figures 5 and 6: vGPRS call
//! origination + release, and call termination, between a standard GSM
//! MS and an H.323 terminal.

use vgprs_core::{VgprsZone, VgprsZoneConfig, Vmsc};
use vgprs_gsm::{MobileStation, MsState};
use vgprs_h323::{Gatekeeper, H323Terminal, TerminalState};
use vgprs_sim::{Context, Interface, Network, Node, NodeId, SimDuration, SimTime};
use vgprs_wire::{
    CallId, Cause, Command, ConnRef, Crv, Dtap, GmmMessage, Imsi, IpPacket, IpPayload, Ipv4Addr,
    Lai, MapMessage, Message, MsIdentity, Msisdn, Nsapi, Q931Kind, Q931Message, QosProfile,
    RasMessage, Tmsi, TransportAddr,
};

fn ms_imsi() -> Imsi {
    Imsi::parse("466920000000001").unwrap()
}

fn ms_msisdn() -> Msisdn {
    Msisdn::parse("886912000001").unwrap()
}

fn term_alias() -> Msisdn {
    Msisdn::parse("886220001111").unwrap()
}

struct Rig {
    net: Network<Message>,
    zone: VgprsZone,
    ms: NodeId,
    term: NodeId,
}

/// One vGPRS zone with a registered MS and a registered H.323 terminal.
fn rig() -> Rig {
    let mut net = Network::new(42);
    let mut zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    let ms = zone
        .access
        .add_subscriber(&mut net, "ms1", ms_imsi(), 0xABCD, ms_msisdn());
    let term = zone.packet.add_terminal(&mut net, "term1", term_alias());
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    assert_eq!(
        net.node::<Vmsc>(zone.access.msc)
            .unwrap()
            .registered_count(),
        1,
        "precondition: MS registered"
    );
    assert_eq!(
        net.node::<H323Terminal>(term).unwrap().state(),
        TerminalState::Idle,
        "precondition: terminal registered"
    );
    net.trace_mut().clear();
    Rig {
        net,
        zone,
        ms,
        term,
    }
}

#[test]
fn figure5_origination_ladder() {
    let mut r = rig();
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: term_alias(),
        }),
    );
    r.net.run_until(SimTime::from_micros(8_000_000));
    // Paper Figure 5, steps 2.1 – 2.9:
    assert!(
        r.net.trace().contains_subsequence(&[
            "Um_CM_Service_Request",           // step 2.1 box
            "Um_Setup",                        // step 2.1
            "MAP_Send_Info_For_Outgoing_Call", // step 2.2
            "MAP_Send_Info_For_Outgoing_Call_ack",
            "RAS_ARQ", // step 2.3 (VMSC → GK)
            "RAS_ACF",
            "Q931_Setup", // step 2.4
            "Q931_Call_Proceeding",
            "RAS_ARQ", // step 2.5 (terminal → GK)
            "RAS_ACF",
            "Q931_Alerting", // step 2.6
            "A_Alerting",    // step 2.7
            "Um_Alerting",
            "Q931_Connect", // step 2.8
            "A_Connect",
            "Um_Connect",
            "Activate_PDP_Context_Request", // step 2.9 (voice context)
            "Activate_PDP_Context_Accept",
        ]),
        "origination ladder mismatch; got:\n{}",
        vgprs_sim::LadderDiagram::new(r.net.trace()).render()
    );
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
    let mut r = rig();
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: term_alias(),
        }),
    );
    // ~8 s: connect around 4.3 s (auto-answer 2 s), then talking.
    r.net.run_until(SimTime::from_micros(10_000_000));
    let handset = r.net.node::<MobileStation>(r.ms).unwrap();
    let terminal = r.net.node::<H323Terminal>(r.term).unwrap();
    assert!(
        handset.frames_received > 100,
        "MS heard {} frames",
        handset.frames_received
    );
    assert!(
        terminal.frames_received > 100,
        "terminal heard {} frames",
        terminal.frames_received
    );
    // The MS→terminal path crosses the GPRS tunnel; its delay is the sum
    // of Um+Abis+A (circuit) + Gb+Gn+Gi+LAN (packet) one-way latencies.
    let h = r.net.stats().histogram("term.voice_e2e_ms").unwrap();
    assert!(h.mean() > 5.0 && h.mean() < 60.0, "mean {}", h.mean());
}

#[test]
fn figure5_release_ladder() {
    let mut r = rig();
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: term_alias(),
        }),
    );
    r.net.run_until(SimTime::from_micros(6_000_000));
    r.net.trace_mut().clear();
    // Step 3.1: the calling party (the GSM user) hangs up first.
    r.net
        .inject(SimDuration::ZERO, r.ms, Message::Cmd(Command::Hangup));
    r.net.run_until_quiescent();
    assert!(
        r.net.trace().contains_subsequence(&[
            "Um_Disconnect",                  // step 3.1
            "LLC:Q931_Release_Complete",      // step 3.2 (leaves the VMSC)
            "Deactivate_PDP_Context_Request", // step 3.4
            "Q931_Release_Complete",          // step 3.2 (reaches the LAN)
            "RAS_DRQ",                        // step 3.3
            "RAS_DCF",
        ]),
        "release ladder mismatch; got:\n{}",
        vgprs_sim::LadderDiagram::new(r.net.trace()).render()
    );
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
    assert!(vmsc.ms_entry(&ms_imsi()).unwrap().voice_addr.is_none());
}

#[test]
fn figure6_termination_ladder() {
    let mut r = rig();
    // The H.323 terminal calls the MS.
    r.net.inject(
        SimDuration::ZERO,
        r.term,
        Message::Cmd(Command::Dial {
            call: CallId(2),
            called: ms_msisdn(),
        }),
    );
    r.net.run_until(SimTime::from_micros(10_000_000));
    // Paper Figure 6, steps 4.1 – 4.8:
    assert!(
        r.net.trace().contains_subsequence(&[
            "RAS_ARQ", // step 4.1 (calling party)
            "RAS_ACF",
            "Q931_Setup",               // step 4.2 (through the GGSN)
            "GTP:Q931_Setup",           //   " (tunneled)
            "LLC:Q931_Setup",           //   " (Gb)
            "LLC:Q931_Call_Proceeding", //   " (VMSC answers)
            "RAS_ARQ",                  // step 4.3 (VMSC)
            "RAS_ACF",
            "A_Paging", // step 4.4
            "Abis_Paging",
            "Um_Paging",
            "Um_Paging_Response", // step 4.5
            "A_Setup",            //   " (MtSetup toward the MS)
            "Um_Setup",
            "Um_Alerting", // step 4.6
            "Q931_Alerting",
            "Um_Connect", // step 4.7
            "LLC:Q931_Connect",
            "Activate_PDP_Context_Request", // step 4.8
            "Q931_Connect",                 // step 4.7 reaches the caller
        ]),
        "termination ladder mismatch; got:\n{}",
        vgprs_sim::LadderDiagram::new(r.net.trace()).render()
    );
    assert_eq!(
        r.net.node::<MobileStation>(r.ms).unwrap().state(),
        MsState::Active
    );
    assert_eq!(
        r.net.node::<H323Terminal>(r.term).unwrap().state(),
        TerminalState::Active
    );
    // Voice flows.
    let handset = r.net.node::<MobileStation>(r.ms).unwrap();
    assert!(handset.frames_received > 50);
}

#[test]
fn busy_ms_rejects_second_call() {
    let mut r = rig();
    let term2 = {
        let t =
            r.zone
                .packet
                .add_terminal(&mut r.net, "term2", Msisdn::parse("886220002222").unwrap());
        r.net.run_until_quiescent();
        t
    };
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: term_alias(),
        }),
    );
    r.net.run_until(SimTime::from_micros(6_000_000));
    // terminal 2 now calls the busy MS
    r.net.inject(
        SimDuration::ZERO,
        term2,
        Message::Cmd(Command::Dial {
            call: CallId(2),
            called: ms_msisdn(),
        }),
    );
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
    let mut r = rig();
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: term_alias(),
        }),
    );
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
    let mut r = rig();
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: Msisdn::parse("886299999999").unwrap(),
        }),
    );
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
    let mut r = rig();
    for call_id in 1..=3u64 {
        r.net.inject(
            SimDuration::ZERO,
            r.ms,
            Message::Cmd(Command::Dial {
                call: CallId(call_id),
                called: term_alias(),
            }),
        );
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
    assert_eq!(
        r.net.node::<MobileStation>(r.ms).unwrap().calls_connected,
        3
    );
}

// ---- two handsets under one VMSC ----

fn ms2_imsi() -> Imsi {
    Imsi::parse("466920000000002").unwrap()
}

fn ms2_msisdn() -> Msisdn {
    Msisdn::parse("886912000002").unwrap()
}

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
    let mut r = rig();
    let (a, vmsc) = (r.ms, r.zone.access.msc);
    let b = r
        .zone
        .access
        .add_subscriber(&mut r.net, "ms2", ms2_imsi(), 0xBCDE, ms2_msisdn());
    r.net
        .inject(SimDuration::ZERO, b, Message::Cmd(Command::PowerOn));
    r.net.run_until_quiescent();
    let counter = |net: &Network<Message>, name| net.stats().counter(name);
    let (admitted, voice) = (
        counter(&r.net, "gk.admissions"),
        counter(&r.net, "vmsc.voice_context_requested"),
    );

    // A dials B.
    dial(&mut r.net, a, 1, ms2_msisdn());
    r.net.run_until(r.net.now() + SimDuration::from_secs(8));
    assert_eq!(
        (ms_state(&r.net, a), ms_state(&r.net, b)),
        (MsState::Active, MsState::Active)
    );
    assert_eq!(r.net.node::<Vmsc>(vmsc).unwrap().active_calls(), 2);
    for ms in [a, b] {
        let heard = r.net.node::<MobileStation>(ms).unwrap().frames_received;
        assert!(heard > 50, "a handset heard {heard} frames");
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
    dial(&mut r.net, r.term, 2, ms_msisdn());
    r.net.run_until(r.net.now() + SimDuration::from_secs(8));
    assert_eq!(ms_state(&r.net, a), MsState::Active);
    assert_eq!(
        r.net.node::<H323Terminal>(r.term).unwrap().state(),
        TerminalState::Active
    );

    // B dials A, who is busy: B hears so, and A's call is not disturbed.
    r.net.trace_mut().clear();
    dial(&mut r.net, b, 3, ms_msisdn());
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

/// Sends one message to the VMSC over a link of its own, as the BSC, the
/// SGSN or the VLR would.
struct Feeder {
    vmsc: NodeId,
    send: Option<Message>,
}

impl Node<Message> for Feeder {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        _: NodeId,
        _: Interface,
        msg: Message,
    ) {
        if matches!(msg, Message::Cmd(_)) {
            ctx.send(self.vmsc, self.send.take().expect("one message per feeder"));
        }
    }
}

/// The row's `RegPhase/CallPhase` and its radio connection.
fn row_state(net: &Network<Message>, vmsc: NodeId) -> (String, ConnRef) {
    let row = net.node::<Vmsc>(vmsc).unwrap().ms_entry(&ms_imsi());
    let Some((reg, call, conn)) = row.map(|row| row.state()) else {
        return ("/".into(), ConnRef(1));
    };
    let state = format!("{reg:?}/{}", call.unwrap_or_default());
    (state, conn.unwrap_or(ConnRef(1)))
}

/// Every message the Figure 4–6 ladders deliver to a VMSC, built for the
/// MS on `conn` with PDP address `addr`, about call `call`.
fn ladder_messages(conn: ConnRef, addr: Ipv4Addr, call: CallId) -> Vec<(Interface, Message)> {
    let imsi = ms_imsi();
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
            called: term_alias(),
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
            msisdn: Some(ms_msisdn()),
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
        ras(RasMessage::Rcf { alias: ms_msisdn() }),
        ras(RasMessage::Rrj {
            alias: ms_msisdn(),
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
            called: ms_msisdn(),
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
fn drive(r: &mut Rig, until_ms: u64, mut each_ms: impl FnMut(u64, &Network<Message>)) {
    r.net
        .inject(SimDuration::ZERO, r.ms, Message::Cmd(Command::PowerOn));
    for ms in 0..=until_ms {
        match ms {
            1_000 => dial(&mut r.net, r.ms, 1, term_alias()),
            5_000 => r
                .net
                .inject(SimDuration::ZERO, r.ms, Message::Cmd(Command::Hangup)),
            6_000 => dial(&mut r.net, r.term, 2, ms_msisdn()),
            _ => {}
        }
        r.net.run_until(SimTime::from_micros(ms * 1_000));
        each_ms(ms, &r.net);
    }
}

fn unregistered_rig() -> Rig {
    let mut net = Network::new(42);
    let mut zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    let ms = zone
        .access
        .add_subscriber(&mut net, "ms1", ms_imsi(), 0xABCD, ms_msisdn());
    let term = zone.packet.add_terminal(&mut net, "term1", term_alias());
    net.set_trace_capture(false);
    Rig {
        net,
        zone,
        ms,
        term,
    }
}

/// Whatever state the MS's row is in, no message of the Figure 4–6
/// ladders — about the row's call or a stranger — panics the VMSC, and
/// each one leaves a mark: a counter, or a message sent on.
#[test]
fn every_ladder_message_in_every_state_is_answered_or_counted() {
    // The states the scenario passes through, with when each first shows.
    let mut states: Vec<(String, u64)> = Vec::new();
    let mut r = unregistered_rig();
    let vmsc = r.zone.access.msc;
    drive(&mut r, 10_000, |ms, net| {
        let (state, _) = row_state(net, vmsc);
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
    let count = ladder_messages(ConnRef(1), Ipv4Addr::from_octets(10, 200, 0, 1), CallId(1)).len();
    for (state, at_ms) in &states {
        for stranger in [false, true] {
            for index in 0..count {
                let mut r = unregistered_rig();
                drive(&mut r, *at_ms, |_, _| {});
                let (reached, conn) = row_state(&r.net, vmsc);
                assert_eq!(reached, *state);
                let row = r.net.node::<Vmsc>(vmsc).unwrap().ms_entry(&ms_imsi());
                let addr = row.and_then(|row| row.signaling_addr);
                let addr = addr.unwrap_or(Ipv4Addr::from_octets(10, 200, 9, 9));
                let call = if stranger {
                    CallId(999)
                } else if state.contains("/Mt") {
                    CallId(2)
                } else {
                    CallId(1)
                };
                let (iface, msg) = ladder_messages(conn, addr, call).swap_remove(index);
                let what = format!("{msg:?} (stranger: {stranger}) in {state}");
                let silent_by_design = closes_a_dialogue(&msg);
                let feeder = r.net.add_node(
                    "feeder",
                    Feeder {
                        vmsc,
                        send: Some(msg),
                    },
                );
                r.net
                    .connect(feeder, vmsc, iface, SimDuration::from_micros(1));
                let counted = |net: &Network<Message>| -> u64 {
                    let vmsc = net
                        .stats()
                        .counters()
                        .filter(|(n, _)| n.starts_with("vmsc."));
                    vmsc.map(|(_, v)| v).sum()
                };
                // The feeder sends now; the VMSC hears it a microsecond
                // later. Whatever that microsecond adds to the event
                // queue beyond what it takes out, the VMSC sent or armed.
                r.net
                    .inject(SimDuration::ZERO, feeder, Message::Cmd(Command::PowerOn));
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
