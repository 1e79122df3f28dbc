//! End-to-end reproduction of the paper's Figures 5 and 6: vGPRS call
//! origination + release, and call termination, between a standard GSM
//! MS and an H.323 terminal.

use vgprs_core::{VgprsZone, VgprsZoneConfig, Vmsc};
use vgprs_gsm::{MobileStation, MsState};
use vgprs_h323::{Gatekeeper, H323Terminal, TerminalState};
use vgprs_sim::{Network, NodeId, SimDuration, SimTime};
use vgprs_wire::{CallId, Command, Imsi, Message, Msisdn};

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
            "Um_CM_Service_Request",          // step 2.1 box
            "Um_Setup",                       // step 2.1
            "MAP_Send_Info_For_Outgoing_Call",// step 2.2
            "MAP_Send_Info_For_Outgoing_Call_ack",
            "RAS_ARQ",                        // step 2.3 (VMSC → GK)
            "RAS_ACF",
            "Q931_Setup",                     // step 2.4
            "Q931_Call_Proceeding",
            "RAS_ARQ",                        // step 2.5 (terminal → GK)
            "RAS_ACF",
            "Q931_Alerting",                  // step 2.6
            "A_Alerting",                     // step 2.7
            "Um_Alerting",
            "Q931_Connect",                   // step 2.8
            "A_Connect",
            "Um_Connect",
            "Activate_PDP_Context_Request",   // step 2.9 (voice context)
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
            "Um_Disconnect",                    // step 3.1
            "LLC:Q931_Release_Complete",        // step 3.2 (leaves the VMSC)
            "Deactivate_PDP_Context_Request",   // step 3.4
            "Q931_Release_Complete",            // step 3.2 (reaches the LAN)
            "RAS_DRQ",                          // step 3.3
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
            "RAS_ARQ",                       // step 4.1 (calling party)
            "RAS_ACF",
            "Q931_Setup",                    // step 4.2 (through the GGSN)
            "GTP:Q931_Setup",                //   " (tunneled)
            "LLC:Q931_Setup",                //   " (Gb)
            "LLC:Q931_Call_Proceeding",      //   " (VMSC answers)
            "RAS_ARQ",                       // step 4.3 (VMSC)
            "RAS_ACF",
            "A_Paging",                      // step 4.4
            "Abis_Paging",
            "Um_Paging",
            "Um_Paging_Response",            // step 4.5
            "A_Setup",                       //   " (MtSetup toward the MS)
            "Um_Setup",
            "Um_Alerting",                   // step 4.6
            "Q931_Alerting",
            "Um_Connect",                    // step 4.7
            "LLC:Q931_Connect",
            "Activate_PDP_Context_Request",  // step 4.8
            "Q931_Connect",                  // step 4.7 reaches the caller
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
