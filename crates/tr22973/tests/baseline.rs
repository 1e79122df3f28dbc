//! End-to-end tests of the TR 22.973 baseline: registration with context
//! teardown, per-call activation (both directions), and the IMSI
//! disclosure the paper's Section 6 criticizes.

use vgprs_gprs::Sgsn;
use vgprs_h323::{Gatekeeper, H323Terminal, TerminalState};
use vgprs_sim::{Network, NodeId, SimDuration, SimTime};
use vgprs_tr22973::{H323Ms, TrZone, TrZoneConfig};
use vgprs_wire::{CallId, Command, Imsi, Message, Msisdn};

fn imsi() -> Imsi {
    Imsi::parse("466920000000010").unwrap()
}

fn msisdn() -> Msisdn {
    Msisdn::parse("886912000010").unwrap()
}

fn term_alias() -> Msisdn {
    Msisdn::parse("886220001111").unwrap()
}

struct Rig {
    net: Network<Message>,
    zone: TrZone,
    ms: NodeId,
    term: NodeId,
}

fn rig() -> Rig {
    let mut net = Network::new(42);
    let mut zone = TrZone::build(&mut net, TrZoneConfig::taiwan());
    let ms = zone.add_tr_ms(&mut net, "trms1", imsi(), msisdn());
    let term = zone.packet.add_terminal(&mut net, "term1", term_alias());
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    Rig {
        net,
        zone,
        ms,
        term,
    }
}

#[test]
fn registration_then_context_teardown() {
    let r = rig();
    let ms = r.net.node::<H323Ms>(r.ms).unwrap();
    assert_eq!(ms.state(), TerminalState::Idle);
    assert!(
        !ms.context_active(),
        "TR 22.973: the PDP context is deactivated when idle"
    );
    assert_eq!(
        r.net
            .node::<Sgsn>(r.zone.packet.sgsn)
            .unwrap()
            .active_pdp_count(),
        0
    );
    assert!(r.net.trace().contains_subsequence(&[
        "GPRS_Attach_Request",
        "Activate_PDP_Context_Request",
        "LLC:RAS_RRQ",
        "RAS_RCF",
        "Deactivate_PDP_Context_Request",
    ]));
}

#[test]
fn imsi_disclosed_to_gatekeeper() {
    let r = rig();
    let gk = r.net.node::<Gatekeeper>(r.zone.packet.gk).unwrap();
    assert_eq!(
        gk.imsi_disclosures(),
        1,
        "the TR architecture leaks the IMSI into the H.323 domain"
    );
    assert_eq!(r.net.stats().counter("gk.imsi_disclosures"), 1);
}

#[test]
fn origination_reactivates_context_per_call() {
    let mut r = rig();
    r.net.trace_mut().clear();
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: term_alias(),
        }),
    );
    r.net.run_until(SimTime::from_micros(10_000_000));
    assert_eq!(
        r.net.node::<H323Ms>(r.ms).unwrap().state(),
        TerminalState::Active
    );
    assert_eq!(
        r.net.node::<H323Terminal>(r.term).unwrap().state(),
        TerminalState::Active
    );
    // activation happened before the ARQ could even be sent
    assert!(r.net.trace().contains_subsequence(&[
        "Activate_PDP_Context_Request",
        "Activate_PDP_Context_Accept",
        "LLC:RAS_ARQ",
        "LLC:Q931_Setup",
    ]));
    // and voice flows over the packet air interface
    let ms = r.net.node::<H323Ms>(r.ms).unwrap();
    assert!(
        ms.endpoint().frames_received > 50,
        "{}",
        ms.endpoint().frames_received
    );
}

#[test]
fn termination_uses_network_initiated_activation() {
    let mut r = rig();
    r.net.trace_mut().clear();
    // The wireline terminal calls the (idle, context-less) TR MS.
    r.net.inject(
        SimDuration::ZERO,
        r.term,
        Message::Cmd(Command::Dial {
            call: CallId(2),
            called: msisdn(),
        }),
    );
    r.net.run_until(SimTime::from_micros(12_000_000));
    // Section 6's description of the TR termination path:
    assert!(
        r.net.trace().contains_subsequence(&[
            "Q931_Setup",                      // caller → GGSN (static addr)
            "GTP_PDU_Notification_Request",    // GGSN → SGSN
            "Request_PDP_Context_Activation",  // SGSN → MS
            "Activate_PDP_Context_Request",    // MS activates
            "Activate_PDP_Context_Accept",
            "LLC:Q931_Setup",                  // buffered Setup delivered
            "LLC:Q931_Alerting",
            "LLC:Q931_Connect",
        ]),
        "termination ladder mismatch; got:\n{}",
        vgprs_sim::LadderDiagram::new(r.net.trace()).render()
    );
    assert_eq!(
        r.net.node::<H323Ms>(r.ms).unwrap().state(),
        TerminalState::Active
    );
    assert_eq!(r.net.stats().counter("trms.network_initiated_activations"), 1);
}

#[test]
fn release_tears_context_down_again() {
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
    r.net
        .inject(SimDuration::ZERO, r.ms, Message::Cmd(Command::Hangup));
    r.net.run_until_quiescent();
    let ms = r.net.node::<H323Ms>(r.ms).unwrap();
    assert_eq!(ms.state(), TerminalState::Idle);
    assert!(!ms.context_active());
    assert_eq!(
        r.net
            .node::<Sgsn>(r.zone.packet.sgsn)
            .unwrap()
            .active_pdp_count(),
        0
    );
    // registration + call = two activations, two deactivations
    assert_eq!(r.net.stats().counter("trms.activations"), 2);
    assert_eq!(r.net.stats().counter("trms.deactivations"), 2);
}

#[test]
fn always_on_ablation_skips_reactivation() {
    let mut net = Network::new(42);
    let mut zone = TrZone::build(&mut net, TrZoneConfig::taiwan());
    let ms = zone.add_tr_ms(&mut net, "trms1", imsi(), msisdn());
    let term = zone.packet.add_terminal(&mut net, "term1", term_alias());
    // Flip the ablation switch: keep the context alive while idle.
    let _ = term;
    net.node_mut::<H323Ms>(ms)
        .unwrap()
        .set_deactivate_when_idle(false);
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    assert!(net.node::<H323Ms>(ms).unwrap().context_active());
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: term_alias(),
        }),
    );
    net.run_until(SimTime::from_micros(8_000_000));
    assert_eq!(
        net.node::<H323Ms>(ms).unwrap().state(),
        TerminalState::Active
    );
    // one activation total (registration), none for the call
    assert_eq!(net.stats().counter("trms.activations"), 1);
}

#[test]
fn two_tr_ms_call_each_other_over_shared_pdch() {
    let mut net = Network::new(42);
    let mut zone = TrZone::build(&mut net, TrZoneConfig::taiwan());
    let a = zone.add_tr_ms(
        &mut net,
        "a",
        Imsi::parse("466920000000011").unwrap(),
        Msisdn::parse("886912000011").unwrap(),
    );
    let b = zone.add_tr_ms(
        &mut net,
        "b",
        Imsi::parse("466920000000012").unwrap(),
        Msisdn::parse("886912000012").unwrap(),
    );
    net.inject(SimDuration::ZERO, a, Message::Cmd(Command::PowerOn));
    net.inject(SimDuration::from_millis(50), b, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    net.inject(
        SimDuration::ZERO,
        a,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: Msisdn::parse("886912000012").unwrap(),
        }),
    );
    net.run_until(SimTime::from_micros(15_000_000));
    assert_eq!(
        net.node::<H323Ms>(a).unwrap().state(),
        TerminalState::Active
    );
    assert_eq!(
        net.node::<H323Ms>(b).unwrap().state(),
        TerminalState::Active
    );
    // Both streams cross the same 40 kbit/s PDCH: two 13 kbit/s GSM
    // streams + overhead saturate it, so frames arrive but queue.
    assert!(net.node::<H323Ms>(a).unwrap().endpoint().frames_received > 20);
    assert!(net.node::<H323Ms>(b).unwrap().endpoint().frames_received > 20);
    let h = net.stats().histogram("trms.voice_e2e_ms").unwrap();
    assert!(
        h.percentile(95.0) > 20.0,
        "shared-PDCH queueing should inflate the tail: p95 = {}",
        h.percentile(95.0)
    );
}

#[test]
fn hangup_during_activation_releases_the_context() {
    let mut r = rig();
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: term_alias(),
        }),
    );
    // The activation round trip takes tens of milliseconds; hang up
    // while the request is still on its way to the SGSN.
    r.net.inject(
        SimDuration::from_millis(10),
        r.ms,
        Message::Cmd(Command::Hangup),
    );
    r.net.run_until_quiescent();
    let ms = r.net.node::<H323Ms>(r.ms).unwrap();
    assert_eq!(ms.state(), TerminalState::Idle);
    assert!(
        !ms.context_active(),
        "the accept found no call left and must tear the context down"
    );
    assert_eq!(
        r.net
            .node::<Sgsn>(r.zone.packet.sgsn)
            .unwrap()
            .active_pdp_count(),
        0
    );
    assert_eq!(r.net.stats().counter("trms.activations"), 2);
    assert_eq!(r.net.stats().counter("trms.deactivations"), 2);
    assert!(
        !r.net.trace().labels().contains(&"LLC:RAS_ARQ"),
        "no admission is asked for a call already hung up"
    );
}

/// Who a step of the parity script is addressed to.
#[derive(Clone, Copy)]
enum Who {
    /// The endpoint under test.
    Subject,
    /// The wireline terminal it talks to.
    Peer,
    /// A second wireline terminal, calling in while it is busy.
    Third,
}

/// Drives one script at an endpoint — a TR MS or a LAN terminal — and
/// returns the RAS/Q.931 messages that endpoint put on the wire.
fn wire_sequence(tr_ms: bool) -> Vec<String> {
    let third_alias = Msisdn::parse("886220002222").unwrap();
    let nobody = Msisdn::parse("886299999999").unwrap();
    let mut net = Network::new(42);
    // Generous air capacity: the script is about signalling, and on the
    // default PDCH a release queues for seconds behind the voice backlog.
    let cfg = TrZoneConfig {
        pdch_bps: 2_000_000,
        ..TrZoneConfig::taiwan()
    };
    let mut zone = TrZone::build(&mut net, cfg);
    let subject = if tr_ms {
        zone.add_tr_ms(&mut net, "subject", imsi(), msisdn())
    } else {
        zone.packet.add_terminal(&mut net, "subject", msisdn())
    };
    let peer = zone.packet.add_terminal(&mut net, "peer", term_alias());
    let third = zone.packet.add_terminal(&mut net, "third", third_alias);
    let dial = |call, called| Command::Dial {
        call: CallId(call),
        called,
    };
    let script = [
        // Register (a LAN terminal does so unprompted, on start).
        (Who::Subject, Command::PowerOn),
        // Dial out; the peer auto-answers.
        (Who::Subject, dial(1, term_alias())),
        // A second Setup finds the subject busy.
        (Who::Third, dial(2, msisdn())),
        // Peer release.
        (Who::Peer, Command::Hangup),
        // Answer in (auto-answer after two seconds).
        (Who::Peer, dial(3, msisdn())),
        // Hang up.
        (Who::Subject, Command::Hangup),
        // ARJ: nobody has that alias.
        (Who::Subject, dial(4, nobody)),
    ];
    for (who, cmd) in script {
        let to = match who {
            Who::Subject => subject,
            Who::Peer => peer,
            Who::Third => third,
        };
        net.inject(SimDuration::ZERO, to, Message::Cmd(cmd));
        let deadline = net.now() + SimDuration::from_secs(6);
        net.run_until(deadline);
    }
    let failed = if tr_ms {
        net.node::<H323Ms>(subject).unwrap().endpoint().calls_failed
    } else {
        net.node::<H323Terminal>(subject).unwrap().calls_failed
    };
    assert_eq!(failed, 1, "the ARJ failed exactly one call");
    net.trace()
        .messages()
        .filter_map(|e| match e {
            vgprs_sim::TraceEntry::Message { from, label, .. } if *from == subject => {
                Some(label.strip_prefix("LLC:").unwrap_or(label))
            }
            _ => None,
        })
        .filter(|l| l.starts_with("RAS_") || l.starts_with("Q931_"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn tr_ms_and_lan_terminal_speak_the_same_h323() {
    let lan = wire_sequence(false);
    assert_eq!(
        lan,
        [
            "RAS_RRQ",
            "RAS_ARQ",
            "Q931_Setup",
            "Q931_Release_Complete", // busy, to the third terminal
            "RAS_DRQ",               // released by the peer
            "Q931_Call_Proceeding",
            "RAS_ARQ",
            "Q931_Alerting",
            "Q931_Connect",
            "Q931_Release_Complete",
            "RAS_DRQ",
            "RAS_ARQ", // rejected
        ]
    );
    assert_eq!(
        wire_sequence(true),
        lan,
        "one endpoint machine, two bearers"
    );
}
