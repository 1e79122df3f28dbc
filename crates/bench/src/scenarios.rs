//! Reusable experiment scenarios.
//!
//! Every figure/claim reproduction builds its network through these
//! functions so the integration tests, the `harness` binary and the
//! Criterion benches all measure exactly the same systems.

use vgprs_core::{
    AccessHalf, Architecture, GsmZone, GsmZoneConfig, LatencyProfile, PacketHalf, VgprsZone,
    VgprsZoneConfig, Vmsc,
};
use vgprs_gsm::MobileStation;
use vgprs_h323::H323Terminal;
use vgprs_pstn::{PstnPhone, PstnSwitch, TrunkClass};
use vgprs_sim::{Interface, Network, NodeId, SimDuration, SimTime};
use vgprs_tr22973::TrZone;
use vgprs_wire::{CallId, CellId, Command, Imsi, Lai, Message, Msisdn};

/// One zone of architecture `A` with one registered mobile and one
/// H.323 terminal.
pub struct Single<A> {
    /// The network.
    pub net: Network<Message>,
    /// Zone handles.
    pub zone: A,
    /// The mobile station.
    pub ms: NodeId,
    /// The MS's identity.
    pub ms_imsi: Imsi,
    /// The MS's number.
    pub ms_msisdn: Msisdn,
    /// The wireline H.323 terminal.
    pub term: NodeId,
    /// The terminal's alias.
    pub term_alias: Msisdn,
}

/// A single vGPRS zone — the world of Figures 1–6.
pub type SingleZone = Single<VgprsZone>;

/// A TR 22.973 zone with one TR MS and a terminal — the baseline world.
pub type TrSingleZone = Single<TrZone>;

impl<A: Architecture> Single<A> {
    /// Builds the reference zone and registers both endpoints.
    pub fn build(seed: u64) -> Self {
        let mut net = Network::new(seed);
        let mut zone = A::build(&mut net, A::taiwan());
        let ms_imsi = Imsi::parse("466920000000001").expect("valid");
        let ms_msisdn = Msisdn::parse("886912000001").expect("valid");
        let term_alias = Msisdn::parse("886220001111").expect("valid");
        let ms = zone.add_mobile(&mut net, "ms1", ms_imsi, 0xABCD, ms_msisdn);
        let term = zone.packet().add_terminal(&mut net, "term1", term_alias);
        net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
        net.run_until_quiescent();
        Single {
            net,
            zone,
            ms,
            ms_imsi,
            ms_msisdn,
            term,
            term_alias,
        }
    }

    /// Places an MS→terminal call and runs until both talk, returning the
    /// post-dial delay (dial → ringback) in milliseconds.
    pub fn call_from_ms(&mut self, call: CallId, talk_for: SimDuration) -> f64 {
        self.net.inject(
            SimDuration::ZERO,
            self.ms,
            Message::Cmd(Command::Dial {
                call,
                called: self.term_alias,
            }),
        );
        let deadline = self.net.now() + SimDuration::from_secs(5) + talk_for;
        self.net.run_until(deadline);
        histogram_mean(&self.net, A::POST_DIAL_DELAY_MS)
    }

    /// Hangs up from the MS side and drains the release.
    pub fn hangup_from_ms(&mut self) {
        self.net
            .inject(SimDuration::ZERO, self.ms, Message::Cmd(Command::Hangup));
        self.net.run_until_quiescent();
    }
}

/// The measured outcome of one roaming-call scenario (Figures 7–8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TromboningReport {
    /// Did the call reach the roamer and connect?
    pub connected: bool,
    /// International trunk seizures across all switches.
    pub international_trunks: usize,
    /// Local trunk seizures across all switches.
    pub local_trunks: usize,
    /// Total trunk cost after 60 s of conversation (cost units).
    pub trunk_cost_60s: f64,
    /// Post-dial delay at the calling phone (ms), if ringback was heard.
    pub post_dial_delay_ms: Option<f64>,
}

/// The world of Figures 7–8: subscriber `x` (home: UK, a classic GSM
/// network holding its HLR and the GMSC role) roams to Hong Kong, where
/// fixed-line `y` calls `x`'s UK number. `visited` builds Hong Kong's
/// network on its PSTN switch and returns the access half `x` camps on
/// and, when the network is a vGPRS one, the packet half its H.323/PSTN
/// gateway joins.
fn roaming_call(
    seed: u64,
    roamer_registered: bool,
    visited: fn(&mut Network<Message>, NodeId) -> (AccessHalf, Option<PacketHalf>),
) -> TromboningReport {
    let mut net = Network::new(seed);
    let lat = LatencyProfile::default();

    // Two national PSTNs joined by an international trunk group.
    let hk_switch = net.add_node("hk.pstn", PstnSwitch::new("hk"));
    let uk_switch = net.add_node("uk.pstn", PstnSwitch::new("uk"));
    net.connect(hk_switch, uk_switch, Interface::Isup, lat.isup_international);

    let uk = GsmZone::build(
        &mut net,
        GsmZoneConfig {
            name: "uk".into(),
            country_code: "44".into(),
            home_prefix: "447".into(),
            msrn_prefix: "449990".into(),
            lai: Lai::new(234, 15, 1),
            cell: CellId(10),
            tch_capacity: 32,
            auth_on_access: true,
            latency: lat,
        },
        uk_switch,
    )
    .access;
    let (hk, hk_packet) = visited(&mut net, hk_switch);
    // Roamer dialogue path: HK VLR ↔ UK HLR (international SS7).
    net.connect(hk.vlr, uk.hlr, Interface::D, lat.ss7_international);
    net.node_mut::<vgprs_gsm::Vlr>(hk.vlr)
        .expect("hk vlr")
        .add_hlr_route("234", uk.hlr);

    // x: UK subscriber, roaming in HK.
    let x_imsi = Imsi::parse("234150000000001").expect("valid");
    let x_msisdn = Msisdn::parse("447700900123").expect("valid");
    net.node_mut::<vgprs_gsm::Hlr>(uk.hlr)
        .expect("uk hlr")
        .provision(x_imsi, 0xCAFE, vgprs_wire::SubscriberProfile::full(x_msisdn));
    let x = hk.add_roamer(&mut net, "x", x_imsi, 0xCAFE, x_msisdn);

    // y: a fixed-line phone in HK.
    let y_msisdn = Msisdn::parse("85221230001").expect("valid");
    let y = net.add_node("hk.y", PstnPhone::new(y_msisdn, hk_switch));
    net.connect(y, hk_switch, Interface::Isup, lat.isup);

    // Routing tables. A vGPRS Hong Kong hands 44-prefixed calls to its
    // VoIP gateway first (Figure 8, step (1)), with the international
    // route as the crankback fallback; a classic one only ever sees the
    // roaming number come back from the UK GMSC.
    let msrn_route = match hk_packet {
        Some(mut packet) => {
            packet.add_gateway(&mut net, hk_switch, "447");
            None
        }
        None => Some(hk.msc),
    };
    {
        let s = net.node_mut::<PstnSwitch>(hk_switch).expect("hk switch");
        s.add_route("44", uk_switch, TrunkClass::International);
        s.add_route("85221230001", y, TrunkClass::Local);
        if let Some(msc) = msrn_route {
            s.add_route("8529990", msc, TrunkClass::Local);
        }
    }
    {
        let s = net.node_mut::<PstnSwitch>(uk_switch).expect("uk switch");
        s.add_route("447", uk.msc, TrunkClass::National);
        s.add_route("852", hk_switch, TrunkClass::International);
    }

    if roamer_registered {
        net.inject(SimDuration::ZERO, x, Message::Cmd(Command::PowerOn));
        net.run_until_quiescent();
    }
    let call = CallId(900);
    net.inject(
        SimDuration::ZERO,
        y,
        Message::Cmd(Command::Dial {
            call,
            called: x_msisdn,
        }),
    );
    net.run_until(net.now() + SimDuration::from_secs(65));

    let connected = net
        .node::<MobileStation>(x)
        .map(|m| m.calls_connected > 0)
        .unwrap_or(false);
    summarize_trunks(&net, &[hk_switch, uk_switch], call, connected)
}

/// Figure 7: `x` roams to Hong Kong under a *classic* GSM visited
/// network; `y` in Hong Kong calls `x`'s UK number.
///
/// Classic GSM call delivery routes via the UK GMSC and back — two
/// international trunks.
pub fn tromboning_classic(seed: u64) -> TromboningReport {
    roaming_call(seed, true, |net, hk_switch| {
        let cfg = GsmZoneConfig {
            name: "hk".into(),
            country_code: "852".into(),
            home_prefix: "8529".into(),
            msrn_prefix: "8529990".into(),
            lai: Lai::new(454, 0, 1),
            cell: CellId(20),
            tch_capacity: 32,
            auth_on_access: true,
            latency: LatencyProfile::default(),
        };
        (GsmZone::build(net, cfg, hk_switch).access, None)
    })
}

/// Figure 8: the same roaming call, but the visited network runs vGPRS
/// with a local gatekeeper and an H.323/PSTN gateway. When `x` is
/// registered locally the call never leaves Hong Kong; when not, the
/// gateway falls back to the international PSTN (crankback).
pub fn tromboning_vgprs(seed: u64, roamer_registered: bool) -> TromboningReport {
    roaming_call(seed, roamer_registered, |net, _hk_switch| {
        let cfg = VgprsZoneConfig {
            name: "hk".into(),
            country_code: "852".into(),
            msrn_prefix: "8529990".into(),
            lai: Lai::new(454, 0, 1),
            cell: CellId(20),
            ..VgprsZoneConfig::taiwan()
        };
        let hk = VgprsZone::build(net, cfg);
        (hk.access, Some(hk.packet))
    })
}

fn summarize_trunks(
    net: &Network<Message>,
    switches: &[NodeId],
    call: CallId,
    connected: bool,
) -> TromboningReport {
    // Call legs carry their own (renamed) identifiers through the GMSC,
    // exactly as in real networks; the scenario has a single call, so
    // totalling the ledgers per trunk class captures all of its legs.
    let _ = call;
    let mut international = 0;
    let mut local = 0;
    let mut cost = 0.0;
    for &sw in switches {
        let ledger = net
            .node::<PstnSwitch>(sw)
            .expect("switch")
            .ledger();
        for entry in ledger.entries() {
            match entry.class {
                TrunkClass::International => international += 1,
                TrunkClass::Local => local += 1,
                TrunkClass::National => {}
            }
            cost += entry.cost(net.now());
        }
    }
    TromboningReport {
        connected,
        international_trunks: international,
        local_trunks: local,
        trunk_cost_60s: cost,
        post_dial_delay_ms: net
            .stats()
            .histogram("phone.post_dial_delay_ms")
            .map(|h| h.mean()),
    }
}

/// The measured outcome of the inter-system handoff scenario (Figure 9).
#[derive(Clone, Copy, Debug)]
pub struct HandoffReport {
    /// The MS completed the handoff.
    pub handoffs_completed: u64,
    /// Frames the MS heard before the handoff.
    pub frames_before: u64,
    /// Frames the MS heard after the handoff (voice continuity).
    pub frames_after: u64,
    /// Frames the terminal heard after the handoff (uplink continuity).
    pub term_frames_after: u64,
}

/// The Figure 9 world ten seconds into a call from the MS of a vGPRS
/// zone to a terminal on its LAN, the MS also hearing cell 2, which
/// belongs to the zone `build_neighbor` creates. Returns the network,
/// the MS and the terminal.
fn handoff_world(
    seed: u64,
    build_neighbor: fn(&mut Network<Message>) -> AccessHalf,
) -> (Network<Message>, NodeId, NodeId) {
    let mut net = Network::new(seed);
    let mut zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    let neighbor = build_neighbor(&mut net);
    // E interface between the two MSCs; the VMSC knows cell 2's owner.
    net.connect(
        zone.access.msc,
        neighbor.msc,
        Interface::E,
        neighbor.latency.e,
    );
    net.node_mut::<Vmsc>(zone.access.msc)
        .expect("vmsc")
        .add_neighbor_cell(neighbor.cell, neighbor.msc);

    let ms = zone.access.add_subscriber(
        &mut net,
        "ms1",
        Imsi::parse("466920000000001").expect("valid"),
        0xABCD,
        Msisdn::parse("886912000001").expect("valid"),
    );
    let term_alias = Msisdn::parse("886220001111").expect("valid");
    let term = zone.packet.add_terminal(&mut net, "term1", term_alias);
    neighbor.cover(&mut net, ms);

    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: term_alias,
        }),
    );
    // Talk for a while before moving.
    net.run_until(SimTime::from_micros(10_000_000));
    (net, ms, term)
}

/// Cell 2 under a classic MSC (same country) with its own BSC/BTS.
fn classic_neighbor(net: &mut Network<Message>) -> AccessHalf {
    let pstn = net.add_node("tw.pstn", PstnSwitch::new("tw"));
    let cfg = GsmZoneConfig {
        name: "tw2".into(),
        country_code: "886".into(),
        home_prefix: "8869".into(),
        msrn_prefix: "8869991".into(),
        lai: Lai::new(466, 92, 2),
        cell: CellId(2),
        tch_capacity: 32,
        auth_on_access: true,
        latency: LatencyProfile::default(),
    };
    GsmZone::build(net, cfg, pstn).access
}

/// Cell 2 under a second VMSC with its own GPRS core and H.323 zone.
fn vmsc_neighbor(net: &mut Network<Message>) -> AccessHalf {
    let cfg = VgprsZoneConfig {
        name: "tw2".into(),
        lai: Lai::new(466, 92, 2),
        cell: CellId(2),
        msrn_prefix: "8869991".into(),
        pool: (vgprs_wire::Ipv4Addr::from_octets(10, 201, 0, 0), 16),
        gk_addr: vgprs_wire::TransportAddr::new(
            vgprs_wire::Ipv4Addr::from_octets(10, 2, 0, 2),
            1719,
        ),
        ..VgprsZoneConfig::taiwan()
    };
    VgprsZone::build(net, cfg).access
}

/// Moves the MS into cell 2 and talks for ten more seconds.
fn move_to_cell_2(net: &mut Network<Message>, ms: NodeId) {
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::MoveToCell { cell: CellId(2) }),
    );
    net.run_until(SimTime::from_micros(20_000_000));
}

/// Hands the call of a [`handoff_world`] over and counts the frames on
/// both sides of the move.
fn handoff_report((mut net, ms, term): (Network<Message>, NodeId, NodeId)) -> HandoffReport {
    let frames_before = net.node::<MobileStation>(ms).expect("ms").frames_received;
    let term_frames_before = net
        .node::<H323Terminal>(term)
        .expect("term")
        .frames_received;
    move_to_cell_2(&mut net, ms);
    let handset = net.node::<MobileStation>(ms).expect("ms");
    let terminal = net.node::<H323Terminal>(term).expect("term");
    HandoffReport {
        handoffs_completed: handset.handoffs_completed,
        frames_before,
        frames_after: handset.frames_received - frames_before,
        term_frames_after: terminal.frames_received - term_frames_before,
    }
}

/// Figure 9: an MS in a call through a VMSC moves into a cell served by a
/// neighboring *classic* GSM MSC. The VMSC stays in the path as the
/// anchor; voice continues over an inter-MSC trunk.
pub fn intersystem_handoff(seed: u64) -> HandoffReport {
    handoff_report(handoff_world(seed, classic_neighbor))
}

/// Section 7's closing claim: "inter-system handoff between two VMSCs
/// follows the same procedure". Identical to [`intersystem_handoff`] but
/// the neighboring cell belongs to a *second VMSC* (its own GPRS core and
/// H.323 zone), not a classic MSC.
pub fn intervmsc_handoff(seed: u64) -> HandoffReport {
    handoff_report(handoff_world(seed, vmsc_neighbor))
}

/// Figure 9 with windowed delay measurement: mean downlink frame delay
/// at the MS before vs. after the handoff (the C5 measurement), from
/// the MS's voice-delay histogram snapshotted at the handoff boundary.
pub fn intersystem_handoff_windowed(seed: u64) -> crate::experiments::C5Report {
    let (mut net, ms, _term) = handoff_world(seed, classic_neighbor);
    let (n1, s1) = histogram_sum(&net, "ms.voice_e2e_ms");
    move_to_cell_2(&mut net, ms);
    let (n2, s2) = histogram_sum(&net, "ms.voice_e2e_ms");
    let before = if n1 > 0 { s1 / n1 as f64 } else { f64::NAN };
    let after = if n2 > n1 {
        (s2 - s1) / (n2 - n1) as f64
    } else {
        f64::NAN
    };
    crate::experiments::C5Report {
        handoffs: net.node::<MobileStation>(ms).expect("ms").handoffs_completed,
        delay_before_ms: before,
        delay_after_ms: after,
    }
}

/// Mean of the named histogram; NaN when nothing was observed.
pub(crate) fn histogram_mean(net: &Network<Message>, name: &str) -> f64 {
    net.stats().histogram(name).map_or(f64::NAN, |h| h.mean())
}

fn histogram_sum(net: &Network<Message>, name: &str) -> (u64, f64) {
    net.stats()
        .histogram(name)
        .map(|h| (h.count(), h.sum()))
        .unwrap_or((0, 0.0))
}
