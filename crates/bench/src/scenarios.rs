//! Reusable experiment scenarios.
//!
//! The `harness` binary, the workspace integration tests and the
//! benchmark's micro timings run these. The worlds of the paper's ladder
//! figures are `vgprs_core::figures`; the scenarios here drive them and
//! build the roaming worlds of Figures 7–8.

use vgprs_core::figures::{classic_neighbor, HandoffWorld};
pub use vgprs_core::figures::{Single, SingleZone};
use vgprs_core::{
    AccessHalf, GsmZone, GsmZoneConfig, LatencyProfile, PacketHalf, VgprsZone, VgprsZoneConfig,
};
use vgprs_pstn::{PstnPhone, PstnSwitch, TrunkClass};
use vgprs_sim::{Interface, Network, NodeId, SimDuration, SimTime};
use vgprs_tr22973::TrZone;
use vgprs_wire::{CallId, CellId, Command, Imsi, Lai, Message, Msisdn};

/// A TR 22.973 zone with one TR MS and a terminal — the baseline world.
pub type TrSingleZone = Single<TrZone>;

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
    let x = hk.add_roamer(&mut net, "x", x_imsi, 0xCAFE);

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

    // `x` is the world's one handset.
    let connected = net.stats().counter("ms.calls_connected") > 0;
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

/// The Figure 9 world around the neighbour `neighbor` builds, ten
/// seconds into a call from the MS to the terminal.
fn talking(seed: u64, neighbor: fn(&mut Network<Message>) -> AccessHalf) -> HandoffWorld {
    let mut world = HandoffWorld::build(seed, neighbor);
    let home = &mut world.home;
    let dial = Command::Dial {
        call: CallId(1),
        called: home.term_alias,
    };
    home.net
        .inject(SimDuration::ZERO, home.ms, Message::Cmd(dial));
    // Talk for a while before moving.
    home.net.run_until(SimTime::from_micros(10_000_000));
    world
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

/// Figure 9 around the neighbour `neighbor` builds: ten seconds into a
/// call, the MS moves into the neighbour's cell 2 and talks for ten more.
/// Returns the world, its trace holding the move alone, and the frames
/// counted on both sides of the move.
pub fn handed_over(
    seed: u64,
    neighbor: fn(&mut Network<Message>) -> AccessHalf,
) -> (HandoffWorld, HandoffReport) {
    let mut world = talking(seed, neighbor);
    let (net, ms) = (&mut world.home.net, world.home.ms);
    net.trace_mut().clear();
    // The world's one handset and one terminal.
    let frames = |net: &Network<Message>| {
        let stats = net.stats();
        (
            stats.counter("ms.voice_frames_received"),
            stats.counter("term.rtp_received"),
        )
    };
    let (frames_before, term_frames_before) = frames(net);
    move_to_cell_2(net, ms);
    let (ms_frames, term_frames) = frames(net);
    let report = HandoffReport {
        handoffs_completed: net.stats().counter("ms.handoffs"),
        frames_before,
        frames_after: ms_frames - frames_before,
        term_frames_after: term_frames - term_frames_before,
    };
    (world, report)
}

/// Figure 9: an MS in a call through a VMSC moves into a cell served by a
/// neighboring *classic* GSM MSC. The VMSC stays in the path as the
/// anchor; voice continues over an inter-MSC trunk.
pub fn intersystem_handoff(seed: u64) -> HandoffReport {
    handed_over(seed, classic_neighbor).1
}

/// Figure 9 with windowed delay measurement: mean downlink frame delay
/// at the MS before vs. after the handoff (the C5 measurement), from
/// the MS's voice-delay histogram snapshotted at the handoff boundary.
pub fn intersystem_handoff_windowed(seed: u64) -> crate::experiments::C5Report {
    let world = &mut talking(seed, classic_neighbor).home;
    let (net, ms) = (&mut world.net, world.ms);
    let (n1, s1) = histogram_sum(net, "ms.voice_e2e_ms");
    move_to_cell_2(net, ms);
    let (n2, s2) = histogram_sum(net, "ms.voice_e2e_ms");
    let before = if n1 > 0 { s1 / n1 as f64 } else { f64::NAN };
    let after = if n2 > n1 {
        (s2 - s1) / (n2 - n1) as f64
    } else {
        f64::NAN
    };
    crate::experiments::C5Report {
        handoffs: net.stats().counter("ms.handoffs"),
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
