//! Idle-mode mobility across vGPRS serving areas: a subscriber moves from
//! one VMSC's location area to another's, re-registers end to end (GSM
//! location update → HLR relocation → GPRS attach → gatekeeper
//! re-registration), and remains reachable at the new area.

use vgprs_core::{VgprsZone, VgprsZoneConfig, Vmsc};
use vgprs_gsm::{Hlr, MobileStation, MsState, Vlr};
use vgprs_h323::Gatekeeper;
use vgprs_sim::{Interface, Network, SimDuration};
use vgprs_wire::{CallId, CellId, Command, Imsi, Ipv4Addr, Lai, Message, Msisdn, TransportAddr};

struct TwoAreas {
    net: Network<Message>,
    zone1: VgprsZone,
    zone2: VgprsZone,
    ms: vgprs_sim::NodeId,
    imsi: Imsi,
    msisdn: Msisdn,
}

fn build() -> TwoAreas {
    let mut net = Network::new(42);
    let zone1 = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    let zone2 = VgprsZone::build(
        &mut net,
        VgprsZoneConfig {
            name: "tw2".into(),
            lai: Lai::new(466, 92, 2),
            cell: CellId(2),
            msrn_prefix: "8869991".into(),
            pool: (Ipv4Addr::from_octets(10, 201, 0, 0), 16),
            gk_addr: TransportAddr::new(Ipv4Addr::from_octets(10, 2, 0, 2), 1719),
            ..VgprsZoneConfig::taiwan()
        },
    );
    // Zone 2's subscribers are homed in zone 1's HLR (one operator, one
    // HLR, two serving areas).
    net.connect(
        zone2.access.vlr,
        zone1.access.hlr,
        Interface::D,
        SimDuration::from_millis(5),
    );
    net.node_mut::<Vlr>(zone2.access.vlr)
        .unwrap()
        .add_hlr_route("466", zone1.access.hlr);

    let imsi = Imsi::parse("466920000000001").unwrap();
    let msisdn = Msisdn::parse("886912000001").unwrap();
    let ms = zone1
        .access
        .add_subscriber(&mut net, "ms1", imsi, 0xABCD, msisdn);
    // The MS can also camp on zone 2's cell.
    net.connect(
        ms,
        zone2.access.bts,
        Interface::Um,
        SimDuration::from_millis(5),
    );
    net.node_mut::<vgprs_gsm::Bts>(zone2.access.bts)
        .unwrap()
        .register_ms(ms);
    net.node_mut::<MobileStation>(ms)
        .unwrap()
        .add_neighbor(CellId(2), zone2.access.bts);

    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    TwoAreas {
        net,
        zone1,
        zone2,
        ms,
        imsi,
        msisdn,
    }
}

#[test]
fn idle_movement_relocates_the_subscriber() {
    let mut w = build();
    assert_eq!(
        w.net
            .node::<Vmsc>(w.zone1.access.msc)
            .unwrap()
            .registered_count(),
        1
    );
    // Walk into the second location area while idle.
    w.net.inject(
        SimDuration::ZERO,
        w.ms,
        Message::Cmd(Command::MoveToCell { cell: CellId(2) }),
    );
    w.net.run_until_quiescent();

    // The MS re-registered through zone 2's VMSC.
    assert_eq!(
        w.net.node::<MobileStation>(w.ms).unwrap().state(),
        MsState::Idle
    );
    assert_eq!(
        w.net
            .node::<Vmsc>(w.zone2.access.msc)
            .unwrap()
            .registered_count(),
        1,
        "registered at the new serving area"
    );
    // The HLR relocated the subscriber and purged the old VLR.
    assert_eq!(
        w.net
            .node::<Hlr>(w.zone1.access.hlr)
            .unwrap()
            .serving_vlr(&w.imsi),
        Some(w.zone2.access.vlr)
    );
    assert_eq!(
        w.net
            .node::<Vlr>(w.zone1.access.vlr)
            .unwrap()
            .visitor_count(),
        0,
        "MAP_Cancel_Location purged the old VLR"
    );
    assert!(w.net.trace().contains_subsequence(&[
        "Um_Location_Update_Request",
        "MAP_Cancel_Location",
        "GPRS_Attach_Request",
        "RAS_RRQ",
        "Um_Location_Update_Accept",
    ]));
    // Zone 2's gatekeeper now translates the alias.
    assert!(w
        .net
        .node::<Gatekeeper>(w.zone2.packet.gk)
        .unwrap()
        .lookup(&w.msisdn)
        .is_some());
}

#[test]
fn after_movement_calls_reach_the_new_area() {
    let mut w = build();
    w.net.inject(
        SimDuration::ZERO,
        w.ms,
        Message::Cmd(Command::MoveToCell { cell: CellId(2) }),
    );
    w.net.run_until_quiescent();

    // A terminal in zone 2 calls the subscriber.
    let term = {
        let mut z2 = w.zone2.clone();
        let t = z2
            .packet
            .add_terminal(&mut w.net, "term2", Msisdn::parse("886220002222").unwrap());
        w.net.run_until_quiescent();
        t
    };
    let called = w.msisdn;
    w.net.inject(
        SimDuration::ZERO,
        term,
        Message::Cmd(Command::Dial {
            call: CallId(5),
            called,
        }),
    );
    w.net.run_until(w.net.now() + SimDuration::from_secs(10));
    assert_eq!(
        w.net.node::<MobileStation>(w.ms).unwrap().state(),
        MsState::Active,
        "the incoming call found the subscriber in the new area"
    );
    assert!(w.net.node::<MobileStation>(w.ms).unwrap().frames_received > 50);
}

#[test]
fn relocation_purges_the_old_serving_area() {
    // When the subscriber re-registers in area 2, the HLR's
    // MAP_Cancel_Location reaches area 1's VLR, which tells the old VMSC
    // to purge: the stale gatekeeper alias is unregistered (URQ) and the
    // leftover signaling PDP context is deactivated. A zone-1 caller is
    // then rejected immediately instead of paging into the void.
    let mut w = build();
    assert_eq!(
        w.net
            .node::<vgprs_gprs::Sgsn>(w.zone1.packet.sgsn)
            .unwrap()
            .active_pdp_count(),
        1,
        "precondition: one signaling context at area 1"
    );
    w.net.inject(
        SimDuration::ZERO,
        w.ms,
        Message::Cmd(Command::MoveToCell { cell: CellId(2) }),
    );
    w.net.run_until_quiescent();

    // Old area fully cleaned.
    assert_eq!(w.net.stats().counter("vmsc.purged"), 1);
    assert!(w.net.trace().contains_subsequence(&["MAP_Purge_MS", "RAS_URQ", "RAS_UCF"]));
    assert_eq!(
        w.net
            .node::<vgprs_gprs::Sgsn>(w.zone1.packet.sgsn)
            .unwrap()
            .active_pdp_count(),
        0,
        "the old signaling context was released"
    );
    assert!(
        w.net
            .node::<Gatekeeper>(w.zone1.packet.gk)
            .unwrap()
            .lookup(&w.msisdn)
            .is_none(),
        "the stale alias was unregistered"
    );

    // A zone-1 caller now fails fast (unknown alias) rather than paging.
    let term1 = {
        let mut z1 = w.zone1.clone();
        let t = z1
            .packet
            .add_terminal(&mut w.net, "term1", Msisdn::parse("886220003333").unwrap());
        w.net.run_until_quiescent();
        t
    };
    let called = w.msisdn;
    w.net.inject(
        SimDuration::ZERO,
        term1,
        Message::Cmd(Command::Dial {
            call: CallId(6),
            called,
        }),
    );
    w.net.run_until(w.net.now() + SimDuration::from_secs(5));
    assert_eq!(
        w.net
            .node::<vgprs_h323::H323Terminal>(term1)
            .unwrap()
            .calls_failed,
        1,
        "admission rejected for the departed alias"
    );
    assert_eq!(w.net.stats().counter("vmsc.paging_timeouts"), 0);
    assert_eq!(
        w.net
            .node::<Vmsc>(w.zone1.access.msc)
            .unwrap()
            .active_calls(),
        0
    );
}

#[test]
fn unreachable_ms_paging_times_out() {
    // Battery pulled (no detach, no relocation): the registration stays
    // valid everywhere, so an incoming call pages — and must give up via
    // the paging timer instead of wedging the caller.
    let mut w = build();
    w.net
        .inject(SimDuration::ZERO, w.ms, Message::Cmd(Command::PowerOff));
    w.net.run_until_quiescent();
    let term1 = {
        let mut z1 = w.zone1.clone();
        let t = z1
            .packet
            .add_terminal(&mut w.net, "term1", Msisdn::parse("886220003333").unwrap());
        w.net.run_until_quiescent();
        t
    };
    let called = w.msisdn;
    w.net.inject(
        SimDuration::ZERO,
        term1,
        Message::Cmd(Command::Dial {
            call: CallId(6),
            called,
        }),
    );
    w.net.run_until(w.net.now() + SimDuration::from_secs(30));
    assert_eq!(w.net.stats().counter("vmsc.paging_timeouts"), 1);
    assert_eq!(
        w.net
            .node::<vgprs_h323::H323Terminal>(term1)
            .unwrap()
            .state(),
        vgprs_h323::TerminalState::Idle,
        "the caller was released"
    );
    assert_eq!(
        w.net
            .node::<Vmsc>(w.zone1.access.msc)
            .unwrap()
            .active_calls(),
        0
    );
}
