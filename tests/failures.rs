//! Failure injection: every scarce resource in the architecture must
//! fail the way GSM/GPRS/H.323 prescribe — clean rejections, no leaked
//! state, no stuck endpoints.

use vgprs_core::{VgprsZone, VgprsZoneConfig, Vmsc};
use vgprs_gsm::{MobileStation, MsState};
use vgprs_h323::Gatekeeper;
use vgprs_sim::{Network, SimDuration};
use vgprs_wire::{CallId, Command, Imsi, Ipv4Addr, Message, Msisdn, TransportAddr};

fn imsi(i: u32) -> Imsi {
    Imsi::parse(&format!("4669200000001{i:02}")).unwrap()
}

fn msisdn(i: u32) -> Msisdn {
    Msisdn::parse(&format!("8869121000{i:02}")).unwrap()
}

/// Radio congestion: with a single traffic channel, the second
/// simultaneous call is blocked and cleanly released.
#[test]
fn tch_exhaustion_blocks_second_call() {
    let mut net = Network::new(42);
    let mut zone = VgprsZone::build(
        &mut net,
        VgprsZoneConfig {
            tch_capacity: 1,
            ..VgprsZoneConfig::taiwan()
        },
    );
    let ms1 = zone
        .access
        .add_subscriber(&mut net, "ms1", imsi(1), 0x1, msisdn(1));
    let ms2 = zone
        .access
        .add_subscriber(&mut net, "ms2", imsi(2), 0x2, msisdn(2));
    let alias1 = Msisdn::parse("886220001111").unwrap();
    let alias2 = Msisdn::parse("886220002222").unwrap();
    zone.packet.add_terminal(&mut net, "t1", alias1);
    zone.packet.add_terminal(&mut net, "t2", alias2);
    for ms in [ms1, ms2] {
        net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    }
    net.run_until_quiescent();
    net.inject(
        SimDuration::ZERO,
        ms1,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: alias1,
        }),
    );
    net.inject(
        SimDuration::from_millis(500),
        ms2,
        Message::Cmd(Command::Dial {
            call: CallId(2),
            called: alias2,
        }),
    );
    net.run_until(net.now() + SimDuration::from_secs(10));
    assert_eq!(
        net.node::<MobileStation>(ms1).unwrap().state(),
        MsState::Active,
        "first call holds the only TCH"
    );
    assert_eq!(
        net.node::<MobileStation>(ms2).unwrap().state(),
        MsState::Idle,
        "second call blocked and released"
    );
    assert_eq!(net.stats().counter("bsc.tch_blocked"), 1);
    assert_eq!(net.stats().counter("vmsc.assignment_blocked"), 1);
    assert_eq!(
        net.node::<Vmsc>(zone.access.msc).unwrap().active_calls(),
        1,
        "no leaked call state"
    );
}

/// Gatekeeper admission control: with a zero bandwidth budget every call
/// is rejected with ARJ and both sides clear (paper step 2.5's "it is
/// possible that an ARJ message is received … and the call is released").
#[test]
fn gatekeeper_bandwidth_exhaustion_rejects_calls() {
    let mut net = Network::new(42);
    let mut zone = VgprsZone::build(
        &mut net,
        VgprsZoneConfig {
            gk_bandwidth: 0,
            ..VgprsZoneConfig::taiwan()
        },
    );
    let ms = zone
        .access
        .add_subscriber(&mut net, "ms1", imsi(1), 0x1, msisdn(1));
    let alias = Msisdn::parse("886220001111").unwrap();
    zone.packet.add_terminal(&mut net, "t1", alias);
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    // Registration itself needs no bandwidth, so it succeeded:
    assert_eq!(
        net.node::<Vmsc>(zone.access.msc)
            .unwrap()
            .registered_count(),
        1
    );
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: alias,
        }),
    );
    net.run_until_quiescent();
    assert_eq!(
        net.node::<MobileStation>(ms).unwrap().state(),
        MsState::Idle,
        "call rejected and cleared"
    );
    assert!(net.stats().counter("gk.admission_rejected_bandwidth") >= 1);
    assert_eq!(net.node::<Vmsc>(zone.access.msc).unwrap().active_calls(), 0);
    assert_eq!(
        net.node::<Gatekeeper>(zone.packet.gk)
            .unwrap()
            .bandwidth_used(),
        0
    );
}

/// GGSN address-pool exhaustion: registrations beyond the pool size fail
/// with a location-update reject; earlier registrations are unaffected.
#[test]
fn ggsn_pool_exhaustion_fails_late_registrations() {
    let mut net = Network::new(42);
    let zone = VgprsZone::build(
        &mut net,
        VgprsZoneConfig {
            // /30 ⇒ 3 usable addresses, one burned by the GK route space:
            // hosts .1 .2 .3 of 10.200.0.0/30 → 3 signaling contexts max
            pool: (Ipv4Addr::from_octets(10, 200, 0, 0), 30),
            gk_addr: TransportAddr::new(Ipv4Addr::from_octets(10, 1, 0, 2), 1719),
            ..VgprsZoneConfig::taiwan()
        },
    );
    let mut mss = Vec::new();
    for i in 0..5u32 {
        let ms = zone.access.add_subscriber(
            &mut net,
            format_args!("ms{i}"),
            imsi(i),
            0x10 + u64::from(i),
            msisdn(i),
        );
        mss.push(ms);
        net.inject(
            SimDuration::from_millis(u64::from(i) * 300),
            ms,
            Message::Cmd(Command::PowerOn),
        );
    }
    net.run_until_quiescent();
    let registered = net
        .node::<Vmsc>(zone.access.msc)
        .unwrap()
        .registered_count();
    assert_eq!(registered, 3, "exactly the pool size registers");
    assert!(net.stats().counter("ggsn.pool_exhausted") >= 2);
    let rejected = mss
        .iter()
        .filter(|&&ms| net.node::<MobileStation>(ms).unwrap().state() == MsState::Off)
        .count();
    assert_eq!(rejected, 2, "the overflow subscribers were rejected");
}

/// A subscriber barred from international calls is stopped by the VLR's
/// authorization (paper step 2.2), and the MS clears back to idle.
#[test]
fn international_call_barred_by_profile() {
    let mut net = Network::new(42);
    let mut zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    // Provision with a domestic-only profile.
    net.node_mut::<vgprs_gsm::Hlr>(zone.access.hlr)
        .unwrap()
        .provision(
            imsi(1),
            0x1,
            vgprs_wire::SubscriberProfile::domestic_only(msisdn(1)),
        );
    let ms = zone
        .access
        .add_roamer(&mut net, "ms1", imsi(1), 0x1);
    zone.packet
        .add_terminal(&mut net, "t1", Msisdn::parse("447220001111").unwrap());
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            // a UK number: international from Taiwan
            called: Msisdn::parse("447220001111").unwrap(),
        }),
    );
    net.run_until_quiescent();
    assert_eq!(net.stats().counter("vlr.outgoing_call_denied"), 1);
    assert_eq!(net.stats().counter("vmsc.mo_calls_denied"), 1);
    assert_eq!(
        net.node::<MobileStation>(ms).unwrap().state(),
        MsState::Idle
    );
    // …and the same subscriber can still call domestically.
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::Dial {
            call: CallId(2),
            called: Msisdn::parse("886220009999").unwrap(),
        }),
    );
    net.run_until_quiescent();
    assert_eq!(net.stats().counter("vlr.outgoing_call_authorized"), 1);
}
