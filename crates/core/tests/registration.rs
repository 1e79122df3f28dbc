//! End-to-end reproduction of the paper's Figure 4: vGPRS registration.

use vgprs_core::{RegPhase, VgprsZone, VgprsZoneConfig, Vmsc};
use vgprs_gsm::{MobileStation, MsState};
use vgprs_h323::Gatekeeper;
use vgprs_sim::{Network, SimDuration};
use vgprs_wire::{Command, Imsi, Message, Msisdn};

fn imsi() -> Imsi {
    Imsi::parse("466920000000001").unwrap()
}

fn msisdn() -> Msisdn {
    Msisdn::parse("886912000001").unwrap()
}

fn registered_zone() -> (Network<Message>, VgprsZone, vgprs_sim::NodeId) {
    let mut net = Network::new(42);
    let zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    let ms = zone
        .access
        .add_subscriber(&mut net, "ms1", imsi(), 0xABCD, msisdn());
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    (net, zone, ms)
}

#[test]
fn figure4_registration_ladder() {
    let (net, _zone, _ms) = registered_zone();
    // The paper's Figure 4, steps 1.1 – 1.6, as a label subsequence:
    assert!(
        net.trace().contains_subsequence(&[
            "Um_Location_Update_Request",  // step 1.1
            "Abis_Location_Update",        //   "
            "A_Location_Update",           //   "
            "MAP_Update_Location_Area",    //   "
            "MAP_Update_Location",         // step 1.2
            "MAP_Insert_Subs_Data",        //   "
            "MAP_Update_Location_Area_ack",//   "
            "GPRS_Attach_Request",         // step 1.3
            "GPRS_Attach_Accept",          //   "
            "Activate_PDP_Context_Request",//   "
            "Activate_PDP_Context_Accept", //   "
            "LLC:RAS_RRQ",                 // step 1.4
            "GTP:RAS_RRQ",                 //   " (tunneled, Fig. 3)
            "RAS_RRQ",                     //   " (on the LAN)
            "RAS_RCF",                     // step 1.5
            "A_Location_Update_Accept",    // step 1.6
            "Um_Location_Update_Accept",   //   "
        ]),
        "registration ladder mismatch; got:\n{}",
        vgprs_sim::LadderDiagram::new(net.trace()).render()
    );
}

#[test]
fn registration_outcome_state() {
    let (net, zone, ms) = registered_zone();
    // MS side: registered, has a TMSI.
    let handset = net.node::<MobileStation>(ms).unwrap();
    assert_eq!(handset.state(), MsState::Idle);
    assert!(handset.tmsi().is_some());
    // VMSC side: MS table entry with both identities and the signaling
    // context's PDP address.
    let vmsc = net.node::<Vmsc>(zone.access.msc).unwrap();
    assert_eq!(vmsc.registered_count(), 1);
    let entry = vmsc.ms_entry(&imsi()).unwrap();
    assert_eq!(entry.phase, RegPhase::Registered);
    assert_eq!(entry.msisdn, Some(msisdn()));
    assert!(entry.signaling_addr.is_some());
    assert!(entry.voice_addr.is_none(), "no call yet");
    // Gatekeeper side: the (IP address, MSISDN) entry of step 1.5.
    let gk = net.node::<Gatekeeper>(zone.packet.gk).unwrap();
    let transport = gk.lookup(&msisdn()).expect("alias registered");
    assert_eq!(Some(transport.ip), entry.signaling_addr);
}

#[test]
fn registration_authenticates_and_ciphers() {
    let (net, _zone, _ms) = registered_zone();
    assert!(net.trace().contains_subsequence(&[
        "Um_Authentication_Request",
        "Um_Authentication_Response",
        "Um_Cipher_Mode_Command",
        "Um_Cipher_Mode_Complete",
    ]));
    assert_eq!(net.stats().counter("vlr.auth_success"), 1);
}

#[test]
fn registration_is_deterministic() {
    let run = |seed| {
        let mut net = Network::new(seed);
        let zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
        let ms = zone
            .access
            .add_subscriber(&mut net, "ms1", imsi(), 0xABCD, msisdn());
        net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
        net.run_until_quiescent();
        (
            net.trace().labels().join(","),
            net.now(),
        )
    };
    assert_eq!(run(7), run(7));
}

#[test]
fn wrong_key_subscriber_rejected() {
    let mut net = Network::new(42);
    let zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    let ms = zone
        .access
        .add_subscriber(&mut net, "ms1", imsi(), 0xABCD, msisdn());
    // Corrupt the SIM key: re-create the MS with a different Ki.
    let impostor = Imsi::parse("466920000000002").unwrap();
    net.node_mut::<vgprs_gsm::Hlr>(zone.access.hlr)
        .unwrap()
        .provision(
            impostor,
            0x1111,
            vgprs_wire::SubscriberProfile::full(Msisdn::parse("886912000002").unwrap()),
        );
    let bad = zone.access.add_roamer(
        &mut net,
        "bad",
        impostor,
        0x2222, // ≠ HLR's 0x1111
        Msisdn::parse("886912000002").unwrap(),
    );
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.inject(SimDuration::ZERO, bad, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    assert_eq!(net.stats().counter("vlr.auth_failures"), 1);
    assert_eq!(
        net.node::<Vmsc>(zone.access.msc)
            .unwrap()
            .registered_count(),
        1,
        "only the genuine subscriber registers"
    );
    assert_eq!(
        net.node::<MobileStation>(bad).unwrap().state(),
        MsState::Off,
        "the impostor's registration was rejected"
    );
}

#[test]
fn unknown_subscriber_rejected() {
    let mut net = Network::new(42);
    let zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    // MS never provisioned in any HLR.
    let ghost = zone.access.add_roamer(
        &mut net,
        "ghost",
        Imsi::parse("466920999999999").unwrap(),
        0xAA,
        Msisdn::parse("886912999999").unwrap(),
    );
    net.inject(SimDuration::ZERO, ghost, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    assert_eq!(
        net.node::<Vmsc>(zone.access.msc)
            .unwrap()
            .registered_count(),
        0
    );
    assert!(net
        .trace()
        .contains_subsequence(&["Um_Location_Update_Reject"]));
}

#[test]
fn many_subscribers_register_concurrently() {
    let mut net = Network::new(42);
    let zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
    let count = 20;
    let mss: Vec<_> = (0..count)
        .map(|i| {
            let imsi = Imsi::parse(&format!("4669200000001{i:02}")).unwrap();
            let msisdn = Msisdn::parse(&format!("8869121000{i:02}")).unwrap();
            zone.access
                .add_subscriber(&mut net, &format!("ms{i}"), imsi, 0x1000 + i, msisdn)
        })
        .collect();
    for (i, ms) in mss.iter().enumerate() {
        net.inject(
            SimDuration::from_millis(i as u64 * 7),
            *ms,
            Message::Cmd(Command::PowerOn),
        );
    }
    net.run_until_quiescent();
    assert_eq!(
        net.node::<Vmsc>(zone.access.msc)
            .unwrap()
            .registered_count(),
        count as usize
    );
    // Every MS got a distinct PDP address.
    let vmsc = net.node::<Vmsc>(zone.access.msc).unwrap();
    let mut addrs: Vec<_> = (0..count)
        .map(|i| {
            let imsi = Imsi::parse(&format!("4669200000001{i:02}")).unwrap();
            vmsc.ms_entry(&imsi).unwrap().signaling_addr.unwrap()
        })
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    assert_eq!(addrs.len(), count as usize);
}
