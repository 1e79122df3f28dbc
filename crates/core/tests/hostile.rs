//! Nothing a peer sends panics the packet core. Every GTP and GMM message,
//! an LLC frame and a T-PDU for an unknown tunnel go to the SGSN or the
//! GGSN of a one-zone world, on the interface each arrives on there: once
//! before the handset registers (no PDP context) and once after (its
//! signaling context active). Each delivery leaves a mark — a counter of
//! the node's, or a message the node sent on.
//!
//! A further node kind joins with a table of the messages it hears; the
//! peer that delivers them is `vgprs_sim::ScriptedPeer`.

use vgprs_core::figures::SingleZone;
use vgprs_core::Vmsc;
use vgprs_gprs::{Ggsn, Sgsn};
use vgprs_sim::{Interface, Network, NodeId, ScriptedPeer, SimDuration, TraceEntry};
use vgprs_wire::{
    Cause, GmmMessage, GtpMessage, IpPacket, IpPayload, Ipv4Addr, Message, Nsapi, QosProfile,
    RasMessage, Teid, Tmsi, TransportAddr,
};

/// The first tunnel endpoint each node allocates: the handset's signaling
/// context once it is registered, nobody's before.
const SGSN_TEID: Teid = Teid(0x5000_0001);
const GGSN_TEID: Teid = Teid(0x6000_0001);

/// The handset's PDP address in the one-zone world (a made-up one in
/// the pool when it has none), checking the contexts it holds.
fn pdp_addr(s: &SingleZone, registered: bool) -> Ipv4Addr {
    let contexts = usize::from(registered);
    let sgsn = s.net.node::<Sgsn>(s.zone.packet.sgsn).unwrap();
    assert_eq!(sgsn.active_pdp_count(), contexts, "contexts at the SGSN");
    let ggsn = s.net.node::<Ggsn>(s.zone.packet.ggsn).unwrap();
    assert_eq!(ggsn.active_pdp_count(), contexts, "contexts at the GGSN");
    let vmsc = s.net.node::<Vmsc>(s.zone.access.msc).unwrap();
    let row = vmsc.ms_entry(&s.ms_imsi);
    let addr = row.and_then(|row| row.signaling_addr.get());
    addr.unwrap_or(Ipv4Addr::from_octets(10, 200, 9, 9))
}

/// An RAS message from the handset's address to a LAN host.
fn packet(s: &SingleZone, addr: Ipv4Addr) -> IpPacket {
    let lan_host = TransportAddr::new(Ipv4Addr::from_octets(10, 1, 0, 9), 1719);
    let rcf = RasMessage::Rcf { alias: s.ms_msisdn };
    IpPacket::new(
        TransportAddr::new(addr, 1719),
        lan_host,
        IpPayload::Ras(rcf),
    )
}

fn tpdu(s: &SingleZone, teid: Teid, addr: Ipv4Addr) -> GtpMessage {
    let inner = Box::new(Message::Ip(packet(s, addr)));
    GtpMessage::TPdu { teid, inner }
}

/// Every GTP message, about the handset's signaling context, for the node
/// whose tunnel endpoint is `teid`.
fn gtp(s: &SingleZone, teid: Teid, addr: Ipv4Addr) -> Vec<GtpMessage> {
    let (imsi, nsapi) = (s.ms_imsi, Nsapi::new(5).unwrap());
    let qos = QosProfile::signaling();
    vec![
        GtpMessage::CreatePdpRequest {
            imsi,
            nsapi,
            qos,
            static_addr: None,
            sgsn_teid: SGSN_TEID,
        },
        GtpMessage::CreatePdpResponse {
            imsi,
            nsapi,
            result: Ok((addr, GGSN_TEID, qos)),
        },
        GtpMessage::UpdatePdpRequest {
            imsi,
            nsapi,
            sgsn_teid: SGSN_TEID,
        },
        GtpMessage::UpdatePdpResponse {
            imsi,
            nsapi,
            rejection: None,
        },
        GtpMessage::DeletePdpRequest { imsi, nsapi },
        GtpMessage::DeletePdpResponse { imsi, nsapi },
        GtpMessage::PduNotificationRequest { imsi, addr },
        GtpMessage::PduNotificationResponse { imsi },
        tpdu(s, teid, addr),
    ]
}

/// Every GMM message, about the handset's signaling context.
fn gmm(s: &SingleZone, addr: Ipv4Addr) -> Vec<GmmMessage> {
    let (imsi, nsapi) = (s.ms_imsi, Nsapi::new(5).unwrap());
    let (qos, cause) = (QosProfile::signaling(), Cause::TemporaryFailure);
    vec![
        GmmMessage::AttachRequest { imsi },
        GmmMessage::AttachAccept {
            imsi,
            ptmsi: Tmsi(1),
        },
        GmmMessage::AttachReject { imsi, cause },
        GmmMessage::DetachRequest { imsi },
        GmmMessage::DetachAccept { imsi },
        GmmMessage::ActivatePdpContextRequest {
            imsi,
            nsapi,
            qos,
            static_addr: None,
        },
        GmmMessage::ActivatePdpContextAccept {
            imsi,
            nsapi,
            addr,
            qos,
        },
        GmmMessage::ActivatePdpContextReject { imsi, nsapi, cause },
        GmmMessage::RequestPdpContextActivation { imsi, nsapi, addr },
        GmmMessage::DeactivatePdpContextRequest { imsi, nsapi },
        GmmMessage::DeactivatePdpContextAccept { imsi, nsapi },
    ]
}

/// The variant's place in `GtpMessage`. No arm is a wildcard, so a new
/// variant does not compile until it has a place, and the table check
/// below then wants it in [`gtp`].
fn gtp_variant(m: &GtpMessage) -> usize {
    match m {
        GtpMessage::CreatePdpRequest { .. } => 0,
        GtpMessage::CreatePdpResponse { .. } => 1,
        GtpMessage::UpdatePdpRequest { .. } => 2,
        GtpMessage::UpdatePdpResponse { .. } => 3,
        GtpMessage::DeletePdpRequest { .. } => 4,
        GtpMessage::DeletePdpResponse { .. } => 5,
        GtpMessage::PduNotificationRequest { .. } => 6,
        GtpMessage::PduNotificationResponse { .. } => 7,
        GtpMessage::TPdu { .. } => 8,
    }
}

/// As [`gtp_variant`], for `GmmMessage` and [`gmm`].
fn gmm_variant(m: &GmmMessage) -> usize {
    match m {
        GmmMessage::AttachRequest { .. } => 0,
        GmmMessage::AttachAccept { .. } => 1,
        GmmMessage::AttachReject { .. } => 2,
        GmmMessage::DetachRequest { .. } => 3,
        GmmMessage::DetachAccept { .. } => 4,
        GmmMessage::ActivatePdpContextRequest { .. } => 5,
        GmmMessage::ActivatePdpContextAccept { .. } => 6,
        GmmMessage::ActivatePdpContextReject { .. } => 7,
        GmmMessage::RequestPdpContextActivation { .. } => 8,
        GmmMessage::DeactivatePdpContextRequest { .. } => 9,
        GmmMessage::DeactivatePdpContextAccept { .. } => 10,
    }
}

#[test]
fn the_tables_hold_every_variant_once() {
    let (s, addr) = (SingleZone::new(42), Ipv4Addr::from_octets(10, 200, 9, 9));
    let gtp: Vec<usize> = gtp(&s, SGSN_TEID, addr).iter().map(gtp_variant).collect();
    assert_eq!(gtp, (0..9).collect::<Vec<_>>());
    let gmm: Vec<usize> = gmm(&s, addr).iter().map(gmm_variant).collect();
    assert_eq!(gmm, (0..11).collect::<Vec<_>>());
}

/// Every case: the node it goes to, the interface it arrives on there,
/// and the message.
fn cases(s: &SingleZone, addr: Ipv4Addr) -> Vec<(NodeId, Interface, Message)> {
    let (sgsn, ggsn) = (s.zone.packet.sgsn, s.zone.packet.ggsn);
    let mut cases = Vec::new();
    for (node, teid) in [(sgsn, SGSN_TEID), (ggsn, GGSN_TEID)] {
        let unknown = tpdu(s, Teid(0x0BAD_0001), addr);
        for m in gtp(s, teid, addr).into_iter().chain([unknown]) {
            cases.push((node, Interface::Gn, Message::Gtp(m)));
        }
    }
    for m in gmm(s, addr) {
        cases.push((sgsn, Interface::Gb, Message::Gmm(m)));
    }
    let llc = Message::Llc {
        imsi: s.ms_imsi,
        nsapi: Nsapi::new(5).unwrap(),
        inner: Box::new(packet(s, addr)),
    };
    cases.push((sgsn, Interface::Gb, llc));
    cases
}

/// The deliveries that leave no mark, exactly, in case order. A delete or
/// notification response closes a dialogue, or finds none to close: it
/// has nothing to answer and nothing to count. (A create response, a
/// detach and a deactivation about a subscriber the SGSN holds no MM
/// context for count `sgsn.no_mm_context`.)
const SILENT: [&str; 4] = [
    "GTP_Delete_PDP_Context_Response to sgsn with no context",
    "GTP_PDU_Notification_Response to ggsn with no context",
    "GTP_Delete_PDP_Context_Response to sgsn with one context",
    "GTP_PDU_Notification_Response to ggsn with one context",
];

#[test]
fn every_packet_core_message_with_and_without_a_context_leaves_a_mark() {
    let mut silent = Vec::new();
    for (registered, state) in [(false, "no context"), (true, "one context")] {
        let world: fn(u64) -> SingleZone = if registered {
            SingleZone::build
        } else {
            SingleZone::new
        };
        let s = world(42);
        let count = cases(&s, pdp_addr(&s, registered)).len();
        for index in 0..count {
            let s = world(42);
            let (node, iface, msg) = cases(&s, pdp_addr(&s, registered)).swap_remove(index);
            let mut net = s.net;
            let kind = if node == s.zone.packet.sgsn {
                "sgsn"
            } else {
                "ggsn"
            };
            let what = format!("{} to {kind} with {state}", msg.label_str());
            let counted = |net: &Network<Message>| -> u64 {
                let prefix = format!("{kind}.");
                let own = net
                    .stats()
                    .counters()
                    .filter(|(n, _)| n.starts_with(&prefix));
                own.map(|(_, v)| v).sum()
            };
            let before = counted(&net);
            net.trace_mut().clear();
            let feeder = net.add_node("feeder", ScriptedPeer::sending(node, [msg]));
            net.connect(feeder, node, iface, SimDuration::from_micros(1));
            assert!(net.run_until_quiescent().quiescent, "{what} never settles");
            let sent_by = |sender: NodeId| {
                let trace = net.trace().entries().iter();
                trace
                    .filter(|e| matches!(e, TraceEntry::Message { from, .. } if *from == sender))
                    .count()
            };
            assert_eq!(sent_by(feeder), 1, "the node never heard {what}");
            if counted(&net) == before && sent_by(node) == 0 {
                silent.push(what);
            }
        }
    }
    assert_eq!(silent, SILENT, "the deliveries that leave no mark");
}
