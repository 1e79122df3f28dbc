//! Home Location Register (with embedded Authentication Centre).
//!
//! The HLR is the home network's subscriber database: profiles, current
//! serving VLR/SGSN, authentication vectors, and the routing-information
//! query used for call delivery (which is where the tromboning of the
//! paper's Figure 7 originates — the HLR lives in the *home* country).

use vgprs_sim::{Context, IdMap, Interface, Node, NodeId};
use vgprs_wire::{
    Cause, Imsi, MapMessage, Message, Msisdn, PointCode, SubscriberProfile,
};

use crate::auth::{AuthCenter, Ki};

#[derive(Debug)]
struct HlrRecord {
    profile: SubscriberProfile,
    /// Serving VLR (node + address), if registered anywhere.
    vlr: Option<(NodeId, PointCode)>,
    /// Serving SGSN, if GPRS-attached.
    sgsn: Option<NodeId>,
}

/// The HLR node.
#[derive(Debug, Default)]
pub struct Hlr {
    auc: AuthCenter,
    records: IdMap<Imsi, HlrRecord>,
    msisdn_index: IdMap<Msisdn, Imsi>,
    /// VLRs waiting for `UpdateLocationAck` (sent once ISD is confirmed).
    pending_update: IdMap<Imsi, NodeId>,
    /// GMSCs waiting for a roaming number, per subscriber.
    pending_sri: IdMap<Imsi, Vec<(NodeId, Msisdn)>>,
}

impl Hlr {
    /// Creates an empty HLR.
    pub fn new() -> Self {
        Hlr::default()
    }

    /// Provisions a subscriber: SIM key + service profile.
    pub fn provision(&mut self, imsi: Imsi, ki: Ki, profile: SubscriberProfile) {
        self.auc.provision(imsi, ki);
        self.msisdn_index.insert(profile.msisdn, imsi);
        self.records.insert(
            imsi,
            HlrRecord {
                profile,
                vlr: None,
                sgsn: None,
            },
        );
    }

    /// The node currently serving a subscriber's circuit traffic, if any.
    pub fn serving_vlr(&self, imsi: &Imsi) -> Option<NodeId> {
        self.records.get(imsi).and_then(|r| r.vlr.map(|(n, _)| n))
    }

    /// The SGSN currently serving a subscriber, if GPRS-attached.
    pub fn serving_sgsn(&self, imsi: &Imsi) -> Option<NodeId> {
        self.records.get(imsi).and_then(|r| r.sgsn)
    }

    /// Hands subscriber ownership to another HLR: drops the local record
    /// and cancels any serving VLR so stale registrations can't answer
    /// routing queries here. Driven administratively (an `Internal`
    /// `MAP_Cancel_Location`) by the sharded-HLR directory when a
    /// subscriber's home shard changes; the receiving HLR re-provisions
    /// the subscriber from the shared population plan.
    fn transfer_out(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi) {
        let Some(rec) = self.records.remove(&imsi) else {
            ctx.count("hlr.transfer_unknown_subscriber");
            return;
        };
        self.msisdn_index.remove(&rec.profile.msisdn);
        self.pending_update.remove(&imsi);
        self.pending_sri.remove(&imsi);
        if let Some((vlr_node, _)) = rec.vlr {
            ctx.count("hlr.cancel_location_sent");
            ctx.send(vlr_node, Message::Map(MapMessage::CancelLocation { imsi }));
        }
        ctx.count("hlr.ownership_transferred");
    }

    fn handle_map(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: MapMessage) {
        match msg {
            MapMessage::SendAuthenticationInfo { imsi } => {
                // Three vectors per request, as real HLRs batch them.
                let triplets: Vec<_> = (0..3)
                    .filter_map(|_| {
                        let rand = ctx.rng().next_u64();
                        self.auc.generate(&imsi, rand)
                    })
                    .collect();
                if triplets.is_empty() {
                    ctx.count("hlr.sai_unknown_subscriber");
                }
                ctx.send(
                    from,
                    Message::Map(MapMessage::SendAuthenticationInfoAck { imsi, triplets }),
                );
            }

            MapMessage::UpdateLocation { imsi, vlr } => {
                let Some(rec) = self.records.get_mut(&imsi) else {
                    ctx.send(
                        from,
                        Message::Map(MapMessage::UpdateLocationReject {
                            imsi,
                            cause: Cause::SubscriberAbsent,
                        }),
                    );
                    return;
                };
                let previous = rec.vlr.replace((from, vlr));
                let profile = rec.profile;
                if let Some((old_node, _)) = previous {
                    if old_node != from {
                        ctx.count("hlr.cancel_location_sent");
                        ctx.send(old_node, Message::Map(MapMessage::CancelLocation { imsi }));
                    }
                }
                self.pending_update.insert(imsi, from);
                ctx.send(
                    from,
                    Message::Map(MapMessage::InsertSubsData { imsi, profile }),
                );
            }

            MapMessage::InsertSubsDataAck { imsi } => {
                if let Some(vlr) = self.pending_update.remove(&imsi) {
                    ctx.count("hlr.locations_updated");
                    ctx.send(vlr, Message::Map(MapMessage::UpdateLocationAck { imsi }));
                }
            }

            MapMessage::CancelLocationAck { .. } => {}

            MapMessage::SendRoutingInformation { msisdn } => {
                let Some(&imsi) = self.msisdn_index.get(&msisdn) else {
                    ctx.send(
                        from,
                        Message::Map(MapMessage::SendRoutingInformationAck {
                            msisdn,
                            msrn: Err(Cause::UnallocatedNumber),
                        }),
                    );
                    return;
                };
                let Some((vlr_node, _)) = self.records.get(&imsi).and_then(|r| r.vlr) else {
                    ctx.count("hlr.sri_subscriber_absent");
                    ctx.send(
                        from,
                        Message::Map(MapMessage::SendRoutingInformationAck {
                            msisdn,
                            msrn: Err(Cause::SubscriberAbsent),
                        }),
                    );
                    return;
                };
                ctx.count("hlr.sri_queries");
                self.pending_sri
                    .entry(imsi)
                    .or_default()
                    .push((from, msisdn));
                ctx.send(
                    vlr_node,
                    Message::Map(MapMessage::ProvideRoamingNumber { imsi }),
                );
            }

            MapMessage::ProvideRoamingNumberAck { imsi, msrn } => {
                if let Some(mut waiters) = self.pending_sri.remove(&imsi) {
                    if let Some((requester, msisdn)) = waiters.pop() {
                        ctx.send(
                            requester,
                            Message::Map(MapMessage::SendRoutingInformationAck {
                                msisdn,
                                msrn: Ok(msrn),
                            }),
                        );
                    }
                    if !waiters.is_empty() {
                        self.pending_sri.insert(imsi, waiters);
                    }
                }
            }

            MapMessage::UpdateGprsLocation { imsi, .. } => {
                let rejection = match self.records.get_mut(&imsi) {
                    Some(rec) if rec.profile.gprs_allowed => {
                        rec.sgsn = Some(from);
                        None
                    }
                    Some(_) => Some(Cause::ServiceNotAllowed),
                    None => Some(Cause::SubscriberAbsent),
                };
                if rejection.is_none() {
                    ctx.count("hlr.gprs_locations_updated");
                }
                ctx.send(
                    from,
                    Message::Map(MapMessage::UpdateGprsLocationAck { imsi, rejection }),
                );
            }

            _ => ctx.count("hlr.unhandled_map"),
        }
    }
}

impl Node<Message> for Hlr {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match msg {
            Message::Map(map)
                if matches!(iface, Interface::C | Interface::D | Interface::Gr) =>
            {
                self.handle_map(ctx, from, map)
            }
            // Administrative ownership transfer from the shard driver
            // (never from a peer: `Internal` only arrives via `inject`).
            Message::Map(MapMessage::CancelLocation { imsi })
                if iface == Interface::Internal =>
            {
                self.transfer_out(ctx, imsi)
            }
            _ => ctx.count("hlr.unexpected_message"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgprs_sim::{Network, SimDuration};

    fn imsi() -> Imsi {
        Imsi::parse("466920123456789").unwrap()
    }

    fn msisdn() -> Msisdn {
        Msisdn::parse("88691234567").unwrap()
    }

    fn provisioned() -> Hlr {
        let mut hlr = Hlr::new();
        hlr.provision(imsi(), 0xABC, SubscriberProfile::full(msisdn()));
        hlr
    }

    /// Sends one message at start and records every reply.
    struct Driver {
        hlr: NodeId,
        send: Vec<Message>,
        got: Vec<Message>,
        ack_isd: bool,
        answer_prn: bool,
    }
    impl Driver {
        fn new(hlr: NodeId, send: Vec<Message>) -> Self {
            Driver {
                hlr,
                send,
                got: Vec::new(),
                ack_isd: false,
                answer_prn: false,
            }
        }
    }
    impl Node<Message> for Driver {
        fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
            for m in self.send.drain(..) {
                ctx.send(self.hlr, m);
            }
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Message>,
            _f: NodeId,
            _i: Interface,
            m: Message,
        ) {
            match &m {
                Message::Map(MapMessage::InsertSubsData { imsi, .. }) if self.ack_isd => {
                    let imsi = *imsi;
                    ctx.send(self.hlr, Message::Map(MapMessage::InsertSubsDataAck { imsi }));
                }
                Message::Map(MapMessage::ProvideRoamingNumber { imsi }) if self.answer_prn => {
                    let imsi = *imsi;
                    ctx.send(
                        self.hlr,
                        Message::Map(MapMessage::ProvideRoamingNumberAck {
                            imsi,
                            msrn: Msisdn::parse("8869990001").unwrap(),
                        }),
                    );
                }
                _ => {}
            }
            self.got.push(m);
        }
    }

    fn labels(msgs: &[Message]) -> Vec<String> {
        msgs.iter().map(|m| m.label_str()).collect()
    }

    #[test]
    fn sai_returns_three_verifiable_triplets() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", provisioned());
        let vlr = net.add_node(
            "vlr",
            Driver::new(
                hlr,
                vec![Message::Map(MapMessage::SendAuthenticationInfo { imsi: imsi() })],
            ),
        );
        net.connect(vlr, hlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        let got = &net.node::<Driver>(vlr).unwrap().got;
        assert_eq!(got.len(), 1);
        match &got[0] {
            Message::Map(MapMessage::SendAuthenticationInfoAck { triplets, .. }) => {
                assert_eq!(triplets.len(), 3);
                for t in triplets {
                    assert_eq!(t.sres, a3_sres(0xABC, t.rand), "SIM-side check passes");
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sai_unknown_subscriber_returns_empty() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", Hlr::new());
        let vlr = net.add_node(
            "vlr",
            Driver::new(
                hlr,
                vec![Message::Map(MapMessage::SendAuthenticationInfo { imsi: imsi() })],
            ),
        );
        net.connect(vlr, hlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        match &net.node::<Driver>(vlr).unwrap().got[0] {
            Message::Map(MapMessage::SendAuthenticationInfoAck { triplets, .. }) => {
                assert!(triplets.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(net.stats().counter("hlr.sai_unknown_subscriber"), 1);
    }

    #[test]
    fn update_location_downloads_profile_then_acks() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", provisioned());
        let mut d = Driver::new(
            hlr,
            vec![Message::Map(MapMessage::UpdateLocation {
                imsi: imsi(),
                vlr: PointCode(10),
            })],
        );
        d.ack_isd = true;
        let vlr = net.add_node("vlr", d);
        net.connect(vlr, hlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        assert_eq!(
            labels(&net.node::<Driver>(vlr).unwrap().got),
            vec!["MAP_Insert_Subs_Data", "MAP_Update_Location_ack"]
        );
        assert_eq!(net.node::<Hlr>(hlr).unwrap().serving_vlr(&imsi()), Some(vlr));
        assert_eq!(net.stats().counter("hlr.locations_updated"), 1);
    }

    #[test]
    fn moving_vlr_cancels_old_location() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", provisioned());
        let mut d1 = Driver::new(
            hlr,
            vec![Message::Map(MapMessage::UpdateLocation {
                imsi: imsi(),
                vlr: PointCode(10),
            })],
        );
        d1.ack_isd = true;
        let vlr1 = net.add_node("vlr1", d1);
        net.connect(vlr1, hlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        let mut d2 = Driver::new(
            hlr,
            vec![Message::Map(MapMessage::UpdateLocation {
                imsi: imsi(),
                vlr: PointCode(20),
            })],
        );
        d2.ack_isd = true;
        let vlr2 = net.add_node("vlr2", d2);
        net.connect(vlr2, hlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        assert!(labels(&net.node::<Driver>(vlr1).unwrap().got)
            .contains(&"MAP_Cancel_Location".to_owned()));
        assert_eq!(net.node::<Hlr>(hlr).unwrap().serving_vlr(&imsi()), Some(vlr2));
    }

    #[test]
    fn unknown_subscriber_update_location_rejected() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", Hlr::new());
        let vlr = net.add_node(
            "vlr",
            Driver::new(
                hlr,
                vec![Message::Map(MapMessage::UpdateLocation {
                    imsi: imsi(),
                    vlr: PointCode(10),
                })],
            ),
        );
        net.connect(vlr, hlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        assert_eq!(
            labels(&net.node::<Driver>(vlr).unwrap().got),
            vec!["MAP_Update_Location_reject"]
        );
    }

    #[test]
    fn sri_resolves_msrn_through_serving_vlr() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", provisioned());
        let mut v = Driver::new(
            hlr,
            vec![Message::Map(MapMessage::UpdateLocation {
                imsi: imsi(),
                vlr: PointCode(10),
            })],
        );
        v.ack_isd = true;
        v.answer_prn = true;
        let vlr = net.add_node("vlr", v);
        net.connect(vlr, hlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        let gmsc = net.add_node(
            "gmsc",
            Driver::new(
                hlr,
                vec![Message::Map(MapMessage::SendRoutingInformation {
                    msisdn: msisdn(),
                })],
            ),
        );
        net.connect(gmsc, hlr, Interface::C, SimDuration::from_millis(1));
        net.run_until_quiescent();
        match &net.node::<Driver>(gmsc).unwrap().got[0] {
            Message::Map(MapMessage::SendRoutingInformationAck { msrn: Ok(m), .. }) => {
                assert_eq!(m.digits(), "8869990001");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(net.stats().counter("hlr.sri_queries"), 1);
    }

    #[test]
    fn sri_unknown_number_fails_fast() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", Hlr::new());
        let gmsc = net.add_node(
            "gmsc",
            Driver::new(
                hlr,
                vec![Message::Map(MapMessage::SendRoutingInformation {
                    msisdn: msisdn(),
                })],
            ),
        );
        net.connect(gmsc, hlr, Interface::C, SimDuration::from_millis(1));
        net.run_until_quiescent();
        match &net.node::<Driver>(gmsc).unwrap().got[0] {
            Message::Map(MapMessage::SendRoutingInformationAck {
                msrn: Err(Cause::UnallocatedNumber),
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sri_for_unregistered_subscriber_is_absent() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", provisioned());
        let gmsc = net.add_node(
            "gmsc",
            Driver::new(
                hlr,
                vec![Message::Map(MapMessage::SendRoutingInformation {
                    msisdn: msisdn(),
                })],
            ),
        );
        net.connect(gmsc, hlr, Interface::C, SimDuration::from_millis(1));
        net.run_until_quiescent();
        match &net.node::<Driver>(gmsc).unwrap().got[0] {
            Message::Map(MapMessage::SendRoutingInformationAck {
                msrn: Err(Cause::SubscriberAbsent),
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gprs_location_respects_profile_flag() {
        let mut net = Network::new(9);
        let mut hlr = Hlr::new();
        let mut profile = SubscriberProfile::full(msisdn());
        profile.gprs_allowed = false;
        hlr.provision(imsi(), 0xABC, profile);
        let hlr_node = net.add_node("hlr", hlr);
        let sgsn = net.add_node(
            "sgsn",
            Driver::new(
                hlr_node,
                vec![Message::Map(MapMessage::UpdateGprsLocation {
                    imsi: imsi(),
                    sgsn: PointCode(77),
                })],
            ),
        );
        net.connect(sgsn, hlr_node, Interface::Gr, SimDuration::from_millis(1));
        net.run_until_quiescent();
        match &net.node::<Driver>(sgsn).unwrap().got[0] {
            Message::Map(MapMessage::UpdateGprsLocationAck {
                rejection: Some(Cause::ServiceNotAllowed),
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(net.node::<Hlr>(hlr_node).unwrap().serving_sgsn(&imsi()).is_none());
    }

    #[test]
    fn gprs_location_accepted_when_allowed() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", provisioned());
        let sgsn = net.add_node(
            "sgsn",
            Driver::new(
                hlr,
                vec![Message::Map(MapMessage::UpdateGprsLocation {
                    imsi: imsi(),
                    sgsn: PointCode(77),
                })],
            ),
        );
        net.connect(sgsn, hlr, Interface::Gr, SimDuration::from_millis(1));
        net.run_until_quiescent();
        assert_eq!(net.node::<Hlr>(hlr).unwrap().serving_sgsn(&imsi()), Some(sgsn));
    }

    #[test]
    fn internal_cancel_location_transfers_ownership() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", provisioned());
        let mut d = Driver::new(
            hlr,
            vec![Message::Map(MapMessage::UpdateLocation {
                imsi: imsi(),
                vlr: PointCode(10),
            })],
        );
        d.ack_isd = true;
        let vlr = net.add_node("vlr", d);
        net.connect(vlr, hlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        assert_eq!(net.node::<Hlr>(hlr).unwrap().serving_vlr(&imsi()), Some(vlr));

        // Administrative transfer: record leaves, the serving VLR is told.
        net.inject(
            SimDuration::ZERO,
            hlr,
            Message::Map(MapMessage::CancelLocation { imsi: imsi() }),
        );
        net.run_until_quiescent();
        assert!(net.node::<Hlr>(hlr).unwrap().records.is_empty());
        assert!(net.node::<Hlr>(hlr).unwrap().serving_vlr(&imsi()).is_none());
        assert!(labels(&net.node::<Driver>(vlr).unwrap().got)
            .contains(&"MAP_Cancel_Location".to_string()));
        assert_eq!(net.stats().counter("hlr.ownership_transferred"), 1);

        // A second transfer for the same subscriber is a no-op.
        net.inject(
            SimDuration::ZERO,
            hlr,
            Message::Map(MapMessage::CancelLocation { imsi: imsi() }),
        );
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("hlr.transfer_unknown_subscriber"), 1);
        assert_eq!(net.stats().counter("hlr.ownership_transferred"), 1);
    }

    use crate::auth::a3_sres;
}
