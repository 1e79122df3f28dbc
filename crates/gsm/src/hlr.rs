//! Home Location Register (with embedded Authentication Centre).
//!
//! The HLR is the home network's subscriber database: profiles, current
//! serving VLR/SGSN, authentication vectors, and the routing-information
//! query used for call delivery (which is where the tromboning of the
//! paper's Figure 7 originates — the HLR lives in the *home* country).

use vgprs_sim::{Context, IdMap, Interface, Node, NodeId, NumberBlock};
use vgprs_wire::{
    AuthTriplet, Cause, Imsi, MapMessage, Message, Msisdn, PointCode, SubscriberProfile,
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
    records: NumberBlock<Imsi, HlrRecord>,
    msisdn_index: NumberBlock<Msisdn, Imsi>,
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

    /// Declares the home population's number series: the subscribers
    /// with IMSIs `imsi..` and MSISDNs `msisdn..`, `count` of each, get a
    /// dense row each instead of a hashed one. Declare before the first
    /// [`provision`](Hlr::provision).
    pub fn declare_block(&mut self, imsi: Imsi, msisdn: Msisdn, count: usize) {
        self.auc.declare_block(imsi, count);
        self.records.declare(imsi, count);
        self.msisdn_index.declare(msisdn, count);
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

    /// Three authentication vectors for `imsi`, as real HLRs batch
    /// them: one RAND each from the network's random stream (none for
    /// an unknown subscriber).
    fn vectors(&self, ctx: &mut Context<'_, Message>, imsi: &Imsi) -> Vec<AuthTriplet> {
        (0..3)
            .filter_map(|_| {
                let rand = ctx.rng().next_u64();
                self.auc.generate(imsi, rand)
            })
            .collect()
    }

    /// Writes what a first registration of `imsi` through the VLR `vlr`
    /// (Figure 4, steps 1.1–1.2) leaves here, and returns what the HLR
    /// handed that VLR: the profile and the three vectors, drawn from
    /// the network's stream exactly as the ladder draws them. `None` for
    /// a subscriber this HLR does not hold.
    ///
    /// # Panics
    ///
    /// Panics if the subscriber is already registered somewhere: the
    /// ladder would then have cancelled the old location.
    pub fn provision_location(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        vlr: (NodeId, PointCode),
    ) -> Option<(SubscriberProfile, Vec<AuthTriplet>)> {
        let triplets = self.vectors(ctx, &imsi);
        let rec = self.records.get_mut(&imsi)?;
        assert!(rec.vlr.replace(vlr).is_none(), "{imsi} is already located");
        ctx.count("hlr.locations_updated");
        Some((rec.profile, triplets))
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
                let triplets = self.vectors(ctx, &imsi);
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
    use vgprs_sim::{Network, ScriptedPeer, SimDuration};

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

    /// A peer that sends `msg` to the HLR at start and records every reply.
    fn asking(hlr: NodeId, msg: MapMessage) -> ScriptedPeer<Message> {
        ScriptedPeer::sending(hlr, [Message::Map(msg)])
    }

    /// As [`asking`], and a VLR besides: it acks the profile download and
    /// answers a roaming-number request.
    fn vlr_asking(hlr: NodeId, msg: MapMessage) -> ScriptedPeer<Message> {
        asking(hlr, msg).answering(|m| match m {
            Message::Map(MapMessage::InsertSubsData { imsi, .. }) => {
                vec![Message::Map(MapMessage::InsertSubsDataAck { imsi: *imsi })]
            }
            Message::Map(MapMessage::ProvideRoamingNumber { imsi }) => {
                vec![Message::Map(MapMessage::ProvideRoamingNumberAck {
                    imsi: *imsi,
                    msrn: Msisdn::parse("8869990001").unwrap(),
                })]
            }
            _ => vec![],
        })
    }

    fn update_location(vlr: u16) -> MapMessage {
        MapMessage::UpdateLocation {
            imsi: imsi(),
            vlr: PointCode(vlr),
        }
    }

    /// Adds `peer` as `name` over `iface` and runs until quiet.
    fn run_with(
        net: &mut Network<Message>,
        hlr: NodeId,
        name: &str,
        iface: Interface,
        peer: ScriptedPeer<Message>,
    ) -> NodeId {
        let id = net.add_node(name, peer);
        net.connect(id, hlr, iface, SimDuration::from_millis(1));
        net.run_until_quiescent();
        id
    }

    fn first(net: &Network<Message>, peer: NodeId) -> &Message {
        ScriptedPeer::of(net, peer).received()[0]
    }

    #[test]
    fn sai_returns_three_verifiable_triplets() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", provisioned());
        let sai = MapMessage::SendAuthenticationInfo { imsi: imsi() };
        let vlr = run_with(&mut net, hlr, "vlr", Interface::D, asking(hlr, sai));
        match ScriptedPeer::of(&net, vlr).received()[..] {
            [Message::Map(MapMessage::SendAuthenticationInfoAck { triplets, .. })] => {
                assert_eq!(triplets.len(), 3);
                for t in triplets {
                    assert_eq!(t.sres, a3_sres(0xABC, t.rand), "SIM-side check passes");
                }
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sai_unknown_subscriber_returns_empty() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", Hlr::new());
        let sai = MapMessage::SendAuthenticationInfo { imsi: imsi() };
        let vlr = run_with(&mut net, hlr, "vlr", Interface::D, asking(hlr, sai));
        match first(&net, vlr) {
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
        let d = vlr_asking(hlr, update_location(10));
        let vlr = run_with(&mut net, hlr, "vlr", Interface::D, d);
        assert_eq!(
            ScriptedPeer::of(&net, vlr).labels(),
            ["MAP_Insert_Subs_Data", "MAP_Update_Location_ack"]
        );
        assert_eq!(net.node::<Hlr>(hlr).unwrap().serving_vlr(&imsi()), Some(vlr));
        assert_eq!(net.stats().counter("hlr.locations_updated"), 1);
    }

    #[test]
    fn moving_vlr_cancels_old_location() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", provisioned());
        let d1 = vlr_asking(hlr, update_location(10));
        let vlr1 = run_with(&mut net, hlr, "vlr1", Interface::D, d1);
        let d2 = vlr_asking(hlr, update_location(20));
        let vlr2 = run_with(&mut net, hlr, "vlr2", Interface::D, d2);
        assert!(ScriptedPeer::of(&net, vlr1)
            .labels()
            .contains(&"MAP_Cancel_Location".to_owned()));
        assert_eq!(net.node::<Hlr>(hlr).unwrap().serving_vlr(&imsi()), Some(vlr2));
    }

    #[test]
    fn unknown_subscriber_update_location_rejected() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", Hlr::new());
        let d = asking(hlr, update_location(10));
        let vlr = run_with(&mut net, hlr, "vlr", Interface::D, d);
        assert_eq!(
            ScriptedPeer::of(&net, vlr).labels(),
            ["MAP_Update_Location_reject"]
        );
    }

    fn sri() -> MapMessage {
        MapMessage::SendRoutingInformation { msisdn: msisdn() }
    }

    #[test]
    fn sri_resolves_msrn_through_serving_vlr() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", provisioned());
        let v = vlr_asking(hlr, update_location(10));
        run_with(&mut net, hlr, "vlr", Interface::D, v);
        let gmsc = run_with(&mut net, hlr, "gmsc", Interface::C, asking(hlr, sri()));
        match first(&net, gmsc) {
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
        let gmsc = run_with(&mut net, hlr, "gmsc", Interface::C, asking(hlr, sri()));
        match first(&net, gmsc) {
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
        let gmsc = run_with(&mut net, hlr, "gmsc", Interface::C, asking(hlr, sri()));
        match first(&net, gmsc) {
            Message::Map(MapMessage::SendRoutingInformationAck {
                msrn: Err(Cause::SubscriberAbsent),
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    fn update_gprs_location() -> MapMessage {
        MapMessage::UpdateGprsLocation {
            imsi: imsi(),
            sgsn: PointCode(77),
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
        let d = asking(hlr_node, update_gprs_location());
        let sgsn = run_with(&mut net, hlr_node, "sgsn", Interface::Gr, d);
        match first(&net, sgsn) {
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
        let d = asking(hlr, update_gprs_location());
        let sgsn = run_with(&mut net, hlr, "sgsn", Interface::Gr, d);
        assert_eq!(net.node::<Hlr>(hlr).unwrap().serving_sgsn(&imsi()), Some(sgsn));
    }

    #[test]
    fn internal_cancel_location_transfers_ownership() {
        let mut net = Network::new(9);
        let hlr = net.add_node("hlr", provisioned());
        let d = vlr_asking(hlr, update_location(10));
        let vlr = run_with(&mut net, hlr, "vlr", Interface::D, d);
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
        assert!(ScriptedPeer::of(&net, vlr)
            .labels()
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
