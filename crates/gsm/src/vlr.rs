//! Visitor Location Register.
//!
//! The VLR owns the visited-network view of each roaming or home
//! subscriber: TMSI allocation, cached authentication triplets, the
//! profile copy downloaded from the HLR, outgoing-call authorization
//! (paper step 2.2) and roaming-number allocation for call delivery.

use vgprs_sim::{Context, IdMap, Interface, Node, NodeId};
use vgprs_wire::{
    AuthTriplet, Cause, ConnRef, Imsi, Lai, MapMessage, Message, MsIdentity, Msisdn, PointCode,
    SubscriberProfile, Tmsi,
};

/// Configuration for a [`Vlr`].
#[derive(Clone, Debug)]
pub struct VlrConfig {
    /// This VLR's SS7 address.
    pub point_code: PointCode,
    /// Digit prefix of the roaming numbers this VLR mints; the PSTN must
    /// route this prefix to the co-located MSC.
    pub msrn_prefix: String,
    /// Authenticate + re-cipher on every access (call setup), not only at
    /// registration. Matches the paper's step 2.1/4.5 boxes.
    pub auth_on_access: bool,
}

#[derive(Debug, Default)]
struct VlrRecord {
    lai: Option<Lai>,
    tmsi: Option<Tmsi>,
    profile: Option<SubscriberProfile>,
    triplets: Vec<AuthTriplet>,
    /// The triplet currently being verified.
    current: Option<AuthTriplet>,
}

/// What a pending dialogue is for.
#[derive(Debug)]
enum Pending {
    Register { conn: ConnRef, lai: Lai, phase: Phase },
    Access { conn: ConnRef, phase: Phase },
}

/// What answer the dialogue is currently waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Triplets,
    Auth,
    Hlr,
    Cipher,
}

/// The VLR node.
#[derive(Debug)]
pub struct Vlr {
    config: VlrConfig,
    hlr: NodeId,
    /// SS7 global-title style routing: IMSI prefix → that home network's
    /// HLR. Roamers' MAP dialogues go to their own country's HLR.
    hlr_routes: Vec<(String, NodeId)>,
    msc: NodeId,
    records: IdMap<Imsi, VlrRecord>,
    tmsi_index: IdMap<Tmsi, Imsi>,
    msrn_index: IdMap<Msisdn, Imsi>,
    pending: IdMap<Imsi, Pending>,
    next_tmsi: u32,
    next_msrn: u32,
}

impl Vlr {
    /// Creates a VLR serving `msc`, backed by `hlr`.
    pub fn new(config: VlrConfig, msc: NodeId, hlr: NodeId) -> Self {
        Vlr {
            config,
            hlr,
            hlr_routes: Vec::new(),
            msc,
            records: IdMap::default(),
            tmsi_index: IdMap::default(),
            msrn_index: IdMap::default(),
            pending: IdMap::default(),
            next_tmsi: 0,
            next_msrn: 0,
        }
    }

    /// Re-targets the VLR at a different MSC (used by network builders
    /// that must create the VLR before its MSC exists).
    pub fn set_msc(&mut self, msc: NodeId) {
        self.msc = msc;
    }

    /// Routes subscribers whose IMSI starts with `prefix` (MCC+MNC) to a
    /// foreign HLR — how roamers reach their home network.
    pub fn add_hlr_route(&mut self, prefix: impl Into<String>, hlr: NodeId) {
        self.hlr_routes.push((prefix.into(), hlr));
    }

    /// The HLR responsible for `imsi`.
    fn hlr_for(&self, imsi: &Imsi) -> NodeId {
        self.hlr_routes
            .iter()
            .filter(|(p, _)| imsi.has_prefix(p))
            .max_by_key(|(p, _)| p.len())
            .map(|(_, n)| *n)
            .unwrap_or(self.hlr)
    }

    /// Number of subscribers currently registered here.
    pub fn visitor_count(&self) -> usize {
        self.records.len()
    }

    /// The profile cached for a subscriber, if registered.
    pub fn profile(&self, imsi: &Imsi) -> Option<&SubscriberProfile> {
        self.records.get(imsi).and_then(|r| r.profile.as_ref())
    }

    fn resolve(&self, identity: &MsIdentity) -> Option<Imsi> {
        match identity {
            MsIdentity::Imsi(i) => Some(*i),
            MsIdentity::Tmsi(t) => self.tmsi_index.get(t).copied(),
        }
    }

    fn alloc_tmsi(&mut self, imsi: Imsi) -> Tmsi {
        self.next_tmsi += 1;
        let tmsi = Tmsi(0xA000_0000 | self.next_tmsi);
        if let Some(rec) = self.records.get_mut(&imsi) {
            if let Some(old) = rec.tmsi.replace(tmsi) {
                self.tmsi_index.remove(&old);
            }
        }
        self.tmsi_index.insert(tmsi, imsi);
        tmsi
    }

    fn alloc_msrn(&mut self, imsi: Imsi) -> Msisdn {
        self.next_msrn += 1;
        let digits = format!("{}{:04}", self.config.msrn_prefix, self.next_msrn);
        let msrn = Msisdn::parse(&digits).expect("prefix + 4 digits is a valid number");
        self.msrn_index.insert(msrn, imsi);
        msrn
    }

    /// Starts (or continues) authentication for a pending dialogue.
    /// Returns `true` if an Authenticate was issued, `false` if no triplet
    /// was available and vectors were requested from the HLR.
    fn begin_auth(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi, conn: ConnRef) -> bool {
        let rec = self.records.entry(imsi).or_default();
        match rec.triplets.pop() {
            Some(t) => {
                rec.current = Some(t);
                ctx.send(
                    self.msc,
                    Message::Map(MapMessage::Authenticate {
                        conn,
                        imsi,
                        rand: t.rand,
                    }),
                );
                true
            }
            None => {
                let hlr = self.hlr_for(&imsi);
                ctx.send(
                    hlr,
                    Message::Map(MapMessage::SendAuthenticationInfo { imsi }),
                );
                false
            }
        }
    }

    fn reject(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi, cause: Cause) {
        match self.pending.remove(&imsi) {
            Some(Pending::Register { conn, .. }) => {
                ctx.count("vlr.registration_rejected");
                ctx.send(
                    self.msc,
                    Message::Map(MapMessage::UpdateLocationAreaReject {
                        conn,
                        identity: MsIdentity::Imsi(imsi),
                        cause,
                    }),
                );
            }
            Some(Pending::Access { conn, .. }) => {
                ctx.count("vlr.access_rejected");
                ctx.send(
                    self.msc,
                    Message::Map(MapMessage::ProcessAccessRequestAck {
                        conn,
                        imsi,
                        rejection: Some(cause),
                    }),
                );
            }
            None => {}
        }
    }

    fn handle_map(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: MapMessage) {
        match msg {
            // ---- from the MSC: registration (paper step 1.1) ----
            MapMessage::UpdateLocationArea {
                conn,
                identity,
                lai,
            } => {
                let Some(imsi) = self.resolve(&identity) else {
                    // Unknown TMSI: tell the MSC to make the MS retry with
                    // its IMSI.
                    ctx.count("vlr.unknown_tmsi");
                    ctx.send(
                        self.msc,
                        Message::Map(MapMessage::UpdateLocationAreaReject {
                            conn,
                            identity,
                            cause: Cause::SubscriberAbsent,
                        }),
                    );
                    return;
                };
                self.records.entry(imsi).or_default();
                let issued = self.begin_auth(ctx, imsi, conn);
                self.pending.insert(
                    imsi,
                    Pending::Register {
                        conn,
                        lai,
                        phase: if issued {
                            Phase::Auth
                        } else {
                            Phase::Triplets
                        },
                    },
                );
            }

            // ---- from the MSC: access (call origination / page response) ----
            MapMessage::ProcessAccessRequest { conn, identity } => {
                let Some(imsi) = self.resolve(&identity) else {
                    ctx.count("vlr.access_unknown_identity");
                    // No IMSI to address the reject with; use a placeholder
                    // record-free reject through the ack's rejection field.
                    if let MsIdentity::Imsi(i) = identity {
                        ctx.send(
                            self.msc,
                            Message::Map(MapMessage::ProcessAccessRequestAck {
                                conn,
                                imsi: i,
                                rejection: Some(Cause::SubscriberAbsent),
                            }),
                        );
                    }
                    return;
                };
                if !self.records.contains_key(&imsi) {
                    ctx.send(
                        self.msc,
                        Message::Map(MapMessage::ProcessAccessRequestAck {
                            conn,
                            imsi,
                            rejection: Some(Cause::SubscriberAbsent),
                        }),
                    );
                    return;
                }
                if !self.config.auth_on_access {
                    ctx.send(
                        self.msc,
                        Message::Map(MapMessage::ProcessAccessRequestAck {
                            conn,
                            imsi,
                            rejection: None,
                        }),
                    );
                    return;
                }
                let issued = self.begin_auth(ctx, imsi, conn);
                self.pending.insert(
                    imsi,
                    Pending::Access {
                        conn,
                        phase: if issued {
                            Phase::Auth
                        } else {
                            Phase::Triplets
                        },
                    },
                );
            }

            // ---- from the HLR: vectors ----
            MapMessage::SendAuthenticationInfoAck { imsi, triplets } => {
                if triplets.is_empty() {
                    self.reject(ctx, imsi, Cause::AuthenticationFailure);
                    return;
                }
                if let Some(rec) = self.records.get_mut(&imsi) {
                    rec.triplets = triplets;
                }
                let conn = match self.pending.get(&imsi) {
                    Some(Pending::Register { conn, phase, .. })
                    | Some(Pending::Access { conn, phase, .. }) => {
                        if *phase != Phase::Triplets {
                            return;
                        }
                        *conn
                    }
                    None => return,
                };
                self.begin_auth(ctx, imsi, conn);
                match self.pending.get_mut(&imsi) {
                    Some(Pending::Register { phase, .. }) | Some(Pending::Access { phase, .. }) => {
                        *phase = Phase::Auth;
                    }
                    None => {}
                }
            }

            // ---- from the MSC: the MS's signed response ----
            MapMessage::AuthenticateAck { imsi, sres, .. } => {
                let expected = self.records.get(&imsi).and_then(|r| r.current);
                let Some(triplet) = expected else {
                    ctx.count("vlr.unsolicited_auth_ack");
                    return;
                };
                if triplet.sres != sres {
                    ctx.count("vlr.auth_failures");
                    self.reject(ctx, imsi, Cause::AuthenticationFailure);
                    return;
                }
                ctx.count("vlr.auth_success");
                match self.pending.get_mut(&imsi) {
                    Some(Pending::Register { phase, .. }) => {
                        // Paper step 1.2: VLR sends MAP_Update_Location to
                        // the HLR and obtains the subscription profile.
                        *phase = Phase::Hlr;
                        let hlr = self.hlr_for(&imsi);
                        ctx.send(
                            hlr,
                            Message::Map(MapMessage::UpdateLocation {
                                imsi,
                                vlr: self.config.point_code,
                            }),
                        );
                    }
                    Some(Pending::Access { conn, phase }) => {
                        *phase = Phase::Cipher;
                        let conn = *conn;
                        ctx.send(
                            self.msc,
                            Message::Map(MapMessage::StartCiphering { conn, imsi }),
                        );
                    }
                    None => {}
                }
            }

            // ---- from the HLR: profile download (paper step 1.2) ----
            MapMessage::InsertSubsData { imsi, profile } => {
                self.records.entry(imsi).or_default().profile = Some(profile);
                ctx.send(from, Message::Map(MapMessage::InsertSubsDataAck { imsi }));
            }

            MapMessage::UpdateLocationAck { imsi } => {
                if let Some(Pending::Register { conn, phase, .. }) = self.pending.get_mut(&imsi) {
                    if *phase == Phase::Hlr {
                        *phase = Phase::Cipher;
                        let conn = *conn;
                        ctx.send(
                            self.msc,
                            Message::Map(MapMessage::StartCiphering { conn, imsi }),
                        );
                    }
                }
            }

            MapMessage::UpdateLocationReject { imsi, cause } => {
                self.records.remove(&imsi);
                self.reject(ctx, imsi, cause);
            }

            MapMessage::StartCipheringAck { imsi, .. } => {
                match self.pending.remove(&imsi) {
                    Some(Pending::Register { conn, lai, phase }) => {
                        if phase != Phase::Cipher {
                            self.pending
                                .insert(imsi, Pending::Register { conn, lai, phase });
                            return;
                        }
                        if let Some(rec) = self.records.get_mut(&imsi) {
                            rec.lai = Some(lai);
                        }
                        let tmsi = self.alloc_tmsi(imsi);
                        let msisdn = self
                            .records
                            .get(&imsi)
                            .and_then(|r| r.profile.as_ref())
                            .map(|p| p.msisdn);
                        ctx.count("vlr.registrations");
                        ctx.send(
                            self.msc,
                            Message::Map(MapMessage::UpdateLocationAreaAck {
                                conn,
                                imsi,
                                tmsi: Some(tmsi),
                                msisdn,
                            }),
                        );
                    }
                    Some(Pending::Access { conn, phase }) => {
                        if phase != Phase::Cipher {
                            self.pending.insert(imsi, Pending::Access { conn, phase });
                            return;
                        }
                        ctx.count("vlr.access_granted");
                        ctx.send(
                            self.msc,
                            Message::Map(MapMessage::ProcessAccessRequestAck {
                                conn,
                                imsi,
                                rejection: None,
                            }),
                        );
                    }
                    None => {}
                }
            }

            // ---- outgoing-call authorization (paper step 2.2) ----
            MapMessage::SendInfoForOutgoingCall {
                conn,
                imsi,
                international,
                ..
            } => {
                let verdict = match self.records.get(&imsi).and_then(|r| r.profile.as_ref()) {
                    Some(p) if p.may_call(international) => (Some(p.msisdn), None),
                    Some(_) => (None, Some(Cause::ServiceNotAllowed)),
                    None => (None, Some(Cause::SubscriberAbsent)),
                };
                if verdict.1.is_some() {
                    ctx.count("vlr.outgoing_call_denied");
                } else {
                    ctx.count("vlr.outgoing_call_authorized");
                }
                ctx.send(
                    self.msc,
                    Message::Map(MapMessage::SendInfoForOutgoingCallAck {
                        conn,
                        imsi,
                        msisdn: verdict.0,
                        rejection: verdict.1,
                    }),
                );
            }

            // ---- call delivery ----
            MapMessage::ProvideRoamingNumber { imsi } => {
                let msrn = self.alloc_msrn(imsi);
                ctx.count("vlr.msrn_allocated");
                ctx.send(
                    from,
                    Message::Map(MapMessage::ProvideRoamingNumberAck { imsi, msrn }),
                );
            }
            MapMessage::SendInfoForIncomingCall { msrn } => {
                let subscriber = match self.msrn_index.remove(&msrn) {
                    Some(imsi) => Ok(imsi),
                    None => Err(Cause::UnallocatedNumber),
                };
                ctx.send(
                    self.msc,
                    Message::Map(MapMessage::SendInfoForIncomingCallAck { msrn, subscriber }),
                );
            }

            // ---- subscriber moved away ----
            MapMessage::CancelLocation { imsi } => {
                if let Some(rec) = self.records.remove(&imsi) {
                    if let Some(t) = rec.tmsi {
                        self.tmsi_index.remove(&t);
                    }
                }
                ctx.count("vlr.cancelled");
                // Let the serving switch drop its per-subscriber state
                // (the VMSC releases PDP contexts + the GK alias).
                ctx.send(self.msc, Message::Map(MapMessage::PurgeMs { imsi }));
                ctx.send(from, Message::Map(MapMessage::CancelLocationAck { imsi }));
            }

            _ => ctx.count("vlr.unhandled_map"),
        }
    }
}

impl Node<Message> for Vlr {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match msg {
            Message::Map(map) if matches!(iface, Interface::B | Interface::D) => {
                self.handle_map(ctx, from, map)
            }
            _ => ctx.count("vlr.unexpected_message"),
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

    struct Probe {
        got: Vec<Message>,
    }
    impl Node<Message> for Probe {
        fn on_message(
            &mut self,
            _c: &mut Context<'_, Message>,
            _f: NodeId,
            _i: Interface,
            m: Message,
        ) {
            self.got.push(m);
        }
    }

    struct Feeder {
        peer: NodeId,
        feed: Vec<Message>,
    }
    impl Node<Message> for Feeder {
        fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
            for m in self.feed.drain(..) {
                ctx.send(self.peer, m);
            }
        }
        fn on_message(
            &mut self,
            _c: &mut Context<'_, Message>,
            _f: NodeId,
            _i: Interface,
            _m: Message,
        ) {
        }
    }

    fn config() -> VlrConfig {
        VlrConfig {
            point_code: PointCode(10),
            msrn_prefix: "8869990".to_owned(),
            auth_on_access: true,
        }
    }

    fn rig(feed_from_msc: Vec<Message>) -> (Network<Message>, NodeId, NodeId, NodeId) {
        let mut net = Network::new(1);
        let msc = net.add_node("msc", Probe { got: Vec::new() });
        let hlr = net.add_node("hlr", Probe { got: Vec::new() });
        let vlr = net.add_node("vlr", Vlr::new(config(), msc, hlr));
        net.connect(msc, vlr, Interface::B, SimDuration::from_millis(1));
        net.connect(vlr, hlr, Interface::D, SimDuration::from_millis(1));
        if !feed_from_msc.is_empty() {
            // feed via the MSC probe is impossible; use a dedicated feeder
            // wired with the B interface
            let feeder = net.add_node(
                "feeder",
                Feeder {
                    peer: vlr,
                    feed: feed_from_msc,
                },
            );
            net.connect(feeder, vlr, Interface::B, SimDuration::from_millis(1));
        }
        (net, vlr, msc, hlr)
    }

    #[test]
    fn registration_requests_vectors_then_challenges() {
        let conn = ConnRef(7);
        let (mut net, _vlr, msc, hlr) = rig(vec![Message::Map(MapMessage::UpdateLocationArea {
            conn,
            identity: MsIdentity::Imsi(imsi()),
            lai: Lai::new(466, 92, 1),
        })]);
        net.run_until_quiescent();
        let hlr_got = &net.node::<Probe>(hlr).unwrap().got;
        assert_eq!(hlr_got.len(), 1);
        assert_eq!(hlr_got[0].label_str(), "MAP_Send_Authentication_Info");
        assert!(net.node::<Probe>(msc).unwrap().got.is_empty());
    }

    #[test]
    fn unknown_tmsi_rejected_toward_msc() {
        let (mut net, _vlr, msc, _hlr) =
            rig(vec![Message::Map(MapMessage::UpdateLocationArea {
                conn: ConnRef(7),
                identity: MsIdentity::Tmsi(Tmsi(99)),
                lai: Lai::new(466, 92, 1),
            })]);
        net.run_until_quiescent();
        let got = &net.node::<Probe>(msc).unwrap().got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].label_str(), "MAP_Update_Location_Area_reject");
    }

    #[test]
    fn full_registration_dialogue() {
        // Drive the VLR through the whole ladder by feeding each answer.
        let conn = ConnRef(7);
        let t = AuthTriplet {
            rand: 5,
            sres: 55,
            kc: 555,
        };
        let profile = SubscriberProfile::full(Msisdn::parse("88691234567").unwrap());
        let (mut net, vlr, msc, _hlr) = rig(vec![
            Message::Map(MapMessage::UpdateLocationArea {
                conn,
                identity: MsIdentity::Imsi(imsi()),
                lai: Lai::new(466, 92, 1),
            }),
        ]);
        net.run_until_quiescent();
        // HLR answers with vectors
        let f1 = net.add_node(
            "f1",
            Feeder {
                peer: vlr,
                feed: vec![Message::Map(MapMessage::SendAuthenticationInfoAck {
                    imsi: imsi(),
                    triplets: vec![t],
                })],
            },
        );
        net.connect(f1, vlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        // MSC answers the challenge correctly
        let f2 = net.add_node(
            "f2",
            Feeder {
                peer: vlr,
                feed: vec![Message::Map(MapMessage::AuthenticateAck {
                    conn,
                    imsi: imsi(),
                    sres: 55,
                })],
            },
        );
        net.connect(f2, vlr, Interface::B, SimDuration::from_millis(1));
        net.run_until_quiescent();
        // HLR inserts data + acks UL
        let f3 = net.add_node(
            "f3",
            Feeder {
                peer: vlr,
                feed: vec![
                    Message::Map(MapMessage::InsertSubsData {
                        imsi: imsi(),
                        profile,
                    }),
                    Message::Map(MapMessage::UpdateLocationAck { imsi: imsi() }),
                ],
            },
        );
        net.connect(f3, vlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        // MSC confirms ciphering
        let f4 = net.add_node(
            "f4",
            Feeder {
                peer: vlr,
                feed: vec![Message::Map(MapMessage::StartCipheringAck {
                    conn,
                    imsi: imsi(),
                })],
            },
        );
        net.connect(f4, vlr, Interface::B, SimDuration::from_millis(1));
        net.run_until_quiescent();

        let labels: Vec<String> = net
            .node::<Probe>(msc)
            .unwrap()
            .got
            .iter()
            .map(|m| m.label_str())
            .collect();
        assert_eq!(
            labels,
            vec![
                "MAP_Authenticate",
                "MAP_Start_Ciphering",
                "MAP_Update_Location_Area_ack"
            ]
        );
        let v = net.node::<Vlr>(vlr).unwrap();
        assert_eq!(v.visitor_count(), 1);
        assert!(v.profile(&imsi()).is_some());
        assert_eq!(net.stats().counter("vlr.registrations"), 1);
    }

    #[test]
    fn wrong_sres_rejects_registration() {
        let conn = ConnRef(7);
        let t = AuthTriplet {
            rand: 5,
            sres: 55,
            kc: 555,
        };
        let (mut net, vlr, msc, _hlr) = rig(vec![Message::Map(MapMessage::UpdateLocationArea {
            conn,
            identity: MsIdentity::Imsi(imsi()),
            lai: Lai::new(466, 92, 1),
        })]);
        net.run_until_quiescent();
        let f1 = net.add_node(
            "f1",
            Feeder {
                peer: vlr,
                feed: vec![
                    Message::Map(MapMessage::SendAuthenticationInfoAck {
                        imsi: imsi(),
                        triplets: vec![t],
                    }),
                ],
            },
        );
        net.connect(f1, vlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        let f2 = net.add_node(
            "f2",
            Feeder {
                peer: vlr,
                feed: vec![Message::Map(MapMessage::AuthenticateAck {
                    conn,
                    imsi: imsi(),
                    sres: 999, // wrong
                })],
            },
        );
        net.connect(f2, vlr, Interface::B, SimDuration::from_millis(1));
        net.run_until_quiescent();
        let got = &net.node::<Probe>(msc).unwrap().got;
        assert_eq!(got.last().unwrap().label_str(), "MAP_Update_Location_Area_reject");
        assert_eq!(net.stats().counter("vlr.auth_failures"), 1);
    }

    #[test]
    fn outgoing_call_authorization_respects_profile() {
        let intl_denied = SubscriberProfile::domestic_only(Msisdn::parse("88691234567").unwrap());
        let (mut net, vlr, msc, _hlr) = rig(vec![]);
        {
            let v = net.node_mut::<Vlr>(vlr).unwrap();
            v.records.entry(imsi()).or_default().profile = Some(intl_denied);
        }
        let feeder = net.add_node(
            "f",
            Feeder {
                peer: vlr,
                feed: vec![
                    Message::Map(MapMessage::SendInfoForOutgoingCall {
                        conn: ConnRef(1),
                        imsi: imsi(),
                        called: Msisdn::parse("85291234567").unwrap(),
                        international: true,
                    }),
                    Message::Map(MapMessage::SendInfoForOutgoingCall {
                        conn: ConnRef(1),
                        imsi: imsi(),
                        called: Msisdn::parse("88612345678").unwrap(),
                        international: false,
                    }),
                ],
            },
        );
        net.connect(feeder, vlr, Interface::B, SimDuration::from_millis(1));
        net.run_until_quiescent();
        let got = &net.node::<Probe>(msc).unwrap().got;
        assert_eq!(got.len(), 2);
        match (&got[0], &got[1]) {
            (
                Message::Map(MapMessage::SendInfoForOutgoingCallAck {
                    rejection: Some(Cause::ServiceNotAllowed),
                    ..
                }),
                Message::Map(MapMessage::SendInfoForOutgoingCallAck {
                    rejection: None,
                    msisdn: Some(_),
                    ..
                }),
            ) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn msrn_allocate_and_resolve_once() {
        let (mut net, vlr, msc, _hlr) = rig(vec![]);
        {
            let v = net.node_mut::<Vlr>(vlr).unwrap();
            v.records.entry(imsi()).or_default();
        }
        let hlr_side = net.add_node(
            "hlr2",
            Feeder {
                peer: vlr,
                feed: vec![Message::Map(MapMessage::ProvideRoamingNumber {
                    imsi: imsi(),
                })],
            },
        );
        net.connect(hlr_side, vlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        // capture allocated msrn from the feeder probe? the ack went to the
        // feeder (from); read it from the vlr's index instead
        let msrn = *net
            .node::<Vlr>(vlr)
            .unwrap()
            .msrn_index
            .keys()
            .next()
            .expect("allocated");
        let f = net.add_node(
            "f2",
            Feeder {
                peer: vlr,
                feed: vec![
                    Message::Map(MapMessage::SendInfoForIncomingCall { msrn }),
                    Message::Map(MapMessage::SendInfoForIncomingCall { msrn }),
                ],
            },
        );
        net.connect(f, vlr, Interface::B, SimDuration::from_millis(1));
        net.run_until_quiescent();
        let got = &net.node::<Probe>(msc).unwrap().got;
        assert_eq!(got.len(), 2);
        match (&got[0], &got[1]) {
            (
                Message::Map(MapMessage::SendInfoForIncomingCallAck {
                    subscriber: Ok(i), ..
                }),
                Message::Map(MapMessage::SendInfoForIncomingCallAck {
                    subscriber: Err(Cause::UnallocatedNumber),
                    ..
                }),
            ) => assert_eq!(*i, imsi()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cancel_location_purges() {
        let (mut net, vlr, _msc, _hlr) = rig(vec![]);
        {
            let v = net.node_mut::<Vlr>(vlr).unwrap();
            v.records.entry(imsi()).or_default();
            let t = v.alloc_tmsi(imsi());
            assert!(v.tmsi_index.contains_key(&t));
        }
        let f = net.add_node(
            "f",
            Feeder {
                peer: vlr,
                feed: vec![Message::Map(MapMessage::CancelLocation { imsi: imsi() })],
            },
        );
        net.connect(f, vlr, Interface::D, SimDuration::from_millis(1));
        net.run_until_quiescent();
        let v = net.node::<Vlr>(vlr).unwrap();
        assert_eq!(v.visitor_count(), 0);
        assert!(v.tmsi_index.is_empty());
    }
}
