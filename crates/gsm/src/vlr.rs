//! Visitor Location Register.
//!
//! The VLR owns the visited-network view of each roaming or home
//! subscriber: TMSI allocation, cached authentication triplets, the
//! profile copy downloaded from the HLR, outgoing-call authorization
//! (paper step 2.2) and roaming-number allocation for call delivery.

use std::fmt;

use vgprs_sim::{Context, IdMap, Interface, Node, NodeId, NumberBlock};
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
}

#[derive(Debug, Default)]
struct VlrRecord {
    lai: Option<Lai>,
    tmsi: Option<Tmsi>,
    profile: Option<SubscriberProfile>,
    triplets: Vectors,
}

/// The vectors a record keeps for later challenges: what one
/// `MAP_Send_Authentication_Info` answer carries, at most three, held
/// inline rather than in an allocation of their own. Spent from the
/// back, as the answer lists them; a spent one stays in its slot, so
/// the triplet being verified is named by slot rather than copied.
#[derive(Clone, Copy, Default)]
struct Vectors {
    held: [Packed; Vectors::CAP],
    len: u8,
    /// The slot of the triplet last spent: the one being verified.
    current: Option<u8>,
}

/// An [`AuthTriplet`] in 20 bytes rather than 24: its 64-bit challenge
/// and key as 32-bit halves, so the vectors align to four and pad
/// nothing.
#[derive(Clone, Copy, Default)]
struct Packed([u32; 5]);

impl Packed {
    fn new(t: AuthTriplet) -> Self {
        let halves = |w: u64| [w as u32, (w >> 32) as u32];
        let ([rand_lo, rand_hi], [kc_lo, kc_hi]) = (halves(t.rand), halves(t.kc));
        Packed([rand_lo, rand_hi, t.sres, kc_lo, kc_hi])
    }

    fn get(self) -> AuthTriplet {
        let [rand_lo, rand_hi, sres, kc_lo, kc_hi] = self.0;
        let whole = |lo: u32, hi: u32| u64::from(lo) | u64::from(hi) << 32;
        AuthTriplet {
            rand: whole(rand_lo, rand_hi),
            sres,
            kc: whole(kc_lo, kc_hi),
        }
    }
}

impl Vectors {
    /// What the AuC hands out per request.
    const CAP: usize = 3;

    /// The last [`CAP`](Self::CAP) of `triplets`: the ones spent first.
    fn keep(triplets: &[AuthTriplet]) -> Self {
        let kept = &triplets[triplets.len().saturating_sub(Self::CAP)..];
        let mut vectors = Vectors::default();
        for (slot, &t) in vectors.held.iter_mut().zip(kept) {
            *slot = Packed::new(t);
        }
        vectors.len = kept.len() as u8;
        vectors
    }

    /// Spends the next vector: it becomes the current one.
    fn pop(&mut self) -> Option<AuthTriplet> {
        self.len = self.len.checked_sub(1)?;
        self.current = Some(self.len);
        Some(self.held[usize::from(self.len)].get())
    }

    /// The triplet being verified, if one was ever spent.
    fn current(&self) -> Option<AuthTriplet> {
        self.current.map(|slot| self.held[usize::from(slot)].get())
    }

    /// The vectors not spent yet.
    fn unspent(&self) -> Vec<AuthTriplet> {
        let held = &self.held[..usize::from(self.len)];
        held.iter().map(|p| p.get()).collect()
    }
}

/// Lists the vectors still held and the one being verified: a spent
/// one's slot keeps a stale copy, which a provisioned and a replayed
/// start need not agree on.
impl fmt::Debug for Vectors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vectors")
            .field("held", &self.unspent())
            .field("current", &self.current())
            .finish()
    }
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
    records: NumberBlock<Imsi, VlrRecord>,
    /// The triplet a challenge is still out on, for a subscriber whose
    /// vectors a later answer replaced before a new one was spent. A
    /// record names its current triplet by slot, and the new vectors
    /// took the slots. Empty unless two vector requests for one
    /// subscriber overlap.
    displaced: IdMap<Imsi, AuthTriplet>,
    tmsi_index: NumberBlock<Tmsi, Imsi>,
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
            records: NumberBlock::default(),
            displaced: IdMap::default(),
            tmsi_index: NumberBlock::default(),
            msrn_index: IdMap::default(),
            pending: IdMap::default(),
            next_tmsi: 0,
            next_msrn: 0,
        }
    }

    /// Declares the home population's IMSI series: the `count` IMSIs
    /// from `first` get a dense record each instead of a hashed one, and
    /// the `count` TMSIs their registrations will be issued get a dense
    /// index row each. Returns the first of those TMSIs. Declare before
    /// the first registration.
    pub fn declare_block(&mut self, first: Imsi, count: usize) -> Tmsi {
        self.records.declare(first, count);
        let tmsi = Self::tmsi(self.next_tmsi + 1);
        self.tmsi_index.declare(tmsi, count);
        tmsi
    }

    /// The `n`th TMSI this VLR issues.
    fn tmsi(n: u32) -> Tmsi {
        Tmsi(0xA000_0000 | n)
    }

    /// This VLR's SS7 address, as it names itself to an HLR.
    pub fn point_code(&self) -> PointCode {
        self.config.point_code
    }

    /// Writes what a first registration of `imsi` in `lai` (Figure 4,
    /// steps 1.1–1.2) leaves here: the record with the profile and the
    /// vectors the HLR sent — the last one spent on the challenge, the
    /// other two kept — and a fresh TMSI, which it returns.
    pub fn provision_registered(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        lai: Lai,
        profile: SubscriberProfile,
        triplets: Vec<AuthTriplet>,
    ) -> Tmsi {
        let mut triplets = Vectors::keep(&triplets);
        triplets.pop();
        self.displaced.remove(&imsi);
        self.records.insert(
            imsi,
            VlrRecord {
                lai: Some(lai),
                tmsi: None,
                profile: Some(profile),
                triplets,
            },
        );
        ctx.count("vlr.auth_success");
        ctx.count("vlr.registrations");
        self.alloc_tmsi(imsi)
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
        let tmsi = Self::tmsi(self.next_tmsi);
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
        let rec = self.records.get_or_insert_with(imsi, VlrRecord::default);
        match rec.triplets.pop() {
            Some(t) => {
                self.displaced.remove(&imsi);
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
                self.records.get_or_insert_with(imsi, VlrRecord::default);
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
                // Every access authenticates and re-ciphers, not only
                // registration: the paper's steps 2.1 and 4.5.
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
                let conn = match self.pending.get(&imsi) {
                    Some(Pending::Register { conn, phase, .. })
                    | Some(Pending::Access { conn, phase, .. }) => {
                        (*phase == Phase::Triplets).then_some(*conn)
                    }
                    None => None,
                };
                if let Some(rec) = self.records.get_mut(&imsi) {
                    // Unless one is spent right away, the current
                    // triplet must outlive the slots it is named by.
                    if let (None, Some(current)) = (conn, rec.triplets.current()) {
                        self.displaced.insert(imsi, current);
                    }
                    rec.triplets = Vectors::keep(&triplets);
                }
                let Some(conn) = conn else {
                    return;
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
                let expected = self.records.get(&imsi).and_then(|r| {
                    (self.displaced.get(&imsi).copied()).or(r.triplets.current())
                });
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
                self.records.get_or_insert_with(imsi, VlrRecord::default).profile = Some(profile);
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
                self.displaced.remove(&imsi);
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
                self.displaced.remove(&imsi);
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
    use vgprs_sim::{Network, ScriptedPeer, SimDuration};
    use vgprs_wire::Issued;

    fn imsi() -> Imsi {
        Imsi::parse("466920123456789").unwrap()
    }

    fn config() -> VlrConfig {
        VlrConfig {
            point_code: PointCode(10),
            msrn_prefix: "8869990".to_owned(),
        }
    }

    /// Builds: msc(peer) —B— vlr —D— hlr(peer).
    fn rig() -> (Network<Message>, NodeId, NodeId, NodeId) {
        let mut net = Network::new(1);
        let msc = net.add_node("msc", ScriptedPeer::new());
        let hlr = net.add_node("hlr", ScriptedPeer::new());
        let vlr = net.add_node("vlr", Vlr::new(config(), msc, hlr));
        net.connect(msc, vlr, Interface::B, SimDuration::from_millis(1));
        net.connect(vlr, hlr, Interface::D, SimDuration::from_millis(1));
        (net, vlr, msc, hlr)
    }

    /// Sends `msgs` to the VLR over `iface` from a peer of their own, as
    /// the MSC (B) or the HLR (D) would, and runs until quiet.
    fn feed(
        net: &mut Network<Message>,
        vlr: NodeId,
        iface: Interface,
        msgs: impl IntoIterator<Item = Message>,
    ) {
        let feeder = net.add_node("feeder", ScriptedPeer::sending(vlr, msgs));
        net.connect(feeder, vlr, iface, SimDuration::from_millis(1));
        net.run_until_quiescent();
    }

    fn ula(identity: MsIdentity) -> Message {
        Message::Map(MapMessage::UpdateLocationArea {
            conn: ConnRef(7),
            identity,
            lai: Lai::new(466, 92, 1),
        })
    }

    #[test]
    fn registration_requests_vectors_then_challenges() {
        let (mut net, vlr, msc, hlr) = rig();
        feed(&mut net, vlr, Interface::B, [ula(MsIdentity::Imsi(imsi()))]);
        assert_eq!(
            ScriptedPeer::of(&net, hlr).labels(),
            ["MAP_Send_Authentication_Info"]
        );
        assert!(ScriptedPeer::of(&net, msc).log().is_empty());
    }

    #[test]
    fn unknown_tmsi_rejected_toward_msc() {
        let (mut net, vlr, msc, _hlr) = rig();
        feed(&mut net, vlr, Interface::B, [ula(MsIdentity::Tmsi(Tmsi(99)))]);
        assert_eq!(
            ScriptedPeer::of(&net, msc).labels(),
            ["MAP_Update_Location_Area_reject"]
        );
    }

    /// Runs a registration up to the MSC's answer to the challenge.
    fn challenge(net: &mut Network<Message>, vlr: NodeId, sres: u32) {
        let (conn, imsi) = (ConnRef(7), imsi());
        feed(net, vlr, Interface::B, [ula(MsIdentity::Imsi(imsi))]);
        let triplets = vec![AuthTriplet {
            rand: 5,
            sres: 55,
            kc: 555,
        }];
        let vectors = MapMessage::SendAuthenticationInfoAck { imsi, triplets };
        feed(net, vlr, Interface::D, [Message::Map(vectors)]);
        let answer = MapMessage::AuthenticateAck { conn, imsi, sres };
        feed(net, vlr, Interface::B, [Message::Map(answer)]);
    }

    /// Two registrations of one subscriber overlap: the second answer's
    /// vectors take the slots while the first answer's challenge is
    /// still out, and the handset's response to that challenge is still
    /// checked against the triplet it was challenged with.
    #[test]
    fn an_outstanding_challenge_outlives_the_vectors_it_came_from() {
        let (mut net, vlr, _msc, hlr) = rig();
        let imsi = imsi();
        let twice = [ula(MsIdentity::Imsi(imsi)), ula(MsIdentity::Imsi(imsi))];
        feed(&mut net, vlr, Interface::B, twice);
        let vectors = |sres| {
            let triplets = vec![AuthTriplet { rand: 5, sres, kc: 555 }];
            Message::Map(MapMessage::SendAuthenticationInfoAck { imsi, triplets })
        };
        feed(&mut net, vlr, Interface::D, [vectors(55), vectors(66)]);
        let (conn, sres) = (ConnRef(7), 55);
        let answer = MapMessage::AuthenticateAck { conn, imsi, sres };
        feed(&mut net, vlr, Interface::B, [Message::Map(answer)]);
        assert_eq!(net.stats().counter("vlr.auth_success"), 1);
        assert_eq!(net.stats().counter("vlr.auth_failures"), 0);
        let asked = ScriptedPeer::of(&net, hlr).labels();
        assert_eq!(asked.last().map(String::as_str), Some("MAP_Update_Location"), "{asked:?}");
    }

    #[test]
    fn full_registration_dialogue() {
        // Drive the VLR through the whole ladder by feeding each answer.
        let (mut net, vlr, msc, _hlr) = rig();
        challenge(&mut net, vlr, 55);
        // HLR inserts data + acks UL
        let profile = SubscriberProfile::full(Msisdn::parse("88691234567").unwrap());
        feed(
            &mut net,
            vlr,
            Interface::D,
            [
                Message::Map(MapMessage::InsertSubsData {
                    imsi: imsi(),
                    profile,
                }),
                Message::Map(MapMessage::UpdateLocationAck { imsi: imsi() }),
            ],
        );
        // MSC confirms ciphering
        let confirm = MapMessage::StartCipheringAck {
            conn: ConnRef(7),
            imsi: imsi(),
        };
        feed(&mut net, vlr, Interface::B, [Message::Map(confirm)]);

        assert_eq!(
            ScriptedPeer::of(&net, msc).labels(),
            [
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
        let (mut net, vlr, msc, _hlr) = rig();
        challenge(&mut net, vlr, 999); // wrong
        let labels = ScriptedPeer::of(&net, msc).labels();
        assert_eq!(labels.last().unwrap(), "MAP_Update_Location_Area_reject");
        assert_eq!(net.stats().counter("vlr.auth_failures"), 1);
    }

    #[test]
    fn outgoing_call_authorization_respects_profile() {
        let intl_denied = SubscriberProfile::domestic_only(Msisdn::parse("88691234567").unwrap());
        let (mut net, vlr, msc, _hlr) = rig();
        {
            let v = net.node_mut::<Vlr>(vlr).unwrap();
            v.records.get_or_insert_with(imsi(), VlrRecord::default).profile = Some(intl_denied);
        }
        let ask = |called: &str, international| {
            Message::Map(MapMessage::SendInfoForOutgoingCall {
                conn: ConnRef(1),
                imsi: imsi(),
                called: Msisdn::parse(called).unwrap(),
                international,
            })
        };
        feed(
            &mut net,
            vlr,
            Interface::B,
            [ask("85291234567", true), ask("88612345678", false)],
        );
        match ScriptedPeer::of(&net, msc).received()[..] {
            [Message::Map(MapMessage::SendInfoForOutgoingCallAck {
                rejection: Some(Cause::ServiceNotAllowed),
                ..
            }), Message::Map(MapMessage::SendInfoForOutgoingCallAck {
                rejection: None,
                msisdn: Some(_),
                ..
            })] => {}
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn msrn_allocate_and_resolve_once() {
        let (mut net, vlr, msc, _hlr) = rig();
        {
            let v = net.node_mut::<Vlr>(vlr).unwrap();
            v.records.get_or_insert_with(imsi(), VlrRecord::default);
        }
        let prn = MapMessage::ProvideRoamingNumber { imsi: imsi() };
        feed(&mut net, vlr, Interface::D, [Message::Map(prn)]);
        // the ack went to the HLR-side feeder; read the MSRN from the
        // VLR's index instead
        let msrn = *net
            .node::<Vlr>(vlr)
            .unwrap()
            .msrn_index
            .keys()
            .next()
            .expect("allocated");
        let sific = Message::Map(MapMessage::SendInfoForIncomingCall { msrn });
        feed(&mut net, vlr, Interface::B, [sific.clone(), sific]);
        match ScriptedPeer::of(&net, msc).received()[..] {
            [Message::Map(MapMessage::SendInfoForIncomingCallAck {
                subscriber: Ok(i), ..
            }), Message::Map(MapMessage::SendInfoForIncomingCallAck {
                subscriber: Err(Cause::UnallocatedNumber),
                ..
            })] => assert_eq!(*i, imsi()),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    /// A record names the triplet being verified by its slot among the
    /// held vectors (144 bytes when it kept a copy beside them, 112
    /// while a vector took 24).
    #[test]
    fn a_record_is_96_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<VlrRecord>(), 96);
        assert_eq!(size_of::<Option<VlrRecord>>(), 96);
    }

    #[test]
    fn a_packed_vector_is_the_triplet() {
        let t = AuthTriplet {
            rand: 0x0123_4567_89AB_CDEF,
            sres: 0xFEDC_BA98,
            kc: u64::MAX - 5,
        };
        assert_eq!(Packed::new(t).get(), t);
    }

    /// A TMSI carries the VLR's top bits, so none is 0: the niche where
    /// a handset and the VMSC's MS table hold no TMSI.
    #[test]
    fn no_tmsi_is_the_niche() {
        for n in [0, 1, 0x0FFF_FFFF, 0x5FFF_FFFF, u32::MAX] {
            assert_ne!(Vlr::tmsi(n).0, 0, "the {n}th TMSI");
        }
        let (mut net, vlr, _msc, _hlr) = rig();
        let v = net.node_mut::<Vlr>(vlr).unwrap();
        v.next_tmsi = u32::MAX - 1;
        assert!(Issued::from(v.alloc_tmsi(imsi())).is_some());
    }

    #[test]
    fn a_record_keeps_the_three_vectors_spent_first() {
        let t = |rand| AuthTriplet {
            rand,
            ..AuthTriplet::default()
        };
        let mut v = Vectors::keep(&[t(1), t(2), t(3), t(4)]);
        assert_eq!(v.unspent(), [t(2), t(3), t(4)]);
        assert_eq!(v.current(), None);
        let spent = [v.pop(), v.pop(), v.pop(), v.pop()];
        assert_eq!(spent, [Some(t(4)), Some(t(3)), Some(t(2)), None]);
        // An empty record still names the triplet it spent last.
        assert_eq!((v.unspent(), v.current()), (Vec::new(), Some(t(2))));
    }

    #[test]
    fn cancel_location_purges() {
        let (mut net, vlr, _msc, _hlr) = rig();
        {
            let v = net.node_mut::<Vlr>(vlr).unwrap();
            v.records.get_or_insert_with(imsi(), VlrRecord::default);
            let t = v.alloc_tmsi(imsi());
            assert!(v.tmsi_index.contains_key(&t));
        }
        let cancel = MapMessage::CancelLocation { imsi: imsi() };
        feed(&mut net, vlr, Interface::D, [Message::Map(cancel)]);
        let v = net.node::<Vlr>(vlr).unwrap();
        assert_eq!(v.visitor_count(), 0);
        assert!(v.tmsi_index.is_empty());
    }
}
