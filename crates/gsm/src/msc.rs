//! The classic circuit-switched GSM MSC (and GMSC).
//!
//! This node is the *baseline* the paper's VMSC replaces. It terminates
//! the A interface toward its BSCs, orchestrates registration and call
//! control with its VLR, interrogates the HLR when acting as a gateway
//! MSC, runs ISUP toward the PSTN, and anchors inter-MSC handoffs over
//! the E interface — the behavior needed for the tromboning baseline
//! (Figure 7) and as the handoff peer of a VMSC (Figure 9).

use vgprs_sim::{Context, IdMap, Interface, Node, NodeId};
use vgprs_wire::{
    CallId, Cause, CellId, Cic, ConnRef, Dtap, Imsi, IsupKind, IsupMessage, MapMessage, Message,
    Msisdn,
};

use crate::side::{GsmSide, SideNames};

/// How long to wait for a paging response before clearing the call.
const PAGING_TIMEOUT: vgprs_sim::SimDuration = vgprs_sim::SimDuration::from_secs(10);
/// Timer-tag namespace bit for paging supervision.
const TAG_PAGING: u64 = 1 << 62;

/// The names the classic MSC's GSM side counts under.
const NAMES: SideNames = SideNames {
    registrations_started: "msc.registrations_started",
    page_response_unknown_tmsi: "msc.page_response_unknown_tmsi",
    unknown_connection: "msc.unknown_connection",
    unhandled_dtap: "msc.unhandled_dtap",
    unhandled_map: "msc.unhandled_map",
    handover_without_imsi: "msc.handover_without_imsi",
    handover_without_call: "msc.handover_without_call",
    handover_unknown_cell: "msc.handover_unknown_cell",
    handovers_started: "msc.handovers_started",
    handover_prepared: "msc.handover_prepared",
    handover_complete_unknown_ref: "msc.handover_complete_unknown_ref",
    handover_target_completed: "msc.handover_target_completed",
    handover_anchored: "msc.handover_anchored",
};

/// Configuration for a [`GsmMsc`].
#[derive(Clone, Debug)]
pub struct MscConfig {
    /// Country code of the serving network (international-call detection).
    pub country_code: String,
    /// Digit prefix of this network's subscriber numbers. An IAM for such
    /// a number makes this MSC act as the GMSC (HLR interrogation).
    pub home_prefix: String,
    /// Digit prefix of the roaming numbers minted by the co-located VLR.
    pub msrn_prefix: String,
}

/// Why a radio transaction exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Purpose {
    Registration,
    MoService,
    MtCall(CallId),
}

#[derive(Debug)]
struct ConnState {
    call: Option<CallId>,
    purpose: Purpose,
}

/// Which legs a call currently has.
#[derive(Debug)]
struct CallState {
    /// Radio leg, while the MS is served by this MSC.
    conn: Option<ConnRef>,
    /// Trunk leg toward the PSTN.
    trunk: Option<(NodeId, Cic)>,
    /// Second trunk leg (transit/GMSC calls), toward the destination.
    trunk_out: Option<(NodeId, Cic)>,
    /// Inter-MSC leg after handoff (anchor side) or toward the anchor
    /// (target side).
    e_leg: Option<(NodeId, Cic)>,
    /// True while this MSC is the handoff target for the call.
    target_role: bool,
    /// The renamed call id used on the outgoing (GMSC-forwarded) leg.
    /// Call legs have independent identifiers, exactly as real networks
    /// treat them; without the rename, a call that transits this node
    /// twice (GMSC + serving MSC in one) would collide with itself.
    out_call: Option<CallId>,
    called: Option<Msisdn>,
    calling: Option<Msisdn>,
    answered: bool,
}

impl CallState {
    fn new() -> Self {
        CallState {
            conn: None,
            trunk: None,
            trunk_out: None,
            e_leg: None,
            target_role: false,
            out_call: None,
            called: None,
            calling: None,
            answered: false,
        }
    }
}

/// Sends one ISUP message on the circuit `leg`.
fn send_isup(ctx: &mut Context<'_, Message>, leg: (NodeId, Cic), call: CallId, kind: IsupKind) {
    let (peer, cic) = leg;
    ctx.send(peer, Message::Isup(IsupMessage { cic, call, kind }));
}

/// The classic GSM MSC node.
#[derive(Debug)]
pub struct GsmMsc {
    config: MscConfig,
    /// The MSC toward the radio network and the VLR.
    gsm: GsmSide,
    hlr: NodeId,
    /// The PSTN switch this MSC trunks into.
    pstn: Option<NodeId>,
    conns: IdMap<ConnRef, ConnState>,
    calls: IdMap<CallId, CallState>,
    /// MT calls waiting for a paging response, by subscriber.
    paging: IdMap<Imsi, CallId>,
    /// GMSC transit calls waiting for the HLR's routing info, by MSISDN.
    pending_sri: IdMap<Msisdn, CallId>,
    /// MT calls waiting for the VLR to resolve the MSRN.
    pending_incoming: IdMap<Msisdn, CallId>,
    /// Calls by the trunk circuit that carries them, per trunk peer.
    cic_index: IdMap<(NodeId, Cic), CallId>,
    next_cic: u16,
    next_leg_call: u64,
}

impl GsmMsc {
    /// Creates an MSC wired to its VLR and HLR.
    pub fn new(config: MscConfig, vlr: NodeId, hlr: NodeId) -> Self {
        GsmMsc {
            gsm: GsmSide::new(&NAMES, vlr, &config.country_code),
            config,
            hlr,
            pstn: None,
            conns: IdMap::default(),
            calls: IdMap::default(),
            paging: IdMap::default(),
            pending_sri: IdMap::default(),
            pending_incoming: IdMap::default(),
            cic_index: IdMap::default(),
            next_cic: 0,
            next_leg_call: 0,
        }
    }

    /// Registers a subordinate BSC.
    pub fn register_bsc(&mut self, bsc: NodeId) {
        self.gsm.register_bsc(bsc);
    }

    /// Attaches the PSTN trunk.
    pub fn set_pstn(&mut self, pstn: NodeId) {
        self.pstn = Some(pstn);
    }

    /// Declares that `cell` is served by the neighboring MSC `msc`
    /// (reachable over an E-interface link).
    pub fn add_neighbor_cell(&mut self, cell: CellId, msc: NodeId) {
        self.gsm.add_neighbor_cell(cell, msc);
    }

    /// Number of calls currently tracked.
    pub fn active_calls(&self) -> usize {
        self.calls.len()
    }

    fn alloc_cic(&mut self) -> Cic {
        self.next_cic += 1;
        Cic(self.next_cic)
    }

    /// Allocates a fresh call id for an outgoing (forwarded) leg.
    fn alloc_leg_call(&mut self, ctx: &Context<'_, Message>) -> CallId {
        self.next_leg_call += 1;
        CallId((u64::from(ctx.id().index()) << 40) | 0x0100_0000_0000 | self.next_leg_call)
    }

    /// The canonical call owning the circuit `(from, cic)`, falling back
    /// to the message's own call id for legs this node did not index.
    fn canonical_call(&self, from: NodeId, cic: Cic, fallback: CallId) -> CallId {
        self.cic_index.get(&(from, cic)).copied().unwrap_or(fallback)
    }

    /// The call id to stamp on messages leaving via the given leg.
    fn leg_call_id(&self, state: &CallState, leg: (NodeId, Cic)) -> Option<CallId> {
        if state.trunk_out == Some(leg) {
            state.out_call
        } else {
            None
        }
    }

    /// Starts the radio-release handshake toward the MS.
    fn clear_radio(&mut self, ctx: &mut Context<'_, Message>, call: CallId, cause: Cause) {
        if let Some(conn) = self.calls.get(&call).and_then(|c| c.conn) {
            self.gsm.send(ctx, conn, Dtap::Disconnect { call, cause });
        }
    }

    /// Releases the trunk legs of a call with REL.
    fn clear_trunks(&self, ctx: &mut Context<'_, Message>, call: CallId, cause: Cause) {
        self.clear_trunks_except(ctx, call, cause, None);
    }

    /// REL on every trunk leg of a call but `except` (the circuit a REL
    /// arrived on), each leg under its own call id.
    fn clear_trunks_except(
        &self,
        ctx: &mut Context<'_, Message>,
        call: CallId,
        cause: Cause,
        except: Option<(NodeId, Cic)>,
    ) {
        let Some(state) = self.calls.get(&call) else {
            return;
        };
        let legs = [state.trunk, state.trunk_out, state.e_leg];
        for leg in legs
            .into_iter()
            .flatten()
            .filter(|&leg| Some(leg) != except)
        {
            let leg_call = self.leg_call_id(state, leg).unwrap_or(call);
            send_isup(ctx, leg, leg_call, IsupKind::Rel { cause });
        }
    }

    fn drop_call(&mut self, call: CallId) {
        if let Some(state) = self.calls.remove(&call) {
            for leg in [state.trunk, state.trunk_out, state.e_leg]
                .into_iter()
                .flatten()
            {
                self.cic_index.remove(&leg);
            }
            if let Some(conn) = state.conn {
                if let Some(cs) = self.conns.get_mut(&conn) {
                    cs.call = None;
                }
            }
        }
    }

    // ----------------------------------------------------------------
    // A interface (radio side)
    // ----------------------------------------------------------------
    fn handle_a(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        conn: ConnRef,
        dtap: Dtap,
    ) {
        self.gsm.arrived(conn, from);
        match dtap {
            Dtap::LocationUpdateRequest { identity, lai } => {
                self.open_conn(conn, None, Purpose::Registration);
                self.gsm.location_update(ctx, conn, identity, lai);
            }
            Dtap::CmServiceRequest { identity } => {
                self.open_conn(conn, None, Purpose::MoService);
                self.gsm.request_access(ctx, conn, identity);
            }
            Dtap::PagingResponse { identity } => {
                let Some(imsi) = self.gsm.paged_subscriber(ctx, identity) else {
                    return;
                };
                let Some(call) = self.paging.remove(&imsi) else {
                    ctx.count("msc.page_response_unexpected");
                    return;
                };
                self.open_conn(conn, Some(call), Purpose::MtCall(call));
                self.gsm.bind(conn, imsi);
                if let Some(cs) = self.calls.get_mut(&call) {
                    cs.conn = Some(conn);
                }
                self.gsm.request_access(ctx, conn, identity);
            }
            Dtap::Setup { call, called } => {
                let Some(cs) = self.conns.get_mut(&conn) else {
                    return;
                };
                let Some(imsi) = self.gsm.imsi_of(conn) else {
                    ctx.count("msc.setup_without_access");
                    return;
                };
                cs.call = Some(call);
                let mut call_state = CallState::new();
                call_state.conn = Some(conn);
                call_state.called = Some(called);
                self.calls.insert(call, call_state);
                ctx.count("msc.mo_calls");
                // Paper step 2.2: authorize with the VLR.
                self.gsm.authorize_outgoing(ctx, conn, imsi, called);
            }
            Dtap::ChannelAssignmentComplete => {
                let Some(call) = self.conns.get(&conn).and_then(|c| c.call) else {
                    return;
                };
                let purpose = self.conns.get(&conn).map(|c| c.purpose);
                match purpose {
                    Some(Purpose::MtCall(_)) => {
                        // Incoming call: deliver the setup to the MS.
                        let calling = self.calls.get(&call).and_then(|c| c.calling);
                        self.gsm.send(ctx, conn, Dtap::MtSetup { call, calling });
                    }
                    _ => {
                        // Outgoing call: proceed and seize the trunk.
                        self.gsm.send(ctx, conn, Dtap::CallProceeding { call });
                        self.seize_outgoing_trunk(ctx, call);
                    }
                }
            }
            Dtap::ChannelAssignmentFailure { cause } => {
                if let Some(call) = self.conns.get(&conn).and_then(|c| c.call) {
                    ctx.count("msc.assignment_blocked");
                    self.clear_trunks(ctx, call, cause);
                    self.gsm.send(ctx, conn, Dtap::Disconnect { call, cause });
                }
            }
            Dtap::Alerting { call } => {
                // MT call: the MS is ringing; tell the caller.
                if let Some(leg) = self.calls.get(&call).and_then(|s| s.trunk) {
                    send_isup(ctx, leg, call, IsupKind::Acm);
                }
            }
            Dtap::Connect { call } => {
                if let Some(state) = self.calls.get_mut(&call) {
                    state.answered = true;
                    if let Some(leg) = state.trunk {
                        send_isup(ctx, leg, call, IsupKind::Anm);
                    }
                    ctx.count("msc.mt_calls_answered");
                    self.gsm.send(ctx, conn, Dtap::ConnectAck { call });
                }
            }
            Dtap::ConnectAck { .. } => {
                ctx.count("msc.mo_calls_connected");
            }
            Dtap::Disconnect { call, cause } => {
                // MS hangs up: release trunks and finish the radio handshake.
                ctx.count("msc.ms_initiated_release");
                self.clear_trunks(ctx, call, cause);
                self.gsm.send(ctx, conn, Dtap::Release { call });
            }
            Dtap::Release { call } => {
                // MS answered our Disconnect.
                self.gsm.send(ctx, conn, Dtap::ReleaseComplete { call });
                self.gsm.send(ctx, conn, Dtap::ChannelRelease);
                self.drop_call(call);
            }
            Dtap::ReleaseComplete { call } => {
                self.gsm.send(ctx, conn, Dtap::ChannelRelease);
                self.drop_call(call);
            }
            Dtap::MeasurementReport { cell } | Dtap::HandoverRequired { cell } => {
                let call = self.conns.get(&conn).and_then(|c| c.call);
                self.gsm.start_handover(ctx, conn, cell, call);
            }
            Dtap::HandoverComplete { ho_ref } => {
                // We are the TARGET: the MS arrived on our cell.
                let Some(arrival) = self.gsm.handover_complete(ctx, ho_ref) else {
                    return;
                };
                let call = arrival.call;
                let mut state = CallState::new();
                state.conn = Some(conn);
                state.e_leg = Some((arrival.anchor, arrival.cic));
                state.target_role = true;
                self.calls.insert(call, state);
                self.cic_index.insert((arrival.anchor, arrival.cic), call);
                self.open_conn(conn, Some(call), Purpose::MtCall(call));
                self.gsm.bind(conn, arrival.imsi);
            }
            Dtap::VoiceFrame {
                call,
                seq,
                origin_us,
                ..
            } => {
                self.relay_voice_from_radio(ctx, call, seq, origin_us);
            }
            other => self.gsm.relay_up(ctx, conn, other),
        }
    }

    /// Starts a radio transaction on `conn`.
    fn open_conn(&mut self, conn: ConnRef, call: Option<CallId>, purpose: Purpose) {
        self.conns.insert(conn, ConnState { call, purpose });
    }

    fn seize_outgoing_trunk(&mut self, ctx: &mut Context<'_, Message>, call: CallId) {
        let Some(pstn) = self.pstn else {
            ctx.count("msc.no_trunk_route");
            self.clear_radio(ctx, call, Cause::NoRouteToDestination);
            return;
        };
        let cic = self.alloc_cic();
        let Some(state) = self.calls.get_mut(&call) else {
            return;
        };
        state.trunk = Some((pstn, cic));
        let called = state.called.expect("MO call has dialed digits");
        let calling = state.calling;
        self.cic_index.insert((pstn, cic), call);
        ctx.count("msc.trunks_seized");
        send_isup(ctx, (pstn, cic), call, IsupKind::Iam { called, calling });
    }

    // ----------------------------------------------------------------
    // ISUP (trunk side)
    // ----------------------------------------------------------------
    fn handle_isup(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: IsupMessage) {
        let IsupMessage { cic, call, kind } = msg;
        // Circuits, not call ids, identify trunk legs: the same call may
        // touch this node twice (GMSC + serving MSC roles).
        let call = if matches!(kind, IsupKind::Iam { .. }) {
            call
        } else {
            self.canonical_call(from, cic, call)
        };
        match kind {
            IsupKind::Iam { called, calling } => {
                self.cic_index.insert((from, cic), call);
                if called.digits().starts_with(&self.config.msrn_prefix) {
                    // MT call delivery: resolve the roaming number.
                    let mut state = CallState::new();
                    state.trunk = Some((from, cic));
                    state.calling = calling;
                    self.calls.insert(call, state);
                    self.pending_incoming.insert(called, call);
                    ctx.count("msc.mt_calls");
                    ctx.send(
                        self.gsm.vlr(),
                        Message::Map(MapMessage::SendInfoForIncomingCall { msrn: called }),
                    );
                } else if called.digits().starts_with(&self.config.home_prefix) {
                    // GMSC role: interrogate the HLR (tromboning, Fig. 7).
                    let mut state = CallState::new();
                    state.trunk = Some((from, cic));
                    state.called = Some(called);
                    state.calling = calling;
                    self.calls.insert(call, state);
                    self.pending_sri.insert(called, call);
                    ctx.count("msc.gmsc_interrogations");
                    ctx.send(
                        self.hlr,
                        Message::Map(MapMessage::SendRoutingInformation { msisdn: called }),
                    );
                } else {
                    ctx.count("msc.iam_unroutable");
                    let cause = Cause::NoRouteToDestination;
                    send_isup(ctx, (from, cic), call, IsupKind::Rel { cause });
                }
            }
            IsupKind::Acm | IsupKind::Anm => {
                let answered = matches!(kind, IsupKind::Anm);
                let Some(state) = self.calls.get_mut(&call) else {
                    return;
                };
                if answered {
                    state.answered = true;
                }
                if let Some(conn) = state.conn {
                    let dtap = if answered {
                        Dtap::Connect { call }
                    } else {
                        Dtap::Alerting { call }
                    };
                    self.gsm.send(ctx, conn, dtap);
                } else if state.trunk_out == Some((from, cic)) {
                    // Transit: progress arrived on the forwarded leg;
                    // relay to the originating leg under its own id.
                    if let Some(leg) = state.trunk {
                        send_isup(ctx, leg, call, kind);
                    }
                }
            }
            IsupKind::Rel { cause } => {
                send_isup(ctx, (from, cic), call, IsupKind::Rlc);
                // Propagate to the other legs (each under its own id).
                self.clear_trunks_except(ctx, call, cause, Some((from, cic)));
                self.clear_radio(ctx, call, cause);
                if self
                    .calls
                    .get(&call)
                    .map(|s| s.conn.is_none())
                    .unwrap_or(false)
                {
                    self.drop_call(call);
                }
            }
            IsupKind::Rlc => {
                self.cic_index.remove(&(from, cic));
            }
        }
    }

    // ----------------------------------------------------------------
    // MAP (VLR / HLR / peer MSC)
    // ----------------------------------------------------------------
    fn handle_map(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: MapMessage) {
        match msg {
            MapMessage::UpdateLocationAreaAck {
                conn, imsi, tmsi, ..
            } => {
                self.gsm.bind(conn, imsi);
                self.gsm.learn_tmsi(tmsi, imsi);
                ctx.count("msc.registrations_completed");
                self.gsm
                    .send(ctx, conn, Dtap::LocationUpdateAccept { tmsi });
            }
            MapMessage::UpdateLocationAreaReject { conn, cause, .. } => {
                self.gsm
                    .send(ctx, conn, Dtap::LocationUpdateReject { cause });
            }
            MapMessage::ProcessAccessRequestAck {
                conn,
                imsi,
                rejection,
            } => {
                let Some(cs) = self.conns.get(&conn) else {
                    return;
                };
                self.gsm.bind(conn, imsi);
                let purpose = cs.purpose;
                match rejection {
                    Some(cause) => match purpose {
                        Purpose::MtCall(call) => {
                            self.clear_trunks(ctx, call, cause);
                            self.drop_call(call);
                        }
                        _ => self.gsm.send(ctx, conn, Dtap::CmServiceReject { cause }),
                    },
                    None => match purpose {
                        Purpose::MoService => self.gsm.send(ctx, conn, Dtap::CmServiceAccept),
                        Purpose::MtCall(_) => {
                            // Assign the traffic channel; MtSetup follows on
                            // completion (paper step 4.5).
                            self.gsm
                                .send(ctx, conn, Dtap::ChannelAssignment { cell: CellId(0) });
                        }
                        Purpose::Registration => {}
                    },
                }
            }
            MapMessage::SendInfoForOutgoingCallAck {
                conn,
                msisdn,
                rejection,
                ..
            } => {
                let Some(call) = self.conns.get(&conn).and_then(|c| c.call) else {
                    return;
                };
                match rejection {
                    Some(cause) => {
                        ctx.count("msc.mo_calls_denied");
                        self.gsm.send(ctx, conn, Dtap::Disconnect { call, cause });
                    }
                    None => {
                        if let Some(state) = self.calls.get_mut(&call) {
                            state.calling = msisdn;
                        }
                        self.gsm
                            .send(ctx, conn, Dtap::ChannelAssignment { cell: CellId(0) });
                    }
                }
            }
            MapMessage::SendInfoForIncomingCallAck { msrn, subscriber } => {
                let Some(call) = self.pending_incoming.remove(&msrn) else {
                    return;
                };
                match subscriber {
                    Ok(imsi) => {
                        self.paging.insert(imsi, call);
                        ctx.count("msc.pages_sent");
                        ctx.set_timer(PAGING_TIMEOUT, TAG_PAGING | call.0);
                        self.gsm.page(ctx, imsi, None);
                    }
                    Err(cause) => {
                        self.clear_trunks(ctx, call, cause);
                        self.drop_call(call);
                    }
                }
            }
            MapMessage::SendRoutingInformationAck { msisdn, msrn } => {
                let Some(call) = self.pending_sri.remove(&msisdn) else {
                    return;
                };
                match msrn {
                    Ok(roaming_number) => {
                        // Second leg toward the visited network — this is
                        // the second international trunk of Figure 7. The
                        // leg gets its own call id (leg ids are local).
                        let Some(pstn) = self.pstn else {
                            self.clear_trunks(ctx, call, Cause::NoRouteToDestination);
                            self.drop_call(call);
                            return;
                        };
                        let cic = self.alloc_cic();
                        let out_call = self.alloc_leg_call(ctx);
                        let calling = self.calls.get(&call).and_then(|c| c.calling);
                        if let Some(state) = self.calls.get_mut(&call) {
                            state.trunk_out = Some((pstn, cic));
                            state.out_call = Some(out_call);
                        }
                        self.cic_index.insert((pstn, cic), call);
                        ctx.count("msc.gmsc_forwarded");
                        let called = roaming_number;
                        send_isup(
                            ctx,
                            (pstn, cic),
                            out_call,
                            IsupKind::Iam { called, calling },
                        );
                    }
                    Err(cause) => {
                        ctx.count("msc.gmsc_sri_failed");
                        self.clear_trunks(ctx, call, cause);
                        self.drop_call(call);
                    }
                }
            }
            // ---- inter-MSC handoff, target side ----
            MapMessage::PrepareHandover { call, imsi, .. } => {
                let cic = self.alloc_cic();
                self.gsm.prepare_handover(ctx, from, call, imsi, cic);
            }
            // ---- inter-MSC handoff, anchor side ----
            MapMessage::PrepareHandoverAck { call, cic, ho_ref } => {
                let Some(state) = self.calls.get_mut(&call) else {
                    return;
                };
                state.e_leg = Some((from, cic));
                self.cic_index.insert((from, cic), call);
                // The command rides the existing radio connection.
                if let Some(conn) = state.conn {
                    self.gsm.command_handover(ctx, from, conn, ho_ref);
                }
            }
            MapMessage::SendEndSignal { call } => {
                // Anchor: the MS is now on the target; release our radio leg
                // and keep the trunk ↔ E-leg voice path (Figure 9(b)).
                let conn = self.calls.get_mut(&call).and_then(|s| s.conn.take());
                if let Some(cs) = conn.and_then(|c| self.conns.get_mut(&c)) {
                    cs.call = None;
                }
                self.gsm.end_signal(ctx, from, call, conn);
            }
            MapMessage::SendEndSignalAck { .. } => {}
            other => self.gsm.relay_down(ctx, other),
        }
    }

    // ----------------------------------------------------------------
    // Voice relaying
    // ----------------------------------------------------------------
    fn relay_voice_from_radio(
        &mut self,
        ctx: &mut Context<'_, Message>,
        call: CallId,
        seq: u32,
        origin_us: u64,
    ) {
        let Some(state) = self.calls.get(&call) else {
            return;
        };
        // Radio → trunk (MO/MT) or radio → anchor (target role).
        let leg = if state.target_role {
            state.e_leg
        } else {
            state.trunk.or(state.trunk_out)
        };
        if let Some((peer, leg_cic)) = leg {
            ctx.send(
                peer,
                Message::TrunkVoice {
                    cic: leg_cic,
                    call,
                    seq,
                    origin_us,
                },
            );
        }
    }

    fn relay_trunk_voice(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        cic: Cic,
        call: CallId,
        seq: u32,
        origin_us: u64,
    ) {
        let call = self.canonical_call(from, cic, call);
        let Some(state) = self.calls.get(&call) else {
            return;
        };
        // Deliver to the radio leg if we still have one …
        if let Some(conn) = state.conn {
            self.gsm.send(
                ctx,
                conn,
                Dtap::VoiceFrame {
                    call,
                    seq,
                    origin_us,
                    frames: 1,
                },
            );
            return;
        }
        // … otherwise forward between the other legs (anchor after
        // handoff, or transit call), excluding the arriving circuit.
        let legs: Vec<(NodeId, Cic)> = [state.trunk, state.trunk_out, state.e_leg]
            .into_iter()
            .flatten()
            .filter(|leg| *leg != (from, cic))
            .collect();
        for (peer, leg_cic) in legs {
            ctx.send(
                peer,
                Message::TrunkVoice {
                    cic: leg_cic,
                    call,
                    seq,
                    origin_us,
                },
            );
        }
    }
}

impl Node<Message> for GsmMsc {
    fn on_timer(
        &mut self,
        ctx: &mut Context<'_, Message>,
        _token: vgprs_sim::TimerToken,
        tag: u64,
    ) {
        // Paging supervision: tags are namespaced; low bits = call id.
        // If the MS never answered, the trunk is released.
        if tag & TAG_PAGING == 0 {
            return;
        }
        let call = CallId(tag & !TAG_PAGING);
        let still_paging = self.paging.values().any(|&c| c == call);
        if still_paging {
            self.paging.retain(|_, &mut c| c != call);
            ctx.count("msc.paging_timeouts");
            self.clear_trunks(ctx, call, Cause::SubscriberAbsent);
            self.drop_call(call);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            (Interface::A, Message::A { conn, dtap }) => self.handle_a(ctx, from, conn, dtap),
            (Interface::Isup | Interface::E, Message::Isup(m)) => self.handle_isup(ctx, from, m),
            (
                Interface::Isup | Interface::E,
                Message::TrunkVoice {
                    cic,
                    call,
                    seq,
                    origin_us,
                },
            ) => self.relay_trunk_voice(ctx, from, cic, call, seq, origin_us),
            (Interface::B | Interface::C | Interface::E, Message::Map(m)) => {
                self.handle_map(ctx, from, m)
            }
            _ => ctx.count("msc.unexpected_message"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgprs_sim::{Network, ScriptedPeer, SimDuration};
    use vgprs_wire::{MsIdentity, Tmsi};

    /// A page by TMSI is answered by TMSI (GSM 03.20): the response
    /// resolves through the TMSI the VLR allocated at registration and
    /// the access procedure starts.
    #[test]
    fn tmsi_paging_response_is_accepted() {
        let imsi = Imsi::parse("466920000000001").unwrap();
        let msrn = Msisdn::parse("88699900001").unwrap();
        let (tmsi, conn) = (Tmsi(7), ConnRef(0x0001_0002));
        // Link latencies order the script: IAM at 1 ms, the VLR's two
        // answers at 5 ms, the handset's response at 10 ms.
        let scripts = [
            (
                Interface::B,
                5,
                vec![
                    Message::Map(MapMessage::UpdateLocationAreaAck {
                        conn: ConnRef(0x0001_0001),
                        imsi,
                        tmsi: Some(tmsi),
                        msisdn: None,
                    }),
                    Message::Map(MapMessage::SendInfoForIncomingCallAck {
                        msrn,
                        subscriber: Ok(imsi),
                    }),
                ],
            ),
            (
                Interface::Isup,
                1,
                vec![Message::Isup(IsupMessage {
                    cic: Cic(1),
                    call: CallId(9),
                    kind: IsupKind::Iam {
                        called: msrn,
                        calling: None,
                    },
                })],
            ),
            (
                Interface::A,
                10,
                vec![Message::a(
                    conn,
                    Dtap::PagingResponse {
                        identity: MsIdentity::Tmsi(tmsi),
                    },
                )],
            ),
        ];
        let mut net = Network::new(1);
        let peers: Vec<NodeId> = scripts
            .iter()
            .map(|(iface, _, script)| {
                let peer = script.iter().fold(ScriptedPeer::new(), |peer, m| {
                    peer.at(SimDuration::ZERO, m.clone())
                });
                net.add_node(iface, peer)
            })
            .collect();
        let config = MscConfig {
            country_code: "886".into(),
            home_prefix: "8869".into(),
            msrn_prefix: "886999".into(),
        };
        let msc = net.add_node("msc", GsmMsc::new(config, peers[0], peers[0]));
        for (&peer, (iface, ms, _)) in peers.iter().zip(&scripts) {
            let script = net.node_mut::<ScriptedPeer<Message>>(peer).unwrap();
            script.set_target(msc);
            net.connect(peer, msc, *iface, SimDuration::from_millis(*ms));
        }
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("msc.page_response_unknown_tmsi"), 0);
        assert_eq!(net.stats().counter("msc.page_response_unexpected"), 0);
        assert_eq!(net.trace().count_label("MAP_Process_Access_Request"), 1);
    }
}
