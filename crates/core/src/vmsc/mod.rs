//! The VoIP Mobile Switching Center — the paper's contribution.
//!
//! The VMSC replaces a classic GSM MSC (Figure 2(a)): toward the radio
//! network and the location registers it is indistinguishable from an MSC
//! (A/B/C/E interfaces); toward the transport it is radically different —
//! it holds a Gb interface into the GPRS core and behaves like a GPRS MS
//! *on behalf of every registered handset*, and it speaks H.323 like a
//! terminal, registering each handset's MSISDN with the gatekeeper.
//!
//! Per registered MS the VMSC:
//!
//! 1. runs the standard GSM location update with the VLR/HLR (steps
//!    1.1–1.2),
//! 2. performs GPRS attach and activates a low-priority *signaling* PDP
//!    context, obtaining an IP address for the MS (step 1.3),
//! 3. registers (IP address, MSISDN) with the gatekeeper via RAS (steps
//!    1.4–1.5), and only then
//! 4. confirms the location update to the MS (step 1.6).
//!
//! Calls keep the circuit-switched GSM air interface (the real-time
//! guarantee of Section 6) and are transcoded at the VMSC between TCH
//! voice frames and RTP carried through the pre-activated PDP contexts.
//!
//! This file is the node: its tables, the senders every procedure
//! shares, and the router from `(interface, message)` to a procedure.
//! The procedures are the paper's: [`registration`] (§3, Figure 4),
//! [`origination`] (§4, Figure 5), [`termination`] (§5, Figure 6),
//! [`release`] (steps 3.1–3.4 and the supervision expiries) and the
//! [`bridge`] (Figure 2(b)'s vocoder and the Figure 9 handover legs).

mod bridge;
mod origination;
mod registration;
mod release;
mod row;
mod termination;
mod timers;

use row::{CallLeg, CallPhase, TargetLeg};
pub use row::{MsEntry, RegPhase};
use timers::{TimerKey, Timers};
use vgprs_gsm::{GsmSide, SideNames};
use vgprs_sim::{
    Backoff, Context, IdMap, Interface, Node, NodeId, SimDuration, Throttle, TimerToken,
};
use vgprs_wire::{
    CallId, Cause, CellId, Cic, Command, ConnRef, Dtap, GmmMessage, Imsi, IpPacket, IpPayload,
    Ipv4Addr, MapMessage, Message, Nsapi, Q931Kind, Q931Message, QosProfile, RasMessage,
    TransportAddr,
};

/// The names the VMSC's GSM side counts under.
const NAMES: SideNames = SideNames {
    registrations_started: "vmsc.registrations_started",
    page_response_unknown_tmsi: "vmsc.page_response_unknown_tmsi",
    unknown_connection: "vmsc.unknown_connection",
    unhandled_dtap: "vmsc.unhandled_dtap",
    unhandled_map: "vmsc.unhandled_map",
    handover_without_imsi: "vmsc.handover_without_imsi",
    handover_without_call: "vmsc.handover_without_call",
    handover_unknown_cell: "vmsc.handover_unknown_cell",
    handovers_started: "vmsc.handovers_started",
    handover_prepared: "vmsc.handover_prepared",
    handover_complete_unknown_ref: "vmsc.handover_complete_unknown_ref",
    handover_target_completed: "vmsc.handover_target_completed",
    handover_anchored: "vmsc.handover_anchored",
};

/// Well-known port for H.225 call signaling.
const H225_PORT: u16 = 1720;
/// Port the VMSC terminates RTP on, per MS.
const MEDIA_PORT: u16 = 30_000;
/// How long to wait for a paging response before clearing the call.
const PAGING_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// Bounded retry schedule for the RAS registration (RRQ) and admission
/// (ARQ) guards.
const GK_BACKOFF: Backoff = Backoff {
    base: SimDuration::from_millis(1_000),
    factor: 2,
    cap: SimDuration::from_millis(4_000),
    max_attempts: 3,
};
/// How long an MO call may sit between Q.931 Setup and Connect before
/// recovery releases it (resilience mode).
const SETUP_SUPERVISION: SimDuration = SimDuration::from_secs(12);

/// Signaling PDP context NSAPI (paper step 1.3).
fn sig_nsapi() -> Nsapi {
    Nsapi::new(5).expect("5 is a valid NSAPI")
}

/// Voice PDP context NSAPI (paper steps 2.9 / 4.8).
fn voice_nsapi() -> Nsapi {
    Nsapi::new(6).expect("6 is a valid NSAPI")
}

/// Configuration for a [`Vmsc`].
#[derive(Clone, Debug)]
pub struct VmscConfig {
    /// Country code of the serving network.
    pub country_code: String,
    /// The gatekeeper's RAS transport address.
    pub gk: TransportAddr,
    /// The ablation the paper names but rejects (Section 6): tear the
    /// signaling PDP context down while the MS is idle and re-activate
    /// it per call. Mobile-originated calls then pay an extra activation
    /// round trip; mobile-terminated delivery is not supported in this
    /// mode (it would need the TR's static addresses). Default `false`.
    pub deactivate_idle_contexts: bool,
    /// Arm recovery guard timers (RAS/ARQ retry with bounded backoff,
    /// setup supervision) and rebuild MS entries from VLR answers after
    /// a restart. Off by default: the guards add timer events, so
    /// fault-free runs keep their historical event streams.
    pub resilience: bool,
    /// Overload control: maximum pages broadcast per simulated second.
    /// Excess pages are deferred to the next one-second window through a
    /// bounded queue (twice the rate); overflow sheds the call with a
    /// network-congestion release. `0` disables the throttle and keeps
    /// the historical page-immediately behavior.
    pub paging_rate_per_s: u32,
}

/// The VMSC node.
#[derive(Debug)]
pub struct Vmsc {
    config: VmscConfig,
    /// The MSC toward the radio network and the VLR (Figure 2(a)).
    gsm: GsmSide,
    sgsn: NodeId,
    /// The MS table (paper Section 2): one row per handset.
    ms_table: IdMap<Imsi, MsEntry>,
    by_addr: IdMap<Ipv4Addr, Imsi>,
    /// Calls handed over to this VMSC (Figure 9, target side).
    visiting: IdMap<CallId, TargetLeg>,
    /// Anchor side: whose leg a target MSC means by a call, which is all
    /// its E-interface messages name. Written when the handover starts.
    handed_over: IdMap<(NodeId, CallId), Imsi>,
    next_crv: u16,
    next_cic: u16,
    /// Every armed guard and supervision timer.
    timers: Timers,
    /// Overload control on the page broadcast: admitted MT calls whose
    /// page waits for a later one-second window.
    paging: Throttle<(Imsi, CallId)>,
    /// Fault injection: while true (crashed or blackholed) the node
    /// silently drops every protocol message and timer.
    down: bool,
}

impl Vmsc {
    /// Creates a VMSC wired to its VLR and SGSN.
    pub fn new(config: VmscConfig, vlr: NodeId, sgsn: NodeId) -> Self {
        Vmsc {
            gsm: GsmSide::new(&NAMES, vlr, &config.country_code),
            paging: Throttle::new(config.paging_rate_per_s),
            config,
            sgsn,
            ms_table: IdMap::default(),
            by_addr: IdMap::default(),
            visiting: IdMap::default(),
            handed_over: IdMap::default(),
            next_crv: 0,
            next_cic: 0,
            timers: Timers::default(),
            down: false,
        }
    }

    /// Registers a subordinate BSC.
    pub fn register_bsc(&mut self, bsc: NodeId) {
        self.gsm.register_bsc(bsc);
    }

    /// Declares that `cell` belongs to the neighboring MSC `msc` (E
    /// interface required).
    pub fn add_neighbor_cell(&mut self, cell: CellId, msc: NodeId) {
        self.gsm.add_neighbor_cell(cell, msc);
    }

    /// The MS table entry for a subscriber.
    pub fn ms_entry(&self, imsi: &Imsi) -> Option<&MsEntry> {
        self.ms_table.get(imsi)
    }

    /// Number of fully registered MSs.
    pub fn registered_count(&self) -> usize {
        self.ms_table
            .values()
            .filter(|e| e.phase == RegPhase::Registered)
            .count()
    }

    /// Number of call legs currently held: one per MS in a call, plus
    /// the calls handed over to this VMSC.
    pub fn active_calls(&self) -> usize {
        self.ms_table.values().filter(|e| e.leg.is_some()).count() + self.visiting.len()
    }

    // ----------------------------------------------------------------
    // what every procedure shares
    // ----------------------------------------------------------------

    /// The row of the MS on `conn` — how every message from the radio
    /// side finds its row.
    fn row_on(&mut self, conn: ConnRef) -> Option<&mut MsEntry> {
        self.ms_table.get_mut(&self.gsm.imsi_of(conn)?)
    }

    /// The leg of the MS on `conn`, if it is the call `call` names.
    fn leg_on(&mut self, conn: ConnRef, call: CallId) -> Option<(Imsi, &mut CallLeg)> {
        let entry = self.row_on(conn)?;
        Some((entry.imsi, entry.leg_mut(call)?))
    }

    /// The leg of `imsi`, if it is the call `call` names — how every
    /// H.323 message finds its leg.
    fn leg_of(&mut self, imsi: &Imsi, call: CallId) -> Option<&mut CallLeg> {
        self.ms_table.get_mut(imsi)?.leg_mut(call)
    }

    /// A message no state of its procedure has an arm for: counted, then
    /// ignored.
    fn out_of_state(ctx: &mut Context<'_, Message>) {
        ctx.count("vmsc.out_of_state");
    }

    fn send_a_to_ms(&self, ctx: &mut Context<'_, Message>, imsi: &Imsi, dtap: Dtap) {
        if let Some(conn) = self.ms_table.get(imsi).and_then(|e| e.conn) {
            self.gsm.send(ctx, conn, dtap);
        }
    }

    /// Sends an IP packet on the MS's signaling PDP context (the path the
    /// paper's Figure 3 shows as links (4)(3)(2)).
    fn send_ip_for(
        &self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        src_port: u16,
        dst: TransportAddr,
        payload: IpPayload,
    ) {
        let Some(src) = self.addr_for(&imsi, src_port) else {
            ctx.count("vmsc.send_without_context");
            return;
        };
        let inner = Box::new(IpPacket::new(src, dst, payload));
        ctx.send(
            self.sgsn,
            Message::Llc {
                imsi,
                nsapi: sig_nsapi(),
                inner,
            },
        );
    }

    fn send_ras(&self, ctx: &mut Context<'_, Message>, imsi: Imsi, ras: RasMessage) {
        let gk = self.config.gk;
        self.send_ip_for(ctx, imsi, 1719, gk, IpPayload::Ras(ras));
    }

    /// Sends `kind` to the far end of the MS's leg, once it is known.
    fn send_q931(&self, ctx: &mut Context<'_, Message>, imsi: Imsi, kind: Q931Kind) {
        let Some(leg) = self.ms_table.get(&imsi).and_then(|e| e.leg.as_deref()) else {
            return;
        };
        if let Some(dst) = leg.remote_signal {
            let q = Q931Message {
                crv: leg.crv,
                call: leg.id,
                kind,
            };
            self.send_ip_for(ctx, imsi, H225_PORT, dst, IpPayload::Q931(q));
        }
    }

    /// Asks the SGSN for a PDP context: the signaling one an MS keeps
    /// while registered (step 1.3), or the voice one of a call (steps
    /// 2.9 / 4.8).
    fn activate_pdp(
        &self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        nsapi: Nsapi,
        qos: QosProfile,
    ) {
        let request = GmmMessage::ActivatePdpContextRequest {
            imsi,
            nsapi,
            qos,
            static_addr: None,
        };
        ctx.send(self.sgsn, Message::Gmm(request));
    }

    fn deactivate_pdp(&self, ctx: &mut Context<'_, Message>, imsi: Imsi, nsapi: Nsapi) {
        ctx.send(
            self.sgsn,
            Message::Gmm(GmmMessage::DeactivatePdpContextRequest { imsi, nsapi }),
        );
    }

    /// The MS's signaling address on `port`.
    fn addr_for(&self, imsi: &Imsi, port: u16) -> Option<TransportAddr> {
        let addr = self.ms_table.get(imsi)?.signaling_addr?;
        Some(TransportAddr::new(addr, port))
    }

    // ----------------------------------------------------------------
    // the router: (interface, message) → procedure
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
            Dtap::VoiceFrame {
                call,
                seq,
                origin_us,
            } => self.uplink_voice(ctx, conn, call, seq, origin_us),
            Dtap::LocationUpdateRequest { identity, lai } => {
                self.location_update(ctx, conn, identity, lai)
            }
            Dtap::CmServiceRequest { identity } => self.gsm.request_access(ctx, conn, identity),
            Dtap::Setup { call, called } => self.mo_setup(ctx, conn, call, called),
            Dtap::ConnectAck { call } => self.mo_connected(ctx, conn, call),
            Dtap::PagingResponse { identity } => self.paging_response(ctx, conn, identity),
            Dtap::Alerting { call } => self.mt_progress(ctx, conn, call, false),
            Dtap::Connect { call } => self.mt_progress(ctx, conn, call, true),
            Dtap::ChannelAssignmentComplete => self.channel_assigned(ctx, conn),
            Dtap::ChannelAssignmentFailure { cause } => self.assignment_failed(ctx, conn, cause),
            Dtap::Disconnect { call, cause } => self.ms_clearing(ctx, conn, call, Some(cause)),
            Dtap::Release { call } => self.ms_clearing(ctx, conn, call, None),
            Dtap::ReleaseComplete { .. } => self.gsm.send(ctx, conn, Dtap::ChannelRelease),
            Dtap::MeasurementReport { cell } | Dtap::HandoverRequired { cell } => {
                self.handover_required(ctx, conn, cell)
            }
            Dtap::HandoverComplete { ho_ref } => self.handover_arrival(ctx, conn, ho_ref),
            other => self.gsm.relay_up(ctx, conn, other),
        }
    }

    /// MAP from the VLR (B) and from peer MSCs (E).
    fn handle_map(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: MapMessage) {
        match msg {
            MapMessage::UpdateLocationAreaAck {
                conn,
                imsi,
                tmsi,
                msisdn,
            } => self.location_updated(ctx, conn, imsi, tmsi, msisdn),
            MapMessage::UpdateLocationAreaReject { conn, cause, .. } => {
                ctx.count("vmsc.registration_rejected");
                self.gsm
                    .send(ctx, conn, Dtap::LocationUpdateReject { cause });
            }
            MapMessage::ProcessAccessRequestAck {
                conn,
                imsi,
                rejection,
            } => self.access_answered(ctx, conn, imsi, rejection),
            MapMessage::SendInfoForOutgoingCallAck {
                conn, rejection, ..
            } => self.mo_authorized(ctx, conn, rejection),
            MapMessage::PrepareHandover { call, imsi, .. } => {
                self.next_cic += 1;
                let cic = Cic(40_000 + self.next_cic);
                self.gsm.prepare_handover(ctx, from, call, imsi, cic);
            }
            MapMessage::PrepareHandoverAck { call, cic, ho_ref } => {
                self.handover_prepared(ctx, from, call, cic, ho_ref)
            }
            MapMessage::SendEndSignal { call } => self.handover_anchored(ctx, from, call),
            MapMessage::SendEndSignalAck { .. } => {}
            MapMessage::PurgeMs { imsi } => self.purge_ms(ctx, imsi),
            other => self.gsm.relay_down(ctx, other),
        }
    }

    /// Gb: GMM/SM answers from the SGSN.
    fn handle_gmm(&mut self, ctx: &mut Context<'_, Message>, msg: GmmMessage) {
        match msg {
            GmmMessage::AttachAccept { imsi, .. } => self.attached(ctx, imsi),
            GmmMessage::AttachReject { imsi, cause } => {
                ctx.count("vmsc.attach_rejected");
                self.fail_registration(ctx, imsi, cause);
            }
            GmmMessage::ActivatePdpContextAccept {
                imsi, nsapi, addr, ..
            } => {
                if nsapi == sig_nsapi() {
                    self.signaling_context_up(ctx, imsi, addr);
                } else {
                    self.voice_context_up(ctx, imsi, addr);
                }
            }
            GmmMessage::ActivatePdpContextReject { imsi, nsapi, cause } => {
                ctx.count("vmsc.pdp_rejected");
                if nsapi == sig_nsapi() {
                    self.fail_registration(ctx, imsi, cause);
                }
            }
            GmmMessage::DeactivatePdpContextAccept { .. } => {}
            _ => ctx.count("vmsc.unhandled_gmm"),
        }
    }

    /// Downlink IP (LLC) from the SGSN: H.323 for the MS whose PDP
    /// address it names.
    fn handle_downlink_ip(&mut self, ctx: &mut Context<'_, Message>, packet: IpPacket) {
        let Some(&imsi) = self.by_addr.get(&packet.dst.ip) else {
            ctx.count("vmsc.downlink_unknown_addr");
            return;
        };
        match packet.payload {
            IpPayload::Rtp(rtp) => self.downlink_voice(ctx, imsi, rtp),
            IpPayload::Ras(ras) => match ras {
                RasMessage::Rcf { .. } => self.ras_registered(ctx, imsi),
                RasMessage::Rrj { .. } => {
                    ctx.count("vmsc.ras_rejected");
                    self.fail_registration(ctx, imsi, Cause::AdmissionRejected);
                }
                RasMessage::Acf {
                    call,
                    dest_call_signal_addr,
                } => self.admitted(ctx, imsi, call, dest_call_signal_addr),
                RasMessage::Arj { call, cause } => self.admission_rejected(ctx, imsi, call, cause),
                RasMessage::Dcf { .. } => {}
                _ => ctx.count("vmsc.unhandled_ras"),
            },
            IpPayload::Q931(q) => match q.kind {
                Q931Kind::Setup {
                    calling,
                    signal_addr,
                    media_addr,
                    ..
                } => {
                    let mut leg = CallLeg::new(q.call, CallPhase::MtAdmission, q.crv, ctx.now());
                    leg.party = calling;
                    leg.remote_signal = Some(signal_addr);
                    leg.remote_media = Some(media_addr);
                    self.incoming_setup(ctx, imsi, packet.src, leg)
                }
                Q931Kind::CallProceeding => ctx.count("vmsc.call_proceeding"),
                Q931Kind::Alerting | Q931Kind::Connect { .. } => {
                    self.mo_progress(ctx, imsi, q.call, q.kind)
                }
                Q931Kind::ReleaseComplete { cause } => {
                    self.remote_release(ctx, imsi, q.call, cause)
                }
            },
        }
    }

    /// Total state loss: MS table, calls, handoffs, and every timer —
    /// forgotten, not cancelled, so the armed ones still fire into a node
    /// that no longer knows them. The VLR/HLR keep their copies, which is
    /// what cold-start recovery rebuilds from (resilience mode).
    fn crash(&mut self, ctx: &mut Context<'_, Message>) {
        self.ms_table.clear();
        self.gsm.reset();
        self.by_addr.clear();
        self.visiting.clear();
        self.handed_over.clear();
        self.timers = Timers::default();
        self.paging.reset(ctx);
        self.down = true;
        ctx.count("vmsc.crashes");
    }
}

impl Node<Message> for Vmsc {
    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, token: TimerToken, _tag: u64) {
        if self.paging.is_tick(token) {
            // The tick is consumed even while down, so the throttle can
            // re-arm after a restore.
            self.paging.tick(ctx.now());
            if !self.down {
                self.drain_paging_queue(ctx);
            }
            return;
        }
        // A crashed node's pending timers must not act.
        if self.down {
            return;
        }
        match self.timers.fired(token) {
            Some((TimerKey::Paging(imsi, call), _)) => self.paging_expired(ctx, imsi, call),
            Some((TimerKey::Ras(imsi), guard)) => self.ras_guard_expired(ctx, imsi, guard),
            Some((TimerKey::Leg(imsi), guard)) => self.leg_guard_expired(ctx, imsi, guard),
            // Armed before a crash, which forgot it.
            None => {}
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
            (Interface::Internal, Message::Cmd(Command::Crash)) => self.crash(ctx),
            (Interface::Internal, Message::Cmd(Command::Blackhole)) => {
                self.down = true;
                ctx.count("vmsc.blackholes");
            }
            (Interface::Internal, Message::Cmd(Command::Restore)) => {
                self.down = false;
            }
            (Interface::Internal, Message::Cmd(Command::Resync)) => self.resync(ctx),
            _ if self.down => ctx.count("vmsc.dropped_while_down"),
            (Interface::A, Message::A { conn, dtap }) => self.handle_a(ctx, from, conn, dtap),
            (Interface::B | Interface::C | Interface::E, Message::Map(m)) => {
                self.handle_map(ctx, from, m)
            }
            (Interface::Gb, Message::Gmm(m)) => self.handle_gmm(ctx, m),
            (Interface::Gb, Message::Llc { inner, .. }) => self.handle_downlink_ip(ctx, *inner),
            (
                Interface::E,
                Message::TrunkVoice {
                    call,
                    seq,
                    origin_us,
                    ..
                },
            ) => self.trunk_voice(ctx, from, call, seq, origin_us),
            _ => ctx.count("vmsc.unexpected_message"),
        }
    }

    /// The vocoder/PCU bridge maps a frame between the radio leg and the
    /// RTP or trunk leg from the MS table alone.
    fn pure_relay(&self) -> bool {
        true
    }
}
