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

use std::collections::HashMap;

use vgprs_gsm::{GsmSide, SideNames};
use vgprs_sim::{Backoff, Context, Interface, Node, NodeId, SimDuration, SimTime, TimerToken};
use vgprs_wire::{
    CallId, Cause, CellId, Cic, Command, ConnRef, Crv, Dtap, GmmMessage, Imsi, IpPacket,
    IpPayload, Ipv4Addr, MapMessage, Message, MsIdentity, Msisdn, Nsapi, Q931Kind, Q931Message,
    QosProfile, RasMessage, RtpPacket, Tmsi, TransportAddr, PAYLOAD_TYPE_GSM,
};

/// The names the VMSC's GSM side counts under.
const NAMES: SideNames = SideNames {
    registrations_started: "vmsc.registrations_started",
    page_response_unknown_tmsi: "vmsc.page_response_unknown_tmsi",
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
/// How long to wait for a paging response before clearing the call.
const PAGING_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// Timer tags are namespaced by their top four bits; the low
/// [`TAG_SHIFT`] bits carry a call id or guard id.
const TAG_SHIFT: u32 = 60;
/// Mask extracting a tag's payload (call id / guard id).
const TAG_MASK: u64 = (1 << TAG_SHIFT) - 1;
/// RAS registration guard (resilience mode).
const NS_RAS: u64 = 2;
/// Admission (ARQ) guard (resilience mode).
const NS_ARQ: u64 = 3;
/// Paging supervision. `4 << TAG_SHIFT` equals the historical
/// `1 << 62` namespace bit, so existing traces keep their tags.
const NS_PAGING: u64 = 4;
/// Q.931 setup supervision (resilience mode).
const NS_SETUP: u64 = 5;
/// Paging-throttle drain tick (overload control; no payload).
const NS_PAGING_DRAIN: u64 = 6;
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
/// Port the VMSC terminates RTP on, per MS.
const MEDIA_PORT: u16 = 30_000;

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

/// A gatekeeper-request guard (resilience mode): the retry ladder of one
/// RRQ or ARQ.
#[derive(Clone, Copy, Debug)]
struct GkGuard {
    /// RAS guards: the id carried in the timer tag (maps back to the
    /// IMSI). Admission guards are tagged by call id and leave it 0.
    id: u64,
    /// Retries already sent.
    attempts: u32,
    /// The armed guard timer.
    token: TimerToken,
    /// When the first request of this ladder went out.
    first_at: SimTime,
}

impl GkGuard {
    /// The guard of a request that just went out for the first time.
    fn armed(id: u64, token: TimerToken, now: SimTime) -> GkGuard {
        GkGuard {
            id,
            attempts: 0,
            token,
            first_at: now,
        }
    }

    /// The same ladder one retry further, under a fresh timer.
    fn retried(self, id: u64, token: TimerToken) -> GkGuard {
        GkGuard {
            id,
            attempts: self.attempts + 1,
            token,
            ..self
        }
    }
}

/// Registration progress of one MS (paper Section 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegPhase {
    /// GSM location update running with the VLR (steps 1.1–1.2).
    GsmUpdating,
    /// GPRS attach in progress (step 1.3).
    Attaching,
    /// Signaling PDP context activating (step 1.3).
    ActivatingSignalingContext,
    /// RAS registration outstanding (steps 1.4–1.5).
    RasRegistering,
    /// Fully registered; LU accept sent (step 1.6).
    Registered,
}

/// Call progress of one MS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CallPhase {
    /// MO: waiting for the VLR's outgoing-call authorization (step 2.2).
    MoAuthorizing,
    /// MO: waiting for the traffic channel (step 2.1 box).
    MoAssigning,
    /// MO: ARQ sent (step 2.3).
    MoAdmission,
    /// MO: Setup sent, waiting for progress (step 2.4+).
    MoProgress,
    /// MT: ARQ (answering) sent (step 4.3).
    MtAdmission,
    /// MT: paging the MS (step 4.4).
    MtPaging,
    /// MT: access + channel assignment running (step 4.5).
    MtAccess,
    /// MT: MS is ringing (step 4.6).
    MtRinging,
    /// Connected; voice context activating or active (steps 2.9 / 4.8).
    Active,
}

/// Everything the VMSC holds per call.
#[derive(Debug)]
struct VmscCall {
    imsi: Imsi,
    phase: CallPhase,
    crv: Crv,
    remote_signal: Option<TransportAddr>,
    remote_media: Option<TransportAddr>,
    /// Pending dialed number (MO, before Setup goes out).
    called: Option<Msisdn>,
    /// Calling party (MT).
    calling: Option<Msisdn>,
    started_at: SimTime,
    connected_at: Option<SimTime>,
    /// MT: when paging went out (for the paging-latency KPI).
    paged_at: Option<SimTime>,
    /// When the voice PDP context was requested (for the activation KPI).
    voice_pdp_requested_at: Option<SimTime>,
    rtp_seq: u16,
    /// Inter-MSC leg after handoff (anchor side), or toward the anchor
    /// (target side).
    e_leg: Option<(NodeId, Cic)>,
    /// Set if this VMSC is the handoff *target* for the call: the radio
    /// connection the MS arrived on.
    target_conn: Option<ConnRef>,
    /// Outstanding admission guard (resilience mode).
    arq_guard: Option<GkGuard>,
    /// Outstanding setup supervision timer (resilience mode).
    setup_guard: Option<TimerToken>,
}

impl VmscCall {
    /// A call in `phase` with nothing known about the far end yet.
    fn new(imsi: Imsi, phase: CallPhase, crv: Crv, now: SimTime) -> VmscCall {
        VmscCall {
            imsi,
            phase,
            crv,
            remote_signal: None,
            remote_media: None,
            called: None,
            calling: None,
            started_at: now,
            connected_at: None,
            paged_at: None,
            voice_pdp_requested_at: None,
            rtp_seq: 0,
            e_leg: None,
            target_conn: None,
            arq_guard: None,
            setup_guard: None,
        }
    }
}

/// The per-MS entry of the paper's "MS table" (Section 2): MM context +
/// PDP contexts + H.323 state.
#[derive(Debug)]
pub struct MsEntry {
    /// Subscriber identity.
    pub imsi: Imsi,
    /// Dialable number; the H.323 alias (known after the VLR answers).
    pub msisdn: Option<Msisdn>,
    /// TMSI allocated by the VLR.
    pub tmsi: Option<Tmsi>,
    /// Registration progress.
    pub phase: RegPhase,
    /// PDP address of the signaling context (step 1.3).
    pub signaling_addr: Option<Ipv4Addr>,
    /// PDP address of the per-call voice context (steps 2.9/4.8).
    pub voice_addr: Option<Ipv4Addr>,
    /// Current radio connection.
    conn: Option<ConnRef>,
    /// Current call.
    call: Option<CallId>,
    /// When registration started (for the latency histograms).
    reg_started: SimTime,
    /// Outstanding RAS registration guard (resilience mode).
    ras_guard: Option<GkGuard>,
}

impl MsEntry {
    /// An MS whose location update just started: no contexts, no call.
    fn new(imsi: Imsi, conn: Option<ConnRef>, now: SimTime) -> MsEntry {
        MsEntry {
            imsi,
            msisdn: None,
            tmsi: None,
            phase: RegPhase::GsmUpdating,
            signaling_addr: None,
            voice_addr: None,
            conn,
            call: None,
            reg_started: now,
            ras_guard: None,
        }
    }
}

/// The VMSC node.
#[derive(Debug)]
pub struct Vmsc {
    config: VmscConfig,
    /// The MSC toward the radio network and the VLR (Figure 2(a)).
    gsm: GsmSide,
    sgsn: NodeId,
    /// The MS table (paper Section 2).
    ms_table: HashMap<Imsi, MsEntry>,
    by_addr: HashMap<Ipv4Addr, Imsi>,
    calls: HashMap<CallId, VmscCall>,
    /// MO calls waiting for the signaling context to come back up
    /// (idle-deactivation ablation only).
    awaiting_context: Vec<(Imsi, CallId)>,
    next_crv: u16,
    next_cic: u16,
    /// Guard-id → IMSI lookup for RAS guard timer tags.
    ras_guard_imsi: HashMap<u64, Imsi>,
    next_guard: u64,
    /// Paging throttle: index of the one-second window pages were last
    /// counted in (simulated milliseconds / 1000).
    paging_window: u64,
    /// Pages broadcast in the current window.
    paging_sent_in_window: u32,
    /// Calls whose page is deferred to a later window, with the time
    /// each entered the queue (for the throttle-delay KPI).
    paging_queue: std::collections::VecDeque<(CallId, SimTime)>,
    /// The armed drain tick, if any.
    paging_drain: Option<TimerToken>,
    /// Fault injection: while true (crashed or blackholed) the node
    /// silently drops every protocol message and timer.
    down: bool,
}

impl Vmsc {
    /// Creates a VMSC wired to its VLR and SGSN.
    pub fn new(config: VmscConfig, vlr: NodeId, sgsn: NodeId) -> Self {
        Vmsc {
            gsm: GsmSide::new(&NAMES, vlr, &config.country_code),
            config,
            sgsn,
            ms_table: HashMap::new(),
            by_addr: HashMap::new(),
            calls: HashMap::new(),
            awaiting_context: Vec::new(),
            next_crv: 0,
            next_cic: 0,
            ras_guard_imsi: HashMap::new(),
            next_guard: 0,
            paging_window: 0,
            paging_sent_in_window: 0,
            paging_queue: std::collections::VecDeque::new(),
            paging_drain: None,
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

    /// Number of calls currently tracked.
    pub fn active_calls(&self) -> usize {
        self.calls.len()
    }

    // ----------------------------------------------------------------
    // helpers
    // ----------------------------------------------------------------

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
        let Some(addr) = self.ms_table.get(&imsi).and_then(|e| e.signaling_addr) else {
            ctx.count("vmsc.send_without_context");
            return;
        };
        let src = TransportAddr::new(addr, src_port);
        ctx.send(
            self.sgsn,
            Message::Llc {
                imsi,
                nsapi: sig_nsapi(),
                inner: Box::new(IpPacket::new(src, dst, payload)),
            },
        );
    }

    fn send_ras(&self, ctx: &mut Context<'_, Message>, imsi: Imsi, ras: RasMessage) {
        let gk = self.config.gk;
        self.send_ip_for(ctx, imsi, 1719, gk, IpPayload::Ras(ras));
    }

    /// (Re-)sends the registration RRQ for an MS from its current alias
    /// and signaling address; false when it has not got both yet.
    fn send_rrq(&self, ctx: &mut Context<'_, Message>, imsi: Imsi) -> bool {
        let alias = self.ms_table.get(&imsi).and_then(|e| e.msisdn);
        let transport = self.signal_addr_for(&imsi);
        let (Some(alias), Some(transport)) = (alias, transport) else {
            return false;
        };
        self.send_ras(ctx, imsi, RasMessage::Rrq { alias, transport, imsi: None });
        true
    }

    /// Asks the gatekeeper to admit one 160-unit voice call.
    fn send_arq(
        &self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        call: CallId,
        called: Msisdn,
        answering: bool,
    ) {
        self.send_ras(ctx, imsi, RasMessage::Arq { call, called, answering, bandwidth: 160 });
    }

    fn deactivate_pdp(&self, ctx: &mut Context<'_, Message>, imsi: Imsi, nsapi: Nsapi) {
        ctx.send(
            self.sgsn,
            Message::Gmm(GmmMessage::DeactivatePdpContextRequest { imsi, nsapi }),
        );
    }

    /// Arms (or re-arms from scratch) the RAS registration guard for an
    /// MS whose RRQ just went out. Resilience mode only.
    fn arm_ras_guard(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi) {
        if !self.config.resilience {
            return;
        }
        if let Some(old) = self.ms_table.get(&imsi).and_then(|e| e.ras_guard) {
            ctx.cancel_timer(old.token);
            self.ras_guard_imsi.remove(&old.id);
        }
        let delay = GK_BACKOFF
            .delay(0)
            .expect("RAS schedule allows a first wait");
        self.next_guard += 1;
        let id = self.next_guard;
        let token = ctx.set_timer(delay, (NS_RAS << TAG_SHIFT) | id);
        match self.ms_table.get_mut(&imsi) {
            Some(entry) => {
                entry.ras_guard = Some(GkGuard::armed(id, token, ctx.now()));
                self.ras_guard_imsi.insert(id, imsi);
            }
            None => ctx.cancel_timer(token),
        }
    }

    /// Drops an MS's RAS guard, if any, returning it for KPI accounting.
    fn clear_ras_guard(&mut self, ctx: &mut Context<'_, Message>, imsi: &Imsi) -> Option<GkGuard> {
        let guard = self.ms_table.get_mut(imsi).and_then(|e| e.ras_guard.take())?;
        ctx.cancel_timer(guard.token);
        self.ras_guard_imsi.remove(&guard.id);
        Some(guard)
    }

    /// Arms the admission guard for a call whose ARQ just went out.
    /// Resilience mode only.
    fn arm_arq_guard(&mut self, ctx: &mut Context<'_, Message>, call: CallId) {
        if !self.config.resilience {
            return;
        }
        let delay = GK_BACKOFF
            .delay(0)
            .expect("ARQ schedule allows a first wait");
        let token = ctx.set_timer(delay, (NS_ARQ << TAG_SHIFT) | call.0);
        match self.calls.get_mut(&call) {
            Some(state) => {
                if let Some(old) = state.arq_guard.take() {
                    ctx.cancel_timer(old.token);
                }
                state.arq_guard = Some(GkGuard::armed(0, token, ctx.now()));
            }
            None => ctx.cancel_timer(token),
        }
    }

    /// RAS guard expiry: retry the RRQ with exponential backoff, or give
    /// up with a temporary-failure reject once the ladder is exhausted.
    fn ras_guard_expired(&mut self, ctx: &mut Context<'_, Message>, id: u64) {
        let Some(imsi) = self.ras_guard_imsi.remove(&id) else {
            return;
        };
        let guard = {
            let Some(entry) = self.ms_table.get_mut(&imsi) else {
                return;
            };
            match entry.ras_guard {
                Some(g) if g.id == id => {
                    entry.ras_guard = None;
                    if entry.phase != RegPhase::RasRegistering {
                        return; // registration moved on; nothing to guard
                    }
                    g
                }
                _ => return, // superseded by a newer ladder
            }
        };
        match GK_BACKOFF.delay(guard.attempts + 1) {
            Some(delay) => {
                ctx.count("vmsc.ras_retries");
                self.next_guard += 1;
                let nid = self.next_guard;
                let token = ctx.set_timer(delay, (NS_RAS << TAG_SHIFT) | nid);
                if let Some(entry) = self.ms_table.get_mut(&imsi) {
                    entry.ras_guard = Some(guard.retried(nid, token));
                }
                self.ras_guard_imsi.insert(nid, imsi);
                self.send_rrq(ctx, imsi);
            }
            None => {
                ctx.count("vmsc.ras_recovery_failed");
                self.fail_registration(ctx, imsi, Cause::TemporaryFailure);
            }
        }
    }

    /// ARQ guard expiry: retry the admission request with exponential
    /// backoff, or release the call with a temporary-failure cause.
    fn arq_guard_expired(&mut self, ctx: &mut Context<'_, Message>, call: CallId) {
        let (imsi, phase, guard, called) = {
            let Some(state) = self.calls.get_mut(&call) else {
                return;
            };
            let Some(guard) = state.arq_guard.take() else {
                return;
            };
            (state.imsi, state.phase, guard, state.called)
        };
        let answering = match phase {
            CallPhase::MoAdmission => false,
            CallPhase::MtAdmission => true,
            _ => return, // admission already answered; stale guard
        };
        match GK_BACKOFF.delay(guard.attempts + 1) {
            Some(delay) => {
                ctx.count("vmsc.arq_retries");
                let token = ctx.set_timer(delay, (NS_ARQ << TAG_SHIFT) | call.0);
                if let Some(state) = self.calls.get_mut(&call) {
                    state.arq_guard = Some(guard.retried(0, token));
                }
                let target = if answering {
                    self.ms_table.get(&imsi).and_then(|e| e.msisdn)
                } else {
                    called
                };
                if let Some(target) = target {
                    self.send_arq(ctx, imsi, call, target, answering);
                }
            }
            None => {
                ctx.count("vmsc.arq_recovery_failed");
                let cause = Cause::TemporaryFailure;
                let has_remote = self
                    .calls
                    .get(&call)
                    .map(|s| s.remote_signal.is_some())
                    .unwrap_or(false);
                if has_remote {
                    self.send_q931(ctx, call, Q931Kind::ReleaseComplete { cause });
                }
                self.send_a_to_ms(ctx, &imsi, Dtap::Disconnect { call, cause });
                if let Some(state) = self.calls.remove(&call) {
                    if let Some(token) = state.setup_guard {
                        ctx.cancel_timer(token);
                    }
                }
                if let Some(e) = self.ms_table.get_mut(&imsi) {
                    e.call = None;
                }
            }
        }
    }

    /// Setup supervision expiry: the MO call never connected; release
    /// both legs with the recovery-on-timer-expiry cause.
    fn setup_guard_expired(&mut self, ctx: &mut Context<'_, Message>, call: CallId) {
        let Some(state) = self.calls.get_mut(&call) else {
            return;
        };
        state.setup_guard = None;
        if state.phase != CallPhase::MoProgress {
            return;
        }
        let imsi = state.imsi;
        ctx.count("vmsc.setup_supervision_expired");
        let cause = Cause::RecoveryOnTimerExpiry;
        self.send_q931(ctx, call, Q931Kind::ReleaseComplete { cause });
        self.send_a_to_ms(ctx, &imsi, Dtap::Disconnect { call, cause });
        self.finish_call(ctx, call);
    }

    // ----------------------------------------------------------------
    // Paging throttle (overload control)
    // ----------------------------------------------------------------

    /// Step 4.4: broadcast the page for an admitted MT call and start
    /// the paging supervision timer.
    fn page_ms(&mut self, ctx: &mut Context<'_, Message>, call: CallId, imsi: Imsi) {
        if let Some(state) = self.calls.get_mut(&call) {
            state.phase = CallPhase::MtPaging;
            state.paged_at = Some(ctx.now());
        }
        ctx.set_timer(PAGING_TIMEOUT, (NS_PAGING << TAG_SHIFT) | call.0);
        ctx.note("Step 4.4: page the MS");
        ctx.count("vmsc.pages_sent");
        let tmsi = self.ms_table.get(&imsi).and_then(|e| e.tmsi);
        ctx.count(match tmsi {
            Some(_) => "vmsc.paged_by_tmsi",
            None => "vmsc.paged_by_imsi",
        });
        self.gsm.page(ctx, imsi, tmsi);
    }

    /// Pages immediately while the current one-second window has budget,
    /// defers behind the bounded queue otherwise, and sheds with a
    /// network-congestion release once the queue is full. The queue gate
    /// keeps deferral FIFO: new admissions never overtake a backlog.
    fn page_or_defer(&mut self, ctx: &mut Context<'_, Message>, call: CallId, imsi: Imsi) {
        let rate = self.config.paging_rate_per_s;
        if rate == 0 {
            self.page_ms(ctx, call, imsi);
            return;
        }
        let window = ctx.now().as_millis() / 1_000;
        if window != self.paging_window {
            self.paging_window = window;
            self.paging_sent_in_window = 0;
        }
        if self.paging_sent_in_window < rate && self.paging_queue.is_empty() {
            self.paging_sent_in_window += 1;
            self.page_ms(ctx, call, imsi);
        } else if self.paging_queue.len() < 2 * rate as usize {
            ctx.count("vmsc.pages_throttled");
            self.paging_queue.push_back((call, ctx.now()));
            self.arm_paging_drain(ctx);
        } else {
            ctx.count("vmsc.pages_shed");
            self.send_q931(
                ctx,
                call,
                Q931Kind::ReleaseComplete { cause: Cause::NetworkCongestion },
            );
            self.finish_call(ctx, call);
        }
    }

    /// Arms the drain tick for the next one-second window boundary.
    fn arm_paging_drain(&mut self, ctx: &mut Context<'_, Message>) {
        if self.paging_drain.is_some() {
            return;
        }
        let now_us = ctx.now().as_micros();
        let delay = SimDuration::from_micros(1_000_000 - now_us % 1_000_000);
        self.paging_drain = Some(ctx.set_timer(delay, NS_PAGING_DRAIN << TAG_SHIFT));
    }

    /// Drain tick: page up to one window's budget from the deferred
    /// queue, oldest first, and re-arm while a backlog remains.
    fn drain_paging_queue(&mut self, ctx: &mut Context<'_, Message>) {
        self.paging_drain = None;
        self.paging_window = ctx.now().as_millis() / 1_000;
        self.paging_sent_in_window = 0;
        let rate = self.config.paging_rate_per_s;
        while self.paging_sent_in_window < rate {
            let Some((call, queued_at)) = self.paging_queue.pop_front() else {
                break;
            };
            let Some(state) = self.calls.get(&call) else {
                continue; // call cleared while deferred
            };
            if state.phase != CallPhase::MtAdmission {
                continue;
            }
            let imsi = state.imsi;
            ctx.observe_duration(
                "vmsc.paging_throttle_delay_ms",
                ctx.now().duration_since(queued_at),
            );
            self.paging_sent_in_window += 1;
            self.page_ms(ctx, call, imsi);
        }
        if !self.paging_queue.is_empty() {
            self.arm_paging_drain(ctx);
        }
    }

    fn send_q931(&self, ctx: &mut Context<'_, Message>, call: CallId, kind: Q931Kind) {
        let Some(call_state) = self.calls.get(&call) else {
            return;
        };
        let Some(dst) = call_state.remote_signal else {
            return;
        };
        let q = Q931Message {
            crv: call_state.crv,
            call,
            kind,
        };
        self.send_ip_for(ctx, call_state.imsi, H225_PORT, dst, IpPayload::Q931(q));
    }

    fn media_addr_for(&self, imsi: &Imsi) -> Option<TransportAddr> {
        self.ms_table
            .get(imsi)
            .and_then(|e| e.signaling_addr)
            .map(|a| TransportAddr::new(a, MEDIA_PORT))
    }

    fn signal_addr_for(&self, imsi: &Imsi) -> Option<TransportAddr> {
        self.ms_table
            .get(imsi)
            .and_then(|e| e.signaling_addr)
            .map(|a| TransportAddr::new(a, H225_PORT))
    }

    /// Clears all state of a call and deactivates its voice context
    /// (paper step 3.4).
    fn finish_call(&mut self, ctx: &mut Context<'_, Message>, call: CallId) {
        let Some(state) = self.calls.remove(&call) else {
            return;
        };
        if let Some(guard) = state.arq_guard {
            ctx.cancel_timer(guard.token);
        }
        if let Some(token) = state.setup_guard {
            ctx.cancel_timer(token);
        }
        let imsi = state.imsi;
        let had_voice = self.ms_table.get_mut(&imsi).is_some_and(|entry| {
            entry.call = None;
            entry.voice_addr.take().is_some()
        });
        if had_voice {
            ctx.note("Step 3.4: deactivate voice PDP context");
            ctx.count("vmsc.voice_context_deactivated");
            self.deactivate_pdp(ctx, imsi, voice_nsapi());
        }
        // Disengage from the gatekeeper (step 3.3).
        let duration_ms = state
            .connected_at
            .map(|at| ctx.now().duration_since(at).as_millis())
            .unwrap_or(0);
        self.send_ras(ctx, imsi, RasMessage::Drq { call, duration_ms });
        self.maybe_deactivate_signaling(ctx, imsi);
    }

    /// The subscriber registered elsewhere (MAP_Cancel_Location reached
    /// our VLR): release every resource held on its behalf — any call,
    /// the gatekeeper alias (URQ), the PDP contexts, and the MS table
    /// entry. Without this, relocations would leak contexts at the old
    /// SGSN and leave a stale alias that misroutes incoming calls.
    fn purge_ms(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi) {
        if let Some(call) = self.ms_table.get(&imsi).and_then(|e| e.call) {
            self.send_q931(
                ctx,
                call,
                Q931Kind::ReleaseComplete {
                    cause: Cause::SubscriberAbsent,
                },
            );
            self.finish_call(ctx, call);
        }
        if !self.ms_table.contains_key(&imsi) {
            return;
        }
        self.clear_ras_guard(ctx, &imsi);
        ctx.count("vmsc.purged");
        // Unregister the stale alias while the signaling context still
        // exists to carry the URQ.
        let (alias, has_sig) = {
            let e = &self.ms_table[&imsi];
            (e.msisdn, e.signaling_addr.is_some())
        };
        if let (Some(alias), true) = (alias, has_sig) {
            self.send_ras(ctx, imsi, RasMessage::Urq { alias });
        }
        let Some(entry) = self.ms_table.remove(&imsi) else {
            return;
        };
        if let Some(t) = entry.tmsi {
            self.gsm.forget_tmsi(t);
        }
        if let Some(conn) = entry.conn {
            self.gsm.unbind(conn);
        }
        for addr in [entry.signaling_addr, entry.voice_addr]
            .into_iter()
            .flatten()
        {
            self.by_addr.remove(&addr);
        }
        if entry.voice_addr.is_some() {
            self.deactivate_pdp(ctx, imsi, voice_nsapi());
        }
        if entry.signaling_addr.is_some() {
            ctx.count("vmsc.signaling_context_deactivated");
            self.deactivate_pdp(ctx, imsi, sig_nsapi());
        }
    }

    /// Idle-deactivation ablation: drop the signaling context once the
    /// MS has no call (or right after registration).
    fn maybe_deactivate_signaling(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi) {
        if !self.config.deactivate_idle_contexts {
            return;
        }
        let Some(entry) = self.ms_table.get_mut(&imsi) else {
            return;
        };
        if entry.call.is_some() {
            return;
        }
        if let Some(addr) = entry.signaling_addr.take() {
            self.by_addr.remove(&addr);
            ctx.count("vmsc.signaling_context_deactivated");
            self.deactivate_pdp(ctx, imsi, sig_nsapi());
        }
    }

    // ----------------------------------------------------------------
    // A interface
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
                // Step 1.1: relay into the VLR.
                if let MsIdentity::Imsi(imsi) = identity {
                    let entry = self
                        .ms_table
                        .entry(imsi)
                        .or_insert_with(|| MsEntry::new(imsi, None, ctx.now()));
                    entry.conn = Some(conn);
                    entry.reg_started = ctx.now();
                    entry.phase = RegPhase::GsmUpdating;
                }
                ctx.note("Step 1.1: location update -> VLR");
                self.gsm.location_update(ctx, conn, identity, lai);
            }
            Dtap::CmServiceRequest { identity } => self.gsm.request_access(ctx, conn, identity),
            Dtap::PagingResponse { identity } => {
                let Some(imsi) = self.gsm.paged_subscriber(ctx, identity) else {
                    return;
                };
                let Some(entry) = self.ms_table.get_mut(&imsi) else {
                    return;
                };
                entry.conn = Some(conn);
                let mt_call = entry.call;
                self.gsm.bind(conn, imsi);
                // Paging-latency KPI: page broadcast → MS answer.
                if let Some(state) = mt_call.and_then(|c| self.calls.get_mut(&c)) {
                    if let Some(paged_at) = state.paged_at.take() {
                        ctx.observe_duration(
                            "vmsc.paging_response_ms",
                            ctx.now().duration_since(paged_at),
                        );
                    }
                }
                // Step 4.5: auth + ciphering via the VLR.
                self.gsm.request_access(ctx, conn, identity);
            }
            Dtap::Setup { call, called } => {
                // Step 2.1 end: the dialed digits arrived.
                let Some(imsi) = self.gsm.imsi_of(conn) else {
                    ctx.count("vmsc.setup_without_access");
                    return;
                };
                self.next_crv += 1;
                self.calls.insert(
                    call,
                    VmscCall {
                        called: Some(called),
                        ..VmscCall::new(imsi, CallPhase::MoAuthorizing, Crv(self.next_crv), ctx.now())
                    },
                );
                if let Some(entry) = self.ms_table.get_mut(&imsi) {
                    entry.call = Some(call);
                }
                ctx.count("vmsc.mo_calls");
                ctx.note("Step 2.2: authorize outgoing call with VLR");
                self.gsm.authorize_outgoing(ctx, conn, imsi, called);
            }
            Dtap::ChannelAssignmentComplete => {
                let Some(imsi) = self.gsm.imsi_of(conn) else {
                    return;
                };
                let Some(call) = self.ms_table.get(&imsi).and_then(|e| e.call) else {
                    return;
                };
                let (phase, called, calling) = {
                    let Some(state) = self.calls.get(&call) else {
                        return;
                    };
                    (state.phase, state.called, state.calling)
                };
                match phase {
                    CallPhase::MoAssigning => {
                        // Step 2.3: admission request toward the GK.
                        if let Some(state) = self.calls.get_mut(&call) {
                            state.phase = CallPhase::MoAdmission;
                        }
                        ctx.note("Step 2.3: admission request (ARQ) -> GK");
                        let called = called.expect("MO call has digits");
                        self.gsm.send(ctx, conn, Dtap::CallProceeding { call });
                        let has_context = self
                            .ms_table
                            .get(&imsi)
                            .map(|e| e.signaling_addr.is_some())
                            .unwrap_or(false);
                        if !has_context {
                            // Idle-deactivation ablation: the context must
                            // come back up before the GK can be reached —
                            // the extra latency the paper predicts.
                            ctx.count("vmsc.context_reactivations");
                            self.awaiting_context.push((imsi, call));
                            ctx.send(
                                self.sgsn,
                                Message::Gmm(GmmMessage::ActivatePdpContextRequest {
                                    imsi,
                                    nsapi: sig_nsapi(),
                                    qos: QosProfile::signaling(),
                                    static_addr: None,
                                }),
                            );
                            return;
                        }
                        self.send_arq(ctx, imsi, call, called, false);
                        self.arm_arq_guard(ctx, call);
                    }
                    CallPhase::MtAccess => {
                        // Step 4.5 end: deliver the setup.
                        if let Some(state) = self.calls.get_mut(&call) {
                            state.phase = CallPhase::MtRinging;
                        }
                        self.gsm.send(ctx, conn, Dtap::MtSetup { call, calling });
                    }
                    _ => {}
                }
            }
            Dtap::ChannelAssignmentFailure { cause } => {
                let Some(imsi) = self.gsm.imsi_of(conn) else {
                    return;
                };
                if let Some(call) = self.ms_table.get(&imsi).and_then(|e| e.call) {
                    ctx.count("vmsc.assignment_blocked");
                    self.send_q931(ctx, call, Q931Kind::ReleaseComplete { cause });
                    self.finish_call(ctx, call);
                    self.gsm.send(ctx, conn, Dtap::Disconnect { call, cause });
                }
            }
            Dtap::Alerting { call } => {
                // Step 4.6: MS rings; relay to the caller.
                self.send_q931(ctx, call, Q931Kind::Alerting);
            }
            Dtap::Connect { call } => {
                // Step 4.7: answered; relay and acknowledge.
                let media = self
                    .calls
                    .get(&call)
                    .map(|c| c.imsi)
                    .and_then(|imsi| self.media_addr_for(&imsi));
                if let Some(media_addr) = media {
                    self.send_q931(ctx, call, Q931Kind::Connect { media_addr });
                }
                self.gsm.send(ctx, conn, Dtap::ConnectAck { call });
                self.activate_voice_context(ctx, call);
                ctx.count("vmsc.mt_calls_answered");
            }
            Dtap::ConnectAck { call } => {
                // Step 2.9 (MO side): conversation begins.
                self.activate_voice_context(ctx, call);
                ctx.count("vmsc.mo_calls_connected");
            }
            Dtap::Disconnect { call, cause } => {
                // Step 3.1: the MS hangs up.
                ctx.count("vmsc.ms_initiated_release");
                ctx.note("Step 3.2: release H.323 leg (Q.931 Release Complete)");
                // Step 3.2: release the H.323 leg.
                self.send_q931(ctx, call, Q931Kind::ReleaseComplete { cause });
                self.gsm.send(ctx, conn, Dtap::Release { call });
                // Steps 3.3–3.4 happen in finish_call.
                self.finish_call(ctx, call);
            }
            Dtap::Release { call } => {
                self.gsm.send(ctx, conn, Dtap::ReleaseComplete { call });
                self.gsm.send(ctx, conn, Dtap::ChannelRelease);
                self.finish_call(ctx, call);
            }
            Dtap::ReleaseComplete { .. } => {
                self.gsm.send(ctx, conn, Dtap::ChannelRelease);
            }
            Dtap::MeasurementReport { cell } | Dtap::HandoverRequired { cell } => {
                let call = self
                    .gsm
                    .imsi_of(conn)
                    .and_then(|imsi| self.ms_table.get(&imsi))
                    .and_then(|e| e.call);
                self.gsm.start_handover(ctx, conn, cell, call);
            }
            Dtap::HandoverComplete { ho_ref } => {
                // Target role: the MS arrived on our cell.
                let Some(arrival) = self.gsm.handover_complete(ctx, ho_ref) else {
                    return;
                };
                self.next_crv += 1;
                self.calls.insert(
                    arrival.call,
                    VmscCall {
                        connected_at: Some(ctx.now()),
                        e_leg: Some((arrival.anchor, arrival.cic)),
                        target_conn: Some(conn),
                        ..VmscCall::new(
                            arrival.imsi,
                            CallPhase::Active,
                            Crv(self.next_crv),
                            ctx.now(),
                        )
                    },
                );
            }
            Dtap::VoiceFrame {
                call,
                seq,
                origin_us,
            } => self.uplink_voice(ctx, call, seq, origin_us),
            other => self.gsm.relay_up(ctx, conn, other),
        }
    }

    /// Step 2.9 / 4.8: a second, high-priority PDP context for the voice
    /// packets.
    fn activate_voice_context(&mut self, ctx: &mut Context<'_, Message>, call: CallId) {
        let Some(state) = self.calls.get_mut(&call) else {
            return;
        };
        if let Some(token) = state.setup_guard.take() {
            ctx.cancel_timer(token);
        }
        state.phase = CallPhase::Active;
        state.connected_at = Some(ctx.now());
        state.voice_pdp_requested_at = Some(ctx.now());
        let (imsi, started_at) = (state.imsi, state.started_at);
        ctx.observe_duration("vmsc.call_setup_ms", ctx.now().duration_since(started_at));
        ctx.note("Step 2.9/4.8: activate voice PDP context; conversation begins");
        ctx.count("vmsc.voice_context_requested");
        ctx.send(
            self.sgsn,
            Message::Gmm(GmmMessage::ActivatePdpContextRequest {
                imsi,
                nsapi: voice_nsapi(),
                qos: QosProfile::realtime_voice(),
                static_addr: None,
            }),
        );
    }

    // ----------------------------------------------------------------
    // MAP (VLR, peer MSCs)
    // ----------------------------------------------------------------

    fn handle_map(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: MapMessage) {
        match msg {
            MapMessage::UpdateLocationAreaAck {
                conn,
                imsi,
                tmsi,
                msisdn,
            } => {
                // Step 1.2 complete. Do NOT accept toward the MS yet: the
                // paper continues with GPRS attach + PDP + RAS first.
                let has_context = {
                    if self.config.resilience && !self.ms_table.contains_key(&imsi) {
                        // Recovery after a VMSC restart: the MS table was
                        // lost, but the VLR still resolves the TMSI —
                        // rebuild the entry from its answer so the
                        // cold-start re-registration can proceed.
                        ctx.count("vmsc.entries_rebuilt");
                        self.ms_table
                            .insert(imsi, MsEntry::new(imsi, Some(conn), ctx.now()));
                        self.gsm.bind(conn, imsi);
                    }
                    let Some(entry) = self.ms_table.get_mut(&imsi) else {
                        return;
                    };
                    entry.tmsi = tmsi;
                    entry.msisdn = msisdn;
                    entry.signaling_addr.is_some()
                };
                self.gsm.learn_tmsi(tmsi, imsi);
                if has_context {
                    // Re-registration: contexts already exist; go straight
                    // to the RAS refresh.
                    if let Some(entry) = self.ms_table.get_mut(&imsi) {
                        entry.phase = RegPhase::RasRegistering;
                    }
                    if self.send_rrq(ctx, imsi) {
                        self.arm_ras_guard(ctx, imsi);
                    }
                } else {
                    // Step 1.3: GPRS attach, just like a GPRS MS would.
                    if let Some(entry) = self.ms_table.get_mut(&imsi) {
                        entry.phase = RegPhase::Attaching;
                    }
                    ctx.note("Step 1.3: GPRS attach + signaling PDP context");
                    ctx.send(self.sgsn, Message::Gmm(GmmMessage::AttachRequest { imsi }));
                }
            }
            MapMessage::UpdateLocationAreaReject { conn, cause, .. } => {
                ctx.count("vmsc.registration_rejected");
                self.gsm
                    .send(ctx, conn, Dtap::LocationUpdateReject { cause });
            }
            MapMessage::ProcessAccessRequestAck {
                conn,
                imsi,
                rejection,
            } => {
                self.gsm.bind(conn, imsi);
                if let Some(entry) = self.ms_table.get_mut(&imsi) {
                    entry.conn = Some(conn);
                }
                let mt_call = self.ms_table.get(&imsi).and_then(|e| e.call).filter(|c| {
                    self.calls
                        .get(c)
                        .map(|s| matches!(s.phase, CallPhase::MtPaging | CallPhase::MtAccess))
                        .unwrap_or(false)
                });
                match rejection {
                    Some(cause) => match mt_call {
                        Some(call) => {
                            self.send_q931(ctx, call, Q931Kind::ReleaseComplete { cause });
                            self.finish_call(ctx, call);
                        }
                        None => self.gsm.send(ctx, conn, Dtap::CmServiceReject { cause }),
                    },
                    None => match mt_call {
                        Some(call) => {
                            if let Some(state) = self.calls.get_mut(&call) {
                                state.phase = CallPhase::MtAccess;
                            }
                            self.gsm
                                .send(ctx, conn, Dtap::ChannelAssignment { cell: CellId(0) });
                        }
                        None => self.gsm.send(ctx, conn, Dtap::CmServiceAccept),
                    },
                }
            }
            MapMessage::SendInfoForOutgoingCallAck {
                conn, rejection, ..
            } => {
                let Some(imsi) = self.gsm.imsi_of(conn) else {
                    return;
                };
                let Some(call) = self.ms_table.get(&imsi).and_then(|e| e.call) else {
                    return;
                };
                match rejection {
                    Some(cause) => {
                        ctx.count("vmsc.mo_calls_denied");
                        self.calls.remove(&call);
                        if let Some(e) = self.ms_table.get_mut(&imsi) {
                            e.call = None;
                        }
                        self.gsm.send(ctx, conn, Dtap::Disconnect { call, cause });
                    }
                    None => {
                        if let Some(state) = self.calls.get_mut(&call) {
                            state.phase = CallPhase::MoAssigning;
                        }
                        self.gsm
                            .send(ctx, conn, Dtap::ChannelAssignment { cell: CellId(0) });
                    }
                }
            }
            // ---- inter-MSC handoff, target side ----
            MapMessage::PrepareHandover { call, imsi, .. } => {
                self.next_cic += 1;
                let cic = Cic(40_000 + self.next_cic);
                self.gsm.prepare_handover(ctx, from, call, imsi, cic);
            }
            // ---- anchor side ----
            MapMessage::PrepareHandoverAck { call, cic, ho_ref } => {
                let Some(state) = self.calls.get_mut(&call) else {
                    return;
                };
                state.e_leg = Some((from, cic));
                if let Some(conn) = self.ms_table.get(&state.imsi).and_then(|e| e.conn) {
                    self.gsm.command_handover(ctx, from, conn, ho_ref);
                }
            }
            MapMessage::SendEndSignal { call } => {
                // Anchor: the MS left for the target MSC; keep the H.323
                // leg, bridge it onto the inter-MSC trunk (Figure 9(b)).
                let conn = self
                    .calls
                    .get(&call)
                    .and_then(|s| self.ms_table.get_mut(&s.imsi))
                    .and_then(|e| e.conn.take());
                self.gsm.end_signal(ctx, from, call, conn);
            }
            MapMessage::SendEndSignalAck { .. } => {}
            MapMessage::PurgeMs { imsi } => self.purge_ms(ctx, imsi),
            other => self.gsm.relay_down(ctx, other),
        }
    }

    // ----------------------------------------------------------------
    // Gb: GMM/SM answers from the SGSN
    // ----------------------------------------------------------------

    fn handle_gmm(&mut self, ctx: &mut Context<'_, Message>, msg: GmmMessage) {
        match msg {
            GmmMessage::AttachAccept { imsi, .. } => {
                // Step 1.3 continues: activate the signaling context.
                if let Some(entry) = self.ms_table.get_mut(&imsi) {
                    entry.phase = RegPhase::ActivatingSignalingContext;
                }
                ctx.send(
                    self.sgsn,
                    Message::Gmm(GmmMessage::ActivatePdpContextRequest {
                        imsi,
                        nsapi: sig_nsapi(),
                        qos: QosProfile::signaling(),
                        static_addr: None,
                    }),
                );
            }
            GmmMessage::AttachReject { imsi, cause } => {
                ctx.count("vmsc.attach_rejected");
                self.fail_registration(ctx, imsi, cause);
            }
            GmmMessage::ActivatePdpContextAccept {
                imsi, nsapi, addr, ..
            } => {
                if nsapi == sig_nsapi() {
                    let resumed_call = {
                        let Some(entry) = self.ms_table.get_mut(&imsi) else {
                            return;
                        };
                        entry.signaling_addr = Some(addr);
                        self.by_addr.insert(addr, imsi);
                        self.awaiting_context
                            .iter()
                            .position(|(i, _)| *i == imsi)
                            .map(|pos| self.awaiting_context.swap_remove(pos).1)
                    };
                    if let Some(call) = resumed_call {
                        // Re-announce the fresh address, then continue the
                        // interrupted step 2.3.
                        self.send_rrq(ctx, imsi);
                        let called = self.calls.get(&call).and_then(|c| c.called);
                        if let Some(called) = called {
                            self.send_arq(ctx, imsi, call, called, false);
                            self.arm_arq_guard(ctx, call);
                        }
                        return;
                    }
                    if let Some(entry) = self.ms_table.get_mut(&imsi) {
                        entry.phase = RegPhase::RasRegistering;
                    }
                    // Step 1.4: RAS registration of the MS's alias.
                    ctx.note("Step 1.4: endpoint registration (RRQ) -> GK");
                    if self.send_rrq(ctx, imsi) {
                        self.arm_ras_guard(ctx, imsi);
                    } else {
                        ctx.count("vmsc.no_alias_for_rrq");
                    }
                } else {
                    // Voice context (step 2.9 / 4.8).
                    let call = if let Some(entry) = self.ms_table.get_mut(&imsi) {
                        entry.voice_addr = Some(addr);
                        self.by_addr.insert(addr, imsi);
                        entry.call
                    } else {
                        None
                    };
                    // Voice-PDP activation-time KPI: request → accept.
                    if let Some(state) = call.and_then(|c| self.calls.get_mut(&c)) {
                        if let Some(requested_at) = state.voice_pdp_requested_at.take() {
                            ctx.observe_duration(
                                "vmsc.voice_pdp_activation_ms",
                                ctx.now().duration_since(requested_at),
                            );
                        }
                    }
                    ctx.count("vmsc.voice_context_active");
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

    fn fail_registration(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi, cause: Cause) {
        self.clear_ras_guard(ctx, &imsi);
        if let Some(entry) = self.ms_table.get_mut(&imsi) {
            let conn = entry.conn;
            entry.phase = RegPhase::GsmUpdating;
            if let Some(conn) = conn {
                self.gsm
                    .send(ctx, conn, Dtap::LocationUpdateReject { cause });
            }
        }
    }

    // ----------------------------------------------------------------
    // Downlink IP (LLC) from the SGSN
    // ----------------------------------------------------------------

    fn handle_downlink_ip(&mut self, ctx: &mut Context<'_, Message>, packet: IpPacket) {
        let Some(&imsi) = self.by_addr.get(&packet.dst.ip) else {
            ctx.count("vmsc.downlink_unknown_addr");
            return;
        };
        match packet.payload {
            IpPayload::Ras(ras) => self.handle_ras(ctx, imsi, ras),
            IpPayload::Q931(q) => self.handle_q931(ctx, imsi, packet.src, q),
            IpPayload::Rtp(rtp) => self.downlink_voice(ctx, imsi, rtp),
        }
    }

    fn handle_ras(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi, ras: RasMessage) {
        match ras {
            RasMessage::Rcf { .. } => {
                // Step 1.5 done → step 1.6: tell the MS.
                let ready = {
                    let Some(entry) = self.ms_table.get_mut(&imsi) else {
                        return;
                    };
                    if entry.phase != RegPhase::RasRegistering {
                        None
                    } else {
                        entry.phase = RegPhase::Registered;
                        Some((entry.tmsi, entry.conn, entry.reg_started))
                    }
                };
                if let Some((tmsi, conn, reg_started)) = ready {
                    if let Some(guard) = self.clear_ras_guard(ctx, &imsi) {
                        if guard.attempts > 0 {
                            // The ladder had to retry: record how long the
                            // outage held registration up.
                            ctx.observe_duration(
                                "vmsc.ras_recovery_ms",
                                ctx.now().duration_since(guard.first_at),
                            );
                        }
                    }
                    ctx.note("Step 1.6: registration complete; accept -> MS");
                    ctx.count("vmsc.registrations_completed");
                    ctx.observe_duration(
                        "vmsc.registration_ms",
                        ctx.now().duration_since(reg_started),
                    );
                    if let Some(conn) = conn {
                        self.gsm
                            .send(ctx, conn, Dtap::LocationUpdateAccept { tmsi });
                    }
                    self.maybe_deactivate_signaling(ctx, imsi);
                }
            }
            RasMessage::Rrj { .. } => {
                ctx.count("vmsc.ras_rejected");
                self.fail_registration(ctx, imsi, Cause::AdmissionRejected);
            }
            RasMessage::Acf {
                call,
                dest_call_signal_addr,
            } => {
                let (phase, called) = {
                    let Some(state) = self.calls.get_mut(&call) else {
                        return;
                    };
                    if let Some(guard) = state.arq_guard.take() {
                        ctx.cancel_timer(guard.token);
                        if guard.attempts > 0 {
                            ctx.observe_duration(
                                "vmsc.arq_recovery_ms",
                                ctx.now().duration_since(guard.first_at),
                            );
                        }
                    }
                    (state.phase, state.called)
                };
                match phase {
                    CallPhase::MoAdmission => {
                        // Step 2.4: Setup toward the destination.
                        if let Some(state) = self.calls.get_mut(&call) {
                            state.phase = CallPhase::MoProgress;
                            state.remote_signal = Some(dest_call_signal_addr);
                        }
                        let called = called.expect("MO call has digits");
                        let calling = self.ms_table.get(&imsi).and_then(|e| e.msisdn);
                        let signal_addr = self.signal_addr_for(&imsi);
                        let media_addr = self.media_addr_for(&imsi);
                        if let (Some(signal_addr), Some(media_addr)) = (signal_addr, media_addr)
                        {
                            self.send_q931(
                                ctx,
                                call,
                                Q931Kind::Setup {
                                    calling,
                                    called,
                                    signal_addr,
                                    media_addr,
                                },
                            );
                            if self.config.resilience {
                                let token = ctx
                                    .set_timer(SETUP_SUPERVISION, (NS_SETUP << TAG_SHIFT) | call.0);
                                match self.calls.get_mut(&call) {
                                    Some(state) => state.setup_guard = Some(token),
                                    None => ctx.cancel_timer(token),
                                }
                            }
                        }
                    }
                    CallPhase::MtAdmission => self.page_or_defer(ctx, call, imsi),
                    _ => {}
                }
            }
            RasMessage::Arj { call, cause } => {
                ctx.count("vmsc.admission_rejected");
                if cause == Cause::NetworkCongestion && self.config.resilience {
                    // Gatekeeper load shed. Leave the armed admission
                    // guard in place for ONE deferred re-try (the first
                    // backoff rung), so a brief shed degrades to added
                    // setup delay instead of a failed call. Later rungs
                    // would hold the call open for seconds into a still-
                    // congested peak — the caller has long since given
                    // up — so a shed of a retried admission releases
                    // immediately and leaves re-attempting to the user.
                    let retryable = self
                        .calls
                        .get(&call)
                        .map(|s| {
                            matches!(
                                s.phase,
                                CallPhase::MoAdmission | CallPhase::MtAdmission
                            ) && s.arq_guard.as_ref().is_some_and(|g| g.attempts == 0)
                        })
                        .unwrap_or(false);
                    if retryable {
                        ctx.count("vmsc.admission_shed_deferred");
                        return;
                    }
                }
                if let Some(state) = self.calls.get_mut(&call) {
                    if let Some(guard) = state.arq_guard.take() {
                        ctx.cancel_timer(guard.token);
                    }
                    if let Some(token) = state.setup_guard.take() {
                        ctx.cancel_timer(token);
                    }
                }
                if let Some(state) = self.calls.get(&call) {
                    if state.remote_signal.is_some() {
                        self.send_q931(ctx, call, Q931Kind::ReleaseComplete { cause });
                    }
                }
                self.send_a_to_ms(ctx, &imsi, Dtap::Disconnect { call, cause });
                self.calls.remove(&call);
                if let Some(e) = self.ms_table.get_mut(&imsi) {
                    e.call = None;
                }
            }
            RasMessage::Dcf { .. } => {}
            _ => ctx.count("vmsc.unhandled_ras"),
        }
    }

    fn handle_q931(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        src: TransportAddr,
        msg: Q931Message,
    ) {
        match msg.kind {
            Q931Kind::Setup {
                calling,
                signal_addr,
                media_addr,
                ..
            } => {
                // Step 4.2: an incoming call arrived through the GGSN.
                let busy = match self.ms_table.get(&imsi) {
                    Some(entry) => entry.call.is_some(),
                    None => return,
                };
                if busy {
                    let reply = Q931Message {
                        crv: msg.crv,
                        call: msg.call,
                        kind: Q931Kind::ReleaseComplete {
                            cause: Cause::UserBusy,
                        },
                    };
                    self.send_ip_for(ctx, imsi, H225_PORT, src, IpPayload::Q931(reply));
                    return;
                }
                if let Some(entry) = self.ms_table.get_mut(&imsi) {
                    entry.call = Some(msg.call);
                }
                self.calls.insert(
                    msg.call,
                    VmscCall {
                        remote_signal: Some(signal_addr),
                        remote_media: Some(media_addr),
                        calling,
                        ..VmscCall::new(imsi, CallPhase::MtAdmission, msg.crv, ctx.now())
                    },
                );
                ctx.count("vmsc.mt_calls");
                ctx.note("Step 4.2: incoming Setup via GGSN; Call Proceeding back");
                self.send_q931(ctx, msg.call, Q931Kind::CallProceeding);
                // Step 4.3: admission for the answering side.
                let called = self.ms_table.get(&imsi).and_then(|e| e.msisdn);
                if let Some(called) = called {
                    self.send_arq(ctx, imsi, msg.call, called, true);
                    self.arm_arq_guard(ctx, msg.call);
                }
            }
            Q931Kind::CallProceeding => ctx.count("vmsc.call_proceeding"),
            Q931Kind::Alerting => {
                // Step 2.7: ring back toward the MS.
                self.send_a_to_ms(ctx, &imsi, Dtap::Alerting { call: msg.call });
            }
            Q931Kind::Connect { media_addr } => {
                // Step 2.8: answered.
                if let Some(state) = self.calls.get_mut(&msg.call) {
                    state.remote_media = Some(media_addr);
                }
                self.send_a_to_ms(ctx, &imsi, Dtap::Connect { call: msg.call });
            }
            Q931Kind::ReleaseComplete { cause } => {
                // The far end hung up: clear the radio side.
                self.send_a_to_ms(ctx, &imsi, Dtap::Disconnect { call: msg.call, cause });
                self.finish_call(ctx, msg.call);
            }
        }
    }

    // ----------------------------------------------------------------
    // Voice bridging (the vocoder + PCU of Figure 2(b))
    // ----------------------------------------------------------------

    fn uplink_voice(
        &mut self,
        ctx: &mut Context<'_, Message>,
        call: CallId,
        seq: u32,
        origin_us: u64,
    ) {
        let (target_role, e_leg, remote_media, imsi) = {
            let Some(state) = self.calls.get(&call) else {
                return;
            };
            (
                state.target_conn.is_some(),
                state.e_leg,
                state.remote_media,
                state.imsi,
            )
        };
        // Target role after handoff: bridge radio → anchor trunk.
        if target_role {
            if let Some((anchor, cic)) = e_leg {
                ctx.send(
                    anchor,
                    Message::TrunkVoice {
                        cic,
                        call,
                        seq,
                        origin_us,
                    },
                );
            }
            return;
        }
        let Some(remote) = remote_media else {
            return;
        };
        let rtp_seq = {
            let Some(state) = self.calls.get_mut(&call) else {
                return;
            };
            state.rtp_seq = state.rtp_seq.wrapping_add(1);
            state.rtp_seq
        };
        // Prefer the high-priority voice context once it is up.
        let (nsapi, src_ip) = {
            let entry = self.ms_table.get(&imsi);
            match entry.and_then(|e| e.voice_addr) {
                Some(a) => (voice_nsapi(), Some(a)),
                None => (
                    sig_nsapi(),
                    entry.and_then(|e| e.signaling_addr),
                ),
            }
        };
        let Some(src_ip) = src_ip else {
            return;
        };
        let rtp = RtpPacket {
            ssrc: u32::from(rtp_seq) | 0x564D_0000, // "VM…"
            seq: rtp_seq,
            timestamp: (origin_us / 125) as u32,
            payload_type: PAYLOAD_TYPE_GSM,
            marker: seq == 1,
            payload_len: 33,
            call,
            origin_us,
        };
        ctx.send(
            self.sgsn,
            Message::Llc {
                imsi,
                nsapi,
                inner: Box::new(IpPacket::new(
                    TransportAddr::new(src_ip, MEDIA_PORT),
                    remote,
                    IpPayload::Rtp(rtp),
                )),
            },
        );
    }

    fn downlink_voice(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi, rtp: RtpPacket) {
        let Some(entry) = self.ms_table.get(&imsi) else {
            return;
        };
        let Some(call) = entry.call else {
            return;
        };
        // Anchor role after handoff: bridge RTP → inter-MSC trunk.
        let handed_off = entry.conn.is_none();
        if handed_off {
            if let Some((target, cic)) = self.calls.get(&call).and_then(|c| c.e_leg) {
                ctx.send(
                    target,
                    Message::TrunkVoice {
                        cic,
                        call,
                        seq: u32::from(rtp.seq),
                        origin_us: rtp.origin_us,
                    },
                );
            }
            return;
        }
        self.send_a_to_ms(
            ctx,
            &imsi,
            Dtap::VoiceFrame {
                call,
                seq: u32::from(rtp.seq),
                origin_us: rtp.origin_us,
            },
        );
    }

    /// Trunk voice from a peer MSC over the E interface.
    fn handle_trunk_voice(
        &mut self,
        ctx: &mut Context<'_, Message>,
        call: CallId,
        seq: u32,
        origin_us: u64,
    ) {
        let Some(state) = self.calls.get(&call) else {
            return;
        };
        if let Some(conn) = state.target_conn {
            // Deliver to the MS on our radio network.
            self.gsm.send(
                ctx,
                conn,
                Dtap::VoiceFrame {
                    call,
                    seq,
                    origin_us,
                },
            );
        } else {
            // Anchor: MS roamed away; this is uplink voice from the target
            // to be carried onward as RTP.
            self.uplink_voice(ctx, call, seq, origin_us);
        }
    }
}

impl Node<Message> for Vmsc {
    fn on_timer(
        &mut self,
        ctx: &mut Context<'_, Message>,
        _token: vgprs_sim::TimerToken,
        tag: u64,
    ) {
        // A crashed node's pending timers must not act; guard lookups
        // below additionally ignore anything the crash wiped out.
        if self.down {
            if tag >> TAG_SHIFT == NS_PAGING_DRAIN {
                // The tick is consumed even while down; forget the token
                // so the throttle can re-arm after a restore.
                self.paging_drain = None;
            }
            return;
        }
        match tag >> TAG_SHIFT {
            NS_PAGING => {
                let call = CallId(tag & TAG_MASK);
                let still_paging = self
                    .calls
                    .get(&call)
                    .map(|c| c.phase == CallPhase::MtPaging)
                    .unwrap_or(false);
                if still_paging {
                    ctx.count("vmsc.paging_timeouts");
                    self.send_q931(
                        ctx,
                        call,
                        Q931Kind::ReleaseComplete {
                            cause: Cause::SubscriberAbsent,
                        },
                    );
                    self.finish_call(ctx, call);
                }
            }
            NS_RAS => self.ras_guard_expired(ctx, tag & TAG_MASK),
            NS_ARQ => self.arq_guard_expired(ctx, CallId(tag & TAG_MASK)),
            NS_SETUP => self.setup_guard_expired(ctx, CallId(tag & TAG_MASK)),
            NS_PAGING_DRAIN => self.drain_paging_queue(ctx),
            _ => {}
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
            (Interface::Internal, Message::Cmd(Command::Crash)) => {
                // Total state loss: MS table, calls, handoffs. The VLR/HLR
                // keep their copies, which is what cold-start recovery
                // rebuilds from (resilience mode).
                self.ms_table.clear();
                self.gsm.reset();
                self.by_addr.clear();
                self.calls.clear();
                self.awaiting_context.clear();
                self.ras_guard_imsi.clear();
                self.paging_queue.clear();
                self.paging_sent_in_window = 0;
                if let Some(token) = self.paging_drain.take() {
                    ctx.cancel_timer(token);
                }
                self.down = true;
                ctx.count("vmsc.crashes");
            }
            (Interface::Internal, Message::Cmd(Command::Blackhole)) => {
                self.down = true;
                ctx.count("vmsc.blackholes");
            }
            (Interface::Internal, Message::Cmd(Command::Restore)) => {
                self.down = false;
            }
            (Interface::Internal, Message::Cmd(Command::Resync)) => {
                // A backbone peer (SGSN/GGSN/gatekeeper) restarted and
                // lost our contexts: walk the MS table in deterministic
                // order and re-run attach → PDP activation → RRQ for
                // every subscriber. Stale PDP addresses are dropped —
                // the restarted peer no longer knows them.
                ctx.count("vmsc.resyncs");
                let mut imsis: Vec<Imsi> = self.ms_table.keys().copied().collect();
                imsis.sort();
                for imsi in imsis {
                    self.clear_ras_guard(ctx, &imsi);
                    let stale = {
                        let Some(entry) = self.ms_table.get_mut(&imsi) else {
                            continue;
                        };
                        let stale = [entry.signaling_addr.take(), entry.voice_addr.take()];
                        entry.phase = RegPhase::Attaching;
                        entry.reg_started = ctx.now();
                        stale
                    };
                    for addr in stale.into_iter().flatten() {
                        self.by_addr.remove(&addr);
                    }
                    ctx.count("vmsc.resync_reattach");
                    ctx.send(self.sgsn, Message::Gmm(GmmMessage::AttachRequest { imsi }));
                }
            }
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
            ) => self.handle_trunk_voice(ctx, call, seq, origin_us),
            _ => ctx.count("vmsc.unexpected_message"),
        }
    }

    /// The vocoder/PCU bridge maps a frame between the radio leg and the
    /// RTP or trunk leg from the call and MS tables alone.
    fn pure_relay(&self) -> bool {
        true
    }
}
