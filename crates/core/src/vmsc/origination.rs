//! Mobile call origination (paper §4, Figure 5, steps 2.1–2.9), and the
//! two steps termination shares with it: gatekeeper admission and the
//! voice PDP context.

use vgprs_sim::Context;
use vgprs_wire::{
    CallId, Cause, CellId, ConnRef, Crv, Dtap, Imsi, Ipv4Addr, Message, Msisdn, Q931Kind,
    QosProfile, RasMessage, TransportAddr,
};

use super::timers::{Guard, TimerKey};
use super::{
    sig_nsapi, voice_nsapi, CallLeg, CallPhase, Vmsc, GK_BACKOFF, H225_PORT, MEDIA_PORT,
    SETUP_SUPERVISION,
};

impl Vmsc {
    /// Step 2.1 end: the dialed digits arrived. Step 2.2 asks the VLR.
    pub(super) fn mo_setup(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        call: CallId,
        called: Msisdn,
    ) {
        let Some(imsi) = self.gsm.imsi_of(conn) else {
            ctx.count("vmsc.setup_without_access");
            return;
        };
        if self.ms_table.get(&imsi).is_some_and(|e| e.leg.is_some()) {
            // Glare: an incoming call reached the row before the MS knew
            // of it. The user is dialing, so the caller hears busy.
            ctx.count("vmsc.mo_mt_glare");
            self.release_far_end(ctx, imsi, Cause::UserBusy);
        }
        let Some(entry) = self.ms_table.get_mut(&imsi) else {
            return Self::out_of_state(ctx);
        };
        self.next_crv += 1;
        let mut leg = CallLeg::new(
            call,
            CallPhase::MoAuthorizing,
            Crv(self.next_crv),
            ctx.now(),
        );
        leg.party = Some(called);
        entry.leg = Some(Box::new(leg));
        ctx.count("vmsc.mo_calls");
        ctx.note("Step 2.2: authorize outgoing call with VLR");
        self.gsm.authorize_outgoing(ctx, conn, imsi, called);
    }

    /// Step 2.2 answered: assign the traffic channel, or refuse the call.
    pub(super) fn mo_authorized(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        rejection: Option<Cause>,
    ) {
        let row = self.row_on(conn);
        let leg = row.and_then(|e| Some((e.imsi, e.leg.as_deref_mut()?)));
        match (leg, rejection) {
            (Some((_, leg)), None) if leg.phase == CallPhase::MoAuthorizing => {
                leg.phase = CallPhase::MoAssigning;
                self.gsm
                    .send(ctx, conn, Dtap::ChannelAssignment { cell: CellId(0) });
            }
            (Some((imsi, leg)), Some(cause)) if leg.phase == CallPhase::MoAuthorizing => {
                ctx.count("vmsc.mo_calls_denied");
                let call = leg.id;
                self.drop_leg(ctx, imsi, false);
                self.gsm.send(ctx, conn, Dtap::Disconnect { call, cause });
            }
            _ => Self::out_of_state(ctx),
        }
    }

    /// The traffic channel is up: step 2.3 for an MO call, the end of
    /// step 4.5 for an MT one.
    pub(super) fn channel_assigned(&mut self, ctx: &mut Context<'_, Message>, conn: ConnRef) {
        let Some(entry) = self.row_on(conn) else {
            return Self::out_of_state(ctx);
        };
        let (imsi, has_context) = (entry.imsi, entry.signaling_addr.is_some());
        match entry.leg.as_deref_mut() {
            Some(leg) if leg.phase == CallPhase::MoAssigning => {
                leg.phase = CallPhase::MoAdmission;
                let (call, called) = (leg.id, leg.party.expect("MO call has digits"));
                ctx.note("Step 2.3: admission request (ARQ) -> GK");
                self.gsm.send(ctx, conn, Dtap::CallProceeding { call });
                if has_context {
                    self.request_admission(ctx, imsi, call, called, false, None);
                } else {
                    // Idle-deactivation ablation: the context must come
                    // back up before the GK can be reached — the extra
                    // latency the paper predicts.
                    ctx.count("vmsc.context_reactivations");
                    self.activate_pdp(ctx, imsi, sig_nsapi(), QosProfile::signaling());
                }
            }
            Some(leg) if leg.phase == CallPhase::MtAccess => {
                // Step 4.5 end: deliver the setup.
                leg.phase = CallPhase::MtRinging;
                let (call, calling) = (leg.id, leg.party);
                self.gsm.send(ctx, conn, Dtap::MtSetup { call, calling });
            }
            _ => Self::out_of_state(ctx),
        }
    }

    /// Steps 2.3 / 4.3: asks the gatekeeper to admit one 160-unit voice
    /// call. In resilience mode the admission guard watches the request:
    /// a fresh ladder, or — when `fired` is the rung that just expired —
    /// the next rung of the same one.
    pub(super) fn request_admission(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        call: CallId,
        called: Msisdn,
        answering: bool,
        fired: Option<Guard>,
    ) {
        self.send_ras(
            ctx,
            imsi,
            RasMessage::Arq {
                call,
                called,
                answering,
                bandwidth: 160,
            },
        );
        let rung = fired.map_or(0, |g| g.attempts + 1);
        if let (true, Some(delay)) = (self.config.resilience, GK_BACKOFF.delay(rung)) {
            self.timers.arm(ctx, TimerKey::Leg(imsi), delay, fired);
        }
    }

    /// ACF: the gatekeeper admitted the call. Step 2.4 sends the Setup
    /// toward the destination it named; step 4.4 pages the MS.
    pub(super) fn admitted(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        call: CallId,
        dest: TransportAddr,
    ) {
        let Some(leg) = self.leg_of(&imsi, call) else {
            return Self::out_of_state(ctx);
        };
        match leg.phase {
            CallPhase::MoAdmission => {
                leg.phase = CallPhase::MoProgress;
                leg.remote_signal = Some(dest);
                let called = leg.party.expect("MO call has digits");
                self.timers
                    .answered(ctx, &TimerKey::Leg(imsi), "vmsc.arq_recovery_ms");
                let calling = self.ms_table.get(&imsi).and_then(|e| e.msisdn);
                let (Some(signal_addr), Some(media_addr)) = (
                    self.addr_for(&imsi, H225_PORT),
                    self.addr_for(&imsi, MEDIA_PORT),
                ) else {
                    return;
                };
                let setup = Q931Kind::Setup {
                    calling,
                    called,
                    signal_addr,
                    media_addr,
                };
                self.send_q931(ctx, imsi, setup);
                if self.config.resilience {
                    self.timers
                        .arm(ctx, TimerKey::Leg(imsi), SETUP_SUPERVISION, None);
                }
            }
            CallPhase::MtAdmission => {
                self.timers
                    .answered(ctx, &TimerKey::Leg(imsi), "vmsc.arq_recovery_ms");
                self.page_or_defer(ctx, imsi, call);
            }
            _ => Self::out_of_state(ctx),
        }
    }

    /// Steps 2.7–2.8: the far end rings, then answers; relay to the MS.
    pub(super) fn mo_progress(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        call: CallId,
        kind: Q931Kind,
    ) {
        let in_progress = |leg: &&mut CallLeg| leg.phase == CallPhase::MoProgress;
        let Some(leg) = self.leg_of(&imsi, call).filter(in_progress) else {
            return Self::out_of_state(ctx);
        };
        let dtap = match kind {
            Q931Kind::Connect { media_addr } => {
                leg.remote_media = Some(media_addr);
                Dtap::Connect { call }
            }
            _ => Dtap::Alerting { call },
        };
        self.send_a_to_ms(ctx, &imsi, dtap);
    }

    /// Step 2.9 (MO side): the MS acknowledged the answer; conversation
    /// begins.
    pub(super) fn mo_connected(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        call: CallId,
    ) {
        match self.leg_on(conn, call) {
            Some((imsi, leg)) if leg.phase == CallPhase::MoProgress => {
                self.activate_voice_context(ctx, imsi);
                ctx.count("vmsc.mo_calls_connected");
            }
            _ => Self::out_of_state(ctx),
        }
    }

    /// Step 2.9 / 4.8: a second, high-priority PDP context for the voice
    /// packets.
    pub(super) fn activate_voice_context(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi) {
        let Some(leg) = self
            .ms_table
            .get_mut(&imsi)
            .and_then(|e| e.leg.as_deref_mut())
        else {
            return;
        };
        leg.phase = CallPhase::Active;
        leg.connected_at = Some(ctx.now());
        leg.voice_pdp_requested_at = Some(ctx.now());
        ctx.observe_duration(
            "vmsc.call_setup_ms",
            ctx.now().duration_since(leg.started_at),
        );
        self.timers.cancel(ctx, &TimerKey::Leg(imsi));
        ctx.note("Step 2.9/4.8: activate voice PDP context; conversation begins");
        ctx.count("vmsc.voice_context_requested");
        self.activate_pdp(ctx, imsi, voice_nsapi(), QosProfile::realtime_voice());
    }

    /// The voice context is up (step 2.9 / 4.8 answered).
    pub(super) fn voice_context_up(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        addr: Ipv4Addr,
    ) {
        if let Some(entry) = self.ms_table.get_mut(&imsi) {
            entry.voice_addr = Some(addr);
            self.by_addr.insert(addr, imsi);
            // Voice-PDP activation-time KPI: request → accept.
            let requested_at = entry
                .leg
                .as_deref_mut()
                .and_then(|leg| leg.voice_pdp_requested_at.take());
            if let Some(requested_at) = requested_at {
                ctx.observe_duration(
                    "vmsc.voice_pdp_activation_ms",
                    ctx.now().duration_since(requested_at),
                );
            }
        }
        ctx.count("vmsc.voice_context_active");
    }
}
