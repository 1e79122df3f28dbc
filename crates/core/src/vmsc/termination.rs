//! Mobile call termination (paper §5, Figure 6, steps 4.1–4.8), with
//! the page broadcast and its throttle.

use vgprs_sim::{Context, Offer};
use vgprs_wire::{
    CallId, Cause, CellId, ConnRef, Dtap, Imsi, IpPayload, Message, MsIdentity, Q931Kind,
    Q931Message, TransportAddr,
};

use super::timers::TimerKey;
use super::{CallLeg, CallPhase, Vmsc, H225_PORT, MEDIA_PORT, PAGING_TIMEOUT};

impl Vmsc {
    /// Step 4.2: an incoming call arrived through the GGSN — `leg` is
    /// what its Setup says. Step 4.3 asks the gatekeeper to admit the
    /// answering side.
    pub(super) fn incoming_setup(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        src: TransportAddr,
        leg: CallLeg,
    ) {
        let Some(entry) = self.ms_table.get_mut(&imsi) else {
            return Self::out_of_state(ctx);
        };
        if entry.leg.is_some() {
            let kind = Q931Kind::ReleaseComplete {
                cause: Cause::UserBusy,
            };
            let reply = Q931Message {
                crv: leg.crv,
                call: leg.id,
                kind,
            };
            self.send_ip_for(ctx, imsi, H225_PORT, src, IpPayload::Q931(reply));
            return;
        }
        let (call, called) = (leg.id, entry.msisdn);
        entry.leg = Some(Box::new(leg));
        ctx.count("vmsc.mt_calls");
        ctx.note("Step 4.2: incoming Setup via GGSN; Call Proceeding back");
        self.send_q931(ctx, imsi, Q931Kind::CallProceeding);
        if let Some(called) = called {
            self.request_admission(ctx, imsi, call, called, true, None);
        }
    }

    /// Pages immediately while the current one-second window has budget,
    /// defers behind the bounded queue otherwise, and sheds with a
    /// network-congestion release once the queue is full.
    pub(super) fn page_or_defer(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        call: CallId,
    ) {
        match self.paging.offer(ctx, (imsi, call)) {
            Offer::Admitted(_) => self.page_ms(ctx, imsi, call),
            Offer::Deferred => ctx.count("vmsc.pages_throttled"),
            Offer::Shed(_) => {
                ctx.count("vmsc.pages_shed");
                self.release_far_end(ctx, imsi, Cause::NetworkCongestion);
            }
        }
    }

    /// Drain tick: page up to one window's budget from the deferred
    /// queue, oldest first, skipping calls cleared while they waited.
    pub(super) fn drain_paging_queue(&mut self, ctx: &mut Context<'_, Message>) {
        while let Some(((imsi, call), waited)) = self.paging.next(ctx, |(imsi, call)| {
            let leg = self.ms_table.get(imsi).and_then(|e| e.leg.as_deref());
            leg.is_some_and(|leg| leg.id == *call && leg.phase == CallPhase::MtAdmission)
        }) {
            ctx.observe_duration("vmsc.paging_throttle_delay_ms", waited);
            self.page_ms(ctx, imsi, call);
        }
    }

    /// Step 4.4: broadcast the page for an admitted MT call and start
    /// the paging supervision timer.
    fn page_ms(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi, call: CallId) {
        let Some(entry) = self.ms_table.get_mut(&imsi) else {
            return;
        };
        if let Some(leg) = entry.leg_mut(call) {
            leg.phase = CallPhase::MtPaging;
            leg.paged_at = Some(ctx.now());
        }
        let tmsi = entry.tmsi.get();
        self.timers
            .arm(ctx, TimerKey::Paging(imsi, call), PAGING_TIMEOUT, None);
        ctx.note("Step 4.4: page the MS");
        ctx.count("vmsc.pages_sent");
        ctx.count(match tmsi {
            Some(_) => "vmsc.paged_by_tmsi",
            None => "vmsc.paged_by_imsi",
        });
        self.gsm.page(ctx, imsi, tmsi);
    }

    /// Step 4.5: the MS answered the page; authenticate and cipher via
    /// the VLR.
    pub(super) fn paging_response(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        identity: MsIdentity,
    ) {
        let Some(imsi) = self.gsm.paged_subscriber(ctx, identity) else {
            return;
        };
        let Some(entry) = self.ms_table.get_mut(&imsi) else {
            return Self::out_of_state(ctx);
        };
        entry.conn = conn.into();
        self.gsm.bind(conn, imsi);
        // Paging-latency KPI: page broadcast → MS answer.
        if let Some(paged_at) = entry.leg.as_deref_mut().and_then(|leg| leg.paged_at.take()) {
            ctx.observe_duration(
                "vmsc.paging_response_ms",
                ctx.now().duration_since(paged_at),
            );
        }
        self.gsm.request_access(ctx, conn, identity);
    }

    /// The VLR answered an access request: the CM service request of an
    /// MO call, or the paging response of an MT one (step 4.5).
    pub(super) fn access_answered(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        imsi: Imsi,
        rejection: Option<Cause>,
    ) {
        self.gsm.bind(conn, imsi);
        let paged = self.ms_table.get_mut(&imsi).and_then(|entry| {
            entry.conn = conn.into();
            let paged =
                |leg: &&mut CallLeg| matches!(leg.phase, CallPhase::MtPaging | CallPhase::MtAccess);
            entry.leg.as_deref_mut().filter(paged)
        });
        match (paged, rejection) {
            (Some(leg), None) => {
                leg.phase = CallPhase::MtAccess;
                self.gsm
                    .send(ctx, conn, Dtap::ChannelAssignment { cell: CellId(0) });
            }
            (Some(_), Some(cause)) => {
                // The paged handset is told nothing else: free its channel.
                self.release_far_end(ctx, imsi, cause);
                self.gsm.send(ctx, conn, Dtap::ChannelRelease);
            }
            (None, Some(cause)) => self.gsm.send(ctx, conn, Dtap::CmServiceReject { cause }),
            (None, None) => self.gsm.send(ctx, conn, Dtap::CmServiceAccept),
        }
    }

    /// Steps 4.6–4.8: the MS rings, then answers; relay to the caller,
    /// acknowledge the answer, and bring the voice context up.
    pub(super) fn mt_progress(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        call: CallId,
        answered: bool,
    ) {
        let ringing = self
            .leg_on(conn, call)
            .filter(|(_, leg)| leg.phase == CallPhase::MtRinging);
        let Some((imsi, _)) = ringing else {
            return Self::out_of_state(ctx);
        };
        if !answered {
            return self.send_q931(ctx, imsi, Q931Kind::Alerting);
        }
        if let Some(media_addr) = self.addr_for(&imsi, MEDIA_PORT) {
            self.send_q931(ctx, imsi, Q931Kind::Connect { media_addr });
        }
        self.gsm.send(ctx, conn, Dtap::ConnectAck { call });
        self.activate_voice_context(ctx, imsi);
        ctx.count("vmsc.mt_calls_answered");
    }
}
