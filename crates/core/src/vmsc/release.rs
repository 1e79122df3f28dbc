//! Call release (paper steps 3.1–3.4): every way a leg ends — either
//! party hanging up, a refusal on the way up, a supervision timer
//! running out — and the one place it is dropped.
//!
//! A release is a handshake, and its tail finds the leg already gone:
//! the MS's `Release` after a network-initiated `Disconnect`, a
//! `Disconnect` or Release Complete that crossed ours. Those are the
//! procedure ending, not messages out of state, and are not counted.

use vgprs_sim::Context;
use vgprs_wire::{CallId, Cause, ConnRef, Dtap, Imsi, Message, Q931Kind, RasMessage};

use super::timers::{Guard, TimerKey};
use super::{voice_nsapi, CallPhase, Vmsc, GK_BACKOFF};

impl Vmsc {
    /// The MS clears its call: a `Disconnect` with its cause when it hangs
    /// up first (step 3.1; step 3.2 releases the H.323 leg), a `Release`
    /// when it answers ours. Either way its leg — or, for a call handed
    /// over to us, the visiting one — is dropped (steps 3.3–3.4).
    pub(super) fn ms_clearing(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        call: CallId,
        hangup: Option<Cause>,
    ) {
        let leg = self.leg_on(conn, call).map(|(imsi, _)| imsi);
        match hangup {
            Some(cause) => {
                ctx.count("vmsc.ms_initiated_release");
                ctx.note("Step 3.2: release H.323 leg (Q.931 Release Complete)");
                if let Some(imsi) = leg {
                    self.send_q931(ctx, imsi, Q931Kind::ReleaseComplete { cause });
                }
                self.gsm.send(ctx, conn, Dtap::Release { call });
            }
            None => {
                self.gsm.send(ctx, conn, Dtap::ReleaseComplete { call });
                self.gsm.send(ctx, conn, Dtap::ChannelRelease);
            }
        }
        match leg {
            Some(imsi) => self.drop_leg(ctx, imsi, true),
            None => self
                .visiting
                .retain(|id, leg| (*id, leg.conn) != (call, conn)),
        }
    }

    /// The far end hung up, or refused the call: clear the radio side.
    pub(super) fn remote_release(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        call: CallId,
        cause: Cause,
    ) {
        if self.leg_of(&imsi, call).is_some() {
            self.send_a_to_ms(ctx, &imsi, Dtap::Disconnect { call, cause });
            self.drop_leg(ctx, imsi, true);
        }
    }

    /// The BSC could not assign a traffic channel: release both sides.
    pub(super) fn assignment_failed(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        cause: Cause,
    ) {
        let row = self.row_on(conn);
        let Some((imsi, call)) = row.and_then(|e| Some((e.imsi, e.leg.as_deref()?.id))) else {
            return Self::out_of_state(ctx);
        };
        ctx.count("vmsc.assignment_blocked");
        self.release_far_end(ctx, imsi, cause);
        self.gsm.send(ctx, conn, Dtap::Disconnect { call, cause });
    }

    /// ARJ: the gatekeeper refused the call.
    pub(super) fn admission_rejected(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        call: CallId,
        cause: Cause,
    ) {
        ctx.count("vmsc.admission_rejected");
        let in_admission = self.leg_of(&imsi, call).is_some_and(|leg| {
            matches!(leg.phase, CallPhase::MoAdmission | CallPhase::MtAdmission)
        });
        if !in_admission {
            return Self::out_of_state(ctx);
        }
        // Gatekeeper load shed. Leave the armed admission guard in place
        // for ONE deferred re-try (the first backoff rung), so a brief
        // shed degrades to added setup delay instead of a failed call.
        // Later rungs would hold the call open for seconds into a still-
        // congested peak — the caller has long since given up — so a shed
        // of a retried admission releases immediately and leaves
        // re-attempting to the user.
        let first_rung = self
            .timers
            .guard(&TimerKey::Leg(imsi))
            .is_some_and(|g| g.attempts == 0);
        if cause == Cause::NetworkCongestion && self.config.resilience && first_rung {
            ctx.count("vmsc.admission_shed_deferred");
            return;
        }
        self.release_both(ctx, imsi, call, cause, false);
    }

    /// Releases an admitted call toward its far end and drops the leg;
    /// the MS has not heard of the call, or is told by the caller.
    pub(super) fn release_far_end(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        cause: Cause,
    ) {
        self.send_q931(ctx, imsi, Q931Kind::ReleaseComplete { cause });
        self.drop_leg(ctx, imsi, true);
    }

    /// Releases the call toward whichever far end already exists and
    /// toward the MS, and drops the leg — with `disengage` false when
    /// admission never came, so the gatekeeper holds nothing for it.
    fn release_both(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        call: CallId,
        cause: Cause,
        disengage: bool,
    ) {
        self.send_q931(ctx, imsi, Q931Kind::ReleaseComplete { cause });
        self.send_a_to_ms(ctx, &imsi, Dtap::Disconnect { call, cause });
        self.drop_leg(ctx, imsi, disengage);
    }

    /// Drops the MS's leg: its state, its guards, and — when the
    /// gatekeeper admitted it (`disengage`) — the voice PDP context
    /// (step 3.4) and the admission (DRQ, step 3.3).
    pub(super) fn drop_leg(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi, disengage: bool) {
        let Some(entry) = self.ms_table.get_mut(&imsi) else {
            return;
        };
        let Some(leg) = entry.leg.take() else {
            return;
        };
        let had_voice = disengage && entry.voice_addr.take().is_some();
        self.timers.cancel(ctx, &TimerKey::Leg(imsi));
        // Whatever handovers the leg had started end with it.
        self.handed_over.retain(|_, who| *who != imsi);
        if !disengage {
            return;
        }
        if had_voice {
            ctx.note("Step 3.4: deactivate voice PDP context");
            ctx.count("vmsc.voice_context_deactivated");
            self.deactivate_pdp(ctx, imsi, voice_nsapi());
        }
        let duration_ms = leg
            .connected_at
            .map_or(0, |at| ctx.now().duration_since(at).as_millis());
        self.send_ras(
            ctx,
            imsi,
            RasMessage::Drq {
                call: leg.id,
                duration_ms,
            },
        );
        self.maybe_deactivate_signaling(ctx, imsi);
    }

    /// Paging supervision ran out (never cancelled: usually the MS has
    /// long answered). Still paging means the subscriber is absent.
    pub(super) fn paging_expired(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        call: CallId,
    ) {
        if self
            .leg_of(&imsi, call)
            .is_some_and(|leg| leg.phase == CallPhase::MtPaging)
        {
            ctx.count("vmsc.paging_timeouts");
            self.release_far_end(ctx, imsi, Cause::SubscriberAbsent);
        }
    }

    /// The leg's guard expired. In admission, the gatekeeper never
    /// answered: retry the ARQ with exponential backoff, or release the
    /// call with a temporary-failure cause. Past it, the MO call never
    /// connected: release both legs (setup supervision).
    pub(super) fn leg_guard_expired(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        guard: Guard,
    ) {
        let Some((entry, leg)) = self
            .ms_table
            .get(&imsi)
            .and_then(|e| Some((e, e.leg.as_deref()?)))
        else {
            return;
        };
        let call = leg.id;
        let (answering, target) = match leg.phase {
            CallPhase::MoAdmission => (false, leg.party),
            CallPhase::MtAdmission => (true, entry.msisdn),
            CallPhase::MoProgress => {
                ctx.count("vmsc.setup_supervision_expired");
                return self.release_both(ctx, imsi, call, Cause::RecoveryOnTimerExpiry, true);
            }
            _ => return, // already answered; stale guard
        };
        match target.filter(|_| GK_BACKOFF.delay(guard.attempts + 1).is_some()) {
            Some(target) => {
                ctx.count("vmsc.arq_retries");
                self.request_admission(ctx, imsi, call, target, answering, Some(guard));
            }
            None => {
                ctx.count("vmsc.arq_recovery_failed");
                self.release_both(ctx, imsi, call, Cause::TemporaryFailure, false);
            }
        }
    }
}
