//! Registration (paper §3, Figure 4, steps 1.1–1.6), and how an MS
//! leaves the table again: a failed step, a purge, a backbone resync.

use vgprs_sim::Context;
use vgprs_wire::{
    Cause, ConnRef, Dtap, GmmMessage, Imsi, Ipv4Addr, Lai, Message, MsIdentity, Msisdn, QosProfile,
    RasMessage, Tmsi,
};

use super::timers::{Guard, TimerKey};
use super::{sig_nsapi, voice_nsapi, CallPhase, MsEntry, RegPhase, Vmsc, GK_BACKOFF, H225_PORT};

impl Vmsc {
    /// Step 1.1: relay the location update into the VLR.
    pub(super) fn location_update(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        identity: MsIdentity,
        lai: Lai,
    ) {
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

    /// Step 1.2 complete. Do NOT accept toward the MS yet: the paper
    /// continues with GPRS attach + PDP + RAS first.
    pub(super) fn location_updated(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        imsi: Imsi,
        tmsi: Option<Tmsi>,
        msisdn: Option<Msisdn>,
    ) {
        if self.config.resilience && !self.ms_table.contains_key(&imsi) {
            // Recovery after a VMSC restart: the MS table was lost, but
            // the VLR still resolves the TMSI — rebuild the entry from
            // its answer so the cold-start re-registration can proceed.
            ctx.count("vmsc.entries_rebuilt");
            self.ms_table
                .insert(imsi, MsEntry::new(imsi, Some(conn), ctx.now()));
            self.gsm.bind(conn, imsi);
        }
        let Some(entry) = self.ms_table.get_mut(&imsi) else {
            return Self::out_of_state(ctx);
        };
        entry.tmsi = tmsi;
        entry.msisdn = msisdn;
        self.gsm.learn_tmsi(tmsi, imsi);
        if entry.signaling_addr.is_some() {
            // Re-registration: contexts already exist; go straight to
            // the RAS refresh.
            entry.phase = RegPhase::RasRegistering;
            if self.send_rrq(ctx, imsi) {
                self.arm_ras_guard(ctx, imsi);
            }
        } else {
            // Step 1.3: GPRS attach, just like a GPRS MS would.
            entry.phase = RegPhase::Attaching;
            ctx.note("Step 1.3: GPRS attach + signaling PDP context");
            ctx.send(self.sgsn, Message::Gmm(GmmMessage::AttachRequest { imsi }));
        }
    }

    /// Step 1.3 continues: activate the signaling context.
    pub(super) fn attached(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi) {
        match self.ms_table.get_mut(&imsi) {
            Some(entry) if entry.phase == RegPhase::Attaching => {
                entry.phase = RegPhase::ActivatingSignalingContext;
                self.activate_pdp(ctx, imsi, sig_nsapi(), QosProfile::signaling());
            }
            _ => Self::out_of_state(ctx),
        }
    }

    /// Step 1.3 done: the MS has an IP address. Step 1.4 registers its
    /// alias — unless this is the idle-deactivation ablation bringing the
    /// context back for a call, which resumes instead.
    pub(super) fn signaling_context_up(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        addr: Ipv4Addr,
    ) {
        let Some(entry) = self.ms_table.get_mut(&imsi) else {
            return Self::out_of_state(ctx);
        };
        entry.signaling_addr = Some(addr);
        self.by_addr.insert(addr, imsi);
        let waiting = entry
            .leg
            .as_deref()
            .filter(|leg| leg.phase == CallPhase::MoAdmission);
        match (entry.phase, waiting.map(|leg| (leg.id, leg.party))) {
            (RegPhase::ActivatingSignalingContext, _) => {
                entry.phase = RegPhase::RasRegistering;
                ctx.note("Step 1.4: endpoint registration (RRQ) -> GK");
                if self.send_rrq(ctx, imsi) {
                    self.arm_ras_guard(ctx, imsi);
                } else {
                    ctx.count("vmsc.no_alias_for_rrq");
                }
            }
            (RegPhase::Registered, Some((call, Some(called)))) => {
                // Idle-deactivation ablation: the context is back for a
                // call. Re-announce the fresh address, then continue the
                // call's step 2.3.
                self.send_rrq(ctx, imsi);
                self.request_admission(ctx, imsi, call, called, false, None);
            }
            _ => Self::out_of_state(ctx),
        }
    }

    /// (Re-)sends the registration RRQ for an MS from its current alias
    /// and signaling address; false when it has not got both yet.
    pub(super) fn send_rrq(&self, ctx: &mut Context<'_, Message>, imsi: Imsi) -> bool {
        let alias = self.ms_table.get(&imsi).and_then(|e| e.msisdn);
        let (Some(alias), Some(transport)) = (alias, self.addr_for(&imsi, H225_PORT)) else {
            return false;
        };
        self.send_ras(
            ctx,
            imsi,
            RasMessage::Rrq {
                alias,
                transport,
                imsi: None,
            },
        );
        true
    }

    /// Starts the RAS registration guard's ladder for an MS whose RRQ
    /// just went out. Resilience mode only.
    fn arm_ras_guard(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi) {
        if self.config.resilience {
            let delay = GK_BACKOFF
                .delay(0)
                .expect("RAS schedule allows a first wait");
            self.timers.arm(ctx, TimerKey::Ras(imsi), delay, None);
        }
    }

    /// RAS guard expiry: retry the RRQ with exponential backoff, or give
    /// up with a temporary-failure reject once the ladder is exhausted.
    pub(super) fn ras_guard_expired(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        guard: Guard,
    ) {
        if self.ms_table.get(&imsi).map(|e| e.phase) != Some(RegPhase::RasRegistering) {
            return; // registration moved on; nothing to guard
        }
        match GK_BACKOFF.delay(guard.attempts + 1) {
            Some(delay) => {
                ctx.count("vmsc.ras_retries");
                self.timers
                    .arm(ctx, TimerKey::Ras(imsi), delay, Some(guard));
                self.send_rrq(ctx, imsi);
            }
            None => {
                ctx.count("vmsc.ras_recovery_failed");
                self.fail_registration(ctx, imsi, Cause::TemporaryFailure);
            }
        }
    }

    /// Step 1.5 done → step 1.6: tell the MS.
    pub(super) fn ras_registered(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi) {
        let Some(entry) = self.ms_table.get_mut(&imsi) else {
            return Self::out_of_state(ctx);
        };
        if entry.phase != RegPhase::RasRegistering {
            return Self::out_of_state(ctx);
        }
        entry.phase = RegPhase::Registered;
        let (tmsi, conn, reg_started) = (entry.tmsi, entry.conn, entry.reg_started);
        self.timers
            .answered(ctx, &TimerKey::Ras(imsi), "vmsc.ras_recovery_ms");
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

    /// A registration step was refused: back to the start, and tell the
    /// MS.
    pub(super) fn fail_registration(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        cause: Cause,
    ) {
        self.timers.cancel(ctx, &TimerKey::Ras(imsi));
        if let Some(entry) = self.ms_table.get_mut(&imsi) {
            entry.phase = RegPhase::GsmUpdating;
            if let Some(conn) = entry.conn {
                self.gsm
                    .send(ctx, conn, Dtap::LocationUpdateReject { cause });
            }
        }
    }

    /// Idle-deactivation ablation: drop the signaling context once the
    /// MS has no call (or right after registration).
    pub(super) fn maybe_deactivate_signaling(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
    ) {
        if !self.config.deactivate_idle_contexts {
            return;
        }
        let Some(entry) = self.ms_table.get_mut(&imsi) else {
            return;
        };
        if entry.leg.is_some() {
            return;
        }
        if let Some(addr) = entry.signaling_addr.take() {
            self.by_addr.remove(&addr);
            ctx.count("vmsc.signaling_context_deactivated");
            self.deactivate_pdp(ctx, imsi, sig_nsapi());
        }
    }

    /// The subscriber registered elsewhere (MAP_Cancel_Location reached
    /// our VLR): release every resource held on its behalf — any call,
    /// the gatekeeper alias (URQ), the PDP contexts, and the MS table
    /// entry. Without this, relocations would leak contexts at the old
    /// SGSN and leave a stale alias that misroutes incoming calls.
    pub(super) fn purge_ms(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi) {
        self.release_far_end(ctx, imsi, Cause::SubscriberAbsent);
        let Some(entry) = self.ms_table.get(&imsi) else {
            return;
        };
        self.timers.cancel(ctx, &TimerKey::Ras(imsi));
        ctx.count("vmsc.purged");
        // Unregister the stale alias while the signaling context still
        // exists to carry the URQ.
        if let (Some(alias), true) = (entry.msisdn, entry.signaling_addr.is_some()) {
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

    /// A backbone peer (SGSN/GGSN/gatekeeper) restarted and lost our
    /// contexts: walk the MS table in deterministic order and re-run
    /// attach → PDP activation → RRQ for every subscriber. Stale PDP
    /// addresses are dropped — the restarted peer no longer knows them.
    pub(super) fn resync(&mut self, ctx: &mut Context<'_, Message>) {
        ctx.count("vmsc.resyncs");
        let mut imsis: Vec<Imsi> = self.ms_table.keys().copied().collect();
        imsis.sort();
        for imsi in imsis {
            self.timers.cancel(ctx, &TimerKey::Ras(imsi));
            let Some(entry) = self.ms_table.get_mut(&imsi) else {
                continue;
            };
            for addr in [entry.signaling_addr.take(), entry.voice_addr.take()]
                .into_iter()
                .flatten()
            {
                self.by_addr.remove(&addr);
            }
            entry.phase = RegPhase::Attaching;
            entry.reg_started = ctx.now();
            ctx.count("vmsc.resync_reattach");
            ctx.send(self.sgsn, Message::Gmm(GmmMessage::AttachRequest { imsi }));
        }
    }
}
