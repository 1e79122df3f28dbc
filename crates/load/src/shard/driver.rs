//! The traffic driver: what the schedule holds ([`Action`]) and what
//! each call-related action does — attempt (first dial or redial),
//! probe, hangup, mute. A call is remembered by its scheduled
//! follow-ups as one [`Call`] record; abandoning it bumps the
//! subscriber's `gen`, which is how those follow-ups learn they are
//! stale.
//!
//! Every dial that gets past the busy and away checks is judged once,
//! by its probe, into one [`Outcome`] read from the endpoint that
//! dialed: it connected, or it failed for a named cause. A call that
//! failed is torn down at both ends.

use vgprs_faults::FaultClass;
use vgprs_gsm::{MobileStation, MsState};
use vgprs_h323::{H323Terminal, TerminalState};
use vgprs_sim::{NodeId, SimRng};
use vgprs_wire::{CallId, Cause, CellId, Command, Msisdn, ANSWER_DELAY};

use super::voice::ms32;
use super::{alias_for, msisdn_for, Ix, Shard, Trip};
use crate::population::{CallKind, MIN_HOLD_SECS};

/// Answer delay plus setup slack: voice is up by this long after a
/// dial that connects.
pub(super) const CONNECT_GRACE_MS: u64 = ANSWER_DELAY.as_millis() + SETUP_SLACK_MS;

/// What a connecting dial takes beyond the callee's ringing.
const SETUP_SLACK_MS: u64 = 1_000;

/// A mover still on a handed-off call when its return is due goes home
/// this long after the hangup instead.
const RETURN_DELAY_MS: u64 = 3_000;

/// Stream-class salt for redial back-off jitter.
const STREAM_REDIAL: u64 = 0x52ED_1A1B_ACC0_FFEE;

/// A connected call is probed this long after the connect grace window;
/// by then voice is up (or the attempt is dead) on every call kind.
const PROBE_DELAY_MS: u64 = 2_500;

/// How long after its dial a call is probed.
pub(super) const PROBE_MS: u64 = CONNECT_GRACE_MS + PROBE_DELAY_MS;

/// The half second the driver keeps between two changes of one call: a
/// planned hold outlasts the probe by more than this, a handoff comes
/// more than this after the call's mute, and the handoff's own re-mute
/// more than this before the hangup.
pub(super) const MARGIN_MS: u64 = 500;

// Every planned hold, and so every redial's, outlasts the probe by the
// margin: a probe never races its call's hangup, so it alone judges.
const _: () = assert!(PROBE_MS + MARGIN_MS < (MIN_HOLD_SECS * 1000.0) as u64);

/// How long after its dial a call's ends are muted, having talked for
/// `voice_sample_ms`; a call whose hold ends first is never muted.
pub(super) const fn mute_after_ms(voice_sample_ms: u64) -> u64 {
    CONNECT_GRACE_MS + voice_sample_ms
}

/// Redial back-off base: attempt `n` waits `REDIAL_BASE_MS << n` plus
/// seeded jitter before trying again.
const REDIAL_BASE_MS: u64 = 2_000;

/// Upper bound on the redial jitter drawn per (subscriber, attempt).
const REDIAL_JITTER_MS: u64 = 500;

/// A caller whose call died retries at most this many times.
const MAX_REDIALS: u8 = 2;

/// How a dial ended: it connected, or the fault window that overlapped
/// the attempt, or else the cause its originating endpoint was released
/// with, says why not. Each is one `load.*` counter and one KPI row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The conversation began.
    Connected,
    /// A cell had no traffic channel.
    BlockedTch,
    /// The gatekeeper refused admission: budget spent or alias unknown.
    RejectedGk,
    /// The called party was in a call.
    CalleeBusy,
    /// The called handset could not be reached: its page went
    /// unanswered.
    PageTimeout,
    /// An overload control shed the call (network congestion).
    Shed,
    /// Not connected when its probe looked, or released by a
    /// supervision timer.
    SetupTimeout,
    /// Refused for any other reason: no route, authentication, service
    /// or PDP resources refused, a protocol error, the far end cleared.
    Refused,
    /// A fault window of this class overlapped the attempt.
    Fault(FaultClass),
}

impl Outcome {
    /// Every way a dial ends, each once.
    pub const ALL: [Outcome; 11] = [
        Outcome::Connected,
        Outcome::BlockedTch,
        Outcome::RejectedGk,
        Outcome::CalleeBusy,
        Outcome::PageTimeout,
        Outcome::Shed,
        Outcome::SetupTimeout,
        Outcome::Refused,
        Outcome::Fault(FaultClass::LinkDegrade),
        Outcome::Fault(FaultClass::NodeCrash),
        Outcome::Fault(FaultClass::Blackhole),
    ];

    /// What a release `cause` before the connect means to the caller.
    fn of(cause: Cause) -> Outcome {
        match cause {
            Cause::RadioResourceUnavailable => Outcome::BlockedTch,
            Cause::AdmissionRejected | Cause::UnallocatedNumber => Outcome::RejectedGk,
            Cause::UserBusy => Outcome::CalleeBusy,
            Cause::SubscriberAbsent | Cause::NoAnswer => Outcome::PageTimeout,
            Cause::NetworkCongestion => Outcome::Shed,
            Cause::TemporaryFailure | Cause::RecoveryOnTimerExpiry => Outcome::SetupTimeout,
            Cause::NormalClearing
            | Cause::NoRouteToDestination
            | Cause::AuthenticationFailure
            | Cause::ServiceNotAllowed
            | Cause::PdpResourceUnavailable
            | Cause::ProtocolError => Outcome::Refused,
        }
    }

    /// The counter the outcome is filed under.
    pub fn counter(self) -> &'static str {
        match self {
            Outcome::Connected => "load.connected",
            Outcome::BlockedTch => "load.failed_blocked_tch",
            Outcome::RejectedGk => "load.failed_rejected_gk",
            Outcome::CalleeBusy => "load.failed_callee_busy",
            Outcome::PageTimeout => "load.failed_page_timeout",
            Outcome::Shed => "load.failed_shed",
            Outcome::SetupTimeout => "load.failed_setup_timeout",
            Outcome::Refused => "load.failed_refused",
            Outcome::Fault(FaultClass::LinkDegrade) => "load.dropped_link_degrade",
            Outcome::Fault(FaultClass::NodeCrash) => "load.dropped_node_crash",
            Outcome::Fault(FaultClass::Blackhole) => "load.dropped_blackhole",
        }
    }

    /// Whether the caller dials again: after a fault, or a setup that
    /// never answered. A call the network refused is cleared, as
    /// teletraffic counts a blocked call.
    fn redials(self) -> bool {
        matches!(self, Outcome::SetupTimeout | Outcome::Fault(_))
    }
}

/// One planned call and which try at it this is: the plan's
/// [`Arrival`](crate::population::Arrival) with the callee of a
/// mobile-to-mobile call drawn already, so the schedule holds a
/// subscriber index rather than the raw draw.
#[derive(Clone, Copy)]
pub(super) struct Dial {
    /// The plan's instant, kept by every re-attempt.
    pub at_ms: u64,
    pub hold_ms: u64,
    pub kind: CallKind,
    /// The called subscriber of a mobile-to-mobile call; `None` for the
    /// other kinds, and in a shard of one, where there is nobody to call.
    pub callee: Option<Ix>,
    /// `0` for the plan's own attempt, dialed at `at_ms`; a backed-off
    /// re-attempt of a call the probe found dead counts up from 1.
    pub attempt_no: u8,
}

/// One dialed call as its scheduled follow-ups remember it.
#[derive(Clone, Copy)]
pub(super) struct Call {
    pub local: Ix,
    /// The called subscriber of a mobile-to-mobile call.
    pub peer_local: Option<Ix>,
    /// The endpoint that dialed, and the far one.
    pub orig: NodeId,
    pub peer: NodeId,
    /// The subscriber's `gen` when the call was dialed.
    pub gen: u32,
}

/// Driver-scheduled actions, totally ordered by `(time, sequence)`.
/// A subscriber is named once per action, by its index in four bytes.
pub(super) enum Action {
    Attempt(Ix, Dial),
    /// Judges whether a dialed call reached the talking phase; a
    /// failure is torn down and, if the caller would, redialed with
    /// back-off.
    Probe(Call, Dial),
    Hangup(Call),
    Mute(Call),
    Move {
        local: Ix,
        cell: CellId,
        /// When the subscriber's move after this one is due, in ms from
        /// t0 (`u32::MAX`: none).
        next_ms: u32,
    },
    /// Impairment window `i` of the fault plan opens.
    FaultStart(usize),
    /// Impairment window `i` of the fault plan closes; recovery runs.
    FaultEnd(usize),
}

impl Shard {
    pub(super) fn handle_action(&mut self, at_us: u64, action: Action) {
        match action {
            Action::Attempt(local, dial) => self.attempt(at_us, local.get(), dial),
            Action::Probe(call, dial) => self.probe(at_us, call, dial),
            Action::Hangup(call) => self.hangup(at_us, call),
            Action::Mute(call) => self.mute(call),
            Action::Move { local, cell, next_ms } => {
                self.relocate(local.get(), at_us, cell, next_ms)
            }
            Action::FaultStart(i) => self.fault_start(i),
            Action::FaultEnd(i) => self.fault_end(i),
        }
    }

    /// Attributes an attempt or a drop to the shock's peak or the steady
    /// state, so blocking can be reported for each regime: counts `peak`
    /// or `steady`.
    fn count_regime(&mut self, (peak, steady): (&'static str, &'static str), at_ms: u64) {
        if !self.demand.is_flat() {
            self.count(if self.demand.in_peak(at_ms) { peak } else { steady });
        }
    }

    /// Whether subscriber `l` can take a call now; counts the skip if not.
    fn is_free(&mut self, l: usize, at_us: u64) -> bool {
        let skipped = match self.subs[l].trip {
            Trip::Visiting | Trip::HandedOff { .. } => "load.away_skipped",
            Trip::Home if at_us < self.subs[l].busy_until_us => "load.busy_skipped",
            Trip::Home => return true,
        };
        self.count(skipped);
        false
    }

    /// Opens subscriber `l`'s busy window for a call with `far`.
    fn occupy(&mut self, l: usize, at_us: u64, hold_ms: u64, far: NodeId) {
        let sub = &mut self.subs[l];
        sub.busy_until_us = at_us + hold_ms * 1000;
        sub.call_started_us = at_us;
        sub.current_peer = Some(far);
    }

    /// Who dials, which number, who answers — and, mobile to mobile, the
    /// callee's row, which is occupied here if it is free.
    fn parties(
        &mut self,
        at_us: u64,
        local: usize,
        dial: Dial,
    ) -> Option<(NodeId, Msisdn, NodeId, Option<Ix>)> {
        let (sub, global) = (&self.subs[local], self.cfg.base_index + local);
        match dial.kind {
            CallKind::MoToTerminal => Some((sub.ms, alias_for(global), sub.terminal, None)),
            CallKind::MtFromTerminal => Some((sub.terminal, msisdn_for(global), sub.ms, None)),
            CallKind::MsToMs => {
                let Some(callee) = dial.callee else {
                    self.count("load.no_peer_available");
                    return None;
                };
                let p = callee.get();
                if !self.is_free(p, at_us) {
                    return None;
                }
                let ms = self.subs[local].ms;
                self.occupy(p, at_us, dial.hold_ms, ms);
                let number = msisdn_for(self.cfg.base_index + p);
                Some((ms, number, self.subs[p].ms, Some(callee)))
            }
        }
    }

    fn attempt(&mut self, at_us: u64, local: usize, dial: Dial) {
        if dial.attempt_no > 0 {
            self.count("load.redial_attempts");
        }
        self.count("load.attempts");
        if !self.is_free(local, at_us) {
            return;
        }
        let Some((orig, called, peer, peer_local)) = self.parties(at_us, local, dial) else {
            return;
        };
        // The far party as seen from the subscriber's handset (for MT
        // calls the originating terminal, not the handset itself).
        let far = if orig == self.subs[local].ms {
            peer
        } else {
            orig
        };
        self.occupy(local, at_us, dial.hold_ms, far);
        // Counted here, past the away/busy skips, so the regime
        // denominators cover exactly the calls the drop probe sees.
        let at_ms = at_us / 1000;
        self.count_regime(("load.attempts_peak", "load.attempts_steady"), at_ms);
        let id = CallId((self.cfg.base_index as u64) << 32 | self.next_call);
        self.next_call += 1;
        self.cmd(orig, Command::Dial { call: id, called });
        let parties = (local, peer_local.map(Ix::get));
        self.promise_voice(at_ms, &dial, parties, [orig, peer]);
        let call = Call {
            local: Ix::new(local),
            peer_local,
            orig,
            peer,
            gen: self.subs[local].gen,
        };
        let mute_ms = mute_after_ms(self.cfg.voice_sample_ms);
        if mute_ms < dial.hold_ms {
            self.push(at_ms + mute_ms, Action::Mute(call));
        }
        self.push(at_ms + dial.hold_ms, Action::Hangup(call));
        // Judge the call once it should be in the talking phase.
        self.push(at_ms + PROBE_MS, Action::Probe(call, dial));
    }

    /// Gives up on subscriber `local`'s current call: closes the busy
    /// window and invalidates the call's remaining scheduled actions.
    /// Returns the far party the row remembered.
    pub(super) fn abandon(&mut self, local: usize, at_us: u64) -> Option<NodeId> {
        let sub = &mut self.subs[local];
        sub.gen = sub.gen.wrapping_add(1);
        sub.busy_until_us = at_us;
        sub.current_peer.take()
    }

    /// Whether `call` is still the subscriber's current one; an action
    /// of a call the driver abandoned is counted and must do nothing (a
    /// stale hangup would tear down the redialed successor).
    fn is_current(&mut self, call: Call) -> bool {
        let current = self.subs[call.local.get()].gen == call.gen;
        if !current {
            self.count("load.stale_actions");
        }
        current
    }

    /// How `call`'s dial ended, read from the endpoint that dialed:
    /// connected while it talks; otherwise the fault window that
    /// overlapped the attempt, the cause the endpoint was released
    /// with, or a setup timeout while it is still setting up.
    fn verdict(&self, call: Call, now_ms: u64) -> Outcome {
        let sub = &self.subs[call.local.get()];
        let (active, cause) = if call.orig == sub.ms {
            let ms = self.net.node::<MobileStation>(call.orig);
            let ms = ms.expect("subscriber MS");
            (ms.state() == MsState::Active, ms.dial_failure())
        } else {
            let term = self.net.node::<H323Terminal>(call.orig);
            let term = term.expect("subscriber terminal");
            (term.state() == TerminalState::Active, term.dial_failure())
        };
        if active {
            return Outcome::Connected;
        }
        let dialed_ms = sub.call_started_us / 1000;
        let overlaps = |&c: &FaultClass| self.plan.overlaps(c, dialed_ms, now_ms);
        match (FaultClass::ALL.into_iter().find(overlaps), cause) {
            (Some(class), _) => Outcome::Fault(class),
            (None, Some(cause)) => Outcome::of(cause),
            (None, None) => Outcome::SetupTimeout,
        }
    }

    /// Judges a dialed call once it should be talking, under its
    /// [`Outcome`]. A failed one is torn down — both ends hang up, so
    /// its channel, voice context and admission go back — both parties
    /// are freed, and a caller who would try again redials with
    /// exponential back-off and seeded jitter.
    fn probe(&mut self, at_us: u64, call: Call, dial: Dial) {
        let (local, attempt_no) = (call.local.get(), dial.attempt_no);
        let sub = &self.subs[local];
        if sub.gen != call.gen || sub.trip != Trip::Home {
            // Handed off, which a handset is only while talking (and
            // perhaps torn by a trunk partition since).
            return self.count(Outcome::Connected.counter());
        }
        let now_ms = at_us / 1000;
        let outcome = self.verdict(call, now_ms);
        self.count(outcome.counter());
        if outcome == Outcome::Connected {
            let faulted = FaultClass::ALL
                .into_iter()
                .any(|c| self.plan.overlaps(c, dial.at_ms, now_ms));
            if attempt_no > 0 && faulted {
                // Time from the original (failed) dial to a verified
                // live call on a later attempt.
                let recovery_ms = (now_ms - dial.at_ms) as f64;
                self.observe("load.redial_recovery_ms", recovery_ms);
            }
            return;
        }
        let dialed_ms = self.subs[local].call_started_us / 1000;
        self.count_regime(("load.dropped_peak", "load.dropped_steady"), dialed_ms);
        self.cmd(call.orig, Command::Hangup);
        self.cmd(call.peer, Command::Hangup);
        self.abandon(local, at_us);
        if let Some(p) = call.peer_local.map(Ix::get) {
            self.subs[p].busy_until_us = at_us;
            self.subs[p].current_peer = None;
        }
        if !outcome.redials() {
            return;
        }
        if attempt_no >= MAX_REDIALS {
            self.count("load.redials_exhausted");
            return;
        }
        let global = (self.cfg.base_index + local) as u64;
        let stream = STREAM_REDIAL ^ (global << 8) ^ u64::from(attempt_no);
        let jitter = SimRng::derive(self.cfg.master_seed, stream).range(0, REDIAL_JITTER_MS);
        let back_ms = (REDIAL_BASE_MS << attempt_no) + jitter;
        let redial = Dial {
            attempt_no: attempt_no + 1,
            ..dial
        };
        self.note_redial(now_ms + back_ms, dial.kind);
        self.push(now_ms + back_ms, Action::Attempt(call.local, redial));
    }

    fn hangup(&mut self, at_us: u64, call: Call) {
        if !self.is_current(call) {
            return;
        }
        self.cmd(call.orig, Command::Hangup);
        let parties = [Some(call.local), call.peer_local];
        let crossed = |l: &Ix| matches!(self.subs[l.get()].trip, Trip::HandedOff { .. });
        let away = parties.iter().flatten().any(crossed);
        if away || self.moved(call.orig) || self.moved(call.peer) {
            // A release never crosses the inter-MSC leg of a call
            // handed over to another MSC, here or across the border;
            // drive the far end explicitly so both legs tear down.
            self.cmd(call.peer, Command::Hangup);
            self.count("load.handoff_teardowns");
        }
        let cell = self.home.access.cell;
        for local in parties.into_iter().flatten() {
            let sub = &mut self.subs[local.get()];
            sub.current_peer = None;
            sub.silent_since.take();
            if let Trip::HandedOff { return_due: true } = sub.trip {
                sub.trip = Trip::HandedOff { return_due: false };
                let back_ms = at_us / 1000 + RETURN_DELAY_MS;
                let next_ms = std::mem::replace(&mut sub.next_move_ms, ms32(back_ms));
                self.push(back_ms, Action::Move { local, cell, next_ms });
            }
        }
    }

    /// Whether the handset `ms` is in a call that connected.
    pub(super) fn talking(&self, ms: NodeId) -> bool {
        let ms = self.net.node::<MobileStation>(ms).expect("subscriber MS");
        ms.state() == MsState::Active
    }

    /// Whether `node` is a handset whose call was handed over.
    fn moved(&self, node: NodeId) -> bool {
        let ms = self.net.node::<MobileStation>(node);
        ms.is_some_and(MobileStation::call_handed_over)
    }

    fn mute(&mut self, call: Call) {
        if self.is_current(call) {
            self.cmd(call.orig, Command::StopTalking);
            self.cmd(call.peer, Command::StopTalking);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{call_at, config, counter, idle_shard};
    use super::*;
    use crate::mailbox::EPOCH_MS;
    use crate::population::SubscriberPlan;

    /// Subscriber 0's try number `attempt_no` at a call planned for 10 ms.
    fn dial(attempt_no: u8) -> Dial {
        Dial {
            at_ms: 10,
            hold_ms: call_at(10).hold_ms,
            kind: CallKind::MoToTerminal,
            callee: None,
            attempt_no,
        }
    }

    #[test]
    fn only_a_redial_counts_as_one() {
        let mut shard = idle_shard(1);
        shard.handle_action(10_000, Action::Attempt(Ix::new(0), dial(0)));
        assert_eq!(counter(&shard, "load.attempts"), 1);
        assert_eq!(counter(&shard, "load.redial_attempts"), 0);

        shard.handle_action(20_000_000, Action::Attempt(Ix::new(0), dial(1)));
        assert_eq!(counter(&shard, "load.attempts"), 2);
        assert_eq!(counter(&shard, "load.redial_attempts"), 1);
    }

    /// Nobody dialed, so every probe finds its handset idle and no
    /// cause: a setup that never answered, which the caller redials.
    /// Two failures schedule a redial each, the third gives up, and
    /// what the abandoned calls had scheduled does nothing.
    #[test]
    fn the_third_failed_probe_gives_up() {
        let mut shard = idle_shard(1);
        let call = |gen| Call {
            local: Ix::new(0),
            peer_local: None,
            orig: shard.subs[0].ms,
            peer: shard.subs[0].terminal,
            gen,
        };
        let calls = [call(0), call(1), call(2)];
        for (attempt_no, call) in (0..).zip(calls) {
            let at_us = 6_000_000 + u64::from(attempt_no);
            shard.handle_action(at_us, Action::Probe(call, dial(attempt_no)));
        }
        assert_eq!(counter(&shard, Outcome::SetupTimeout.counter()), 3);
        assert_eq!(counter(&shard, "load.redials_exhausted"), 1);
        assert_eq!(shard.sched.len(), 2, "the third probe schedules nothing");

        shard.handle_action(7_000_000, Action::Hangup(calls[2]));
        shard.handle_action(7_000_000, Action::Mute(calls[2]));
        assert_eq!(counter(&shard, "load.stale_actions"), 2);
    }

    /// A refusal lands in its own cause, once, and is not redialed: a
    /// cell with no traffic channel, a gatekeeper with no budget, and a
    /// terminal already in a call when its subscriber's handset dials
    /// it. Every attempt is judged exactly once.
    #[test]
    fn each_refusal_is_filed_under_its_own_cause_and_cleared() {
        let plans = || {
            let plan = |global_index, arrivals| SubscriberPlan {
                global_index,
                arrivals,
                excursion: None,
            };
            vec![plan(0, vec![call_at(1_000)]), plan(1, Vec::new())]
        };
        for cause in [
            Outcome::BlockedTch,
            Outcome::RejectedGk,
            Outcome::CalleeBusy,
        ] {
            let mut cfg = config(2);
            match cause {
                Outcome::BlockedTch => cfg.tch_capacity = 0,
                Outcome::RejectedGk => cfg.gk_bandwidth = 0,
                _ => {}
            }
            let mut shard = Shard::new(&cfg, &plans());
            if cause == Outcome::CalleeBusy {
                // Subscriber 0's terminal calls subscriber 1's handset
                // behind the driver's back, so it is busy at 1 s.
                let dial = Command::Dial {
                    call: CallId(999),
                    called: msisdn_for(1),
                };
                shard.cmd(shard.subs[0].terminal, dial);
            }
            for epoch in 0..10_000 / EPOCH_MS {
                shard.run_epoch(epoch, Vec::new());
            }
            let outcomes = Outcome::ALL.map(|o| counter(&shard, o.counter()));
            let expected = Outcome::ALL.map(|o| u64::from(o == cause));
            assert_eq!(outcomes, expected, "{cause:?}");
            assert_eq!(
                counter(&shard, "load.attempts"),
                1,
                "{cause:?} is not redialed"
            );
        }
    }
}
