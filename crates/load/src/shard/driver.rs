//! The traffic driver: what the schedule holds ([`Action`]) and what
//! each call-related action does — attempt (first dial or redial),
//! probe, hangup, mute. A call is remembered by its scheduled
//! follow-ups as one [`Call`] record; abandoning it bumps the
//! subscriber's `gen`, which is how those follow-ups learn they are
//! stale.

use vgprs_faults::FaultClass;
use vgprs_gsm::{MobileStation, MsState};
use vgprs_sim::{NodeId, SimRng};
use vgprs_wire::{CallId, CellId, Command, Msisdn};

use super::Shard;
use crate::population::{Arrival, CallKind};

/// Answer delay plus setup slack: voice is up by this long after a
/// dial that connects (both endpoint types auto-answer after 2 s).
pub(super) const CONNECT_GRACE_MS: u64 = 3_000;

/// A mover still on a handed-off call when its return is due goes home
/// this long after the hangup instead.
const RETURN_DELAY_MS: u64 = 3_000;

/// Stream-class salt for redial back-off jitter.
const STREAM_REDIAL: u64 = 0x52ED_1A1B_ACC0_FFEE;

/// A connected call is probed this long after the connect grace window;
/// by then voice is up (or the attempt is dead) on every call kind.
const PROBE_DELAY_MS: u64 = 2_500;

/// Redial back-off base: attempt `n` waits `REDIAL_BASE_MS << n` plus
/// seeded jitter before trying again.
const REDIAL_BASE_MS: u64 = 2_000;

/// Upper bound on the redial jitter drawn per (subscriber, attempt).
const REDIAL_JITTER_MS: u64 = 500;

/// A caller whose call died retries at most this many times.
const MAX_REDIALS: u32 = 2;

/// One planned call and which try at it this is.
#[derive(Clone, Copy)]
pub(super) struct Dial {
    pub local: usize,
    pub arrival: Arrival,
    /// `0` for the plan's own attempt, dialed at `arrival.at_ms`; a
    /// backed-off re-attempt of a call the probe found dead counts up
    /// from 1.
    pub attempt_no: u32,
}

/// One dialed call as its scheduled follow-ups remember it.
#[derive(Clone, Copy)]
pub(super) struct Call {
    pub local: usize,
    /// The called subscriber of a mobile-to-mobile call.
    pub peer_local: Option<usize>,
    /// The endpoint that dialed, and the far one.
    pub orig: NodeId,
    pub peer: NodeId,
    /// The subscriber's `gen` when the call was dialed.
    pub gen: u32,
}

/// Driver-scheduled actions, totally ordered by `(time, sequence)`.
pub(super) enum Action {
    Attempt(Dial),
    /// Checks whether a dialed call actually survived to the talking
    /// phase; failures are attributed to the overlapping fault window
    /// (or the baseline) and trigger a backed-off redial.
    Probe(Call, Dial),
    Hangup(Call),
    Mute(Call),
    Move {
        local: usize,
        cell: CellId,
    },
    /// Impairment window `i` of the fault plan opens.
    FaultStart(usize),
    /// Impairment window `i` of the fault plan closes; recovery runs.
    FaultEnd(usize),
}

impl Shard {
    pub(super) fn handle_action(&mut self, at_us: u64, action: Action) {
        match action {
            Action::Attempt(dial) => self.attempt(at_us, dial),
            Action::Probe(call, dial) => self.probe(at_us, call, dial),
            Action::Hangup(call) => self.hangup(at_us, call),
            Action::Mute(call) => self.mute(call),
            Action::Move { local, cell } => self.relocate(local, at_us, cell),
            Action::FaultStart(i) => self.fault_start(i),
            Action::FaultEnd(i) => self.fault_end(i),
        }
    }

    /// Attributes an attempt or a drop to the shock's peak or the steady
    /// state, so blocking can be reported for each regime.
    fn count_regime(&mut self, what: &str, at_ms: u64) {
        if !self.demand.is_flat() {
            let peak = self.demand.in_peak(at_ms);
            let regime = if peak { "peak" } else { "steady" };
            self.count(&format!("load.{what}_{regime}"));
        }
    }

    /// Whether subscriber `l` can take a call now; counts the skip if not.
    fn is_free(&mut self, l: usize, at_us: u64) -> bool {
        if self.subs[l].away {
            self.count("load.away_skipped");
        } else if at_us < self.subs[l].busy_until_us {
            self.count("load.busy_skipped");
        } else {
            return true;
        }
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
        arrival: Arrival,
    ) -> Option<(NodeId, Msisdn, NodeId, Option<usize>)> {
        let sub = &self.subs[local];
        match arrival.kind {
            CallKind::MoToTerminal => Some((sub.ms, sub.alias, sub.terminal, None)),
            CallKind::MtFromTerminal => Some((sub.terminal, sub.msisdn, sub.ms, None)),
            CallKind::MsToMs => {
                if self.cfg.subscribers < 2 {
                    self.count("load.no_peer_available");
                    return None;
                }
                let mut p = (arrival.peer_draw % (self.cfg.subscribers as u64 - 1)) as usize;
                if p >= local {
                    p += 1;
                }
                if !self.is_free(p, at_us) {
                    return None;
                }
                let ms = self.subs[local].ms;
                self.occupy(p, at_us, arrival.hold_ms, ms);
                Some((ms, self.subs[p].msisdn, self.subs[p].ms, Some(p)))
            }
        }
    }

    fn attempt(&mut self, at_us: u64, dial: Dial) {
        let Dial { local, arrival, .. } = dial;
        if dial.attempt_no > 0 {
            self.count("load.redial_attempts");
        }
        self.count("load.attempts");
        if !self.is_free(local, at_us) {
            return;
        }
        let Some((orig, called, peer, peer_local)) = self.parties(at_us, local, arrival) else {
            return;
        };
        // The far party as seen from the subscriber's handset (for MT
        // calls the originating terminal, not the handset itself).
        let far = if orig == self.subs[local].ms {
            peer
        } else {
            orig
        };
        self.occupy(local, at_us, arrival.hold_ms, far);
        // Counted here, past the away/busy skips, so the regime
        // denominators cover exactly the calls the drop probe sees.
        let at_ms = at_us / 1000;
        self.count_regime("attempts", at_ms);
        let id = CallId((self.cfg.base_index as u64) << 32 | self.next_call);
        self.next_call += 1;
        self.cmd(orig, Command::Dial { call: id, called });
        let gen = self.subs[local].gen;
        let call = Call {
            local,
            peer_local,
            orig,
            peer,
            gen,
        };
        let mute_ms = CONNECT_GRACE_MS + self.cfg.voice_sample_ms;
        if mute_ms < arrival.hold_ms {
            self.push(at_ms + mute_ms, Action::Mute(call));
        }
        self.push(at_ms + arrival.hold_ms, Action::Hangup(call));
        // Probe the call once it should be in the talking phase. Calls
        // shorter than the probe point are never probed (their teardown
        // would race the check).
        let probe_ms = CONNECT_GRACE_MS + PROBE_DELAY_MS;
        if probe_ms + 500 < arrival.hold_ms {
            self.push(at_ms + probe_ms, Action::Probe(call, dial));
        }
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
        let current = self.subs[call.local].gen == call.gen;
        if !current {
            self.count("load.stale_actions");
        }
        current
    }

    /// Verifies that a dialed call reached the talking phase. A dead
    /// call is attributed to whichever fault window overlapped its
    /// setup (or the baseline), both parties are freed, and the caller
    /// redials with exponential back-off and seeded jitter.
    fn probe(&mut self, at_us: u64, call: Call, dial: Dial) {
        let (local, attempt_no) = (call.local, dial.attempt_no);
        if self.subs[local].gen != call.gen || self.subs[local].away {
            return;
        }
        let state = self
            .net
            .node::<MobileStation>(self.subs[local].ms)
            .expect("subscriber MS")
            .state();
        let now_ms = at_us / 1000;
        if state == MsState::Active {
            if attempt_no > 0 {
                // Time from the original (failed) dial to a verified
                // live call on a later attempt.
                let recovery_ms = (now_ms - dial.arrival.at_ms) as f64;
                self.observe("load.redial_recovery_ms", recovery_ms);
            }
            return;
        }
        let dialed_ms = now_ms - (CONNECT_GRACE_MS + PROBE_DELAY_MS);
        let class = FaultClass::ALL
            .into_iter()
            .find(|&c| self.plan.overlaps(c, dialed_ms, now_ms));
        let key = class.map_or("baseline", FaultClass::key);
        self.count(&format!("load.dropped_{key}"));
        self.count_regime("dropped", dialed_ms);
        self.abandon(local, at_us);
        if let Some(p) = call.peer_local {
            self.subs[p].busy_until_us = at_us;
            self.subs[p].current_peer = None;
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
        self.push(now_ms + back_ms, Action::Attempt(redial));
    }

    fn hangup(&mut self, at_us: u64, call: Call) {
        if !self.is_current(call) {
            return;
        }
        self.cmd(call.orig, Command::Hangup);
        let parties = [Some(call.local), call.peer_local];
        if parties.iter().flatten().any(|&l| self.subs[l].handed_off) {
            // The anchor's release toward the old radio channel never
            // reaches a handset that left the cell; drive the far end
            // explicitly so both legs tear down.
            self.cmd(call.peer, Command::Hangup);
            self.count("load.handoff_teardowns");
        }
        for local in parties.into_iter().flatten() {
            let sub = &mut self.subs[local];
            sub.current_peer = None;
            sub.silent_since_us = None;
            if std::mem::take(&mut sub.pending_return) {
                let cell = self.home.access.cell;
                let back_ms = at_us / 1000 + RETURN_DELAY_MS;
                self.push(back_ms, Action::Move { local, cell });
            }
        }
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
    use super::super::tests::{call_at, counter, idle_shard};
    use super::*;

    /// Subscriber 0's try number `attempt_no` at a call planned for 10 ms.
    fn dial(attempt_no: u32) -> Dial {
        Dial {
            local: 0,
            arrival: call_at(10),
            attempt_no,
        }
    }

    #[test]
    fn only_a_redial_counts_as_one() {
        let mut shard = idle_shard(1);
        shard.handle_action(10_000, Action::Attempt(dial(0)));
        assert_eq!(counter(&shard, "load.attempts"), 1);
        assert_eq!(counter(&shard, "load.redial_attempts"), 0);

        shard.handle_action(20_000_000, Action::Attempt(dial(1)));
        assert_eq!(counter(&shard, "load.attempts"), 2);
        assert_eq!(counter(&shard, "load.redial_attempts"), 1);
    }

    /// Nobody dialed, so every probe finds its handset idle: two
    /// failures schedule a redial each, the third gives up, and what
    /// the abandoned calls had scheduled does nothing.
    #[test]
    fn the_third_failed_probe_gives_up() {
        let mut shard = idle_shard(1);
        let call = |gen| Call {
            local: 0,
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
        assert_eq!(counter(&shard, "load.dropped_baseline"), 3);
        assert_eq!(counter(&shard, "load.redials_exhausted"), 1);
        assert_eq!(shard.sched.len(), 2, "the third probe schedules nothing");

        shard.handle_action(7_000_000, Action::Hangup(calls[2]));
        shard.handle_action(7_000_000, Action::Mute(calls[2]));
        assert_eq!(counter(&shard, "load.stale_actions"), 2);
        assert_eq!(shard.net.pending_events(), 0, "and commands nobody");
    }
}
