//! A subscriber's trip across the shard border, one [`Trip`] value, and
//! the moves that begin and end it: out across the border, back from
//! it, or an ordinary reselection inside the shard. Idle, the trip
//! moves the subscriber's HLR record to the destination shard (GSM's
//! location update, faked at the barrier); mid-call it is the paper's
//! Figure 9 handoff, with the call anchored here.

use vgprs_wire::{CellId, Command};

use super::driver::{mute_after_ms, Action, Call, MARGIN_MS};
use super::{Ix, Shard};
use crate::mailbox::{Flit, BORDER_CELL};

/// A cross-shard trip landing mid-call only hands off when the call is
/// safely established and has at least this long left before the
/// scheduled hangup — otherwise the mover stays home (a real handset
/// would finish the call on the old cell's fading channel).
const HANDOFF_TAIL_US: u64 = 2_000_000;

/// Idle-mode crossings keep this much distance from the previous call's
/// teardown so the HLR transfer never races an active transaction.
const POST_CALL_SETTLE_US: u64 = 2_000_000;

/// How long voice flows on both legs around an in-call handoff before
/// the driver mutes it again (samples the interruption gap).
const HANDOFF_VOICE_MS: u64 = 2_500;

/// Where a subscriber is with respect to its home shard. A subscriber
/// makes at most one trip: `Home` → `Visiting` → `Home` idle, or
/// `Home` → `HandedOff` → `Home` mid-call, the return waiting for the
/// hangup if it falls due during the call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Trip {
    /// In the home shard: it dials, is dialed and moves between cells.
    Home,
    /// An idle trip: camped on the border cell, its HLR record owned by
    /// the destination shard. Its dials are skipped.
    Visiting,
    /// A Figure 9 handoff: the radio leg lives at the destination VMSC,
    /// the H.323 leg stays anchored here, and the HLR record does not
    /// move. `return_due`: the trip's return fell due during the call,
    /// so the subscriber goes home shortly after the hangup.
    HandedOff { return_due: bool },
}

impl Shard {
    /// A scheduled move: out across the border, back from it, or an
    /// ordinary reselection inside the shard. The move after it is due
    /// at `next_ms` from t0 (`u32::MAX`: none).
    pub(super) fn relocate(&mut self, local: usize, at_us: u64, cell: CellId, next_ms: u32) {
        self.subs[local].next_move_ms = next_ms;
        if cell == BORDER_CELL {
            return self.cross_out(local, at_us);
        }
        let sub = &self.subs[local];
        match sub.trip {
            Trip::Home => {
                let ms = sub.ms;
                self.count("load.moves");
                self.cmd(ms, Command::MoveToCell { cell });
            }
            Trip::Visiting => {
                // Reclaim ownership before the handset's location update
                // arrives, mirroring the HLR update of a real return.
                let target = sub.cross_target().expect("cross mover");
                let global = self.cfg.base_index + local;
                self.provision_home(global);
                self.post(target, Flit::Depart { global });
                self.cross_back(local);
            }
            Trip::HandedOff { .. } if at_us < sub.busy_until_us + POST_CALL_SETTLE_US => {
                // Still on the handed-off call; return after it ends.
                self.subs[local].trip = Trip::HandedOff { return_due: true };
            }
            Trip::HandedOff { .. } => self.cross_back(local),
        }
    }

    /// The subscriber's excursion leaves the shard. Mid-call (and only
    /// when the call is settled and has time left) this becomes an
    /// inter-VMSC handoff; idle it transfers HLR ownership.
    fn cross_out(&mut self, local: usize, at_us: u64) {
        let sub = &self.subs[local];
        let Some(target) = sub.cross_target() else {
            return;
        };
        let (ms, gen, busy_until_us) = (sub.ms, sub.gen, sub.busy_until_us);
        if at_us < busy_until_us {
            let settled_ms = mute_after_ms(self.cfg.voice_sample_ms) + MARGIN_MS;
            let settled_us = sub.call_started_us + settled_ms * 1000;
            // Only a talking handset hands over: a dial that failed
            // before its probe judged it holds the busy window too.
            if at_us <= settled_us || at_us + HANDOFF_TAIL_US >= busy_until_us || !self.talking(ms)
            {
                return self.count("load.cross_skipped");
            }
            let peer = sub.current_peer.expect("mid-call peer");
            self.count("load.moves");
            self.subs[local].trip = Trip::HandedOff { return_due: false };
            // Re-open voice on both legs so the handoff interrupts a
            // live stream, then mute again once the gap is sampled.
            self.cmd(ms, Command::StartTalking);
            self.cmd(peer, Command::StartTalking);
            let mute_at_ms = at_us / 1000 + HANDOFF_VOICE_MS;
            if (mute_at_ms + MARGIN_MS) * 1000 < busy_until_us {
                let call = Call { local: Ix::new(local), peer_local: None, orig: ms, peer, gen };
                self.push(mute_at_ms, Action::Mute(call));
            }
        } else {
            if busy_until_us > 0 && at_us < busy_until_us + POST_CALL_SETTLE_US {
                return self.count("load.cross_skipped");
            }
            self.count("load.moves");
            self.count("load.cross_idle");
            self.subs[local].trip = Trip::Visiting;
            // The destination shard's HLR takes the record; ours drops it.
            let global = self.cfg.base_index + local;
            self.post(target, Flit::Arrive { global });
            self.cancel_home(global);
        }
        self.cmd(ms, Command::MoveToCell { cell: BORDER_CELL });
    }

    /// The subscriber's trip ends: it re-camps on the home cell.
    fn cross_back(&mut self, local: usize) {
        self.count("load.cross_back");
        self.recamp_home(local);
    }

    /// The subscriber is home again: re-camp on the home cell.
    pub(super) fn recamp_home(&mut self, local: usize) {
        let sub = &mut self.subs[local];
        sub.trip = Trip::Home;
        let (ms, cell) = (sub.ms, self.home.access.cell);
        self.cmd(ms, Command::MoveToCell { cell });
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{call_at, counter, shard_with};
    use super::*;
    use crate::mailbox::EPOCH_MS;
    use crate::population::{Excursion, SubscriberPlan};

    /// Subscriber 0 of shard 0 of eight crosses to shard 2 at `out_ms`
    /// and comes back at `back_ms`; with `call`, it first dials its
    /// terminal 10 ms in, for 10 s. Returns the shard, its trip once the
    /// epochs up to each of `at_ms` have run, and the trip flits posted.
    fn travel(
        call: bool,
        (out_ms, back_ms): (u64, u64),
        at_ms: &[u64],
    ) -> (Shard, Vec<Trip>, Vec<(usize, Flit)>) {
        let excursion = Some(Excursion { out_ms, back_ms, cross_shard: Some(1), drift: false });
        let arrivals = if call { vec![call_at(10)] } else { Vec::new() };
        let mut shard = shard_with(vec![SubscriberPlan { global_index: 0, arrivals, excursion }]);
        let (mut trips, mut flits, mut epoch) = (Vec::new(), Vec::new(), 0);
        for &ms in at_ms {
            for env in (epoch..ms / EPOCH_MS).flat_map(|e| shard.run_epoch(e, Vec::new())) {
                if matches!(env.flit, Flit::Arrive { .. } | Flit::Depart { .. }) {
                    flits.push((env.to_shard, env.flit));
                }
            }
            trips.push(shard.subs[0].trip);
            epoch = ms / EPOCH_MS;
        }
        (shard, trips, flits)
    }

    #[test]
    fn an_idle_trip_moves_the_hlr_record_out_and_back() {
        let (shard, trips, flits) = travel(false, (1_000, 7_000), &[1_000, 7_000, 7_050]);
        assert_eq!(trips, [Trip::Home, Trip::Visiting, Trip::Home]);
        let moved = matches!(
            flits[..],
            [(2, Flit::Arrive { global: 0 }), (2, Flit::Depart { global: 0 })]
        );
        assert!(moved, "Arrive, then Depart, to shard 2: {flits:?}");
        assert_eq!(counter(&shard, "load.cross_back"), 1);
    }

    /// Handed off at 6 s, due back at 8 s while the call is up: home 3 s
    /// after the hangup at 10.01 s, having moved no HLR record.
    #[test]
    fn a_handed_off_return_waits_for_the_hangup() {
        let at_ms = [6_050, 8_050, 13_000, 13_050];
        let (shard, trips, flits) = travel(true, (6_000, 8_000), &at_ms);
        let off = |return_due| Trip::HandedOff { return_due };
        assert_eq!(trips, [off(false), off(true), off(false), Trip::Home]);
        assert!(flits.is_empty(), "{flits:?}");
        assert_eq!(counter(&shard, "load.cross_back"), 1);
    }

    /// A move 1.5 s before the hangup at 10.01 s, or 1 s after it, is
    /// skipped: the subscriber stays home.
    #[test]
    fn a_move_too_near_a_call_stays_home() {
        for out_ms in [8_500, 11_000] {
            let (shard, trips, flits) = travel(true, (out_ms, 20_000), &[12_500]);
            assert_eq!((trips, flits.len()), (vec![Trip::Home], 0), "{out_ms}");
            assert_eq!(counter(&shard, "load.cross_skipped"), 1, "{out_ms}");
        }
    }
}
