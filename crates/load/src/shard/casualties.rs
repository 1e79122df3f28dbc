//! The trunk's casualties: what the anchor's supervision does when the
//! trunk fabric gives up on a flit, and the re-route when a partition
//! heals. A handed-off call a partition killed leaves its subscriber
//! torn toward the partitioned shard ([`Tear`]) until that trunk heals.

use vgprs_wire::{CallId, Command};

use super::cross::Route;
use super::voice::ms32;
use super::{Ix, Shard, Trip};
use crate::mailbox::ExpiredKind;

/// A trunk partition toward shard `by` tore the subscriber's handed-off
/// call down at `at_ms` from t0. Kept beside the subscriber's trip, not
/// in it: the trip can end before the heal does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Tear {
    by: Ix,
    at_ms: u32,
}

impl Shard {
    /// The trunk fabric gave up retransmitting one of our flits toward
    /// `peer` (a partition or sustained loss outlived the back-off
    /// budget). Resolve the casualty the way the anchor VMSC's
    /// supervision timers would: voice loses frames, a dead handoff
    /// dialogue tears the call down with a Q.850 cause, a dead HLR
    /// ownership transfer reverts the move.
    pub(super) fn trunk_expired(
        &mut self,
        peer: usize,
        call: Option<CallId>,
        global: Option<usize>,
        kind: ExpiredKind,
    ) {
        let now_us = self.net.now().as_micros().saturating_sub(self.t0_us);
        let mover = global.and_then(|g| self.local_of(g));
        match kind {
            // The far end never hears these frames; the scheduled
            // hangup (or the probe) still cleans the call up, so only
            // attribute the loss to the trunk class.
            ExpiredKind::Voice => self.count("load.trunk_frame_drops"),
            ExpiredKind::Handoff => {
                // Who was mid-ladder? The anchor side finds the call's
                // route (or the mover via its global index); the host
                // side only knows the visitor's global. A dialogue we
                // relayed for a visitor call just loses its route: the
                // anchor shard's supervision owns the teardown.
                let anchored = match call.and_then(|c| self.routes.remove(&c)) {
                    Some(Route::Anchored { local, .. }) => Some(local),
                    _ => mover,
                };
                if let Some(local) = anchored {
                    self.teardown_torn(local, peer, now_us);
                } else if global.is_some_and(|g| self.visitors.remove(&g).is_some()) {
                    // An expired downlink for a visitor we host: abandon
                    // the radio leg; the anchor side supervises the call.
                    self.count("load.trunk_visitor_drops");
                } else {
                    self.count("load.trunk_signal_drops");
                }
            }
            ExpiredKind::Mobility => {
                // An idle-mode HLR ownership transfer died on the
                // trunk: revert the move so exactly one shard owns the
                // record again (re-provisioning is idempotent when the
                // expired flit was the return-trip cancel).
                let Some(local) = mover else {
                    return self.count("load.trunk_signal_drops");
                };
                self.count("load.trunk_mobility_reverts");
                self.provision_home(self.cfg.base_index + local);
                self.recamp_home(local);
            }
            ExpiredKind::Signal => self.count("load.trunk_signal_drops"),
        }
    }

    /// Supervised teardown of a handed-off call whose trunk leg a
    /// partition killed: both ends hang up, the dead call's remaining
    /// scheduled actions are invalidated, and the stranded mover is
    /// remembered so the heal can re-route it to its home anchor.
    fn teardown_torn(&mut self, local: usize, peer: usize, now_us: u64) {
        self.count("load.trunk_handoff_drops");
        // Q.850 cause 102, recovery on timer expiry.
        self.count("load.trunk_q850_102");
        let far = self.abandon(local, now_us);
        let sub = &mut self.subs[local];
        if let Trip::HandedOff { return_due } = &mut sub.trip {
            // The call is gone, so no hangup will send the mover home.
            *return_due = false;
        }
        sub.silent_since.take();
        // Stranded at the far cell until the partition heals (or the
        // natural return excursion brings the subscriber home first).
        sub.torn = Some(Tear { by: Ix::new(peer), at_ms: ms32(now_us / 1000) });
        let ms = sub.ms;
        self.cmd(ms, Command::Hangup);
        if let Some(far) = far {
            // The release toward the departed radio channel never
            // reaches the far handset; drive it down explicitly, like
            // the crossed-leg branch of a normal handoff hangup.
            self.cmd(far, Command::Hangup);
        }
    }

    /// A trunk partition toward `peer` healed: re-route every
    /// subscriber it stranded back onto the home anchor, in local-index
    /// order so the recovery sequence is deterministic.
    pub(super) fn trunk_heal(&mut self, peer: usize) {
        let now_ms = self.net.now().as_micros().saturating_sub(self.t0_us) / 1000;
        for local in 0..self.subs.len() {
            let torn = &mut self.subs[local].torn;
            let Some(tear) = torn.take_if(|tear| tear.by.get() == peer) else {
                continue;
            };
            self.count("load.trunk_reroutes");
            let recovery_ms = now_ms.saturating_sub(u64::from(tear.at_ms)) as f64;
            self.observe("load.heal_recovery_ms", recovery_ms);
            self.recamp_home(local);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{counter, idle_shard};
    use super::*;
    use crate::mailbox::Flit;
    use vgprs_sim::{Interface, NodeId, TraceEntry};

    /// Two subscribers torn toward peer 5 and one toward peer 7: the
    /// heal of trunk 5 brings its two home, lowest index first.
    #[test]
    fn a_heal_reroutes_its_own_casualties_in_index_order() {
        let mut shard = idle_shard(3);
        shard.net.set_trace_capture(true);
        for (local, peer) in [(0, 5), (1, 7), (2, 5)] {
            let sub = &mut shard.subs[local];
            sub.trip = Trip::HandedOff { return_due: false };
            sub.torn = Some(Tear { by: Ix::new(peer), at_ms: 0 });
        }
        shard.run_epoch(0, vec![(5, Flit::TrunkHeal { peer: 5 })]);

        let commanded: Vec<NodeId> = (shard.net.trace().entries().iter())
            .filter_map(|e| match e {
                TraceEntry::Message { to, iface: Interface::Internal, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(commanded, [shard.subs[0].ms, shard.subs[2].ms]);
        let state = |l: usize| (shard.subs[l].trip, shard.subs[l].torn);
        assert_eq!(state(0), (Trip::Home, None));
        let torn = Some(Tear { by: Ix::new(7), at_ms: 0 });
        assert_eq!(state(1), (Trip::HandedOff { return_due: false }, torn));
        assert_eq!(state(2), (Trip::Home, None));
        assert_eq!(counter(&shard, "load.trunk_reroutes"), 2);
        let recoveries = shard.net.stats().histogram("load.heal_recovery_ms");
        assert_eq!(recoveries.map(|h| h.count()), Some(2));
    }
}
