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
        let named = self.casualty_of((call, global, kind));
        match kind {
            // The far end never hears these frames; the scheduled
            // hangup (or the probe) still cleans the call up, so only
            // attribute the loss to the trunk class.
            ExpiredKind::Voice => self.count("load.trunk_frame_drops"),
            ExpiredKind::Handoff => {
                // A dialogue we relayed for a visitor call just loses
                // its route: the anchor shard's supervision owns the
                // teardown.
                if let Some(call) = call {
                    self.routes.remove(&call);
                }
                if let Some(local) = named {
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
                let Some(local) = named else {
                    return self.count("load.trunk_signal_drops");
                };
                self.count("load.trunk_mobility_reverts");
                self.provision_home(self.cfg.base_index + local);
                self.recamp_home(local);
            }
            ExpiredKind::Signal => self.count("load.trunk_signal_drops"),
        }
    }

    /// The subscriber of this shard whose call or trip an abandoned flit's
    /// [casualty](crate::mailbox::Flit::casualty) changes: mid-ladder the
    /// call's anchored route or the mover's index (a visitor's names
    /// nobody here), and the mover of a lost ownership move.
    pub(super) fn casualty_of(
        &self,
        (call, global, kind): (Option<CallId>, Option<usize>, ExpiredKind),
    ) -> Option<usize> {
        let mover = global.and_then(|g| self.local_of(g));
        match kind {
            ExpiredKind::Handoff => match call.and_then(|c| self.routes.get(&c)) {
                Some(&Route::Anchored { local, .. }) => Some(local),
                _ => mover,
            },
            ExpiredKind::Mobility => mover,
            ExpiredKind::Voice | ExpiredKind::Signal => None,
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
    use std::collections::BTreeMap;

    use super::super::tests::{call_at, counter, idle_shard, shard_with};
    use super::*;
    use crate::mailbox::{Flit, EPOCH_MS};
    use crate::population::SubscriberPlan;
    use vgprs_sim::{Interface, NodeId, TraceEntry};
    use vgprs_wire::{Dtap, MapMessage};

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

    /// Subscribers `0..n` of shard 0 of eight, each dialing its terminal
    /// at 1 s and at 20 s, for 10 s; the trunk is armed, and voice rides
    /// trains where it may or (`trains: false`) goes frame by frame.
    fn armed(n: usize, trains: bool) -> Shard {
        let plan = |global_index| SubscriberPlan {
            global_index,
            arrivals: vec![call_at(1_000), call_at(20_000)],
            excursion: None,
        };
        let mut shard = shard_with((0..n).map(plan).collect());
        shard.set_voice_trains(trains);
        shard.run_epoch(0, vec![(1, Flit::TrunkArmed)]);
        shard
    }

    /// Runs epochs 1 to the one holding `to_ms`, handing epoch `at`
    /// the flit `flit`.
    fn run_to(shard: &mut Shard, to_ms: u64, (at, flit): (u64, Option<Flit>)) {
        for epoch in 1..=to_ms / EPOCH_MS {
            let inbox = flit.clone().filter(|_| epoch == at).map(|f| (1, f));
            shard.run_epoch(epoch, Vec::from_iter(inbox));
        }
    }

    /// What the shard counted outside the kernel's `sim.*` census: every
    /// counter, and every histogram's count, sum, extremes and buckets.
    fn outside_the_kernel(shard: Shard) -> BTreeMap<String, String> {
        let stats = shard.finish().stats;
        let counters = stats.counters().map(|(name, n)| (name, n.to_string()));
        let histograms = stats.histograms().map(|(name, h)| {
            let buckets: Vec<(f64, u64)> = h.nonzero_buckets().collect();
            let (min, max) = (h.min(), h.max());
            let shape = format!("{} {} {min:?} {max:?} {buckets:?}", h.count(), h.sum());
            (name, shape)
        });
        (counters.chain(histograms))
            .filter(|(name, _)| !name.starts_with("sim."))
            .map(|(name, shape)| (name.to_owned(), shape))
            .collect()
    }

    /// The uplink of subscriber `global`'s radio leg in another shard.
    fn uplink(global: usize) -> Flit {
        let dtap = Dtap::ReleaseComplete { call: CallId(7) };
        Flit::UmUp { global, dtap }
    }

    /// A subscriber the shard posted a flit about — an uplink of its
    /// radio leg, or the anchor's half of its handoff dialogue — is
    /// exposed for the ladder's budget and an epoch: its dial at 1 s
    /// sends every frame on its own, its dial at 20 s rides trains.
    #[test]
    fn a_recently_named_subscriber_dials_without_a_promise() {
        let mut shard = armed(2, true);
        let call = CallId(1);
        shard.routes.insert(call, Route::Anchored { target: 1, local: 1 });
        shard.post(1, uplink(0));
        shard.post(1, Flit::Map(MapMessage::SendEndSignalAck { call }));
        run_to(&mut shard, 15_000, (0, None));
        assert!(counter(&shard, "ms.voice_frames_sent") > 0, "no voice");
        assert_eq!(counter(&shard, "sim.voice.trains"), 0);
        assert_eq!(counter(&shard, "sim.voice.trunk_held"), 2);
        for epoch in 15_000 / EPOCH_MS + 1..30_000 / EPOCH_MS {
            shard.run_epoch(epoch, Vec::new());
        }
        assert!(counter(&shard, "sim.voice.trains") > 0, "the later dials rode no train");
        assert_eq!(counter(&shard, "sim.voice.trunk_held"), 2);
    }

    /// A casualty notice for an exposed subscriber's flit tears its
    /// call down while it talks: nothing was promised, so no promise
    /// check fires and the shard counts what the per-frame run counts.
    /// With the exposure rule off, a train sent before the notice
    /// carries frames the per-frame run never sends.
    #[test]
    fn a_casualty_mid_call_ends_it_as_the_per_frame_run_does() {
        let expired = Flit::TrunkExpired {
            peer: 1,
            call: None,
            global: Some(0),
            kind: ExpiredKind::Handoff,
        };
        let outcome = |trains| {
            let mut shard = armed(1, trains);
            shard.post(1, uplink(0));
            run_to(&mut shard, 35_000, (4_500 / EPOCH_MS, Some(expired.clone())));
            assert_eq!(counter(&shard, "load.trunk_handoff_drops"), 1);
            // Torn with no heal to come, the subscriber's dial at 20 s
            // is held as well.
            assert_eq!(counter(&shard, "sim.voice.trunk_held"), 2 * u64::from(trains));
            outside_the_kernel(shard)
        };
        assert_eq!(outcome(true), outcome(false));
    }

    /// A torn subscriber who came home and talks is exposed until its
    /// trunk heals: the heal's re-camp meets the call as it meets the
    /// per-frame one.
    #[test]
    fn a_heal_that_reaches_a_talking_subscriber_ends_as_the_per_frame_run_does() {
        let outcome = |trains| {
            let mut shard = armed(1, trains);
            shard.subs[0].torn = Some(Tear { by: Ix::new(1), at_ms: 0 });
            run_to(&mut shard, 35_000, (4_500 / EPOCH_MS, Some(Flit::TrunkHeal { peer: 1 })));
            assert_eq!(counter(&shard, "load.trunk_reroutes"), 1);
            assert_eq!(counter(&shard, "sim.voice.trunk_held"), u64::from(trains));
            outside_the_kernel(shard)
        };
        assert_eq!(outcome(true), outcome(false));
    }
}
