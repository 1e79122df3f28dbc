//! Everything that crosses the shard boundary. Outbound: a subscriber's
//! excursion to another shard (idle, the HLR record moves; mid-call, the
//! paper's Figure 9 handoff with the call anchored here) and the three
//! gate harvests that turn an epoch's captured E, Um and A traffic into
//! envelopes. Inbound: the barrier's flits. A call whose legs straddle
//! two shards is one [`Route`]; a visiting radio leg is one `visitors`
//! entry with its A-interface connection derived from the visitor's
//! global index. Also here: what the anchor's supervision does when the
//! trunk fabric gives up on a flit, and the re-route when it heals.

use vgprs_sim::{NodeId, SimTime};
use vgprs_wire::{CallId, CellId, Command, ConnRef, Dtap, Imsi, MapMessage, Message};

use super::driver::{Action, Call, CONNECT_GRACE_MS};
use super::{Ix, Shard};
use crate::mailbox::{ExpiredKind, Flit, TrunkGate, BORDER_CELL};

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

/// A visitor's radio leg is connection `VISITOR_CONN_BASE | global`: far
/// above anything the shard's own BSCs allocate, and one per visitor —
/// a subscriber has at most one hosted leg at a time.
const VISITOR_CONN_BASE: u32 = 0x8000_0000;

/// Where the E-interface traffic of a handed-over call goes. A call id
/// carries its minting shard's `base_index`, so the calls this shard
/// anchors and the calls it hosts never share a key.
pub(super) enum Route {
    /// Our subscriber `local`, their radio: shard `target` serves the
    /// handset (the row is named so a trunk partition that kills the
    /// dialogue can tear the right call down).
    Anchored { target: usize, local: usize },
    /// Their subscriber, our radio: shard `anchor` holds the H.323 leg.
    Hosted { anchor: usize },
}

/// The subscriber's global index recovered from a generated IMSI.
fn global_of(imsi: &Imsi) -> usize {
    imsi.suffix(6) as usize
}

impl Shard {
    /// A scheduled move: out across the border, back from it, or an
    /// ordinary reselection inside the shard.
    pub(super) fn relocate(&mut self, local: usize, at_us: u64, cell: CellId) {
        if cell == BORDER_CELL {
            self.cross_out(local, at_us);
        } else if self.subs[local].away {
            self.cross_back(local, at_us);
        } else {
            self.count("load.moves");
            self.cmd(self.subs[local].ms, Command::MoveToCell { cell });
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
            let settled_us =
                sub.call_started_us + (CONNECT_GRACE_MS + self.cfg.voice_sample_ms + 500) * 1000;
            // Only a talking handset hands over: a dial that failed
            // before its probe judged it holds the busy window too.
            if at_us <= settled_us || at_us + HANDOFF_TAIL_US >= busy_until_us || !self.talking(ms)
            {
                return self.count("load.cross_skipped");
            }
            let peer = sub.current_peer.expect("mid-call peer");
            self.count("load.moves");
            self.subs[local].away = true;
            self.subs[local].handed_off = true;
            // Re-open voice on both legs so the handoff interrupts a
            // live stream, then mute again once the gap is sampled.
            self.cmd(ms, Command::StartTalking);
            self.cmd(peer, Command::StartTalking);
            let mute_at_ms = at_us / 1000 + HANDOFF_VOICE_MS;
            if mute_at_ms * 1000 + 500_000 < busy_until_us {
                let call = Call {
                    local: Ix::new(local),
                    peer_local: None,
                    orig: ms,
                    peer,
                    gen,
                };
                self.push(mute_at_ms, Action::Mute(call));
            }
        } else {
            if busy_until_us > 0 && at_us < busy_until_us + POST_CALL_SETTLE_US {
                return self.count("load.cross_skipped");
            }
            self.count("load.moves");
            self.count("load.cross_idle");
            self.subs[local].away = true;
            // The destination shard's HLR takes the record; ours drops it.
            let global = self.cfg.base_index + local;
            self.post(target, Flit::Arrive { global });
            self.cancel_home(global);
        }
        self.cmd(ms, Command::MoveToCell { cell: BORDER_CELL });
    }

    /// The subscriber comes home: re-camp on the home cell, and for
    /// idle-mode trips reclaim the HLR record from the host shard.
    fn cross_back(&mut self, local: usize, at_us: u64) {
        let sub = &self.subs[local];
        if sub.handed_off {
            if at_us < sub.busy_until_us + POST_CALL_SETTLE_US {
                // Still on the handed-off call; return after it ends.
                self.subs[local].pending_return = true;
                return;
            }
        } else {
            let target = sub.cross_target().expect("cross mover");
            // Reclaim ownership before the handset's location update
            // arrives, mirroring the HLR update of a real return.
            let global = self.cfg.base_index + local;
            self.provision_home(global);
            self.post(target, Flit::Depart { global });
        }
        self.count("load.cross_back");
        self.recamp_home(local);
    }

    /// The subscriber is home again: re-camp on the home cell.
    fn recamp_home(&mut self, local: usize) {
        let sub = &mut self.subs[local];
        sub.away = false;
        sub.handed_off = false;
        let (ms, cell) = (sub.ms, self.home.access.cell);
        self.cmd(ms, Command::MoveToCell { cell });
    }

    /// Delivers one barrier flit into the simulation.
    pub(super) fn deliver_flit(
        &mut self,
        from_shard: usize,
        flit: Flit,
        um_batch: &mut Vec<(NodeId, Dtap)>,
    ) {
        match flit {
            Flit::Map(m) => {
                if let MapMessage::PrepareHandover { call, .. } = &m {
                    // Remember who anchors this visitor call so replies
                    // and uplink voice can be routed back.
                    let anchor = from_shard;
                    self.routes.insert(*call, Route::Hosted { anchor });
                }
                self.inject(self.trunk_gate, Message::Map(m));
            }
            Flit::Trunk {
                cic,
                call,
                seq,
                origin_off_us,
            } => {
                let origin_us = self.t0_us + origin_off_us;
                let voice = Message::TrunkVoice {
                    cic,
                    call,
                    seq,
                    origin_us,
                };
                self.inject(self.trunk_gate, voice);
            }
            Flit::UmUp { global, dtap } => self.visitor_uplink(from_shard, global, dtap),
            Flit::ADown { global, mut dtap } => {
                let Some(local) = self.local_of(global) else {
                    // Nothing another shard sends may panic this one.
                    return self.count("load.cross_dropped");
                };
                self.rebase_in(&mut dtap);
                let voice = matches!(dtap, Dtap::VoiceFrame { .. });
                let silent_since = &mut self.subs[local].silent_since;
                if let Some(start) = silent_since.get().filter(|_| voice) {
                    silent_since.take();
                    // First downlink voice since the handset left its
                    // old channel: the handoff interruption gap.
                    let gap_us = self.net.now().as_micros().saturating_sub(start.as_micros());
                    self.observe("load.handoff_interruption_ms", gap_us as f64 / 1000.0);
                }
                um_batch.push((self.subs[local].ms, dtap));
            }
            Flit::Arrive { global } => {
                self.count("load.visitors_hosted");
                self.provision_home(global);
            }
            Flit::Depart { global } => self.cancel_home(global),
            Flit::TrunkExpired {
                peer,
                call,
                global,
                kind,
            } => self.trunk_expired(peer, call, global, kind),
            Flit::TrunkHeal { peer } => self.trunk_heal(peer),
            // An armed trunk can hold a page back past any lead.
            Flit::TrunkArmed => self.set_voice_trains(false),
        }
    }

    /// Um uplink of a visitor whose handset is in shard `anchor`: onto
    /// its radio leg's A-interface connection. The leg exists from the
    /// handset's Handover Complete to the VMSC's Channel Release.
    fn visitor_uplink(&mut self, anchor: usize, global: usize, mut dtap: Dtap) {
        if matches!(dtap, Dtap::HandoverComplete { .. }) {
            self.visitors.insert(global, anchor);
        } else if !self.visitors.contains_key(&global) {
            return self.count("load.cross_dropped");
        }
        self.rebase_in(&mut dtap);
        let conn = ConnRef(VISITOR_CONN_BASE | global as u32);
        self.inject(self.radio_gate, Message::A { conn, dtap });
    }

    /// The trunk fabric gave up retransmitting one of our flits toward
    /// `peer` (a partition or sustained loss outlived the back-off
    /// budget). Resolve the casualty the way the anchor VMSC's
    /// supervision timers would: voice loses frames, a dead handoff
    /// dialogue tears the call down with a Q.850 cause, a dead HLR
    /// ownership transfer reverts the move.
    fn trunk_expired(
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
        sub.pending_return = false;
        sub.silent_since.take();
        // Stranded at the far cell until the partition heals (or the
        // natural return excursion brings the subscriber home first).
        sub.tear(peer, now_us / 1000);
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
    fn trunk_heal(&mut self, peer: usize) {
        let now_ms = self.net.now().as_micros().saturating_sub(self.t0_us) / 1000;
        for local in 0..self.subs.len() {
            let sub = &mut self.subs[local];
            let Some(torn_ms) = sub.heal(peer) else {
                continue;
            };
            sub.pending_return = false;
            self.count("load.trunk_reroutes");
            let recovery_ms = now_ms.saturating_sub(torn_ms) as f64;
            self.observe("load.heal_recovery_ms", recovery_ms);
            self.recamp_home(local);
        }
    }

    /// The shard a captured message of the Figure 9 MAP dialogue goes
    /// to, learning the route from an outbound Prepare Handover; `None`
    /// for a message no route carries in that direction.
    fn map_route(&mut self, m: &MapMessage) -> Option<usize> {
        match m {
            MapMessage::PrepareHandover { call, imsi, .. } => {
                let local = self.local_of(global_of(imsi))?;
                let target = self.subs[local].cross_target()?;
                self.routes.insert(*call, Route::Anchored { target, local });
                self.count("load.handoff_attempts");
                Some(target)
            }
            // The anchor closes the dialogue: the handoff succeeded.
            MapMessage::SendEndSignalAck { call } => match self.routes.get(call)? {
                &Route::Anchored { target, .. } => {
                    self.count("load.handoff_success");
                    Some(target)
                }
                Route::Hosted { .. } => None,
            },
            // The target's half of the dialogue goes back to the anchor.
            MapMessage::PrepareHandoverAck { call, .. } | MapMessage::SendEndSignal { call } => {
                match self.routes.get(call)? {
                    &Route::Hosted { anchor } => Some(anchor),
                    Route::Anchored { .. } => None,
                }
            }
            _ => None,
        }
    }

    /// Harvests the epoch's outbound E-interface traffic: the handoff
    /// dialogue, and trunk voice — anchor → target (our subscriber's
    /// downlink) or target → anchor (a visitor's uplink).
    pub(super) fn harvest_trunk_gate(&mut self) {
        let captured = self
            .net
            .node_mut::<TrunkGate>(self.trunk_gate)
            .expect("trunk gate")
            .take_captured();
        for msg in captured {
            let routed = match msg {
                Message::Map(m) => self.map_route(&m).map(|to| (to, Flit::Map(m))),
                Message::TrunkVoice {
                    cic,
                    call,
                    seq,
                    origin_us,
                } => {
                    let to_shard = match self.routes.get(&call) {
                        Some(&Route::Anchored { target, .. }) => target,
                        Some(&Route::Hosted { anchor }) => anchor,
                        None => {
                            self.count("load.cross_dropped");
                            continue;
                        }
                    };
                    let origin_off_us = origin_us.saturating_sub(self.t0_us);
                    let voice = Flit::Trunk {
                        cic,
                        call,
                        seq,
                        origin_off_us,
                    };
                    Some((to_shard, voice))
                }
                _ => None,
            };
            match routed {
                Some((to_shard, flit)) => self.post(to_shard, flit),
                None => self.count("load.cross_unroutable"),
            }
        }
    }

    /// Harvests the Um uplink of local handsets camped on the border
    /// cell: toward the shard they are visiting.
    pub(super) fn harvest_um_up(&mut self) {
        let ups = self.radio().take_um_up();
        for (ms, mut dtap, at_us) in ups {
            let Ok(local) = self.subs.binary_search_by_key(&ms, |s| s.ms) else {
                self.count("load.cross_dropped");
                continue;
            };
            if matches!(dtap, Dtap::LocationUpdateRequest { .. }) {
                // Idle-mode arrival at the border: the destination
                // shard already owns the HLR record; answer the handset
                // from here next epoch (one barrier's worth of
                // inter-shard signaling latency).
                let accept = Dtap::LocationUpdateAccept { tmsi: None };
                self.pending_um.push((ms, accept));
                continue;
            }
            if matches!(dtap, Dtap::HandoverComplete { .. }) {
                // Radio silence starts when the handset reaches the
                // border cell.
                self.subs[local].silent_since.set(SimTime::from_micros(at_us));
            }
            let Some(target) = self.subs[local].cross_target() else {
                self.count("load.cross_dropped");
                continue;
            };
            self.rebase_out(&mut dtap);
            let global = self.cfg.base_index + local;
            self.post(target, Flit::UmUp { global, dtap });
        }
    }

    /// Harvests the A-interface downlink of the visitors' radio legs:
    /// toward the shard each handset is in.
    pub(super) fn harvest_a_down(&mut self) {
        let downs = self.radio().take_a_down();
        for (conn, mut dtap) in downs {
            // A connection without the base bit names no visitor.
            let global = (conn.0 ^ VISITOR_CONN_BASE) as usize;
            let Some(&anchor) = self.visitors.get(&global) else {
                self.count("load.cross_dropped");
                continue;
            };
            if matches!(dtap, Dtap::ChannelRelease) {
                // The target VMSC freed the visitor's radio leg.
                self.visitors.remove(&global);
            }
            self.rebase_out(&mut dtap);
            self.post(anchor, Flit::ADown { global, dtap });
        }
    }

    /// Voice timestamps travel the mailbox relative to the sender's t0.
    fn rebase_out(&self, dtap: &mut Dtap) {
        if let Dtap::VoiceFrame { origin_us, .. } = dtap {
            *origin_us = origin_us.saturating_sub(self.t0_us);
        }
    }

    fn rebase_in(&self, dtap: &mut Dtap) {
        if let Dtap::VoiceFrame { origin_us, .. } = dtap {
            *origin_us += self.t0_us;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::imsi_for;
    use super::super::tests::{counter, idle_shard, only};
    use super::*;
    use vgprs_sim::{Interface, TraceEntry};

    /// A barrier flit names its subscriber by an index another shard
    /// chose; one this shard does not own is dropped, not a panic.
    #[test]
    fn a_downlink_for_a_stranger_is_dropped() {
        let mut shard = idle_shard(2);
        let dtap = Dtap::ChannelRelease;
        let out = shard.run_epoch(0, vec![(1, Flit::ADown { global: 999, dtap })]);
        assert!(out.is_empty());
        assert_eq!(counter(&shard, "load.cross_dropped"), 1);
    }

    /// The host side of Figure 9, fed by hand: a subscriber of shard 3
    /// hands over to this shard's border cell and leaves again.
    #[test]
    fn a_hosted_leg_is_routed_to_its_anchor_until_released() {
        let mut shard = idle_shard(2);
        let (call, global) = (CallId(7 << 32 | 1), 7 * 256 + 3);
        let prepare = MapMessage::PrepareHandover {
            call,
            imsi: imsi_for(global),
            cell: BORDER_CELL,
        };
        let ack = only(shard.run_epoch(0, vec![(3, Flit::Map(prepare))]));
        let (3, Flit::Map(MapMessage::PrepareHandoverAck { cic, ho_ref, .. })) = ack else {
            panic!("the ack goes back to shard 3: {ack:?}");
        };

        let dtap = Dtap::HandoverComplete { ho_ref };
        let end = only(shard.run_epoch(1, vec![(3, Flit::UmUp { global, dtap })]));
        assert!(
            matches!(end, (3, Flit::Map(MapMessage::SendEndSignal { call: c })) if c == call),
            "{end:?}"
        );

        // Trunk voice from the anchor comes out of the visitor's radio leg.
        let voice = Flit::Trunk {
            cic,
            call,
            seq: 1,
            origin_off_us: 0,
        };
        let down = only(shard.run_epoch(2, vec![(3, voice)]));
        let (3, Flit::ADown { global: g, dtap }) = down else {
            panic!("downlink goes to shard 3: {down:?}");
        };
        assert!(g == global && matches!(dtap, Dtap::VoiceFrame { seq: 1, .. }));

        // The anchor's End Signal for a call we only host is answered by
        // our VMSC, and the answer has nowhere to go.
        let end = Flit::Map(MapMessage::SendEndSignal { call });
        assert!(shard.run_epoch(3, vec![(3, end)]).is_empty());
        assert_eq!(counter(&shard, "load.cross_unroutable"), 1);

        let dtap = Dtap::ReleaseComplete { call };
        let released = only(shard.run_epoch(4, vec![(3, Flit::UmUp { global, dtap })]));
        let (3, Flit::ADown { global: g, dtap }) = released else {
            panic!("the release goes to shard 3: {released:?}");
        };
        assert!(g == global && matches!(dtap, Dtap::ChannelRelease));
        assert!(shard.visitors.is_empty(), "the visitor is forgotten");
        let dtap = Dtap::ReleaseComplete { call };
        let out = shard.run_epoch(5, vec![(3, Flit::UmUp { global, dtap })]);
        assert!(out.is_empty());
        assert_eq!(counter(&shard, "load.cross_dropped"), 1);
    }

    /// The target's half of the dialogue for a call this shard anchors
    /// has no route either.
    #[test]
    fn a_prepare_ack_for_an_anchored_call_is_unroutable() {
        let mut shard = idle_shard(2);
        let call = CallId(1);
        let (target, local) = (5, 0);
        shard.routes.insert(call, Route::Anchored { target, local });
        let prepare = MapMessage::PrepareHandover {
            call,
            imsi: imsi_for(0),
            cell: BORDER_CELL,
        };
        // Straight into the gate: a flit would re-learn the route.
        shard.inject(shard.trunk_gate, Message::Map(prepare));
        assert!(shard.run_epoch(0, Vec::new()).is_empty());
        assert_eq!(counter(&shard, "load.cross_unroutable"), 1);
    }

    /// Two subscribers torn toward peer 5 and one toward peer 7: the
    /// heal of trunk 5 brings its two home, lowest index first.
    #[test]
    fn a_heal_reroutes_its_own_casualties_in_index_order() {
        let mut shard = idle_shard(3);
        shard.net.set_trace_capture(true);
        for (local, peer) in [(0, 5), (1, 7), (2, 5)] {
            let sub = &mut shard.subs[local];
            (sub.away, sub.handed_off) = (true, true);
            sub.tear(peer, 0);
        }
        shard.run_epoch(0, vec![(5, Flit::TrunkHeal { peer: 5 })]);

        let commanded: Vec<NodeId> = shard
            .net
            .trace()
            .entries()
            .iter()
            .filter_map(|e| match e {
                TraceEntry::Message { to, iface, .. } if *iface == Interface::Internal => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(commanded, [shard.subs[0].ms, shard.subs[2].ms]);
        let state = |l: usize| {
            let sub = &shard.subs[l];
            (sub.away, sub.torn_by.map(|by| (by.get(), sub.torn_ms)))
        };
        assert_eq!(state(0), (false, None));
        assert_eq!(state(1), (true, Some((7, 0))));
        assert_eq!(state(2), (false, None));
        assert_eq!(counter(&shard, "load.trunk_reroutes"), 2);
        let recoveries = shard.net.stats().histogram("load.heal_recovery_ms");
        assert_eq!(recoveries.map(|h| h.count()), Some(2));
    }
}
