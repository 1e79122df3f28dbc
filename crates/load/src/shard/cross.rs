//! The border traffic: everything that crosses the shard boundary in
//! an epoch. Outbound, the three gate harvests turn the epoch's captured
//! E, Um and A traffic into envelopes; inbound, the barrier's flits are
//! delivered into the simulation. A call whose legs straddle two shards
//! is one [`Route`]; a visiting radio leg is one `visitors` entry with
//! its A-interface connection derived from the visitor's global index.

use vgprs_sim::{NodeId, SimTime};
use vgprs_wire::{ConnRef, Dtap, MapMessage, Message};

use super::Shard;
use crate::mailbox::{Flit, TrunkGate};

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

impl Shard {
    /// Delivers one barrier flit into the simulation.
    pub(super) fn deliver_flit(&mut self, from: usize, flit: Flit, um: &mut Vec<(NodeId, Dtap)>) {
        match flit {
            Flit::Map(m) => {
                if let MapMessage::PrepareHandover { call, .. } = &m {
                    // Remember who anchors this visitor call so replies
                    // and uplink voice can be routed back.
                    self.routes.insert(*call, Route::Hosted { anchor: from });
                }
                self.inject(self.trunk_gate, Message::Map(m));
            }
            Flit::Trunk { cic, call, seq, origin_off_us } => {
                let origin_us = self.t0_us + origin_off_us;
                self.inject(self.trunk_gate, Message::TrunkVoice { cic, call, seq, origin_us });
            }
            Flit::UmUp { global, dtap } => self.visitor_uplink(from, global, dtap),
            Flit::ADown { global, mut dtap } => {
                let Some(local) = self.local_of(global) else {
                    // Nothing another shard sends may panic this one.
                    return self.count("load.cross_dropped");
                };
                self.rebase_in(&mut dtap);
                // The first downlink voice since the handset left its old
                // channel ends the handoff interruption gap.
                let silent_since = &mut self.subs[local].silent_since;
                let voice = matches!(dtap, Dtap::VoiceFrame { .. });
                if let Some(start) = silent_since.get().filter(|_| voice) {
                    silent_since.take();
                    let gap_us = self.net.now().as_micros().saturating_sub(start.as_micros());
                    self.observe("load.handoff_interruption_ms", gap_us as f64 / 1000.0);
                }
                um.push((self.subs[local].ms, dtap));
            }
            Flit::Arrive { global } => {
                self.count("load.visitors_hosted");
                self.provision_home(global);
            }
            Flit::Depart { global } => self.cancel_home(global),
            Flit::TrunkExpired { peer, call, global, kind } => {
                self.trunk_expired(peer, call, global, kind)
            }
            Flit::TrunkHeal { peer } => self.trunk_heal(peer),
            // No page comes later than PAGE_LEAD_MS (300 ms) after a
            // counted dial: 5 307 pages on `trunk_chaos`, seeds 1–20, each
            // 38 ms or 181–191 ms after it (EXPERIMENTS "Voice trains
            // through paging seconds"); only a casualty changes a call.
            Flit::TrunkArmed => self.arm_trunk(),
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

    /// The shard a captured message of the Figure 9 MAP dialogue goes
    /// to, learning the route from an outbound Prepare Handover; `None`
    /// for a message no route carries in that direction.
    fn map_route(&mut self, m: &MapMessage) -> Option<usize> {
        match m {
            MapMessage::PrepareHandover { call, imsi, .. } => {
                // A generated IMSI ends in the subscriber's global index.
                let local = self.local_of(imsi.suffix(6) as usize)?;
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
        let gate = self.net.node_mut::<TrunkGate>(self.trunk_gate);
        let captured = gate.expect("trunk gate").take_captured();
        for msg in captured {
            let routed = match msg {
                Message::Map(m) => self.map_route(&m).map(|to| (to, Flit::Map(m))),
                Message::TrunkVoice { cic, call, seq, origin_us } => {
                    let to_shard = match self.routes.get(&call) {
                        Some(&Route::Anchored { target, .. }) => target,
                        Some(&Route::Hosted { anchor }) => anchor,
                        None => {
                            self.count("load.cross_dropped");
                            continue;
                        }
                    };
                    let origin_off_us = origin_us.saturating_sub(self.t0_us);
                    Some((to_shard, Flit::Trunk { cic, call, seq, origin_off_us }))
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
        for (ms, mut dtap, at_us) in self.radio().take_um_up() {
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
        for (conn, mut dtap) in self.radio().take_a_down() {
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
    use crate::mailbox::BORDER_CELL;
    use vgprs_wire::CallId;

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
        let imsi = imsi_for(global);
        let prepare = MapMessage::PrepareHandover { call, imsi, cell: BORDER_CELL };
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
        let voice = Flit::Trunk { cic, call, seq: 1, origin_off_us: 0 };
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
        assert!(shard.run_epoch(5, vec![(3, Flit::UmUp { global, dtap })]).is_empty());
        assert_eq!(counter(&shard, "load.cross_dropped"), 1);
    }

    /// The target's half of the dialogue for a call this shard anchors
    /// has no route either.
    #[test]
    fn a_prepare_ack_for_an_anchored_call_is_unroutable() {
        let mut shard = idle_shard(2);
        let call = CallId(1);
        shard.routes.insert(call, Route::Anchored { target: 5, local: 0 });
        let prepare = MapMessage::PrepareHandover { call, imsi: imsi_for(0), cell: BORDER_CELL };
        // Straight into the gate: a flit would re-learn the route.
        shard.inject(shard.trunk_gate, Message::Map(prepare));
        assert!(shard.run_epoch(0, Vec::new()).is_empty());
        assert_eq!(counter(&shard, "load.cross_unroutable"), 1);
    }
}
