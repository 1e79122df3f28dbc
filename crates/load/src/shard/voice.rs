//! Voice trains: how far ahead a talking source may send its frames as
//! one message (DESIGN §2.19).
//!
//! A frame's fate — dropped or delivered, and after what delay — can
//! change only when something changes its call: a mute or a hangup, a
//! handover, a snapshot boundary (frames are counted where they land),
//! or its cell starting to clip voice. In a world with no fault plan and
//! no overload control each of those is known ahead:
//!
//! * the driver scheduled the call's mute, probe and hangup at its dial,
//!   and each party's next move is in its row — so each endpoint is
//!   promised, at the dial, the instant its call's frames must have
//!   landed by ([`VoiceSource::set_horizon`]);
//! * a snapshot boundary is a whole second of the window, whatever the
//!   cadence, and a cell clips only after more than [`PCH_PAGES_PER_S`]
//!   pages in one second, each page following a dial that can page by
//!   at most [`PAGE_LEAD_MS`] (a measured lead and a margin, not a
//!   guess: a second is refused only when that many dials can page into
//!   it) — so at each epoch the network is promised the end of the
//!   window's current second, or the start of a second that could clip
//!   if that is sooner ([`Network::set_train_horizon`]), and each
//!   refused second is counted once as `sim.voice.paging_held`. A train
//!   never spans a second of the window, so the cadence moves no event;
//! * an armed trunk reaches a call here only through a casualty notice
//!   for a flit the shard posted, or the heal of a torn subscriber; the
//!   notice comes within the retransmission ladder's budget and an epoch
//!   of the post, so a party named that recently, or torn, is *exposed*
//!   and its call promised nothing.
//!
//! A change a frame in flight would see pulls its horizon back by
//! [`PATH_BOUND`]; a mute stops only the sources, so frames up to its
//! instant ride. The BTS and the sinks hold every train to these
//! promises and panic on one they did not cover.
//!
//! [`VoiceSource::set_horizon`]: vgprs_media::VoiceSource::set_horizon
//! [`Network::set_train_horizon`]: vgprs_sim::Network::set_train_horizon

use vgprs_gsm::{MobileStation, MsState, PCH_PAGES_PER_S};
use vgprs_h323::{H323Terminal, TerminalState};
use vgprs_media::PATH_BOUND;
use vgprs_sim::{NodeId, SimTime};

use super::driver::{mute_after_ms, Dial, PROBE_MS};
use super::Shard;
use crate::mailbox::{Flit, EPOCH_MS};
use crate::population::{CallKind, SubscriberPlan};
use crate::trunk::retransmit_backoff;

/// The longest a dial that can page takes to reach its cell as a page:
/// 200 ms, and [`PAGE_LEAD_MARGIN_MS`] above it. On fault-free links the
/// ladder is fixed: an MT call's page reaches the BTS 38 ms after the
/// terminal dials, a mobile-to-mobile call's 181 ms after the caller
/// dials (its own access, authentication and ciphering come first),
/// 191 ms when the VLR must first fetch fresh vectors from the HLR. A
/// census of every page on the benchmark's worlds found none later
/// (EXPERIMENTS "Voice trains through paging seconds"), and a unit test
/// holds both ladders on the default latencies under 200 ms. The BTS
/// panics if a page outruns the lead under a train.
const PAGE_LEAD_MS: u64 = 200 + PAGE_LEAD_MARGIN_MS;

/// How far [`PAGE_LEAD_MS`] stands above a lone dial's measured lead:
/// room for the VLR's vector fetch (10 ms) and for a ladder or latency
/// edit, which fails the unit test before it can panic a BTS mid-run.
const PAGE_LEAD_MARGIN_MS: u64 = 100;

/// A second: of the window, which holds every snapshot boundary, and of
/// the network clock, a cell's paging window. A redial is scheduled at
/// least two seconds ahead, so one an epoch's probe adds can page no
/// cell before the epoch's second has ended.
const SECOND_MS: u64 = 1_000;

/// What a shard keeps to send voice in trains.
pub(super) struct Trains {
    /// Every dial of the shard that can page a handset (an MT call or a
    /// mobile-to-mobile one), in ms from t0, ascending; redials join as
    /// they are scheduled.
    pages: Vec<u32>,
    /// What the network's horizon was last worked out from: the second
    /// of the window and of the network clock an epoch started in, and
    /// how many paging dials there were. The horizon is a function of
    /// these alone, so an epoch that finds them unchanged keeps it.
    refreshed: Option<(u64, u64, usize)>,
    /// The network second after the last one the paging rule refused:
    /// a later epoch that finds that second again counts it no more.
    held_until: u64,
    /// Under an armed trunk, how long after a post the trunk can still
    /// give up on the flit and tell the shard; `None` while disarmed.
    exposure_ms: Option<u64>,
}

impl Trains {
    /// The trains of a shard whose subscribers follow `plans`.
    pub(super) fn plan(plans: &[SubscriberPlan]) -> Self {
        let mut pages: Vec<u32> = (plans.iter().flat_map(|p| &p.arrivals))
            .filter(|a| pages_a_handset(a.kind))
            .map(|a| ms32(a.at_ms))
            .collect();
        pages.sort_unstable();
        Trains {
            pages,
            refreshed: None,
            held_until: 0,
            exposure_ms: None,
        }
    }

    /// How many paging dials fall in `[from_ms, to_ms)`.
    fn pages_between(&self, from_ms: u64, to_ms: u64) -> usize {
        let at = |ms: u64| self.pages.partition_point(|&p| u64::from(p) < ms);
        at(to_ms) - at(from_ms)
    }
}

/// Whether a dial of `kind` pages a handset.
fn pages_a_handset(kind: CallKind) -> bool {
    matches!(kind, CallKind::MtFromTerminal | CallKind::MsToMs)
}

/// A window-relative ms, saturated into four bytes.
pub(super) fn ms32(ms: u64) -> u32 {
    u32::try_from(ms).unwrap_or(u32::MAX)
}

impl Shard {
    /// Switches voice trains off (`false`): every frame is its own
    /// message — the per-frame path, kept as the oracle trains are
    /// tested against. On (`true`), as a shard is built, sources send
    /// trains where the world allows them: not with a fault plan or an
    /// overload control (a throttled page can wait past any lead), and
    /// under an armed trunk not for a call with an exposed party.
    /// Registration carries no voice, so a switch thrown right after
    /// [`Shard::new`] governs every frame of the run.
    #[doc(hidden)]
    pub fn set_voice_trains(&mut self, enabled: bool) {
        if !enabled {
            self.trains = None;
            self.net.set_train_horizon(None);
        }
    }

    /// The trunk is armed: it may give up on a flit the shard posts.
    pub(super) fn arm_trunk(&mut self) {
        if let Some(trains) = &mut self.trains {
            trains.exposure_ms = Some(retransmit_backoff().budget().as_millis() + EPOCH_MS);
        }
    }

    /// Under an armed trunk, exposes the subscriber an abandoned `flit`
    /// would name until the trunk can no longer give up on it.
    pub(super) fn expose(&mut self, flit: &Flit) {
        let Some(exposure_ms) = self.trains.as_ref().and_then(|t| t.exposure_ms) else {
            return;
        };
        if let Some(local) = self.casualty_of(flit.casualty()) {
            let now_ms = self.net.now().as_micros().saturating_sub(self.t0_us) / 1_000;
            let until = &mut self.subs[local].exposed_until_ms;
            *until = (*until).max(ms32(now_ms + exposure_ms));
        }
    }

    /// Promises both ends of a call dialed at `at_ms` (`local`'s, with
    /// `peer_local` its called subscriber, if one) the instant its
    /// frames must have landed by: the mute's instant (a frame sent then
    /// still rides), or [`PATH_BOUND`] before the hangup, the probe or
    /// either party's next move, whichever comes first. An endpoint
    /// still in an earlier call keeps that call's promise. A call with
    /// an exposed party, which a trunk casualty may yet change, is
    /// promised nothing, and counted.
    pub(super) fn promise_voice(
        &mut self,
        at_ms: u64,
        dial: &Dial,
        (local, peer_local): (usize, Option<usize>),
        ends: [NodeId; 2],
    ) {
        if self.trains.is_none() {
            return;
        }
        let exposed = |l: usize| {
            let sub = &self.subs[l];
            sub.torn.is_some() || u64::from(sub.exposed_until_ms) > at_ms
        };
        if [Some(local), peer_local].into_iter().flatten().any(exposed) {
            return self.count("sim.voice.trunk_held");
        }
        let moves =
            [Some(local), peer_local].map(|l| l.map_or(u32::MAX, |l| self.subs[l].next_move_ms));
        let change_ms = [dial.hold_ms, PROBE_MS]
            .into_iter()
            .map(|after| at_ms + after)
            .chain(moves.into_iter().map(u64::from))
            .min()
            .expect("four instants");
        let mut until = self
            .at_ms(change_ms)
            .as_micros()
            .saturating_sub(PATH_BOUND.as_micros());
        let mute_ms = mute_after_ms(self.cfg.voice_sample_ms);
        if mute_ms < dial.hold_ms {
            until = until.min(self.at_ms(at_ms + mute_ms).as_micros() + 1);
        }
        let (now, until) = (self.net.now(), SimTime::from_micros(until));
        for node in ends {
            if self.net.node::<MobileStation>(node).is_some() {
                self.net.provision(node, now, |ms: &mut MobileStation, _| {
                    if ms.state() == MsState::Idle {
                        ms.set_voice_horizon(until);
                    }
                });
            } else {
                self.net.provision(node, now, |t: &mut H323Terminal, _| {
                    if t.state() == TerminalState::Idle {
                        t.set_voice_horizon(until);
                    }
                });
            }
        }
    }

    /// Notes a scheduled redial of `kind` at `at_ms`: a paging one may
    /// flood a cell in its second.
    pub(super) fn note_redial(&mut self, at_ms: u64, kind: CallKind) {
        if let Some(trains) = self.trains.as_mut().filter(|_| pages_a_handset(kind)) {
            let ms = ms32(at_ms);
            let at = trains.pages.partition_point(|&p| p <= ms);
            trains.pages.insert(at, ms);
        }
    }

    /// Promises the network, at the start of `epoch`, the end of the
    /// window's current second or the start of a paging second that
    /// could clip, whichever comes first, less [`PATH_BOUND`]. Each
    /// paging second refused is counted once, as `sim.voice.paging_held`
    /// (a second found again by a later epoch is not counted again; a
    /// redial joins at least two seconds ahead, so no earlier second
    /// turns hot once a later one has been found).
    pub(super) fn refresh_train_horizon(&mut self, epoch: u64) {
        let Some(trains) = self.trains.as_mut() else {
            return;
        };
        let start_ms = epoch * EPOCH_MS;
        // A cell's paging second is one of the network clock's; a page
        // lands in it from a dial at most PAGE_LEAD_MS before it opens.
        let t0_ms = self.t0_us / 1_000;
        let key = (
            start_ms / SECOND_MS,
            (t0_ms + start_ms) / SECOND_MS,
            trains.pages.len(),
        );
        if trains.refreshed.replace(key) == Some(key) {
            return;
        }
        let second_ends_us = self.t0_us + (start_ms / SECOND_MS + 1) * SECOND_MS * 1_000;
        let mut until = SimTime::from_micros(second_ends_us);
        let mut window = (t0_ms + start_ms) / SECOND_MS * SECOND_MS;
        while SimTime::from_micros(window * 1_000) < until {
            let from = (window.saturating_sub(PAGE_LEAD_MS + 1)).saturating_sub(t0_ms);
            let to = (window + SECOND_MS + 1).saturating_sub(t0_ms);
            if trains.pages_between(from, to) > PCH_PAGES_PER_S as usize {
                until = until.min(SimTime::from_micros(window * 1_000));
                let second = window / SECOND_MS;
                if second >= trains.held_until {
                    trains.held_until = second + 1;
                    self.count("sim.voice.paging_held");
                }
                break;
            }
            window += SECOND_MS;
        }
        let until = until.as_micros().saturating_sub(PATH_BOUND.as_micros());
        self.net
            .set_train_horizon(Some(SimTime::from_micros(until)));
    }

    /// The network instant `ms` into the window.
    fn at_ms(&self, ms: u64) -> SimTime {
        SimTime::from_micros(self.t0_us + ms * 1_000)
    }
}

#[cfg(test)]
mod tests {
    use vgprs_sim::{Interface, SimDuration, TraceEntry};

    use super::super::tests::{call_at, shard_with};
    use super::*;
    use crate::population::{Arrival, SubscriberPlan};

    /// The lead is measured, not remembered: on the default latencies
    /// subscriber 0's terminal calls it at 1 s (an MT call) and
    /// subscriber 1 calls its handset at 20 s (mobile to mobile), and
    /// each page reaches the cell inside [`PAGE_LEAD_MS`] with
    /// [`PAGE_LEAD_MARGIN_MS`] to spare. A ladder or latency edit that
    /// lengthens setup fails here instead of panicking a BTS mid-run.
    #[test]
    fn each_dial_pages_its_cell_inside_the_lead_less_its_margin() {
        let dials = [(1_000, CallKind::MtFromTerminal), (20_000, CallKind::MsToMs)];
        let plans = (dials.iter().enumerate())
            .map(|(global_index, &(at_ms, kind))| SubscriberPlan {
                global_index,
                arrivals: vec![Arrival { at_ms, kind, ..call_at(0) }],
                excursion: None,
            })
            .collect();
        let mut shard = shard_with(plans);
        shard.net.set_trace_capture(true);
        for epoch in 0..=30_000 / EPOCH_MS {
            shard.run_epoch(epoch, Vec::new());
        }
        let pages: Vec<SimTime> = (shard.net.trace().entries().iter())
            .filter_map(|e| match e {
                TraceEntry::Message {
                    at,
                    iface: Interface::Abis,
                    label,
                    ..
                } if label == "Abis_Paging" => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(pages.len(), 2, "one page a dial: {pages:?}");
        for ((at_ms, kind), page) in dials.into_iter().zip(pages) {
            let lead = page - shard.at_ms(at_ms);
            let bound = SimDuration::from_millis(PAGE_LEAD_MS - PAGE_LEAD_MARGIN_MS);
            assert!(lead < bound, "{kind:?}: a page {lead:?} after its dial");
        }
    }
}
