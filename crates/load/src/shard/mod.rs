//! One shard: an independent pair of vGPRS serving areas and the
//! population slice that lives there.
//!
//! A shard owns its own [`Network`], seeded from the master seed and the
//! shard index, so a shard's statistics do not depend on which other
//! shards ran before it. The driver replays each subscriber's
//! [`SubscriberPlan`](crate::population::SubscriberPlan) against the
//! simulated network: call attempts become `Dial` commands, holds become
//! scheduled `Hangup`s, and mobility excursions become idle-mode cell
//! reselections (or in-call handoffs, if an excursion lands mid-call).
//!
//! Shards run in lockstep: [`Shard::run_epoch`] advances one epoch, and
//! the engine exchanges cross-shard traffic through the
//! [`crate::mailbox`] at each barrier. The engine skips the epochs in
//! which no shard has work and nothing is in flight; a shard's next
//! `run_epoch` catches its clock and snapshot recorder up across them.
//!
//! This file owns the configuration, the report, the [`Shard`] with its
//! one row per subscriber, the epoch loop and [`Shard::finish`]. The
//! rest of the driver is split by concern:
//!
//! * `world` — [`Shard::new`]: zones → gates → subscribers → their
//!   registration, provisioned → schedule;
//! * `driver` — the scheduled actions: attempt, probe, hangup, mute;
//! * `faults` — opening and closing the fault plan's windows;
//! * `trip` — a subscriber's `Trip` across the border and the moves
//!   that begin and end it;
//! * `cross` — the border traffic: the barrier's flits in, the three
//!   gate harvests out;
//! * `casualties` — what a trunk that gives up on a flit tears down, and
//!   the re-route when it heals;
//! * `voice` — how far ahead a talking source may send a train.

mod casualties;
mod cross;
mod driver;
mod faults;
mod trip;
mod voice;
mod world;

pub use driver::Outcome;
pub use faults::unavailability_counter;
pub use world::Registration;

use std::num::NonZeroU32;

use vgprs_core::{OverloadControls, VgprsZone};
use vgprs_faults::{FaultPlan, FaultPlanConfig};
use vgprs_gsm::Hlr;
use vgprs_scenario::{DemandPlan, ScenarioConfig};
use vgprs_sim::{
    CalendarWheel, IdMap, Kernel, LinkQuality, Network, NodeId, SimDuration, SimTime, Stamp,
    Stats,
};
use vgprs_wire::{CallId, Command, Dtap, Imsi, MapMessage, Message, Msisdn, SubscriberProfile};

use crate::mailbox::{Envelope, Flit, RadioGate, EPOCH_MS};
use crate::population::PopulationConfig;
use crate::snapshot::{SnapshotFrame, SnapshotRecorder};

use casualties::Tear;
use cross::Route;
use driver::Action;
use trip::Trip;
use voice::Trains;

/// Everything a shard needs to build and drive its world.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Which shard this is (also selects its network seed).
    pub shard_index: usize,
    /// Global index of the shard's first subscriber.
    pub base_index: usize,
    /// How many subscribers live in this shard.
    pub subscribers: usize,
    /// How many shards the whole run has (cross-shard trips resolve
    /// their destination against this; `1` disables them).
    pub total_shards: usize,
    /// The run's master seed.
    pub master_seed: u64,
    /// Shared population behavior.
    pub population: PopulationConfig,
    /// Traffic channels per cell.
    pub tch_capacity: usize,
    /// Shared PDCH capacity, bits/second.
    pub pdch_bps: u64,
    /// Gatekeeper admission budget.
    pub gk_bandwidth: u32,
    /// How long each connected call actually sends voice frames before
    /// the driver mutes both ends (keeps the event count O(calls), not
    /// O(calls x holding time), while still sampling RTP quality).
    pub voice_sample_ms: u64,
    /// Which event kernel the shard's network runs on. Both kernels
    /// produce identical fingerprints; the heap survives as the
    /// differential oracle for the default timer wheel.
    pub kernel: Kernel,
    /// Deterministic fault schedule for this run; the all-off default
    /// compiles to an empty plan and leaves the shard byte-identical to
    /// a fault-free build of the same configuration.
    pub faults: FaultPlanConfig,
    /// Demand scenario; the flat default compiles to an empty demand
    /// plan and leaves the shard byte-identical to a scenario-free
    /// build of the same configuration.
    pub scenario: ScenarioConfig,
    /// Overload-control knobs threaded into the shard's serving-area
    /// nodes (VMSC paging throttle, gatekeeper ARJ shedding, SGSN PDP
    /// admission control). All-off by default.
    pub controls: OverloadControls,
    /// KPI snapshot cadence in simulated seconds; `0` turns the
    /// recorder off. Sampling reads counters the shard maintains
    /// anyway, so it never perturbs the event stream or fingerprint.
    pub snapshot_secs: u64,
}

/// What one shard hands back for merging.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Simulation events the shard processed.
    pub events: u64,
    /// Simulated time when the shard drained.
    pub sim_end: SimTime,
    /// The shard network's counters and histograms, plus the driver's
    /// own `load.*` counters.
    pub stats: Stats,
    /// Cumulative KPI frames sampled at each cadence boundary, in time
    /// order (empty when the recorder is off).
    pub snapshots: Vec<SnapshotFrame>,
}

/// A shard's or a subscriber's index in four bytes, with `None` in its
/// niche: an optional one in the driver's row or schedule costs four
/// bytes rather than sixteen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ix(NonZeroU32);

impl Ix {
    fn new(index: usize) -> Self {
        let above = u32::try_from(index + 1).ok().and_then(NonZeroU32::new);
        Ix(above.expect("an index fits in 32 bits"))
    }

    fn get(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// Everything the driver knows about one subscriber, in the order the
/// handsets were created (so `ms` ascends with the local index). Its
/// numbers are not here: they follow from the global index. Every
/// optional field sits in a niche, so the row is 64 bytes.
struct Subscriber {
    ms: NodeId,
    terminal: NodeId,
    /// Driver-side busy window: suppress attempts that land inside an
    /// earlier call (the generator models a handset, not a trunk).
    busy_until_us: u64,
    /// When the current busy window's call was dialed.
    call_started_us: u64,
    /// The far party of the current call, for driving both ends of a
    /// handed-off call's teardown.
    current_peer: Option<NodeId>,
    /// Destination shard of this subscriber's cross-shard trip, if any.
    cross_target: Option<Ix>,
    /// Where the subscriber is: home, or on its trip to `cross_target`.
    trip: Trip,
    /// Bumped whenever the driver abandons the subscriber's current
    /// call (probe failure); stale `Hangup`/`Mute`/`Probe` actions from
    /// the abandoned call carry the old value and are skipped.
    gen: u32,
    /// When the subscriber's next scheduled move is due, in ms from t0
    /// (`u32::MAX`: none): a call's frames must land before it.
    next_move_ms: u32,
    /// When the handset reached the border cell mid-call; cleared by
    /// the first downlink voice frame relayed back from the target (the
    /// handoff interruption gap) or by the call's end.
    silent_since: Stamp,
    /// Set while a trunk partition that tore the subscriber's
    /// handed-off call down has not healed.
    torn: Option<Tear>,
    /// Until when, in ms from t0, an armed trunk can still give up on a
    /// flit the shard posted naming the subscriber (0: none).
    exposed_until_ms: u32,
}

impl Subscriber {
    /// The shard this subscriber's cross-shard trip goes to, if any.
    fn cross_target(&self) -> Option<usize> {
        self.cross_target.map(Ix::get)
    }
}

fn imsi_for(global: usize) -> Imsi {
    Imsi::from_prefix("466920", global as u64, 9).expect("generated IMSI is valid")
}

/// The subscriber's authentication key, as provisioned in its HLR.
fn ki_for(global: usize) -> u64 {
    0x5000 + global as u64
}

/// The subscriber's own E.164 number.
fn msisdn_for(global: usize) -> Msisdn {
    Msisdn::from_prefix("88691", global as u64, 7).expect("generated MSISDN is valid")
}

/// The alias of the subscriber's paired wireline terminal.
fn alias_for(global: usize) -> Msisdn {
    Msisdn::from_prefix("88622", global as u64, 7).expect("generated alias is valid")
}

/// One shard mid-flight: built world, pending actions, cross-shard
/// bookkeeping. Drive it with [`Shard::run_epoch`] until
/// [`Shard::is_busy`] clears, then [`Shard::finish`].
pub struct Shard {
    cfg: ShardConfig,
    net: Network<Message>,
    events: u64,
    registered: usize,
    t0_us: u64,
    /// The home serving area; the mobility neighbor is only wiring.
    home: VgprsZone,
    /// Healthy Gb/Gn qualities, restored when a degradation window ends.
    gb_quality: LinkQuality,
    gn_quality: LinkQuality,
    /// The compiled fault schedule this shard replays.
    plan: FaultPlan,
    /// The compiled demand curve, kept for peak-vs-steady attribution.
    demand: DemandPlan,
    trunk_gate: NodeId,
    radio_gate: NodeId,
    subs: Vec<Subscriber>,
    /// Driver-side replay schedule, keyed by microseconds relative to
    /// `t0_us` and popped in `(time, push order)`.
    sched: CalendarWheel<Action>,
    next_call: u64,
    max_sched_us: u64,
    /// Where each inter-VMSC call's E-interface traffic goes.
    routes: IdMap<CallId, Route>,
    /// Visiting radio legs: subscriber's global index → anchor shard.
    visitors: IdMap<usize, usize>,
    pending_um: Vec<(NodeId, Dtap)>,
    outbox: Vec<Envelope>,
    recorder: SnapshotRecorder,
    /// What sending voice in trains needs, while the world allows them
    /// and [`Shard::set_voice_trains`] did not switch them off.
    trains: Option<Trains>,
}

impl Shard {
    /// Switches the shard network's media cut-through
    /// ([`Network::set_cut_through`]); off is the hop-by-hop oracle.
    /// Registration carries no voice, so a switch thrown right after
    /// [`Shard::new`] governs every frame of the run.
    #[doc(hidden)]
    pub fn set_media_cut_through(&mut self, enabled: bool) {
        self.net.set_cut_through(enabled);
    }

    /// The shard's network, for tests that hold its topology to a bound.
    #[doc(hidden)]
    pub fn network(&self) -> &Network<Message> {
        &self.net
    }

    fn push(&mut self, at_ms: u64, action: Action) {
        let at_us = at_ms * 1000;
        self.max_sched_us = self.max_sched_us.max(at_us);
        self.sched.push(SimTime::from_micros(at_us), action);
    }

    /// Hands `msg` to `node` at the current instant.
    fn inject(&mut self, node: NodeId, msg: Message) {
        self.net.inject(SimDuration::ZERO, node, msg);
    }

    /// Delivers a driver command to `node` at the current instant.
    fn cmd(&mut self, node: NodeId, command: Command) {
        self.inject(node, Message::Cmd(command));
    }

    fn count(&mut self, name: &str) {
        self.net.stats_mut().count(name);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.net.stats_mut().observe(name, value);
    }

    /// The border cell.
    fn radio(&mut self) -> &mut RadioGate {
        self.net
            .node_mut::<RadioGate>(self.radio_gate)
            .expect("radio gate")
    }

    /// Queues `flit` for `to_shard` at the next barrier.
    fn post(&mut self, to_shard: usize, flit: Flit) {
        self.expose(&flit);
        self.outbox.push(Envelope { to_shard, flit });
    }

    /// The local index of a global one, if that subscriber lives here.
    fn local_of(&self, global: usize) -> Option<usize> {
        global
            .checked_sub(self.cfg.base_index)
            .filter(|&local| local < self.subs.len())
    }

    /// (Re-)creates a subscriber's record in this shard's HLR.
    fn provision_home(&mut self, global: usize) {
        self.net
            .node_mut::<Hlr>(self.home.access.hlr)
            .expect("home HLR")
            .provision(
                imsi_for(global),
                ki_for(global),
                SubscriberProfile::full(msisdn_for(global)),
            );
    }

    /// Drops a subscriber's record from this shard's HLR (GSM
    /// cancel-location toward the serving VLR included).
    fn cancel_home(&mut self, global: usize) {
        let imsi = imsi_for(global);
        let cancel = Message::Map(MapMessage::CancelLocation { imsi });
        self.inject(self.home.access.hlr, cancel);
    }

    /// More work to do: scheduled actions, queued sim events, or
    /// downlink waiting for the next epoch.
    pub fn is_busy(&self) -> bool {
        !self.sched.is_empty() || self.net.pending_events() > 0 || !self.pending_um.is_empty()
    }

    /// An upper bound (in epochs) on how long this shard can legally
    /// stay busy: its last scheduled action plus a generous teardown
    /// allowance. The engine uses the fleet-wide maximum as a runaway
    /// backstop.
    pub fn max_epoch_hint(&self) -> u64 {
        const DRAIN_EPOCHS: u64 = 1_200; // 60 s of post-window teardown
        self.max_sched_us / (EPOCH_MS * 1000) + DRAIN_EPOCHS
    }

    /// The first epoch from `from` on that this shard has work in, or
    /// `None` when it is not busy: downlink waiting for the next epoch
    /// means `from` itself, a scheduled action at t epoch ⌊t / EPOCH_MS⌋
    /// and a network event at t the first epoch whose end is at or after
    /// t. The queues are peeked, not drained, and the network's queue
    /// no further than the shard's next action.
    pub(crate) fn next_busy_epoch(&mut self, from: u64) -> Option<u64> {
        const EPOCH_US: u64 = EPOCH_MS * 1000;
        if !self.pending_um.is_empty() {
            return Some(from);
        }
        let action_us = self.sched.peek_time().map(SimTime::as_micros);
        if action_us.is_some_and(|at| at / EPOCH_US <= from) {
            return Some(from);
        }
        let horizon = action_us.map_or(SimTime::MAX, |at| SimTime::from_micros(self.t0_us + at));
        let event = self.net.next_event_at_or_before(horizon).map(|at| {
            let rel_us = at.as_micros().saturating_sub(self.t0_us);
            rel_us.div_ceil(EPOCH_US).saturating_sub(1)
        });
        // An event no later than the action is in its epoch or before.
        event
            .or(action_us.map(|at| at / EPOCH_US))
            .map(|epoch| epoch.max(from))
    }

    /// Brings the clock and the snapshot recorder to the start of
    /// `epoch` across the epochs the engine skipped, which had nothing
    /// for this shard to do: the clock reads, and the recorder holds,
    /// what running each of them would have left.
    pub(crate) fn catch_up(&mut self, epoch: u64) {
        let start_us = epoch * EPOCH_MS * 1000;
        if self.net.now().as_micros() < self.t0_us + start_us {
            self.run_net_until(start_us);
            self.recorder.observe(start_us / 1000, self.net.stats());
        }
    }

    /// Runs one lockstep epoch: delivers the barrier's inbox, replays
    /// the window's scheduled actions that fall inside the epoch, and
    /// returns the envelopes to exchange at the next barrier. Epochs
    /// before `epoch` that the shard did not run are caught up first.
    pub fn run_epoch(&mut self, epoch: u64, inbox: Vec<(usize, Flit)>) -> Vec<Envelope> {
        self.catch_up(epoch);
        let end_rel_us = (epoch + 1) * EPOCH_MS * 1000;

        // Downlink queued for local handsets — synthesized LU answers
        // from the previous epoch plus everything the barrier brought.
        let mut um_batch = std::mem::take(&mut self.pending_um);
        for (from_shard, flit) in inbox {
            self.deliver_flit(from_shard, flit, &mut um_batch);
        }
        self.refresh_train_horizon(epoch);
        if !um_batch.is_empty() {
            let gate = self.radio();
            for (ms, dtap) in um_batch {
                gate.queue_um(ms, dtap);
            }
            // Kick: any internal non-A message flushes the queue.
            self.cmd(self.radio_gate, Command::StartTalking);
        }

        // Bounded peek: the scheduler's cursor never overshoots the epoch,
        // so actions pushed for later epochs stay on the O(1) wheel path.
        let epoch_last = SimTime::from_micros(end_rel_us - 1);
        while self.sched.next_at_or_before(epoch_last).is_some() {
            let (at, action) = self.sched.pop().expect("peeked");
            let at_us = at.as_micros();
            self.run_net_until(at_us);
            self.handle_action(at_us, action);
        }
        self.run_net_until(end_rel_us);

        self.harvest_trunk_gate();
        self.harvest_um_up();
        self.harvest_a_down();
        // Sample after the epoch fully settles (gates drained) so a
        // frame reflects every event up to its boundary. Epoch ends are
        // the same simulated instants on every shard and kernel, so
        // the series inherits the run's determinism.
        self.recorder.observe(end_rel_us / 1000, self.net.stats());
        std::mem::take(&mut self.outbox)
    }

    /// Advances the network to `rel_us` after the busy hour's start. A
    /// call the network's `max_events` cap cut short leaves events behind
    /// the clock, so it is counted — the counter exists only then, and
    /// `harness load` exits 1 on it.
    fn run_net_until(&mut self, rel_us: u64) {
        let outcome = self
            .net
            .run_until(SimTime::from_micros(self.t0_us + rel_us));
        self.events += outcome.events;
        if !outcome.quiescent {
            self.count("load.event_capped");
        }
    }

    /// Seals the shard and hands back its evidence.
    pub fn finish(mut self) -> ShardReport {
        if self.is_busy() {
            // The engine stopped at its epoch cap with work remaining.
            self.count("load.drain_capped");
        }
        self.net
            .stats_mut()
            .count_by("load.registered", self.registered as u64);
        ShardReport {
            events: self.events,
            sim_end: self.net.now(),
            stats: std::mem::take(self.net.stats_mut()),
            snapshots: self.recorder.into_frames(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{partition, LoadConfig};
    use crate::population::{Arrival, CallKind, SubscriberPlan};

    /// A `subscribers`-strong shard 0 of eight with the given plans.
    pub(super) fn shard_with(plans: Vec<SubscriberPlan>) -> Shard {
        Shard::new(&config(plans.len()), &plans)
    }

    /// The configuration of shard 0 of eight, `subscribers` strong.
    pub(super) fn config(subscribers: usize) -> ShardConfig {
        let run = LoadConfig {
            subscribers: 8 * subscribers,
            shards: 8,
            snapshot_secs: 0,
            ..LoadConfig::default()
        };
        run.shard_config(0, &partition(run.subscribers, 8))
    }

    /// `n` subscribers that neither call nor move.
    pub(super) fn idle_shard(n: usize) -> Shard {
        let idle = |global_index| SubscriberPlan {
            global_index,
            arrivals: Vec::new(),
            excursion: None,
        };
        shard_with((0..n).map(idle).collect())
    }

    /// A call to the subscriber's own terminal, `at_ms` into the window.
    pub(super) fn call_at(at_ms: u64) -> Arrival {
        Arrival {
            at_ms,
            kind: CallKind::MoToTerminal,
            hold_ms: 10_000,
            peer_draw: 0,
        }
    }

    pub(super) fn counter(shard: &Shard, name: &str) -> u64 {
        shard.net.stats().counter(name)
    }

    /// The one envelope an epoch produced.
    pub(super) fn only(mut out: Vec<Envelope>) -> (usize, Flit) {
        assert_eq!(out.len(), 1, "one envelope: {out:?}");
        let env = out.remove(0);
        (env.to_shard, env.flit)
    }

    impl Shard {
        /// Parks a kick to the border cell an hour out: the shard stays
        /// busy past any epoch cap, with nothing to do until then.
        pub(crate) fn park_beyond_the_cap(&mut self) {
            let kick = Message::Cmd(Command::StartTalking);
            self.net
                .inject(SimDuration::from_secs(3_600), self.radio_gate, kick);
        }
    }

    /// One subscriber that dials its terminal 10 ms into the window.
    fn one_call_shard() -> Shard {
        shard_with(vec![SubscriberPlan {
            global_index: 0,
            arrivals: vec![call_at(10)],
            excursion: None,
        }])
    }

    /// The driver's row keeps its optional fields in niches: a shard
    /// index in four bytes, an instant in eight (96 bytes with a
    /// `usize` shard and a tag beside every option).
    #[test]
    fn a_subscriber_row_is_64_bytes() {
        assert_eq!(std::mem::size_of::<Subscriber>(), 64);
        assert_eq!(std::mem::size_of::<Option<Ix>>(), 4);
        let ix = Ix::new(4_095);
        assert_eq!((ix.get(), Ix::new(0).get()), (4_095, 0));
    }

    /// A schedule entry names its subscriber once, in four bytes, and
    /// a probe carries one dial (an 88-byte action and a 112-byte entry
    /// when a probe held two `usize` copies of the subscriber and the
    /// plan's whole arrival).
    #[test]
    fn a_scheduled_action_is_48_bytes_and_its_entry_72() {
        use super::driver::{Call, Dial};
        use std::mem::size_of;
        assert_eq!((size_of::<Dial>(), size_of::<Call>()), (24, 20));
        assert_eq!(size_of::<Action>(), 48);
        assert_eq!(CalendarWheel::<Action>::ENTRY_BYTES, 72);
    }

    /// A run call the network's event cap cuts short is counted; a run
    /// that stays under the cap never creates the counter.
    #[test]
    fn an_event_capped_run_call_is_counted() {
        let mut free = one_call_shard();
        free.run_epoch(0, Vec::new());
        assert_eq!(free.finish().stats.counter("load.event_capped"), 0);

        let mut capped = one_call_shard();
        capped.net.set_max_events(3);
        capped.run_epoch(0, Vec::new());
        assert_eq!(capped.finish().stats.counter("load.event_capped"), 1);
    }
}
