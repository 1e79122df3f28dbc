//! One shard: an independent pair of vGPRS serving areas and the
//! population slice that lives there.
//!
//! A shard owns its own [`Network`], seeded from the master seed and the
//! shard index, so a shard's statistics do not depend on which other
//! shards ran before it. The driver replays each
//! subscriber's [`SubscriberPlan`] against the simulated network: call
//! attempts become `Dial` commands, holds become scheduled `Hangup`s,
//! and mobility excursions become idle-mode cell reselections (or
//! in-call handoffs, if an excursion lands mid-call).
//!
//! Shards no longer run to completion independently: [`Shard`] exposes
//! an epoch-at-a-time interface ([`Shard::run_epoch`]) so the engine can
//! run every shard in lockstep and exchange cross-shard traffic through
//! the [`crate::mailbox`] at each barrier. A subscriber whose excursion
//! carries a `cross_shard` draw leaves the shard entirely: idle-mode
//! trips transfer HLR record ownership to the destination shard, and
//! trips that land mid-call drive the paper's Figure 9 inter-VMSC
//! handoff across the shard boundary — the home VMSC anchors the H.323
//! leg while the destination VMSC takes the radio leg over the E-trunk
//! gate.

use std::collections::BTreeMap;

use vgprs_core::{VgprsZone, VgprsZoneConfig, Vmsc};
use vgprs_faults::{
    compile_plan, FaultClass, FaultKind, FaultPlan, FaultPlanConfig, LinkSel, NodeSel,
};
use vgprs_gsm::{Hlr, MobileStation, MsState, Vlr};
use vgprs_scenario::{compile_demand, DemandPlan, OverloadControls, ScenarioConfig};
use vgprs_sim::{
    CalendarWheel, IdMap, Interface, Kernel, LinkQuality, Network, NodeId, SimDuration, SimRng,
    SimTime, Stats,
};
use vgprs_wire::{
    CallId, Cause, CellId, Command, ConnRef, Dtap, Imsi, Ipv4Addr, Lai, MapMessage, Message,
    Msisdn, SubscriberProfile, TransportAddr,
};

use crate::mailbox::{Envelope, ExpiredKind, Flit, RadioGate, TrunkGate, BORDER_CELL, EPOCH_MS};
use crate::population::{Arrival, CallKind, PopulationConfig, SubscriberPlan};
use crate::snapshot::{SnapshotFrame, SnapshotRecorder};

/// Stream-class salt for per-shard network seeds.
const STREAM_SHARD: u64 = 0x1656_67B1_9E37_79F9;

/// Answer delay plus setup slack: voice is up by this long after a
/// dial that connects (both endpoint types auto-answer after 2 s).
const CONNECT_GRACE_MS: u64 = 3_000;

/// A cross-shard trip landing mid-call only hands off when the call is
/// safely established and has at least this long left before the
/// scheduled hangup — otherwise the mover stays home (a real handset
/// would finish the call on the old cell's fading channel).
const HANDOFF_TAIL_US: u64 = 2_000_000;

/// Idle-mode crossings keep this much distance from the previous call's
/// teardown so the HLR transfer never races an active transaction.
const POST_CALL_SETTLE_US: u64 = 2_000_000;

/// A mover still on a handed-off call when its return is due goes home
/// this long after the hangup instead.
const RETURN_DELAY_MS: u64 = 3_000;

/// How long voice flows on both legs around an in-call handoff before
/// the driver mutes it again (samples the interruption gap).
const HANDOFF_VOICE_MS: u64 = 2_500;

/// Visitor radio legs get connection references far above anything the
/// shard's own BSCs allocate.
const VISITOR_CONN_BASE: u32 = 0x8000_0000;

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

/// How long after a crashed backbone peer comes back the VMSC is told
/// to rebuild its subscribers' contexts.
const RESYNC_DELAY_MS: u64 = 100;

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
    /// Which shard produced this.
    pub shard_index: usize,
    /// Subscribers registered through the home VMSC after power-on.
    pub registered: usize,
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

/// Driver-scheduled actions, totally ordered by `(time, sequence)`.
enum Action {
    Attempt {
        local: usize,
        arrival: Arrival,
    },
    Hangup {
        node: NodeId,
        peer: NodeId,
        local: usize,
        peer_local: Option<usize>,
        gen: u32,
    },
    Mute {
        a: NodeId,
        b: NodeId,
        local: usize,
        gen: u32,
    },
    Move {
        local: usize,
        cell: CellId,
    },
    /// Checks whether a dialed call actually survived to the talking
    /// phase; failures are attributed to the overlapping fault window
    /// (or the baseline) and trigger a backed-off redial.
    Probe {
        local: usize,
        peer_local: Option<usize>,
        arrival: Arrival,
        attempt_no: u32,
        orig_ms: u64,
        gen: u32,
    },
    /// A backed-off re-attempt of a call the probe found dead.
    Redial {
        local: usize,
        arrival: Arrival,
        attempt_no: u32,
        orig_ms: u64,
    },
    /// Impairment window `i` of the fault plan opens.
    FaultStart(usize),
    /// Impairment window `i` of the fault plan closes; recovery runs.
    FaultEnd(usize),
}

struct Subscriber {
    ms: NodeId,
    terminal: NodeId,
    msisdn: Msisdn,
    alias: Msisdn,
    /// Driver-side busy window: suppress attempts that land inside an
    /// earlier call (the generator models a handset, not a trunk).
    busy_until_us: u64,
    /// When the current busy window's call was dialed.
    call_started_us: u64,
    /// The far party of the current call, for driving both ends of a
    /// handed-off call's teardown.
    current_peer: Option<NodeId>,
    /// Destination shard of this subscriber's cross-shard trip, if any.
    cross_target: Option<usize>,
    /// Currently outside the home shard (attempts are suppressed).
    away: bool,
    /// Away *mid-call*: radio leg lives at the destination VMSC, the
    /// H.323 leg stays anchored here. The HLR record does not move.
    handed_off: bool,
    /// Return fell due while the handed-off call was still up; go home
    /// shortly after the hangup instead.
    pending_return: bool,
    /// Bumped whenever the driver abandons the subscriber's current
    /// call (probe failure); stale `Hangup`/`Mute`/`Probe` actions from
    /// the abandoned call carry the old value and are skipped.
    gen: u32,
}

/// An outbound (anchored) handoff leg: our subscriber, their radio.
struct AnchoredLeg {
    target_shard: usize,
    /// Local index of the anchored subscriber, so a trunk partition
    /// that kills the handoff dialogue can tear the right call down.
    local: usize,
}

/// Deterministic identity helpers shared with the rest of the crate.
pub fn imsi_for(global: usize) -> Imsi {
    Imsi::parse(&format!("466920{global:09}")).expect("generated IMSI is valid")
}

/// The subscriber's authentication key, as provisioned in its HLR.
fn ki_for(global: usize) -> u64 {
    0x5000 + global as u64
}

/// The subscriber's own E.164 number.
pub fn msisdn_for(global: usize) -> Msisdn {
    Msisdn::parse(&format!("88691{global:07}")).expect("generated MSISDN is valid")
}

/// The alias of the subscriber's paired wireline terminal.
pub fn alias_for(global: usize) -> Msisdn {
    Msisdn::parse(&format!("88622{global:07}")).expect("generated alias is valid")
}

/// The subscriber's global index recovered from a generated IMSI.
fn global_of(imsi: &Imsi) -> usize {
    imsi.suffix(6) as usize
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
    home_hlr: NodeId,
    home_cell: CellId,
    home_vmsc: NodeId,
    home_sgsn: NodeId,
    home_ggsn: NodeId,
    home_gk: NodeId,
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
    ms_index: IdMap<NodeId, usize>,
    /// Driver-side replay schedule, keyed by microseconds relative to
    /// `t0_us`. The wheel pops in `(time, push order)` just like the old
    /// `BinaryHeap<Sched>`, without the per-pop `O(log n)`.
    sched: CalendarWheel<Action>,
    next_call: u64,
    max_sched_us: u64,
    // Cross-shard state.
    anchored: IdMap<CallId, AnchoredLeg>,
    call_src: IdMap<CallId, usize>,
    visitor_conns: IdMap<usize, ConnRef>,
    conn_globals: IdMap<ConnRef, (usize, usize)>,
    next_visitor_conn: u32,
    pending_um: Vec<(NodeId, Dtap)>,
    pending_interrupt: IdMap<usize, u64>,
    /// Subscribers whose handed-off call a trunk partition tore down,
    /// keyed by local index → (peer shard, torn-at ms). Ordered so the
    /// heal-time re-route runs in a deterministic sequence.
    trunk_torn: BTreeMap<usize, (usize, u64)>,
    outbox: Vec<Envelope>,
    recorder: SnapshotRecorder,
}

impl Shard {
    /// Builds the shard's world and registers its population. The
    /// returned shard sits at its busy-hour t0, ready for epoch 0.
    pub fn new(cfg: &ShardConfig, plans: &[SubscriberPlan]) -> Shard {
        assert_eq!(plans.len(), cfg.subscribers, "one plan per subscriber");
        let seed =
            SimRng::derive(cfg.master_seed, STREAM_SHARD.wrapping_add(cfg.shard_index as u64))
                .next_u64();
        let mut net = Network::with_kernel(seed, cfg.kernel);
        net.set_trace_details(false);
        net.set_trace_capture(false);
        let mut events: u64 = 0;

        // The fault schedule is compiled up front from (config, seed,
        // shard): the driver replays it like any subscriber plan, so
        // fault timing never depends on kernel choice.
        // Recovery guard timers only arm when the plan can actually
        // hurt — an empty plan keeps the event stream identical to a
        // fault-free run.
        let plan = compile_plan(
            &cfg.faults,
            cfg.master_seed,
            cfg.shard_index,
            cfg.population.window_secs,
        );
        // The demand curve is recompiled here (the engine already
        // compiled it to generate the subscriber plans — the function is
        // pure and cheap) for peak-vs-steady KPI attribution and drift
        // target resolution.
        let demand = compile_demand(
            &cfg.scenario,
            cfg.master_seed,
            cfg.shard_index,
            cfg.population.window_secs,
        );
        // Recovery/overload machinery arms only when something can hurt:
        // a fault plan, or an enabled overload control (whose retry
        // composition rides the same resilience guards).
        let resilience = !plan.is_empty() || cfg.controls.enabled();

        // Home serving area plus a neighbor for mobility. Shards are
        // separate networks, so every shard can reuse the same addressing.
        let mut home = VgprsZone::build(
            &mut net,
            VgprsZoneConfig {
                name: format!("s{}", cfg.shard_index),
                tch_capacity: cfg.tch_capacity,
                pdch_bps: cfg.pdch_bps,
                gk_bandwidth: cfg.gk_bandwidth,
                resilience,
                paging_rate_per_s: cfg.controls.paging_rate_per_s,
                gk_shed_utilization: cfg.controls.gk_shed_utilization,
                pdp_rate_per_s: cfg.controls.pdp_rate_per_s,
                ..VgprsZoneConfig::taiwan()
            },
        );
        let neighbor = VgprsZone::build(
            &mut net,
            VgprsZoneConfig {
                name: format!("s{}n", cfg.shard_index),
                lai: Lai::new(466, 92, 2),
                cell: CellId(2),
                msrn_prefix: "8869991".into(),
                pool: (Ipv4Addr::from_octets(10, 201, 0, 0), 16),
                gk_addr: TransportAddr::new(Ipv4Addr::from_octets(10, 2, 0, 2), 1719),
                tch_capacity: cfg.tch_capacity,
                pdch_bps: cfg.pdch_bps,
                gk_bandwidth: cfg.gk_bandwidth,
                resilience,
                paging_rate_per_s: cfg.controls.paging_rate_per_s,
                gk_shed_utilization: cfg.controls.gk_shed_utilization,
                pdp_rate_per_s: cfg.controls.pdp_rate_per_s,
                ..VgprsZoneConfig::taiwan()
            },
        );
        // One operator, one HLR: the neighbor VLR resolves home IMSIs at
        // the home HLR, and the VMSCs are handoff peers in both directions.
        let lat = home.access.latency;
        let (home_vmsc, neighbor_vmsc) = (home.access.msc, neighbor.access.msc);
        net.connect(neighbor.access.vlr, home.access.hlr, Interface::D, lat.ss7);
        net.node_mut::<Vlr>(neighbor.access.vlr)
            .expect("neighbor VLR")
            .add_hlr_route("466", home.access.hlr);
        net.connect(home_vmsc, neighbor_vmsc, Interface::E, lat.e);
        net.node_mut::<Vmsc>(home_vmsc)
            .expect("home VMSC")
            .add_neighbor_cell(neighbor.access.cell, neighbor_vmsc);
        net.node_mut::<Vmsc>(neighbor_vmsc)
            .expect("neighbor VMSC")
            .add_neighbor_cell(home.access.cell, home_vmsc);

        // The cross-shard gates: an E-trunk "neighbor VMSC" serving the
        // border cell, and the border cell's radio infrastructure.
        let trunk_gate = net.add_node(
            &format!("s{}.xgate-e", cfg.shard_index),
            TrunkGate::new(home_vmsc),
        );
        net.connect(trunk_gate, home_vmsc, Interface::E, lat.e);
        net.node_mut::<Vmsc>(home_vmsc)
            .expect("home VMSC")
            .add_neighbor_cell(BORDER_CELL, trunk_gate);
        let radio_gate = net.add_node(
            &format!("s{}.xgate-a", cfg.shard_index),
            RadioGate::new(home_vmsc),
        );
        net.connect(radio_gate, home_vmsc, Interface::A, lat.a);

        let mut subs = Vec::with_capacity(cfg.subscribers);
        let mut ms_index = IdMap::default();
        for (local, plan) in plans.iter().enumerate() {
            let g = plan.global_index;
            let msisdn = msisdn_for(g);
            let alias = alias_for(g);
            let ms = home.access.add_subscriber(
                &mut net,
                &format!("ms{g}"),
                imsi_for(g),
                ki_for(g),
                msisdn,
            );
            let terminal = home.packet.add_terminal(&mut net, &format!("t{g}"), alias);
            let cross_target = plan
                .excursion
                .filter(|_| cfg.total_shards > 1)
                .and_then(|e| {
                    let draw = e.cross_shard?;
                    if e.drift {
                        // Crowd drift: the draw already names the
                        // destination epicenter shard (population takes
                        // it modulo the crowd's epicenter count).
                        let t = draw as usize;
                        (t < cfg.total_shards && t != cfg.shard_index).then_some(t)
                    } else {
                        // Ordinary trip: map the raw draw onto any other
                        // shard, skipping ourselves.
                        let d = (draw % (cfg.total_shards as u64 - 1)) as usize;
                        Some(if d >= cfg.shard_index { d + 1 } else { d })
                    }
                });
            if cross_target.is_some() {
                // Cross-shard movers camp on the border cell while away.
                net.connect(ms, radio_gate, Interface::Um, lat.um);
                let m = net.node_mut::<MobileStation>(ms).expect("new MS");
                m.add_neighbor(BORDER_CELL, radio_gate);
                m.add_neighbor(home.access.cell, home.access.bts);
            } else if plan.excursion.is_some() {
                // Movers can also camp on (and hand off to) the neighbor.
                neighbor.access.cover(&mut net, ms);
                net.node_mut::<MobileStation>(ms)
                    .expect("new MS")
                    .add_neighbor(home.access.cell, home.access.bts);
            }
            net.inject(
                SimDuration::from_millis(local as u64 * 7),
                ms,
                Message::Cmd(Command::PowerOn),
            );
            ms_index.insert(ms, local);
            subs.push(Subscriber {
                ms,
                terminal,
                msisdn,
                alias,
                busy_until_us: 0,
                call_started_us: 0,
                current_peer: None,
                cross_target,
                away: false,
                handed_off: false,
                pending_return: false,
                gen: 0,
            });
        }

        let outcome = net.run_until_quiescent();
        events += outcome.events;
        if !outcome.quiescent {
            net.stats_mut().count("load.event_capped");
        }
        let registered = net
            .node::<Vmsc>(home_vmsc)
            .expect("home VMSC")
            .registered_count();

        // The busy-hour window starts once registration has settled.
        let t0_us = net.now().as_micros();
        let gb_quality = net
            .link_between(home_vmsc, home.packet.sgsn)
            .expect("Gb link")
            .quality_from(home_vmsc);
        let gn_quality = net
            .link_between(home.packet.sgsn, home.packet.ggsn)
            .expect("Gn link")
            .quality_from(home.packet.sgsn);
        let mut shard = Shard {
            cfg: cfg.clone(),
            net,
            events,
            registered,
            t0_us,
            home_hlr: home.access.hlr,
            home_cell: home.access.cell,
            home_vmsc,
            home_sgsn: home.packet.sgsn,
            home_ggsn: home.packet.ggsn,
            home_gk: home.packet.gk,
            gb_quality,
            gn_quality,
            plan,
            demand,
            trunk_gate,
            radio_gate,
            subs,
            ms_index,
            sched: CalendarWheel::new(),
            next_call: 1,
            max_sched_us: 0,
            anchored: IdMap::default(),
            call_src: IdMap::default(),
            visitor_conns: IdMap::default(),
            conn_globals: IdMap::default(),
            next_visitor_conn: 0,
            pending_um: Vec::new(),
            pending_interrupt: IdMap::default(),
            trunk_torn: BTreeMap::new(),
            outbox: Vec::new(),
            recorder: SnapshotRecorder::new(cfg.snapshot_secs),
        };
        for (local, plan) in plans.iter().enumerate() {
            for &arrival in &plan.arrivals {
                shard.push(arrival.at_ms, Action::Attempt { local, arrival });
            }
            if let Some(e) = plan.excursion {
                let out_cell = if shard.subs[local].cross_target.is_some() {
                    BORDER_CELL
                } else {
                    neighbor.access.cell
                };
                shard.push(e.out_ms, Action::Move { local, cell: out_cell });
                shard.push(e.back_ms, Action::Move { local, cell: home.access.cell });
            }
        }
        let windows: Vec<(u64, u64)> = shard
            .plan
            .events
            .iter()
            .map(|e| (e.at_ms, e.duration_ms))
            .collect();
        for (i, (at_ms, duration_ms)) in windows.into_iter().enumerate() {
            shard.push(at_ms, Action::FaultStart(i));
            shard.push(at_ms + duration_ms, Action::FaultEnd(i));
        }
        shard
    }

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

    /// Delivers a driver command to `node` at the current instant.
    fn cmd(&mut self, node: NodeId, command: Command) {
        self.net.inject(SimDuration::ZERO, node, Message::Cmd(command));
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
            .node_mut::<Hlr>(self.home_hlr)
            .expect("home HLR")
            .provision(
                imsi_for(global),
                ki_for(global),
                SubscriberProfile::full(msisdn_for(global)),
            );
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

    /// Runs one lockstep epoch: delivers the barrier's inbox, replays
    /// the window's scheduled actions that fall inside the epoch, and
    /// returns the envelopes to exchange at the next barrier.
    pub fn run_epoch(&mut self, epoch: u64, inbox: Vec<(usize, Flit)>) -> Vec<Envelope> {
        let end_rel_us = (epoch + 1) * EPOCH_MS * 1000;

        // Downlink queued for local handsets — synthesized LU answers
        // from the previous epoch plus everything the barrier brought.
        let mut um_batch = std::mem::take(&mut self.pending_um);
        for (from_shard, flit) in inbox {
            self.deliver_flit(from_shard, flit, &mut um_batch);
        }
        if !um_batch.is_empty() {
            let gate = self
                .net
                .node_mut::<RadioGate>(self.radio_gate)
                .expect("radio gate");
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

        self.drain_gates();
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
        let outcome = self.net.run_until(SimTime::from_micros(self.t0_us + rel_us));
        self.events += outcome.events;
        if !outcome.quiescent {
            self.net.stats_mut().count("load.event_capped");
        }
    }

    fn handle_action(&mut self, at_us: u64, action: Action) {
        match action {
            Action::Attempt { local, arrival } => {
                self.attempt(local, at_us, arrival, 0, at_us / 1000)
            }
            Action::Redial {
                local,
                arrival,
                attempt_no,
                orig_ms,
            } => {
                self.net.stats_mut().count("load.redial_attempts");
                self.attempt(local, at_us, arrival, attempt_no, orig_ms);
            }
            Action::Probe {
                local,
                peer_local,
                arrival,
                attempt_no,
                orig_ms,
                gen,
            } => self.probe(local, at_us, peer_local, arrival, attempt_no, orig_ms, gen),
            Action::FaultStart(i) => self.fault_start(i),
            Action::FaultEnd(i) => self.fault_end(i),
            Action::Hangup {
                node,
                peer,
                local,
                peer_local,
                gen,
            } => {
                if self.subs[local].gen != gen {
                    // The probe already abandoned this call; its hangup
                    // must not tear down a redialed successor.
                    self.net.stats_mut().count("load.stale_actions");
                    return;
                }
                self.cmd(node, Command::Hangup);
                let crossed = self.subs[local].handed_off
                    || peer_local.is_some_and(|p| self.subs[p].handed_off);
                if crossed {
                    // The anchor's release toward the old radio channel
                    // never reaches a handset that left the cell; drive
                    // the far end explicitly so both legs tear down.
                    self.cmd(peer, Command::Hangup);
                    self.net.stats_mut().count("load.handoff_teardowns");
                }
                for l in [Some(local), peer_local].into_iter().flatten() {
                    self.subs[l].current_peer = None;
                    self.pending_interrupt.remove(&l);
                    if self.subs[l].pending_return {
                        self.subs[l].pending_return = false;
                        self.push(
                            at_us / 1000 + RETURN_DELAY_MS,
                            Action::Move {
                                local: l,
                                cell: self.home_cell,
                            },
                        );
                    }
                }
            }
            Action::Mute { a, b, local, gen } => {
                if self.subs[local].gen != gen {
                    self.net.stats_mut().count("load.stale_actions");
                    return;
                }
                self.cmd(a, Command::StopTalking);
                self.cmd(b, Command::StopTalking);
            }
            Action::Move { local, cell } => {
                if cell == BORDER_CELL {
                    self.cross_out(local, at_us);
                } else if self.subs[local].away {
                    self.cross_back(local, at_us);
                } else {
                    self.net.stats_mut().count("load.moves");
                    self.cmd(self.subs[local].ms, Command::MoveToCell { cell });
                }
            }
        }
    }

    fn attempt(&mut self, local: usize, at_us: u64, arrival: Arrival, attempt_no: u32, orig_ms: u64) {
        self.net.stats_mut().count("load.attempts");
        if self.subs[local].away {
            self.net.stats_mut().count("load.away_skipped");
            return;
        }
        if at_us < self.subs[local].busy_until_us {
            self.net.stats_mut().count("load.busy_skipped");
            return;
        }
        let (orig, called, peer, peer_local) = match arrival.kind {
            CallKind::MoToTerminal => (
                self.subs[local].ms,
                self.subs[local].alias,
                self.subs[local].terminal,
                None,
            ),
            CallKind::MtFromTerminal => (
                self.subs[local].terminal,
                self.subs[local].msisdn,
                self.subs[local].ms,
                None,
            ),
            CallKind::MsToMs => {
                if self.cfg.subscribers < 2 {
                    self.net.stats_mut().count("load.no_peer_available");
                    return;
                }
                let mut p = (arrival.peer_draw % (self.cfg.subscribers as u64 - 1)) as usize;
                if p >= local {
                    p += 1;
                }
                if self.subs[p].away {
                    self.net.stats_mut().count("load.away_skipped");
                    return;
                }
                if at_us < self.subs[p].busy_until_us {
                    self.net.stats_mut().count("load.busy_skipped");
                    return;
                }
                self.subs[p].busy_until_us = at_us + arrival.hold_ms * 1000;
                self.subs[p].call_started_us = at_us;
                self.subs[p].current_peer = Some(self.subs[local].ms);
                (self.subs[local].ms, self.subs[p].msisdn, self.subs[p].ms, Some(p))
            }
        };
        self.subs[local].busy_until_us = at_us + arrival.hold_ms * 1000;
        self.subs[local].call_started_us = at_us;
        // The far party as seen from the subscriber's handset (for MT
        // calls the originating terminal, not the handset itself).
        self.subs[local].current_peer = Some(if orig == self.subs[local].ms { peer } else { orig });
        if !self.demand.is_flat() {
            // Attribute the dialed attempt to the shock's peak or the
            // steady state so blocking can be reported for each regime.
            // Counted here, past the away/busy skips, so the regime
            // denominators cover exactly the calls the drop probe sees.
            let regime = if self.demand.in_peak(at_us / 1000) { "peak" } else { "steady" };
            self.net.stats_mut().count(&format!("load.attempts_{regime}"));
        }
        let call = CallId((self.cfg.base_index as u64) << 32 | self.next_call);
        self.next_call += 1;
        self.cmd(orig, Command::Dial { call, called });
        let at_ms = at_us / 1000;
        let gen = self.subs[local].gen;
        let mute_ms = CONNECT_GRACE_MS + self.cfg.voice_sample_ms;
        if mute_ms < arrival.hold_ms {
            self.push(
                at_ms + mute_ms,
                Action::Mute {
                    a: orig,
                    b: peer,
                    local,
                    gen,
                },
            );
        }
        self.push(
            at_ms + arrival.hold_ms,
            Action::Hangup {
                node: orig,
                peer,
                local,
                peer_local,
                gen,
            },
        );
        // Probe the call once it should be in the talking phase. Calls
        // shorter than the probe point are never probed (their teardown
        // would race the check).
        let probe_ms = CONNECT_GRACE_MS + PROBE_DELAY_MS;
        if probe_ms + 500 < arrival.hold_ms {
            self.push(
                at_ms + probe_ms,
                Action::Probe {
                    local,
                    peer_local,
                    arrival,
                    attempt_no,
                    orig_ms,
                    gen,
                },
            );
        }
    }

    /// Verifies that a dialed call reached the talking phase. A dead
    /// call is attributed to whichever fault window overlapped its
    /// setup (or the baseline), both parties are freed, and the caller
    /// redials with exponential back-off and seeded jitter.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &mut self,
        local: usize,
        at_us: u64,
        peer_local: Option<usize>,
        arrival: Arrival,
        attempt_no: u32,
        orig_ms: u64,
        gen: u32,
    ) {
        if self.subs[local].gen != gen || self.subs[local].away {
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
                self.net
                    .stats_mut()
                    .observe("load.redial_recovery_ms", (now_ms - orig_ms) as f64);
            }
            return;
        }
        let dialed_ms = now_ms - (CONNECT_GRACE_MS + PROBE_DELAY_MS);
        let class = FaultClass::ALL
            .into_iter()
            .find(|&c| self.plan.overlaps(c, dialed_ms, now_ms));
        let key = class.map_or("baseline", FaultClass::key);
        self.net.stats_mut().count(&format!("load.dropped_{key}"));
        if !self.demand.is_flat() {
            let regime = if self.demand.in_peak(dialed_ms) { "peak" } else { "steady" };
            self.net.stats_mut().count(&format!("load.dropped_{regime}"));
        }
        // Free both parties and invalidate the dead call's remaining
        // scheduled actions.
        self.subs[local].gen = self.subs[local].gen.wrapping_add(1);
        self.subs[local].busy_until_us = at_us;
        self.subs[local].current_peer = None;
        if let Some(p) = peer_local {
            self.subs[p].busy_until_us = at_us;
            self.subs[p].current_peer = None;
        }
        if attempt_no >= MAX_REDIALS {
            self.net.stats_mut().count("load.redials_exhausted");
            return;
        }
        let global = (self.cfg.base_index + local) as u64;
        let jitter = SimRng::derive(
            self.cfg.master_seed,
            STREAM_REDIAL ^ (global << 8) ^ u64::from(attempt_no),
        )
        .range(0, REDIAL_JITTER_MS);
        let back_ms = (REDIAL_BASE_MS << attempt_no) + jitter;
        self.push(
            now_ms + back_ms,
            Action::Redial {
                local,
                arrival,
                attempt_no: attempt_no + 1,
                orig_ms,
            },
        );
    }

    /// The home-zone endpoints and healthy quality of a fault-plan link.
    fn fault_link(&self, link: LinkSel) -> (NodeId, NodeId, LinkQuality) {
        match link {
            LinkSel::Gb => (self.home_vmsc, self.home_sgsn, self.gb_quality),
            LinkSel::Gn => (self.home_sgsn, self.home_ggsn, self.gn_quality),
        }
    }

    /// The home-zone node a fault-plan selector names.
    fn fault_node(&self, node: NodeSel) -> NodeId {
        match node {
            NodeSel::Sgsn => self.home_sgsn,
            NodeSel::Ggsn => self.home_ggsn,
            NodeSel::Gatekeeper => self.home_gk,
            NodeSel::Vmsc => self.home_vmsc,
        }
    }

    /// Opens impairment window `i` of the fault plan.
    fn fault_start(&mut self, i: usize) {
        let ev = self.plan.events[i];
        let key = ev.kind.class().key();
        self.net.stats_mut().count("load.faults_injected");
        self.net
            .stats_mut()
            .count_by(&format!("load.unavailability_ms_{key}"), ev.duration_ms);
        match ev.kind {
            FaultKind::DegradeLink {
                link,
                added_latency,
                loss,
                bandwidth_bps,
            } => {
                let (a, b, base) = self.fault_link(link);
                let degraded = LinkQuality {
                    latency: base.latency + added_latency,
                    jitter: base.jitter,
                    loss,
                    bandwidth_bps: Some(bandwidth_bps),
                };
                self.net.set_link_quality(a, b, degraded);
            }
            FaultKind::Crash { node } => {
                let id = self.fault_node(node);
                self.cmd(id, Command::Crash);
            }
            FaultKind::Blackhole { node } => {
                let id = self.fault_node(node);
                self.cmd(id, Command::Blackhole);
            }
        }
    }

    /// Closes impairment window `i` and drives recovery: links get
    /// their healthy quality back, restarted peers trigger a VMSC
    /// resync, and a VMSC cold start power-cycles the home population
    /// so every handset re-registers.
    fn fault_end(&mut self, i: usize) {
        let ev = self.plan.events[i];
        match ev.kind {
            FaultKind::DegradeLink { link, .. } => {
                let (a, b, base) = self.fault_link(link);
                self.net.set_link_quality(a, b, base);
            }
            FaultKind::Blackhole { node } => {
                let id = self.fault_node(node);
                self.cmd(id, Command::Restore);
            }
            FaultKind::Crash { node } => {
                let id = self.fault_node(node);
                self.cmd(id, Command::Restore);
                if node == NodeSel::Vmsc {
                    // The VMSC cold-started with an empty MS table;
                    // power-cycle the home population (staggered like
                    // boot) so every handset re-runs location update,
                    // PDP activation and RAS registration.
                    for local in 0..self.subs.len() {
                        if self.subs[local].away {
                            continue;
                        }
                        let ms = self.subs[local].ms;
                        let delay = SimDuration::from_millis(1 + local as u64 * 7);
                        self.net
                            .inject(delay, ms, Message::Cmd(Command::PowerOff));
                        self.net.inject(
                            delay + SimDuration::from_millis(3),
                            ms,
                            Message::Cmd(Command::PowerOn),
                        );
                        self.net.stats_mut().count("load.fault_recycles");
                    }
                } else {
                    // A backbone peer restarted with empty tables: the
                    // VMSC re-attaches every subscriber to rebuild MM
                    // state, PDP contexts and gatekeeper registrations.
                    self.net.inject(
                        SimDuration::from_millis(RESYNC_DELAY_MS),
                        self.home_vmsc,
                        Message::Cmd(Command::Resync),
                    );
                }
            }
        }
    }

    /// The subscriber's excursion leaves the shard. Mid-call (and only
    /// when the call is settled and has time left) this becomes an
    /// inter-VMSC handoff; idle it transfers HLR ownership.
    fn cross_out(&mut self, local: usize, at_us: u64) {
        let Some(target) = self.subs[local].cross_target else {
            return;
        };
        let global = self.cfg.base_index + local;
        let busy = at_us < self.subs[local].busy_until_us;
        if busy {
            let settled_us = self.subs[local].call_started_us
                + (CONNECT_GRACE_MS + self.cfg.voice_sample_ms + 500) * 1000;
            if at_us <= settled_us || at_us + HANDOFF_TAIL_US >= self.subs[local].busy_until_us {
                self.net.stats_mut().count("load.cross_skipped");
                return;
            }
            self.net.stats_mut().count("load.moves");
            self.subs[local].away = true;
            self.subs[local].handed_off = true;
            // Re-open voice on both legs so the handoff interrupts a
            // live stream, then mute again once the gap is sampled.
            let ms = self.subs[local].ms;
            let peer = self.subs[local].current_peer.expect("mid-call peer");
            self.cmd(ms, Command::StartTalking);
            self.cmd(peer, Command::StartTalking);
            let mute_at_ms = at_us / 1000 + HANDOFF_VOICE_MS;
            if mute_at_ms * 1000 + 500_000 < self.subs[local].busy_until_us {
                let gen = self.subs[local].gen;
                self.push(
                    mute_at_ms,
                    Action::Mute {
                        a: ms,
                        b: peer,
                        local,
                        gen,
                    },
                );
            }
            self.cmd(ms, Command::MoveToCell { cell: BORDER_CELL });
        } else {
            if self.subs[local].busy_until_us > 0
                && at_us < self.subs[local].busy_until_us + POST_CALL_SETTLE_US
            {
                self.net.stats_mut().count("load.cross_skipped");
                return;
            }
            self.net.stats_mut().count("load.moves");
            self.net.stats_mut().count("load.cross_idle");
            self.subs[local].away = true;
            // The destination shard's HLR takes the record; ours drops
            // it (GSM cancel-location toward the serving VLR included).
            self.outbox.push(Envelope {
                to_shard: target,
                flit: Flit::Arrive { global },
            });
            self.net.inject(
                SimDuration::ZERO,
                self.home_hlr,
                Message::Map(MapMessage::CancelLocation {
                    imsi: imsi_for(global),
                }),
            );
            self.cmd(self.subs[local].ms, Command::MoveToCell { cell: BORDER_CELL });
        }
    }

    /// The subscriber comes home: re-camp on the home cell, and for
    /// idle-mode trips reclaim the HLR record from the host shard.
    fn cross_back(&mut self, local: usize, at_us: u64) {
        let global = self.cfg.base_index + local;
        if self.subs[local].handed_off {
            if at_us < self.subs[local].busy_until_us + POST_CALL_SETTLE_US {
                // Still on the handed-off call; return after it ends.
                self.subs[local].pending_return = true;
                return;
            }
            self.subs[local].away = false;
            self.subs[local].handed_off = false;
        } else {
            let target = self.subs[local].cross_target.expect("cross mover");
            self.subs[local].away = false;
            // Reclaim ownership before the handset's location update
            // arrives, mirroring the HLR update of a real return.
            self.provision_home(global);
            self.outbox.push(Envelope {
                to_shard: target,
                flit: Flit::Depart { global },
            });
        }
        self.net.stats_mut().count("load.cross_back");
        self.cmd(self.subs[local].ms, Command::MoveToCell { cell: self.home_cell });
    }

    /// Delivers one barrier flit into the simulation.
    fn deliver_flit(&mut self, from_shard: usize, flit: Flit, um_batch: &mut Vec<(NodeId, Dtap)>) {
        match flit {
            Flit::Map(m) => {
                if let MapMessage::PrepareHandover { call, .. } = &m {
                    // Remember who anchors this visitor call so replies
                    // and uplink voice can be routed back.
                    self.call_src.insert(*call, from_shard);
                }
                self.net
                    .inject(SimDuration::ZERO, self.trunk_gate, Message::Map(m));
            }
            Flit::Trunk {
                cic,
                call,
                seq,
                origin_off_us,
            } => {
                self.net.inject(
                    SimDuration::ZERO,
                    self.trunk_gate,
                    Message::TrunkVoice {
                        cic,
                        call,
                        seq,
                        origin_us: self.t0_us + origin_off_us,
                    },
                );
            }
            Flit::UmUp { global, dtap } => match dtap {
                Dtap::HandoverComplete { .. } => {
                    // The visitor arrived on our border cell: allocate
                    // the radio-leg connection its A-interface will use.
                    let conn = ConnRef(VISITOR_CONN_BASE | self.next_visitor_conn);
                    self.next_visitor_conn += 1;
                    self.visitor_conns.insert(global, conn);
                    self.conn_globals.insert(conn, (global, from_shard));
                    self.net.inject(
                        SimDuration::ZERO,
                        self.radio_gate,
                        Message::A { conn, dtap },
                    );
                }
                dtap => {
                    if let Some(&conn) = self.visitor_conns.get(&global) {
                        let dtap = self.rebase_in(dtap);
                        self.net.inject(
                            SimDuration::ZERO,
                            self.radio_gate,
                            Message::A { conn, dtap },
                        );
                    } else {
                        self.net.stats_mut().count("load.cross_dropped");
                    }
                }
            },
            Flit::ADown { global, dtap } => {
                let local = self.local_of(global).expect("downlink for a subscriber of this shard");
                let dtap = self.rebase_in(dtap);
                if matches!(dtap, Dtap::VoiceFrame { .. }) {
                    if let Some(start_us) = self.pending_interrupt.remove(&local) {
                        // First downlink voice since the handset left its
                        // old channel: the handoff interruption gap.
                        let gap_ms =
                            self.net.now().as_micros().saturating_sub(start_us) as f64 / 1000.0;
                        self.net
                            .stats_mut()
                            .observe("load.handoff_interruption_ms", gap_ms);
                    }
                }
                um_batch.push((self.subs[local].ms, dtap));
            }
            Flit::Arrive { global } => {
                self.net.stats_mut().count("load.visitors_hosted");
                self.provision_home(global);
            }
            Flit::Depart { global } => {
                self.net.inject(
                    SimDuration::ZERO,
                    self.home_hlr,
                    Message::Map(MapMessage::CancelLocation {
                        imsi: imsi_for(global),
                    }),
                );
            }
            Flit::TrunkExpired {
                peer,
                call,
                global,
                kind,
            } => self.trunk_expired(peer, call, global, kind),
            Flit::TrunkHeal { peer } => self.trunk_heal(peer),
        }
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
        match kind {
            ExpiredKind::Voice => {
                // The far end never hears these frames; the scheduled
                // hangup (or the probe) still cleans the call up, so
                // only attribute the loss to the trunk class.
                self.net.stats_mut().count("load.trunk_frame_drops");
            }
            ExpiredKind::Handoff => {
                // Who was mid-ladder? The anchor side finds the call in
                // its anchored map (or the mover via its global index);
                // the host side only knows the visitor's global.
                let local = call
                    .and_then(|c| self.anchored.remove(&c).map(|leg| leg.local))
                    .or_else(|| global.and_then(|g| self.local_of(g)));
                if let Some(local) = local {
                    self.teardown_torn(local, peer, now_us);
                } else if let Some(g) = global {
                    // An expired uplink for a visitor we host: abandon
                    // the radio leg; the anchor side supervises the call.
                    if let Some(conn) = self.visitor_conns.remove(&g) {
                        self.conn_globals.remove(&conn);
                        self.net.stats_mut().count("load.trunk_visitor_drops");
                    } else {
                        self.net.stats_mut().count("load.trunk_signal_drops");
                    }
                } else if let Some(c) = call {
                    // Handoff dialogue we relayed for a visitor call:
                    // forget the route; the anchor shard's supervision
                    // owns the teardown.
                    self.call_src.remove(&c);
                    self.net.stats_mut().count("load.trunk_signal_drops");
                } else {
                    self.net.stats_mut().count("load.trunk_signal_drops");
                }
            }
            ExpiredKind::Mobility => {
                // An idle-mode HLR ownership transfer died on the
                // trunk: revert the move so exactly one shard owns the
                // record again (re-provisioning is idempotent when the
                // expired flit was the return-trip cancel).
                let Some(local) = global.and_then(|g| self.local_of(g)) else {
                    self.net.stats_mut().count("load.trunk_signal_drops");
                    return;
                };
                self.net.stats_mut().count("load.trunk_mobility_reverts");
                self.subs[local].away = false;
                self.subs[local].handed_off = false;
                self.provision_home(self.cfg.base_index + local);
                self.cmd(self.subs[local].ms, Command::MoveToCell { cell: self.home_cell });
            }
            ExpiredKind::Signal => {
                self.net.stats_mut().count("load.trunk_signal_drops");
            }
        }
    }

    /// Supervised teardown of a handed-off call whose trunk leg a
    /// partition killed: both ends hang up, the dead call's remaining
    /// scheduled actions are invalidated, and the stranded mover is
    /// remembered so the heal can re-route it to its home anchor.
    fn teardown_torn(&mut self, local: usize, peer: usize, now_us: u64) {
        self.net.stats_mut().count("load.trunk_handoff_drops");
        let cause = Cause::RecoveryOnTimerExpiry;
        self.net
            .stats_mut()
            .count(&format!("load.trunk_q850_{}", cause.q850_value()));
        let ms = self.subs[local].ms;
        let peer_node = self.subs[local].current_peer;
        self.subs[local].gen = self.subs[local].gen.wrapping_add(1);
        self.subs[local].busy_until_us = now_us;
        self.subs[local].current_peer = None;
        self.subs[local].pending_return = false;
        self.pending_interrupt.remove(&local);
        self.cmd(ms, Command::Hangup);
        if let Some(p) = peer_node {
            // The release toward the departed radio channel never
            // reaches the far handset; drive it down explicitly, like
            // the crossed-leg branch of a normal handoff hangup.
            self.cmd(p, Command::Hangup);
        }
        // Stranded at the far cell until the partition heals (or the
        // natural return excursion brings the subscriber home first).
        self.trunk_torn.insert(local, (peer, now_us / 1000));
    }

    /// A trunk partition toward `peer` healed: re-route every
    /// subscriber it stranded back onto the home anchor, in local-index
    /// order so the recovery sequence is deterministic.
    fn trunk_heal(&mut self, peer: usize) {
        let now_ms = self.net.now().as_micros().saturating_sub(self.t0_us) / 1000;
        let torn: Vec<(usize, u64)> = self
            .trunk_torn
            .iter()
            .filter(|&(_, &(p, _))| p == peer)
            .map(|(&l, &(_, at))| (l, at))
            .collect();
        for (local, torn_ms) in torn {
            self.trunk_torn.remove(&local);
            self.net.stats_mut().count("load.trunk_reroutes");
            self.net
                .stats_mut()
                .observe("load.heal_recovery_ms", now_ms.saturating_sub(torn_ms) as f64);
            self.subs[local].away = false;
            self.subs[local].handed_off = false;
            self.subs[local].pending_return = false;
            self.cmd(self.subs[local].ms, Command::MoveToCell { cell: self.home_cell });
        }
    }

    /// Harvests the epoch's outbound cross-shard traffic from the gates.
    fn drain_gates(&mut self) {
        let captured = self
            .net
            .node_mut::<TrunkGate>(self.trunk_gate)
            .expect("trunk gate")
            .take_captured();
        for msg in captured {
            match msg {
                Message::Map(m) => {
                    let to_shard = match &m {
                        MapMessage::PrepareHandover { call, imsi, .. } => {
                            let Some(local) = self.local_of(global_of(imsi)) else {
                                self.net.stats_mut().count("load.cross_unroutable");
                                continue;
                            };
                            let Some(target) = self.subs[local].cross_target else {
                                self.net.stats_mut().count("load.cross_unroutable");
                                continue;
                            };
                            self.anchored.insert(
                                *call,
                                AnchoredLeg {
                                    target_shard: target,
                                    local,
                                },
                            );
                            self.net.stats_mut().count("load.handoff_attempts");
                            target
                        }
                        MapMessage::SendEndSignalAck { call } => {
                            let Some(leg) = self.anchored.get(call) else {
                                self.net.stats_mut().count("load.cross_unroutable");
                                continue;
                            };
                            self.net.stats_mut().count("load.handoff_success");
                            leg.target_shard
                        }
                        MapMessage::PrepareHandoverAck { call, .. }
                        | MapMessage::SendEndSignal { call } => {
                            let Some(&src) = self.call_src.get(call) else {
                                self.net.stats_mut().count("load.cross_unroutable");
                                continue;
                            };
                            src
                        }
                        _ => {
                            self.net.stats_mut().count("load.cross_unroutable");
                            continue;
                        }
                    };
                    self.outbox.push(Envelope {
                        to_shard,
                        flit: Flit::Map(m),
                    });
                }
                Message::TrunkVoice {
                    cic,
                    call,
                    seq,
                    origin_us,
                } => {
                    // Anchor → target (our subscriber's downlink) or
                    // target → anchor (a visitor's uplink).
                    let to_shard = self
                        .anchored
                        .get(&call)
                        .map(|leg| leg.target_shard)
                        .or_else(|| self.call_src.get(&call).copied());
                    let Some(to_shard) = to_shard else {
                        self.net.stats_mut().count("load.cross_dropped");
                        continue;
                    };
                    self.outbox.push(Envelope {
                        to_shard,
                        flit: Flit::Trunk {
                            cic,
                            call,
                            seq,
                            origin_off_us: origin_us.saturating_sub(self.t0_us),
                        },
                    });
                }
                _ => self.net.stats_mut().count("load.cross_unroutable"),
            }
        }

        let ups = self
            .net
            .node_mut::<RadioGate>(self.radio_gate)
            .expect("radio gate")
            .take_um_up();
        for (ms, dtap, at_us) in ups {
            let Some(&local) = self.ms_index.get(&ms) else {
                self.net.stats_mut().count("load.cross_dropped");
                continue;
            };
            let global = self.cfg.base_index + local;
            match dtap {
                Dtap::LocationUpdateRequest { .. } => {
                    // Idle-mode arrival at the border: the destination
                    // shard already owns the HLR record; answer the
                    // handset from here next epoch (one barrier's worth
                    // of inter-shard signaling latency).
                    self.pending_um
                        .push((ms, Dtap::LocationUpdateAccept { tmsi: None }));
                }
                dtap => {
                    if matches!(dtap, Dtap::HandoverComplete { .. }) {
                        // Radio silence starts when the handset reaches
                        // the border cell; ends at the first downlink
                        // voice frame relayed back from the target.
                        self.pending_interrupt.insert(local, at_us);
                    }
                    let Some(target) = self.subs[local].cross_target else {
                        self.net.stats_mut().count("load.cross_dropped");
                        continue;
                    };
                    let dtap = self.rebase_out(dtap);
                    self.outbox.push(Envelope {
                        to_shard: target,
                        flit: Flit::UmUp { global, dtap },
                    });
                }
            }
        }

        let downs = self
            .net
            .node_mut::<RadioGate>(self.radio_gate)
            .expect("radio gate")
            .take_a_down();
        for (conn, dtap) in downs {
            let Some(&(global, home_shard)) = self.conn_globals.get(&conn) else {
                self.net.stats_mut().count("load.cross_dropped");
                continue;
            };
            let released = matches!(dtap, Dtap::ChannelRelease);
            let dtap = self.rebase_out(dtap);
            self.outbox.push(Envelope {
                to_shard: home_shard,
                flit: Flit::ADown { global, dtap },
            });
            if released {
                // The target VMSC freed the visitor's radio leg.
                self.conn_globals.remove(&conn);
                self.visitor_conns.remove(&global);
            }
        }
    }

    /// Voice timestamps travel the mailbox relative to the sender's t0.
    fn rebase_out(&self, dtap: Dtap) -> Dtap {
        match dtap {
            Dtap::VoiceFrame {
                call,
                seq,
                origin_us,
            } => Dtap::VoiceFrame {
                call,
                seq,
                origin_us: origin_us.saturating_sub(self.t0_us),
            },
            d => d,
        }
    }

    fn rebase_in(&self, dtap: Dtap) -> Dtap {
        match dtap {
            Dtap::VoiceFrame {
                call,
                seq,
                origin_us,
            } => Dtap::VoiceFrame {
                call,
                seq,
                origin_us: self.t0_us + origin_us,
            },
            d => d,
        }
    }

    /// Seals the shard and hands back its evidence.
    pub fn finish(mut self) -> ShardReport {
        if self.is_busy() {
            // The engine stopped at its epoch cap with work remaining.
            self.net.stats_mut().count("load.drain_capped");
        }
        self.net
            .stats_mut()
            .count_by("load.registered", self.registered as u64);
        ShardReport {
            shard_index: self.cfg.shard_index,
            registered: self.registered,
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

    /// One subscriber that dials its terminal 10 ms into the window.
    fn one_call_shard() -> Shard {
        let cfg = ShardConfig {
            shard_index: 0,
            base_index: 0,
            subscribers: 1,
            total_shards: 1,
            master_seed: 42,
            population: PopulationConfig::default(),
            tch_capacity: 64,
            pdch_bps: 1_600_000,
            gk_bandwidth: 100_000_000,
            voice_sample_ms: 1_000,
            kernel: Kernel::default(),
            faults: FaultPlanConfig::default(),
            scenario: ScenarioConfig::default(),
            controls: OverloadControls::default(),
            snapshot_secs: 0,
        };
        let plan = SubscriberPlan {
            global_index: 0,
            arrivals: vec![Arrival {
                at_ms: 10,
                kind: CallKind::MoToTerminal,
                hold_ms: 5_000,
                peer_draw: 0,
            }],
            excursion: None,
        };
        Shard::new(&cfg, &[plan])
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
