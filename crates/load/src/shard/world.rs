//! Building a shard's world, in the order its nodes are created (node
//! ids break event ties, so the order is part of the world): the two
//! serving areas, the cross-shard gates, the subscribers — then the
//! population starts registered and the plans become the schedule.
//!
//! Registration is written, not run: every handset powers on 7 ms after
//! the previous one, and [`VgprsZone::provision_registered`] writes what
//! its Figure 4 ladder, and each terminal's RRQ, would leave, so the
//! busy hour starts at the instant those ladders would have gone quiet.
//! [`Registration::Replay`] runs the ladders instead: the oracle the
//! provisioned build is held to.

use vgprs_core::{HomeNumbers, VgprsZone, VgprsZoneConfig, Vmsc};
use vgprs_faults::compile_plan;
use vgprs_gsm::{MobileStation, Vlr};
use vgprs_scenario::compile_demand;
use vgprs_sim::{CalendarWheel, IdMap, Interface, Network, NodeId, SimRng, SimTime, Stamp};
use vgprs_wire::{CellId, Command, Ipv4Addr, Lai, Message, TransportAddr};

use super::driver::{Action, Dial};
use super::voice::{ms32, Trains};
use super::{alias_for, imsi_for, ki_for, msisdn_for, Ix, Shard, ShardConfig, Subscriber, Trip};
use crate::mailbox::{RadioGate, TrunkGate, BORDER_CELL};
use crate::population::{Arrival, CallKind, SubscriberPlan};
use crate::snapshot::SnapshotRecorder;

/// Stream-class salt for per-shard network seeds.
const STREAM_SHARD: u64 = 0x1656_67B1_9E37_79F9;

/// How a shard's population gets registered before its busy hour.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Registration {
    /// Write what the ladders leave: what [`Shard::new`] does.
    Provision,
    /// Power the handsets on and run every ladder to quiescence: the
    /// oracle.
    Replay {
        /// Keep the message trace, details included, as a shard
        /// otherwise does not.
        trace: bool,
    },
}

/// Home serving area plus a neighbor for mobility. Shards are separate
/// networks, so every shard can reuse the same addressing. The home zone's
/// registers are told the shard's number series; the neighbor's are not,
/// and hash every key.
fn build_zones(
    net: &mut Network<Message>,
    cfg: &ShardConfig,
    resilience: bool,
) -> (VgprsZone, VgprsZone) {
    let zone = |name: String| VgprsZoneConfig {
        name,
        tch_capacity: cfg.tch_capacity,
        pdch_bps: cfg.pdch_bps,
        gk_bandwidth: cfg.gk_bandwidth,
        resilience,
        controls: cfg.controls,
        ..VgprsZoneConfig::taiwan()
    };
    let home = VgprsZone::build(net, zone(format!("s{}", cfg.shard_index)));
    let base = cfg.base_index;
    let numbers = HomeNumbers {
        imsi: imsi_for(base),
        msisdn: msisdn_for(base),
        alias: alias_for(base),
        count: cfg.subscribers,
    };
    home.declare_home(net, numbers);
    let neighbor = VgprsZone::build(
        net,
        VgprsZoneConfig {
            lai: Lai::new(466, 92, 2),
            cell: CellId(2),
            msrn_prefix: "8869991".into(),
            pool: (Ipv4Addr::from_octets(10, 201, 0, 0), 16),
            gk_addr: TransportAddr::new(Ipv4Addr::from_octets(10, 2, 0, 2), 1719),
            ..zone(format!("s{}n", cfg.shard_index))
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
    (home, neighbor)
}

/// The cross-shard gates: an E-trunk "neighbor VMSC" serving the border
/// cell, and the border cell's radio infrastructure.
fn add_gates(net: &mut Network<Message>, shard: usize, home: &VgprsZone) -> (NodeId, NodeId) {
    let (vmsc, lat) = (home.access.msc, home.access.latency);
    let trunk_gate = net.add_node(format_args!("s{shard}.xgate-e"), TrunkGate::new(vmsc));
    net.connect(trunk_gate, vmsc, Interface::E, lat.e);
    net.node_mut::<Vmsc>(vmsc)
        .expect("home VMSC")
        .add_neighbor_cell(BORDER_CELL, trunk_gate);
    let radio_gate = net.add_node(format_args!("s{shard}.xgate-a"), RadioGate::new(vmsc));
    net.connect(radio_gate, vmsc, Interface::A, lat.a);
    (trunk_gate, radio_gate)
}

/// The shard a subscriber's excursion leaves for, if it leaves at all.
fn cross_target(cfg: &ShardConfig, plan: &SubscriberPlan) -> Option<usize> {
    let e = plan.excursion.filter(|_| cfg.total_shards > 1)?;
    let draw = e.cross_shard?;
    if e.drift {
        // Crowd drift: the draw already names the destination epicenter
        // shard (population takes it modulo the crowd's epicenter count).
        let t = draw as usize;
        (t < cfg.total_shards && t != cfg.shard_index).then_some(t)
    } else {
        // Ordinary trip: map the raw draw onto any other shard, skipping
        // ourselves.
        let d = (draw % (cfg.total_shards as u64 - 1)) as usize;
        Some(if d >= cfg.shard_index { d + 1 } else { d })
    }
}

/// One handset and one wireline terminal per plan, the handset wired to
/// wherever its excursion takes it.
fn add_subscribers(
    net: &mut Network<Message>,
    cfg: &ShardConfig,
    plans: &[SubscriberPlan],
    home: &mut VgprsZone,
    neighbor: &VgprsZone,
    radio_gate: NodeId,
) -> Vec<Subscriber> {
    let mut subs = Vec::with_capacity(plans.len());
    for plan in plans {
        let g = plan.global_index;
        let ms = home
            .access
            .add_subscriber(net, format_args!("ms{g}"), imsi_for(g), ki_for(g), msisdn_for(g));
        let terminal = home.packet.add_terminal(net, format_args!("t{g}"), alias_for(g));
        let cross_target = cross_target(cfg, plan);
        if cross_target.is_some() {
            // Cross-shard movers camp on the border cell while away.
            net.connect(ms, radio_gate, Interface::Um, home.access.latency.um);
            let m = net.node_mut::<MobileStation>(ms).expect("new MS");
            m.add_neighbor(BORDER_CELL, radio_gate);
            m.add_neighbor(home.access.cell, home.access.bts);
        } else if plan.excursion.is_some() {
            // Movers can also camp on (and hand off to) the neighbor.
            neighbor.access.cover(net, ms);
            net.node_mut::<MobileStation>(ms)
                .expect("new MS")
                .add_neighbor(home.access.cell, home.access.bts);
        }
        subs.push(Subscriber {
            ms,
            terminal,
            busy_until_us: 0,
            call_started_us: 0,
            current_peer: None,
            cross_target: cross_target.map(Ix::new),
            trip: Trip::Home,
            gen: 0,
            next_move_ms: u32::MAX,
            silent_since: Stamp::default(),
            torn: None,
            exposed_until_ms: 0,
        });
    }
    subs
}

/// Registers the population as `registration` says, handsets powering
/// on 7 ms apart, and returns how many events that took. The clock then
/// reads the busy hour's t0: the instant registration settled.
fn register(
    net: &mut Network<Message>,
    home: &VgprsZone,
    subs: &[Subscriber],
    registration: Registration,
) -> u64 {
    let handsets: Vec<(NodeId, SimTime)> = (subs.iter().enumerate())
        .map(|(local, sub)| (sub.ms, SimTime::from_micros(local as u64 * 7_000)))
        .collect();
    match registration {
        Registration::Provision => {
            let terminals: Vec<NodeId> = subs.iter().map(|sub| sub.terminal).collect();
            let quiet = home.provision_registered(net, &terminals, &handsets);
            net.start_at(quiet);
            0
        }
        Registration::Replay { .. } => {
            for &(ms, at) in &handsets {
                let power_on = Message::Cmd(Command::PowerOn);
                net.inject(at.duration_since(SimTime::ZERO), ms, power_on);
            }
            let outcome = net.run_until_quiescent();
            if !outcome.quiescent {
                net.stats_mut().count("load.event_capped");
            }
            outcome.events
        }
    }
}

impl Shard {
    /// Builds the shard's world with its population registered. The
    /// returned shard sits at its busy-hour t0, ready for epoch 0.
    pub fn new(cfg: &ShardConfig, plans: &[SubscriberPlan]) -> Shard {
        Shard::build(cfg, plans, Registration::Provision)
    }

    /// [`Shard::new`], with the population registered as `registration`
    /// says: [`Registration::Replay`] is the oracle for the provisioned
    /// start, and the one way to see a shard's Figure 4 ladders.
    #[doc(hidden)]
    pub fn build(cfg: &ShardConfig, plans: &[SubscriberPlan], registration: Registration) -> Shard {
        assert_eq!(plans.len(), cfg.subscribers, "one plan per subscriber");
        let stream = STREAM_SHARD.wrapping_add(cfg.shard_index as u64);
        let seed = SimRng::derive(cfg.master_seed, stream).next_u64();
        let mut net = Network::with_kernel(seed, cfg.kernel);
        let trace = registration == Registration::Replay { trace: true };
        net.set_trace_details(trace);
        net.set_trace_capture(trace);

        // The fault schedule and the demand curve are compiled up front
        // from (config, seed, shard) — pure and cheap; the engine compiled
        // the same curve to generate the plans — so neither depends on
        // the kernel. Recovery and overload machinery arms only when
        // something can hurt: a fault plan, or an enabled overload
        // control (whose retry composition rides the same guards). An
        // empty plan keeps the event stream that of a fault-free run.
        let window = cfg.population.window_secs;
        let plan = compile_plan(&cfg.faults, cfg.master_seed, cfg.shard_index, window);
        let demand = compile_demand(&cfg.scenario, cfg.master_seed, cfg.shard_index, window);
        let resilience = !plan.is_empty() || cfg.controls.enabled();

        let (mut home, neighbor) = build_zones(&mut net, cfg, resilience);
        let (trunk_gate, radio_gate) = add_gates(&mut net, cfg.shard_index, &home);
        let subs = add_subscribers(&mut net, cfg, plans, &mut home, &neighbor, radio_gate);

        let events = register(&mut net, &home, &subs, registration);
        let (vmsc, sgsn, ggsn) = (home.access.msc, home.packet.sgsn, home.packet.ggsn);
        let registered = net
            .node::<Vmsc>(vmsc)
            .expect("home VMSC")
            .registered_count();
        let gb_quality = net.link_between(vmsc, sgsn).expect("Gb link").quality;
        let gn_quality = net.link_between(sgsn, ggsn).expect("Gn link").quality;
        // The busy-hour window starts once registration has settled.
        let t0_us = net.now().as_micros();
        let mut shard = Shard {
            cfg: cfg.clone(),
            net,
            events,
            registered,
            t0_us,
            home,
            gb_quality,
            gn_quality,
            plan,
            demand,
            trunk_gate,
            radio_gate,
            subs,
            sched: CalendarWheel::new(),
            next_call: 1,
            max_sched_us: 0,
            routes: IdMap::default(),
            visitors: IdMap::default(),
            pending_um: Vec::new(),
            outbox: Vec::new(),
            recorder: SnapshotRecorder::new(cfg.snapshot_secs),
            // A world whose recovery guards arm changes unforeseen.
            trains: (!resilience).then(|| Trains::plan(plans)),
        };
        shard.schedule(plans, neighbor.access.cell);
        shard
    }

    /// Turns the plans and the fault windows into scheduled actions.
    fn schedule(&mut self, plans: &[SubscriberPlan], neighbor_cell: CellId) {
        let home = self.home.access.cell;
        for (local, plan) in plans.iter().enumerate() {
            let ix = Ix::new(local);
            for &arrival in &plan.arrivals {
                let dial = planned_dial(arrival, local, self.cfg.subscribers);
                self.push(arrival.at_ms, Action::Attempt(ix, dial));
            }
            if let Some(e) = plan.excursion {
                let crosses = self.subs[local].cross_target.is_some();
                let out = if crosses { BORDER_CELL } else { neighbor_cell };
                let (out_ms, back_ms) = (e.out_ms, e.back_ms);
                self.subs[local].next_move_ms = ms32(out_ms);
                let next_ms = ms32(back_ms);
                self.push(out_ms, Action::Move { local: ix, cell: out, next_ms });
                let next_ms = u32::MAX;
                self.push(back_ms, Action::Move { local: ix, cell: home, next_ms });
            }
        }
        for i in 0..self.plan.events.len() {
            let window = self.plan.events[i];
            self.push(window.at_ms, Action::FaultStart(i));
            self.push(window.at_ms + window.duration_ms, Action::FaultEnd(i));
        }
    }
}

/// The plan's own attempt at `arrival` by subscriber `local` of a shard
/// of `subscribers`: the draw picks a callee among the others.
fn planned_dial(arrival: Arrival, local: usize, subscribers: usize) -> Dial {
    let others = subscribers.saturating_sub(1) as u64;
    let callee = (arrival.kind == CallKind::MsToMs && others > 0).then(|| {
        let p = (arrival.peer_draw % others) as usize;
        Ix::new(if p >= local { p + 1 } else { p })
    });
    Dial {
        at_ms: arrival.at_ms,
        hold_ms: arrival.hold_ms,
        kind: arrival.kind,
        callee,
        attempt_no: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::call_at;
    use super::*;

    /// The draw picks a callee among the other subscribers, and a shard
    /// of one has nobody to call.
    #[test]
    fn a_planned_dial_draws_its_callee_among_the_others() {
        let draw = |peer_draw, local, subscribers| {
            let arrival = Arrival {
                kind: CallKind::MsToMs,
                peer_draw,
                ..call_at(10)
            };
            planned_dial(arrival, local, subscribers).callee.map(Ix::get)
        };
        assert_eq!(draw(0, 0, 4), Some(1));
        assert_eq!(draw(0, 2, 4), Some(0));
        assert_eq!(draw(5, 2, 4), Some(3));
        assert_eq!(draw(5, 0, 1), None);
        assert_eq!(planned_dial(call_at(10), 0, 4).callee, None);
    }
}
