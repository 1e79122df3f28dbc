//! Building a shard's world, in the order its nodes are created (node
//! ids break event ties, so the order is part of the world): the two
//! serving areas, the cross-shard gates, the subscribers — then
//! registration runs to quiescence and the plans become the schedule.

use vgprs_core::{VgprsZone, VgprsZoneConfig, Vmsc};
use vgprs_faults::compile_plan;
use vgprs_gsm::{MobileStation, Vlr};
use vgprs_scenario::compile_demand;
use vgprs_sim::{CalendarWheel, IdMap, Interface, Network, NodeId, SimDuration, SimRng};
use vgprs_wire::{CellId, Command, Ipv4Addr, Lai, Message, Msisdn, TransportAddr};

use super::driver::{Action, Dial};
use super::{imsi_for, ki_for, msisdn_for, Shard, ShardConfig, Subscriber};
use crate::mailbox::{RadioGate, TrunkGate, BORDER_CELL};
use crate::population::SubscriberPlan;
use crate::snapshot::SnapshotRecorder;

/// Stream-class salt for per-shard network seeds.
const STREAM_SHARD: u64 = 0x1656_67B1_9E37_79F9;

/// The alias of the subscriber's paired wireline terminal.
fn alias_for(global: usize) -> Msisdn {
    Msisdn::parse(&format!("88622{global:07}")).expect("generated alias is valid")
}

/// Home serving area plus a neighbor for mobility. Shards are separate
/// networks, so every shard can reuse the same addressing.
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
        paging_rate_per_s: cfg.controls.paging_rate_per_s,
        gk_shed_utilization: cfg.controls.gk_shed_utilization,
        pdp_rate_per_s: cfg.controls.pdp_rate_per_s,
        ..VgprsZoneConfig::taiwan()
    };
    let home = VgprsZone::build(net, zone(format!("s{}", cfg.shard_index)));
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
    let trunk_gate = net.add_node(&format!("s{shard}.xgate-e"), TrunkGate::new(vmsc));
    net.connect(trunk_gate, vmsc, Interface::E, lat.e);
    net.node_mut::<Vmsc>(vmsc)
        .expect("home VMSC")
        .add_neighbor_cell(BORDER_CELL, trunk_gate);
    let radio_gate = net.add_node(&format!("s{shard}.xgate-a"), RadioGate::new(vmsc));
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
/// wherever its excursion takes it and powered on 7 ms after the last.
fn add_subscribers(
    net: &mut Network<Message>,
    cfg: &ShardConfig,
    plans: &[SubscriberPlan],
    home: &mut VgprsZone,
    neighbor: &VgprsZone,
    radio_gate: NodeId,
) -> Vec<Subscriber> {
    let mut subs = Vec::with_capacity(plans.len());
    for (local, plan) in plans.iter().enumerate() {
        let g = plan.global_index;
        let (msisdn, alias) = (msisdn_for(g), alias_for(g));
        let ms = home
            .access
            .add_subscriber(net, &format!("ms{g}"), imsi_for(g), ki_for(g), msisdn);
        let terminal = home.packet.add_terminal(net, &format!("t{g}"), alias);
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
        let power_on = SimDuration::from_millis(local as u64 * 7);
        net.inject(power_on, ms, Message::Cmd(Command::PowerOn));
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
            silent_since_us: None,
            torn: None,
        });
    }
    subs
}

impl Shard {
    /// Builds the shard's world and registers its population. The
    /// returned shard sits at its busy-hour t0, ready for epoch 0.
    pub fn new(cfg: &ShardConfig, plans: &[SubscriberPlan]) -> Shard {
        assert_eq!(plans.len(), cfg.subscribers, "one plan per subscriber");
        let stream = STREAM_SHARD.wrapping_add(cfg.shard_index as u64);
        let seed = SimRng::derive(cfg.master_seed, stream).next_u64();
        let mut net = Network::with_kernel(seed, cfg.kernel);
        net.set_trace_details(false);
        net.set_trace_capture(false);

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

        let outcome = net.run_until_quiescent();
        if !outcome.quiescent {
            net.stats_mut().count("load.event_capped");
        }
        let (vmsc, sgsn, ggsn) = (home.access.msc, home.packet.sgsn, home.packet.ggsn);
        let registered = net
            .node::<Vmsc>(vmsc)
            .expect("home VMSC")
            .registered_count();
        let gb_quality = net
            .link_between(vmsc, sgsn)
            .expect("Gb link")
            .quality_from(vmsc);
        let gn_quality = net
            .link_between(sgsn, ggsn)
            .expect("Gn link")
            .quality_from(sgsn);
        // The busy-hour window starts once registration has settled.
        let t0_us = net.now().as_micros();
        let mut shard = Shard {
            cfg: cfg.clone(),
            net,
            events: outcome.events,
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
        };
        shard.schedule(plans, neighbor.access.cell);
        shard
    }

    /// Turns the plans and the fault windows into scheduled actions.
    fn schedule(&mut self, plans: &[SubscriberPlan], neighbor_cell: CellId) {
        let home = self.home.access.cell;
        for (local, plan) in plans.iter().enumerate() {
            for &arrival in &plan.arrivals {
                let dial = Dial {
                    local,
                    arrival,
                    attempt_no: 0,
                };
                self.push(arrival.at_ms, Action::Attempt(dial));
            }
            if let Some(e) = plan.excursion {
                let crosses = self.subs[local].cross_target.is_some();
                let out = if crosses { BORDER_CELL } else { neighbor_cell };
                self.push(e.out_ms, Action::Move { local, cell: out });
                self.push(e.back_ms, Action::Move { local, cell: home });
            }
        }
        for i in 0..self.plan.events.len() {
            let window = self.plan.events[i];
            self.push(window.at_ms, Action::FaultStart(i));
            self.push(window.at_ms + window.duration_ms, Action::FaultEnd(i));
        }
    }
}
