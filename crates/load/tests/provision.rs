//! The provisioned start against the ladder it replaces.
//!
//! [`Shard::new`] writes what every handset's Figure 4 ladder and every
//! terminal's RRQ leave behind (`VgprsZone::provision_registered`);
//! [`Registration::Replay`] powers the handsets on and runs the ladders,
//! the way every shard started before. This file holds the two to one
//! start — every register row and ID counter of every node, the random
//! stream, t0 and the registered count — and then to one busy hour, and
//! checks Figure 4 itself on the oracle at population scale.

use vgprs_core::{Vmsc, FIGURE_4};
use vgprs_gprs::{Ggsn, IpRouter, Sgsn};
use vgprs_gsm::{Bsc, Bts, Hlr, MobileStation, Vlr};
use vgprs_h323::{Gatekeeper, H323Terminal};
use vgprs_load::{
    compile_demand, partition, subscriber_plan_demand, FaultPlanConfig, LoadConfig,
    OverloadControls, PopulationConfig, RadioGate, Registration, ScenarioConfig, Shard,
    ShardReport, TrunkGate, TrunkPlanConfig, SNAPSHOT_COUNTERS,
};
use vgprs_sim::{Kernel, Network, NodeId, TraceEntry};
use vgprs_wire::Message;

mod common;

/// Report fields the two starts may disagree on, besides the event
/// count and the kernel's own `sim.*` census of the ladder's events,
/// which a provisioned start never queues. Empty: every counter and
/// histogram a node keeps is the ladder's.
const EXEMPT: [&str; 0] = [];

/// One of the benchmark's four worlds (`benchmark/src/workloads.rs`,
/// seed 42), or one of three small armed ones over four shards: the
/// trunk fabric at full chaos, every fault class (the VMSC's recovery
/// guards arm, so each registration leaves a cancelled guard), and a
/// flash crowd under every overload control.
fn world(name: &str) -> LoadConfig {
    let benchmark = |subscribers, shards, cross, calls, voice_sample_ms| {
        let mut cfg = LoadConfig {
            subscribers,
            shards,
            voice_sample_ms,
            kernel: Kernel::Wheel,
            ..LoadConfig::default()
        };
        cfg.population.window_secs = 60;
        cfg.population.cross_shard_fraction = cross;
        cfg.population.calls_per_sub_hour = calls;
        cfg
    };
    let small = LoadConfig {
        subscribers: 96,
        shards: 4,
        seed: 0xD15EA5E,
        population: PopulationConfig {
            calls_per_sub_hour: 40.0,
            mean_hold_secs: 25.0,
            window_secs: 90,
            mobility_fraction: 0.15,
            cross_shard_fraction: 0.35,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    };
    match name {
        "busy_hour" => benchmark(16_384, 0, 0.1, 4.0, 1_000),
        "dense_paging" => benchmark(8_192, 1, 0.1, 4.0, 1_000),
        "voice_media" => benchmark(6_144, 0, 0.1, 16.0, 2_400),
        "trunk_chaos" => LoadConfig {
            trunk: TrunkPlanConfig::all(1.0),
            ..benchmark(8_192, 64, 0.35, 4.0, 1_000)
        },
        "trunk" => LoadConfig {
            trunk: TrunkPlanConfig::all(1.0),
            ..small
        },
        "faults" => LoadConfig {
            faults: FaultPlanConfig::all(1.0),
            ..small
        },
        "surge" => LoadConfig {
            scenario: ScenarioConfig::flash(10.0),
            controls: OverloadControls {
                paging_rate_per_s: 2,
                gk_shed_utilization: 0.5,
                pdp_rate_per_s: 2,
            },
            gk_bandwidth: 1_280,
            ..small
        },
        other => panic!("no world {other}"),
    }
}

/// Shard 0 of `cfg`, built as the engine builds it and registered as
/// `registration` says.
fn shard0(cfg: &LoadConfig, registration: Registration) -> Shard {
    let parts = partition(cfg.subscribers, cfg.effective_shards());
    let (base, size) = parts[0];
    let shard_cfg = cfg.shard_config(0, &parts);
    let window = cfg.population.window_secs;
    let demand = compile_demand(&cfg.scenario, cfg.seed, 0, window);
    let plans: Vec<_> = (0..size)
        .map(|i| subscriber_plan_demand(&cfg.population, &demand, cfg.seed, base + i))
        .collect();
    Shard::build(&shard_cfg, &plans, registration)
}

/// A node's whole state: its register rows, ID counters, throttles and
/// timer bookkeeping, by way of its `Debug`.
fn node_state(net: &Network<Message>, id: NodeId) -> String {
    macro_rules! first_of {
        ($($node:ty),*) => {
            $(if let Some(node) = net.node::<$node>(id) {
                return format!("{node:?}");
            })*
        };
    }
    first_of!(
        Hlr,
        Vlr,
        Vmsc,
        Bsc,
        Bts,
        Sgsn,
        Ggsn,
        IpRouter,
        Gatekeeper,
        MobileStation,
        H323Terminal,
        TrunkGate,
        RadioGate
    );
    panic!(
        "node {} is of a kind this test does not read",
        net.node_name(id)
    )
}

/// Where a built shard starts: the clock, the random stream and every
/// node's state, by node.
fn start(shard: &Shard) -> (u64, String, Vec<(String, String)>) {
    let net = shard.network();
    let nodes = net
        .node_ids()
        .map(|id| (net.node_name(id).to_owned(), node_state(net, id)))
        .collect();
    (net.now().as_micros(), format!("{:?}", net.rng()), nodes)
}

/// Runs a lone shard through its busy hour, every epoch, with nothing
/// arriving from other shards (so both starts see the same inboxes).
fn run(mut shard: Shard) -> ShardReport {
    let cap = shard.max_epoch_hint();
    let mut epoch = 0;
    while shard.is_busy() && epoch <= cap {
        shard.run_epoch(epoch, Vec::new());
        epoch += 1;
    }
    shard.finish()
}

/// What a report says outside the exempt fields: registered, the end
/// of simulated time, the settled statistics and every snapshot frame.
fn outcome(report: &ShardReport) -> String {
    let frames: Vec<Vec<(&str, u64)>> = report
        .snapshots
        .iter()
        .map(|frame| {
            SNAPSHOT_COUNTERS
                .iter()
                .zip(&frame.counters)
                .filter(|(name, _)| !common::is_exempt(name, &EXEMPT))
                .map(|(name, &value)| (name.as_str(), value))
                .collect()
        })
        .collect();
    format!(
        "registered {} until {:?}\n{:#?}\n{frames:?}",
        report.stats.counter("load.registered"),
        report.sim_end,
        common::outside_the_kernel(&report.stats, &EXEMPT)
    )
}

/// The contract: both starts of shard 0 of `name` agree node for node,
/// then run one busy hour.
fn provisioned_start_matches_the_ladder(name: &str) {
    let cfg = world(name);
    let provisioned = shard0(&cfg, Registration::Provision);
    let replayed = shard0(&cfg, Registration::Replay { trace: false });
    let (t0, rng, nodes) = start(&provisioned);
    let (ladder_t0, ladder_rng, ladder_nodes) = start(&replayed);
    assert_eq!(t0, ladder_t0, "{name}: t0");
    assert_eq!(rng, ladder_rng, "{name}: the random stream");
    assert_eq!(nodes.len(), ladder_nodes.len());
    for ((node, state), (_, ladder_state)) in nodes.iter().zip(&ladder_nodes) {
        assert_eq!(state, ladder_state, "{name}: {node} starts elsewhere");
    }
    let (report, ladder_report) = (run(provisioned), run(replayed));
    let registered = report.stats.counter("load.registered");
    assert!(registered > 0, "{name}: nobody registered");
    assert!(
        ladder_report.events > report.events,
        "{name}: the ladder's events"
    );
    assert_eq!(
        outcome(&report),
        outcome(&ladder_report),
        "{name}: the busy hour"
    );
}

macro_rules! worlds {
    ($($test:ident: $name:literal;)*) => {
        $(
            #[test]
            fn $test() {
                provisioned_start_matches_the_ladder($name);
            }
        )*
    };
}

worlds! {
    busy_hour_starts_where_the_ladder_leaves_it: "busy_hour";
    dense_paging_starts_where_the_ladder_leaves_it: "dense_paging";
    voice_media_starts_where_the_ladder_leaves_it: "voice_media";
    trunk_chaos_starts_where_the_ladder_leaves_it: "trunk_chaos";
    armed_trunk_starts_where_the_ladder_leaves_it: "trunk";
    armed_faults_start_where_the_ladder_leaves_them: "faults";
    surge_starts_where_the_ladder_leaves_it: "surge";
}

/// Figure 4 at scale (ROADMAP item 10): on the oracle, with the trace
/// captured, the first and the last handset of `busy_hour`'s shard 0
/// each run the paper's steps 1.1–1.6 in order. A handset's messages are
/// the ones it sends or receives and the ones naming its IMSI, MSISDN or
/// radio connection.
#[test]
fn figure_4_holds_for_the_first_and_the_last_handset() {
    let shard = shard0(&world("busy_hour"), Registration::Replay { trace: true });
    let net = shard.network();
    let vmsc = net
        .node_ids()
        .find(|&id| net.node::<Vmsc>(id).is_some())
        .expect("a VMSC");
    let handsets: Vec<NodeId> = (net.node_ids())
        .filter(|&id| net.node::<MobileStation>(id).is_some())
        .collect();
    assert_eq!(handsets.len(), 256);
    for ms in [handsets[0], handsets[handsets.len() - 1]] {
        let imsi = net.node::<MobileStation>(ms).expect("an MS").imsi();
        let entry = net
            .node::<Vmsc>(vmsc)
            .expect("home VMSC")
            .ms_entry(&imsi)
            .expect("a row");
        let (_, _, conn) = entry.state();
        let names = [
            format!("{imsi:?}"),
            format!("{:?}", entry.msisdn.expect("an alias")),
            format!("{:?}", conn.expect("a connection")),
        ];
        let labels: Vec<&str> = (net.trace().entries().iter())
            .filter_map(|entry| match entry {
                TraceEntry::Message {
                    from,
                    to,
                    label,
                    detail,
                    ..
                } if *from == ms || *to == ms || names.iter().any(|n| detail.contains(n)) => {
                    Some(label.as_str())
                }
                _ => None,
            })
            .collect();
        let conformance = FIGURE_4.follow(labels.iter().copied());
        assert!(
            conformance.holds(),
            "{}: {conformance}; its messages: {labels:?}",
            net.node_name(ms)
        );
    }
}
