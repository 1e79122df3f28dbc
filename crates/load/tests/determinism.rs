//! The load engine's central promise: results are a function of the
//! configuration and the master seed, never of the machine.

use std::collections::BTreeMap;
use std::sync::{Barrier, Once};
use std::time::Duration;

use vgprs_load::{
    compile_demand, partition, run_load, run_load_with, subscriber_plan, subscriber_plan_demand,
    CallMix, DemandPlan, FaultPlanConfig, HlrDirectory, LoadConfig, LoadReport, OverloadControls,
    PopulationConfig, Registration, ScenarioConfig, Shard, ShardReport, TrunkFabric,
    TrunkFaultClass, TrunkPlanConfig, EPOCH_MS,
};
use vgprs_sim::Kernel;

mod common;

/// Everything a run may be told apart by: the run fingerprint, the
/// snapshot-stream fingerprint, the event count and the deterministic
/// report text.
fn identity(report: &LoadReport) -> (u64, u64, u64, String) {
    (
        report.fingerprint(),
        report.snapshot_fingerprint(),
        report.events,
        report.render_deterministic(),
    )
}

/// Worker counts a run is held to, whatever the host has: one (the
/// caller alone), three (an uneven split of 4, 16 or 64 shards) and
/// more workers than shards. The same workers build the shards and run
/// every epoch's blocks.
const WORKERS: [usize; 3] = [1, 3, 64];

/// The determinism contract, stated once: a family's configuration has
/// one [`identity`] on both event kernels, on a rerun and on any number
/// of workers. The reference is a run on the wheel with the host's
/// workers; the wheel rounds are its reruns, the heap round the oracle.
fn assert_invariant(family: &str, cfg: fn() -> LoadConfig) {
    let reference = identity(&run_load(&cfg()));
    for kernel in [Kernel::Wheel, Kernel::Heap] {
        let other = identity(&run_load(&LoadConfig { kernel, ..cfg() }));
        assert_eq!(reference, other, "{family} diverged on {kernel}");
    }
    for workers in WORKERS {
        let registered = Registration::Provision;
        let other = identity(&run_load_with(&cfg(), workers, registered, |_| {}));
        assert_eq!(reference, other, "{family} diverged on {workers} workers");
    }
}

/// The family table: each row is one `#[test]` holding a named
/// configuration to [`assert_invariant`].
macro_rules! invariant_families {
    ($($test:ident: $family:literal => $cfg:expr;)*) => {
        $(
            #[test]
            fn $test() {
                assert_invariant($family, $cfg);
            }
        )*
    };
}

invariant_families! {
    thread_count_does_not_change_results: "plain" => small_cfg;
    cross_shard_results_are_thread_invariant: "cross@4" => || cross_cfg(4);
    cross_shard_results_are_thread_invariant_at_16_shards: "cross@16" => || cross_cfg(16);
    // Eight subscribers a shard: flits cross about half of the busy
    // window's barriers, most of those between the blocks of an uneven
    // 3-worker split (22, 21, 21 shards).
    cross_shard_results_are_thread_invariant_at_64_shards: "cross@64" => || LoadConfig {
        subscribers: 512,
        ..cross_cfg(64)
    };
    faulted_runs_are_thread_and_kernel_invariant: "faults" => chaos_cfg;
    surged_runs_are_thread_and_kernel_invariant: "surge" => surge_cfg;
    trunk_faulted_runs_are_thread_and_kernel_invariant: "trunk" => trunk_cfg;
    snapshot_stream_is_thread_and_kernel_invariant: "snapshot" => snapshot_cfg;
    voice_trains_are_thread_and_kernel_invariant: "trains" => trains_cfg;
    armed_voice_trains_are_thread_and_kernel_invariant: "trains@trunk" => || LoadConfig {
        trunk: TrunkPlanConfig::all(1.0),
        ..trains_cfg()
    };
    // The full `dense_paging` world: one shard, so one lane whatever
    // the workers, and paging seconds the lead rule holds trains out of.
    dense_voice_trains_are_kernel_invariant: "trains@dense" => || LoadConfig {
        subscribers: 8_192,
        shards: 1,
        population: PopulationConfig {
            cross_shard_fraction: 0.1,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    };
}

/// The engine's loop before it skipped idle epochs, over the public API
/// and on one thread: every shard runs every epoch until no shard is
/// busy and nothing is in flight, or the epoch cap. It is the oracle for
/// the skip (`run_load` jumps over epochs in which no shard has work and
/// the fabric is empty), kept here rather than behind a switch.
fn every_epoch(cfg: &LoadConfig) -> LoadReport {
    let parts = partition(cfg.subscribers, cfg.effective_shards());
    let mut fleet: Vec<Shard> = parts
        .iter()
        .enumerate()
        .map(|(index, &(base, size))| {
            let shard_cfg = cfg.shard_config(index, &parts);
            let window = cfg.population.window_secs;
            let demand = compile_demand(&cfg.scenario, cfg.seed, index, window);
            let plans: Vec<_> = (0..size)
                .map(|i| subscriber_plan_demand(&cfg.population, &demand, cfg.seed, base + i))
                .collect();
            Shard::new(&shard_cfg, &plans)
        })
        .collect();
    let window = cfg.population.window_secs;
    let mut fabric = TrunkFabric::new(parts.len(), cfg.seed, &cfg.trunk, window);
    let mut directory = HlrDirectory::new(&parts);
    let mut epoch = 0;
    loop {
        let busy = fabric.in_flight() > 0 || fleet.iter().any(Shard::is_busy);
        let cap = fleet.iter().map(Shard::max_epoch_hint).max().unwrap_or(0);
        if !busy || epoch > cap {
            break;
        }
        let inboxes: Vec<_> = (0..fleet.len()).map(|index| fabric.take_inbox(index)).collect();
        let outboxes: Vec<_> = fleet
            .iter_mut()
            .zip(inboxes)
            .map(|(shard, inbox)| shard.run_epoch(epoch, inbox))
            .collect();
        for (index, outbox) in outboxes.into_iter().enumerate() {
            fabric.post(index, outbox, &mut directory);
        }
        fabric.seal((epoch + 1) * EPOCH_MS, &mut directory);
        epoch += 1;
    }
    let mut reports: Vec<ShardReport> = fleet.into_iter().map(Shard::finish).collect();
    reports[0]
        .stats
        .count_by("load.hlr_relocations", directory.relocations());
    if fabric.armed() {
        reports[0].stats.merge(fabric.stats());
    }
    LoadReport::merge(cfg.subscribers, 1, cfg.snapshot_secs, &reports, Duration::ZERO)
}

/// Skipping idle epochs moves nothing: `run_load` has the identity of
/// the every-epoch loop on the plain, the 64-shard cross, the armed
/// trunk, the snapshot and the voice-train families. In the `heal` row a partition heals
/// while no shard has work, so a skip that ran past the heal's barrier
/// would deliver its notices late.
#[test]
fn skipping_idle_epochs_matches_the_every_epoch_loop() {
    let rows = [
        ("plain", small_cfg as fn() -> LoadConfig),
        ("cross@64", || LoadConfig {
            subscribers: 512,
            ..cross_cfg(64)
        }),
        ("trunk", trunk_cfg),
        ("snapshot", snapshot_cfg),
        ("trains", trains_cfg),
        ("heal", || LoadConfig {
            seed: 11,
            trunk: TrunkPlanConfig::only(TrunkFaultClass::Partition, 1.0),
            ..cross_cfg(4)
        }),
    ];
    for (family, cfg) in rows {
        assert_eq!(
            identity(&run_load(&cfg())),
            identity(&every_epoch(&cfg())),
            "{family}: the skipping engine left the every-epoch loop"
        );
    }
}

/// A report outside the kernel's `sim.*` census and the event count:
/// every other counter and histogram, and the simulated span.
fn outside_the_kernel(report: &LoadReport) -> (BTreeMap<String, String>, f64) {
    (common::outside_the_kernel(&report.stats, &[]), report.sim_secs)
}

/// Rule (iv) for the provisioned start: the pinned families built on
/// the registration ladder (`Registration::Replay`, the oracle) — every
/// shard, their flits, HLR moves and armed guards included — report
/// what the provisioned build reports, outside what only the ladder's
/// own events can move: the kernel's census and the event count. Shard
/// by shard, node by node, the contract is `tests/provision.rs`.
#[test]
fn families_on_the_registration_ladder_match_the_provisioned_start() {
    let rows = [
        ("trunk", trunk_cfg as fn() -> LoadConfig),
        ("faults", chaos_cfg),
        ("surge", surge_cfg),
        ("defaults", defaults_cfg),
    ];
    for (family, cfg) in rows {
        let provisioned = run_load(&cfg());
        let ladder = run_load_with(&cfg(), 3, Registration::Replay { trace: false }, |_| {});
        assert!(ladder.events > provisioned.events, "{family}: the ladder ran");
        assert_eq!(
            outside_the_kernel(&provisioned),
            outside_the_kernel(&ladder),
            "{family}: the provisioned start left the ladder's world"
        );
    }
}

/// A panic in a helper's build reaches the caller with its own message,
/// not as a bare join error. The caller's first build waits at a barrier
/// for the helper's, so the helper surely builds a shard and panics.
#[test]
#[should_panic(expected = "a helper's build failed")]
fn a_build_workers_panic_keeps_its_message() {
    let caller = std::thread::current().id();
    let (met, first) = (Barrier::new(2), Once::new());
    run_load_with(&small_cfg(), 2, Registration::Provision, |_| {
        if std::thread::current().id() == caller {
            first.call_once(|| {
                met.wait();
            });
        } else {
            met.wait();
            panic!("a helper's build failed");
        }
    });
}

/// `LoadConfig::threads` is accepted and ignored: the run is the same
/// one, and the report says one thread.
#[test]
fn threads_field_is_inert() {
    let plain = run_load(&small_cfg());
    let asked = run_load(&LoadConfig {
        threads: 8,
        ..small_cfg()
    });
    assert_eq!(identity(&plain), identity(&asked));
    assert_eq!((plain.threads, asked.threads), (1, 1));
}

fn small_cfg() -> LoadConfig {
    LoadConfig {
        subscribers: 96,
        shards: 4,
        seed: 0xD15EA5E,
        population: PopulationConfig {
            calls_per_sub_hour: 40.0,
            mean_hold_secs: 20.0,
            window_secs: 90,
            mix: CallMix {
                mo: 0.4,
                mt: 0.4,
                m2m: 0.2,
            },
            mobility_fraction: 0.15,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    }
}

/// Voice in trains: the `voice_media` shape (16 calls an hour, 2.4 s of
/// voice each, a tenth of the movers crossing shards) in four shards.
/// Every family sends its voice in trains where its world allows; this
/// one is mostly voice.
fn trains_cfg() -> LoadConfig {
    LoadConfig {
        subscribers: 384,
        shards: 4,
        voice_sample_ms: 2_400,
        population: PopulationConfig {
            calls_per_sub_hour: 16.0,
            cross_shard_fraction: 0.1,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    }
}

/// The `trains` family is the world it is meant to be: most of its
/// frames ride trains.
#[test]
fn the_trains_family_sends_trains() {
    let stats = run_load(&trains_cfg()).stats;
    let sent = stats.counter("ms.voice_frames_sent") + stats.counter("term.rtp_sent");
    let carried = stats.counter("sim.voice.train_frames");
    assert!(carried > 4 * (sent - carried), "{carried} of {sent} frames in trains");
}

/// Two runs of one configuration agree with each other.
#[test]
fn reruns_are_identical() {
    assert_eq!(identity(&run_load(&small_cfg())), identity(&run_load(&small_cfg())));
}

/// A different master seed must actually change something.
#[test]
fn seed_changes_results() {
    let a = run_load(&small_cfg());
    let mut cfg = small_cfg();
    cfg.seed ^= 1;
    let b = run_load(&cfg);
    assert_ne!(a.fingerprint(), b.fingerprint(), "seed had no effect");
}

/// A subscriber's arrival stream depends on its global index only:
/// partitioning the same population into 2 or 4 shards hands every
/// subscriber exactly the same plan.
#[test]
fn shard_count_does_not_change_subscriber_plans() {
    let pop = PopulationConfig {
        calls_per_sub_hour: 25.0,
        window_secs: 300,
        mobility_fraction: 0.3,
        ..PopulationConfig::default()
    };
    let seed = 99;
    let subscribers = 64;
    let collect = |shards: usize| {
        let mut plans = Vec::new();
        for (base, size) in partition(subscribers, shards) {
            for i in 0..size {
                plans.push(subscriber_plan(&pop, seed, base + i));
            }
        }
        plans
    };
    let two = collect(2);
    let four = collect(4);
    assert_eq!(two.len(), four.len());
    for (a, b) in two.iter().zip(&four) {
        assert_eq!(a.global_index, b.global_index);
        assert_eq!(a.arrivals.len(), b.arrivals.len());
        for (x, y) in a.arrivals.iter().zip(&b.arrivals) {
            assert_eq!((x.at_ms, x.kind, x.hold_ms, x.peer_draw),
                       (y.at_ms, y.kind, y.hold_ms, y.peer_draw));
        }
        assert_eq!(
            a.excursion.map(|e| (e.out_ms, e.back_ms)),
            b.excursion.map(|e| (e.out_ms, e.back_ms)),
        );
    }
}

/// A population with cross-shard excursions enabled: subscribers leave
/// their home shard mid-call (inter-VMSC handoff over the mailbox) and
/// while idle (HLR ownership transfer).
fn cross_cfg(shards: usize) -> LoadConfig {
    LoadConfig {
        subscribers: 96,
        shards,
        seed: 0xD15EA5E,
        population: PopulationConfig {
            calls_per_sub_hour: 40.0,
            mean_hold_secs: 25.0,
            window_secs: 90,
            mix: CallMix {
                mo: 0.4,
                mt: 0.4,
                m2m: 0.2,
            },
            mobility_fraction: 0.15,
            cross_shard_fraction: 0.35,
        },
        ..LoadConfig::default()
    }
}

/// The cross-shard machinery must actually fire: the cross families are only
/// meaningful if the mailbox carried real handoffs and HLR moves.
#[test]
fn cross_shard_traffic_actually_flows() {
    let r = run_load(&cross_cfg(4));
    assert!(
        r.handoff_attempts() > 0,
        "no inter-VMSC handoffs attempted:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.handoff_successes() > 0,
        "no handoff completed the Figure 9 ladder:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.kpi("handoff_interruption_ms.count") > 0.0,
        "no interruption-time samples (downlink never resumed):\n{}",
        r.render_deterministic()
    );
    assert!(
        r.hlr_relocations() > 0,
        "no idle-mode HLR ownership moves:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.stats.counter("load.visitors_hosted") > 0,
        "no shard ever hosted a visitor:\n{}",
        r.render_deterministic()
    );
}

/// The same with flits crossing the epoch barrier.
#[test]
fn cross_shard_reruns_are_identical() {
    assert_eq!(identity(&run_load(&cross_cfg(4))), identity(&run_load(&cross_cfg(4))));
}

fn chaos_cfg() -> LoadConfig {
    LoadConfig {
        faults: FaultPlanConfig::all(1.0),
        ..small_cfg()
    }
}

/// A zero-intensity fault config compiles to an empty plan, which must
/// leave the run byte-identical to one that never heard of faults.
#[test]
fn zero_intensity_faults_change_nothing() {
    let plain = run_load(&small_cfg());
    let zero = run_load(&LoadConfig {
        faults: FaultPlanConfig::all(0.0),
        ..small_cfg()
    });
    assert_eq!(identity(&plain), identity(&zero));
}

/// The chaos configuration must actually hurt — and the recovery
/// machinery must actually recover.
#[test]
fn faults_bite_and_recovery_runs() {
    let r = run_load(&chaos_cfg());
    assert!(
        r.kpi("resilience.faults_injected") > 0.0,
        "no impairment windows opened:\n{}",
        r.render_deterministic()
    );
    let retries = r.kpi("resilience.ras_retries+resilience.arq_retries");
    let dropped = r.kpi(
        "resilience.dropped_link_degrade+resilience.dropped_node_crash\
         +resilience.dropped_blackhole",
    );
    assert!(
        dropped > 0.0 || retries > 0.0,
        "faults were injected but nothing dropped or retried:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.kpi("resilience.redial_attempts") > 0.0,
        "no caller ever redialed:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.kpi("resilience.recovery_ms.count") > 0.0,
        "recovery-time histogram is empty:\n{}",
        r.render_deterministic()
    );
}

/// The busy hour must exercise every KPI the report advertises.
#[test]
fn kpis_are_populated() {
    let r = run_load(&small_cfg());
    assert_eq!(r.stats.counter("load.registered"), 96);
    assert!(r.attempts() > 0, "no call attempts generated");
    assert!(r.stats.counter("ms.calls_connected") > 0, "no calls connected");
    assert!(r.setup_delay().count() > 0, "no setup-delay samples");
    assert!(r.kpi("paging_delay_ms.count") > 0.0, "no paging samples (MT mix is 40%)");
    assert!(r.kpi("pdp_activation_ms.count") > 0.0, "no voice-PDP samples");
    assert!(r.kpi("voice_delay_ms.count") > 0.0, "no RTP samples");
    let mos = r.mos();
    assert!((1.0..=4.6).contains(&mos), "implausible MOS {mos}");
    assert!(r.stats.counter("load.moves") > 0, "mobility never fired");
    assert!(r.events > 0 && r.sim_secs > 0.0);
}

// ---- demand plans and overload controls ----

fn surge_cfg() -> LoadConfig {
    LoadConfig {
        scenario: ScenarioConfig::flash(10.0),
        controls: OverloadControls {
            paging_rate_per_s: 2,
            gk_shed_utilization: 0.5,
            pdp_rate_per_s: 2,
        },
        gk_bandwidth: 1_280,
        ..small_cfg()
    }
}

/// A zero-shock demand plan with the controls off must reproduce the
/// flat busy hour exactly — the scenario machinery may not spend a
/// single RNG draw or reorder a single event when it has nothing to do.
#[test]
fn zero_shock_plan_reproduces_flat_run() {
    let flat = run_load(&small_cfg());
    let zero = run_load(&LoadConfig {
        scenario: ScenarioConfig::flash(0.0),
        ..small_cfg()
    });
    assert_eq!(identity(&flat), identity(&zero));
}

/// The flat-plan fast path of `subscriber_plan_demand` is byte-for-byte
/// the historical generator, for every subscriber.
#[test]
fn flat_demand_plans_delegate_exactly() {
    let cfg = small_cfg().population;
    let flat = DemandPlan::default();
    for g in 0..96 {
        assert_eq!(
            subscriber_plan(&cfg, 0xD15EA5E, g),
            subscriber_plan_demand(&cfg, &flat, 0xD15EA5E, g),
            "subscriber {g} diverged under the flat demand plan"
        );
    }
}

/// Overload-control interventions grow with shock intensity: a stronger
/// flash crowd can only trip the throttles more, never less. Compared
/// across shocked runs only — a flat run's steady-state throttling
/// noise is not attributable to any shock.
#[test]
fn overload_kpis_monotone_in_intensity() {
    let mut last = None;
    for intensity in [4.0, 10.0, 25.0] {
        let r = run_load(&LoadConfig {
            scenario: ScenarioConfig::flash(intensity),
            ..surge_cfg()
        });
        assert!(
            r.kpi("overload.attempts_peak") > 0.0,
            "the {intensity}x shock never produced peak attempts:\n{}",
            r.render_deterministic()
        );
        let interventions = r.kpi(
            "overload.pages_throttled+overload.pages_shed+overload.gk_admission_shed\
             +overload.pdp_deferred+overload.pdp_rejected",
        );
        if let Some(prev) = last {
            assert!(
                interventions >= prev,
                "interventions fell from {prev} to {interventions} at {intensity}x"
            );
        }
        last = Some(interventions);
    }
    assert!(
        last.unwrap() > 0.0,
        "the strongest shock never tripped a single overload control"
    );
}

// ---- inter-shard trunk chaos ----

/// The cross-shard workload under the full trunk fault plan: envelope
/// loss, duplication, reordering and partitions on every shard pair.
fn trunk_cfg() -> LoadConfig {
    LoadConfig {
        trunk: TrunkPlanConfig::all(1.0),
        ..cross_cfg(4)
    }
}

/// The small world at the harness's defaults: 96 subscribers in 4 shards
/// over a 90 s window, seed 42, the default call mix and mobility.
fn defaults_cfg() -> LoadConfig {
    LoadConfig {
        subscribers: 96,
        shards: 4,
        population: PopulationConfig {
            calls_per_sub_hour: 40.0,
            mean_hold_secs: 20.0,
            window_secs: 90,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    }
}

/// The armed runs, pinned. The invariance tests above compare a run with
/// itself, so a change that moves every side at once would pass: the
/// fabric's delivery order (heal push order, retransmit scan order,
/// release order) under `trunk`, the recovery guards (which timers are
/// set, cancelled or forgotten) under `faults`, the throttles' windows
/// and queues under `surge`. These values move only when the simulated
/// world does, and then on purpose — last when shards started with
/// their population registered instead of running its ladders, which
/// moved only the kernel's census and the event count (the registration
/// oracle still reproduces the identities pinned before, and
/// `families_on_the_registration_ladder_match_the_provisioned_start`
/// holds the rest of every row to it). The `defaults` row is unarmed: the small world at the harness's
/// defaults, which a refactor of the driver, the KPI table or the merge
/// must leave exactly as it is. Its voice and the `trunk` row's ride
/// trains (the trunk's only for the calls no casualty can reach; the
/// other armed worlds send every frame on its own), so each moved when
/// its voice began to, in the kernel's census and the event count
/// alone; frame by frame each keeps the identity pinned before.
#[test]
fn armed_run_identity_is_pinned() {
    let rows = [
        ("trunk", trunk_cfg as fn() -> LoadConfig, "4ebd6f58f74152ee 52cbbf24b40522f6 18747"),
        ("faults", chaos_cfg, "2d9df63a108c1f25 ebce64574029ed89 49099"),
        ("surge", surge_cfg, "a528a72c11416bb7 d2122262e2d8c030 35218"),
        ("defaults", defaults_cfg, "ba9db7c05ddf056e 5cc032a318e3e95e 10021"),
    ];
    let pinned_identity = |report: &LoadReport| {
        format!(
            "{:016x} {:016x} {}",
            report.fingerprint(),
            report.snapshot_fingerprint(),
            report.events
        )
    };
    for (family, cfg, pinned) in rows {
        let report = run_load(&cfg());
        assert_eq!(
            pinned_identity(&report),
            pinned,
            "armed {family} run drifted from the pinned identity"
        );
    }
    let per_frame = [
        ("defaults", defaults_cfg as fn() -> LoadConfig, "3b31082dbe7220ab 5cc032a318e3e95e 38572"),
        ("trunk", trunk_cfg, "727416fecdf0a751 52cbbf24b40522f6 51328"),
    ];
    for (family, cfg, pinned) in per_frame {
        let report = run_load_with(&cfg(), 1, Registration::Provision, |shard| {
            shard.set_voice_trains(false)
        });
        assert_eq!(
            pinned_identity(&report),
            pinned,
            "the {family} run, frame by frame, drifted from its pinned identity"
        );
    }
}

/// Table order is a function of the hash; outputs may not be. The
/// default hasher used to reshuffle every table on every run and so held
/// this for free. With one fixed hasher the salt does it on purpose:
/// three salts, four worlds, one identity each. The salted worlds are
/// built on three workers, so the helpers' tables must take the
/// caller's salt too.
#[test]
fn table_order_never_reaches_the_outputs() {
    let rows = [
        ("plain", small_cfg as fn() -> LoadConfig),
        ("trunk", trunk_cfg),
        ("faults", chaos_cfg),
        ("surge", surge_cfg),
    ];
    for (family, cfg) in rows {
        let reference = identity(&run_load(&cfg()));
        for salt in [0x9E37_79B9_7F4A_7C15, 0xDEAD_BEEF] {
            vgprs_sim::set_salt(salt);
            let salted = identity(&run_load_with(&cfg(), 3, Registration::Provision, |_| {}));
            vgprs_sim::set_salt(0);
            assert_eq!(reference, salted, "{family} depends on table order (salt {salt:#x})");
        }
    }
}

/// A zero-intensity trunk plan compiles to no windows, and the fabric
/// must then be byte-transparent: same fingerprint as a run that never
/// heard of trunk faults.
#[test]
fn zero_intensity_trunk_plan_changes_nothing() {
    let plain = run_load(&cross_cfg(4));
    let zero = run_load(&LoadConfig {
        trunk: TrunkPlanConfig::all(0.0),
        ..cross_cfg(4)
    });
    assert_eq!(identity(&plain), identity(&zero));
}

/// The trunk chaos must actually hurt — and the reliable-delivery
/// machinery must actually absorb it.
#[test]
fn trunk_chaos_bites_and_recovery_runs() {
    let r = run_load(&trunk_cfg());
    assert!(
        r.trunk_retransmits() > 0,
        "no trunk flit was ever retransmitted:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.kpi("trunk.drops_loss+trunk.drops_partition") > 0.0,
        "the fault plan never swallowed a transmission:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.trunk_dup_drops() > 0,
        "duplicates were injected but none suppressed:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.kpi("trunk.reorder_depth.count") > 0.0,
        "no out-of-order arrival was ever buffered:\n{}",
        r.render_deterministic()
    );
}

/// Per-class graceful degradation at run level: raising one trunk class
/// from intensity 0.3 to 1.0 never shrinks that class's own damage
/// counter (the plans are prefix-supersets by construction; this catches
/// a regression of that), and at 1.0 the class does bite.
#[test]
fn trunk_damage_is_monotone_in_intensity() {
    for class in TrunkFaultClass::ALL {
        let counter = match class {
            TrunkFaultClass::Loss => "trunk.drops_loss",
            TrunkFaultClass::Dup => "trunk.dup_injected",
            TrunkFaultClass::Reorder => "trunk.reordered",
            TrunkFaultClass::Partition => "trunk.drops_partition",
        };
        let damage = |intensity: f64| {
            run_load(&LoadConfig {
                trunk: TrunkPlanConfig::only(class, intensity),
                ..cross_cfg(4)
            })
            .kpi(counter)
        };
        let (low, high) = (damage(0.3), damage(1.0));
        assert!(
            low <= high,
            "{counter} fell from {low} to {high} as {} intensity rose",
            class.key()
        );
        assert!(high > 0.0, "{} at full intensity never bit", class.key());
    }
}

/// Healed-partition convergence: under partition-only chaos, every
/// subscriber stranded by a torn trunk is re-routed to its home anchor
/// once the partition heals, and the heal-to-recovery delay is sampled.
#[test]
fn healed_partition_converges() {
    let r = run_load(&LoadConfig {
        trunk: TrunkPlanConfig::only(TrunkFaultClass::Partition, 1.0),
        ..cross_cfg(4)
    });
    assert!(
        r.kpi("trunk.drops_partition") > 0.0,
        "no transmission ever hit a partition window:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.kpi("trunk.heals") > 0.0,
        "no partition window ever healed:\n{}",
        r.render_deterministic()
    );
    if r.kpi("trunk.handoff_drops") > 0.0 {
        assert!(
            r.kpi("trunk.reroutes") > 0.0,
            "handoffs were torn down but nobody was re-routed on heal:\n{}",
            r.render_deterministic()
        );
        assert_eq!(
            r.kpi("trunk.heal_recovery_ms.count"),
            r.kpi("trunk.reroutes"),
            "every re-route must sample one heal-to-recovery delay:\n{}",
            r.render_deterministic()
        );
    }
}

/// Reorder-only chaos delays transmissions but the receive window's
/// in-order release must hide it completely from the shards: no
/// casualties, no teardowns — only buffered depth samples.
#[test]
fn reordered_flits_never_violate_fifo() {
    let r = run_load(&LoadConfig {
        trunk: TrunkPlanConfig::only(TrunkFaultClass::Reorder, 1.0),
        ..cross_cfg(4)
    });
    assert!(
        r.kpi("trunk.reordered") > 0.0,
        "the reorder plan never delayed a transmission:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.kpi("trunk.reorder_depth.count") > 0.0,
        "reordered flits never arrived ahead of sequence:\n{}",
        r.render_deterministic()
    );
    assert_eq!(
        r.trunk_expired(),
        0,
        "pure reordering must never exhaust a retransmission budget:\n{}",
        r.render_deterministic()
    );
    assert_eq!(
        r.kpi("trunk.handoff_drops"),
        0.0,
        "pure reordering must never tear a handoff down:\n{}",
        r.render_deterministic()
    );
}

// ---- KPI time-series snapshots ----

/// The small workload sampled every 30 simulated seconds, so the 90 s
/// window yields several frames plus a drain-phase tail.
fn snapshot_cfg() -> LoadConfig {
    LoadConfig {
        snapshot_secs: 30,
        ..small_cfg()
    }
}

/// The synthesized aggregate frame must agree with the end-of-run
/// summary KPIs *exactly* — bit-equal floats, not approximately — since
/// both are computed from the same merged stats.
#[test]
fn snapshot_aggregate_equals_summary_kpis() {
    let r = run_load(&snapshot_cfg());
    let agg = r.snapshot_aggregate();
    for kpi in [
        "attempts",
        "blocking_rate",
        "reject_rate",
        "frame_loss",
        "mos",
        "setup_delay_ms.count",
        "setup_delay_ms.p50",
        "setup_delay_ms.p99",
        "voice_delay_ms.mean",
        "handoff_interruption_ms.count",
        "handoff_interruption_ms.p99",
    ] {
        assert_eq!(
            vgprs_load::kpi::value(&agg, kpi).to_bits(),
            r.kpi(kpi).to_bits(),
            "{kpi} diverged between the aggregate frame and the summary"
        );
    }
}

/// Frames are cumulative: every counter is non-decreasing along the
/// stream, frame times advance on the nominal cadence grid, and the
/// last frame never exceeds the aggregate.
#[test]
fn snapshot_frames_are_monotone_cumulative() {
    let r = run_load(&snapshot_cfg());
    assert!(
        r.snapshots.len() >= 3,
        "90 s at a 30 s cadence must yield at least 3 frames, got {}",
        r.snapshots.len()
    );
    let mut prev: Option<&vgprs_load::SnapshotFrame> = None;
    for frame in &r.snapshots {
        assert_eq!(frame.at_ms % 30_000, 0, "off-grid frame at {} ms", frame.at_ms);
        if let Some(p) = prev {
            assert!(p.at_ms < frame.at_ms, "frame times must strictly increase");
            for (i, name) in vgprs_load::SNAPSHOT_COUNTERS.iter().enumerate() {
                assert!(
                    p.counters[i] <= frame.counters[i],
                    "{name} fell from {} to {} at {} ms",
                    p.counters[i],
                    frame.counters[i],
                    frame.at_ms
                );
            }
        }
        prev = Some(frame);
    }
    let last = r.snapshots.last().expect("at least one frame");
    let agg = r.snapshot_aggregate();
    for (i, name) in vgprs_load::SNAPSHOT_COUNTERS.iter().enumerate() {
        assert!(
            last.counters[i] <= agg.counters[i],
            "{name}: last frame {} exceeds aggregate {}",
            last.counters[i],
            agg.counters[i]
        );
    }
}

/// Snapshot sampling is read-only: turning it off (or changing its
/// cadence) must not move a single bit of the simulation itself.
#[test]
fn snapshot_cadence_does_not_perturb_the_run() {
    let off = run_load(&LoadConfig {
        snapshot_secs: 0,
        ..small_cfg()
    });
    assert!(off.snapshots.is_empty(), "cadence 0 must disable sampling");
    let on = run_load(&snapshot_cfg());
    assert_eq!(off.fingerprint(), on.fingerprint());
    assert_eq!(off.render_deterministic(), on.render_deterministic());
}
