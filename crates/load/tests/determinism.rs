//! The load engine's central promise: results are a function of the
//! configuration and the master seed, never of the machine.

use vgprs_load::{
    partition, run_load, subscriber_plan, subscriber_plan_demand, CallMix, DemandPlan,
    FaultPlanConfig, LoadConfig, OverloadControls, PopulationConfig, ScenarioConfig,
    TrunkFaultClass, TrunkPlanConfig,
};
use vgprs_sim::Kernel;

fn small_cfg(threads: usize) -> LoadConfig {
    LoadConfig {
        subscribers: 96,
        shards: 4,
        threads,
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

/// Same master seed, 1 vs 2 vs 8 worker threads: the merged KPI report
/// and its fingerprint are bit-identical.
#[test]
fn thread_count_does_not_change_results() {
    let base = run_load(&small_cfg(1));
    for threads in [2, 8] {
        let other = run_load(&small_cfg(threads));
        assert_eq!(
            base.render_deterministic(),
            other.render_deterministic(),
            "KPI text diverged between 1 and {threads} threads"
        );
        assert_eq!(
            base.fingerprint(),
            other.fingerprint(),
            "fingerprint diverged between 1 and {threads} threads"
        );
    }
}

/// Same configuration twice: identical down to the fingerprint.
#[test]
fn reruns_are_identical() {
    let a = run_load(&small_cfg(2));
    let b = run_load(&small_cfg(2));
    assert_eq!(a.render_deterministic(), b.render_deterministic());
    assert_eq!(a.fingerprint(), b.fingerprint());
}

/// A different master seed must actually change something.
#[test]
fn seed_changes_results() {
    let a = run_load(&small_cfg(2));
    let mut cfg = small_cfg(2);
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
fn cross_cfg(threads: usize, shards: usize) -> LoadConfig {
    LoadConfig {
        subscribers: 96,
        shards,
        threads,
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
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    }
}

/// The tentpole property: with inter-shard traffic flowing — handoff
/// MAP dialogues, rerouted trunk voice, HLR relocations — the merged
/// report is still bit-identical for every worker-thread count, at
/// more than one shard count.
#[test]
fn cross_shard_results_are_thread_invariant() {
    for shards in [4, 16] {
        let base = run_load(&cross_cfg(1, shards));
        for threads in [2, 8] {
            let other = run_load(&cross_cfg(threads, shards));
            assert_eq!(
                base.render_deterministic(),
                other.render_deterministic(),
                "KPI text diverged between 1 and {threads} threads at {shards} shards"
            );
            assert_eq!(
                base.fingerprint(),
                other.fingerprint(),
                "fingerprint diverged between 1 and {threads} threads at {shards} shards"
            );
        }
    }
}

/// The cross-shard machinery must actually fire: the run above is only
/// meaningful if the mailbox carried real handoffs and HLR moves.
#[test]
fn cross_shard_traffic_actually_flows() {
    let r = run_load(&cross_cfg(2, 4));
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

/// Rerunning a cross-shard configuration reproduces it exactly.
#[test]
fn cross_shard_reruns_are_identical() {
    let a = run_load(&cross_cfg(2, 4));
    let b = run_load(&cross_cfg(2, 4));
    assert_eq!(a.render_deterministic(), b.render_deterministic());
    assert_eq!(a.fingerprint(), b.fingerprint());
}

fn chaos_cfg(threads: usize) -> LoadConfig {
    LoadConfig {
        faults: FaultPlanConfig::all(1.0),
        ..small_cfg(threads)
    }
}

/// Fault injection rides the same deterministic rails as everything
/// else: a fixed fault plan produces bit-identical reports at every
/// worker-thread count, on both event kernels.
#[test]
fn faulted_runs_are_thread_and_kernel_invariant() {
    let base = run_load(&chaos_cfg(1));
    for threads in [2, 8] {
        for kernel in [vgprs_sim::Kernel::Wheel, vgprs_sim::Kernel::Heap] {
            let other = run_load(&LoadConfig {
                kernel,
                ..chaos_cfg(threads)
            });
            assert_eq!(
                base.render_deterministic(),
                other.render_deterministic(),
                "faulted KPI text diverged at {threads} threads on {kernel:?}"
            );
            assert_eq!(
                base.fingerprint(),
                other.fingerprint(),
                "faulted fingerprint diverged at {threads} threads on {kernel:?}"
            );
        }
    }
}

/// A zero-intensity fault config compiles to an empty plan, which must
/// leave the run byte-identical to one that never heard of faults.
#[test]
fn zero_intensity_faults_change_nothing() {
    let plain = run_load(&small_cfg(2));
    let zero = run_load(&LoadConfig {
        faults: FaultPlanConfig::all(0.0),
        ..small_cfg(2)
    });
    assert_eq!(plain.render_deterministic(), zero.render_deterministic());
    assert_eq!(plain.fingerprint(), zero.fingerprint());
}

/// The chaos configuration must actually hurt — and the recovery
/// machinery must actually recover.
#[test]
fn faults_bite_and_recovery_runs() {
    let r = run_load(&chaos_cfg(2));
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
    let r = run_load(&small_cfg(2));
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

fn surge_cfg(threads: usize) -> LoadConfig {
    LoadConfig {
        threads,
        scenario: ScenarioConfig::flash(10.0),
        controls: OverloadControls {
            paging_rate_per_s: 2,
            gk_shed_utilization: 0.5,
            pdp_rate_per_s: 2,
        },
        gk_bandwidth: 1_280,
        ..small_cfg(threads)
    }
}

/// A flash-crowd run with every overload control active is still a pure
/// function of the configuration: thread count and timer kernel must
/// not move a single bit of the report.
#[test]
fn surged_runs_are_thread_and_kernel_invariant() {
    let base = run_load(&surge_cfg(1));
    assert!(
        base.kpi("overload.attempts_peak") > 0.0,
        "the shock never produced peak attempts:\n{}",
        base.render_deterministic()
    );
    for threads in [2, 8] {
        for kernel in [Kernel::Heap, Kernel::Wheel] {
            let other = run_load(&LoadConfig {
                kernel,
                ..surge_cfg(threads)
            });
            assert_eq!(
                base.render_deterministic(),
                other.render_deterministic(),
                "surged KPI text diverged at {threads} threads on {kernel}"
            );
            assert_eq!(
                base.fingerprint(),
                other.fingerprint(),
                "surged fingerprint diverged at {threads} threads on {kernel}"
            );
        }
    }
}

/// A zero-shock demand plan with the controls off must reproduce the
/// flat busy hour exactly — the scenario machinery may not spend a
/// single RNG draw or reorder a single event when it has nothing to do.
#[test]
fn zero_shock_plan_reproduces_flat_run() {
    let flat = run_load(&small_cfg(2));
    let zero = run_load(&LoadConfig {
        scenario: ScenarioConfig::flash(0.0),
        ..small_cfg(2)
    });
    assert_eq!(flat.render_deterministic(), zero.render_deterministic());
    assert_eq!(flat.fingerprint(), zero.fingerprint());
}

/// The flat-plan fast path of `subscriber_plan_demand` is byte-for-byte
/// the historical generator, for every subscriber.
#[test]
fn flat_demand_plans_delegate_exactly() {
    let cfg = small_cfg(1).population;
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
            ..surge_cfg(2)
        });
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
fn trunk_cfg(threads: usize) -> LoadConfig {
    LoadConfig {
        trunk: TrunkPlanConfig::all(1.0),
        ..cross_cfg(threads, 4)
    }
}

/// The tentpole property: a trunk-faulted run — retransmissions, dup
/// suppression, reorder buffering, partition teardowns and heals — is
/// bit-identical at every worker-thread count on both event kernels.
#[test]
fn trunk_faulted_runs_are_thread_and_kernel_invariant() {
    let base = run_load(&trunk_cfg(1));
    for threads in [2, 8] {
        for kernel in [Kernel::Wheel, Kernel::Heap] {
            let other = run_load(&LoadConfig {
                kernel,
                ..trunk_cfg(threads)
            });
            assert_eq!(
                base.render_deterministic(),
                other.render_deterministic(),
                "trunk-faulted KPI text diverged at {threads} threads on {kernel}"
            );
            assert_eq!(
                base.fingerprint(),
                other.fingerprint(),
                "trunk-faulted fingerprint diverged at {threads} threads on {kernel}"
            );
        }
    }
}

/// The armed run, pinned. The invariance tests above compare a run with
/// itself, so a change to the fabric's delivery order (heal push order,
/// retransmit scan order, release order) would move every side at once
/// and pass. These three values were printed by the binary of the
/// commit before the barrier was rewritten (PR 14); they move only when
/// the simulated world does, and then on purpose.
#[test]
fn armed_run_identity_is_pinned() {
    const FINGERPRINT: u64 = 0xeac1_d054_4a02_1964;
    const SNAPSHOT_FINGERPRINT: u64 = 0xb868_b6cc_e89f_d14e;
    const EVENTS: u64 = 111_616;
    let report = run_load(&trunk_cfg(1));
    assert_eq!(
        format!(
            "{:016x} {:016x} {}",
            report.fingerprint(),
            report.snapshot_fingerprint(),
            report.events
        ),
        format!("{FINGERPRINT:016x} {SNAPSHOT_FINGERPRINT:016x} {EVENTS}"),
        "armed trunk run drifted from the pinned identity"
    );
}

/// A zero-intensity trunk plan compiles to no windows, and the fabric
/// must then be byte-transparent: same fingerprint as a run that never
/// heard of trunk faults.
#[test]
fn zero_intensity_trunk_plan_changes_nothing() {
    let plain = run_load(&cross_cfg(2, 4));
    let zero = run_load(&LoadConfig {
        trunk: TrunkPlanConfig::all(0.0),
        ..cross_cfg(2, 4)
    });
    assert_eq!(plain.render_deterministic(), zero.render_deterministic());
    assert_eq!(plain.fingerprint(), zero.fingerprint());
}

/// The trunk chaos must actually hurt — and the reliable-delivery
/// machinery must actually absorb it.
#[test]
fn trunk_chaos_bites_and_recovery_runs() {
    let r = run_load(&trunk_cfg(2));
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

/// Healed-partition convergence: under partition-only chaos, every
/// subscriber stranded by a torn trunk is re-routed to its home anchor
/// once the partition heals, and the heal-to-recovery delay is sampled.
#[test]
fn healed_partition_converges() {
    let r = run_load(&LoadConfig {
        trunk: TrunkPlanConfig::only(TrunkFaultClass::Partition, 1.0),
        ..cross_cfg(2, 4)
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
        ..cross_cfg(2, 4)
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
fn snapshot_cfg(threads: usize) -> LoadConfig {
    LoadConfig {
        snapshot_secs: 30,
        ..small_cfg(threads)
    }
}

/// The tentpole property: the snapshot stream — frame times, counters,
/// histograms, the composite fingerprint — is bit-identical across
/// worker-thread counts and event kernels, exactly like the end-of-run
/// report it samples.
#[test]
fn snapshot_stream_is_thread_and_kernel_invariant() {
    let base = run_load(&snapshot_cfg(1));
    assert!(
        base.snapshots.len() >= 3,
        "90 s at a 30 s cadence must yield at least 3 frames, got {}",
        base.snapshots.len()
    );
    for threads in [1, 2, 8] {
        for kernel in [Kernel::Wheel, Kernel::Heap] {
            let other = run_load(&LoadConfig {
                kernel,
                ..snapshot_cfg(threads)
            });
            assert_eq!(
                base.snapshot_fingerprint(),
                other.snapshot_fingerprint(),
                "snapshot fingerprint diverged at {threads} threads on {kernel}"
            );
            assert_eq!(
                base.snapshots.len(),
                other.snapshots.len(),
                "frame count diverged at {threads} threads on {kernel}"
            );
            for (a, b) in base.snapshots.iter().zip(&other.snapshots) {
                assert_eq!(a.at_ms, b.at_ms);
                assert_eq!(a.counters, b.counters);
                assert_eq!(
                    a,
                    b,
                    "frame at {} ms diverged at {threads} threads on {kernel}",
                    a.at_ms
                );
            }
        }
    }
}

/// The synthesized aggregate frame must agree with the end-of-run
/// summary KPIs *exactly* — bit-equal floats, not approximately — since
/// both are computed from the same merged stats.
#[test]
fn snapshot_aggregate_equals_summary_kpis() {
    let r = run_load(&snapshot_cfg(2));
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
    let r = run_load(&snapshot_cfg(2));
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
        ..small_cfg(2)
    });
    assert!(off.snapshots.is_empty(), "cadence 0 must disable sampling");
    let on = run_load(&snapshot_cfg(2));
    assert_eq!(off.fingerprint(), on.fingerprint());
    assert_eq!(off.render_deterministic(), on.render_deterministic());
}
