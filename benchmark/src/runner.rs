//! The measuring passes: untraced repeats in fresh child processes, the
//! heap oracle, the thread comparison and the traced driver, with every
//! correctness check applied where the value is produced.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vgprs_load::LoadReport;
use vgprs_sim::Kernel;

use crate::child::{ChildSpec, Facts, Identity, Sample};
use crate::driver::{self, run_traced, TracedRun};
use crate::host::{Calibration, Spread};
use crate::schema::{PEAK_RSS_MB, RUN_S, SETUP_S};
use crate::workloads::Workload;

/// Fewest repeats a timed pass accepts, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// When a pass stops launching rounds.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    Rounds(usize),
    /// Stop once another round would end past this budget.
    Budget(Duration),
}

/// Operations attempted and failed: a child run launched or a traced run
/// made is an attempt; a non-zero exit or a failed check is a failure. A
/// simulated blocked or dropped call is model behaviour and neither.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        println!("CHECK FAILED: {what}");
    }

    /// Records a failure, printing both values, unless they are equal.
    fn same<T: PartialEq + std::fmt::Display>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.fail(format!("{what}: got {got}, expected {want}"));
        }
    }

    fn holds(&mut self, what: &str, ok: bool, values: String) {
        if !ok {
            self.fail(format!("{what}: {values}"));
        }
    }
}

/// One invocation's shared state.
pub struct Session {
    pub seed: u64,
    pub quick: bool,
    /// The directory that holds `BENCHMARK.json`.
    pub root: PathBuf,
    pub tally: Tally,
    calibration: Calibration,
    pub calib_ns: Vec<f64>,
    /// The first identity seen for each workload's world; every later
    /// run of that world must reproduce it.
    reference: BTreeMap<&'static str, Identity>,
}

/// Everything measured for one workload.
#[derive(Default)]
pub struct Measured {
    /// Untraced repeats from the end-to-end pass.
    pub own: Vec<Sample>,
    /// Untraced repeats from the thread comparison, as configured (one
    /// thread) and on two threads: taken in alternation, so the two
    /// columns saw the same host.
    pub one_thread: Vec<Sample>,
    pub two_threads: Vec<Sample>,
    /// The fastest traced run.
    pub traced: Option<TracedRun>,
}

impl Session {
    pub fn new(seed: u64, quick: bool, root: PathBuf) -> Session {
        Session {
            seed,
            quick,
            root,
            tally: Tally::default(),
            calibration: Calibration::new(),
            calib_ns: Vec::new(),
            reference: BTreeMap::new(),
        }
    }

    pub fn identity_of(&self, w: &Workload) -> Option<Identity> {
        self.reference.get(w.name).copied()
    }

    fn calibrate(&mut self) {
        self.calib_ns.push(self.calibration.run_ns());
    }

    /// Checks one run's simulated outcome, wherever it was produced.
    fn check_outcome(&mut self, w: &'static Workload, how: &str, identity: Identity, facts: Facts) {
        let name = w.name;
        let reference = *self.reference.entry(name).or_insert(identity);
        self.tally
            .same(&format!("{name} {how}: identity"), identity, reference);
        let subscribers = w.population(self.quick) as u64;
        self.tally.same(
            &format!("{name} {how}: load.registered"),
            facts.registered,
            subscribers,
        );
        self.tally.same(
            &format!("{name} {how}: load.drain_capped"),
            facts.drain_capped,
            0,
        );
        self.tally.holds(
            &format!("{name} {how}: attempts and connected legs are positive"),
            facts.attempts > 0 && facts.connected_legs > 0,
            format!(
                "attempts {} connected legs {}",
                facts.attempts, facts.connected_legs
            ),
        );
        self.tally.holds(
            &format!("{name} {how}: MOS within [1.0, 4.5]"),
            (1.0..=4.5).contains(&facts.mos),
            format!("MOS {}", facts.mos),
        );
        // Non-vacuity: the workload exercises what it was chosen for.
        // The thresholds are sized for the full populations.
        if self.quick {
            return;
        }
        if w.trunk_chaos {
            self.tally.holds(
                &format!("{name} {how}: the armed fabric retransmits and hands off"),
                facts.retransmits > 0 && facts.handoffs_attempted > 0,
                format!(
                    "retransmits {} handoffs {}",
                    facts.retransmits, facts.handoffs_attempted
                ),
            );
        }
        if w.min_frames_per_leg > 0 {
            self.tally.holds(
                &format!(
                    "{name} {how}: at least {} voice frames per connected leg",
                    w.min_frames_per_leg
                ),
                facts.voice_frames >= w.min_frames_per_leg * facts.connected_legs,
                format!(
                    "frames {} legs {}",
                    facts.voice_frames, facts.connected_legs
                ),
            );
        }
    }

    /// Launches one child, counts it, and checks what it produced.
    fn run_child(&mut self, spec: ChildSpec, how: &str) -> Option<Sample> {
        self.tally.attempted += 1;
        match spec.spawn() {
            Ok(sample) => {
                self.check_outcome(spec.workload, how, sample.identity, sample.facts);
                Some(sample)
            }
            Err(e) => {
                self.tally
                    .fail(format!("{} {how}: {e}", spec.workload.name));
                None
            }
        }
    }

    /// Runs rounds of `specs`, one child each per round, interleaved so
    /// every spec samples the whole measuring window. A calibration pass
    /// precedes each round. Returns the samples per spec.
    fn rounds(&mut self, specs: &[ChildSpec], how: &str, stop: Stop) -> Vec<Vec<Sample>> {
        let start = Instant::now();
        let mut out: Vec<Vec<Sample>> = specs.iter().map(|_| Vec::new()).collect();
        let mut done = 0usize;
        loop {
            let round_start = Instant::now();
            self.calibrate();
            let calib_ms = self.calib_ns.last().map_or(0.0, |ns| ns * 1e-6);
            for (spec, samples) in specs.iter().zip(out.iter_mut()) {
                if let Some(sample) = self.run_child(*spec, how) {
                    println!(
                        "round {done} calib {calib_ms:.1} ms: {} x{} run_s {:.4} setup_s {:.4} rss_mb {:.1} cpu_s {:.2}",
                        spec.workload.name,
                        spec.threads,
                        sample.run_s,
                        sample.setup_s,
                        sample.peak_rss_kb as f64 / 1024.0,
                        sample.cpu_s
                    );
                    samples.push(sample);
                }
            }
            done += 1;
            let more = match stop {
                Stop::Rounds(n) => done < n,
                Stop::Budget(budget) => {
                    done < MIN_ROUNDS || start.elapsed() + round_start.elapsed() <= budget
                }
            };
            if !more {
                return out;
            }
        }
    }

    /// The end-to-end pass: repeats of each workload as configured.
    pub fn measure(&mut self, workloads: &[&'static Workload], stop: Stop) -> Vec<Measured> {
        let specs: Vec<ChildSpec> = workloads
            .iter()
            .map(|w| ChildSpec::of(w, self.seed, self.quick))
            .collect();
        self.rounds(&specs, "repeat", stop)
            .into_iter()
            .map(|own| Measured {
                own,
                ..Measured::default()
            })
            .collect()
    }

    /// One run of the workload's world on the heap kernel: the
    /// differential oracle for the wheel.
    pub fn oracle(&mut self, w: &'static Workload) {
        let spec = ChildSpec {
            kernel: Kernel::Heap,
            ..ChildSpec::of(w, self.seed, self.quick)
        };
        self.run_child(spec, "heap oracle");
    }

    /// The per-layer pass: the world on one and on two threads, untraced
    /// (the two must agree on the outcome), then `traced_runs` runs through
    /// the traced driver (the fastest is kept and its trace written).
    pub fn trace(
        &mut self,
        w: &'static Workload,
        into: &mut Measured,
        stop: Stop,
        traced_runs: usize,
    ) {
        let own = ChildSpec::of(w, self.seed, self.quick);
        let two_threads = ChildSpec { threads: 2, ..own };
        let mut samples = self.rounds(&[own, two_threads], "thread comparison", stop);
        into.two_threads.append(&mut samples[1]);
        into.one_thread.append(&mut samples[0]);

        let cfg = own.config();
        for run in 0..traced_runs {
            self.tally.attempted += 1;
            let traced = run_traced(&cfg, run as u64 + 1);
            self.check_outcome(
                w,
                "traced driver",
                Identity::of(&traced.report),
                Facts::of(&traced.report),
            );
            let faster = into
                .traced
                .as_ref()
                .is_none_or(|best| traced.trace.root_s() < best.trace.root_s());
            if faster {
                into.traced = Some(traced);
            }
        }
        if let Some(best) = &into.traced {
            let dir = self.root.join("benchmark").join("out");
            let path = dir.join(format!("trace-{}.json", w.name));
            let written = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, best.trace.to_json(w.name)));
            match written {
                Ok(()) => println!(
                    "trace[{}]: {} spans -> {}",
                    w.name,
                    best.trace.spans.len(),
                    path.display()
                ),
                Err(e) => self
                    .tally
                    .fail(format!("{}: writing {}: {e}", w.name, path.display())),
            }
        }
    }
}

fn column(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Option<Spread> {
    Spread::of(&samples.iter().map(f).collect::<Vec<f64>>())
}

/// The timing metrics are the minimum over the repeats: host noise only
/// ever adds time, so the minimum is the least disturbed repeat. Peak
/// memory is the median — a minimum of a peak means nothing.
pub struct EndToEnd {
    pub run_s: Spread,
    pub setup_s: Spread,
    pub peak_rss_mb: Spread,
}

impl EndToEnd {
    pub fn of(samples: &[Sample]) -> Option<EndToEnd> {
        Some(EndToEnd {
            run_s: column(samples, |s| s.run_s)?,
            setup_s: column(samples, |s| s.setup_s)?,
            peak_rss_mb: column(samples, |s| s.peak_rss_kb as f64 / 1024.0)?,
        })
    }

    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            (RUN_S, self.run_s.min),
            (SETUP_S, self.setup_s.min),
            (PEAK_RSS_MB, self.peak_rss_mb.median),
        ])
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The model work counts, read from the traced run's merged report.
fn model_metrics(report: &LoadReport, out: &mut BTreeMap<&'static str, f64>) {
    let counter = |name: &str| report.stats.counter(name) as f64;
    let facts = Facts::of(report);
    out.extend([
        ("gsm.pages", counter("bts.pages_broadcast")),
        ("gsm.reselections", counter("load.moves")),
        ("core.attempts", facts.attempts as f64),
        ("core.connected_legs", facts.connected_legs as f64),
        ("core.handoffs_attempted", facts.handoffs_attempted as f64),
        ("core.handoffs_completed", report.handoff_successes() as f64),
        ("gsm.hlr_relocations", report.hlr_relocations() as f64),
        ("media.voice_frames", facts.voice_frames as f64),
        ("media.mos", facts.mos),
        ("media.frame_loss", report.frame_loss()),
        ("core.setup_p99_ms", report.setup_delay().percentile(99.0)),
        ("core.blocking_rate", report.blocking_rate()),
    ]);
}

/// The per-layer metrics of one workload, from its traced run, its
/// untraced repeats at both thread counts, and the driver's counts.
/// `None` when a pass produced nothing to derive them from (the failure
/// is already in the tally).
pub fn layer_metrics(
    w: &Workload,
    quick: bool,
    m: &Measured,
) -> Option<BTreeMap<&'static str, f64>> {
    let traced = m.traced.as_ref()?;
    // Every one-thread repeat counts towards memory and throughput; the
    // thread comparison and the driver gap use only the repeats taken
    // next to the two-thread and traced runs, in equal number.
    let all: Vec<Sample> = m.own.iter().chain(&m.one_thread).copied().collect();
    let own = EndToEnd::of(&all)?;
    let one_thread_s = column(&m.one_thread, |s| s.run_s)?.min;
    let two_thread_s = column(&m.two_threads, |s| s.run_s)?.min;
    let cpu_s = column(&all, |s| s.cpu_s)?.min;

    let (trace, counts, report) = (&traced.trace, &traced.counts, &traced.report);
    let events = report.events as f64;
    let subscribers = w.population(quick) as f64;
    let epoch_calls = trace.calls(driver::EPOCH) as f64;
    let build_s = trace.total_s(driver::BUILD);
    let epoch_s = trace.total_s(driver::EPOCH);
    let retransmits = report.trunk_retransmits() as f64;

    let mut out = BTreeMap::from([
        ("load.population.plan_s", trace.total_s(driver::PLAN)),
        ("load.population.plans", counts.plans as f64),
        ("load.shard.build_s", build_s),
        ("load.shard.epoch_s", epoch_s),
        ("load.shard.epoch_calls", epoch_calls),
        (
            "load.shard.idle_epoch_share",
            ratio(counts.idle_epoch_calls as f64, epoch_calls),
        ),
        ("load.engine.poll_s", trace.total_s(driver::POLL)),
        ("load.trunk.new_s", trace.total_s(driver::TRUNK_NEW)),
        ("load.trunk.post_s", trace.total_s(driver::TRUNK_POST)),
        ("load.trunk.seal_s", trace.total_s(driver::TRUNK_SEAL)),
        ("load.trunk.flits", counts.flits as f64),
        ("load.trunk.retransmits", retransmits),
        ("load.trunk.dup_drops", report.trunk_dup_drops() as f64),
        ("load.trunk.expired", report.trunk_expired() as f64),
        (
            "load.trunk.retx_per_flit",
            ratio(retransmits, counts.flits as f64),
        ),
        ("load.shard.finish_s", trace.total_s(driver::FINISH)),
        ("load.report.merge_s", trace.total_s(driver::MERGE)),
        ("load.report.json_s", trace.total_s(driver::JSON)),
        (
            "load.report.fingerprint_s",
            trace.total_s(driver::FINGERPRINT),
        ),
        ("load.snapshot.frames", counts.snapshot_frames as f64),
        ("load.engine.pool_overhead_s", two_thread_s - one_thread_s),
        (
            "load.engine.thread_speedup",
            ratio(one_thread_s, two_thread_s),
        ),
        ("load.engine.cpu_s", cpu_s),
        ("load.engine.driver_gap_s", one_thread_s - trace.layers_s()),
        (
            "load.rss_kb_per_sub",
            own.peak_rss_mb.median * 1024.0 / subscribers,
        ),
        ("sim.events", events),
        ("sim.secs", report.sim_secs),
        ("sim.events_per_s", ratio(events, own.run_s.min)),
        ("sim.ns_per_event", ratio((build_s + epoch_s) * 1e9, events)),
        ("sim.events_per_sub", events / subscribers),
        (
            "sim.events_per_attempt",
            ratio(events, report.attempts() as f64),
        ),
    ]);
    model_metrics(report, &mut out);
    Some(out)
}
