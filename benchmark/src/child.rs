//! One repeat of one workload in a fresh process.
//!
//! The parent re-executes its own binary with `--child`; the child makes
//! one set-up run and one full run, then prints a single JSON line with
//! its timings, its peak memory and what the simulation produced. A
//! fresh process per repeat is what makes `VmHWM` a per-run peak and
//! keeps one repeat's allocator state out of the next one's timing.

use std::process::{Command, Stdio};
use std::time::Instant;

use vgprs_load::{run_load, LoadConfig, LoadReport};
use vgprs_sim::{JsonValue, Kernel};

use crate::host;
use crate::jsonw::{hex, num, obj, to_string};
use crate::workloads::Workload;

/// What identifies a run's simulated outcome. Two runs of the same world
/// must agree on all three, whatever the kernel or thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Identity {
    pub fingerprint: u64,
    pub snapshot_fingerprint: u64,
    pub events: u64,
}

impl Identity {
    pub fn of(report: &LoadReport) -> Identity {
        Identity {
            fingerprint: report.fingerprint(),
            snapshot_fingerprint: report.snapshot_fingerprint(),
            events: report.events,
        }
    }
}

impl std::fmt::Display for Identity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fingerprint {:016x} snapshot {:016x} events {}",
            self.fingerprint, self.snapshot_fingerprint, self.events
        )
    }
}

/// The simulated quantities the correctness checks read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Facts {
    pub registered: u64,
    pub drain_capped: u64,
    pub attempts: u64,
    pub connected_legs: u64,
    pub voice_frames: u64,
    pub handoffs_attempted: u64,
    pub retransmits: u64,
    pub mos: f64,
}

impl Facts {
    pub fn of(report: &LoadReport) -> Facts {
        let counter = |name: &str| report.stats.counter(name);
        Facts {
            registered: counter("load.registered"),
            drain_capped: counter("load.drain_capped"),
            attempts: report.attempts(),
            connected_legs: counter("ms.calls_connected") + counter("term.calls_connected"),
            voice_frames: counter("ms.voice_frames_sent") + counter("term.rtp_sent"),
            handoffs_attempted: report.handoff_attempts(),
            retransmits: report.trunk_retransmits(),
            mos: report.mos(),
        }
    }
}

/// What one child measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub run_s: f64,
    pub setup_s: f64,
    pub peak_rss_kb: u64,
    pub cpu_s: f64,
    pub identity: Identity,
    pub facts: Facts,
}

impl Sample {
    fn to_json(self) -> JsonValue {
        obj([
            ("run_s", num(self.run_s)),
            ("setup_s", num(self.setup_s)),
            ("peak_rss_kb", num(self.peak_rss_kb as f64)),
            ("cpu_s", num(self.cpu_s)),
            ("fingerprint", hex(self.identity.fingerprint)),
            (
                "snapshot_fingerprint",
                hex(self.identity.snapshot_fingerprint),
            ),
            ("events", num(self.identity.events as f64)),
            ("registered", num(self.facts.registered as f64)),
            ("drain_capped", num(self.facts.drain_capped as f64)),
            ("attempts", num(self.facts.attempts as f64)),
            ("connected_legs", num(self.facts.connected_legs as f64)),
            ("voice_frames", num(self.facts.voice_frames as f64)),
            (
                "handoffs_attempted",
                num(self.facts.handoffs_attempted as f64),
            ),
            ("retransmits", num(self.facts.retransmits as f64)),
            ("mos", num(self.facts.mos)),
        ])
    }

    fn from_json(value: &JsonValue) -> Option<Sample> {
        let f = |key: &str| value.get(key)?.as_f64();
        let n = |key: &str| f(key).map(|x| x as u64);
        let h = |key: &str| u64::from_str_radix(value.get(key)?.as_str()?, 16).ok();
        Some(Sample {
            run_s: f("run_s")?,
            setup_s: f("setup_s")?,
            peak_rss_kb: n("peak_rss_kb")?,
            cpu_s: f("cpu_s")?,
            identity: Identity {
                fingerprint: h("fingerprint")?,
                snapshot_fingerprint: h("snapshot_fingerprint")?,
                events: n("events")?,
            },
            facts: Facts {
                registered: n("registered")?,
                drain_capped: n("drain_capped")?,
                attempts: n("attempts")?,
                connected_legs: n("connected_legs")?,
                voice_frames: n("voice_frames")?,
                handoffs_attempted: n("handoffs_attempted")?,
                retransmits: n("retransmits")?,
                mos: f("mos")?,
            },
        })
    }
}

/// The world a child simulates: a workload, with the thread count or
/// kernel optionally overridden (the oracle and the thread comparison).
#[derive(Clone, Copy, Debug)]
pub struct ChildSpec {
    pub workload: &'static Workload,
    pub seed: u64,
    pub quick: bool,
    pub threads: usize,
    pub kernel: Kernel,
}

impl ChildSpec {
    pub fn of(workload: &'static Workload, seed: u64, quick: bool) -> ChildSpec {
        ChildSpec {
            workload,
            seed,
            quick,
            threads: 1,
            kernel: Kernel::Wheel,
        }
    }

    pub fn config(&self) -> LoadConfig {
        LoadConfig {
            threads: self.threads,
            kernel: self.kernel,
            ..self.workload.config(self.seed, self.quick)
        }
    }

    fn args(&self) -> Vec<String> {
        let mut args = vec![
            "--child".to_owned(),
            "--workload".to_owned(),
            self.workload.name.to_owned(),
            "--seed".to_owned(),
            self.seed.to_string(),
            "--threads".to_owned(),
            self.threads.to_string(),
        ];
        if self.kernel == Kernel::Heap {
            args.push("--heap".to_owned());
        }
        if self.quick {
            args.push("--quick".to_owned());
        }
        args
    }

    /// Runs this world in a fresh process and waits for it.
    pub fn spawn(&self) -> Result<Sample, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let output = Command::new(exe)
            .args(self.args())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        if !output.status.success() {
            return Err(format!("child exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        JsonValue::parse(line)
            .ok()
            .as_ref()
            .and_then(Sample::from_json)
            .ok_or_else(|| format!("child printed no sample: {line:?}"))
    }
}

/// The timed full run: what a `harness load --json` user waits for.
pub fn timed_run(cfg: &LoadConfig) -> (f64, LoadReport) {
    let start = Instant::now();
    let report = run_load(cfg);
    std::hint::black_box(report.to_json());
    std::hint::black_box(report.fingerprint());
    (start.elapsed().as_secs_f64(), report)
}

/// The timed set-up run: the same world with an empty observation
/// window, so every shard is built and the whole population registers
/// but no traffic is offered.
pub fn timed_setup(cfg: &LoadConfig) -> f64 {
    let mut setup = cfg.clone();
    setup.population.window_secs = 0;
    let start = Instant::now();
    std::hint::black_box(run_load(&setup));
    start.elapsed().as_secs_f64()
}

/// Entry point of the `--child` process.
pub fn child_main(spec: &ChildSpec) {
    let cfg = spec.config();
    let setup_s = timed_setup(&cfg);
    let (run_s, report) = timed_run(&cfg);
    let sample = Sample {
        run_s,
        setup_s,
        peak_rss_kb: host::peak_rss_kb(),
        cpu_s: host::cpu_secs(),
        identity: Identity::of(&report),
        facts: Facts::of(&report),
    };
    println!("{}", to_string(&sample.to_json()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_survives_its_own_json() {
        let sample = Sample {
            run_s: 0.853_217_4,
            setup_s: 0.201_3,
            peak_rss_kb: 79_428,
            cpu_s: 1.07,
            identity: Identity {
                fingerprint: 0xfedc_ba98_7654_3210,
                snapshot_fingerprint: 0x0000_0000_0000_00ff,
                events: 2_938_313,
            },
            facts: Facts {
                registered: 16_384,
                drain_capped: 0,
                attempts: 1_101,
                connected_legs: 2_126,
                voice_frames: 190_000,
                handoffs_attempted: 21,
                retransmits: 0,
                mos: 3.599_779_464_960_008_6,
            },
        };
        let line = to_string(&sample.to_json());
        let back = Sample::from_json(&JsonValue::parse(&line).expect("parses"));
        assert_eq!(back, Some(sample));
    }
}
