//! The traced phase driver: `vgprs_load::run_load` re-played from
//! outside, single-threaded, with a span around each call into a layer.
//!
//! `run_traced` mirrors `run_load`'s three phases line for line over the
//! load crate's public API (`Shard`, `TrunkFabric`, `HlrDirectory`,
//! `LoadReport::merge`), so the run it produces has the same
//! fingerprints as the engine's — the caller checks that it does. The
//! spans are taken here, in the benchmark's own code; the program itself
//! carries none.
//!
//! Inside the epoch loop a span covers one phase of one epoch (all
//! shards' `run_epoch` calls, say) and carries the number of calls it
//! covered: one span per call would be ~900 k spans on `busy_hour` and
//! the clock reads alone would be several per cent of the run.

use std::time::Instant;

use vgprs_load::{
    compile_demand, partition, subscriber_plan_demand, HlrDirectory, LoadConfig, LoadReport, Shard,
    ShardConfig, ShardReport, SubscriberPlan, TrunkFabric, EPOCH_MS,
};

use crate::jsonw::{num, obj, text};

pub const ROOT: &str = "load.run";
pub const PLAN: &str = "load.population.plan";
pub const BUILD: &str = "load.shard.build";
pub const TRUNK_NEW: &str = "load.trunk.new";
pub const POLL: &str = "load.engine.poll";
pub const EPOCH: &str = "load.shard.epoch";
pub const TRUNK_POST: &str = "load.trunk.post";
pub const TRUNK_SEAL: &str = "load.trunk.seal";
pub const FINISH: &str = "load.shard.finish";
pub const MERGE: &str = "load.report.merge";
pub const JSON: &str = "load.report.json";
pub const FINGERPRINT: &str = "load.report.fingerprint";

/// One timed interval. A span's id is its index in [`Trace::spans`].
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the span this one ran inside; the root names itself.
    pub parent: u32,
    /// Calls into the layer this span covers.
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one run, kept in memory until the run is over.
pub struct Trace {
    pub run_id: u64,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    const ROOT_ID: u32 = 0;

    fn start(run_id: u64) -> Trace {
        let mut trace = Trace {
            run_id,
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        };
        trace.spans.push(Span {
            name: ROOT,
            start_ns: 0,
            end_ns: 0,
            parent: 0,
            calls: 1,
        });
        trace
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a child of the root span.
    fn span<R>(&mut self, name: &'static str, calls: usize, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Self::ROOT_ID,
            calls: calls as u32,
        });
        result
    }

    fn finish(&mut self) {
        self.spans[Self::ROOT_ID as usize].end_ns = self.now_ns();
    }

    /// Seconds spent in all spans of this name.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Calls covered by all spans of this name.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| u64::from(s.calls))
            .sum()
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_s(&self, id: u32) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.parent == id && *i as u32 != id)
            .map(|(_, s)| s.duration_ns())
            .sum();
        (self.spans[id as usize].duration_ns() - children) as f64 * 1e-9
    }

    /// The whole run, root span start to end.
    pub fn root_s(&self) -> f64 {
        self.spans[Self::ROOT_ID as usize].duration_ns() as f64 * 1e-9
    }

    /// Everything under the root: the time inside the layers, without
    /// the driver's own loop and clock reads.
    pub fn layers_s(&self) -> f64 {
        self.root_s() - self.self_s(Self::ROOT_ID)
    }

    /// The layer names in first-seen order, root first.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
    }

    /// The trace file: a per-layer summary, then every span.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"run_id\":{},\"unit\":\"ns\",\n\"layers\":[\n",
            self.run_id
        ));
        let names = self.names();
        for (i, name) in names.iter().enumerate() {
            let layer = obj([
                ("name", text(*name)),
                (
                    "spans",
                    num(self.spans.iter().filter(|s| s.name == *name).count() as f64),
                ),
                ("calls", num(self.calls(name) as f64)),
                ("total_s", num(self.total_s(name))),
            ]);
            out.push_str(&crate::jsonw::to_string(&layer));
            out.push_str(if i + 1 < names.len() { ",\n" } else { "\n" });
        }
        out.push_str(&format!(
            "],\n\"root_self_s\":{},\n\"spans\":[\n",
            self.self_s(Self::ROOT_ID)
        ));
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{id},\"run\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"calls\":{}}}",
                self.run_id, s.parent, s.name, s.start_ns, s.end_ns, s.calls
            ));
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverCounts {
    /// Subscriber plans generated.
    pub plans: u64,
    /// Epochs the lockstep loop ran.
    pub epochs: u64,
    /// `run_epoch` calls on a shard that was not busy and had an empty
    /// inbox: visits that could do no work.
    pub idle_epoch_calls: u64,
    /// Envelopes the shards handed to the fabric.
    pub flits: u64,
    /// Snapshot frames the shards recorded.
    pub snapshot_frames: u64,
}

/// A traced run: what the engine would have returned, plus where the
/// time went.
pub struct TracedRun {
    pub report: LoadReport,
    pub trace: Trace,
    pub counts: DriverCounts,
}

/// The shard configurations `run_load` derives from a `LoadConfig`.
fn shard_configs(cfg: &LoadConfig, parts: &[(usize, usize)]) -> Vec<ShardConfig> {
    parts
        .iter()
        .enumerate()
        .map(|(index, &(base, size))| ShardConfig {
            shard_index: index,
            base_index: base,
            subscribers: size,
            total_shards: parts.len(),
            master_seed: cfg.seed,
            population: cfg.population.clone(),
            tch_capacity: cfg.tch_capacity,
            pdch_bps: cfg.pdch_bps,
            gk_bandwidth: cfg.gk_bandwidth,
            voice_sample_ms: cfg.voice_sample_ms,
            kernel: cfg.kernel,
            faults: cfg.faults,
            scenario: cfg.scenario.clone(),
            controls: cfg.controls,
            snapshot_secs: cfg.snapshot_secs,
        })
        .collect()
}

/// Runs `cfg` through the three phases of `run_load` on one thread,
/// timing each call into a layer.
pub fn run_traced(cfg: &LoadConfig, run_id: u64) -> TracedRun {
    let shards = cfg.effective_shards();
    let parts = partition(cfg.subscribers, shards);
    let shard_cfgs = shard_configs(cfg, &parts);
    let mut counts = DriverCounts::default();
    let mut trace = Trace::start(run_id);

    // Phase 1: build every shard's world and register its population.
    let mut fleet: Vec<Shard> = Vec::with_capacity(shards);
    for shard_cfg in &shard_cfgs {
        let plans: Vec<SubscriberPlan> = trace.span(PLAN, shard_cfg.subscribers + 1, || {
            let demand = compile_demand(
                &cfg.scenario,
                cfg.seed,
                shard_cfg.shard_index,
                cfg.population.window_secs,
            );
            (0..shard_cfg.subscribers)
                .map(|i| {
                    subscriber_plan_demand(
                        &cfg.population,
                        &demand,
                        cfg.seed,
                        shard_cfg.base_index + i,
                    )
                })
                .collect()
        });
        counts.plans += plans.len() as u64;
        fleet.push(trace.span(BUILD, 1, || Shard::new(shard_cfg, &plans)));
    }

    // Phase 2: epoch lockstep with the trunk fabric as the barrier.
    let mut fabric = trace.span(TRUNK_NEW, 1, || {
        TrunkFabric::new(shards, cfg.seed, &cfg.trunk, cfg.population.window_secs)
    });
    let mut directory = HlrDirectory::new(&parts);
    let mut inboxes: Vec<Vec<(usize, vgprs_load::Flit)>> =
        (0..shards).map(|_| Vec::new()).collect();
    let mut outboxes: Vec<Vec<vgprs_load::Envelope>> = (0..shards).map(|_| Vec::new()).collect();
    let mut epoch: u64 = 0;
    loop {
        let (busy, cap, idle) = trace.span(POLL, shards, || {
            let mut busy = fabric.in_flight() > 0;
            let mut cap = 0;
            let mut idle = 0;
            for (index, shard) in fleet.iter().enumerate() {
                inboxes[index] = fabric.take_inbox(index);
                let wanted = shard.is_busy() || !inboxes[index].is_empty();
                idle += u64::from(!wanted);
                busy |= wanted;
                cap = cap.max(shard.max_epoch_hint());
            }
            (busy, cap, idle)
        });
        if !busy || epoch > cap {
            break;
        }
        counts.idle_epoch_calls += idle;
        trace.span(EPOCH, shards, || {
            for (index, shard) in fleet.iter_mut().enumerate() {
                let inbox = std::mem::take(&mut inboxes[index]);
                outboxes[index] = shard.run_epoch(epoch, inbox);
            }
        });
        counts.flits += outboxes.iter().map(|o| o.len() as u64).sum::<u64>();
        trace.span(TRUNK_POST, shards, || {
            for (index, outbox) in outboxes.iter_mut().enumerate() {
                fabric.post(index, std::mem::take(outbox), &mut directory);
            }
        });
        trace.span(TRUNK_SEAL, 1, || {
            fabric.seal((epoch + 1) * EPOCH_MS, &mut directory)
        });
        epoch += 1;
    }
    counts.epochs = epoch;
    let wall = trace.origin.elapsed();

    // Phase 3: seal shards in index order and merge.
    let mut reports: Vec<ShardReport> = trace.span(FINISH, shards, || {
        fleet.into_iter().map(Shard::finish).collect()
    });
    counts.snapshot_frames = reports.iter().map(|r| r.snapshots.len() as u64).sum();
    let report = trace.span(MERGE, 1, || {
        reports[0]
            .stats
            .count_by("load.hlr_relocations", directory.relocations());
        if fabric.armed() {
            reports[0].stats.merge(fabric.stats());
        }
        LoadReport::merge(cfg.subscribers, 1, cfg.snapshot_secs, &reports, wall)
    });
    trace.span(JSON, 1, || std::hint::black_box(report.to_json()));
    trace.span(FINGERPRINT, 1, || {
        std::hint::black_box(report.fingerprint())
    });
    trace.finish();
    TracedRun {
        report,
        trace,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child::Identity;
    use crate::workloads;
    use vgprs_load::run_load;
    use vgprs_sim::JsonValue;

    /// Checks a trace file's shape.
    fn trace_file_is_well_formed(text: &str) -> Result<usize, String> {
        let value = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let spans = value
            .get("spans")
            .and_then(JsonValue::as_array)
            .ok_or("no spans array")?;
        for (i, span) in spans.iter().enumerate() {
            let field = |key: &str| span.get(key).and_then(JsonValue::as_f64);
            let (Some(id), Some(parent), Some(start), Some(end)) =
                (field("id"), field("parent"), field("start"), field("end"))
            else {
                return Err(format!("span {i} lacks a field"));
            };
            if id as usize != i || parent as usize >= spans.len() || end < start {
                return Err(format!("span {i} is inconsistent"));
            }
        }
        Ok(spans.len())
    }

    #[test]
    fn the_driver_reproduces_the_engine_on_every_workload() {
        for w in &workloads::ALL {
            let cfg = w.config(7, true);
            let engine = run_load(&cfg);
            let traced = run_traced(&cfg, 1);
            assert_eq!(
                Identity::of(&traced.report),
                Identity::of(&engine),
                "{}",
                w.name
            );
            assert_eq!(traced.counts.plans, cfg.subscribers as u64);
            assert_eq!(
                traced.trace.calls(EPOCH),
                traced.counts.epochs * cfg.effective_shards() as u64
            );
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let cfg = workloads::ALL[0].config(7, true);
        let traced = run_traced(&cfg, 9);
        let trace = &traced.trace;
        let children: f64 = trace.names().iter().skip(1).map(|n| trace.total_s(n)).sum();
        assert!((trace.layers_s() - children).abs() < 1e-6);
        assert!(trace.self_s(0) >= 0.0 && trace.self_s(0) < trace.root_s());
        let spans = trace_file_is_well_formed(&trace.to_json("busy_hour")).expect("well formed");
        assert_eq!(spans, trace.spans.len());
    }
}
