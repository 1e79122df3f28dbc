//! The merged, deterministic view of a load run.
//!
//! Shard reports are merged **in shard-index order**, so the combined
//! counters, histograms and the fingerprint derived from them are a
//! function of the configuration and seed. Wall-clock figures
//! (events/second) are carried separately and explicitly excluded from
//! the fingerprint.

use std::fmt::Write as _;
use std::time::Duration;

use vgprs_sim::{census_counters, Fnv1a, Histogram, Interface, JsonF64, JsonWriter, Stats};

use crate::kpi;
use crate::shard::ShardReport;
use crate::snapshot::{fingerprint_histogram, SnapshotFrame, SNAPSHOT_COUNTERS};

/// Everything a load run produces.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Population size across all shards.
    pub subscribers: usize,
    /// How many independent serving-area pairs were simulated.
    pub shards: usize,
    /// Threads the run used: always 1 from `run_load`. Kept because
    /// the JSON report and the `BENCH_*.json` meta blocks carry it.
    pub threads: usize,
    /// Merged counters and histograms from every shard.
    pub stats: Stats,
    /// Total simulation events processed.
    pub events: u64,
    /// Simulated seconds covered by the longest shard.
    pub sim_secs: f64,
    /// Wall-clock duration of the run (not deterministic).
    pub wall: Duration,
    /// Snapshot cadence in simulated seconds (`0` = sampling off).
    pub snapshot_secs: u64,
    /// The merged KPI time series: one cumulative frame per cadence
    /// boundary, summed across shards.
    pub snapshots: Vec<SnapshotFrame>,
    /// Each shard's own (unmerged) series, index-aligned with the
    /// merged one. Observability only — never part of any fingerprint.
    pub shard_snapshots: Vec<Vec<SnapshotFrame>>,
}

impl LoadReport {
    /// Merges per-shard evidence; `reports` must be in shard order.
    pub fn merge(
        subscribers: usize,
        threads: usize,
        snapshot_secs: u64,
        reports: &[ShardReport],
        wall: Duration,
    ) -> LoadReport {
        let mut stats = Stats::new();
        let mut events = 0;
        let mut sim_secs = 0f64;
        // Frame i of every shard covers the same nominal boundary (every
        // shard runs or catches up through every epoch the engine
        // reaches), so the merged series is the index-wise sum, folded
        // in shard order.
        let mut snapshots: Vec<SnapshotFrame> = Vec::new();
        for r in reports {
            stats.merge(&r.stats);
            events += r.events;
            sim_secs = sim_secs.max(r.sim_end.as_secs_f64());
            for (i, frame) in r.snapshots.iter().enumerate() {
                match snapshots.get_mut(i) {
                    Some(merged) => merged.merge(frame),
                    None => snapshots.push(frame.clone()),
                }
            }
        }
        LoadReport {
            subscribers,
            shards: reports.len(),
            threads,
            stats,
            events,
            sim_secs,
            wall,
            snapshot_secs,
            snapshots,
            shard_snapshots: reports.iter().map(|r| r.snapshots.clone()).collect(),
        }
    }

    /// The end-of-run snapshot row, sampled from the *merged* stats —
    /// by construction its KPIs equal the summary KPIs exactly (same
    /// counters, same histogram sums, same table rows).
    pub fn snapshot_aggregate(&self) -> SnapshotFrame {
        SnapshotFrame::sample((self.sim_secs * 1000.0).round() as u64, &self.stats)
    }

    /// FNV-1a over the snapshot stream (cadence, every frame, and the
    /// end-of-run aggregate). Kept separate from [`Self::fingerprint`]
    /// so committed BENCH artifacts from earlier PRs stay valid.
    pub fn snapshot_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.snapshot_secs);
        for frame in &self.snapshots {
            frame.fingerprint_into(&mut h);
        }
        self.snapshot_aggregate().fingerprint_into(&mut h);
        h.finish()
    }

    /// Any KPI of the table in [`crate::kpi`] by its path under the
    /// report's `"kpis"` object — `kpi("trunk.retransmits")`,
    /// `kpi("resilience.recovery_ms.p99")` — or a sum / quotient of
    /// them (see [`kpi::value`]). Counts convert to `f64` exactly.
    ///
    /// # Panics
    ///
    /// Panics on a path that names no row: KPI names are literals, so
    /// a miss is a typo.
    pub fn kpi(&self, expr: &str) -> f64 {
        kpi::value(&self.stats, expr)
    }

    /// The merged histogram behind a histogram KPI, e.g.
    /// `kpi_hist("handoff_interruption_ms")`.
    pub fn kpi_hist(&self, path: &str) -> Histogram {
        kpi::find(path).hist(&self.stats)
    }

    fn count(&self, path: &str) -> u64 {
        self.kpi(path) as u64
    }

    /// Call attempts the generator issued (busy-suppressed excluded).
    pub fn attempts(&self) -> u64 {
        self.count("attempts")
    }

    /// Merged end-to-end call-setup delay seen by the originators
    /// (mobile post-dial delay plus the wireline terminals' for MT).
    pub fn setup_delay(&self) -> Histogram {
        self.kpi_hist("setup_delay_ms")
    }

    /// Inter-VMSC (cross-shard) handoffs the anchor VMSCs initiated.
    pub fn handoff_attempts(&self) -> u64 {
        self.count("handoff_attempts")
    }

    /// Handoffs that completed the full Figure 9 ladder (the anchor
    /// acknowledged `MAP Send End Signal`).
    pub fn handoff_successes(&self) -> u64 {
        self.count("handoff_successes")
    }

    /// Idle-mode HLR ownership moves between shards (each direction of
    /// a round trip counts once).
    pub fn hlr_relocations(&self) -> u64 {
        self.count("hlr_relocations")
    }

    /// Trunk flits the fabric resent after a lost transmission (every
    /// back-off rung of every pending flit counts once).
    pub fn trunk_retransmits(&self) -> u64 {
        self.count("trunk.retransmits")
    }

    /// Duplicate trunk flits the receive window suppressed.
    pub fn trunk_dup_drops(&self) -> u64 {
        self.count("trunk.dup_drops")
    }

    /// Trunk flits whose retransmission budget ran out (the sender
    /// shard was told and resolved the casualty).
    pub fn trunk_expired(&self) -> u64 {
        self.count("trunk.expired")
    }

    /// Fraction of attempts refused a traffic channel at the cell.
    pub fn blocking_rate(&self) -> f64 {
        self.kpi("blocking_rate")
    }

    /// Voice frame loss across both directions.
    pub fn frame_loss(&self) -> f64 {
        self.kpi("frame_loss")
    }

    /// Mean opinion score from the E-model (GSM full-rate codec),
    /// scored at the measured mean one-way delay plus packetization and
    /// playout, and the measured frame loss.
    pub fn mos(&self) -> f64 {
        self.kpi("mos")
    }

    /// Events per wall-clock second (not part of the fingerprint).
    fn events_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.events as f64 / s
        } else {
            0.0
        }
    }

    /// The deterministic portion of the report: everything except
    /// wall-clock timing. Two runs with the same configuration and
    /// master seed must render identical text here.
    pub fn render_deterministic(&self) -> String {
        let mut out = String::with_capacity(2048);
        let _ = writeln!(
            out,
            "population            : {} subscribers in {} shards",
            self.subscribers, self.shards
        );
        kpi::render_text(&mut out, &self.stats);
        let _ = writeln!(
            out,
            "events                : {} queued + {} relayed over {:.1} simulated s",
            self.events,
            self.count("sim.relayed"),
            self.sim_secs
        );
        let census = self.census();
        let total: u64 = census.iter().map(|(_, q, r)| q + r).sum();
        let top: Vec<String> = census
            .iter()
            .take(5)
            .map(|(iface, q, r)| {
                format!("{iface} {:.1}% ({q} + {r})", 100.0 * (q + r) as f64 / total as f64)
            })
            .collect();
        let _ = writeln!(out, "top interfaces        : {}", top.join(", "));
        out
    }

    /// The delivery census: `(interface, queued, relayed)` for every
    /// interface that carried a message, busiest first (ties in
    /// [`Interface::ALL`] order).
    fn census(&self) -> Vec<(Interface, u64, u64)> {
        let mut rows: Vec<(Interface, u64, u64)> = Interface::ALL
            .iter()
            .map(|&i| {
                let [queued, relayed] = census_counters(i);
                (i, self.stats.counter(queued), self.stats.counter(relayed))
            })
            .filter(|(_, q, r)| q + r > 0)
            .collect();
        rows.sort_by_key(|&(_, q, r)| std::cmp::Reverse(q + r));
        rows
    }

    /// Full human-readable report, including wall-clock throughput.
    pub fn render(&self) -> String {
        format!(
            "{}throughput            : {:.0} events/s ({:.2} s wall)\n",
            self.render_deterministic(),
            self.events_per_sec(),
            self.wall.as_secs_f64()
        )
    }

    /// Machine-readable report: every KPI, counter and histogram bucket
    /// as a JSON object. Wall-clock figures are included but, as
    /// everywhere else, only the deterministic fields feed the
    /// fingerprint.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("subscribers").u64(self.subscribers as u64);
        w.key("shards").u64(self.shards as u64);
        w.key("threads").u64(self.threads as u64);
        w.key("events").u64(self.events);
        w.key("sim_secs").f64(self.sim_secs);
        w.key("wall_secs").f64(self.wall.as_secs_f64());
        w.key("events_per_sec").f64(self.events_per_sec());
        w.key("fingerprint").hex64(self.fingerprint());
        w.key("kpis").begin_object();
        kpi::write_members(&mut w, &self.stats, |_| true);
        w.end();
        self.write_snapshots(&mut w);
        w.key("counters").begin_object();
        for (name, value) in self.stats.counters() {
            w.key(name).u64(value);
        }
        w.end();
        w.key("histograms").begin_object();
        for (name, hist) in self.stats.histograms() {
            w.key(name).begin_inline_object();
            w.key("count").u64(hist.count()).key("sum").f64(hist.sum());
            w.key("buckets").begin_inline_array();
            for (midpoint, count) in hist.nonzero_buckets() {
                w.begin_inline_array().f64(midpoint).u64(count).end();
            }
            w.end().end();
        }
        w.end().end();
        w.finish()
    }

    /// The `"snapshots"` member: cadence, stream fingerprint, every
    /// frame, and the end-of-run aggregate row.
    fn write_snapshots(&self, w: &mut JsonWriter) {
        w.key("snapshots").begin_object();
        w.key("cadence_secs").u64(self.snapshot_secs);
        w.key("fingerprint").hex64(self.snapshot_fingerprint());
        w.key("frames").begin_array();
        for frame in &self.snapshots {
            frame.write_json(w);
        }
        w.end();
        w.key("aggregate");
        self.snapshot_aggregate().write_json(w);
        w.end();
    }

    /// A standalone snapshot-stream document for `harness load
    /// --snapshots out.json`: run shape plus the time series, without
    /// the full counter/histogram dump. `per_shard` adds each shard's
    /// own (unmerged) series — the `--snapshots-per-shard` view for
    /// localizing a KPI excursion to the shard that produced it.
    pub fn snapshots_json(&self, per_shard: bool) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("subscribers").u64(self.subscribers as u64);
        w.key("shards").u64(self.shards as u64);
        w.key("sim_secs").f64(self.sim_secs);
        self.write_snapshots(&mut w);
        if per_shard {
            w.key("per_shard").begin_array();
            for (i, frames) in self.shard_snapshots.iter().enumerate() {
                w.begin_inline_object().key("shard").u64(i as u64);
                w.key("frames").begin_array();
                for frame in frames {
                    frame.write_json(&mut w);
                }
                w.end().end();
            }
            w.end();
        }
        w.key("fingerprint").hex64(self.fingerprint());
        w.end();
        w.finish()
    }

    /// The snapshot frame stream as CSV for `harness load
    /// --snapshots-csv`: one row per merged frame (shard `all`) plus,
    /// when `per_shard` is set, one row per shard per frame. Columns
    /// are the scalar KPIs every frame states followed by every schema
    /// counter, so the file round-trips into any spreadsheet or
    /// plotting tool.
    pub fn snapshots_csv(&self, per_shard: bool) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("shard,at_ms");
        let counters = SNAPSHOT_COUNTERS.iter().map(String::as_str);
        for name in kpi::shown_scalars().map(|k| k.path).chain(counters) {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        let mut row = |shard: &str, frame: &SnapshotFrame| {
            let _ = write!(out, "{shard},{}", frame.at_ms);
            for k in kpi::shown_scalars() {
                let _ = match k.scalar(frame) {
                    n if k.is_count() => write!(out, ",{}", n as u64),
                    x => write!(out, ",{}", JsonF64(x)),
                };
            }
            for v in &frame.counters {
                let _ = write!(out, ",{v}");
            }
            out.push('\n');
        };
        for frame in &self.snapshots {
            row("all", frame);
        }
        if per_shard {
            for (i, frames) in self.shard_snapshots.iter().enumerate() {
                let label = i.to_string();
                for frame in frames {
                    row(&label, frame);
                }
            }
        }
        out
    }

    /// FNV-1a over the deterministic rendering plus every merged
    /// counter and histogram bucket — the value two runs must share to
    /// be considered identical.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.render_deterministic().as_bytes());
        // Counters and histograms iterate in sorted (name) order.
        for (name, value) in self.stats.counters() {
            h.write(name.as_bytes());
            h.write_u64(value);
        }
        for (name, hist) in self.stats.histograms() {
            h.write(name.as_bytes());
            fingerprint_histogram(&mut h, hist);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_json_is_wellformed_for_an_empty_report() {
        let report = LoadReport::merge(0, 1, 60, &[], Duration::ZERO);
        let json = report.to_json();
        vgprs_sim::JsonValue::parse(&json).expect("an empty report still parses");
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"fingerprint\""));
        assert!(json.contains("\"mos\": 0.0"));
    }
}
