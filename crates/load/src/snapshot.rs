//! Periodic in-sim KPI snapshots: the observability layer.
//!
//! A [`SnapshotRecorder`] rides inside each shard and, every
//! `snapshot_secs` of *simulated* time, samples a fixed schema of
//! counters and histograms ([`SNAPSHOT_COUNTERS`],
//! [`SNAPSHOT_HISTOGRAMS`] — derived from the KPI table in
//! [`crate::kpi`]) into a [`SnapshotFrame`]. Frames are
//! **cumulative** — each one is the run-so-far view at its boundary —
//! so the recorder never stores window state.
//!
//! Determinism: shards advance in epoch lockstep (every shard runs
//! every epoch the engine runs, and the engine skips only epochs in
//! which no shard has work), so the stats a shard holds at a given
//! epoch boundary are a function of the configuration and seed alone —
//! never of kernel choice. Sampling happens at epoch ends, and a shard
//! catching up across skipped epochs samples the boundaries it passed,
//! with the stats it held all along. A frame's `at_ms` is the *nominal*
//! cadence boundary it covers, so frames from different shards align
//! index-for-index and merge by simple pairwise addition.
//!
//! Memory: a frame stores `Vec<u64>` counters plus the schema's
//! [`Histogram`]s (each only its occupied span of buckets), not full
//! `Stats` clones.

use vgprs_sim::{Fnv1a, Histogram, JsonWriter, Stats};

use crate::kpi::{self, KpiSource, Snapshot};
pub use crate::kpi::{SNAPSHOT_COUNTERS, SNAPSHOT_HISTOGRAMS};

/// One cumulative KPI sample: the run-so-far counters and histograms
/// at a cadence boundary, in [`SNAPSHOT_COUNTERS`] /
/// [`SNAPSHOT_HISTOGRAMS`] order.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotFrame {
    /// The nominal cadence boundary this frame covers, in simulated
    /// milliseconds from the shard's busy-hour t0.
    pub at_ms: u64,
    /// Sampled counter values, one per [`SNAPSHOT_COUNTERS`] entry.
    pub counters: Vec<u64>,
    /// Sampled histograms, one per [`SNAPSHOT_HISTOGRAMS`] entry
    /// (empty when the run never touched the name).
    pub histograms: Vec<Histogram>,
}

impl SnapshotFrame {
    /// Samples the schema out of `stats` at boundary `at_ms`.
    pub fn sample(at_ms: u64, stats: &Stats) -> SnapshotFrame {
        SnapshotFrame {
            at_ms,
            counters: SNAPSHOT_COUNTERS
                .iter()
                .map(|name| stats.counter(name))
                .collect(),
            histograms: SNAPSHOT_HISTOGRAMS
                .iter()
                .map(|name| stats.histogram(name).cloned().unwrap_or_default())
                .collect(),
        }
    }

    /// Folds another shard's frame for the same boundary into this one.
    pub fn merge(&mut self, other: &SnapshotFrame) {
        debug_assert_eq!(self.at_ms, other.at_ms, "merging misaligned frames");
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.histograms.iter_mut().zip(&other.histograms) {
            a.merge(b);
        }
    }

    /// Folds this frame into an FNV-1a accumulator: boundary, counter
    /// values, and every histogram's count/sum/occupied buckets.
    pub fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_u64(self.at_ms);
        for &v in &self.counters {
            h.write_u64(v);
        }
        for hist in &self.histograms {
            fingerprint_histogram(h, hist);
        }
    }

    /// Writes the frame as a JSON object: the KPI rows marked
    /// [`Snapshot::Shown`] plus the raw sampled counters, so `harness
    /// diff` can gate both views.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object().key("at_ms").u64(self.at_ms);
        kpi::write_members(w, self, |k| k.snapshot == Snapshot::Shown);
        w.key("counters").begin_inline_object();
        for (name, &value) in SNAPSHOT_COUNTERS.iter().zip(&self.counters) {
            w.key(name).u64(value);
        }
        w.end().end();
    }
}

/// A frame answers for the schema it sampled: names outside it (the
/// sources of KPI rows not marked for snapshots) read as zero / empty.
impl KpiSource for SnapshotFrame {
    fn counter(&self, name: &str) -> u64 {
        let at = SNAPSHOT_COUNTERS.iter().position(|n| n == name);
        at.map_or(0, |i| self.counters[i])
    }

    fn histogram(&self, names: &[&str]) -> Histogram {
        let mut out = Histogram::new();
        for name in names {
            if let Some(i) = SNAPSHOT_HISTOGRAMS.iter().position(|n| n == name) {
                out.merge(&self.histograms[i]);
            }
        }
        out
    }
}

/// Folds one histogram into a fingerprint: count, sum, then every
/// occupied bucket's midpoint and count, in value order.
pub(crate) fn fingerprint_histogram(h: &mut Fnv1a, hist: &Histogram) {
    h.write_u64(hist.count());
    h.write_f64(hist.sum());
    for (midpoint, n) in hist.nonzero_buckets() {
        h.write_f64(midpoint);
        h.write_u64(n);
    }
}

/// Samples [`SnapshotFrame`]s on a fixed sim-time cadence. The shard
/// calls [`SnapshotRecorder::observe`] at every epoch end it runs, and
/// once at the end of a stretch of epochs the engine skipped; the
/// recorder emits one frame per elapsed cadence boundary.
#[derive(Clone, Debug)]
pub struct SnapshotRecorder {
    cadence_ms: u64,
    next_ms: u64,
    frames: Vec<SnapshotFrame>,
}

impl SnapshotRecorder {
    /// A recorder sampling every `snapshot_secs` of simulated time;
    /// `0` disables sampling entirely.
    pub fn new(snapshot_secs: u64) -> SnapshotRecorder {
        let cadence_ms = snapshot_secs * 1000;
        SnapshotRecorder {
            cadence_ms,
            next_ms: cadence_ms,
            frames: Vec::new(),
        }
    }

    /// Notes that simulated time has reached `now_ms` (relative to the
    /// busy-hour t0) and samples every cadence boundary passed since
    /// the last call. The frame records the *boundary's* timestamp but
    /// samples the *current* stats — at an epoch end, which is the same
    /// instant for every shard, so the series is kernel-invariant.
    pub fn observe(&mut self, now_ms: u64, stats: &Stats) {
        if self.cadence_ms == 0 {
            return;
        }
        while self.next_ms <= now_ms {
            self.frames.push(SnapshotFrame::sample(self.next_ms, stats));
            self.next_ms += self.cadence_ms;
        }
    }

    /// The recorded series, consumed at shard seal time.
    pub fn into_frames(self) -> Vec<SnapshotFrame> {
        self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(pairs: &[(&str, u64)], obs: &[(&str, f64)]) -> Stats {
        let mut s = Stats::new();
        for &(name, v) in pairs {
            // The schema uses interned &'static str names; tests go
            // through the same string API the shards use.
            s.count_by(name, v);
        }
        for &(name, x) in obs {
            s.observe(name, x);
        }
        s
    }

    #[test]
    fn sample_follows_the_schema_order() {
        let s = stats_with(
            &[("load.attempts", 10), ("bsc.tch_blocked", 2)],
            &[("ms.voice_e2e_ms", 55.0)],
        );
        let frame = SnapshotFrame::sample(60_000, &s);
        assert_eq!(frame.counters.len(), SNAPSHOT_COUNTERS.len());
        assert_eq!(frame.histograms.len(), SNAPSHOT_HISTOGRAMS.len());
        assert_eq!(frame.counter("load.attempts"), 10);
        assert_eq!(frame.counter("bsc.tch_blocked"), 2);
        assert_eq!(frame.counter("vmsc.pages_shed"), 0);
        assert_eq!(kpi::value(&frame, "voice_delay_ms.count"), 1.0);
        assert_eq!(kpi::value(&frame, "setup_delay_ms.count"), 0.0);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let a = stats_with(&[("load.attempts", 4)], &[("ms.voice_e2e_ms", 50.0)]);
        let b = stats_with(&[("load.attempts", 6)], &[("term.voice_e2e_ms", 70.0)]);
        let mut fa = SnapshotFrame::sample(60_000, &a);
        let fb = SnapshotFrame::sample(60_000, &b);
        fa.merge(&fb);
        assert_eq!(fa.counter("load.attempts"), 10);
        let voice = kpi::find("voice_delay_ms").hist(&fa);
        assert_eq!(voice.count(), 2);
        assert_eq!(voice.sum(), 120.0);
    }

    #[test]
    fn recorder_emits_one_frame_per_boundary() {
        let s = Stats::new();
        let mut rec = SnapshotRecorder::new(60);
        rec.observe(50, &s); // epoch ends before the first boundary
        rec.observe(60_000, &s); // exactly on it
        rec.observe(185_000, &s); // skips past two more at once
        let frames = rec.into_frames();
        let at: Vec<u64> = frames.iter().map(|f| f.at_ms).collect();
        assert_eq!(at, vec![60_000, 120_000, 180_000]);
    }

    #[test]
    fn recorder_with_zero_cadence_is_inert() {
        let s = Stats::new();
        let mut rec = SnapshotRecorder::new(0);
        rec.observe(1_000_000, &s);
        assert!(rec.into_frames().is_empty());
    }

    #[test]
    fn frame_json_is_wellformed() {
        let s = stats_with(&[("load.attempts", 3)], &[("ms.voice_e2e_ms", 55.0)]);
        let frame = SnapshotFrame::sample(60_000, &s);
        let mut w = JsonWriter::new();
        frame.write_json(&mut w);
        let doc = vgprs_sim::JsonValue::parse(&w.finish()).expect("frame JSON parses");
        assert_eq!(doc.get("at_ms").and_then(|v| v.as_f64()), Some(60_000.0));
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("load.attempts"))
                .and_then(|v| v.as_f64()),
            Some(3.0)
        );
    }
}
