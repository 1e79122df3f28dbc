//! The KPI table: every key performance indicator, declared once.
//!
//! A row names a KPI by its path under the report's `"kpis"` object
//! (`attempts`, `trunk.retransmits`, `resilience.recovery_ms`), says
//! which counters or histograms it is computed from and how, which way
//! is better, and whether snapshot frames carry it. Everything else is
//! derived from the rows: the `kpis` JSON object and the frame objects
//! ([`write_members`]), the snapshot sampling schema and therefore the
//! snapshot fingerprint order ([`SNAPSHOT_COUNTERS`],
//! [`SNAPSHOT_HISTOGRAMS`]), the text report ([`render_text`]), the CSV
//! columns, `LoadReport::kpi` lookups and the direction `harness diff`
//! gates a path in ([`for_path`]).
//!
//! Rows are evaluated against a [`KpiSource`] — the merged `Stats` of a
//! run or one [`crate::SnapshotFrame`] — so each formula exists once
//! and an end-of-run frame reproduces the summary KPIs bit for bit.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::LazyLock;

use vgprs_media::{EModel, Vocoder};
use vgprs_sim::{Histogram, JsonWriter, Stats};

/// Which direction of movement `harness diff` counts as a regression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Growth beyond tolerance regresses (blocking, drops, delay).
    HigherIsWorse,
    /// Shrinkage beyond tolerance regresses (MOS, successes).
    LowerIsWorse,
}

/// Whether snapshot frames carry a KPI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Snapshot {
    /// Summary only.
    No,
    /// Frames sample the row's sources (they appear under a frame's
    /// raw `"counters"`), but the frame does not restate the KPI.
    Sampled,
    /// Sampled, and every frame (and CSV row) states the KPI itself.
    Shown,
}

type Names = &'static [&'static str];

/// How a KPI is computed. Counter and histogram names are `Stats`
/// keys; a `&str` operand is the path of another row.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// One counter.
    Count(&'static str),
    /// One count row minus another, saturating at zero.
    Diff(&'static str, &'static str),
    /// The summed counters over a count row; 0 when that row is 0.
    Ratio(Names, &'static str),
    /// `1 - received / sent`, clamped to `[0, 1]`; 0 when nothing was sent.
    Loss {
        /// Counters of units that arrived.
        received: Names,
        /// Counters of units that left.
        sent: Names,
    },
    /// A millisecond counter, in seconds.
    Secs(&'static str),
    /// Count, mean, p50 and p99 of the named histograms merged.
    Hist(Names),
    /// E-model MOS at a delay row's mean and a loss row's fraction.
    Mos {
        /// The one-way delay histogram row.
        delay: &'static str,
        /// The frame-loss row.
        loss: &'static str,
    },
}

/// One KPI.
#[derive(Clone, Copy, Debug)]
pub struct Kpi {
    /// Dotted path under the report's `"kpis"` object.
    pub path: &'static str,
    /// The formula and its sources.
    pub kind: Kind,
    /// Which way `harness diff` reads a change.
    pub direction: Direction,
    /// Snapshot-frame membership.
    pub snapshot: Snapshot,
    /// False for rows that are only operands of other rows or figures
    /// of the text report: they get no JSON member of their own.
    pub json: bool,
}

const fn row(path: &'static str, kind: Kind) -> Kpi {
    Kpi {
        path,
        kind,
        direction: Direction::HigherIsWorse,
        snapshot: Snapshot::No,
        json: true,
    }
}

const fn counter(path: &'static str, name: &'static str) -> Kpi {
    row(path, Kind::Count(name))
}

impl Kpi {
    const fn higher_is_better(mut self) -> Kpi {
        self.direction = Direction::LowerIsWorse;
        self
    }

    const fn sampled(mut self) -> Kpi {
        self.snapshot = Snapshot::Sampled;
        self
    }

    const fn shown(mut self) -> Kpi {
        self.snapshot = Snapshot::Shown;
        self
    }

    const fn hidden(mut self) -> Kpi {
        self.json = false;
        self
    }
}

/// Every KPI, in the order the report's `"kpis"` object lists them.
/// Adding a KPI is adding a row here (plus, optionally, a tolerance in
/// `vgprs_bench::diff::RULES` and a mention in the text report's `TEXT`).
pub const KPIS: &[Kpi] = &[
    row("attempts", Kind::Diff("offered", "busy_skipped")).shown(),
    row("blocking_rate", Kind::Ratio(&["bsc.tch_blocked"], "attempts")).shown(),
    // An ARJ is counted once, where the gatekeeper sends it (the VMSC's
    // `vmsc.admission_rejected` is the same ARJ received).
    row(
        "reject_rate",
        Kind::Ratio(
            &[
                "gk.admission_rejected_bandwidth",
                "gk.admission_rejected_unknown_alias",
            ],
            "attempts",
        ),
    )
    .shown(),
    row(
        "frame_loss",
        Kind::Loss {
            received: &["ms.voice_frames_received", "term.rtp_received"],
            sent: &["ms.voice_frames_sent", "term.rtp_sent"],
        },
    )
    .shown(),
    row("mos", Kind::Mos { delay: "voice_delay_ms", loss: "frame_loss" })
        .higher_is_better()
        .shown(),
    // End-to-end call-setup delay seen by the originators (mobile
    // post-dial delay plus the wireline terminals' for MT).
    row(
        "setup_delay_ms",
        Kind::Hist(&["ms.post_dial_delay_ms", "term.post_dial_delay_ms"]),
    )
    .shown(),
    row("paging_delay_ms", Kind::Hist(&["vmsc.paging_response_ms"])),
    row("pdp_activation_ms", Kind::Hist(&["vmsc.voice_pdp_activation_ms"])),
    row("voice_delay_ms", Kind::Hist(&["ms.voice_e2e_ms", "term.voice_e2e_ms"])).shown(),
    // Handover-complete on the target cell to the first downlink frame
    // arriving there.
    row("handoff_interruption_ms", Kind::Hist(&["load.handoff_interruption_ms"])).shown(),
    counter("handoff_attempts", "load.handoff_attempts").sampled(),
    // Completed the full Figure 9 ladder (the anchor acknowledged
    // `MAP Send End Signal`).
    counter("handoff_successes", "load.handoff_success")
        .higher_is_better()
        .sampled(),
    // Started a MAP dialogue but never closed it.
    row("handoff_drops", Kind::Diff("handoff_attempts", "handoff_successes")),
    // Downlink frames that chased the subscriber to a cell it had left.
    counter("handoff_frame_loss", "ms.ignored_stale_cell"),
    counter("hlr_relocations", "load.hlr_relocations"),
    // How each dial the driver placed ended: it connected, or it failed
    // for the cause its originating endpoint was released with.
    counter("outcome.connected", "load.connected").higher_is_better(),
    counter("outcome.blocked_tch", "load.failed_blocked_tch"),
    counter("outcome.rejected_gk", "load.failed_rejected_gk"),
    counter("outcome.callee_busy", "load.failed_callee_busy"),
    counter("outcome.page_timeout", "load.failed_page_timeout"),
    counter("outcome.shed", "load.failed_shed"),
    counter("outcome.setup_timeout", "load.failed_setup_timeout"),
    counter("outcome.refused", "load.failed_refused"),
    counter("resilience.faults_injected", "load.faults_injected").sampled(),
    // Dials that failed inside a fault window of each class
    // (`vgprs_faults::FaultClass::key`), whatever the release cause.
    counter("resilience.dropped_link_degrade", "load.dropped_link_degrade").sampled(),
    counter("resilience.dropped_node_crash", "load.dropped_node_crash").sampled(),
    counter("resilience.dropped_blackhole", "load.dropped_blackhole").sampled(),
    counter("resilience.ras_retries", "vmsc.ras_retries"),
    counter("resilience.arq_retries", "vmsc.arq_retries"),
    counter("resilience.redial_attempts", "load.redial_attempts"),
    counter("resilience.redials_exhausted", "load.redials_exhausted"),
    // First failure to verified recovery, across all three recovery
    // ladders (RAS re-registration, ARQ re-admission, and a caller's
    // redial after a dial a fault window overlapped).
    row(
        "resilience.recovery_ms",
        Kind::Hist(&[
            "vmsc.ras_recovery_ms",
            "vmsc.arq_recovery_ms",
            "load.redial_recovery_ms",
        ]),
    ),
    row(
        "resilience.unavailability_secs.link_degrade",
        Kind::Secs("load.unavailability_ms_link_degrade"),
    ),
    row(
        "resilience.unavailability_secs.node_crash",
        Kind::Secs("load.unavailability_ms_node_crash"),
    ),
    row(
        "resilience.unavailability_secs.blackhole",
        Kind::Secs("load.unavailability_ms_blackhole"),
    ),
    counter("overload.pages_throttled", "vmsc.pages_throttled").sampled(),
    counter("overload.pages_shed", "vmsc.pages_shed").sampled(),
    counter("overload.gk_admission_shed", "gk.admission_shed").sampled(),
    // Congestion ARJs the VMSC absorbed into the ARQ retry ladder.
    counter("overload.gk_shed_deferred", "vmsc.admission_shed_deferred"),
    counter("overload.pdp_deferred", "sgsn.pdp_admission_deferred").sampled(),
    counter("overload.pdp_rejected", "sgsn.pdp_admission_rejected").sampled(),
    // Delay the overload controls added to admitted work: paging
    // throttle deferral plus SGSN admission queueing.
    row(
        "overload.admission_delay_ms",
        Kind::Hist(&["vmsc.paging_throttle_delay_ms", "sgsn.pdp_admission_delay_ms"]),
    ),
    // Attempts issued in peak / steady-state demand segments (both zero
    // on a flat-demand run, where attribution is off), and the fraction
    // of each that failed.
    counter("overload.attempts_peak", "load.attempts_peak"),
    counter("overload.attempts_steady", "load.attempts_steady"),
    row(
        "overload.peak_drop_rate",
        Kind::Ratio(&["load.dropped_peak"], "overload.attempts_peak"),
    ),
    row(
        "overload.steady_drop_rate",
        Kind::Ratio(&["load.dropped_steady"], "overload.attempts_steady"),
    ),
    counter("trunk.retransmits", "trunk.retransmits"),
    counter("trunk.dup_drops", "trunk.dup_drops"),
    counter("trunk.expired", "trunk.expired"),
    counter("trunk.drops_partition", "trunk.drops_partition"),
    counter("trunk.drops_loss", "trunk.drops_loss"),
    counter("trunk.dup_injected", "trunk.dup_injected"),
    counter("trunk.reordered", "trunk.reordered"),
    counter("trunk.acks_dropped", "trunk.acks_dropped"),
    // Voice frames written off because their trunk flit expired.
    counter("trunk.frame_drops", "load.trunk_frame_drops").sampled(),
    // Mid-ladder handoffs a partition killed (supervised teardown,
    // Q.850 cause 102).
    counter("trunk.handoff_drops", "load.trunk_handoff_drops").sampled(),
    counter("trunk.q850_102", "load.trunk_q850_102"),
    counter("trunk.visitor_drops", "load.trunk_visitor_drops"),
    counter("trunk.signal_drops", "load.trunk_signal_drops"),
    counter("trunk.mobility_reverts", "load.trunk_mobility_reverts"),
    counter("trunk.heals", "trunk.heals"),
    // Stranded movers re-routed to their home anchor after a heal.
    counter("trunk.reroutes", "load.trunk_reroutes").sampled(),
    // How far ahead of the next expected sequence number a flit landed.
    row("trunk.reorder_depth", Kind::Hist(&["trunk.reorder_depth"])),
    row("trunk.heal_recovery_ms", Kind::Hist(&["load.heal_recovery_ms"])).sampled(),
    // The delivery census: messages a queued event handed to a node,
    // and voice frames cut through a pure relay without one. The
    // `sim.delivered.<iface>` / `sim.relayed.<iface>` counters split
    // both by interface.
    counter("sim.delivered", "sim.delivered"),
    counter("sim.relayed", "sim.relayed"),
    counter("offered", "load.attempts").hidden(),
    counter("busy_skipped", "load.busy_skipped").hidden(),
    counter("registered", "load.registered").hidden(),
    counter("mobile_legs", "ms.calls_connected").hidden(),
    counter("wireline_legs", "term.calls_connected").hidden(),
    counter("reselections", "load.moves").hidden(),
    counter("in_call_handoffs", "ms.handoffs").hidden(),
];

/// The text report below its `population` line: a label and a template
/// per line. `{expr}` prints an integer, `{expr:N}` N decimals,
/// `{expr:%}` a fraction as a percentage with three decimals, and
/// `{path:summary}` a histogram row as `p50 … ms, p99 … ms (n=…)`;
/// `expr` is whatever [`value`] accepts. Every line is rendered
/// unconditionally (all zeros when a fault, trunk or surge plan is off)
/// so the report shape — which the run fingerprint covers — never
/// depends on the configuration.
const TEXT: &[(&str, &str)] = &[
    ("registered", "{registered}"),
    ("call attempts", "{attempts} (+{busy_skipped} suppressed: caller busy)"),
    ("connected", "{mobile_legs} mobile legs, {wireline_legs} wireline legs"),
    ("blocking rate", "{blocking_rate:%}% (TCH), reject rate {reject_rate:%}% (H.323)"),
    (
        "dial outcomes",
        "{outcome.connected} connected; failed: {outcome.blocked_tch} blocked (TCH), \
         {outcome.rejected_gk} rejected (GK), {outcome.callee_busy} callee busy, \
         {outcome.page_timeout} page timeout, {outcome.shed} shed, \
         {outcome.setup_timeout} setup timeout, {outcome.refused} refused",
    ),
    ("call-setup delay", "{setup_delay_ms:summary}"),
    ("paging latency", "{paging_delay_ms:summary}"),
    ("voice-PDP activation", "{pdp_activation_ms:summary}"),
    (
        "voice one-way delay",
        "mean {voice_delay_ms.mean:1} ms, p99 {voice_delay_ms.p99:1} ms (n={voice_delay_ms.count})",
    ),
    ("voice frame loss", "{frame_loss:%}%"),
    ("mean MOS", "{mos:2}"),
    ("mobility", "{reselections} reselections, {in_call_handoffs} in-call handoffs"),
    (
        "cross-shard handoffs",
        "{handoff_attempts} attempted, {handoff_successes} completed, {handoff_drops} dropped",
    ),
    ("handoff interruption", "{handoff_interruption_ms:summary}"),
    ("handoff frame loss", "{handoff_frame_loss} frames at stale cells"),
    ("HLR relocations", "{hlr_relocations}"),
    (
        "trunk chaos",
        "{trunk.drops_partition+trunk.drops_loss} lost ({trunk.drops_partition} partition), \
         {trunk.dup_injected} duplicated, {trunk.reordered} reordered, \
         {trunk.acks_dropped} acks dropped",
    ),
    (
        "trunk recovery",
        "{trunk.retransmits} retransmits, {trunk.dup_drops} dup drops, {trunk.expired} expired; \
         reorder depth p99 {trunk.reorder_depth.p99:1} (n={trunk.reorder_depth.count})",
    ),
    (
        "trunk casualties",
        "{trunk.handoff_drops} handoff teardowns (q850 102), {trunk.frame_drops} voice expiries, \
         {trunk.mobility_reverts} mobility reverts",
    ),
    (
        "trunk heal",
        "{trunk.heals} heals, {trunk.reroutes} re-routes; recovery {trunk.heal_recovery_ms:summary}",
    ),
    (
        "faults injected",
        "{resilience.faults_injected} (unavailability: \
         link {resilience.unavailability_secs.link_degrade:1} s, \
         crash {resilience.unavailability_secs.node_crash:1} s, \
         blackhole {resilience.unavailability_secs.blackhole:1} s)",
    ),
    (
        "calls dropped",
        "{resilience.dropped_link_degrade} link-degrade, {resilience.dropped_node_crash} node-crash, \
         {resilience.dropped_blackhole} blackhole",
    ),
    ("recovery time", "{resilience.recovery_ms:summary}"),
    (
        "retries",
        "{resilience.ras_retries} RRQ, {resilience.arq_retries} ARQ, \
         {resilience.redial_attempts} redials ({resilience.redials_exhausted} exhausted)",
    ),
    (
        "overload sheds",
        "{overload.pages_throttled} pages throttled, {overload.pages_shed} pages shed, \
         {overload.gk_admission_shed} GK ARJ ({overload.gk_shed_deferred} deferred to retry)",
    ),
    (
        "PDP admission",
        "{overload.pdp_deferred} deferred, {overload.pdp_rejected} rejected; \
         delay {overload.admission_delay_ms:summary}",
    ),
    (
        "surge drop rate",
        "peak {overload.peak_drop_rate:%}% ({overload.attempts_peak} attempts), \
         steady {overload.steady_drop_rate:%}% ({overload.attempts_steady} attempts)",
    ),
];

/// Where KPI rows read their inputs.
pub trait KpiSource {
    /// The named counter; 0 when it was never touched.
    fn counter(&self, name: &str) -> u64;
    /// The named histograms merged into one (absent names are empty).
    fn histogram(&self, names: &[&str]) -> Histogram;
}

impl KpiSource for Stats {
    fn counter(&self, name: &str) -> u64 {
        Stats::counter(self, name)
    }

    fn histogram(&self, names: &[&str]) -> Histogram {
        let mut out = Histogram::new();
        for h in names.iter().filter_map(|n| Stats::histogram(self, n)) {
            out.merge(h);
        }
        out
    }
}

/// The row with exactly this path.
///
/// # Panics
///
/// Panics on an unknown path: KPI names are compile-time literals, so
/// a miss is a typo, not a run-time condition.
pub fn find(path: &str) -> &'static Kpi {
    KPIS.iter()
        .find(|k| k.path == path)
        .unwrap_or_else(|| panic!("no KPI row named {path:?}"))
}

impl Kpi {
    /// True for rows whose value is an event count (a JSON integer).
    pub fn is_count(&self) -> bool {
        matches!(self.kind, Kind::Count(_) | Kind::Diff(..))
    }

    /// The row's value against `src`; counts convert to `f64` exactly.
    ///
    /// # Panics
    ///
    /// Panics on a histogram row, which has no single value.
    pub fn scalar(&self, src: &impl KpiSource) -> f64 {
        let sum = |names: Names| names.iter().map(|n| src.counter(n)).sum::<u64>() as f64;
        let of = |path: &str| find(path).scalar(src);
        match self.kind {
            Kind::Count(name) => src.counter(name) as f64,
            Kind::Diff(a, b) => (of(a) - of(b)).max(0.0),
            Kind::Ratio(num, den) => ratio(sum(num), of(den)),
            Kind::Loss { received, sent } => {
                // Both sides are read even when nothing was sent: the
                // snapshot schema is found by watching what rows read.
                let (received, sent) = (sum(received), sum(sent));
                if sent == 0.0 {
                    0.0
                } else {
                    1.0 - (received / sent).min(1.0)
                }
            }
            Kind::Secs(name) => src.counter(name) as f64 / 1000.0,
            Kind::Mos { delay, loss } => {
                let delay = find(delay).hist(src);
                score_mos(delay.count(), delay.mean(), of(loss))
            }
            Kind::Hist(_) => panic!("KPI {:?} is a histogram: name a statistic", self.path),
        }
    }

    /// The merged histogram of a [`Kind::Hist`] row.
    ///
    /// # Panics
    ///
    /// Panics on any other kind of row.
    pub fn hist(&self, src: &impl KpiSource) -> Histogram {
        match self.kind {
            Kind::Hist(names) => src.histogram(names),
            _ => panic!("KPI {:?} is not a histogram", self.path),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// E-model MOS (GSM full-rate codec) for a mean one-way voice delay,
/// taken mouth to ear, and a frame-loss fraction. Returns 0.0 when no
/// voice was sampled.
fn score_mos(delay_count: u64, mean_delay_ms: f64, loss: f64) -> f64 {
    if delay_count == 0 {
        return 0.0;
    }
    let model = EModel::for_codec(&Vocoder::gsm_full_rate());
    model.mos(model.mouth_to_ear(mean_delay_ms), loss)
}

/// A source that answers zero and records what it was asked for.
#[derive(Default)]
struct Probe {
    counters: RefCell<Vec<String>>,
    histograms: RefCell<Vec<String>>,
}

impl KpiSource for Probe {
    fn counter(&self, name: &str) -> u64 {
        self.counters.borrow_mut().push(name.to_owned());
        0
    }

    fn histogram(&self, names: &[&str]) -> Histogram {
        let names = names.iter().map(|n| (*n).to_owned());
        self.histograms.borrow_mut().extend(names);
        Histogram::new()
    }
}

/// The sorted counter and histogram names the rows marked for
/// snapshots read — found by evaluating them, so the formulas stay the
/// only statement of what a row reads.
fn schema() -> [Vec<String>; 2] {
    let probe = Probe::default();
    for k in KPIS.iter().filter(|k| k.snapshot != Snapshot::No) {
        match k.kind {
            Kind::Hist(_) => drop(k.hist(&probe)),
            _ => drop(k.scalar(&probe)),
        }
    }
    [probe.counters, probe.histograms].map(|names| {
        let mut names = names.into_inner();
        names.sort_unstable();
        names.dedup();
        names
    })
}

/// Counters every snapshot frame samples, in schema (name) order: the
/// sources of every row marked [`Snapshot::Sampled`] or
/// [`Snapshot::Shown`]. Derived from the table, never from what a run
/// happened to touch, so the frame layout is fixed — it is the order
/// the snapshot fingerprint folds values in.
pub static SNAPSHOT_COUNTERS: LazyLock<Vec<String>> = LazyLock::new(|| {
    let [counters, _] = schema();
    counters
});

/// Histograms every snapshot frame samples, in schema (name) order.
pub static SNAPSHOT_HISTOGRAMS: LazyLock<Vec<String>> = LazyLock::new(|| {
    let [_, histograms] = schema();
    histograms
});

/// A number for an expression over KPI paths: `path`, or a histogram
/// row's `path.count` / `.mean` / `.p50` / `.p99` (the leaf paths of
/// the `"kpis"` JSON object), summed with `+`, optionally over one
/// `/ divisor` (0 when the divisor is 0). Counts convert exactly.
///
/// # Panics
///
/// Panics when a term names no row or statistic.
pub fn value(src: &impl KpiSource, expr: &str) -> f64 {
    let leaf = |term: &str| {
        if let Some(k) = KPIS.iter().find(|k| k.path == term) {
            return k.scalar(src);
        }
        let (path, stat) = term.rsplit_once('.').unwrap_or((term, ""));
        let h = find(path).hist(src);
        match stat {
            "count" => h.count() as f64,
            "mean" => h.mean(),
            "p50" => h.percentile(50.0),
            "p99" => h.percentile(99.0),
            _ => panic!("KPI {path:?} has no statistic {stat:?}"),
        }
    };
    let (num, den) = match expr.split_once('/') {
        Some((num, den)) => (num, Some(leaf(den))),
        None => (expr, None),
    };
    let sum: f64 = num.split('+').map(leaf).sum();
    den.map_or(sum, |den| ratio(sum, den))
}

/// Writes the rows `keep` selects as members of the object open in
/// `w`, in table order: a dotted path opens nested objects (the first
/// level block, deeper ones inline), counts print as integers, rates as
/// floats, histograms as an inline `{count, mean, p50, p99}`.
pub fn write_members(w: &mut JsonWriter, src: &impl KpiSource, keep: impl Fn(&Kpi) -> bool) {
    let mut open: Vec<&str> = Vec::new();
    for k in KPIS.iter().filter(|k| k.json && keep(k)) {
        let (groups, name) = k.path.rsplit_once('.').unwrap_or(("", k.path));
        let groups = || groups.split('.').filter(|g| !g.is_empty());
        let shared = open.iter().zip(groups()).take_while(|(a, b)| *a == b).count();
        for _ in open.drain(shared..) {
            w.end();
        }
        for g in groups().skip(shared) {
            w.key(g);
            if open.is_empty() {
                w.begin_object();
            } else {
                w.begin_inline_object();
            }
            open.push(g);
        }
        w.key(name);
        if let Kind::Hist(_) = k.kind {
            let h = k.hist(src);
            w.begin_inline_object();
            w.key("count").u64(h.count()).key("mean").f64(h.mean());
            w.key("p50").f64(h.percentile(50.0)).key("p99").f64(h.percentile(99.0));
            w.end();
        } else if k.is_count() {
            w.u64(k.scalar(src) as u64);
        } else {
            w.f64(k.scalar(src));
        }
    }
    for _ in open {
        w.end();
    }
}

/// The scalar rows every snapshot frame states: the CSV's KPI columns.
pub(crate) fn shown_scalars() -> impl Iterator<Item = &'static Kpi> {
    KPIS.iter()
        .filter(|k| k.snapshot == Snapshot::Shown && !matches!(k.kind, Kind::Hist(_)))
}

/// The lines of the deterministic text report, one per `TEXT` template.
pub fn render_text(out: &mut String, src: &impl KpiSource) {
    for (label, template) in TEXT {
        let _ = write!(out, "{label:<22}: ");
        let mut rest = *template;
        while let Some((before, tail)) = rest.split_once('{') {
            out.push_str(before);
            let (hole, after) = tail.split_once('}').expect("template braces balance");
            rest = after;
            let (expr, spec) = hole.split_once(':').unwrap_or((hole, "0"));
            let _ = match spec {
                "summary" => {
                    let h = find(expr).hist(src);
                    write!(
                        out,
                        "p50 {:.1} ms, p99 {:.1} ms (n={})",
                        h.percentile(50.0),
                        h.percentile(99.0),
                        h.count()
                    )
                }
                "%" => write!(out, "{:.3}", value(src, expr) * 100.0),
                places => {
                    let places: usize = places.parse().expect("decimal places");
                    write!(out, "{:.places$}", value(src, expr))
                }
            };
        }
        out.push_str(rest);
        out.push('\n');
    }
}

/// True when `key` occurs in the dotted `path` as a run of whole
/// segments (`mos` in `snapshots.frames.3.mos`, not in `kpis.mosaic`).
pub fn has_run(path: &str, key: &str) -> bool {
    path.match_indices(key).any(|(at, _)| {
        let end = at + key.len();
        (at == 0 || path.as_bytes()[at - 1] == b'.')
            && (end == path.len() || path.as_bytes()[end] == b'.')
    })
}

/// The row governing a dotted path of a report or `BENCH_*.json` dump:
/// the longest row path — or, for a frame's raw counters, the name of a
/// row's sole counter — that occurs in it as a run of whole segments.
pub fn for_path(path: &str) -> Option<&'static Kpi> {
    let matched = |k: &Kpi| {
        let source = match k.kind {
            Kind::Count(name) => name,
            _ => k.path,
        };
        [k.path, source]
            .into_iter()
            .filter(|key| has_run(path, key))
            .map(str::len)
            .max()
    };
    KPIS.iter()
        .filter(|k| k.json)
        .filter_map(|k| matched(k).map(|len| (len, k)))
        .max_by_key(|(len, _)| *len)
        .map(|(_, k)| k)
}
