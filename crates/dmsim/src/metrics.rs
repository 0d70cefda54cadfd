//! Always-on runtime metrics and the cost-model auditor.
//!
//! [`MetricsRegistry`] is the aggregated, production-facing sibling of the
//! flight recorder ([`TraceSink`](crate::trace::TraceSink)): where the
//! tracer keeps raw per-lane event rings for post-mortem timelines, the
//! registry keeps *aggregates* — monotonic counters and fixed-bucket log2
//! latency histograms — cheap enough to leave on in steady state and scrape
//! from a long-running job.
//!
//! # Layout
//!
//! The registry is a fixed, preallocated array of per-lane shards — one per
//! pool lane plus one for the driver thread (stored last) — held in
//! `LaneCells` (the crate's one lock-free cell module, `cells.rs`), whose
//! docs state the one-writer-per-lane discipline that lets writes be plain
//! (non-atomic) array increments. Events for lanes outside the allocated
//! range are *not* folded into another shard; they bump
//! [`lane_events_lost`](MetricsRegistry::lane_events_lost) instead, exactly
//! as the flight recorder's rings do. The auditor's state is driver-only
//! and sits behind a plain, never contended `Mutex`.
//!
//! The registry is fed only through the machine's probe (`probe.rs`), from
//! the same hooks as the flight recorder; which counter and histogram an
//! event feeds is stated once, in
//! [`TraceEventKind::pairing`](crate::trace::TraceEventKind). The probe owns
//! the hook contract too — disabled is one branch, recording allocates
//! nothing, and a metered run is bit-identical to a bare one (values,
//! modeled clock bits, `CommStats`): `tests/observer_identity.rs` asserts
//! it on both engines.
//!
//! # Histograms
//!
//! Span durations land in log2 nanosecond buckets: bucket 0 holds 0 ns,
//! bucket `i` holds `[2^(i-1), 2^i)` ns, and the last bucket is unbounded.
//! Each histogram cell is keyed by span kind × [`PhaseKind`], so an
//! executor-phase kernel stage is distinguishable from an inspector one.
//! The engine is not a key: a registry meters the engine it is installed
//! on, and a recovery's switch to the sequential oracle is counted in
//! [`Counter::Degrades`].
//!
//! # The cost-model auditor
//!
//! The machine credits modeled critical-path seconds to the outgoing
//! [`PhaseKind`] every time the driver switches kinds; the registry rides
//! that same sampling point, pairing each modeled delta `x` with the wall
//! delta `y` the driver actually spent. Per kind it accumulates the moments
//! `(n, Σx, Σy, Σxx, Σxy, Σyy)`, from which [`AuditReport`] derives:
//!
//! * **drift** `Σy / Σx` — bulk wall-per-modeled ratio,
//! * **slope** `Σxy / Σxx` — the through-origin least-squares fit,
//! * **residual rms** `√((Σyy − 2·slope·Σxy + slope²·Σxx) / n)` — how far
//!   samples scatter around that fit.
//!
//! The report sorts worst offender first (largest `|ln drift|`), which is
//! the per-phase-kind baseline a future real-transport backend will be
//! validated against (see ROADMAP).
//!
//! # Exposition surfaces
//!
//! [`MetricsRegistry::snapshot`] aggregates the shards (and the audit, as
//! [`MetricsSnapshot::audit`]) into a [`MetricsSnapshot`], which exposes two
//! read-side surfaces:
//!
//! 1. [`MetricsSnapshot::prometheus_text`] — Prometheus text exposition, the
//!    machine-readable scrape,
//! 2. `Display` on [`MetricsSnapshot`] / [`AuditReport`] — human-readable
//!    counter and audit tables.
//!
//! The flight recorder's health (ring drops by cause) is read from the
//! trace itself, not mirrored here.
//!
//! Take snapshots at quiescent points (between backend regions, or after a
//! run) — the shards are being written lock-free while a region is in
//! flight.

use crate::cells::LaneCells;
use crate::probe::Lane;
use crate::stats::PhaseKind;
use std::fmt;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Number of log2 buckets per histogram (bucket 0 = 0 ns, last unbounded).
pub const HIST_BUCKETS: usize = 32;

/// Which stage of a backend region a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One rank's kernel (compute / pack / unpack fan-out work).
    Kernel,
    /// A lane's combine stage of a fused sweep: one scatter buffer over the
    /// lane's whole stripe of ranks.
    Combine,
    /// A lane waiting on the stage barrier.
    BarrierWait,
    /// The driver replaying charge ledgers.
    Replay,
}

impl SpanKind {
    /// Every span kind, in dense-index order.
    pub const ALL: [SpanKind; 4] = [
        SpanKind::Kernel,
        SpanKind::Combine,
        SpanKind::BarrierWait,
        SpanKind::Replay,
    ];

    /// Dense index within [`SpanKind::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Prometheus-friendly label.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Kernel => "kernel",
            SpanKind::Combine => "combine",
            SpanKind::BarrierWait => "barrier_wait",
            SpanKind::Replay => "replay",
        }
    }
}

/// The monotonic event counters a shard keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// Machine epoch advances (one per backend region / fused sweep).
    Epochs,
    /// Rank-kernel invocations (compute, pack fan-out, unpack).
    KernelRuns,
    /// Rank combine-stage invocations of fused sweeps.
    CombineRuns,
    /// Driver-side charge-ledger replays.
    ReplayRuns,
    /// Barrier synchronisations a pool lane took part in: its arrival at
    /// the completion barrier of every release, plus each fused-sweep stage
    /// barrier it crossed.
    BarrierWaits,
    /// Pool worker releases (one per lane per broadcast job).
    WorkerReleases,
    /// Pool worker releases that had parked (futex/condvar wake, not spin).
    WorkerParks,
    /// Recovery checkpoint refreshes.
    CheckpointRefreshes,
    /// Injected faults fired (counted at the injection point, including
    /// fires inside regions that subsequently roll back).
    FaultsFired,
    /// Same-phase retry attempts taken by the recovery driver.
    RetryAttempts,
    /// Rollbacks to the last epoch checkpoint.
    Rollbacks,
    /// Engine degradations to the sequential oracle.
    Degrades,
    /// Phase errors diagnosed (typed and stamped into the recorders).
    ErrorsDiagnosed,
    /// Point-to-point messages charged through closed phases.
    PackMessages,
    /// Payload bytes charged through closed phases.
    PackBytes,
}

impl Counter {
    /// Every counter, in dense-index order.
    pub const ALL: [Counter; 15] = [
        Counter::Epochs,
        Counter::KernelRuns,
        Counter::CombineRuns,
        Counter::ReplayRuns,
        Counter::BarrierWaits,
        Counter::WorkerReleases,
        Counter::WorkerParks,
        Counter::CheckpointRefreshes,
        Counter::FaultsFired,
        Counter::RetryAttempts,
        Counter::Rollbacks,
        Counter::Degrades,
        Counter::ErrorsDiagnosed,
        Counter::PackMessages,
        Counter::PackBytes,
    ];

    /// Dense index within [`Counter::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Prometheus-friendly metric stem (`chaos_<name>_total`).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Epochs => "epochs",
            Counter::KernelRuns => "kernel_runs",
            Counter::CombineRuns => "combine_runs",
            Counter::ReplayRuns => "replay_runs",
            Counter::BarrierWaits => "barrier_waits",
            Counter::WorkerReleases => "worker_releases",
            Counter::WorkerParks => "worker_parks",
            Counter::CheckpointRefreshes => "checkpoint_refreshes",
            Counter::FaultsFired => "faults_fired",
            Counter::RetryAttempts => "retry_attempts",
            Counter::Rollbacks => "rollbacks",
            Counter::Degrades => "degrades",
            Counter::ErrorsDiagnosed => "errors_diagnosed",
            Counter::PackMessages => "pack_messages",
            Counter::PackBytes => "pack_bytes",
        }
    }

    /// One-line help string for the Prometheus exposition.
    pub fn help(self) -> &'static str {
        match self {
            Counter::Epochs => "Machine epoch advances (one per backend region)",
            Counter::KernelRuns => "Rank-kernel invocations",
            Counter::CombineRuns => "Fused-sweep combine-stage invocations",
            Counter::ReplayRuns => "Driver-side charge-ledger replays",
            Counter::BarrierWaits => {
                "Pool-lane completion-barrier arrivals plus stage-barrier crossings"
            }
            Counter::WorkerReleases => "Pool worker releases",
            Counter::WorkerParks => "Pool worker releases that had parked",
            Counter::CheckpointRefreshes => "Recovery checkpoint refreshes",
            Counter::FaultsFired => "Injected faults fired",
            Counter::RetryAttempts => "Same-phase recovery retries",
            Counter::Rollbacks => "Rollbacks to the last checkpoint",
            Counter::Degrades => "Engine degradations to the sequential oracle",
            Counter::ErrorsDiagnosed => "Phase errors diagnosed",
            Counter::PackMessages => "Point-to-point messages charged",
            Counter::PackBytes => "Payload bytes charged",
        }
    }
}

const COUNTERS: usize = Counter::ALL.len();
const CELLS: usize = SpanKind::ALL.len() * PhaseKind::COUNT;

#[inline]
fn cell_index(span: SpanKind, phase: PhaseKind) -> usize {
    span.index() * PhaseKind::COUNT + phase.index()
}

/// One log2-bucket latency histogram (nanoseconds).
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    /// Bucket `i` counts samples in `[2^(i-1), 2^i)` ns (bucket 0: 0 ns,
    /// last bucket: unbounded above).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all sampled durations, in nanoseconds.
    pub sum_ns: u64,
}

impl Histogram {
    const ZERO: Histogram = Histogram {
        buckets: [0; HIST_BUCKETS],
        count: 0,
        sum_ns: 0,
    };

    #[inline]
    fn record(&mut self, ns: u64) {
        let b = (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[b] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    fn merge(&mut self, other: &Histogram) {
        for (d, s) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *d += *s;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Mean sample duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Inclusive upper bound of bucket `i` in nanoseconds
    /// (`u64::MAX` for the unbounded last bucket).
    pub fn bucket_bound_ns(i: usize) -> u64 {
        if i + 1 >= HIST_BUCKETS {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }
}

/// One lane's private slice of the registry.
struct LaneShard {
    counters: [u64; COUNTERS],
    cells: Box<[Histogram]>,
}

impl LaneShard {
    fn new() -> Self {
        LaneShard {
            counters: [0; COUNTERS],
            cells: vec![Histogram::ZERO; CELLS].into_boxed_slice(),
        }
    }
}

/// Running moments of one phase kind's modeled-vs-wall samples.
#[derive(Debug, Clone, Copy, Default)]
struct AuditMoments {
    n: u64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_xy: f64,
    sum_yy: f64,
}

/// Auditor state. Only the driver samples, so its lock is never contended.
struct AuditState {
    last_wall: Option<Instant>,
    per_kind: [AuditMoments; PhaseKind::COUNT],
}

/// Sharded per-lane counters and latency histograms plus the cost-model
/// auditor — see the [module docs](crate::metrics) for layout and the
/// exposition surfaces.
pub struct MetricsRegistry {
    /// Worker-lane shards first, driver shard last.
    shards: LaneCells<LaneShard>,
    audit: Mutex<AuditState>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("lanes", &self.lanes())
            .field("lost", &self.lane_events_lost())
            .finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// A registry with `lanes` worker shards plus the driver's, everything
    /// preallocated — recording never allocates.
    pub fn new(lanes: usize) -> Self {
        MetricsRegistry {
            shards: LaneCells::new(lanes, LaneShard::new),
            audit: Mutex::new(AuditState {
                last_wall: None,
                per_kind: [AuditMoments::default(); PhaseKind::COUNT],
            }),
        }
    }

    /// Number of worker lanes (the driver shard is extra).
    pub fn lanes(&self) -> usize {
        self.shards.len() - 1
    }

    /// Events aimed at lanes outside the allocated range, counted instead of
    /// recorded (see the module docs).
    pub fn lane_events_lost(&self) -> u64 {
        self.shards.lost()
    }

    /// Add `by` to counter `c` on `lane`'s shard.
    #[inline]
    pub(crate) fn incr(&self, lane: Lane, c: Counter, by: u64) {
        self.shards
            .with(lane, |shard| shard.counters[c.index()] += by);
    }

    /// Record a span of `ns` nanoseconds into the `span` × `phase`
    /// histogram on `lane`'s shard.
    #[inline]
    pub(crate) fn record_span(&self, lane: Lane, span: SpanKind, phase: PhaseKind, ns: u64) {
        self.shards.with(lane, |shard| {
            shard.cells[cell_index(span, phase)].record(ns)
        });
    }

    /// One auditor sample: `modeled_delta_s` modeled critical-path seconds
    /// were credited to `kind`; pair them with the wall time elapsed since
    /// the previous sample. Driver thread only.
    pub(crate) fn audit_sample(&self, kind: PhaseKind, modeled_delta_s: f64) {
        let now = Instant::now();
        let mut st = self.audit.lock().unwrap_or_else(PoisonError::into_inner);
        let wall = match st.last_wall {
            Some(prev) => now.duration_since(prev).as_secs_f64(),
            None => 0.0,
        };
        st.last_wall = Some(now);
        if modeled_delta_s <= 0.0 && wall <= 0.0 {
            return;
        }
        let (x, y) = (modeled_delta_s, wall);
        let m = &mut st.per_kind[kind.index()];
        m.n += 1;
        m.sum_x += x;
        m.sum_y += y;
        m.sum_xx += x * x;
        m.sum_xy += x * y;
        m.sum_yy += y * y;
    }

    /// Aggregate every shard into a read-side [`MetricsSnapshot`].
    ///
    /// Take snapshots at quiescent points (between backend regions or after
    /// a run): shards are written lock-free while a region is in flight.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = [0u64; COUNTERS];
        let mut cells = vec![Histogram::ZERO; CELLS];
        for shard in self.shards.iter() {
            for (t, s) in counters.iter_mut().zip(shard.counters.iter()) {
                *t += *s;
            }
            for (t, s) in cells.iter_mut().zip(shard.cells.iter()) {
                t.merge(s);
            }
        }
        let spans = SpanKind::ALL
            .iter()
            .flat_map(|&span| PhaseKind::ALL.iter().map(move |&phase| (span, phase)))
            .filter_map(|(span, phase)| {
                let hist = cells[cell_index(span, phase)];
                (hist.count > 0).then_some(SpanCell { span, phase, hist })
            })
            .collect();
        MetricsSnapshot {
            lanes: self.lanes(),
            counters,
            spans,
            lane_events_lost: self.lane_events_lost(),
            audit: self.audit_report(),
        }
    }

    /// Build the cost-model [`AuditReport`] from the accumulated moments,
    /// worst offender first.
    fn audit_report(&self) -> AuditReport {
        let st = self.audit.lock().unwrap_or_else(PoisonError::into_inner);
        let mut rows: Vec<AuditRow> = PhaseKind::ALL
            .iter()
            .filter_map(|&kind| {
                let m = st.per_kind[kind.index()];
                if m.n == 0 {
                    return None;
                }
                let slope = if m.sum_xx > 0.0 {
                    m.sum_xy / m.sum_xx
                } else {
                    0.0
                };
                let drift = if m.sum_x > 0.0 {
                    m.sum_y / m.sum_x
                } else if m.sum_y > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                let var =
                    (m.sum_yy - 2.0 * slope * m.sum_xy + slope * slope * m.sum_xx) / m.n as f64;
                Some(AuditRow {
                    kind,
                    samples: m.n,
                    modeled_s: m.sum_x,
                    wall_s: m.sum_y,
                    drift,
                    slope,
                    residual_rms: var.max(0.0).sqrt(),
                })
            })
            .collect();
        rows.sort_by(|a, b| {
            b.offense()
                .total_cmp(&a.offense())
                .then(b.wall_s.total_cmp(&a.wall_s))
        });
        AuditReport { rows }
    }
}

/// One aggregated histogram cell of a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy)]
pub struct SpanCell {
    /// Stage the spans cover.
    pub span: SpanKind,
    /// Phase kind in effect when they were recorded.
    pub phase: PhaseKind,
    /// The merged histogram.
    pub hist: Histogram,
}

/// One phase kind's modeled-vs-wall correlation (see the
/// [module docs](crate::metrics) for the math).
#[derive(Debug, Clone, Copy)]
pub struct AuditRow {
    /// Phase kind the samples were credited to.
    pub kind: PhaseKind,
    /// Number of samples.
    pub samples: u64,
    /// Total modeled critical-path seconds (Σx).
    pub modeled_s: f64,
    /// Total driver wall seconds (Σy).
    pub wall_s: f64,
    /// Bulk wall-per-modeled ratio (Σy / Σx).
    pub drift: f64,
    /// Through-origin least-squares slope (Σxy / Σxx).
    pub slope: f64,
    /// Root-mean-square residual around that fit, in seconds.
    pub residual_rms: f64,
}

impl AuditRow {
    /// How badly this kind's model tracks: `|ln drift|`, with zero-modeled
    /// but nonzero-wall kinds ranked worst of all.
    pub fn offense(&self) -> f64 {
        if self.modeled_s <= 0.0 {
            if self.wall_s > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else if self.drift > 0.0 {
            self.drift.ln().abs()
        } else {
            f64::INFINITY
        }
    }
}

/// Per-phase-kind cost-model audit rows, worst offender first.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// The rows (kinds with no samples are omitted), sorted by
    /// non-increasing [`AuditRow::offense`]: the worst offender is first.
    pub rows: Vec<AuditRow>,
}

fn fmt_ratio(v: f64) -> String {
    if !v.is_finite() {
        "inf".to_string()
    } else {
        format!("{v:.3e}")
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cost-model audit (wall vs modeled, worst offender first)"
        )?;
        writeln!(
            f,
            "{:<16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "phase", "samples", "modeled s", "wall s", "drift", "slope", "resid rms"
        )?;
        if self.rows.is_empty() {
            writeln!(f, "  (no samples)")?;
        }
        for r in &self.rows {
            writeln!(
                f,
                "{:<16} {:>8} {:>12.6} {:>12.6} {:>12} {:>12} {:>12}",
                r.kind.label(),
                r.samples,
                r.modeled_s,
                r.wall_s,
                fmt_ratio(r.drift),
                fmt_ratio(r.slope),
                fmt_ratio(r.residual_rms),
            )?;
        }
        Ok(())
    }
}

/// An aggregated, read-side view of a [`MetricsRegistry`] (see
/// [`MetricsRegistry::snapshot`]).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Worker lanes the registry was built with.
    pub lanes: usize,
    /// Counters summed across every shard, indexed by [`Counter::index`].
    pub counters: [u64; COUNTERS],
    /// Non-empty histogram cells, aggregated across lanes.
    pub spans: Vec<SpanCell>,
    /// Events aimed at out-of-range lanes.
    pub lane_events_lost: u64,
    /// The cost-model audit.
    pub audit: AuditReport,
}

impl MetricsSnapshot {
    /// Aggregated value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Prometheus text exposition of counters, span histograms and the
    /// audit rows.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            out.push_str(&format!(
                "# HELP chaos_{0}_total {1}\n# TYPE chaos_{0}_total counter\nchaos_{0}_total {2}\n",
                c.name(),
                c.help(),
                self.counter(c)
            ));
        }
        out.push_str(&format!(
            "# HELP chaos_metrics_lane_events_lost_total Metric events aimed at out-of-range lanes\n\
             # TYPE chaos_metrics_lane_events_lost_total counter\n\
             chaos_metrics_lane_events_lost_total {}\n",
            self.lane_events_lost
        ));
        if !self.spans.is_empty() {
            out.push_str(
                "# HELP chaos_span_duration_seconds Stage wall time by span and phase\n\
                 # TYPE chaos_span_duration_seconds histogram\n",
            );
            for cell in &self.spans {
                let labels = format!(
                    "span=\"{}\",phase=\"{}\"",
                    cell.span.label(),
                    cell.phase.label().replace(' ', "_")
                );
                let mut cumulative = 0u64;
                for (i, b) in cell.hist.buckets.iter().enumerate() {
                    cumulative += b;
                    if *b == 0 && i + 1 < HIST_BUCKETS {
                        continue;
                    }
                    let le = match Histogram::bucket_bound_ns(i) {
                        u64::MAX => "+Inf".to_string(),
                        bound => format!("{:e}", bound as f64 / 1e9),
                    };
                    out.push_str(&format!(
                        "chaos_span_duration_seconds_bucket{{{labels},le=\"{le}\"}} {cumulative}\n"
                    ));
                }
                out.push_str(&format!(
                    "chaos_span_duration_seconds_sum{{{labels}}} {:e}\n",
                    cell.hist.sum_ns as f64 / 1e9
                ));
                out.push_str(&format!(
                    "chaos_span_duration_seconds_count{{{labels}}} {}\n",
                    cell.hist.count
                ));
            }
        }
        if !self.audit.rows.is_empty() {
            out.push_str(
                "# HELP chaos_model_drift_ratio Wall-per-modeled drift by phase kind\n\
                 # TYPE chaos_model_drift_ratio gauge\n",
            );
            for r in &self.audit.rows {
                out.push_str(&format!(
                    "chaos_model_drift_ratio{{phase=\"{}\"}} {:e}\n",
                    r.kind.label().replace(' ', "_"),
                    r.drift
                ));
            }
            out.push_str(
                "# HELP chaos_model_slope Through-origin wall-vs-modeled slope by phase kind\n\
                 # TYPE chaos_model_slope gauge\n",
            );
            for r in &self.audit.rows {
                out.push_str(&format!(
                    "chaos_model_slope{{phase=\"{}\"}} {:e}\n",
                    r.kind.label().replace(' ', "_"),
                    r.slope
                ));
            }
            out.push_str(
                "# HELP chaos_model_residual_seconds RMS residual around the slope fit\n\
                 # TYPE chaos_model_residual_seconds gauge\n",
            );
            for r in &self.audit.rows {
                out.push_str(&format!(
                    "chaos_model_residual_seconds{{phase=\"{}\"}} {:e}\n",
                    r.kind.label().replace(' ', "_"),
                    r.residual_rms
                ));
            }
        }
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "metrics snapshot: {} worker lanes + driver, {} lane events lost",
            self.lanes, self.lane_events_lost
        )?;
        for c in Counter::ALL {
            let v = self.counter(c);
            if v != 0 {
                writeln!(f, "  {:<22} {v}", c.name())?;
            }
        }
        if !self.spans.is_empty() {
            writeln!(f, "spans (aggregated across lanes):")?;
            for cell in &self.spans {
                writeln!(
                    f,
                    "  {:<12} {:<16} count={:<8} mean={:.1} us",
                    cell.span.label(),
                    cell.phase.label(),
                    cell.hist.count,
                    cell.hist.mean_ns() / 1e3
                )?;
            }
        }
        write!(f, "{}", self.audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shard_per_lane_and_sum_in_snapshots() {
        let reg = MetricsRegistry::new(2);
        reg.incr(Lane::Worker(0), Counter::KernelRuns, 3);
        reg.incr(Lane::Worker(1), Counter::KernelRuns, 4);
        reg.incr(Lane::Driver, Counter::Epochs, 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::KernelRuns), 7);
        assert_eq!(snap.counter(Counter::Epochs), 2);
        assert_eq!(snap.counter(Counter::Rollbacks), 0);
        assert_eq!(snap.lane_events_lost, 0);
    }

    #[test]
    fn out_of_range_lanes_are_counted_not_recorded() {
        let reg = MetricsRegistry::new(1);
        reg.incr(Lane::Worker(5), Counter::KernelRuns, 1);
        reg.record_span(Lane::Worker(9), SpanKind::Kernel, PhaseKind::Executor, 100);
        assert_eq!(reg.lane_events_lost(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::KernelRuns), 0);
        assert!(snap.spans.is_empty());
        assert_eq!(snap.lane_events_lost, 2);
    }

    #[test]
    fn histogram_buckets_are_log2_ns() {
        let mut h = Histogram::ZERO;
        h.record(0); // bucket 0
        h.record(1); // bucket 1: [1, 2)
        h.record(1000); // bucket 10: [512, 1024)
        h.record(u64::MAX); // clamped into the last bucket
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(h.count, 4);
        assert_eq!(Histogram::bucket_bound_ns(1), 1);
        assert_eq!(Histogram::bucket_bound_ns(10), 1023);
        assert_eq!(Histogram::bucket_bound_ns(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn prometheus_buckets_count_each_sample_at_or_below_its_le() {
        let reg = MetricsRegistry::new(0);
        for ns in [1, 2, 1024, 0] {
            reg.record_span(Lane::Driver, SpanKind::Kernel, PhaseKind::Executor, ns);
        }
        let text = reg.snapshot().prometheus_text();
        let buckets: Vec<(f64, u64)> = text
            .lines()
            .filter(|l| l.starts_with("chaos_span_duration_seconds_bucket"))
            .filter_map(|l| {
                let le = l.split("le=\"").nth(1)?.split('"').next()?.parse().ok()?;
                Some((le, l.rsplit(' ').next()?.parse().ok()?))
            })
            .collect();
        for ns in [1u64, 2, 1024, 0] {
            let below = [1, 2, 1024, 0].iter().filter(|&&s| s <= ns).count() as u64;
            let (_, count) = buckets
                .iter()
                .find(|&&(le, _)| le >= ns as f64 / 1e9)
                .expect("a finite bucket holds the sample");
            assert_eq!(*count, below, "{ns} ns:\n{text}");
        }
    }

    #[test]
    fn spans_merge_across_lanes_keyed_by_span_phase() {
        let reg = MetricsRegistry::new(2);
        for lane in [Lane::Worker(0), Lane::Worker(1), Lane::Driver] {
            reg.record_span(lane, SpanKind::Kernel, PhaseKind::Executor, 500);
        }
        reg.record_span(Lane::Driver, SpanKind::Replay, PhaseKind::Inspector, 2_000);
        let snap = reg.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let kernel = snap
            .spans
            .iter()
            .find(|c| c.span == SpanKind::Kernel)
            .unwrap();
        assert_eq!(kernel.phase, PhaseKind::Executor);
        assert_eq!(kernel.hist.count, 3);
        assert_eq!(kernel.hist.sum_ns, 1_500);
        let replay = snap
            .spans
            .iter()
            .find(|c| c.span == SpanKind::Replay)
            .unwrap();
        assert_eq!(replay.phase, PhaseKind::Inspector);
        assert_eq!(replay.hist.count, 1);
    }

    #[test]
    fn audit_report_ranks_worst_offender_first() {
        let reg = MetricsRegistry::new(0);
        // Burn the first sample (wall origin), then feed two kinds.
        reg.audit_sample(PhaseKind::Other, 0.0);
        reg.audit_sample(PhaseKind::Executor, 1.0);
        reg.audit_sample(PhaseKind::Inspector, 1.0);
        let report = reg.snapshot().audit;
        assert!(report.rows.len() >= 2);
        for r in &report.rows {
            assert!(r.samples >= 1);
            assert!(r.modeled_s > 0.0 || r.wall_s > 0.0);
        }
        // Rows are sorted by non-increasing offense.
        for pair in report.rows.windows(2) {
            assert!(pair[0].offense() >= pair[1].offense());
        }
    }

    #[test]
    fn audit_math_matches_exact_linear_samples() {
        let reg = MetricsRegistry::new(0);
        // Synthesize exact moments by driving audit_sample with known
        // modeled deltas; wall deltas are real (tiny), so check the modeled
        // side and the derived-quantity formulas directly instead.
        reg.audit_sample(PhaseKind::Executor, 2.0);
        reg.audit_sample(PhaseKind::Executor, 4.0);
        let report = reg.snapshot().audit;
        let row = report
            .rows
            .iter()
            .find(|r| r.kind == PhaseKind::Executor)
            .unwrap();
        assert_eq!(row.samples, 2);
        assert_eq!(row.modeled_s, 6.0);
        assert!(row.wall_s >= 0.0);
        assert!(row.drift.is_finite());
        assert!(row.residual_rms.is_finite());
    }

    #[test]
    fn prometheus_text_exposes_counters_spans_and_audit() {
        let reg = MetricsRegistry::new(1);
        reg.incr(Lane::Driver, Counter::Epochs, 3);
        reg.record_span(
            Lane::Worker(0),
            SpanKind::BarrierWait,
            PhaseKind::Executor,
            700,
        );
        reg.audit_sample(PhaseKind::Executor, 0.5);
        let text = reg.snapshot().prometheus_text();
        assert!(text.contains("# TYPE chaos_epochs_total counter"));
        assert!(text.contains("chaos_epochs_total 3"));
        assert!(text.contains("# TYPE chaos_span_duration_seconds histogram"));
        assert!(text.contains(
            "chaos_span_duration_seconds_count{span=\"barrier_wait\",phase=\"executor\"} 1"
        ));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("chaos_model_drift_ratio{phase=\"executor\"}"));
    }

    #[test]
    fn display_renders_counters_and_audit_table() {
        let reg = MetricsRegistry::new(1);
        reg.incr(Lane::Driver, Counter::Rollbacks, 1);
        reg.audit_sample(PhaseKind::Executor, 1.0);
        let text = reg.snapshot().to_string();
        assert!(text.contains("rollbacks"));
        assert!(text.contains("cost-model audit"));
        assert!(text.contains("executor"));
    }
}
