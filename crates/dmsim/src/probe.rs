//! The probe: the one place that decides which facts are recorded where.
//!
//! Engines and the recovery driver report what happened in the vocabulary
//! of [`TraceEventKind`]; the [`Probe`] fans each report out to whichever
//! observers are installed — an event on the flight recorder's ring
//! ([`TraceSink`]), a counter and a latency sample in the metrics registry
//! ([`MetricsRegistry`]) — as the one pairing table,
//! [`TraceEventKind::pairing`], says. A hook site therefore knows none of:
//! how either sink addresses lanes, which counter and histogram go with an
//! event, or when the clock is read (once per hook, shared by both sinks).
//!
//! With nothing installed every hook is one predictable branch that reads
//! no clock and allocates nothing. With observers installed the hooks still
//! never touch machine state, so values, modeled clocks and statistics are
//! bit-identical either way (`tests/observer_identity.rs`), and recording
//! allocates nothing either (`tests/no_alloc_steady_state.rs`): both sinks
//! preallocate per-lane storage in [`LaneCells`](crate::cells::LaneCells),
//! whose docs state the one-writer-per-lane discipline that lets a hook
//! write without a lock.

use crate::metrics::{Counter, MetricsRegistry};
use crate::stats::{CommStats, PhaseKind};
use crate::trace::{TraceEventKind, TraceSink};
use crate::Machine;
use std::sync::Arc;
use std::time::Instant;

/// Who is recording: pool worker lane `w`, or the driver thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// A pool lane (the driver thread running its own stripe is the pool's
    /// last *worker* lane, not [`Lane::Driver`]).
    Worker(usize),
    /// The driver thread outside the pool's release → completion window.
    Driver,
}

/// A span opened by [`Probe::enter`]: what was opened, and the hook's one
/// clock reading (`None` when no observer is installed).
#[must_use = "close the span with Probe::exit"]
pub(crate) struct Start {
    kind: TraceEventKind,
    arg: u32,
    at: Option<Instant>,
}

/// The machine's observer handle: the installed flight recorder and metrics
/// registry (either, both or neither), fed through one set of hooks. See
/// the [module docs](self).
#[derive(Debug, Clone, Default)]
pub(crate) struct Probe {
    pub(crate) trace: Option<Arc<TraceSink>>,
    pub(crate) metrics: Option<Arc<MetricsRegistry>>,
    /// Phase kind histogram samples are keyed by: the machine's kind as of
    /// the current epoch's start (it cannot change inside a region), `Other`
    /// when none is set.
    phase: Option<PhaseKind>,
}

impl Probe {
    /// Whether any observer is installed — the one branch a disabled hook
    /// costs.
    #[inline]
    pub(crate) fn on(&self) -> bool {
        self.trace.is_some() | self.metrics.is_some()
    }

    /// Open a span: record `kind` (a Begin-side kind) on `lane`'s ring and
    /// keep the clock reading for [`Probe::exit`].
    #[inline]
    pub(crate) fn enter(&self, lane: Lane, kind: TraceEventKind, arg: u32) -> Start {
        let at = self.on().then(Instant::now);
        if let (Some(t), Some(at)) = (&self.trace, at) {
            t.record(lane, kind, arg, at);
        }
        Start { kind, arg, at }
    }

    /// Close a span: record the partner event, add `runs` to the paired
    /// counter and the span's duration to the paired histogram, keyed
    /// span × the epoch's phase kind.
    #[inline]
    pub(crate) fn exit(&self, lane: Lane, start: Start, runs: u64) {
        let Some(t0) = start.at else { return };
        let now = Instant::now();
        if let (Some(t), Some(end)) = (&self.trace, start.kind.span_partner()) {
            t.record(lane, end, start.arg, now);
        }
        if let Some(m) = &self.metrics {
            let pairing = start.kind.pairing();
            if let Some(c) = pairing.counter {
                m.incr(lane, c, runs);
            }
            if let Some(span) = pairing.span {
                let ns = now.duration_since(t0).as_nanos() as u64;
                m.record_span(lane, span, self.phase.unwrap_or(PhaseKind::Other), ns);
            }
        }
    }

    /// Record an instant: the event on `lane`'s ring and one on its paired
    /// counter (plus the flagged counter when `arg` is 1). Diagnosing an
    /// error also freezes the flight recorder's tail, so every
    /// [`PhaseError`](crate::fault::PhaseError) arrives with the events that
    /// led up to it ([`TraceSink::error_tail`]).
    #[inline]
    pub(crate) fn instant(&self, lane: Lane, kind: TraceEventKind, arg: u32) {
        if !self.on() {
            return;
        }
        if let Some(t) = &self.trace {
            t.record(lane, kind, arg, Instant::now());
            if kind == TraceEventKind::ErrorDiagnosed {
                t.capture_error_tail();
            }
        }
        if let Some(m) = &self.metrics {
            let pairing = kind.pairing();
            if let Some(c) = pairing.counter {
                m.incr(lane, c, 1);
            }
            if let (Some(c), 1) = (pairing.counter_if_flagged, arg) {
                m.incr(lane, c, 1);
            }
        }
    }

    /// A new machine epoch began: close the previous epoch's span, publish
    /// the modeled clock and the epoch stamp to the recorder, open the new
    /// span, and key this epoch's histogram samples by `phase`.
    pub(crate) fn epoch(&mut self, epoch: u64, modeled_s: f64, phase: Option<PhaseKind>) {
        self.phase = phase;
        if let Some(t) = &self.trace {
            t.publish_modeled(modeled_s);
            if epoch > 1 {
                t.record(Lane::Driver, TraceEventKind::EpochEnd, 0, Instant::now());
            }
            t.set_epoch(epoch);
        }
        self.instant(Lane::Driver, TraceEventKind::EpochBegin, 0);
    }

    /// Close a driver-side replay span, first publishing the post-replay
    /// modeled clock so the `ReplayEnd` event and everything after it
    /// correlate against it.
    pub(crate) fn replayed(&self, start: Start, machine: &Machine) {
        if let Some(t) = &self.trace {
            t.publish_modeled(machine.modeled_now());
        }
        self.exit(Lane::Driver, start, 1);
    }

    /// A message phase closed: fold its volume into the pack counters.
    #[inline]
    pub(crate) fn phase_closed(&self, stats: &CommStats) {
        if let Some(m) = &self.metrics {
            m.incr(Lane::Driver, Counter::PackMessages, stats.messages as u64);
            m.incr(Lane::Driver, Counter::PackBytes, stats.bytes as u64);
        }
    }

    /// The driver switched phase kinds, crediting `modeled_delta_s` to the
    /// `outgoing` kind (`Other` when none was active): the cost-model
    /// auditor pairs it with the wall time since the previous switch.
    #[inline]
    pub(crate) fn kind_changed(&self, outgoing: Option<PhaseKind>, modeled_delta_s: f64) {
        if let Some(m) = &self.metrics {
            m.audit_sample(outgoing.unwrap_or(PhaseKind::Other), modeled_delta_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SpanKind;

    #[test]
    fn a_span_feeds_ring_counter_and_histogram_from_one_hook() {
        let sink = Arc::new(TraceSink::new(1));
        let registry = Arc::new(MetricsRegistry::new(1));
        let (me, mut probe) = (Lane::Worker(0), Probe::default());
        let disabled = probe.enter(me, TraceEventKind::KernelEnter, 3);
        probe.exit(me, disabled, 1);
        probe.trace = Some(Arc::clone(&sink));
        probe.metrics = Some(Arc::clone(&registry));
        probe.epoch(1, 0.5, Some(PhaseKind::Executor));
        let span = probe.enter(me, TraceEventKind::CombineEnter, 3);
        probe.exit(me, span, 4);
        probe.instant(me, TraceEventKind::WorkerRelease, 1);

        // Nothing was recorded while disabled; a partner carries its
        // Begin's arg; `runs` and the parked flag reach their counters.
        let recorded: Vec<_> = sink.events(0).iter().map(|e| (e.kind, e.arg)).collect();
        let (enter, exit) = (TraceEventKind::CombineEnter, TraceEventKind::CombineExit);
        let release = TraceEventKind::WorkerRelease;
        assert_eq!(recorded, vec![(enter, 3), (exit, 3), (release, 1)]);
        let snap = registry.snapshot();
        let counted = [
            Counter::KernelRuns,
            Counter::CombineRuns,
            Counter::Epochs,
            Counter::WorkerReleases,
            Counter::WorkerParks,
        ];
        assert_eq!(counted.map(|c| snap.counter(c)), [0, 4, 1, 1, 1]);
        let [cell] = &snap.spans[..] else {
            panic!("one histogram cell expected, got {:?}", snap.spans);
        };
        let (span, phase, count) = (cell.span, cell.phase, cell.hist.count);
        assert_eq!(
            (span, phase, count),
            (SpanKind::Combine, PhaseKind::Executor, 1)
        );
    }
}
