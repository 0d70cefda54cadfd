//! Flight recorder + epoch tracing: per-lane span timelines correlating
//! measured wall time with the modeled clock, on both engines.
//!
//! The simulator's whole argument rests on phase-level cost accounting, but
//! the aggregate [`StatsRegistry`](crate::stats::StatsRegistry) cannot show
//! *when* things happened: which lane waited at which barrier, how long a
//! straggling rank actually ran, how modeled time advanced relative to wall
//! time. The [`TraceSink`] is that instrument:
//!
//! * **Per-lane ring buffers.** One bounded SoA ring per worker lane plus a
//!   dedicated driver ring, held in `LaneCells` (the crate's one lock-free
//!   cell module, `cells.rs`, whose docs state the one-writer-per-lane
//!   discipline that makes lock-free recording sound and whose debug builds
//!   check it); the rings are preallocated at construction, so steady-state
//!   recording performs **zero heap allocation** even with tracing enabled.
//! * **Flight-recorder mode.** Rings are bounded: once full they wrap,
//!   keeping the most recent events and counting the overwritten ones. The
//!   tail is captured automatically into every [`PhaseError`] diagnosis
//!   (see [`TraceSink::error_tail`]), so a straggler or panic arrives with
//!   its timeline attached.
//! * **Wall-vs-modeled correlation.** Every event is stamped with measured
//!   wall nanoseconds (from a shared origin), the machine epoch, and the
//!   *modeled* clock seconds most recently published by the driver. Worker
//!   lanes observe the modeled clock as of the phase they were released
//!   into — modeled charges apply at driver-side replay, so within one
//!   phase the modeled stamp is the phase-entry clock; the driver's
//!   `ReplayEnd` events carry the post-replay clock, which is what lets a
//!   timeline show modeled time advancing strictly at replay points.
//!
//! The sink is fed only through the machine's probe (`probe.rs`), which
//! owns the hook contract — disabled is one branch, enabled never changes
//! values, modeled clocks or statistics — and the event table: each
//! [`TraceEventKind`] documents its lane and `arg` below, and
//! `TraceEventKind::pairing` what the metrics registry keeps for it.
//!
//! [`PhaseError`]: crate::fault::PhaseError

use crate::cells::LaneCells;
use crate::metrics::{Counter, SpanKind};
use crate::probe::Lane;
use serde_json::{json, Value};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default per-lane ring capacity (events) for [`TraceSink::new`].
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// What happened. Kinds come in Begin/End pairs (spans) or alone
/// (instants); see [`TraceEventKind::span_partner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum TraceEventKind {
    /// An SPMD region (machine epoch) started. Driver lane only.
    #[default]
    EpochBegin,
    /// The previous SPMD region ended (emitted lazily at the next epoch
    /// advance, and for the final epoch at export). Driver lane only.
    EpochEnd,
    /// A rank's kernel started on this lane (`arg` = rank).
    KernelEnter,
    /// A rank's kernel finished on this lane (`arg` = rank).
    KernelExit,
    /// This lane started one scatter buffer's combine stage of a fused
    /// sweep over its whole stripe of ranks (`arg` = scatter-buffer index).
    /// One span per lane per active buffer on both engines — the sequential
    /// engine's stripe is every rank — so `Counter::CombineRuns`, which
    /// counts ranks, is the sum of the stripes these spans cover.
    CombineEnter,
    /// The lane finished that buffer's combine stage (`arg` = scatter-buffer
    /// index).
    CombineExit,
    /// A pool worker was released into a phase; `arg` is 1 when the lane
    /// had parked on the condvar (vs returning while it spun or yielded).
    WorkerRelease,
    /// The lane arrived at the pool's completion barrier (`arg` = lane).
    BarrierArrive,
    /// The lane began waiting at the fused sweep's stage barrier
    /// (`arg` = index of the stage it just finished: always 0, the sweep's
    /// one barrier separates compute from the combines).
    StageWaitBegin,
    /// The lane crossed the stage barrier (`arg` as on the Begin side).
    StageWaitEnd,
    /// Driver-side charge replay began.
    ReplayBegin,
    /// Driver-side charge replay finished; this event's modeled stamp is
    /// the post-replay clock.
    ReplayEnd,
    /// The executor refreshed its rollback checkpoint. Driver lane.
    CheckpointRefresh,
    /// A planned [`FaultPlan`](crate::fault::FaultPlan) fault fired at this
    /// lane's kernel entry (`arg` = rank).
    FaultFired,
    /// A [`PhaseError`](crate::fault::PhaseError) was diagnosed; the flight
    /// recorder tail was captured at this instant (`arg` = the failing
    /// epoch). Driver lane.
    ErrorDiagnosed,
    /// A recovery retry attempt started (`arg` = attempt number).
    RetryAttempt,
    /// Recovery rolled back to the last checkpoint. Driver lane.
    Rollback,
    /// Recovery degraded the engine to the sequential oracle. Driver lane.
    Degrade,
}

impl TraceEventKind {
    /// For a Begin-side span kind, the matching End kind; `None` for End
    /// sides and instants.
    pub fn span_partner(self) -> Option<TraceEventKind> {
        match self {
            TraceEventKind::EpochBegin => Some(TraceEventKind::EpochEnd),
            TraceEventKind::KernelEnter => Some(TraceEventKind::KernelExit),
            TraceEventKind::CombineEnter => Some(TraceEventKind::CombineExit),
            TraceEventKind::StageWaitBegin => Some(TraceEventKind::StageWaitEnd),
            TraceEventKind::ReplayBegin => Some(TraceEventKind::ReplayEnd),
            _ => None,
        }
    }

    /// What the metrics registry keeps for this kind — **the** statement of
    /// the event → counter / histogram pairing; the probe applies it and
    /// no hook site repeats it. End sides pair with nothing: a span's
    /// counter and sample are booked when it closes, from its Begin kind.
    pub(crate) fn pairing(self) -> Pairing {
        use TraceEventKind as K;
        let (counter, span) = match self {
            K::EpochBegin => (Some(Counter::Epochs), None),
            K::KernelEnter => (Some(Counter::KernelRuns), Some(SpanKind::Kernel)),
            K::CombineEnter => (Some(Counter::CombineRuns), Some(SpanKind::Combine)),
            K::WorkerRelease => (Some(Counter::WorkerReleases), None),
            K::BarrierArrive => (Some(Counter::BarrierWaits), None),
            K::StageWaitBegin => (Some(Counter::BarrierWaits), Some(SpanKind::BarrierWait)),
            K::ReplayBegin => (Some(Counter::ReplayRuns), Some(SpanKind::Replay)),
            K::CheckpointRefresh => (Some(Counter::CheckpointRefreshes), None),
            K::FaultFired => (Some(Counter::FaultsFired), None),
            K::ErrorDiagnosed => (Some(Counter::ErrorsDiagnosed), None),
            K::RetryAttempt => (Some(Counter::RetryAttempts), None),
            K::Rollback => (Some(Counter::Rollbacks), None),
            K::Degrade => (Some(Counter::Degrades), None),
            K::EpochEnd | K::KernelExit | K::CombineExit | K::StageWaitEnd | K::ReplayEnd => {
                (None, None)
            }
        };
        Pairing {
            counter,
            counter_if_flagged: (self == K::WorkerRelease).then_some(Counter::WorkerParks),
            span,
        }
    }

    /// True for the End side of a span pair.
    pub fn is_span_end(self) -> bool {
        matches!(
            self,
            TraceEventKind::EpochEnd
                | TraceEventKind::KernelExit
                | TraceEventKind::CombineExit
                | TraceEventKind::StageWaitEnd
                | TraceEventKind::ReplayEnd
        )
    }

    /// Short name used in exports and tables.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::EpochBegin | TraceEventKind::EpochEnd => "epoch",
            TraceEventKind::KernelEnter | TraceEventKind::KernelExit => "kernel",
            TraceEventKind::CombineEnter | TraceEventKind::CombineExit => "combine",
            TraceEventKind::WorkerRelease => "worker-release",
            TraceEventKind::BarrierArrive => "barrier-arrive",
            TraceEventKind::StageWaitBegin | TraceEventKind::StageWaitEnd => "stage-wait",
            TraceEventKind::ReplayBegin | TraceEventKind::ReplayEnd => "replay",
            TraceEventKind::CheckpointRefresh => "checkpoint-refresh",
            TraceEventKind::FaultFired => "fault-fired",
            TraceEventKind::ErrorDiagnosed => "error-diagnosed",
            TraceEventKind::RetryAttempt => "retry-attempt",
            TraceEventKind::Rollback => "rollback",
            TraceEventKind::Degrade => "degrade",
        }
    }
}

/// One row of the event table: see [`TraceEventKind::pairing`].
pub(crate) struct Pairing {
    /// Bumped once per instant, or by the closing span's `runs`.
    pub(crate) counter: Option<Counter>,
    /// Also bumped when the event's `arg` is 1 (`WorkerRelease`'s parked
    /// flag).
    pub(crate) counter_if_flagged: Option<Counter>,
    /// The histogram a closing span's duration lands in.
    pub(crate) span: Option<SpanKind>,
}

/// One recorded event, as read back out of a lane's ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// The lane (ring) the event was recorded on; the last lane is the
    /// driver's (see [`TraceSink::driver_lane`]).
    pub lane: usize,
    /// What happened.
    pub kind: TraceEventKind,
    /// Kind-specific payload (rank, stage index, parked flag, attempt).
    pub arg: u32,
    /// Measured wall time in nanoseconds since the sink's origin.
    pub wall_ns: u64,
    /// The modeled clock (max over processors, seconds) most recently
    /// published by the driver when the event was recorded.
    pub modeled_s: f64,
    /// Machine epoch the event belongs to.
    pub epoch: u64,
}

/// One lane's bounded event ring, stored struct-of-arrays so recording
/// touches five flat preallocated vectors and nothing else.
struct LaneRing {
    kind: Vec<TraceEventKind>,
    arg: Vec<u32>,
    wall_ns: Vec<u64>,
    modeled_s: Vec<f64>,
    epoch: Vec<u64>,
    /// Total events ever recorded; `head % capacity` is the next slot.
    head: u64,
}

impl LaneRing {
    fn new(capacity: usize) -> Self {
        LaneRing {
            kind: vec![TraceEventKind::default(); capacity],
            arg: vec![0; capacity],
            wall_ns: vec![0; capacity],
            modeled_s: vec![0.0; capacity],
            epoch: vec![0; capacity],
            head: 0,
        }
    }

    #[inline]
    fn push(&mut self, kind: TraceEventKind, arg: u32, wall_ns: u64, modeled_s: f64, epoch: u64) {
        let i = (self.head % self.kind.len() as u64) as usize;
        self.kind[i] = kind;
        self.arg[i] = arg;
        self.wall_ns[i] = wall_ns;
        self.modeled_s[i] = modeled_s;
        self.epoch[i] = epoch;
        self.head += 1;
    }

    fn len(&self) -> usize {
        (self.head as usize).min(self.kind.len())
    }

    fn dropped(&self) -> u64 {
        self.head.saturating_sub(self.kind.len() as u64)
    }

    /// Events oldest-first, tagged with `lane`.
    fn events(&self, lane: usize) -> Vec<TraceEvent> {
        let cap = self.kind.len() as u64;
        let len = self.len() as u64;
        (0..len)
            .map(|j| {
                let i = ((self.head - len + j) % cap) as usize;
                TraceEvent {
                    lane,
                    kind: self.kind[i],
                    arg: self.arg[i],
                    wall_ns: self.wall_ns[i],
                    modeled_s: self.modeled_s[i],
                    epoch: self.epoch[i],
                }
            })
            .collect()
    }
}

/// The flight recorder: bounded lock-free per-lane event rings, fed by both
/// engines, exportable as a Chrome trace or a summary table.
///
/// Construct one sized to the engine's lane count, wrap it in an
/// [`Arc`](std::sync::Arc) and install it with
/// [`Machine::install_trace`](crate::Machine::install_trace) (or the lang
/// executor's `with_trace`). Lanes `0..lanes` belong to the pool's worker
/// lanes, one per worker; the extra last ring ([`TraceSink::driver_lane`]) belongs to the driver
/// thread. Only the engines write (through the machine's probe); events
/// addressed to a lane the sink has no ring for are counted as lost
/// ([`TraceSummary::dropped_lost`]). Read-out methods
/// ([`TraceSink::events`], exports) must only be called while no phase is
/// in flight — which is every point at which user code can hold the sink,
/// since the engines' `run_*` entry points do not return mid-phase.
pub struct TraceSink {
    rings: LaneCells<LaneRing>,
    origin: Instant,
    /// f64 bits of the last driver-published modeled clock (seconds).
    modeled_bits: AtomicU64,
    /// Machine epoch stamped onto new events.
    epoch: AtomicU64,
    /// The tail captured at the last `PhaseError` diagnosis.
    error_tail: Mutex<Vec<TraceEvent>>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("lanes", &self.lanes())
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceSink {
    /// A sink with `lanes` worker rings (plus the driver's) of
    /// [`DEFAULT_RING_CAPACITY`] events each.
    pub fn new(lanes: usize) -> Self {
        Self::with_capacity(lanes, DEFAULT_RING_CAPACITY)
    }

    /// A sink with `lanes` worker rings (plus the driver's) of
    /// `capacity` events each — the flight-recorder bound.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(lanes: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "trace rings need a nonzero capacity");
        TraceSink {
            rings: LaneCells::new(lanes, || LaneRing::new(capacity)),
            origin: Instant::now(),
            modeled_bits: AtomicU64::new(0.0f64.to_bits()),
            epoch: AtomicU64::new(0),
            error_tail: Mutex::new(Vec::new()),
        }
    }

    /// Number of rings, including the driver's.
    pub fn lanes(&self) -> usize {
        self.rings.len()
    }

    /// The driver thread's ring index (the last one).
    pub fn driver_lane(&self) -> usize {
        self.rings.len() - 1
    }

    /// Record one event on `lane`'s ring, stamped with the hook's clock
    /// reading `at`, the published modeled clock and the current epoch.
    /// Lock-free; the caller is `lane`'s current writer.
    #[inline]
    pub(crate) fn record(&self, lane: Lane, kind: TraceEventKind, arg: u32, at: Instant) {
        let wall_ns = at.saturating_duration_since(self.origin).as_nanos() as u64;
        let modeled_s = f64::from_bits(self.modeled_bits.load(Ordering::Relaxed));
        let epoch = self.epoch.load(Ordering::Relaxed);
        self.rings
            .with(lane, |ring| ring.push(kind, arg, wall_ns, modeled_s, epoch));
    }

    /// Publish the current modeled clock (max over processors, seconds).
    /// Called by the driver at epoch boundaries and after charge replay;
    /// subsequently recorded events carry this stamp.
    #[inline]
    pub(crate) fn publish_modeled(&self, seconds: f64) {
        self.modeled_bits
            .store(seconds.to_bits(), Ordering::Relaxed);
    }

    /// The most recently published modeled clock, in seconds (reported as
    /// [`TraceSummary::modeled_s`]).
    fn published_modeled(&self) -> f64 {
        f64::from_bits(self.modeled_bits.load(Ordering::Relaxed))
    }

    /// Set the machine epoch stamped onto subsequently recorded events.
    #[inline]
    pub(crate) fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Total events lost to ring wrap-around or out-of-range lanes (the
    /// split by cause is in [`TraceSummary`] and `chrome_trace`'s
    /// `otherData`).
    pub fn dropped(&self) -> u64 {
        self.dropped_wrapped() + self.dropped_lost()
    }

    /// Events overwritten by ring wrap-around: the flight-recorder bound
    /// doing its job (old events age out of a full ring).
    fn dropped_wrapped(&self) -> u64 {
        self.rings.iter().map(LaneRing::dropped).sum()
    }

    /// Events addressed to a lane the sink has no ring for: unlike
    /// wrap-around this indicates a sink sized smaller than the engine's
    /// lane count.
    fn dropped_lost(&self) -> u64 {
        self.rings.lost()
    }

    /// One lane's retained events, oldest first. Driver-side read: call
    /// only while no phase is in flight.
    pub fn events(&self, lane: usize) -> Vec<TraceEvent> {
        self.rings
            .iter()
            .nth(lane)
            .map(|ring| ring.events(lane))
            .unwrap_or_default()
    }

    /// Every lane's retained events merged and sorted by wall time (ties
    /// broken by lane). Driver-side read.
    pub fn all_events(&self) -> Vec<TraceEvent> {
        let rings = self.rings.iter().enumerate();
        let mut all: Vec<TraceEvent> = rings.flat_map(|(lane, ring)| ring.events(lane)).collect();
        all.sort_by_key(|e| (e.wall_ns, e.lane));
        all
    }

    /// Capture the current ring contents as the flight-recorder tail for a
    /// just-diagnosed [`PhaseError`](crate::fault::PhaseError). Called by
    /// the probe with every `ErrorDiagnosed` event; the captured tail stays
    /// available through [`TraceSink::error_tail`] until the next capture
    /// overwrites it.
    pub(crate) fn capture_error_tail(&self) {
        let tail = self.all_events();
        *self.error_tail.lock().unwrap() = tail;
    }

    /// The flight-recorder tail captured at the last error diagnosis
    /// (empty if none was captured yet).
    pub fn error_tail(&self) -> Vec<TraceEvent> {
        self.error_tail.lock().unwrap().clone()
    }

    /// Close the final epoch's span: emit the lazy `EpochEnd` for the
    /// current epoch if it is still open. Call once after the run, before
    /// exporting.
    pub fn finish(&self) {
        let open = self.epoch.load(Ordering::Relaxed);
        if open == 0 {
            return;
        }
        let driver = self.events(self.driver_lane());
        let begins = driver
            .iter()
            .filter(|e| e.kind == TraceEventKind::EpochBegin && e.epoch == open)
            .count();
        let ends = driver
            .iter()
            .filter(|e| e.kind == TraceEventKind::EpochEnd && e.epoch == open)
            .count();
        if begins > ends {
            self.record(Lane::Driver, TraceEventKind::EpochEnd, 0, Instant::now());
        }
    }

    /// Export the retained timeline as Chrome-trace JSON
    /// (`chrome://tracing` / Perfetto "trace event" format): span kinds
    /// become `B`/`E` duration events, instants become `i`, one Chrome
    /// thread per lane, timestamps in microseconds of measured wall time,
    /// with the modeled clock and epoch attached as event args. Serialize
    /// it with `serde_json::to_string` to write a `.json` file.
    pub fn chrome_trace(&self) -> Value {
        let mut events: Vec<Value> = Vec::new();
        for lane in 0..self.lanes() {
            for e in self.events(lane) {
                // Epoch spans get their own virtual track: a kernel span
                // aborted by a panic must not appear to contain the next
                // epoch's boundary events.
                let tid = if matches!(
                    e.kind,
                    TraceEventKind::EpochBegin | TraceEventKind::EpochEnd
                ) {
                    self.lanes() as u64
                } else {
                    lane as u64
                };
                let ph = if e.kind.span_partner().is_some() {
                    "B"
                } else if e.kind.is_span_end() {
                    "E"
                } else {
                    "i"
                };
                let mut obj = json!({
                    "name": format!("{} {}", e.kind.name(), e.arg),
                    "ph": ph,
                    "pid": 0u32,
                    "tid": tid,
                    "ts": e.wall_ns as f64 / 1e3,
                    "args": json!({
                        "epoch": e.epoch,
                        "modeled_s": e.modeled_s,
                        "arg": e.arg,
                    }),
                });
                if ph == "i" {
                    if let Value::Object(fields) = &mut obj {
                        fields.push(("s".to_string(), Value::Str("t".to_string())));
                    }
                }
                events.push(obj);
            }
        }
        json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": json!({
                "dropped": self.dropped(),
                "dropped_wrapped": self.dropped_wrapped(),
                "dropped_lost": self.dropped_lost(),
                "lanes": self.lanes(),
            }),
        })
    }

    /// Check that every lane's retained span events nest monotonically:
    /// wall timestamps are non-decreasing per lane, and every span End
    /// matches the innermost open Begin. Wrap-truncated rings may legally
    /// open with unmatched Ends (the Begins were overwritten); those are
    /// skipped. Returns a description of the first violation.
    pub fn check_span_nesting(&self) -> Result<(), String> {
        for (lane, ring) in self.rings.iter().enumerate() {
            let events = ring.events(lane);
            let wrapped = ring.dropped() > 0;
            let mut lane_stack: Vec<TraceEventKind> = Vec::new();
            // Epoch spans nest on their own virtual track (see
            // `chrome_trace`), so they get their own stack here too.
            let mut epoch_stack: Vec<TraceEventKind> = Vec::new();
            let mut last_wall = 0u64;
            for (i, e) in events.iter().enumerate() {
                if e.wall_ns < last_wall {
                    return Err(format!(
                        "lane {lane}: wall time regressed at event {i} ({:?})",
                        e.kind
                    ));
                }
                last_wall = e.wall_ns;
                let stack = if matches!(
                    e.kind,
                    TraceEventKind::EpochBegin | TraceEventKind::EpochEnd
                ) {
                    &mut epoch_stack
                } else {
                    &mut lane_stack
                };
                if e.kind.span_partner().is_some() {
                    stack.push(e.kind);
                } else if e.kind.is_span_end() {
                    match stack.pop() {
                        Some(open) if open.span_partner() == Some(e.kind) => {}
                        Some(open) => {
                            return Err(format!(
                                "lane {lane}: span end {:?} closes open {:?} at event {i}",
                                e.kind, open
                            ));
                        }
                        // A ring that wrapped may have lost the Begin; a
                        // ring that never wrapped may not.
                        None if wrapped && stack.is_empty() => {}
                        None => {
                            return Err(format!(
                                "lane {lane}: span end {:?} with no open span at event {i}",
                                e.kind
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Aggregate the retained timeline into a per-lane utilization and
    /// barrier-wait summary. Driver-side read.
    pub fn summary(&self) -> TraceSummary {
        let mut lanes = Vec::with_capacity(self.lanes());
        let mut first_wall = u64::MAX;
        let mut last_wall = 0u64;
        let mut epochs = 0u64;
        let mut arrivals: Vec<(u64, u64)> = Vec::new(); // (epoch, wall_ns)
        for lane in 0..self.lanes() {
            let events = self.events(lane);
            let mut busy_ns = 0u64;
            let mut wait_ns = 0u64;
            let mut open_work: Option<u64> = None;
            let mut open_wait: Option<u64> = None;
            let mut parked = 0u64;
            let mut releases = 0u64;
            for e in &events {
                first_wall = first_wall.min(e.wall_ns);
                last_wall = last_wall.max(e.wall_ns);
                match e.kind {
                    TraceEventKind::KernelEnter | TraceEventKind::CombineEnter => {
                        open_work = Some(e.wall_ns);
                    }
                    TraceEventKind::KernelExit | TraceEventKind::CombineExit => {
                        if let Some(t0) = open_work.take() {
                            busy_ns += e.wall_ns.saturating_sub(t0);
                        }
                    }
                    TraceEventKind::StageWaitBegin => open_wait = Some(e.wall_ns),
                    TraceEventKind::StageWaitEnd => {
                        if let Some(t0) = open_wait.take() {
                            wait_ns += e.wall_ns.saturating_sub(t0);
                        }
                    }
                    TraceEventKind::WorkerRelease => {
                        releases += 1;
                        parked += u64::from(e.arg == 1);
                    }
                    TraceEventKind::BarrierArrive => arrivals.push((e.epoch, e.wall_ns)),
                    TraceEventKind::EpochBegin => epochs += 1,
                    _ => {}
                }
            }
            lanes.push(LaneSummary {
                lane,
                events: events.len(),
                busy_ns,
                stage_wait_ns: wait_ns,
                releases,
                parked_releases: parked,
            });
        }
        // Straggler skew: per epoch, the spread between the first and last
        // completion-barrier arrival across lanes.
        arrivals.sort_unstable();
        let mut skews_ns = Vec::new();
        let mut i = 0;
        while i < arrivals.len() {
            let epoch = arrivals[i].0;
            let mut lo = arrivals[i].1;
            let mut hi = arrivals[i].1;
            let mut j = i;
            while j < arrivals.len() && arrivals[j].0 == epoch {
                lo = lo.min(arrivals[j].1);
                hi = hi.max(arrivals[j].1);
                j += 1;
            }
            if j - i > 1 {
                skews_ns.push(hi - lo);
            }
            i = j;
        }
        let span_ns = if first_wall == u64::MAX {
            0
        } else {
            last_wall.saturating_sub(first_wall)
        };
        TraceSummary {
            lanes,
            span_ns,
            epochs,
            skews_ns,
            dropped: self.dropped(),
            dropped_wrapped: self.dropped_wrapped(),
            dropped_lost: self.dropped_lost(),
            modeled_s: self.published_modeled(),
        }
    }
}

/// One lane's row of a [`TraceSummary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSummary {
    /// The lane index (the last lane is the driver's).
    pub lane: usize,
    /// Retained event count.
    pub events: usize,
    /// Nanoseconds inside kernel / combine spans (the lane's useful work).
    pub busy_ns: u64,
    /// Nanoseconds waiting at fused-sweep stage barriers.
    pub stage_wait_ns: u64,
    /// Pool releases observed on this lane.
    pub releases: u64,
    /// Releases for which the lane had parked (vs spun).
    pub parked_releases: u64,
}

impl LaneSummary {
    /// Busy time as a fraction of `span_ns` (0 when the span is empty).
    pub fn utilization(&self, span_ns: u64) -> f64 {
        if span_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / span_ns as f64
        }
    }
}

/// Aggregated view of a [`TraceSink`]'s retained timeline: per-lane
/// utilization, barrier-wait and straggler-skew statistics, epochs/sec.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Per-lane rows (driver last).
    pub lanes: Vec<LaneSummary>,
    /// Wall nanoseconds between the first and last retained event.
    pub span_ns: u64,
    /// Epoch-begin events observed on the driver ring.
    pub epochs: u64,
    /// Per-epoch completion-barrier skew (last arrival − first arrival),
    /// one entry per epoch with ≥ 2 arrivals.
    pub skews_ns: Vec<u64>,
    /// Events lost to wrap-around or out-of-range lanes (the sum of the
    /// two split fields below).
    pub dropped: u64,
    /// Events overwritten by ring wrap-around (the recorder bound).
    pub dropped_wrapped: u64,
    /// Events addressed to out-of-range lanes (an undersized sink).
    pub dropped_lost: u64,
    /// The final published modeled clock, in seconds.
    pub modeled_s: f64,
}

impl TraceSummary {
    /// Observed epochs per wall-clock second.
    pub fn epochs_per_sec(&self) -> f64 {
        if self.span_ns == 0 {
            0.0
        } else {
            self.epochs as f64 / (self.span_ns as f64 / 1e9)
        }
    }

    /// Maximum per-epoch barrier skew, in nanoseconds.
    pub fn max_skew_ns(&self) -> u64 {
        self.skews_ns.iter().copied().max().unwrap_or(0)
    }

    /// Mean per-epoch barrier skew, in nanoseconds.
    pub fn mean_skew_ns(&self) -> f64 {
        if self.skews_ns.is_empty() {
            0.0
        } else {
            self.skews_ns.iter().sum::<u64>() as f64 / self.skews_ns.len() as f64
        }
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace summary: {} epochs over {:.3} ms wall ({:.0} epochs/s), modeled {:.6} s, \
             {} dropped ({} wrapped, {} lost)",
            self.epochs,
            self.span_ns as f64 / 1e6,
            self.epochs_per_sec(),
            self.modeled_s,
            self.dropped,
            self.dropped_wrapped,
            self.dropped_lost,
        )?;
        writeln!(
            f,
            "barrier skew: max {:.3} ms, mean {:.3} ms over {} epochs",
            self.max_skew_ns() as f64 / 1e6,
            self.mean_skew_ns() / 1e6,
            self.skews_ns.len(),
        )?;
        writeln!(
            f,
            "{:>6} {:>8} {:>12} {:>12} {:>9} {:>8} {:>6}",
            "lane", "events", "busy ms", "wait ms", "releases", "parked", "util%"
        )?;
        for l in &self.lanes {
            let tag = if l.lane + 1 == self.lanes.len() {
                " (driver)"
            } else {
                ""
            };
            writeln!(
                f,
                "{:>6} {:>8} {:>12.3} {:>12.3} {:>9} {:>8} {:>5.1}%{}",
                l.lane,
                l.events,
                l.busy_ns as f64 / 1e6,
                l.stage_wait_ns as f64 / 1e6,
                l.releases,
                l.parked_releases,
                l.utilization(self.span_ns) * 100.0,
                tag,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sink: &TraceSink, lane: Lane, kind: TraceEventKind, arg: u32) {
        sink.record(lane, kind, arg, Instant::now());
    }

    /// `object[key]`, panicking unless `object` is an object that has it.
    fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
        let Value::Object(fields) = object else {
            panic!("{key}: not a JSON object");
        };
        let found = fields.iter().find(|(k, _)| k == key);
        found
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key}"))
    }

    #[test]
    fn rings_wrap_and_keep_the_tail() {
        let sink = TraceSink::with_capacity(1, 4);
        for i in 0..10 {
            rec(&sink, Lane::Worker(0), TraceEventKind::BarrierArrive, i);
        }
        let events = sink.events(0);
        assert_eq!(events.len(), 4);
        let args: Vec<u32> = events.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![6, 7, 8, 9], "the most recent events survive");
        assert_eq!(sink.dropped(), 6);
    }

    #[test]
    fn out_of_range_lane_is_counted_not_recorded() {
        let sink = TraceSink::new(2);
        rec(&sink, Lane::Worker(99), TraceEventKind::KernelEnter, 0);
        assert_eq!(sink.dropped(), 1);
        assert!(sink.events(99).is_empty());
    }

    #[test]
    fn dropped_splits_wrap_from_lost_by_cause() {
        let sink = TraceSink::with_capacity(1, 4);
        for i in 0..7 {
            rec(&sink, Lane::Worker(0), TraceEventKind::BarrierArrive, i); // 3 wrap away
        }
        rec(&sink, Lane::Worker(42), TraceEventKind::KernelEnter, 0); // 2 lost to a
        rec(&sink, Lane::Worker(42), TraceEventKind::KernelExit, 0); // missing lane
        assert_eq!(sink.dropped(), 5, "total stays the sum of both causes");
        let summary = sink.summary();
        assert_eq!(summary.dropped_wrapped, 3);
        assert_eq!(summary.dropped_lost, 2);
        assert_eq!(summary.dropped, 5);
        assert!(summary
            .to_string()
            .contains("5 dropped (3 wrapped, 2 lost)"));
        let chrome = sink.chrome_trace();
        let other = field(&chrome, "otherData");
        for (key, n) in [
            ("dropped", 5.0),
            ("dropped_wrapped", 3.0),
            ("dropped_lost", 2.0),
        ] {
            assert_eq!(field(other, key), &Value::Num(n), "{key}");
        }
    }

    #[test]
    fn events_carry_published_stamps() {
        let sink = TraceSink::new(1);
        sink.set_epoch(7);
        sink.publish_modeled(1.25);
        rec(&sink, Lane::Worker(0), TraceEventKind::KernelEnter, 3);
        let e = sink.events(0)[0];
        assert_eq!(e.epoch, 7);
        assert_eq!(e.modeled_s.to_bits(), 1.25f64.to_bits());
        assert_eq!(e.arg, 3);
    }

    #[test]
    fn wall_time_is_monotone_per_lane() {
        let sink = TraceSink::new(1);
        for _ in 0..100 {
            rec(&sink, Lane::Worker(0), TraceEventKind::BarrierArrive, 0);
        }
        let events = sink.events(0);
        for w in events.windows(2) {
            assert!(w[0].wall_ns <= w[1].wall_ns);
        }
    }

    #[test]
    fn nesting_check_accepts_proper_spans_and_rejects_crossed_ones() {
        let sink = TraceSink::new(1);
        rec(&sink, Lane::Worker(0), TraceEventKind::KernelEnter, 0);
        rec(&sink, Lane::Worker(0), TraceEventKind::KernelExit, 0);
        rec(&sink, Lane::Driver, TraceEventKind::ReplayBegin, 0);
        rec(&sink, Lane::Driver, TraceEventKind::ReplayEnd, 0);
        assert!(sink.check_span_nesting().is_ok());

        let bad = TraceSink::new(1);
        rec(&bad, Lane::Worker(0), TraceEventKind::KernelEnter, 0);
        rec(&bad, Lane::Worker(0), TraceEventKind::StageWaitEnd, 0);
        assert!(bad.check_span_nesting().is_err());
    }

    #[test]
    fn chrome_trace_is_an_object_with_event_array() {
        let sink = TraceSink::new(1);
        rec(&sink, Lane::Worker(0), TraceEventKind::KernelEnter, 5);
        rec(&sink, Lane::Worker(0), TraceEventKind::KernelExit, 5);
        rec(&sink, Lane::Worker(0), TraceEventKind::FaultFired, 5);
        let v = sink.chrome_trace();
        let Value::Array(items) = field(&v, "traceEvents") else {
            panic!("traceEvents must be an array");
        };
        let phases: Vec<&Value> = items.iter().map(|e| field(e, "ph")).collect();
        let ph = |s: &str| Value::Str(s.to_string());
        assert_eq!(phases, [&ph("B"), &ph("E"), &ph("i")]);
    }

    #[test]
    fn finish_closes_the_open_epoch_once() {
        let sink = TraceSink::new(0);
        sink.set_epoch(1);
        rec(&sink, Lane::Driver, TraceEventKind::EpochBegin, 0);
        sink.finish();
        sink.finish();
        let kinds: Vec<TraceEventKind> = sink
            .events(sink.driver_lane())
            .iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![TraceEventKind::EpochBegin, TraceEventKind::EpochEnd]
        );
        assert!(sink.check_span_nesting().is_ok());
    }

    #[test]
    fn summary_attributes_busy_wait_and_skew() {
        let sink = TraceSink::new(2);
        sink.set_epoch(1);
        rec(&sink, Lane::Driver, TraceEventKind::EpochBegin, 0);
        rec(&sink, Lane::Worker(0), TraceEventKind::KernelEnter, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec(&sink, Lane::Worker(0), TraceEventKind::KernelExit, 0);
        rec(&sink, Lane::Worker(0), TraceEventKind::BarrierArrive, 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec(&sink, Lane::Worker(1), TraceEventKind::BarrierArrive, 1);
        sink.finish();
        let summary = sink.summary();
        assert_eq!(summary.epochs, 1);
        assert!(summary.lanes[0].busy_ns > 0);
        assert_eq!(summary.skews_ns.len(), 1);
        assert!(summary.max_skew_ns() > 0);
        assert_eq!(summary.lanes.len(), 3, "two worker lanes and the driver's");
        let utilization = summary.lanes[0].utilization(summary.span_ns);
        assert!(utilization > 0.0 && utilization <= 1.0, "{utilization}");
        let rendered = summary.to_string();
        assert!(rendered.contains("util%"));
        assert!(rendered.contains("(driver)"));
    }
}
