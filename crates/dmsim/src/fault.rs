//! Deterministic fault injection and typed phase failures.
//!
//! The CHAOS/PARTI lineage assumes every rank survives every phase; this
//! module is the machinery that lets the reproduction *stop* assuming that
//! without giving up its determinism contract:
//!
//! * **Injection** — a [`FaultPlan`] names faults at `(epoch, rank)`
//!   coordinates. Both engines ([`Machine`],
//!   [`PooledBackend`](crate::PooledBackend)) consult the installed plan at
//!   every per-rank kernel entry, so the same plan produces the same fault
//!   at the same point of the same phase on either engine.
//! * **Detection** — a guarded attempt (the lang executor's one per FORALL,
//!   or any region wrapped in `catch_unwind`) hands its outcome to
//!   [`diagnose_attempt`](crate::diagnose_attempt), which takes the pool's
//!   barrier-deadline straggler report and surfaces a caught rank panic or
//!   a straggler as a typed [`PhaseError`] carrying `(epoch, rank, lane,
//!   cause)` instead of unwinding through the driver.
//! * **Recovery** — because kernels charge modeled costs only through their
//!   [`RankCtx`](crate::RankCtx), a phase whose recorded charges were never
//!   replayed left no trace on the machine: rerunning it from a restored
//!   snapshot is bit-identical to having never failed. The strategies built
//!   on this (retry, checkpoint rollback, degrading to the sequential
//!   oracle through [`Backend::degrade`](crate::Backend::degrade)) are the
//!   `chaos-lang` executor's `RecoveryPolicy`.
//!
//! A fault is one of two things: a crash ([`FaultKind::KernelPanic`]) or a
//! stall ([`FaultKind::LaneStall`]).
//!
//! Faults are **consumed**: each planned fault fires at most once, and the
//! consumed flags live in the plan itself (shared through the
//! [`std::sync::Arc`] the machine holds), *outside* any checkpointed state —
//! so restoring a snapshot taken before the fault does not re-arm it, which
//! is exactly what makes retry terminate.

use crate::machine::Machine;
use crate::probe::Lane;
use crate::trace::TraceEventKind;
use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The kinds of fault a [`FaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The rank's kernel panics at entry (a crashed node).
    KernelPanic,
    /// The rank's kernel sleeps for the plan's stall duration before
    /// running (a straggling node). The stall is *wall-clock only* — it
    /// charges nothing to the modeled clocks, so an undetected stall is
    /// harmless to the simulation; the pool's barrier deadline turns a
    /// detected one into [`PhaseError::Straggler`].
    LaneStall,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::KernelPanic => write!(f, "kernel panic"),
            FaultKind::LaneStall => write!(f, "lane stall"),
        }
    }
}

/// One planned fault: `kind` fires when rank `rank` enters a kernel during
/// machine epoch `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Machine epoch (one epoch per `run_*` call) the fault fires in.
    pub epoch: u64,
    /// The rank it fires on.
    pub rank: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, deterministic schedule of injected faults.
///
/// Install a plan with
/// [`Machine::install_fault_plan`](crate::Machine::install_fault_plan);
/// every engine driving that machine
/// then consults it at each per-rank kernel entry. Each fault fires at most
/// once — the consumed flags are shared across machine clones, so snapshot /
/// restore recovery does not re-arm a fault that already fired.
///
/// # Example: inject one panic and recover bit-identically
///
/// ```
/// use chaos_dmsim::{
///     diagnose_attempt, Backend, FaultKind, FaultPlan, Machine, MachineConfig, PhaseError,
/// };
/// use std::panic::{catch_unwind, AssertUnwindSafe};
/// use std::sync::Arc;
///
/// let mut machine = Machine::new(MachineConfig::ipsc860(4));
/// let plan = Arc::new(FaultPlan::new().with_fault(1, 2, FaultKind::KernelPanic));
/// machine.install_fault_plan(Some(plan));
///
/// // Checkpoint the pre-phase state (clones share the plan's consumed flags).
/// let checkpoint = machine.clone();
///
/// // One guarded compute phase: a caught panic is diagnosed as a typed error.
/// fn guarded(machine: &mut Machine, hits: &mut [u32]) -> Result<(), PhaseError> {
///     let attempt = catch_unwind(AssertUnwindSafe(|| {
///         machine.run_compute(hits.iter_mut(), |ctx, h| {
///             *h += 1;
///             ctx.charge_compute(ctx.rank(), 1.0);
///         })
///     }));
///     diagnose_attempt(machine, attempt)
/// }
/// let mut hits = vec![0u32; 4];
/// let err = guarded(&mut machine, &mut hits).unwrap_err();
/// assert!(matches!(err, PhaseError::RankPanic { epoch: 1, .. }));
///
/// // The fault was consumed: restore the checkpoint and rerun — the retried
/// // phase succeeds and the machine is bit-identical to a fault-free run.
/// machine = checkpoint;
/// let mut hits = vec![0u32; 4];
/// guarded(&mut machine, &mut hits).unwrap();
/// assert_eq!(hits, vec![1; 4]);
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    consumed: Vec<AtomicBool>,
    stall: Duration,
}

impl FaultPlan {
    /// An empty plan with the default 20 ms stall duration.
    pub fn new() -> Self {
        FaultPlan {
            faults: Vec::new(),
            consumed: Vec::new(),
            stall: Duration::from_millis(20),
        }
    }

    /// A deterministic pseudo-random plan: `count` faults drawn from
    /// `epochs` × `0..nprocs` × both kinds by a seeded LCG. The same
    /// `(seed, count, epochs, nprocs)` always yields the same plan.
    pub fn randomized(
        seed: u64,
        count: usize,
        epochs: std::ops::Range<u64>,
        nprocs: usize,
    ) -> Self {
        assert!(!epochs.is_empty(), "empty epoch range");
        assert!(nprocs > 0, "need at least one rank");
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let span = epochs.end - epochs.start;
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let epoch = epochs.start + lcg() % span;
            let rank = (lcg() % nprocs as u64) as usize;
            let kind = match lcg() % 2 {
                0 => FaultKind::KernelPanic,
                _ => FaultKind::LaneStall,
            };
            plan = plan.with_fault(epoch, rank, kind);
        }
        plan
    }

    /// Add one fault at `(epoch, rank)`.
    pub fn with_fault(mut self, epoch: u64, rank: usize, kind: FaultKind) -> Self {
        self.faults.push(Fault { epoch, rank, kind });
        self.consumed.push(AtomicBool::new(false));
        self
    }

    /// Set the wall-clock duration a [`FaultKind::LaneStall`] sleeps for.
    pub fn with_stall(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    /// True once every planned fault has fired.
    pub fn exhausted(&self) -> bool {
        self.consumed.iter().all(|c| c.load(Ordering::Acquire))
    }

    /// True if any not-yet-consumed fault is planned for `(epoch, rank)`.
    /// Non-consuming: a subsequent [`FaultPlan::fire`] still fires it. The
    /// trace subsystem uses this to record a `FaultFired` event *before*
    /// the fault unwinds or stalls.
    pub fn scheduled(&self, epoch: u64, rank: usize) -> bool {
        self.faults.iter().enumerate().any(|(i, f)| {
            f.epoch == epoch && f.rank == rank && !self.consumed[i].load(Ordering::Acquire)
        })
    }

    /// Consult the plan at a kernel entry: fire (at most once each) every
    /// not-yet-consumed fault planned for `(epoch, rank)`. A panic unwinds
    /// with an [`InjectedFault`] payload; a stall sleeps on the calling
    /// thread and returns normally.
    pub fn fire(&self, epoch: u64, rank: usize) {
        for (i, f) in self.faults.iter().enumerate() {
            if f.epoch == epoch && f.rank == rank && !self.consumed[i].swap(true, Ordering::AcqRel)
            {
                match f.kind {
                    FaultKind::LaneStall => std::thread::sleep(self.stall),
                    kind => std::panic::panic_any(InjectedFault { epoch, rank, kind }),
                }
            }
        }
    }
}

/// Fire `machine`'s fault plan (if any) for `rank` in the current epoch —
/// the helper every engine calls at kernel entry. A fault about to fire is
/// first reported to the probe as a `FaultFired` instant on `lane`, so the
/// observers see the injection even when the fault unwinds the kernel.
#[inline]
pub(crate) fn fire_traced(machine: &Machine, rank: usize, lane: Lane) {
    if let Some(plan) = machine.fault_plan() {
        let (epoch, probe) = (machine.epoch(), machine.probe());
        if probe.on() && plan.scheduled(epoch, rank) {
            probe.instant(lane, TraceEventKind::FaultFired, rank as u32);
        }
        plan.fire(epoch, rank);
    }
}

/// The panic payload an injected [`FaultKind::KernelPanic`] unwinds with; the
/// detectors downcast it back into a typed failure.
#[derive(Debug, Clone, Copy)]
pub struct InjectedFault {
    /// Machine epoch the fault fired in.
    pub epoch: u64,
    /// Rank it fired on.
    pub rank: usize,
    /// What fired.
    pub kind: FaultKind,
}

/// One caught panic with its execution coordinates — the unit the pooled
/// engine aggregates so that a multi-rank failure names *every* failing
/// rank, not just the first one caught.
#[derive(Debug)]
pub struct CaughtPanic {
    /// Machine epoch (pool backstop entries: pool epoch) of the phase.
    pub epoch: u64,
    /// Failing rank, when the catch site knew it.
    pub rank: Option<usize>,
    /// Lane (worker) the panic was caught on, when applicable.
    pub lane: Option<usize>,
    /// The original panic payload.
    pub payload: Box<dyn Any + Send>,
}

/// Aggregated panic payload re-raised by the pooled engine after its
/// barrier: every rank/lane panic caught during the phase.
#[derive(Debug, Default)]
pub struct PanicBundle {
    /// The caught panics, sorted by rank at the re-raise site.
    pub panics: Vec<CaughtPanic>,
}

/// Why a rank failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseCause {
    /// A planned fault from the installed [`FaultPlan`].
    Injected(FaultKind),
    /// An organic kernel panic, with its (stringified) payload.
    Panic(String),
}

impl fmt::Display for PhaseCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhaseCause::Injected(kind) => write!(f, "injected {kind}"),
            PhaseCause::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

/// One rank's failure inside a phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFailure {
    /// Machine epoch of the failing phase.
    pub epoch: u64,
    /// The failing rank, when known at the catch site.
    pub rank: Option<usize>,
    /// The worker lane it ran on, when applicable.
    pub lane: Option<usize>,
    /// The cause.
    pub cause: PhaseCause,
}

impl fmt::Display for RankFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rank {
            Some(r) => write!(f, "rank {r}")?,
            None => write!(f, "unknown rank")?,
        }
        if let Some(l) = self.lane {
            write!(f, " (lane {l})")?;
        }
        write!(f, ": {}", self.cause)
    }
}

/// A detected phase failure, returned by
/// [`diagnose_attempt`](crate::diagnose_attempt) (the lang executor's
/// guarded FORALL attempt calls it) in place of an unwinding panic.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseError {
    /// One or more ranks panicked during the phase. `failures` names every
    /// failing rank the engine could attribute.
    RankPanic {
        /// Machine epoch of the failing phase.
        epoch: u64,
        /// Every caught failure, sorted by rank.
        failures: Vec<RankFailure>,
    },
    /// A worker lane blew the pool's barrier deadline. The phase still
    /// completed (the driver waits out the real arrival so the borrowed
    /// phase descriptor stays sound), but the straggler is reported so a
    /// recovery policy can react.
    Straggler {
        /// Machine epoch of the slow phase.
        epoch: u64,
        /// The rank the straggling lane was executing (per its progress
        /// counter) when the deadline passed.
        rank: usize,
        /// The straggling lane.
        lane: usize,
        /// How long the driver had waited when it reported.
        waited: Duration,
        /// Ranks completed per lane at the deadline — the per-lane progress
        /// diagnostic.
        progress: Vec<u64>,
    },
}

impl PhaseError {
    /// The machine epoch the failure was detected in.
    pub fn epoch(&self) -> u64 {
        match self {
            PhaseError::RankPanic { epoch, .. } | PhaseError::Straggler { epoch, .. } => *epoch,
        }
    }

    /// Convert a caught panic payload into a typed error. `epoch` is the
    /// fallback for payloads that do not carry their own coordinates.
    pub fn from_payload(epoch: u64, payload: Box<dyn Any + Send>) -> PhaseError {
        match payload.downcast::<PanicBundle>() {
            Ok(bundle) => Self::from_failures(
                epoch,
                bundle
                    .panics
                    .into_iter()
                    .map(|cp| rank_failure(cp.epoch, cp.rank, cp.lane, cp.payload))
                    .collect(),
            ),
            Err(payload) => {
                Self::from_failures(epoch, vec![rank_failure(epoch, None, None, payload)])
            }
        }
    }

    fn from_failures(epoch: u64, mut failures: Vec<RankFailure>) -> PhaseError {
        failures.sort_by_key(|f| f.rank);
        let epoch = failures.first().map_or(epoch, |f| f.epoch);
        PhaseError::RankPanic { epoch, failures }
    }
}

fn rank_failure(
    epoch: u64,
    rank: Option<usize>,
    lane: Option<usize>,
    payload: Box<dyn Any + Send>,
) -> RankFailure {
    match payload.downcast::<InjectedFault>() {
        Ok(f) => RankFailure {
            epoch: f.epoch,
            rank: rank.or(Some(f.rank)),
            lane,
            cause: PhaseCause::Injected(f.kind),
        },
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            RankFailure {
                epoch,
                rank,
                lane,
                cause: PhaseCause::Panic(msg),
            }
        }
    }
}

impl fmt::Display for PhaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhaseError::RankPanic { epoch, failures } => {
                write!(f, "phase failed in epoch {epoch}: ")?;
                for (i, failure) in failures.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{failure}")?;
                }
                Ok(())
            }
            PhaseError::Straggler {
                epoch,
                rank,
                lane,
                waited,
                progress,
            } => write!(
                f,
                "straggler in epoch {epoch}: lane {lane} (rank {rank}) missed the barrier \
                 deadline after {waited:?}; per-lane progress {progress:?}"
            ),
        }
    }
}

impl std::error::Error for PhaseError {}
