//! The persistent worker-pool SPMD engine: long-lived workers driven by
//! broadcast phase descriptors through an epoch release and a completion
//! crossing.
//!
//! Spawning one OS thread per rank per phase costs tens of microseconds,
//! which would dominate phases whose compute is cheap (CSR schedules,
//! compiled kernels). [`PooledBackend`] avoids that cost structurally:
//!
//! * **Workers are created once** and live until the backend is dropped.
//!   The driver thread doubles as the last lane, so `w` workers spawn
//!   `w - 1` OS threads, and a single-worker pool runs inline.
//! * **Stages are broadcast, not spawned.** The engine has **one lane
//!   body** (`PooledBackend::run_lanes`, the only caller of
//!   `WorkerPool::run`): a kernel stage over the lane's stripe and, for the
//!   fused sweep, a stage crossing followed by the combine stages. `fan_out`
//!   and `run_sweep` lend it to the workers as one borrowed descriptor and
//!   release them by bumping an epoch counter — a sense-reversing barrier
//!   flag generalized: a worker's "sense" is the last epoch it completed.
//! * **Every crossing waits the same way.** The release, the stage crossing
//!   and the completion share one wait: spin briefly, yield, then park on
//!   the crossing's condvar, so back-to-back phases stay off the scheduler
//!   and an idle pool consumes no CPU.
//! * **Ranks are striped statically.** Rank `r` always runs on lane
//!   `r % workers`, so its charges always land in the same lane's
//!   `ChargeArena` — a CSR log cleared, not freed, every phase, so steady
//!   state records and replays with zero allocation.
//! * **One writer per cell per phase.** The arenas, the per-rank state,
//!   scratch and posted slots and the descriptor slot are lent to the lanes
//!   through the crate's one lock-free primitive (`cells.rs`), whose debug
//!   builds check the rule; the posted slots are read shared only with the
//!   stage crossing's `StageCrossed` proof.
//!
//! Determinism is inherited from the [`Backend`](crate::backend) contract
//! unchanged: kernels write only rank-disjoint state, charge only through
//! their [`RankCtx`], and the recorded events are replayed against the
//! machine **in ascending rank order** after the barrier — the exact
//! sequence the sequential [`Machine`] oracle performs, so clocks,
//! statistics and values are bit-identical by construction, for any worker
//! count, on any core count.

use crate::backend::{charge_stage, replay_events, Backend, ChargeEvent, RankCtx};
use crate::cells::{Cells, Claims, Job, JobSlot};
use crate::config::MachineConfig;
use crate::fault::{self, CaughtPanic, PanicBundle, PhaseError};
use crate::machine::Machine;
use crate::probe::Lane;
use crate::trace::TraceEventKind;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A wait spins this many rounds, then yields its time slice (to the lane
/// it waits for, when lanes outnumber cores) until `PARK_AFTER_ROUNDS`,
/// then parks. 1 024 rounds take about 0.3 ms on a 2-core x86-64 host:
/// back-to-back phases never park, and an idle pool soon stops spinning.
const YIELD_AFTER_ROUNDS: u32 = 128;
const PARK_AFTER_ROUNDS: u32 = 1024;

/// How long [`WorkerPool`]'s `Drop` waits for the lanes to exit before
/// detaching them (see [`WorkerPool::shutdown_with_deadline`]).
const DEFAULT_SHUTDOWN_DEADLINE: Duration = Duration::from_secs(5);

/// When the driver's deadline passed: the lane that had not arrived, how
/// long the driver had waited, and how many ranks each lane had completed.
struct StragglerReport {
    lane: usize,
    waited: Duration,
    progress: Vec<u64>,
}

/// One barrier crossing: a monotonic count of arrivals, and where waiters
/// sleep once they outlast the spin and yield rounds. An arrival is an
/// `AcqRel` increment, so a waiter that `Acquire`-reads a count at or past
/// its target sees what every earlier arrival wrote. The lock guards no
/// data (poisoning is ignored); it orders a waiter's last check and the wake.
#[derive(Default)]
struct Crossing {
    count: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Crossing {
    /// Arrive, and return the new count. The arrival that completes a
    /// crossing of `parties` wakes the parked waiters: one lock and one
    /// `notify_all`.
    fn arrive(&self, parties: u64) -> u64 {
        let count = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if count.is_multiple_of(parties) {
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.cv.notify_all();
        }
        count
    }

    /// The pool's one wait: until the count reaches `target`, spin, then
    /// yield, then park; `true` when it parked. Once a wait has lasted its
    /// `deadline`, `overdue` runs and the wait goes on until the real
    /// arrival: the workers hold pointers into the driver's stack.
    fn wait_until(
        &self,
        target: u64,
        deadline: Option<Duration>,
        mut overdue: impl FnMut(Duration),
    ) -> bool {
        let mut due = deadline.map(|d| (Instant::now(), d));
        let mut parked = None;
        let mut round = 0u32;
        while self.count.load(Ordering::Acquire) < target {
            let mut timeout = Duration::MAX;
            if let Some((start, d)) = due {
                let waited = start.elapsed();
                if waited < d {
                    timeout = d - waited;
                } else {
                    overdue(waited);
                    due = None;
                }
            }
            round = round.saturating_add(1);
            if round <= YIELD_AFTER_ROUNDS {
                std::hint::spin_loop();
            } else if round <= PARK_AFTER_ROUNDS {
                std::thread::yield_now();
            } else if let Some(guard) = parked.take() {
                let woken = self.cv.wait_timeout(guard, timeout);
                parked = Some(woken.unwrap_or_else(PoisonError::into_inner).0);
            } else {
                // Lock, then re-check before the first sleep: the arrival
                // wakes under the same lock, so it cannot slip in between.
                parked = Some(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            }
        }
        parked.is_some()
    }
}

/// State shared between the driver and the spawned workers.
struct PoolShared {
    /// Release: its count is the pool epoch, bumped by the driver to
    /// publish a phase.
    release: Crossing,
    /// The phase descriptor, lent from before the release to after the
    /// completion crossing.
    job: JobSlot,
    /// The fused sweep's stage crossing: every lane arrives.
    stage: Crossing,
    /// Completion: every worker arrives once per phase, so after epoch `e`
    /// the count is `e * spawned`.
    done: Crossing,
    /// Set (before a final epoch bump) to make the workers exit.
    shutdown: AtomicBool,
    /// Backstop: every panic payload that escaped a lane's phase closure,
    /// with the lane it was caught on and the pool epoch it happened in.
    panics: Mutex<Vec<CaughtPanic>>,
    /// Ranks completed per lane this phase (the straggler diagnostic).
    progress: Vec<AtomicU64>,
    /// Crossings each lane (the driver's included) has arrived at this
    /// phase, so a blown deadline can name a lane that has not.
    crossed: Vec<AtomicU64>,
    /// The first straggler report of the current phase.
    straggler: Mutex<Option<StragglerReport>>,
    /// Number of spawned workers (lanes excluding the driver's).
    spawned: usize,
}

impl PoolShared {
    /// Wait at `crossing` until its count reaches `target`. Only the driver
    /// lane passes the pool's `deadline`; when it passes, the phase's first
    /// straggler report is recorded: the first worker lane that has arrived
    /// at fewer crossings than the driver lane, with the per-lane progress
    /// counters at that moment. Returns whether the wait parked.
    fn wait_at(&self, crossing: &Crossing, target: u64, deadline: Option<Duration>) -> bool {
        crossing.wait_until(target, deadline, |waited| {
            let mut slot = self.straggler.lock().expect("a straggler report panicked");
            if slot.is_none() {
                let at = self.crossed[self.spawned].load(Ordering::Acquire);
                let lane = (0..self.spawned)
                    .position(|lane| self.crossed[lane].load(Ordering::Acquire) < at)
                    .unwrap_or(0);
                let progress = self.progress.iter().map(|p| p.load(Ordering::Acquire));
                *slot = Some(StragglerReport {
                    lane,
                    waited,
                    progress: progress.collect(),
                });
            }
        })
    }

    /// The stage crossing inside one phase (the fused sweep's compute →
    /// combine boundary): every lane arrives, and the last arrival releases
    /// the rest. Only the driver lane's wait carries the `deadline`.
    fn cross_stage(&self, lane: usize, deadline: Option<Duration>) -> StageCrossed {
        let lanes = self.spawned as u64 + 1;
        self.crossed[lane].fetch_add(1, Ordering::Release);
        let count = self.stage.arrive(lanes);
        let deadline = deadline.filter(|_| lane == self.spawned);
        self.wait_at(&self.stage, count.div_ceil(lanes) * lanes, deadline);
        StageCrossed(())
    }
}

/// Proof that a lane passed the stage crossing, where every lane's
/// kernel-stage claims closed ([`Cells::frozen`]); only `cross_stage` makes one.
pub(crate) struct StageCrossed(());

/// Long-lived worker loop: wait for a phase, run the lane's share, arrive.
fn worker_main(shared: Arc<PoolShared>, lane: usize) {
    let mut seen = 0u64;
    loop {
        // Each release moves the epoch by one, and the driver releases
        // again only after this worker has arrived.
        let parked = shared.wait_at(&shared.release, seen + 1, None);
        seen += 1;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| shared.job.run(lane, parked))) {
            // Backstop for panics that escape the phase closure's own
            // per-rank catch: keep *every* payload, tagged with its lane and
            // pool epoch, so multi-lane failures lose nothing.
            shared.panics.lock().unwrap().push(CaughtPanic {
                epoch: seen,
                rank: None,
                lane: Some(lane),
                payload,
            });
        }
        shared.crossed[lane].fetch_add(1, Ordering::Release);
        shared.done.arrive(shared.spawned as u64);
    }
}

/// The pool of long-lived workers. One lane per worker; the driver thread
/// executes the last lane itself during every phase.
struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    lanes: usize,
}

impl WorkerPool {
    /// Spawn `lanes - 1` workers (the driver is the final lane).
    fn new(lanes: usize) -> Self {
        assert!(lanes >= 1, "a pool needs at least one lane");
        let spawned = lanes - 1;
        let shared = Arc::new(PoolShared {
            release: Crossing::default(),
            job: JobSlot::default(),
            stage: Crossing::default(),
            done: Crossing::default(),
            shutdown: AtomicBool::new(false),
            panics: Mutex::new(Vec::new()),
            progress: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            crossed: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            straggler: Mutex::new(None),
            spawned,
        });
        let handles = (0..spawned)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("chaos-pool-{lane}"))
                    .spawn(move || worker_main(shared, lane))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            lanes,
        }
    }

    /// Run `job(lane)` once per lane — workers take lanes `0..lanes-1`, the
    /// driver the last — returning after every lane has finished. Lane
    /// panics are re-raised after the completion crossing, several as one
    /// [`PanicBundle`]. The first `deadline` the driver lane blew (here or
    /// at a stage crossing) is returned as a straggler report.
    fn run(&self, job: Job<'_>, deadline: Option<Duration>) -> Option<StragglerReport> {
        let shared = &*self.shared;
        let driver_lane = shared.spawned;
        if shared.spawned == 0 {
            // Single-lane pool: no synchronization, no catch — just run.
            job(driver_lane, false);
            return None;
        }
        // Reset the per-phase diagnostics while every worker is quiescent.
        for (p, c) in shared.progress.iter().zip(&shared.crossed) {
            p.store(0, Ordering::Relaxed);
            c.store(0, Ordering::Relaxed);
        }
        let (epoch, mine) = shared.job.lend(&job, || {
            let epoch = shared.release.arrive(1);
            // The driver is a lane too: run its stripe while the workers run
            // theirs (never parked — it released this epoch itself). A panic
            // here must still wait out the completion crossing (the workers
            // hold pointers into the driver's stack), hence the catch.
            let mine = catch_unwind(AssertUnwindSafe(|| job(driver_lane, false)));
            shared.crossed[driver_lane].fetch_add(1, Ordering::Release);
            shared.wait_at(&shared.done, epoch * shared.spawned as u64, deadline);
            (epoch, mine)
        });
        // Taken before any re-raise, so no report outlives its phase.
        let straggler = shared.straggler.lock();
        let straggler = straggler.expect("a straggler report panicked").take();
        let mut caught: Vec<CaughtPanic> = std::mem::take(&mut *shared.panics.lock().unwrap());
        match mine {
            Err(payload) if !caught.is_empty() => caught.push(CaughtPanic {
                epoch,
                rank: None,
                lane: Some(driver_lane),
                payload,
            }),
            Err(payload) => resume_unwind(payload),
            Ok(()) => {}
        }
        if !caught.is_empty() {
            resume_unwind(Box::new(PanicBundle { panics: caught }));
        }
        straggler
    }

    /// Bounded shutdown: wake every lane, then join each worker within
    /// `deadline` overall, detaching any that has not exited (safe: workers
    /// check the shutdown flag before reading the job slot, and no phase is
    /// in flight). Returns `true` when every worker was joined.
    fn shutdown_with_deadline(&mut self, deadline: Duration) -> bool {
        if self.handles.is_empty() {
            return true;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.release.arrive(1);
        let start = Instant::now();
        let mut all_joined = true;
        for handle in self.handles.drain(..) {
            while !handle.is_finished() && start.elapsed() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                // Detach: the worker holds only an Arc of the shared state.
                all_joined = false;
            }
        }
        all_joined
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_with_deadline(DEFAULT_SHUTDOWN_DEADLINE);
    }
}

/// One lane's reusable charge log: the events its ranks recorded this phase,
/// with one start offset per span and a closing sentinel (CSR). Stage `s`'s
/// span for the lane's `i`-th stripe rank is span `s * stripe_len + i`
/// (inactive stages leave theirs empty). Cleared, never freed, each phase.
#[derive(Debug, Default)]
struct ChargeArena {
    events: Vec<ChargeEvent>,
    starts: Vec<u32>,
}

/// Number of ranks striped onto `lane` (`rank % lanes == lane`).
fn stripe_len(nprocs: usize, lanes: usize, lane: usize) -> usize {
    if lane >= nprocs {
        0
    } else {
        (nprocs - lane).div_ceil(lanes)
    }
}

/// The rank a straggler report names: `lane` had run `done` ranks (over
/// every stage, each a pass over its stripe), so it was at position
/// `done % stripe` of its stripe, or at the last rank it ran after a full
/// pass. Always a rank of `lane`'s stripe; for an empty stripe, the last
/// rank stands in.
fn straggler_rank(nprocs: usize, lanes: usize, lane: usize, done: usize) -> usize {
    let stripe = stripe_len(nprocs, lanes, lane);
    if stripe == 0 {
        return nprocs.saturating_sub(1);
    }
    let pos = match done % stripe {
        0 if done > 0 => stripe - 1,
        pos => pos,
    };
    lane + pos * lanes
}

/// The persistent-pool engine (see the module docs), byte-identical to the
/// sequential [`Machine`] engine by construction.
pub struct PooledBackend {
    machine: Machine,
    pool: WorkerPool,
    arenas: Vec<ChargeArena>,
    /// Debug builds' in-use flags for the cells a region lends: the lanes'
    /// arenas, then the per-rank scratch (or state) and posted cells.
    claims: [Claims; 3],
    /// Completion-barrier deadline; `None` disables straggler detection.
    deadline: Option<Duration>,
    /// Straggler detected during the last completed region, surfaced
    /// through [`Backend::take_phase_flaw`].
    pending_flaw: Option<PhaseError>,
    /// Degraded mode: run every region inline on the sequential oracle path
    /// (see [`Backend::degrade`]).
    inline: bool,
}

impl std::fmt::Debug for PooledBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBackend")
            .field("machine", &self.machine)
            .field("workers", &self.pool.lanes)
            .finish()
    }
}

impl PooledBackend {
    /// Wrap a machine in a pool sized to `min(nprocs, available cores)`
    /// workers (one of which is the driver thread itself).
    pub fn new(machine: Machine) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let lanes = machine.nprocs().min(cores).max(1);
        Self::with_workers(machine, lanes)
    }

    /// Wrap a machine in a pool of exactly `workers` lanes. The driver
    /// thread doubles as the last lane, so `workers - 1` OS threads are
    /// spawned; `workers` may exceed both the rank count and the hardware
    /// core count (results never depend on it).
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn with_workers(machine: Machine, workers: usize) -> Self {
        assert!(workers >= 1, "a pool needs at least one worker");
        let arenas = (0..workers).map(|_| ChargeArena::default()).collect();
        let nprocs = machine.nprocs();
        PooledBackend {
            machine,
            pool: WorkerPool::new(workers),
            arenas,
            claims: [workers, nprocs, nprocs].map(Claims::new),
            deadline: None,
            pending_flaw: None,
            inline: false,
        }
    }

    /// Enable straggler detection: when the driver lane has waited
    /// `deadline` at a crossing (stage or completion) for a worker lane, the
    /// region's first such lane is reported as a [`PhaseError::Straggler`]
    /// through [`Backend::take_phase_flaw`], which
    /// [`diagnose_attempt`](crate::diagnose_attempt) reads.
    /// The region still completes: the driver waits out the real arrival.
    pub fn set_barrier_deadline(&mut self, deadline: Duration) {
        self.deadline = Some(deadline);
    }

    /// Build a pooled engine over a fresh machine with this configuration.
    pub fn from_config(cfg: MachineConfig) -> Self {
        Self::new(Machine::new(cfg))
    }

    /// [`PooledBackend::from_config`] with an explicit worker count.
    pub fn from_config_with_workers(cfg: MachineConfig, workers: usize) -> Self {
        Self::with_workers(Machine::new(cfg), workers)
    }

    /// Number of worker lanes (including the driver's).
    pub fn workers(&self) -> usize {
        self.pool.lanes
    }

    /// Broadcast one region over the pool — the single lane body. Lane `w`
    /// takes ranks `w`, `w + workers`, … (static striping) and records each
    /// rank's charges as one span in its arena:
    ///
    /// 1. the **kernel stage**: `kernel(ctx, scratch, posted)` on each stripe
    ///    rank's two cells, each a fault-injection point and a `KernelEnter`
    ///    span, each rank caught on its own;
    /// 2. with `ncombine > 0` (the fused sweep), the stage crossing, past
    ///    which `posted` is frozen, then per buffer `j` one span per stripe
    ///    rank, filled by `combine(ctx, j, scratch, posted)` when
    ///    `active(posted, j)` and left empty otherwise, so span indexing stays
    ///    uniform for [`Self::replay_stage`].
    ///
    /// Rank panics are re-raised as one [`PanicBundle`] sorted by rank, so the
    /// caller never replays a failed region; the driver lane's first blown
    /// deadline is parked in `pending_flaw` as a [`PhaseError::Straggler`].
    #[allow(clippy::too_many_arguments)]
    fn run_lanes<Sc, Px, K, A, S>(
        &mut self,
        scratch: &mut [Sc],
        posted: &mut [Px],
        kernel: K,
        ncombine: usize,
        active: A,
        combine: S,
    ) where
        Sc: Send,
        Px: Send + Sync,
        K: Fn(&mut RankCtx<'_>, &mut Sc, &mut Px) + Sync,
        A: Fn(&[Px], usize) -> bool + Sync,
        S: Fn(&mut RankCtx<'_>, usize, &mut Sc, &[Px]) + Sync,
    {
        let nprocs = self.machine.nprocs();
        let lanes = self.pool.lanes;
        let machine = &self.machine;
        let (epoch, probe) = (machine.epoch(), machine.probe());
        let caught: Mutex<Vec<CaughtPanic>> = Mutex::new(Vec::new());
        let panicked = AtomicBool::new(false);
        let (shared, deadline) = (&*self.pool.shared, self.deadline);
        let [lane_claims, scratch_claims, posted_claims] = &self.claims;
        let arenas = Cells::new(&mut self.arenas, lane_claims);
        let scratch = Cells::new(scratch, scratch_claims);
        let posted = Cells::new(posted, posted_claims);
        let straggler = self.pool.run(
            &|lane: usize, parked: bool| {
                let me = Lane::Worker(lane);
                probe.instant(me, TraceEventKind::WorkerRelease, parked as u32);
                // The arena is claimed once per stage, never across the
                // crossing: a claim that fails is caught like a rank's panic.
                let pre = catch_unwind(AssertUnwindSafe(|| {
                    arenas.with(lane, |arena| {
                        arena.events.clear();
                        arena.starts.clear();
                        for rank in (lane..nprocs).step_by(lanes) {
                            arena.starts.push(arena.events.len() as u32);
                            let span = probe.enter(me, TraceEventKind::KernelEnter, rank as u32);
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                fault::fire_traced(machine, rank, me);
                                let mut ctx = RankCtx::recording(rank, nprocs, &mut arena.events);
                                scratch.with(rank, |sc| {
                                    posted.with(rank, |px| kernel(&mut ctx, sc, px))
                                });
                            }));
                            probe.exit(me, span, 1);
                            if let Err(payload) = result {
                                panicked.store(true, Ordering::Release);
                                caught.lock().unwrap().push(CaughtPanic {
                                    epoch,
                                    rank: Some(rank),
                                    lane: Some(lane),
                                    payload,
                                });
                            }
                            shared.progress[lane].fetch_add(1, Ordering::Release);
                        }
                    })
                }));
                if pre.is_err() {
                    panicked.store(true, Ordering::Release);
                }
                // Every lane must arrive, or its peers deadlock: an escape
                // from the stage above is re-raised after the crossing (the
                // backstop in `worker_main` / `WorkerPool::run` keeps it).
                let crossed = (ncombine > 0).then(|| {
                    let wait = probe.enter(me, TraceEventKind::StageWaitBegin, 0);
                    let crossed = shared.cross_stage(lane, deadline);
                    probe.exit(me, wait, 1);
                    crossed
                });
                if let Err(payload) = pre {
                    resume_unwind(payload);
                }
                arenas.with(lane, |arena| {
                    // Some rank failed: the region re-raises and never
                    // replays, so the combine stages are skipped pool-wide.
                    if let (Some(crossed), false) = (crossed, panicked.load(Ordering::Acquire)) {
                        let posted = posted.frozen(&crossed);
                        for j in 0..ncombine {
                            let active = active(posted, j);
                            let span = active
                                .then(|| probe.enter(me, TraceEventKind::CombineEnter, j as u32));
                            let mut ran = 0u64;
                            for rank in (lane..nprocs).step_by(lanes) {
                                arena.starts.push(arena.events.len() as u32);
                                if active {
                                    let mut ctx =
                                        RankCtx::recording(rank, nprocs, &mut arena.events);
                                    scratch.with(rank, |sc| combine(&mut ctx, j, sc, posted));
                                    ran += 1;
                                }
                                shared.progress[lane].fetch_add(1, Ordering::Release);
                            }
                            if let Some(span) = span {
                                probe.exit(me, span, ran);
                            }
                        }
                    }
                    arena.starts.push(arena.events.len() as u32);
                });
                probe.instant(me, TraceEventKind::BarrierArrive, lane as u32);
            },
            deadline,
        );
        if let Some(report) = straggler {
            let done = report.progress[report.lane] as usize;
            self.pending_flaw = Some(PhaseError::Straggler {
                epoch,
                rank: straggler_rank(nprocs, lanes, report.lane, done),
                lane: report.lane,
                waited: report.waited,
                progress: report.progress,
            });
        }
        let mut panics = caught.into_inner().unwrap();
        if !panics.is_empty() {
            panics.sort_by_key(|p| p.rank);
            resume_unwind(Box::new(PanicBundle { panics }));
        }
    }

    /// Replay one stage's spans of the arenas against the machine in
    /// ascending **rank** order — the sequential engine's exact charge
    /// sequence — as one driver-side replay span. Stage `0` is the kernel
    /// stage, stage `1 + j` scatter buffer `j`'s combine ([`ChargeArena`]).
    fn replay_stage(&mut self, stage: usize) {
        let lanes = self.pool.lanes;
        let nprocs = self.machine.nprocs();
        let span = self
            .machine
            .probe()
            .enter(Lane::Driver, TraceEventKind::ReplayBegin, 0);
        for rank in 0..nprocs {
            let lane = rank % lanes;
            let arena = &self.arenas[lane];
            let i = stage * stripe_len(nprocs, lanes, lane) + rank / lanes;
            let (start, end) = (arena.starts[i] as usize, arena.starts[i + 1] as usize);
            replay_events(&mut self.machine, &arena.events[start..end]);
        }
        self.machine.probe().replayed(span, &self.machine);
    }
}

impl Backend for PooledBackend {
    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn fan_out<St, I, F>(&mut self, state: I, kernel: F)
    where
        St: Send,
        I: IntoIterator<Item = St>,
        F: Fn(&mut RankCtx<'_>, St) + Sync,
    {
        if self.inline {
            return self.machine.fan_out(state, kernel);
        }
        let mut states: Vec<Option<St>> = state.into_iter().map(Some).collect();
        let nprocs = self.machine.nprocs();
        assert_eq!(states.len(), nprocs, "state must yield one item per rank");
        // A plain fan-out posts nothing (a `Vec` of `()` never allocates).
        let mut posted = vec![(); nprocs];
        self.run_lanes(
            &mut states,
            &mut posted,
            |ctx, st, _| kernel(ctx, st.take().expect("state slot")),
            0,
            |_, _| false,
            |_, _, _, _| {},
        );
        self.replay_stage(0);
    }

    fn run_sweep<Sc, Px, C, A, P, S>(
        &mut self,
        scratch: &mut [Sc],
        posted: &mut [Px],
        compute: C,
        nscatter: usize,
        scatter_active: A,
        scatter_pack: P,
        combine: S,
    ) where
        Sc: Send,
        Px: Send + Sync,
        C: Fn(&mut RankCtx<'_>, &mut Sc, &mut Px) + Sync,
        A: Fn(&[Px], usize) -> bool + Sync,
        P: Fn(&mut RankCtx<'_>, usize),
        S: Fn(&mut RankCtx<'_>, usize, &mut Sc, &[Px]) + Sync,
    {
        if self.inline {
            return self.machine.run_sweep(
                scratch,
                posted,
                compute,
                nscatter,
                scatter_active,
                scatter_pack,
                combine,
            );
        }
        self.machine.advance_epoch();
        let nprocs = self.machine.nprocs();
        assert_eq!(scratch.len(), nprocs, "one scratch item per rank");
        assert_eq!(posted.len(), nprocs, "one posted area per rank");
        // One release runs the whole sweep: compute, stage crossing, combine.
        self.run_lanes(scratch, posted, compute, nscatter, &scatter_active, combine);
        // Replay compute, then per active buffer the driver-side pack stage
        // (charges only), the phase close and the buffer's combine spans: the
        // sequential engine's exact sequence.
        self.replay_stage(0);
        for j in 0..nscatter {
            if !scatter_active(posted, j) {
                continue;
            }
            charge_stage(&mut self.machine, false, |ctx| scatter_pack(ctx, j));
            self.replay_stage(1 + j);
        }
    }

    fn take_phase_flaw(&mut self) -> Option<PhaseError> {
        self.pending_flaw.take()
    }

    fn degrade(&mut self) -> bool {
        self.inline = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engines(p: usize, workers: usize) -> (Machine, PooledBackend) {
        (
            Machine::new(MachineConfig::ipsc860(p)),
            PooledBackend::from_config_with_workers(MachineConfig::ipsc860(p), workers),
        )
    }

    /// A phase whose pack charges a ring of messages and whose unpack writes
    /// rank-local state — exercised identically on both engines.
    fn ring_phase<B: Backend>(backend: &mut B, out: &mut [f64]) {
        backend.run_phase(
            |ctx| {
                let r = ctx.rank();
                ctx.charge_memory(r, 3.0);
                ctx.charge_p2p(r, (r + 1) % ctx.nprocs(), 3);
            },
            out.iter_mut(),
            |ctx, slot| {
                ctx.charge_compute(ctx.rank(), 2.0);
                *slot = ctx.rank() as f64 * 10.0;
            },
        );
    }

    fn assert_bit_identical(seq: &Machine, pool: &PooledBackend) {
        let (ea, eb) = (seq.elapsed(), pool.machine().elapsed());
        for p in 0..seq.nprocs() {
            assert_eq!(ea.per_proc[p].to_bits(), eb.per_proc[p].to_bits());
            assert_eq!(ea.comm[p].to_bits(), eb.comm[p].to_bits());
            assert_eq!(ea.idle[p].to_bits(), eb.idle[p].to_bits());
        }
        let (sa, sb) = (
            seq.stats().grand_totals(),
            pool.machine().stats().grand_totals(),
        );
        assert_eq!(sa.messages, sb.messages);
        assert_eq!(sa.bytes, sb.bytes);
        assert_eq!(sa.phases, sb.phases);
        assert_eq!(sa.comm_seconds.to_bits(), sb.comm_seconds.to_bits());
        for kind in crate::stats::PhaseKind::ALL {
            let (ka, kb) = (
                seq.stats().totals_for(kind),
                pool.machine().stats().totals_for(kind),
            );
            assert_eq!(
                (ka.messages, ka.bytes, ka.phases),
                (kb.messages, kb.bytes, kb.phases)
            );
            assert_eq!(ka.comm_seconds.to_bits(), kb.comm_seconds.to_bits());
        }
    }

    #[test]
    fn pooled_phase_is_bit_identical_to_sequential() {
        for workers in [1, 2, 3, 8] {
            let (mut seq, mut pool) = engines(8, workers);
            let mut out_a = vec![0.0; 8];
            let mut out_b = vec![0.0; 8];
            ring_phase(&mut seq, &mut out_a);
            ring_phase(&mut pool, &mut out_b);
            assert_eq!(out_a, out_b, "workers={workers}");
            assert_bit_identical(&seq, &pool);
        }
    }

    #[test]
    fn ranks_exceeding_workers_stripe_onto_the_pool() {
        // 16 ranks on 3 lanes: lane 0 runs ranks {0,3,6,...}, etc. Replay
        // must still interleave back to ascending rank order.
        let (mut seq, mut pool) = engines(16, 3);
        let mut a = vec![0u32; 16];
        let mut b = vec![0u32; 16];
        seq.run_compute(a.iter_mut(), |ctx, d| {
            ctx.charge_compute(ctx.rank(), 1.0 + ctx.rank() as f64);
            *d = ctx.rank() as u32;
        });
        pool.run_compute(b.iter_mut(), |ctx, d| {
            ctx.charge_compute(ctx.rank(), 1.0 + ctx.rank() as f64);
            *d = ctx.rank() as u32;
        });
        assert_eq!(a, (0..16).collect::<Vec<_>>());
        assert_eq!(a, b);
        assert_bit_identical(&seq, &pool);
    }

    #[test]
    fn workers_exceeding_ranks_and_cores_still_agree() {
        // More lanes (12) than ranks (4), and (on small containers) more
        // lanes than hardware cores: idle lanes run empty stripes, busy
        // lanes timeshare, results must not care.
        let (mut seq, mut pool) = engines(4, 12);
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        ring_phase(&mut seq, &mut a);
        ring_phase(&mut pool, &mut b);
        assert_eq!(a, b);
        assert_bit_identical(&seq, &pool);
    }

    #[test]
    fn many_phases_reuse_the_pool_and_stay_identical() {
        // 100 back-to-back phases through the same pool: the epoch barrier
        // must hand off cleanly every time (spin, yield and park paths all
        // get exercised under scheduler noise), and the arenas must absorb
        // the recording without fresh allocation once grown.
        let mut seq = Machine::new(MachineConfig::unit(6));
        let mut pool = PooledBackend::from_config_with_workers(MachineConfig::unit(6), 3);
        let mut a = vec![0.0; 6];
        let mut b = vec![0.0; 6];
        for _ in 0..100 {
            ring_phase(&mut seq, &mut a);
            ring_phase(&mut pool, &mut b);
        }
        assert_eq!(a, b);
        assert_bit_identical(&seq, &pool);
        let arena_capacity: usize = pool.arenas.iter().map(|a| a.events.capacity()).sum();
        let mut c = vec![0.0; 6];
        ring_phase(&mut pool, &mut c);
        let after: usize = pool.arenas.iter().map(|a| a.events.capacity()).sum();
        assert_eq!(arena_capacity, after, "steady-state arenas must not grow");
    }

    /// A fused sweep over two scatter buffers: compute posts per-rank
    /// contributions (buffer 1 stays untouched), the active buffer charges
    /// a ring of messages, and combine folds every rank's contribution into
    /// the local scratch.
    fn fused_sweep<B: Backend>(backend: &mut B, out: &mut [f64]) -> Vec<f64> {
        let n = backend.nprocs();
        let mut posted: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0; 2]).collect();
        backend.run_sweep(
            out,
            &mut posted,
            |ctx, sc: &mut f64, px: &mut Vec<f64>| {
                let r = ctx.rank();
                ctx.charge_compute(r, 1.0 + r as f64);
                px[0] = (r as f64 + 1.0) * 0.25;
                px[1] = 1.0;
                *sc = r as f64;
            },
            2,
            |posted, j| j == 0 && posted.iter().any(|p| p[1] != 0.0),
            |ctx, _j| {
                let r = ctx.rank();
                ctx.charge_memory(r, 2.0);
                ctx.charge_p2p(r, (r + 1) % ctx.nprocs(), 2);
            },
            |ctx, _j, sc, posted| {
                ctx.charge_compute(ctx.rank(), 0.5);
                *sc += posted.iter().map(|p| p[0]).sum::<f64>();
            },
        );
        posted.into_iter().map(|p| p[0]).collect()
    }

    #[test]
    fn pooled_fused_sweep_is_bit_identical_to_sequential() {
        for workers in [1, 2, 3, 8] {
            let (mut seq, mut pool) = engines(8, workers);
            let mut out_a = vec![0.0; 8];
            let mut out_b = vec![0.0; 8];
            let pa = fused_sweep(&mut seq, &mut out_a);
            let pb = fused_sweep(&mut pool, &mut out_b);
            assert_eq!(out_a, out_b, "workers={workers}");
            assert_eq!(pa, pb, "workers={workers}");
            assert_eq!(seq.epoch(), pool.machine().epoch(), "one epoch per sweep");
            assert_bit_identical(&seq, &pool);
        }
    }

    #[test]
    fn fused_sweep_stripes_ranks_onto_the_pool() {
        // 16 ranks on 3 lanes: the stage-major span layout must still
        // replay back in ascending rank order, across several sweeps so
        // the arenas are reused.
        let (mut seq, mut pool) = engines(16, 3);
        let mut a = vec![0.0; 16];
        let mut b = vec![0.0; 16];
        for _ in 0..5 {
            fused_sweep(&mut seq, &mut a);
            fused_sweep(&mut pool, &mut b);
        }
        assert_eq!(a, b);
        assert_bit_identical(&seq, &pool);
    }

    #[test]
    fn fused_sweep_rank_panic_leaves_the_machine_untouched() {
        let mut pool = PooledBackend::from_config_with_workers(MachineConfig::unit(8), 3);
        let mut sc = vec![0.0f64; 8];
        let mut px = vec![0u8; 8];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_sweep(
                &mut sc,
                &mut px,
                |ctx, _sc: &mut f64, _px: &mut u8| {
                    ctx.charge_compute(ctx.rank(), 1.0);
                    if ctx.rank() == 5 {
                        panic!("kernel exploded on rank 5");
                    }
                },
                1,
                |_, _| true,
                |_, _| {},
                |_, _, _, _| {},
            );
        }));
        let payload = result.expect_err("rank panic must reach the driver");
        let err = PhaseError::from_payload(1, payload);
        match err {
            PhaseError::RankPanic { failures, .. } => {
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].rank, Some(5));
            }
            other => panic!("expected RankPanic, got {other:?}"),
        }
        // Nothing replayed: the machine saw only the epoch advance.
        assert_eq!(pool.machine().epoch(), 1);
        assert_eq!(pool.machine().elapsed().max_seconds(), 0.0);
        // The pool is reusable: the next sweep completes and replays.
        let mut out = vec![0.0; 8];
        fused_sweep(&mut pool, &mut out);
        assert!(pool.machine().elapsed().max_seconds() > 0.0);
    }

    #[test]
    fn worker_panic_propagates_to_the_driver() {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut pool = PooledBackend::from_config_with_workers(MachineConfig::unit(4), 4);
            let mut out = [0u8; 4];
            pool.run_compute(out.iter_mut(), |ctx, _| {
                if ctx.rank() == 1 {
                    panic!("kernel exploded on rank 1");
                }
            });
        }));
        let payload = result.expect_err("worker panic must reach the driver");
        let bundle = payload
            .downcast_ref::<PanicBundle>()
            .expect("pool re-raises an aggregated PanicBundle");
        assert_eq!(bundle.panics.len(), 1);
        let caught = &bundle.panics[0];
        assert_eq!(caught.rank, Some(1));
        let msg = caught
            .payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_default();
        assert!(msg.contains("kernel exploded"), "unexpected payload: {msg}");
    }

    #[test]
    fn multi_rank_panics_name_every_failing_rank() {
        // Two ranks explode in the same phase on different lanes: the
        // aggregated bundle (and the typed error built from it) must name
        // both, sorted by rank — not just the first payload caught.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut pool = PooledBackend::from_config_with_workers(MachineConfig::unit(8), 3);
            let mut out = [0u8; 8];
            pool.run_compute(out.iter_mut(), |ctx, _| {
                if ctx.rank() == 2 || ctx.rank() == 5 {
                    panic!("boom on rank {}", ctx.rank());
                }
            });
        }));
        let payload = result.expect_err("worker panics must reach the driver");
        let err = PhaseError::from_payload(0, payload);
        match err {
            PhaseError::RankPanic { failures, .. } => {
                let ranks: Vec<_> = failures.iter().map(|f| f.rank).collect();
                assert_eq!(ranks, vec![Some(2), Some(5)]);
                for f in &failures {
                    assert!(f.lane.is_some(), "lane recorded with every payload");
                    assert!(
                        matches!(&f.cause, crate::fault::PhaseCause::Panic(m) if m.contains("boom"))
                    );
                }
            }
            other => panic!("expected RankPanic, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "one item per rank")]
    fn short_state_iterator_panics() {
        let mut pool = PooledBackend::from_config_with_workers(MachineConfig::unit(4), 2);
        let mut only_two = [0u8; 2];
        pool.run_compute(only_two.iter_mut(), |_, _| {});
    }

    #[test]
    fn dropping_the_backend_joins_the_workers() {
        let pool = PooledBackend::from_config_with_workers(MachineConfig::unit(2), 6);
        let shared = Arc::clone(&pool.pool.shared);
        drop(pool);
        // Each of the five workers held a clone until its thread exited.
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn barrier_deadline_surfaces_a_straggler() {
        use crate::fault::{FaultKind, FaultPlan};
        use std::sync::Arc;
        use std::time::Duration;

        // Two lanes: the driver takes the last lane, so rank 0 runs on the
        // spawned worker (lane 0). Stall it well past the barrier deadline:
        // the phase still completes (a stall is a delay, not a crash) but the
        // typed error names the hung rank with its lane and progress.
        let mut pool = PooledBackend::from_config_with_workers(MachineConfig::unit(2), 2);
        pool.set_barrier_deadline(Duration::from_millis(5));
        let plan = FaultPlan::new()
            .with_stall(Duration::from_millis(120))
            .with_fault(1, 0, FaultKind::LaneStall);
        pool.machine_mut().install_fault_plan(Some(Arc::new(plan)));

        let mut out = [0u64; 2];
        pool.run_compute(out.iter_mut(), |ctx, slot| *slot = ctx.rank() as u64 + 1);
        match pool.take_phase_flaw().expect("a straggler report") {
            PhaseError::Straggler {
                epoch,
                rank,
                lane,
                waited,
                ref progress,
            } => {
                assert_eq!(epoch, 1);
                assert_eq!(rank, 0);
                assert_eq!(lane, 0);
                assert!(waited >= Duration::from_millis(5));
                assert_eq!(progress.len(), 2);
            }
            other => panic!("expected Straggler, got {other:?}"),
        }
        // The stalled lane finished the work before the error was built.
        assert_eq!(out, [1, 2]);

        // The next phase is flaw-free: the fault was consumed.
        let mut out = [0u64; 2];
        pool.run_compute(out.iter_mut(), |ctx, slot| *slot = ctx.rank() as u64);
        assert!(pool.take_phase_flaw().is_none());
        assert_eq!(out, [0, 1]);
    }

    #[test]
    fn the_deadline_holds_at_a_fused_sweeps_stage_crossing() {
        use crate::fault::{FaultKind, FaultPlan};
        use std::time::Duration;

        // Rank 0 runs on the spawned worker (lane 0) and stalls in the
        // compute stage, so the driver lane waits at the stage crossing; by
        // the completion crossing every lane is back on time.
        let (mut seq, mut pool) = engines(4, 2);
        pool.set_barrier_deadline(Duration::from_millis(20));
        let plan = FaultPlan::new()
            .with_stall(Duration::from_millis(150))
            .with_fault(1, 0, FaultKind::LaneStall);
        pool.machine_mut().install_fault_plan(Some(Arc::new(plan)));
        let (mut a, mut b) = (vec![0.0; 4], vec![0.0; 4]);
        fused_sweep(&mut seq, &mut a);
        fused_sweep(&mut pool, &mut b);
        match pool.take_phase_flaw() {
            Some(PhaseError::Straggler {
                epoch: 1,
                rank: 0,
                lane: 0,
                waited,
                progress,
            }) => {
                assert!(waited >= Duration::from_millis(20));
                assert_eq!(progress[0], 0, "rank 0 had not finished computing");
            }
            other => panic!("expected a straggler at rank 0, lane 0, got {other:?}"),
        }
        // The sweep itself completed, and the next one is flaw-free.
        assert_eq!(a, b);
        assert_bit_identical(&seq, &pool);
        fused_sweep(&mut pool, &mut b);
        assert!(pool.take_phase_flaw().is_none());
    }

    #[test]
    fn a_straggler_report_does_not_outlive_its_phase() {
        use std::time::Duration;

        // The worker lane stays until the driver lane has reported it, while
        // the driver lane's job panics: the panic unwinds out of `run`, and
        // the next phase must not inherit the report.
        let pool = WorkerPool::new(2);
        let deadline = Some(Duration::from_millis(5));
        let shared = Arc::clone(&pool.shared);
        let overstay = move |lane: usize, _| match lane {
            0 => {
                while shared.straggler.lock().unwrap().is_none() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            _ => panic!("the driver lane's job failed"),
        };
        assert!(catch_unwind(AssertUnwindSafe(|| pool.run(&overstay, deadline))).is_err());
        // Without a deadline the next phase can only return a stale report.
        assert!(pool.run(&|_, _| {}, None).is_none());
    }

    #[test]
    fn straggler_rank_is_always_in_the_reported_lanes_stripe() {
        for nprocs in 1..=8usize {
            for lanes in 1..=8usize {
                for lane in 0..lanes {
                    let stripe = stripe_len(nprocs, lanes, lane);
                    for done in 0..=2 * stripe {
                        let rank = straggler_rank(nprocs, lanes, lane, done);
                        let at = (nprocs, lanes, lane, done);
                        assert!(rank < nprocs, "{at:?} -> {rank}");
                        if stripe == 0 {
                            continue;
                        }
                        assert_eq!(rank % lanes, lane, "{at:?} -> {rank}");
                        let last = lane + (stripe - 1) * lanes;
                        if done < stripe {
                            // In flight: the position the counter points at.
                            assert_eq!(rank, lane + done * lanes, "{at:?}");
                        } else if done % stripe == 0 {
                            // A finished pass: the last rank it ran.
                            assert_eq!(rank, last, "{at:?}");
                        } else {
                            // A later stage walks the same stripe again.
                            let folded = straggler_rank(nprocs, lanes, lane, done - stripe);
                            assert_eq!(rank, folded, "{at:?}");
                        }
                    }
                }
            }
        }
        // The parent's clamp named rank 3, which lane 1 runs.
        assert_eq!(straggler_rank(4, 2, 0, 2), 2);
    }

    #[test]
    fn bounded_shutdown_joins_all_lanes() {
        use std::time::Duration;

        let mut pool = PooledBackend::from_config_with_workers(MachineConfig::unit(4), 3);
        let mut out = [0u8; 4];
        pool.run_compute(out.iter_mut(), |ctx, slot| *slot = ctx.rank() as u8);
        let all_joined = pool.pool.shutdown_with_deadline(Duration::from_secs(5));
        assert!(all_joined, "idle workers must join within the deadline");
        assert_eq!(pool.machine().nprocs(), 4);
        assert_eq!(out, [0, 1, 2, 3]);
    }

    #[test]
    fn shutdown_after_caught_worker_panic_is_bounded() {
        use std::time::Duration;

        // Regression for the mid-epoch drop path: a worker panicked during a
        // phase, the driver caught the bundle, and the backend is then torn
        // down. The workers must still be parked at the next-epoch wait and
        // join promptly — the pool may not deadlock on the poisoned phase.
        let mut pool = PooledBackend::from_config_with_workers(MachineConfig::unit(4), 4);
        let mut out = [0u8; 4];
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            pool.run_compute(out.iter_mut(), |ctx, _| {
                if ctx.rank() == 3 {
                    panic!("mid-epoch failure");
                }
            })
        }));
        let err = crate::diagnose_attempt(&mut pool, attempt).unwrap_err();
        assert!(matches!(err, PhaseError::RankPanic { .. }));
        let all_joined = pool.pool.shutdown_with_deadline(Duration::from_secs(5));
        assert!(all_joined, "workers must join after a caught panic");
    }
}
