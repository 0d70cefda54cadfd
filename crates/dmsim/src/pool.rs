//! The persistent worker-pool SPMD engine: long-lived workers driven by
//! broadcast phase descriptors through an epoch release and a completion
//! crossing.
//!
//! Spawning one OS thread per rank per phase costs tens of microseconds
//! each, which dominates small and medium phases now that the compute inside
//! them is cheap (CSR schedules, compiled kernels). [`PooledBackend`] avoids
//! that cost structurally:
//!
//! * **Workers are created once** (at pool construction) and live until the
//!   backend is dropped. The driver thread itself doubles as the last lane,
//!   so a pool of `w` workers spawns only `w - 1` OS threads — and a
//!   single-worker pool runs everything inline with no synchronization at
//!   all.
//! * **Stages are broadcast, not spawned.** The engine has **one lane
//!   body** (`PooledBackend::run_lanes`, the only caller of
//!   `WorkerPool::run`): a kernel stage over the lane's stripe and, for the
//!   fused sweep, a stage barrier followed by the combine stages. The two
//!   things the pool implements of [`Backend`], `fan_out` and `run_sweep`,
//!   publish it as one type-erased descriptor (a borrowed closure, made to
//!   outlive the call through the pool's epoch protocol) and release the
//!   workers by bumping an epoch counter — the monotonic generalization of
//!   a sense-reversing barrier flag: a worker's "sense" is the last epoch
//!   it completed, and the release test is simply `epoch != seen`.
//! * **Every crossing waits the same way.** The release (workers wait for
//!   the epoch), the fused sweep's stage crossing and the completion (the
//!   driver waits for every worker) share one wait: spin briefly, yield,
//!   then park on the crossing's condvar. Back-to-back phases stay off the
//!   scheduler, lanes that outnumber the cores hand their quantum on, and
//!   an idle pool consumes no CPU. Only after the completion crossing does
//!   the driver touch the descriptor slot again, which is what makes
//!   lending the borrowed closure to the workers sound.
//! * **Ranks are striped statically.** Rank `r` always runs on lane
//!   `r % workers`, so more ranks than workers fold onto the pool without
//!   rebalancing, and a rank's charges always land in the same lane-local
//!   arena.
//! * **Scratch is per-worker and reusable.** Each lane owns a
//!   `ChargeArena` — a small CSR log (flat event vector + one offset per
//!   processed rank) cleared, not freed, every phase. Steady state records
//!   and replays charges with zero allocation.
//!
//! Determinism is inherited from the [`Backend`](crate::backend) contract
//! unchanged: kernels write only rank-disjoint state, charge only through
//! their [`RankCtx`], and the recorded events are replayed against the
//! machine **in ascending rank order** after the barrier — the exact
//! sequence the sequential [`Machine`] oracle performs, so clocks,
//! statistics and values are bit-identical by construction, for any worker
//! count, on any core count.

use crate::backend::{charge_stage, replay_events, Backend, ChargeEvent, PhaseEnd, RankCtx};
use crate::config::MachineConfig;
use crate::fault::{self, CaughtPanic, PanicBundle, PhaseError};
use crate::machine::{Machine, PhaseCharge};
use crate::probe::Lane;
use crate::trace::TraceEventKind;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A wait spins (`spin_loop`) this many rounds, then yields its time slice
/// (so a lane that outnumbers the cores hands its quantum to the lane it
/// waits for) until `PARK_AFTER_ROUNDS`, then parks on its condvar. 1 024
/// rounds take about 0.3 ms on a 2-core x86-64 host: back-to-back phases
/// never park, and an idle pool soon stops consuming CPU.
const YIELD_AFTER_ROUNDS: u32 = 128;
const PARK_AFTER_ROUNDS: u32 = 1024;

/// How long [`WorkerPool`]'s `Drop` waits for the lanes to exit before
/// detaching them (see [`WorkerPool::shutdown_with_deadline`]).
const DEFAULT_SHUTDOWN_DEADLINE: Duration = Duration::from_secs(5);

/// What the driver learned when the deadline of one of its waits passed:
/// which lane had not arrived at that crossing, how long the driver had
/// waited, and how many ranks each lane had completed by then.
struct StragglerReport {
    lane: usize,
    waited: Duration,
    progress: Vec<u64>,
}

/// A type-erased phase descriptor: the closure every lane runs once per
/// phase, handed its lane index and whether the lane had to park (outlast
/// the spin and yield rounds and sleep on the condvar) while waiting for
/// this release — the flight recorder turns that flag into a
/// `WorkerRelease` annotation. The `'static` in the pointee type is a lie
/// the pool is structured to keep harmless — the driver never returns from
/// [`WorkerPool::run`] until every worker has passed the completion
/// crossing, so the borrow the pointer was created from is still live
/// whenever a worker dereferences it.
type Job = *const (dyn Fn(usize, bool) + Sync);

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
    /// yield, then park. Returns `true` when the wait parked (the flight
    /// recorder's park-vs-spin signal).
    ///
    /// Once a wait with a `deadline` has lasted that long, `overdue` runs
    /// and the wait goes on until the real arrival: the workers hold
    /// borrowed pointers into the driver's stack, so surfacing a hang must
    /// not make lending the phase descriptor unsound.
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
    /// The current phase descriptor. Written by the driver strictly before
    /// the epoch bump, cleared strictly after the completion crossing; in
    /// between, read-only.
    job: UnsafeCell<Option<Job>>,
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
    /// Ranks completed per lane during the current phase (the straggler
    /// diagnostic). Reset by the driver while the pool is quiescent.
    progress: Vec<AtomicU64>,
    /// Crossings (stage and completion) each lane has arrived at during the
    /// current phase, so a blown deadline can name a lane that has not
    /// reached the crossing the driver waits at. Driver lane included.
    crossed: Vec<AtomicU64>,
    /// The first straggler report of the current phase.
    straggler: Mutex<Option<StragglerReport>>,
    /// Number of spawned workers (lanes excluding the driver's).
    spawned: usize,
}

// Safety: `job` is the only non-Sync field. It is written by the driver only
// while every worker is quiescent (before the epoch release / after the
// completion crossing) and read by workers only between those two points.
unsafe impl Send for PoolShared {}
unsafe impl Sync for PoolShared {}

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
    fn cross_stage(&self, lane: usize, deadline: Option<Duration>) {
        let lanes = self.spawned as u64 + 1;
        self.crossed[lane].fetch_add(1, Ordering::Release);
        let count = self.stage.arrive(lanes);
        let deadline = deadline.filter(|_| lane == self.spawned);
        self.wait_at(&self.stage, count.div_ceil(lanes) * lanes, deadline);
    }
}

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
        // Safety: the driver published the descriptor before this epoch and
        // keeps the underlying closure alive until after `arrive`.
        let job = unsafe { (*shared.job.get()).expect("pool epoch bumped with no job") };
        let job = unsafe { &*job };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(lane, parked))) {
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
            job: UnsafeCell::new(None),
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

    /// Run `job(lane)` once per lane — spawned workers take lanes
    /// `0..lanes-1`, the driver takes the last — returning only after every
    /// lane has finished. Worker panics are re-raised here, after the
    /// completion crossing, so the borrowed descriptor is never outlived;
    /// when several lanes panicked, *all* their payloads are re-raised
    /// together as one [`PanicBundle`]. The first `deadline` the driver lane
    /// blew — at the completion crossing here, or at a stage crossing the
    /// job crossed with the same deadline — is returned as a straggler
    /// report (the phase still completes).
    fn run(
        &self,
        job: &(dyn Fn(usize, bool) + Sync),
        deadline: Option<Duration>,
    ) -> Option<StragglerReport> {
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
        // Publish, then release. Safety: every worker is quiescent between
        // phases (the previous completion crossing has passed), so the slot
        // is ours to write.
        unsafe {
            *shared.job.get() = Some(std::mem::transmute::<
                *const (dyn Fn(usize, bool) + Sync),
                Job,
            >(job));
        }
        let epoch = shared.release.arrive(1);
        // The driver is a lane too: run its stripe while the workers run
        // theirs (never parked — it released this epoch itself). A panic
        // here must still wait out the completion crossing (the workers hold
        // pointers into the driver's stack), hence the catch.
        let mine = catch_unwind(AssertUnwindSafe(|| job(driver_lane, false)));
        shared.crossed[driver_lane].fetch_add(1, Ordering::Release);
        shared.wait_at(&shared.done, epoch * shared.spawned as u64, deadline);
        // Safety: completion crossing passed; the slot is quiescent again.
        unsafe {
            *shared.job.get() = None;
        }
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

    /// Bounded shutdown: wake every parked lane, then join each worker,
    /// polling up to `deadline` overall. A worker that still has not exited
    /// by then is detached rather than joined — safe because workers check
    /// the shutdown flag before dereferencing the job slot, and no phase is
    /// in flight when this runs (every `run` waits out its completion
    /// crossing). Returns `true` when every worker was joined.
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

/// One lane's reusable charge scratch: every event the lane's ranks recorded
/// this phase, stored contiguously, with one start offset per processed rank
/// (CSR-style; a trailing sentinel closes the last span). Cleared — never
/// freed — each phase, so steady-state phases record without allocating.
///
/// The fused sweep generalizes the layout to multiple *stages* per phase:
/// stage `s`'s span for the lane's `i`-th stripe rank is span
/// `s * stripe_len + i`, with inactive stages contributing empty spans so
/// the indexing stays uniform.
#[derive(Debug, Default)]
struct ChargeArena {
    events: Vec<ChargeEvent>,
    starts: Vec<u32>,
}

/// A `&mut [T]` smuggled to the pool's lanes as disjointly-indexed cells.
///
/// Safety contract: during one phase, each index is touched by at most one
/// lane (the rank → lane striping is a partition), and the driver does not
/// touch the slice until the phase's completion barrier has passed.
struct RawCells<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Send for RawCells<T> {}
unsafe impl<T: Send> Sync for RawCells<T> {}

impl<T> RawCells<T> {
    fn new(slice: &mut [T]) -> Self {
        RawCells {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Safety: `i < len`, and no other lane touches index `i` this phase.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }

    /// A shared view of the whole slice. Safety: no lane holds a `&mut`
    /// into the slice for as long as the view is read — in the fused sweep
    /// the stage barrier separates the mutating compute stage from the
    /// read-only combine stages.
    unsafe fn as_slice(&self) -> &[T] {
        std::slice::from_raw_parts(self.ptr, self.len)
    }
}

/// Number of ranks striped onto `lane` (`rank % lanes == lane`).
fn stripe_len(nprocs: usize, lanes: usize, lane: usize) -> usize {
    if lane >= nprocs {
        0
    } else {
        (nprocs - lane).div_ceil(lanes)
    }
}

/// The rank a straggler report names: `lane` had completed `done`
/// rank-executions (counted across every stage of the region, each stage a
/// pass over the lane's stripe) when the barrier deadline passed, so it was
/// executing — or about to execute — position `done % stripe` of its stripe;
/// a lane that had just finished a pass (or the whole region) without
/// arriving is pinned to the last rank it ran. Always a rank of `lane`'s own
/// stripe; a lane with an empty stripe has none, and the last rank stands in.
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

/// The persistent-pool engine: long-lived workers, a broadcast-descriptor
/// phase protocol, per-worker reusable charge arenas and static rank →
/// worker striping (see the module docs).
/// Byte-identical to the sequential [`Machine`] engine by construction.
pub struct PooledBackend {
    machine: Machine,
    pool: WorkerPool,
    arenas: Vec<ChargeArena>,
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
        PooledBackend {
            machine,
            pool: WorkerPool::new(workers),
            arenas,
            deadline: None,
            pending_flaw: None,
            inline: false,
        }
    }

    /// Enable straggler detection: whenever the driver lane has waited
    /// `deadline` at a crossing — a fused sweep's stage crossing or a
    /// region's completion — for a worker lane that has not arrived, the
    /// region's first such lane is reported as a [`PhaseError::Straggler`]
    /// through [`Backend::take_phase_flaw`] / [`Backend::try_run_compute`].
    /// The region itself still completes — the driver waits out the real
    /// arrival so the borrowed phase descriptor stays sound.
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
    /// 1. the **kernel stage**: `kernel(ctx, rank)` per stripe rank, each
    ///    entry a fault-injection point and a `KernelEnter` span, each rank
    ///    caught on its own;
    /// 2. with `ncombine > 0` (the fused sweep), the stage crossing — what
    ///    the kernel stage wrote is frozen past it — then per buffer `j` one
    ///    span per stripe rank, filled by `combine(ctx, j, rank)` when
    ///    `active(j)` and left empty otherwise, so span indexing stays
    ///    uniform for [`Self::replay_stage`]. A plain fan-out has no second
    ///    stage and does not wait.
    ///
    /// Rank panics (organic or injected) are re-raised as one sorted
    /// [`PanicBundle`] naming every failing rank; the caller then never
    /// reaches its replay, so the machine is untouched by the failed region.
    /// The driver lane's first blown deadline (at the stage crossing or the
    /// completion) is parked in `pending_flaw` as a [`PhaseError::Straggler`].
    fn run_lanes<K, A, S>(
        &mut self,
        in_phase: bool,
        kernel: K,
        ncombine: usize,
        active: A,
        combine: S,
    ) where
        K: Fn(&mut RankCtx<'_>, usize) + Sync,
        A: Fn(usize) -> bool + Sync,
        S: Fn(&mut RankCtx<'_>, usize, usize) + Sync,
    {
        let nprocs = self.machine.nprocs();
        let lanes = self.pool.lanes;
        let machine = &self.machine;
        let (epoch, probe) = (machine.epoch(), machine.probe());
        let caught: Mutex<Vec<CaughtPanic>> = Mutex::new(Vec::new());
        let panicked = AtomicBool::new(false);
        let (shared, deadline) = (&*self.pool.shared, self.deadline);
        let arenas = RawCells::new(&mut self.arenas);
        let straggler = self.pool.run(
            &|lane: usize, parked: bool| {
                let me = Lane::Worker(lane);
                probe.instant(me, TraceEventKind::WorkerRelease, parked as u32);
                // Safety: lane indices are distinct across the pool's lanes.
                let arena = unsafe { arenas.get_mut(lane) };
                arena.events.clear();
                arena.starts.clear();
                let pre = catch_unwind(AssertUnwindSafe(|| {
                    for rank in (lane..nprocs).step_by(lanes) {
                        arena.starts.push(arena.events.len() as u32);
                        let span = probe.enter(me, TraceEventKind::KernelEnter, rank as u32);
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            fault::fire_traced(machine, rank, me);
                            let mut ctx =
                                RankCtx::recording(rank, nprocs, &mut arena.events, in_phase);
                            kernel(&mut ctx, rank);
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
                }));
                if pre.is_err() {
                    panicked.store(true, Ordering::Release);
                }
                if ncombine > 0 {
                    // Every lane must arrive — re-raising before the crossing
                    // would deadlock the peers — so an escape from the loop
                    // above is deferred until after arrival (the lane-level
                    // backstop in `worker_main` / `WorkerPool::run` keeps
                    // the payload).
                    let wait = probe.enter(me, TraceEventKind::StageWaitBegin, 0);
                    shared.cross_stage(lane, deadline);
                    probe.exit(me, wait, 1);
                }
                if let Err(payload) = pre {
                    resume_unwind(payload);
                }
                // Some rank failed: the region re-raises and never replays,
                // so the combine stages are skipped pool-wide.
                if !panicked.load(Ordering::Acquire) {
                    for j in 0..ncombine {
                        let active = active(j);
                        let span =
                            active.then(|| probe.enter(me, TraceEventKind::CombineEnter, j as u32));
                        let mut ran = 0u64;
                        for rank in (lane..nprocs).step_by(lanes) {
                            arena.starts.push(arena.events.len() as u32);
                            if active {
                                let mut ctx =
                                    RankCtx::recording(rank, nprocs, &mut arena.events, false);
                                combine(&mut ctx, j, rank);
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

    /// Replay one stage's spans of the lanes' arenas against the machine in
    /// ascending **rank** order (interleaving across lanes per the stripe
    /// map) — the exact charge sequence the sequential engine would have
    /// produced — as one driver-side replay span. A plain fan-out has the
    /// single stage `0`; in a fused sweep stage `0` is compute and stage
    /// `1 + j` is scatter buffer `j`'s combine (see the span layout note on
    /// [`ChargeArena`]).
    fn replay_stage(&mut self, stage: usize, mut phase: Option<&mut PhaseCharge>) {
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
            replay_events(
                &mut self.machine,
                phase.as_deref_mut(),
                &arena.events[start..end],
            );
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

    fn fan_out<St, I, F>(&mut self, phase: Option<&mut PhaseCharge>, state: I, kernel: F)
    where
        St: Send,
        I: IntoIterator<Item = St>,
        F: Fn(&mut RankCtx<'_>, St) + Sync,
    {
        if self.inline {
            return self.machine.fan_out(phase, state, kernel);
        }
        let mut states: Vec<Option<St>> = state.into_iter().map(Some).collect();
        let nprocs = self.machine.nprocs();
        assert_eq!(states.len(), nprocs, "state must yield one item per rank");
        let cells = RawCells::new(&mut states);
        self.run_lanes(
            phase.is_some(),
            |ctx, rank| {
                // Safety: each rank index is visited exactly once per region.
                let st = unsafe { cells.get_mut(rank) }.take().expect("state slot");
                kernel(ctx, st);
            },
            0,
            |_| false,
            |_, _, _| {},
        );
        self.replay_stage(0, phase);
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
        let scratch_cells = RawCells::new(&mut *scratch);
        let posted_cells = RawCells::new(&mut *posted);
        // One broadcast release runs the whole sweep: every lane computes
        // its stripe, crosses the stage barrier (after which the posted
        // areas are frozen), then records every combine stage.
        self.run_lanes(
            false,
            |ctx, rank| {
                // Safety: rank → lane striping is a partition.
                let sc = unsafe { scratch_cells.get_mut(rank) };
                let px = unsafe { posted_cells.get_mut(rank) };
                compute(ctx, sc, px);
            },
            nscatter,
            // Safety (both views): the stage barrier retired every `&mut`
            // the compute stage took into the posted areas.
            |j| scatter_active(unsafe { posted_cells.as_slice() }, j),
            |ctx, j, rank| {
                // Safety: striping partitions scratch too.
                let sc = unsafe { scratch_cells.get_mut(rank) };
                combine(ctx, j, sc, unsafe { posted_cells.as_slice() });
            },
        );
        // Replay compute, then per active buffer: the driver-side pack
        // stage (charges only, like `run_phase`'s), a quiet close, and the
        // buffer's combine spans — ascending rank order throughout, the
        // exact sequence the sequential engine produces.
        self.replay_stage(0, None);
        for j in 0..nscatter {
            if !scatter_active(posted, j) {
                continue;
            }
            charge_stage(&mut self.machine, PhaseEnd::Quiet, false, |ctx| {
                scatter_pack(ctx, j)
            });
            self.replay_stage(1 + j, None);
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
    use crate::backend::Outbox;

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
            PhaseEnd::Labelled("ring"),
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
        assert_eq!(seq.stats().records(), pool.machine().stats().records());
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
    fn pooled_exchange_rotates_payloads() {
        fn rotate<B: Backend>(backend: &mut B) -> Vec<u64> {
            let n = backend.nprocs();
            let mut got = vec![0u64; n];
            backend.run_exchange(
                PhaseEnd::Labelled("rotate"),
                |ctx, outbox: &mut Outbox<'_, u64>| {
                    let r = ctx.rank();
                    let to = (r + 1) % ctx.nprocs();
                    outbox.post(to, [r as u64 * 100]);
                    ctx.charge_p2p(r, to, 1);
                },
                got.iter_mut(),
                |ctx, slot, inbox| {
                    let from = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
                    *slot = inbox.from_rank(from)[0];
                    ctx.charge_memory(ctx.rank(), 1.0);
                },
            );
            got
        }
        let (mut seq, mut pool) = engines(8, 3);
        let a = rotate(&mut seq);
        let b = rotate(&mut pool);
        assert_eq!(a, b);
        assert_bit_identical(&seq, &pool);
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
        let err = pool
            .try_run_compute(out.iter_mut(), |ctx, slot| *slot = ctx.rank() as u64 + 1)
            .unwrap_err();
        match err {
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
        pool.try_run_compute(out.iter_mut(), |ctx, slot| *slot = ctx.rank() as u64)
            .unwrap();
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
        let err = pool
            .try_run_compute(out.iter_mut(), |ctx, _| {
                if ctx.rank() == 3 {
                    panic!("mid-epoch failure");
                }
            })
            .unwrap_err();
        assert!(matches!(err, PhaseError::RankPanic { .. }));
        let all_joined = pool.pool.shutdown_with_deadline(Duration::from_secs(5));
        assert!(all_joined, "workers must join after a caught panic");
    }
}
