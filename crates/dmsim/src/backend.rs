//! The SPMD execution engine behind the runtime: rank-local kernels, charge
//! recording and payload mailboxes.
//!
//! The CHAOS/PARTI runtime is an SPMD library — on a real machine every node
//! runs the inspector/executor code concurrently. This module abstracts *how*
//! those per-rank code regions execute behind the [`Backend`] trait, with two
//! engines:
//!
//! * [`Machine`] itself — the deterministic sequential oracle: rank kernels
//!   run one after another on the driver thread in ascending rank order;
//! * [`PooledBackend`](crate::pool::PooledBackend) — rank-parallel execution
//!   on a pool of **long-lived** workers driven by broadcast phase
//!   descriptors and an epoch barrier (see [`crate::pool`]). A pool of
//!   `nprocs` workers gives every rank its own OS thread, all live at once.
//!
//! What an engine implements is **one fan-out** — [`Backend::fan_out`], a
//! stage of rank kernels whose charges reach the machine in rank order —
//! plus the fused [`Backend::run_sweep`]. The regions built out of stages
//! (`run_compute`, `run_phase`, `run_exchange`) are provided methods of the
//! trait, written once: their epoch advance, charge-only pack
//! (`charge_stage`), mailbox matrix and phase close touch only the shared
//! [`Machine`].
//!
//! # The determinism contract
//!
//! The pooled engine must be **byte-identical** to the sequential one —
//! same array contents, same ghost buffers, same modeled clocks, same
//! [`CommStats`](crate::stats::CommStats) — not merely "equivalent". That is
//! achieved structurally rather than by tolerance:
//!
//! * **Data** — a kernel may mutate only its own rank's state (the `St` item
//!   handed to it) and read shared inputs; rank-disjoint writes compose the
//!   same way regardless of scheduling.
//! * **Costs** — kernels never touch the [`Machine`] directly. They charge
//!   through a [`RankCtx`], which either applies charges immediately (the
//!   sequential engine) or records them into a lane-local event log that is
//!   *replayed in ascending rank order* after the barrier (the pooled
//!   engine). Both paths perform the exact same sequence of floating-point
//!   additions on the exact same accumulators, so clocks and per-phase
//!   statistics agree bit-for-bit.
//! * **Payloads** — when ranks must hand values to each other inside one
//!   phase they post into per-rank [mailboxes](Outbox): rank `r` owns the
//!   outgoing row `r` of a `P × P` matrix during the pack stage (no locks,
//!   no contention) and reads column `r` through an [`Inbox`] in the unpack
//!   stage, after a barrier. Cell `(from, to)` is written by exactly one
//!   rank and read by exactly one rank, in different stages.
//!
//! The `tests/backend_equivalence.rs` property suite exercises this contract
//! over randomized workloads, for worker counts below, at and above the rank
//! count.

use crate::fault::{self, PhaseError};
use crate::machine::{Machine, PhaseCharge, ProcId};
use crate::probe::Lane;
use crate::trace::TraceEventKind;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How an exchange phase is closed: recorded under a label (a
/// [`PhaseRecord`](crate::stats::PhaseRecord) is kept) or quietly (totals
/// only, no allocation — the executor's steady-state path).
#[derive(Debug, Clone, Copy)]
pub enum PhaseEnd<'a> {
    /// Merge the phase into the per-kind totals without keeping a record.
    Quiet,
    /// Record the phase under this label.
    Labelled(&'a str),
}

/// One recorded charge, replayed against the machine in rank order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChargeEvent {
    /// `units` of local computation on `proc`'s clock.
    Compute { proc: u32, units: f64 },
    /// `words` of local memory traffic on `proc`'s clock.
    Memory { proc: u32, words: f64 },
    /// One point-to-point message, charged to both endpoint clocks and the
    /// current phase statistics.
    P2p { from: u32, to: u32, words: usize },
}

enum Sink<'a> {
    /// Apply charges to the machine immediately (sequential engine).
    Direct {
        machine: &'a mut Machine,
        phase: Option<&'a mut PhaseCharge>,
    },
    /// Record charges for later in-order replay (the pooled engine).
    Record {
        events: &'a mut Vec<ChargeEvent>,
        in_phase: bool,
    },
}

/// The per-rank execution context handed to every SPMD kernel: the rank id
/// plus the only channel through which a kernel may charge modeled costs.
pub struct RankCtx<'a> {
    rank: usize,
    nprocs: usize,
    sink: Sink<'a>,
}

impl<'a> RankCtx<'a> {
    /// A context that applies charges to the machine immediately (the
    /// sequential engine and driver-side pack stages).
    fn direct(
        rank: usize,
        nprocs: usize,
        machine: &'a mut Machine,
        phase: Option<&'a mut PhaseCharge>,
    ) -> Self {
        RankCtx {
            rank,
            nprocs,
            sink: Sink::Direct { machine, phase },
        }
    }

    /// A context that records charges into `events` for later in-rank-order
    /// replay (the pooled engine).
    pub(crate) fn recording(
        rank: usize,
        nprocs: usize,
        events: &'a mut Vec<ChargeEvent>,
        in_phase: bool,
    ) -> Self {
        RankCtx {
            rank,
            nprocs,
            sink: Sink::Record { events, in_phase },
        }
    }

    /// The executing virtual processor.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of virtual processors in the machine.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Charge `units` of local computation on processor `proc`'s clock.
    #[inline]
    pub fn charge_compute(&mut self, proc: ProcId, units: f64) {
        match &mut self.sink {
            Sink::Direct { machine, .. } => machine.charge_compute(proc, units),
            Sink::Record { events, .. } => events.push(ChargeEvent::Compute {
                proc: proc as u32,
                units,
            }),
        }
    }

    /// Charge `words` of local memory traffic (packing / unpacking) on
    /// processor `proc`'s clock.
    #[inline]
    pub fn charge_memory(&mut self, proc: ProcId, words: f64) {
        match &mut self.sink {
            Sink::Direct { machine, .. } => machine.charge_memory(proc, words),
            Sink::Record { events, .. } => events.push(ChargeEvent::Memory {
                proc: proc as u32,
                words,
            }),
        }
    }

    /// Charge one point-to-point message of `words` payload words into the
    /// surrounding exchange phase (cost math identical to
    /// [`Machine::charge_p2p`]).
    ///
    /// # Panics
    /// Panics if called from an unpack stage or a compute region — messages
    /// belong to the pack stage of an exchange phase.
    #[inline]
    pub fn charge_p2p(&mut self, from: ProcId, to: ProcId, words: usize) {
        match &mut self.sink {
            Sink::Direct { machine, phase } => {
                let phase = phase
                    .as_mut()
                    .expect("charge_p2p outside an exchange phase's pack stage");
                machine.charge_p2p(phase, from, to, words);
            }
            Sink::Record { events, in_phase } => {
                assert!(
                    *in_phase,
                    "charge_p2p outside an exchange phase's pack stage"
                );
                events.push(ChargeEvent::P2p {
                    from: from as u32,
                    to: to as u32,
                    words,
                });
            }
        }
    }
}

/// A rank's outgoing mailboxes during the pack stage of
/// [`Backend::run_exchange`]: one payload buffer per destination rank.
pub struct Outbox<'a, T> {
    row: &'a mut [Vec<T>],
}

impl<T> Outbox<'_, T> {
    /// Append `values` to the payload destined for rank `to`.
    pub fn post<I: IntoIterator<Item = T>>(&mut self, to: ProcId, values: I) {
        self.row[to].extend(values);
    }
}

/// A rank's incoming mailboxes during the unpack stage of
/// [`Backend::run_exchange`]: everything the other ranks posted to it.
pub struct Inbox<'a, T> {
    matrix: &'a [Vec<Vec<T>>],
    me: usize,
}

impl<T> Inbox<'_, T> {
    /// The payload rank `from` posted to this rank (empty if none).
    #[inline]
    pub fn from_rank(&self, from: ProcId) -> &[T] {
        &self.matrix[from][self.me]
    }
}

/// An SPMD execution engine over a simulated [`Machine`].
///
/// The runtime's primitives (gather / scatter / localize / dereference) are
/// written as *drivers* that hand rank-local kernels to a backend; the
/// backend decides whether the ranks run sequentially ([`Machine`]) or on
/// worker threads ([`PooledBackend`](crate::pool::PooledBackend)), while
/// guaranteeing identical results and identical modeled costs either way
/// (see the module docs).
///
/// An engine supplies [`Backend::fan_out`] and [`Backend::run_sweep`]; every
/// other region is a provided method over `fan_out` (see the module docs).
///
/// Every `state` iterator must yield exactly one item per rank, in rank
/// order; item `r` is handed to rank `r`'s kernel as its private mutable
/// state (typically a `&mut` borrow of rank `r`'s shard of some array).
pub trait Backend {
    /// The underlying simulated machine.
    fn machine(&self) -> &Machine;

    /// Mutable access to the underlying machine, for driver-level operations
    /// (phase kinds, collectives, clock reports).
    fn machine_mut(&mut self) -> &mut Machine;

    /// Number of virtual processors.
    fn nprocs(&self) -> usize {
        self.machine().nprocs()
    }

    /// Run one **stage** of rank kernels: `kernel` once per rank with its
    /// state item, each entry a fault-injection point and a `KernelEnter`
    /// span. This is the engines' building block, not a region of its own —
    /// it advances no epoch. However the ranks execute, their charges reach
    /// the machine in ascending rank order; with a `phase` they land in that
    /// accumulator, which makes `charge_p2p` legal inside the kernel (the
    /// pack stage of [`Backend::run_exchange`]). If a rank panics the pooled
    /// engine applies none of the stage's charges.
    fn fan_out<St, I, F>(&mut self, phase: Option<&mut PhaseCharge>, state: I, kernel: F)
    where
        St: Send,
        I: IntoIterator<Item = St>,
        F: Fn(&mut RankCtx<'_>, St) + Sync;

    /// Run `kernel` once per rank as a pure compute region (no phase
    /// boundary, no phase statistics). Kernels may charge compute/memory
    /// costs and mutate their rank's state item.
    fn run_compute<St, I, F>(&mut self, state: I, kernel: F)
    where
        St: Send,
        I: IntoIterator<Item = St>,
        F: Fn(&mut RankCtx<'_>, St) + Sync,
    {
        self.machine_mut().advance_epoch();
        self.fan_out(None, state, kernel);
    }

    /// Run one communication phase: `pack` runs for every rank and charges
    /// the phase's messages (it must not move data — it only charges, which
    /// is why it runs on the driver thread under every engine), then the
    /// phase is closed per `end` (recording statistics and applying the
    /// per-phase barrier), then `unpack` runs for every rank with its state
    /// item.
    fn run_phase<St, I, A, B>(&mut self, end: PhaseEnd<'_>, pack: A, state: I, unpack: B)
    where
        St: Send,
        I: IntoIterator<Item = St>,
        A: Fn(&mut RankCtx<'_>) + Sync,
        B: Fn(&mut RankCtx<'_>, St) + Sync,
    {
        let machine = self.machine_mut();
        machine.advance_epoch();
        charge_stage(machine, end, true, pack);
        self.fan_out(None, state, unpack);
    }

    /// Run one communication phase in which ranks exchange typed payloads
    /// through per-rank mailboxes: `pack` posts values into its [`Outbox`]
    /// (and charges the messages), the phase is closed per `end`, then
    /// `unpack` reads its [`Inbox`]. Both halves are rank-kernel stages.
    fn run_exchange<T, St, I, A, B>(&mut self, end: PhaseEnd<'_>, pack: A, state: I, unpack: B)
    where
        T: Send + Sync,
        St: Send,
        I: IntoIterator<Item = St>,
        A: Fn(&mut RankCtx<'_>, &mut Outbox<'_, T>) + Sync,
        B: Fn(&mut RankCtx<'_>, St, &Inbox<'_, T>) + Sync,
    {
        self.machine_mut().advance_epoch();
        let nprocs = self.nprocs();
        let mut matrix: Vec<Vec<Vec<T>>> = (0..nprocs)
            .map(|_| (0..nprocs).map(|_| Vec::new()).collect())
            .collect();
        // Pack: rank r owns row r of the mailbox matrix.
        let mut phase = PhaseCharge::new();
        self.fan_out(Some(&mut phase), matrix.iter_mut(), |ctx, row| {
            pack(ctx, &mut Outbox { row })
        });
        close_phase(self.machine_mut(), end, phase);
        // Unpack: rank r reads column r of the (now frozen) matrix.
        let matrix = &matrix;
        self.fan_out(None, state, |ctx, st| {
            let me = ctx.rank();
            unpack(ctx, st, &Inbox { matrix, me });
        });
    }

    /// Run one **fused executor sweep** — compute plus every scatter stage —
    /// as a *single* backend region: one epoch advance, one engine
    /// release/hand-off, one fault-injection point per rank (at compute
    /// entry), instead of the 1 + W separate phases the unfused path pays.
    ///
    /// Stages, in order:
    ///
    /// 1. **Compute** — `compute` runs once per rank with `&mut` borrows of
    ///    the rank's `scratch[r]` (in-place state, e.g. array shards) and
    ///    `posted[r]` (the rank's owned sweep area: the data other ranks
    ///    will read later). This is the only stage guarded by
    ///    [`FaultPlan`](crate::fault::FaultPlan) injection, so the fused
    ///    sweep's `(epoch, rank)` fault coordinates stay well-defined.
    /// 2. Per scatter buffer `j in 0..nscatter`, skipped entirely when
    ///    `scatter_active(posted, j)` is false (reading the *post-compute*
    ///    areas): a charge-only **pack** stage runs driver-side per rank
    ///    with a live phase accumulator (so `charge_p2p` is legal), the
    ///    phase closes quietly, then the **combine** stage runs once per
    ///    rank with `&mut scratch[r]` and a shared view of *all* posted
    ///    areas.
    ///
    /// The charge sequence equals the unfused gather-precharged +
    /// `run_compute` + per-buffer `run_phase` sequence event for event, so
    /// values, clock bits and [`CommStats`](crate::stats::CommStats) are
    /// byte-identical across engines and fusion settings; only the epoch
    /// count differs (one per fused sweep — the defined way the fused phase
    /// advances fault coordinates). On panic, the pooled engine replays
    /// nothing, so a restored snapshot can re-run the sweep as if it never
    /// happened.
    #[allow(clippy::too_many_arguments)]
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
        S: Fn(&mut RankCtx<'_>, usize, &mut Sc, &[Px]) + Sync;

    /// [`Backend::run_compute`] for charge-only kernels that need no
    /// per-rank state.
    fn run_charges<F>(&mut self, kernel: F)
    where
        F: Fn(&mut RankCtx<'_>) + Sync,
    {
        let n = self.nprocs();
        self.run_compute((0..n).map(|_| ()), |ctx, ()| kernel(ctx));
    }

    /// [`Backend::run_phase`] for phases that only charge messages and have
    /// no unpack work (e.g. the translation table's dereference rounds).
    fn run_charge_phase<A>(&mut self, end: PhaseEnd<'_>, pack: A)
    where
        A: Fn(&mut RankCtx<'_>) + Sync,
    {
        let n = self.nprocs();
        self.run_phase(end, pack, (0..n).map(|_| ()), |_, ()| {});
    }

    /// [`Backend::run_compute`] with detection: rank panics (organic or
    /// injected) are caught and returned as a typed [`PhaseError`] instead
    /// of unwinding, and a post-phase flaw (a pool straggler report) is
    /// surfaced the same way. On `Err` the failed region's recorded charges
    /// were never replayed, so a restored snapshot can rerun it as if it
    /// never happened.
    fn try_run_compute<St, I, F>(&mut self, state: I, kernel: F) -> Result<(), PhaseError>
    where
        St: Send,
        I: IntoIterator<Item = St>,
        F: Fn(&mut RankCtx<'_>, St) + Sync,
    {
        let attempt = catch_unwind(AssertUnwindSafe(|| self.run_compute(state, kernel)));
        diagnose_attempt(self, attempt)
    }

    /// Take the flaw detected during the last completed region, if any —
    /// the pool's barrier-deadline straggler report arrives here, because
    /// the phase itself still completes (the driver waits out the real
    /// arrival to keep the borrowed descriptor sound). Engines without
    /// post-phase detection return `None`.
    fn take_phase_flaw(&mut self) -> Option<PhaseError> {
        None
    }

    /// Switch this engine to inline sequential execution (the
    /// [`Machine`] oracle path) for all subsequent regions — the escape
    /// hatch of the lang executor's `RecoveryPolicy::DegradeToMachine`.
    /// Returns `false` if the engine cannot degrade (the
    /// default); bit-identical results are guaranteed by the determinism
    /// contract when it can.
    fn degrade(&mut self) -> bool {
        false
    }
}

/// Diagnose one attempted region (or run of regions) on `backend`: a caught
/// panic becomes a typed [`PhaseError`] at the machine's current epoch and
/// supersedes any straggler report from the same attempt, a straggler alone
/// fails an otherwise completed attempt, and the diagnosis is reported to
/// the observers (an `ErrorDiagnosed` instant carrying the failing epoch,
/// which freezes the flight recorder's tail — see [`Machine::observe`]).
pub fn diagnose_attempt<B: Backend + ?Sized, R>(
    backend: &mut B,
    attempt: std::thread::Result<R>,
) -> Result<R, PhaseError> {
    let flaw = backend.take_phase_flaw();
    let err = match (attempt, flaw) {
        (Ok(value), None) => return Ok(value),
        (Ok(_), Some(flaw)) => flaw,
        (Err(payload), _) => PhaseError::from_payload(backend.machine().epoch(), payload),
    };
    backend
        .machine_mut()
        .observe(TraceEventKind::ErrorDiagnosed, err.epoch() as u32);
    Err(err)
}

/// Close a hand-charged phase per the requested [`PhaseEnd`].
fn close_phase(machine: &mut Machine, end: PhaseEnd<'_>, phase: PhaseCharge) {
    match end {
        PhaseEnd::Quiet => machine.end_phase_quiet(phase),
        PhaseEnd::Labelled(label) => machine.end_phase(label, phase),
    }
}

/// The one driver-side **charge-only pack stage**: `pack` charges per rank,
/// in rank order, into a fresh phase accumulator, then the phase closes per
/// `end`. It touches only the shared [`Machine`], so `run_phase`'s pack,
/// [`run_phase_inline`]'s and both engines' fused-sweep scatter packs are
/// this one function and charge identically by construction. `fire_faults`
/// makes each rank's entry a fault-injection point (a region's first stage);
/// packs folded into an enclosing region leave it off.
pub(crate) fn charge_stage<A>(machine: &mut Machine, end: PhaseEnd<'_>, fire_faults: bool, pack: A)
where
    A: Fn(&mut RankCtx<'_>),
{
    let nprocs = machine.nprocs();
    let mut phase = PhaseCharge::new();
    for rank in 0..nprocs {
        if fire_faults {
            fault::fire_traced(machine, rank, Lane::Driver);
        }
        let mut ctx = RankCtx::direct(rank, nprocs, machine, Some(&mut phase));
        pack(&mut ctx);
    }
    close_phase(machine, end, phase);
}

/// Replay recorded charge events against the machine, in the order they were
/// recorded — the tail of every pooled-engine stage.
pub(crate) fn replay_events(
    machine: &mut Machine,
    mut phase: Option<&mut PhaseCharge>,
    events: &[ChargeEvent],
) {
    for &event in events {
        match event {
            ChargeEvent::Compute { proc, units } => machine.charge_compute(proc as usize, units),
            ChargeEvent::Memory { proc, words } => machine.charge_memory(proc as usize, words),
            ChargeEvent::P2p { from, to, words } => {
                let phase = phase
                    .as_deref_mut()
                    .expect("p2p event outside an exchange phase");
                machine.charge_p2p(phase, from as usize, to as usize, words);
            }
        }
    }
}

/// One stage of rank kernels run serially on the driver, charging the
/// machine directly, lazily over the state iterator (nothing is collected,
/// which keeps the sequential engine's phases allocation-free). `observed`
/// stages are rank-kernel stages proper — a fault-injection point and a
/// `KernelEnter` span per rank; the unpack of an inline phase and the
/// sequential combine stage are not.
fn serial_stage<St, I, F>(
    machine: &mut Machine,
    mut phase: Option<&mut PhaseCharge>,
    observed: bool,
    state: I,
    kernel: F,
) where
    I: IntoIterator<Item = St>,
    F: Fn(&mut RankCtx<'_>, St),
{
    let nprocs = machine.nprocs();
    let mut count = 0;
    for (rank, st) in state.into_iter().enumerate() {
        assert!(rank < nprocs, "state must yield one item per rank");
        if observed {
            fault::fire_traced(machine, rank, Lane::Driver);
        }
        let probe = machine.probe();
        let span =
            observed.then(|| probe.enter(Lane::Driver, TraceEventKind::KernelEnter, rank as u32));
        let mut ctx = RankCtx::direct(rank, nprocs, machine, phase.as_deref_mut());
        kernel(&mut ctx, st);
        if let Some(span) = span {
            machine.probe().exit(Lane::Driver, span, 1);
        }
        count += 1;
    }
    assert_eq!(count, nprocs, "state must yield one item per rank");
}

/// Run one communication phase **inline on the driver**, against the shared
/// machine, with *no* epoch advance and *no* fault-injection point: `pack`
/// charges per rank into a live phase accumulator, the phase closes per
/// `end`, then `unpack` runs per rank charging directly.
///
/// This is the building block the fused sweep driver uses to fold gather
/// phases into the surrounding [`Backend::run_sweep`] epoch: because it only
/// touches the shared [`Machine`], it produces the same charge sequence under
/// every engine by construction, and fault coordinates stay pinned to the
/// enclosing region's `(epoch, rank)` points.
pub fn run_phase_inline<St, I, A, B>(
    machine: &mut Machine,
    end: PhaseEnd<'_>,
    pack: A,
    state: I,
    unpack: B,
) where
    St: Send,
    I: IntoIterator<Item = St>,
    A: Fn(&mut RankCtx<'_>),
    B: Fn(&mut RankCtx<'_>, St),
{
    charge_stage(machine, end, false, pack);
    serial_stage(machine, None, false, state, unpack);
}

/// The sequential engine: rank kernels run on the driver thread in ascending
/// rank order, charging the machine directly. This is the deterministic
/// oracle the pooled engine is checked against.
impl Backend for Machine {
    fn machine(&self) -> &Machine {
        self
    }

    fn machine_mut(&mut self) -> &mut Machine {
        self
    }

    fn fan_out<St, I, F>(&mut self, phase: Option<&mut PhaseCharge>, state: I, kernel: F)
    where
        St: Send,
        I: IntoIterator<Item = St>,
        F: Fn(&mut RankCtx<'_>, St) + Sync,
    {
        serial_stage(self, phase, true, state, kernel);
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
        self.advance_epoch();
        let nprocs = self.nprocs();
        assert_eq!(scratch.len(), nprocs, "one scratch item per rank");
        assert_eq!(posted.len(), nprocs, "one posted area per rank");
        let stripe = scratch.iter_mut().zip(posted.iter_mut());
        self.fan_out(None, stripe, |ctx, (sc, px)| compute(ctx, sc, px));
        let posted = &*posted;
        for j in 0..nscatter {
            if !scatter_active(posted, j) {
                continue;
            }
            charge_stage(self, PhaseEnd::Quiet, false, |ctx| scatter_pack(ctx, j));
            // The sequential engine's stripe is every rank: one combine
            // span per active buffer, like each pool lane's.
            let span = self
                .probe()
                .enter(Lane::Driver, TraceEventKind::CombineEnter, j as u32);
            serial_stage(self, None, false, scratch.iter_mut(), |ctx, sc| {
                combine(ctx, j, sc, posted)
            });
            self.probe().exit(Lane::Driver, span, nprocs as u64);
        }
    }

    fn degrade(&mut self) -> bool {
        // Already the sequential oracle.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineConfig::ipsc860(p))
    }

    /// A phase whose pack charges a ring of messages and whose unpack writes
    /// rank-local state.
    fn ring_phase<B: Backend>(backend: &mut B, out: &mut [f64]) {
        let n = backend.nprocs();
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
        assert_eq!(n, out.len());
    }

    #[test]
    fn fused_sweep_with_no_active_buffer_equals_plain_compute() {
        // With every scatter buffer inactive, a fused sweep must degenerate
        // to exactly one compute region: same charges, same single epoch.
        let (mut a, mut b) = (machine(4), machine(4));
        let mut sc = vec![0.0f64; 4];
        let mut px = vec![0u8; 4];
        a.run_sweep(
            &mut sc,
            &mut px,
            |ctx, sc: &mut f64, _px: &mut u8| {
                ctx.charge_compute(ctx.rank(), 3.0);
                *sc = 1.0;
            },
            3,
            |_, _| false,
            |_, _| panic!("pack must not run for inactive buffers"),
            |_, _, _, _| panic!("combine must not run for inactive buffers"),
        );
        let mut out = [0.0f64; 4];
        b.run_compute(out.iter_mut(), |ctx, slot| {
            ctx.charge_compute(ctx.rank(), 3.0);
            *slot = 1.0;
        });
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.elapsed(), b.elapsed());
        assert_eq!(a.stats().grand_totals(), b.stats().grand_totals());
    }

    #[test]
    fn inline_phase_matches_run_phase_without_an_epoch() {
        // run_phase_inline charges exactly like Machine::run_phase but
        // advances no epoch and has no fault-injection point.
        let (mut a, mut b) = (machine(4), machine(4));
        let mut out_a = vec![0.0; 4];
        let mut out_b = vec![0.0; 4];
        ring_phase(&mut a, &mut out_a);
        run_phase_inline(
            &mut b,
            PhaseEnd::Labelled("ring"),
            |ctx| {
                let r = ctx.rank();
                ctx.charge_memory(r, 3.0);
                ctx.charge_p2p(r, (r + 1) % ctx.nprocs(), 3);
            },
            out_b.iter_mut(),
            |ctx, slot| {
                ctx.charge_compute(ctx.rank(), 2.0);
                *slot = ctx.rank() as f64 * 10.0;
            },
        );
        assert_eq!(out_a, out_b);
        assert_eq!(a.elapsed(), b.elapsed());
        assert_eq!(a.stats().grand_totals(), b.stats().grand_totals());
        assert_eq!(a.epoch(), 1);
        assert_eq!(b.epoch(), 0, "inline phases advance no epoch");
    }

    #[test]
    fn run_compute_charges_in_rank_order() {
        let mut m = machine(4);
        let mut data = vec![0u32; 4];
        m.run_compute(data.iter_mut(), |ctx, d| {
            ctx.charge_compute(ctx.rank(), 1.5 * (ctx.rank() + 1) as f64);
            *d = ctx.rank() as u32;
        });
        assert_eq!(data, vec![0, 1, 2, 3]);
        let per_proc = m.elapsed().per_proc;
        assert!(per_proc.windows(2).all(|w| w[0] < w[1]), "{per_proc:?}");
        assert_eq!(m.epoch(), 1);
    }

    #[test]
    fn mailbox_exchange_rotates_payloads() {
        let mut m = machine(8);
        let mut got = vec![0u64; 8];
        m.run_exchange(
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
                assert_eq!(inbox.from_rank(ctx.rank()).len(), 0);
                *slot = inbox.from_rank(from)[0];
                ctx.charge_memory(ctx.rank(), 1.0);
            },
        );
        let expect: Vec<u64> = (0..8).map(|r| ((r + 7) % 8) as u64 * 100).collect();
        assert_eq!(got, expect);
        assert_eq!(m.stats().grand_totals().messages, 8);
    }

    #[test]
    fn exchange_pack_is_a_fault_point_at_one_coordinate_on_both_engines() {
        use crate::fault::{FaultKind, FaultPlan, PhaseCause};
        use crate::pool::PooledBackend;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // A clean compute region, then an exchange whose epoch carries a
        // planted panic on `rank`: the error's coordinates, whether the
        // unpack stage ran, and what the machine looks like afterwards.
        fn failed_exchange<B: Backend>(backend: &mut B, rank: usize) -> (PhaseError, bool, bool) {
            backend.run_charges(|ctx| ctx.charge_compute(ctx.rank(), 1.0));
            let before = (
                backend.machine().elapsed(),
                backend.machine().stats().grand_totals(),
            );
            let plan = FaultPlan::new().with_fault(2, rank, FaultKind::KernelPanic);
            backend
                .machine_mut()
                .install_fault_plan(Some(Arc::new(plan)));
            let unpacked = AtomicBool::new(false);
            let mut got = vec![0u64; backend.nprocs()];
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                backend.run_exchange(
                    PhaseEnd::Labelled("rotate"),
                    |ctx, outbox: &mut Outbox<'_, u64>| {
                        let (r, to) = (ctx.rank(), (ctx.rank() + 1) % ctx.nprocs());
                        outbox.post(to, [r as u64]);
                        ctx.charge_p2p(r, to, 1);
                    },
                    got.iter_mut(),
                    |_, _, _| unpacked.store(true, Ordering::Relaxed),
                )
            }));
            let err = diagnose_attempt(backend, attempt).unwrap_err();
            let machine = backend.machine();
            assert_eq!(machine.epoch(), 2);
            // The phase never closed, whichever rank failed.
            assert_eq!(machine.stats().grand_totals(), before.1);
            let clocks_untouched = machine.elapsed() == before.0;
            (err, unpacked.load(Ordering::Relaxed), clocks_untouched)
        }

        for rank in [0, 2] {
            let mut seq = machine(4);
            let mut pool = PooledBackend::from_config_with_workers(MachineConfig::ipsc860(4), 2);
            let (seq_err, seq_unpacked, seq_untouched) = failed_exchange(&mut seq, rank);
            let (pool_err, pool_unpacked, pool_untouched) = failed_exchange(&mut pool, rank);
            for (err, unpacked) in [(&seq_err, seq_unpacked), (&pool_err, pool_unpacked)] {
                assert!(!unpacked, "the fault fires at the pack stage");
                let PhaseError::RankPanic { epoch, failures } = err else {
                    panic!("expected RankPanic, got {err:?}");
                };
                assert_eq!((*epoch, failures.len()), (2, 1));
                assert_eq!((failures[0].epoch, failures[0].rank), (2, Some(rank)));
                assert_eq!(
                    failures[0].cause,
                    PhaseCause::Injected(FaultKind::KernelPanic)
                );
            }
            // The pool replays nothing of a failed stage. The oracle charges
            // as it goes, so only the ranks before the failing one have
            // packed: none of them when rank 0 fails.
            assert!(pool_untouched, "rank {rank}: pool clocks moved");
            assert_eq!(seq_untouched, rank == 0, "rank {rank}: oracle clocks");
        }
    }

    #[test]
    #[should_panic(expected = "pack stage")]
    fn p2p_in_compute_region_panics() {
        let mut m = Machine::new(MachineConfig::unit(2));
        m.run_charges(|ctx| ctx.charge_p2p(0, 1, 1));
    }

    #[test]
    #[should_panic(expected = "one item per rank")]
    fn short_state_iterator_panics() {
        let mut m = Machine::new(MachineConfig::unit(4));
        let mut only_two = [0u8; 2];
        m.run_compute(only_two.iter_mut(), |_, _| {});
    }

    #[test]
    fn charge_phase_helper_records_the_label() {
        let mut m = Machine::new(MachineConfig::unit(2));
        m.run_charge_phase(PhaseEnd::Labelled("probe"), |ctx| {
            if ctx.rank() == 0 {
                ctx.charge_p2p(0, 1, 4);
            }
        });
        assert_eq!(m.stats().records().len(), 1);
        assert_eq!(m.stats().records()[0].label, "probe");
        assert_eq!(m.stats().grand_totals().messages, 1);
    }
}
