//! The SPMD execution engine behind the runtime: rank-local kernels, charge
//! recording and charge replay.
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
//! (`run_compute`, `run_phase`) are provided methods of the trait, written
//! once: their epoch advance, charge-only pack (`charge_stage`) and phase
//! close touch only the shared [`Machine`].
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
//! * **Payloads** — values cross ranks only between stages: a stage reads
//!   what earlier stages wrote (a phase's unpack reads shared inputs, a
//!   fused sweep's combine stage reads every rank's posted area after the
//!   stage barrier), never what another rank is writing in the same stage.
//!
//! The `tests/backend_equivalence.rs` property suite exercises this contract
//! over randomized workloads, for worker counts below, at and above the rank
//! count.

use crate::fault::{self, PhaseError};
use crate::machine::{Machine, PhaseCharge, ProcId};
use crate::probe::Lane;
use crate::trace::TraceEventKind;

/// One recorded charge, replayed against the machine in rank order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChargeEvent {
    /// `units` of local computation on `proc`'s clock.
    Compute { proc: u32, units: f64 },
    /// `words` of local memory traffic on `proc`'s clock.
    Memory { proc: u32, words: f64 },
}

enum Sink<'a> {
    /// Apply charges to the machine immediately (sequential engine).
    Direct {
        machine: &'a mut Machine,
        phase: Option<&'a mut PhaseCharge>,
    },
    /// Record charges for later in-order replay (the pooled engine).
    Record { events: &'a mut Vec<ChargeEvent> },
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
    pub(crate) fn recording(rank: usize, nprocs: usize, events: &'a mut Vec<ChargeEvent>) -> Self {
        RankCtx {
            rank,
            nprocs,
            sink: Sink::Record { events },
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
            // Messages are charged by the driver-side pack stages only.
            Sink::Record { .. } => panic!("charge_p2p outside an exchange phase's pack stage"),
        }
    }
}

/// An SPMD execution engine over a simulated [`Machine`].
///
/// The runtime's primitives (the executor sweep's gather and scatter, the
/// inspector's localize and dereference rounds) are written as *drivers*
/// that hand rank-local kernels to a backend; the
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
    /// the machine in ascending rank order; a kernel charges no messages
    /// (those belong to the driver-side pack stages). If a rank panics the
    /// pooled
    /// engine applies none of the stage's charges.
    fn fan_out<St, I, F>(&mut self, state: I, kernel: F)
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
        self.fan_out(state, kernel);
    }

    /// Run one communication phase: `pack` runs for every rank and charges
    /// the phase's messages (it must not move data — it only charges, which
    /// is why it runs on the driver thread under every engine), then the
    /// phase is closed ([`Machine::end_phase`]: its statistics join the
    /// per-kind totals and the per-phase barrier applies), then `unpack`
    /// runs for every rank with its state item.
    fn run_phase<St, I, A, B>(&mut self, pack: A, state: I, unpack: B)
    where
        St: Send,
        I: IntoIterator<Item = St>,
        A: Fn(&mut RankCtx<'_>) + Sync,
        B: Fn(&mut RankCtx<'_>, St) + Sync,
    {
        let machine = self.machine_mut();
        machine.advance_epoch();
        charge_stage(machine, true, pack);
        self.fan_out(state, unpack);
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
    ///    phase closes, then the **combine** stage runs once per
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
    fn run_charge_phase<A>(&mut self, pack: A)
    where
        A: Fn(&mut RankCtx<'_>) + Sync,
    {
        let n = self.nprocs();
        self.run_phase(pack, (0..n).map(|_| ()), |_, ()| {});
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

/// The one driver-side **charge-only pack stage**: `pack` charges per rank,
/// in rank order, into a fresh phase accumulator, then the phase closes
/// ([`Machine::end_phase`]). It touches only the shared [`Machine`], so
/// `run_phase`'s pack, [`run_phase_inline`]'s and both engines' fused-sweep
/// scatter packs are this one function and charge identically by
/// construction. `fire_faults`
/// makes each rank's entry a fault-injection point (a region's first stage);
/// packs folded into an enclosing region leave it off.
pub(crate) fn charge_stage<A>(machine: &mut Machine, fire_faults: bool, pack: A)
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
    machine.end_phase(phase);
}

/// Replay recorded charge events against the machine, in the order they were
/// recorded — the tail of every pooled-engine stage.
pub(crate) fn replay_events(machine: &mut Machine, events: &[ChargeEvent]) {
    for &event in events {
        match event {
            ChargeEvent::Compute { proc, units } => machine.charge_compute(proc as usize, units),
            ChargeEvent::Memory { proc, words } => machine.charge_memory(proc as usize, words),
        }
    }
}

/// One stage of rank kernels run serially on the driver, charging the
/// machine directly, lazily over the state iterator (nothing is collected,
/// which keeps the sequential engine's phases allocation-free). `observed`
/// stages are rank-kernel stages proper — a fault-injection point and a
/// `KernelEnter` span per rank; the unpack of an inline phase and the
/// sequential combine stage are not.
fn serial_stage<St, I, F>(machine: &mut Machine, observed: bool, state: I, kernel: F)
where
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
        let mut ctx = RankCtx::direct(rank, nprocs, machine, None);
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
/// charges per rank into a live phase accumulator, the phase closes, then
/// `unpack` runs per rank charging directly.
///
/// This is the building block the fused sweep driver uses to fold gather
/// phases into the surrounding [`Backend::run_sweep`] epoch: because it only
/// touches the shared [`Machine`], it produces the same charge sequence under
/// every engine by construction, and fault coordinates stay pinned to the
/// enclosing region's `(epoch, rank)` points.
pub fn run_phase_inline<St, I, A, B>(machine: &mut Machine, pack: A, state: I, unpack: B)
where
    St: Send,
    I: IntoIterator<Item = St>,
    A: Fn(&mut RankCtx<'_>),
    B: Fn(&mut RankCtx<'_>, St),
{
    charge_stage(machine, false, pack);
    serial_stage(machine, false, state, unpack);
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

    fn fan_out<St, I, F>(&mut self, state: I, kernel: F)
    where
        St: Send,
        I: IntoIterator<Item = St>,
        F: Fn(&mut RankCtx<'_>, St) + Sync,
    {
        serial_stage(self, true, state, kernel);
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
        self.fan_out(stripe, |ctx, (sc, px)| compute(ctx, sc, px));
        let posted = &*posted;
        for j in 0..nscatter {
            if !scatter_active(posted, j) {
                continue;
            }
            charge_stage(self, false, |ctx| scatter_pack(ctx, j));
            // The sequential engine's stripe is every rank: one combine
            // span per active buffer, like each pool lane's.
            let span = self
                .probe()
                .enter(Lane::Driver, TraceEventKind::CombineEnter, j as u32);
            serial_stage(self, false, scratch.iter_mut(), |ctx, sc| {
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
    fn charge_phase_helper_closes_one_phase() {
        let mut m = Machine::new(MachineConfig::unit(2));
        m.run_charge_phase(|ctx| {
            if ctx.rank() == 0 {
                ctx.charge_p2p(0, 1, 4);
            }
        });
        let totals = m.stats().totals_for(crate::stats::PhaseKind::Other);
        assert_eq!((totals.phases, totals.messages), (1, 1));
        assert_eq!(m.stats().grand_totals(), totals);
    }
}
