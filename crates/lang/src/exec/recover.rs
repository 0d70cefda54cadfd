//! The recovery seam: a FORALL wrapped in panic containment, snapshots, the
//! epoch checkpoint and the configured [`RecoveryPolicy`] (see
//! ARCHITECTURE.md § "Fault model & recovery").
//!
//! A snapshot is a [`MachineSnapshot`] (clocks, statistics, epoch) plus a
//! clone of the [`ProgramState`], which shares every loop's inspector
//! results by `Arc`; restoring is `restore_from` plus `clone_from`, with no
//! per-field list to keep in step with the state.

use super::state::ProgramState;
use super::Executor;
use crate::error::LangError;
use crate::lower::LoopPlan;
use chaos_dmsim::{
    diagnose_attempt, Backend, Machine, MachineSnapshot, PhaseError, PhaseKind, RecoveryPolicy,
    TraceEventKind,
};
use chaos_runtime::{charge_checkpoint, DistArray};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Hard cap on total attempts of one FORALL across every recovery policy —
/// a backstop against non-injected (organic) panics that would otherwise
/// retry forever, set far above any plausible `max_attempts`.
const OVERALL_ATTEMPT_CAP: u32 = 32;

/// Checkpoint cadence used when [`RecoveryPolicy::RollbackToCheckpoint`] is
/// selected without an explicit `with_checkpoint_every`.
pub(super) const DEFAULT_CHECKPOINT_EVERY: u64 = 8;

/// A restorable copy of everything a FORALL sweep can touch. Restoring a
/// snapshot and re-running the same statements is bit-identical to never
/// having failed, because failed regions never replay their charge ledgers
/// and every consumed fault stays consumed (the fault plan's flags live
/// outside the snapshot).
#[derive(Debug, Default)]
pub(super) struct ExecSnapshot {
    machine: MachineSnapshot,
    state: ProgramState,
}

impl ExecSnapshot {
    /// Overwrite this snapshot with the current machine and program state.
    /// With `journal`, the snapshot is known to lag `state` by exactly those
    /// sweeps, and is refreshed in its own storage (see
    /// [`ProgramState::refresh_from`]).
    fn fill(&mut self, machine: &Machine, state: &ProgramState, journal: Option<&[LoopPlan]>) {
        machine.snapshot_into(&mut self.machine);
        match journal {
            Some(journal) => self.state.refresh_from(state, |a| wrote(journal, a)),
            None => self.state.clone_from(state),
        }
    }

    /// Roll the machine and the program state back to this snapshot.
    fn restore(&self, machine: &mut Machine, state: &mut ProgramState) {
        machine.restore_from(&self.machine);
        state.clone_from(&self.state);
    }
}

/// Whether one of the journalled sweeps wrote the array called `name`.
fn wrote(journal: &[LoopPlan], name: &str) -> bool {
    let mut written = journal.iter().flat_map(|plan| &plan.written_arrays);
    written.any(|a| a == name)
}

/// Add to `words[p]` the length of rank `p`'s shard of every selected array.
fn add_shard_lens<T>(words: &mut [usize], arrays: &[DistArray<T>], include: impl Fn(&str) -> bool) {
    for arr in arrays.iter().filter(|a| include(a.name())) {
        for (w, shard) in words.iter_mut().zip(arr.locals()) {
            *w += shard.len();
        }
    }
}

impl<B: Backend> Executor<B> {
    /// Modeled words each rank scans to copy the dirty (or, on a structural
    /// refresh, all) arrays into the checkpoint.
    fn checkpoint_rank_words(&self, everything: bool) -> Vec<usize> {
        let mut words = vec![0usize; self.backend.nprocs()];
        let include = |name: &str| everything || wrote(&self.journal, name);
        add_shard_lens(&mut words, &self.state.real.0, include);
        add_shard_lens(&mut words, &self.state.int.0, include);
        words
    }

    /// Take (or incrementally refresh) the epoch checkpoint, charging the
    /// modeled scan cost of the words actually copied. Unchanged arrays are
    /// left alone — only dirty shards are re-copied, values-only, into the
    /// checkpoint's existing storage, and the machine snapshot reuses its
    /// buffers.
    pub(super) fn refresh_checkpoint(&mut self) {
        let full = self.structural_change || self.checkpoint.is_none();
        let rank_words = self.checkpoint_rank_words(full);
        // The refresh is a real SPMD phase: classify it as Checkpoint (not
        // whatever kind the surrounding code had active) so the registry
        // attributes its scan cost to the checkpoint subsystem.
        let prev_kind = self
            .machine_mut()
            .set_phase_kind(Some(PhaseKind::Checkpoint));
        charge_checkpoint(&mut self.backend, &rank_words);
        self.machine_mut().set_phase_kind(prev_kind);
        self.machine_mut()
            .observe(TraceEventKind::CheckpointRefresh, full as u32);

        let since = (!full).then_some(&self.journal[..]);
        let ckpt = self.checkpoint.get_or_insert_with(Box::default);
        ckpt.fill(self.backend.machine(), &self.state, since);
        self.journal.clear();
        self.structural_change = false;
    }

    /// Refresh the checkpoint if the cadence says one is due.
    fn maybe_checkpoint(&mut self) {
        if self.checkpoint_every == 0 {
            return;
        }
        let due = match &self.checkpoint {
            None => true,
            Some(c) => {
                let (cur, ck) = (self.backend.machine().epoch(), c.machine.epoch());
                // `ck > cur`: the checkpoint was refreshed during an attempt
                // that then failed and was rolled back to a pre-refresh
                // snapshot — redo the refresh (and its modeled charges) so
                // the recovered timeline matches the fault-free one.
                ck > cur || cur - ck >= self.checkpoint_every
            }
        };
        if due {
            self.refresh_checkpoint();
        }
    }

    /// Record a successfully executed FORALL for rollback replay.
    fn note_sweep(&mut self, plan: &LoopPlan) {
        if self.checkpoint_every > 0 {
            self.journal.push(plan.clone());
        }
    }

    /// Run one FORALL attempt with panic containment: a panic (injected or
    /// organic) or a pending flaw (straggler) becomes a typed, diagnosed
    /// [`PhaseError`]. `Backend::try_run_compute`'s diagnosis, but around the
    /// whole gather → compute → scatter sweep — and, with `refresh`, the
    /// epoch-checkpoint refresh before it: the refresh charges modeled scan
    /// cost through the backend (a real SPMD phase), so an injected fault
    /// can fire inside it. A failure there leaves the previous checkpoint
    /// and journal intact — the retry path restores a snapshot and redoes
    /// refresh + sweep.
    fn attempt_forall(
        &mut self,
        plan: &LoopPlan,
        refresh: bool,
    ) -> Result<Result<(), LangError>, PhaseError> {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if refresh {
                self.maybe_checkpoint();
            }
            self.run_forall(plan)
        }));
        diagnose_attempt(&mut self.backend, attempt)
    }

    /// Execute a FORALL under the configured recovery policy.
    ///
    /// Recovery is *discard and re-run*: a failed region's recorded charges
    /// were never replayed onto the machine, and restoring a snapshot
    /// rewinds whatever the driver-side phases did commit, so a recovered
    /// run is bit-identical (values, clock bits, statistics) to a fault-free
    /// run — the property `tests/fault_recovery.rs` and the backend
    /// equivalence proptest check on both engines.
    ///
    /// Giving up is clean too: a held pre-sweep snapshot (`RetryPhase` out
    /// of attempts, the overall cap) is restored before the error returns;
    /// without one (`Abort`) every array, loop record and region row is
    /// still in place — the written arrays possibly holding a partially
    /// applied sweep, stamped as written — and the loop can run again.
    pub(super) fn run_forall_recovered(&mut self, plan: &LoopPlan) -> Result<(), LangError> {
        // Fast path: nothing to guard against and no recovery requested —
        // run unwrapped, exactly as before this subsystem existed.
        let guarded = self.backend.machine().fault_plan().is_some()
            || !matches!(self.policy, RecoveryPolicy::Abort);
        if !guarded {
            self.maybe_checkpoint();
            let result = self.run_forall(plan);
            if result.is_ok() {
                self.note_sweep(plan);
            }
            return result;
        }

        // The pre-sweep snapshot is taken *before* the checkpoint refresh:
        // the refresh charges modeled scan cost through the backend, so a
        // fault can fire inside it too — the attempt below therefore covers
        // checkpoint + sweep, and a retry redoes both from this snapshot.
        //
        // The checkpoint bookkeeping lives outside ExecSnapshot (the
        // snapshot must not nest a second full copy of the state), so it is
        // stashed next to it: if the attempt's checkpoint refresh succeeds
        // but the sweep then fails, the retry must redo the refresh with
        // the same journal to charge the same modeled scan cost.
        let presweep = match self.policy {
            RecoveryPolicy::RetryPhase { .. } | RecoveryPolicy::DegradeToMachine => {
                let mut snap = ExecSnapshot::default();
                snap.fill(self.backend.machine(), &self.state, None);
                Some((snap, self.journal.clone(), self.structural_change))
            }
            _ => None,
        };
        let restore_presweep = |slf: &mut Self| {
            if let Some((snap, journal, structural)) = &presweep {
                snap.restore(slf.backend.machine_mut(), &mut slf.state);
                slf.journal.clone_from(journal);
                slf.structural_change = *structural;
            }
        };
        let entry_kind = self.backend.machine().stats().current_kind();

        let mut attempts: u32 = 0;
        loop {
            let flaw = match self.attempt_forall(plan, true) {
                Ok(inner) => {
                    if inner.is_ok() {
                        self.note_sweep(plan);
                    }
                    return inner;
                }
                Err(flaw) => flaw,
            };
            use RecoveryPolicy::{Abort, DegradeToMachine, RetryPhase, RollbackToCheckpoint};
            attempts += 1;
            // Past the overall cap every policy gives up like `Abort`.
            let capped = attempts >= OVERALL_ATTEMPT_CAP;
            let policy = if capped { Abort } else { self.policy };
            match (policy, &self.checkpoint) {
                (
                    RetryPhase {
                        max_attempts,
                        backoff,
                    },
                    _,
                ) if attempts <= max_attempts => {
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    self.machine_mut()
                        .observe(TraceEventKind::RetryAttempt, attempts);
                    restore_presweep(self);
                }
                (RollbackToCheckpoint, Some(ckpt)) => {
                    let machine = self.backend.machine_mut();
                    machine.observe(TraceEventKind::Rollback, attempts);
                    ckpt.restore(machine, &mut self.state);
                    // Replay the journal: the loops that ran since the
                    // checkpoint re-execute deterministically (their faults
                    // are consumed). A failure during replay is not retried
                    // further.
                    let journal = std::mem::take(&mut self.journal);
                    let replayed = journal.iter().try_for_each(|plan| {
                        self.attempt_forall(plan, false).map_err(LangError::phase)?
                    });
                    self.journal = journal;
                    replayed?;
                }
                (DegradeToMachine, _) => {
                    self.machine_mut()
                        .observe(TraceEventKind::Degrade, attempts);
                    self.backend.degrade();
                    restore_presweep(self);
                }
                // `Abort`, or a policy out of attempts or without a
                // checkpoint: give up.
                _ => {
                    if presweep.is_some() {
                        restore_presweep(self);
                    } else {
                        // The interrupted sweep may have applied some of its
                        // writes: stamp them, so no resident ghost copy of a
                        // half-written array is served as fresh.
                        self.stamp_writes(plan);
                        self.machine_mut().set_phase_kind(entry_kind);
                    }
                    return Err(LangError::phase(flaw));
                }
            }
        }
    }
}
