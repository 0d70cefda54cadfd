//! The recovery seam: every FORALL runs as one guarded attempt — panic
//! containment plus the engine's flaw report — and a failed attempt goes to
//! the configured [`RecoveryPolicy`] (see ARCHITECTURE.md § "Fault model &
//! recovery").
//!
//! Each policy keeps the one snapshot it restores, and no other: `RetryPhase`
//! and `DegradeToMachine` a pre-sweep snapshot, `RollbackToCheckpoint` the
//! epoch checkpoint with the journal of sweeps since it, `Abort` none. A
//! snapshot is a [`MachineSnapshot`] (clocks, statistics, epoch) plus a
//! clone of the [`ProgramState`], which shares every loop's inspector
//! results by `Arc`; restoring is `restore_from` plus `clone_from`, with no
//! per-field list to keep in step with the state.

use super::state::ProgramState;
use super::Executor;
use crate::error::LangError;
use crate::lower::LoopPlan;
use chaos_dmsim::{
    diagnose_attempt, Backend, Machine, MachineSnapshot, PhaseError, PhaseKind, TraceEventKind,
};
use chaos_runtime::{charge_checkpoint, DistArray};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the executor does when a FORALL fails.
///
/// Recovery exploits the determinism contract: a failed phase whose charge
/// ledgers were never replayed left the machine untouched, and the policies
/// that recover restore a snapshot of the rest (array shards, clocks,
/// statistics) before re-running — so the recovered run is bit-identical
/// (values, clock f64 bits, statistics) to a run in which the fault never
/// fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Surface the failure to the caller (the default). Nothing is
    /// snapshotted or rolled back: every array, loop record and resident
    /// ghost row stays in place, so the failed loop can be executed again,
    /// but the arrays that loop writes may hold a partially applied sweep
    /// (stamped as written) and the modeled clocks are where the failed
    /// attempt left them.
    #[default]
    Abort,
    /// Restore the pre-sweep snapshot and rerun the failed sweep, up to
    /// `max_attempts` times. Giving up restores the snapshot once more
    /// before the error is returned, so the caller sees the state the
    /// failed sweep started from.
    RetryPhase {
        /// Attempts before giving up (0: the first failure is final).
        max_attempts: u32,
    },
    /// Checkpoint the execution state every `every` machine epochs (and
    /// after every directive); on a failure, restore the checkpoint, replay
    /// the journalled sweeps since it, then rerun the failed sweep. A
    /// refresh re-copies only the arrays dirtied since the previous
    /// checkpoint (values-only, or whole for an array a FORALL moved onto
    /// its decomposition's distribution) and charges their modeled scan
    /// cost through [`chaos_runtime::charge_checkpoint`].
    RollbackToCheckpoint {
        /// Checkpoint cadence in machine epochs (at least 1).
        every: u64,
    },
    /// Switch the backend to inline sequential execution (the
    /// [`Machine`] oracle path) and rerun from the pre-sweep snapshot —
    /// bit-identical by the determinism contract.
    DegradeToMachine,
}

/// Hard cap on total attempts of one FORALL across every recovery policy —
/// a backstop against non-injected (organic) panics that would otherwise
/// retry forever, set far above any plausible `max_attempts`.
const OVERALL_ATTEMPT_CAP: u32 = 32;

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
    /// Modeled words each rank scans to copy the dirty (or, on a full
    /// refresh, all) arrays into the checkpoint: those the journalled
    /// sweeps wrote and those their FORALLs moved.
    fn checkpoint_rank_words(&self, everything: bool) -> Vec<usize> {
        let mut words = vec![0usize; self.backend.nprocs()];
        let ckpt = self.checkpoint.as_deref().map(|c| &c.state);
        let moved = |name: &str| ckpt.is_some_and(|c| c.dad_of(name) != self.state.dad_of(name));
        let include = |name: &str| everything || wrote(&self.journal, name) || moved(name);
        add_shard_lens(&mut words, &self.state.real.0, include);
        add_shard_lens(&mut words, &self.state.int.0, include);
        words
    }

    /// Take (or incrementally refresh) the epoch checkpoint, charging the
    /// modeled scan cost of the words actually copied. Unless `structural`
    /// (a directive changed distributions, alignments or array storage since
    /// the checkpoint) or there is no checkpoint yet, unchanged arrays are
    /// left alone — only dirty shards are re-copied, values-only, into the
    /// checkpoint's existing storage (an array a FORALL moved is re-copied
    /// whole) — and the machine snapshot reuses its buffers.
    pub(super) fn refresh_checkpoint(&mut self, structural: bool) {
        let full = structural || self.checkpoint.is_none();
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
    }

    /// Refresh the checkpoint if the policy keeps one and its cadence says
    /// one is due. During a journal replay none is: the replay retraces
    /// epochs in which the original run found none due either.
    fn maybe_checkpoint(&mut self) {
        let RecoveryPolicy::RollbackToCheckpoint { every } = self.policy else {
            return;
        };
        let due = match &self.checkpoint {
            None => true,
            Some(c) => self.backend.machine().epoch() - c.machine.epoch() >= every,
        };
        if due {
            self.refresh_checkpoint(false);
        }
    }

    /// Run one FORALL attempt with panic containment: a panic (injected or
    /// organic) or the engine's flaw report (a pool straggler) becomes a
    /// typed, diagnosed [`PhaseError`]. The attempt covers the checkpoint
    /// refresh the cadence calls for as well as the sweep: the refresh
    /// charges modeled scan cost through the backend (a real SPMD phase), so
    /// a fault can fire inside it, and a failure there leaves the previous
    /// checkpoint and journal intact.
    fn attempt_forall(&mut self, plan: &LoopPlan) -> Result<Result<(), LangError>, PhaseError> {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            self.maybe_checkpoint();
            self.run_forall(plan)
        }));
        diagnose_attempt(&mut self.backend, attempt)
    }

    /// Execute a FORALL as one guarded attempt, handing each failed attempt
    /// to the configured recovery policy.
    ///
    /// Recovery is *discard and re-run*: a failed region's recorded charges
    /// were never replayed onto the machine, and restoring a snapshot
    /// rewinds whatever the driver-side phases did commit, so a recovered
    /// run is bit-identical (values, clock bits, statistics) to a fault-free
    /// run under the same policy — the property `tests/fault_recovery.rs`
    /// and the backend equivalence proptest check on both engines. Under
    /// rollback, a journal replay that fails counts as one more failed
    /// attempt.
    ///
    /// Giving up is clean too: a held pre-sweep snapshot (`RetryPhase` out
    /// of attempts, the overall cap) is restored before the error returns;
    /// without one every array, loop record and region row is still in
    /// place, the arrays the interrupted sweeps write are stamped as written
    /// (they may hold a partially applied sweep), the phase kind the FORALL
    /// was entered under is back, and the loop can run again. A typed error
    /// from the FORALL itself restores the entry phase kind and returns.
    pub(super) fn run_forall_recovered(&mut self, plan: &LoopPlan) -> Result<(), LangError> {
        use RecoveryPolicy::{Abort, DegradeToMachine, RetryPhase, RollbackToCheckpoint};
        let presweep = matches!(self.policy, RetryPhase { .. } | DegradeToMachine).then(|| {
            let mut snap = ExecSnapshot::default();
            snap.fill(self.backend.machine(), &self.state, None);
            snap
        });
        let entry_kind = self.backend.machine().stats().current_kind();

        let mut attempts: u32 = 0;
        let mut outcome = self.attempt_forall(plan);
        loop {
            let flaw = match outcome {
                Ok(Ok(())) => {
                    if let RollbackToCheckpoint { .. } = self.policy {
                        self.journal.push(plan.clone());
                    }
                    return Ok(());
                }
                Ok(Err(err)) => {
                    self.machine_mut().set_phase_kind(entry_kind);
                    return Err(err);
                }
                Err(flaw) => flaw,
            };
            attempts += 1;
            // Past the overall cap every policy gives up like `Abort`.
            let capped = attempts >= OVERALL_ATTEMPT_CAP;
            let policy = if capped { Abort } else { self.policy };
            let machine = self.backend.machine_mut();
            match (policy, &self.checkpoint, &presweep) {
                (RetryPhase { max_attempts }, _, Some(snap)) if attempts <= max_attempts => {
                    machine.observe(TraceEventKind::RetryAttempt, attempts);
                    snap.restore(machine, &mut self.state);
                }
                (RollbackToCheckpoint { .. }, Some(ckpt), _) => {
                    machine.observe(TraceEventKind::Rollback, attempts);
                    ckpt.restore(machine, &mut self.state);
                    // Replay the journal — its faults are consumed, so it
                    // retraces the original run — before the failed sweep
                    // reruns below; a replay that fails is this attempt's
                    // outcome. The journal is back in place before the
                    // rerun, whose due refresh copies the arrays it names.
                    let journal = std::mem::take(&mut self.journal);
                    let failed = journal
                        .iter()
                        .map(|replay| self.attempt_forall(replay))
                        .find(|rerun| !matches!(rerun, Ok(Ok(()))));
                    self.journal = journal;
                    if let Some(failed) = failed {
                        outcome = failed;
                        continue;
                    }
                }
                (DegradeToMachine, _, Some(snap)) => {
                    machine.observe(TraceEventKind::Degrade, attempts);
                    snap.restore(machine, &mut self.state);
                    self.backend.degrade();
                }
                // `Abort`, or a policy out of attempts or without a
                // checkpoint: give up.
                (_, _, Some(snap)) => {
                    snap.restore(machine, &mut self.state);
                    return Err(LangError::phase(flaw));
                }
                (_, _, None) => {
                    // The interrupted sweep (or, after a rollback, a
                    // replayed one) may have applied some of its writes:
                    // stamp them, so no resident ghost copy of a
                    // half-written array is served as fresh.
                    let journal = std::mem::take(&mut self.journal);
                    for written in journal.iter().chain([plan]) {
                        self.stamp_writes(written);
                    }
                    self.journal = journal;
                    self.machine_mut().set_phase_kind(entry_kind);
                    return Err(LangError::phase(flaw));
                }
            }
            outcome = self.attempt_forall(plan);
        }
    }
}
