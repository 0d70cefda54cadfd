//! The [`Machine`]: processor clocks + cost model + statistics, and the
//! primitive operations the CHAOS runtime is built on.

use crate::config::MachineConfig;
use crate::fault::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::probe::{Lane, Probe};
use crate::stats::{CommStats, PhaseKind, StatsRegistry};
use crate::time::{ElapsedReport, ProcClock};
use crate::topology::hops;
use crate::trace::{TraceEventKind, TraceSink};
use std::sync::Arc;

/// Identifier of a virtual processor (`0 .. nprocs`).
pub type ProcId = usize;

/// Statistics accumulator for a message phase charged message-by-message via
/// [`Machine::charge_p2p`].
///
/// One `PhaseCharge` corresponds to one exchange phase: it starts with
/// `phases = 1` (an empty phase still counts as one) and collects
/// message/byte/time totals as messages are charged.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCharge {
    stats: CommStats,
}

impl PhaseCharge {
    /// Start accounting one message phase.
    pub fn new() -> Self {
        PhaseCharge {
            stats: CommStats {
                phases: 1,
                ..CommStats::default()
            },
        }
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }
}

/// A simulated distributed-memory machine.
///
/// The machine does not own any application data; the CHAOS runtime keeps
/// distributed arrays in its own per-processor structures and uses the
/// machine only to charge modeled time for communication and local
/// computation: data moves directly between the runtime's own buffers.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    clocks: Vec<ProcClock>,
    stats: StatsRegistry,
    /// Critical-path modeled seconds attributed to each phase kind, indexed
    /// by [`PhaseKind::index`] (see [`Machine::set_phase_kind`]).
    phase_elapsed: [f64; PhaseKind::COUNT],
    /// Clock reading at the last phase-kind change.
    last_phase_sample: f64,
    /// Count of SPMD regions run so far: every public `Backend::run_*` call
    /// advances it exactly once, on every engine — the coordinate system
    /// fault plans and checkpoints are keyed on.
    epoch: u64,
    /// The installed fault schedule, consulted at every per-rank kernel
    /// entry. Shared (not deep-cloned) across machine clones so consumed
    /// faults stay consumed through snapshot / restore.
    faults: Option<Arc<FaultPlan>>,
    /// The installed observers (flight recorder and / or metrics registry),
    /// fed through the probe's hooks by every engine. Empty by default,
    /// which keeps every hook on the disabled fast path: one branch, no
    /// allocation, no clock effect. Shared across machine clones like the
    /// fault plan.
    probe: Probe,
}

/// A reusable snapshot of a [`Machine`]'s mutable state (clocks, statistics,
/// phase attribution, epoch) for checkpoint / rollback recovery.
///
/// Refreshing an existing snapshot with [`Machine::snapshot_into`] and
/// rolling back with [`Machine::restore_from`] are allocation-free in steady
/// state (once the snapshot's buffers have grown to the machine's working
/// set and no new saved-communication labels appear between refreshes); the
/// per-kind tables are fixed-size arrays, so a phase kind seen for the first
/// time costs nothing.
#[derive(Debug, Clone, Default)]
pub struct MachineSnapshot {
    clocks: Vec<ProcClock>,
    stats: StatsRegistry,
    phase_elapsed: [f64; PhaseKind::COUNT],
    last_phase_sample: f64,
    epoch: u64,
}

impl MachineSnapshot {
    /// An empty snapshot; fill it with [`Machine::snapshot_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The machine epoch this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Machine {
    /// Create a machine from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`MachineConfig::validate`]).
    pub fn new(cfg: MachineConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid machine configuration: {e}");
        }
        let clocks = vec![ProcClock::default(); cfg.nprocs];
        Machine {
            cfg,
            clocks,
            stats: StatsRegistry::new(),
            phase_elapsed: [0.0; PhaseKind::COUNT],
            last_phase_sample: 0.0,
            epoch: 0,
            faults: None,
            probe: Probe::default(),
        }
    }

    /// The current machine epoch: how many SPMD regions (`Backend::run_*`
    /// calls) have started so far. Identical across engines by construction,
    /// which is what makes `(epoch, rank)` fault coordinates portable.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Start a new SPMD region. Called exactly once at the top of every
    /// public `Backend::run_*` entry point, on every engine.
    #[inline]
    pub(crate) fn advance_epoch(&mut self) -> u64 {
        self.epoch += 1;
        if self.probe.on() {
            self.observe_epoch();
        }
        self.epoch
    }

    /// Out-of-line observed side of [`Machine::advance_epoch`], kept
    /// `#[cold]` so the disabled path stays a single predictable branch.
    #[cold]
    fn observe_epoch(&mut self) {
        let (now, kind) = (self.modeled_now(), self.stats.current_kind());
        self.probe.epoch(self.epoch, now, kind);
    }

    /// The modeled clock "now": the maximum per-processor total, in
    /// seconds. This is the value the trace subsystem correlates against
    /// measured wall time.
    #[inline]
    pub fn modeled_now(&self) -> f64 {
        self.clocks.iter().map(|c| c.total()).fold(0.0, f64::max)
    }

    /// Install (or clear) the fault schedule consulted at every per-rank
    /// kernel entry. The plan is shared, not cloned: machine clones and
    /// snapshot restores see the same consumed-fault flags, so a fired fault
    /// stays fired across recovery.
    pub fn install_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan;
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Install (or clear) the trace sink every engine feeds. Like the
    /// fault plan, the sink is shared rather than cloned, so machine
    /// clones and snapshot restores keep appending to the same timeline.
    /// Installing a sink never changes modeled clocks, values or
    /// statistics — the sink only observes them.
    pub fn install_trace(&mut self, sink: Option<Arc<TraceSink>>) {
        self.probe.trace = sink;
    }

    /// Install (or clear) the metrics registry every engine feeds. Like the
    /// trace sink, the registry is shared rather than cloned, so machine
    /// clones and snapshot restores keep accumulating into the same shards.
    /// Installing a registry never changes modeled clocks, values or
    /// statistics — metrics only observe them (see
    /// [`crate::metrics`]).
    pub fn install_metrics(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        self.probe.metrics = registry;
    }

    /// The hooks the engines report through.
    #[inline]
    pub(crate) fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Report a driver-side instant — a recovery step (`RetryAttempt`,
    /// `Rollback`, `Degrade`, `CheckpointRefresh`) or an `ErrorDiagnosed`,
    /// whose `arg` is the failing epoch and which also freezes the flight
    /// recorder's [error tail](TraceSink::error_tail) — to the installed
    /// observers: an event on the driver's ring and one on the kind's
    /// counter. A no-op with none installed. Taking `&mut self` is what
    /// makes the caller the driver ring's only writer.
    pub fn observe(&mut self, kind: TraceEventKind, arg: u32) {
        self.probe.instant(Lane::Driver, kind, arg);
    }

    /// Write this machine's mutable state into `snap`, reusing its buffers
    /// (allocation-free in steady state — see [`MachineSnapshot`]).
    pub fn snapshot_into(&self, snap: &mut MachineSnapshot) {
        snap.clocks.clear();
        snap.clocks.extend_from_slice(&self.clocks);
        snap.stats.copy_from(&self.stats);
        snap.phase_elapsed = self.phase_elapsed;
        snap.last_phase_sample = self.last_phase_sample;
        snap.epoch = self.epoch;
    }

    /// Roll this machine back to `snap`, taken earlier from this machine.
    /// Allocation-free in steady state; the installed fault plan and trace
    /// sink are left as-is.
    pub fn restore_from(&mut self, snap: &MachineSnapshot) {
        assert_eq!(
            snap.clocks.len(),
            self.clocks.len(),
            "snapshot taken on a different machine size"
        );
        self.clocks.copy_from_slice(&snap.clocks);
        self.stats.copy_from(&snap.stats);
        self.phase_elapsed = snap.phase_elapsed;
        self.last_phase_sample = snap.last_phase_sample;
        self.epoch = snap.epoch;
    }

    /// Change the phase kind attributed to subsequent work.
    ///
    /// The critical-path time (max over processors) accrued since the last
    /// phase change is credited to the *outgoing* phase kind, so callers can
    /// later ask [`Machine::phase_elapsed`] for a per-phase breakdown —
    /// exactly the rows of the paper's tables. Returns the previous kind so
    /// nested regions can restore it.
    pub fn set_phase_kind(&mut self, kind: Option<PhaseKind>) -> Option<PhaseKind> {
        let now = self.modeled_now();
        let outgoing = self.stats.current_kind();
        if let Some(k) = outgoing {
            self.phase_elapsed[k.index()] += now - self.last_phase_sample;
        }
        // The cost-model auditor rides the same sampling point.
        self.probe
            .kind_changed(outgoing, now - self.last_phase_sample);
        self.last_phase_sample = now;
        self.stats.set_current_kind(kind)
    }

    /// Critical-path modeled seconds attributed to `kind` so far. Work done
    /// while the current kind is still active is included.
    pub fn phase_elapsed(&self, kind: PhaseKind) -> f64 {
        let mut t = self.phase_elapsed[kind.index()];
        if self.stats.current_kind() == Some(kind) {
            t += self.modeled_now() - self.last_phase_sample;
        }
        t
    }

    /// Number of processors.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    /// The machine configuration.
    #[inline]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Immutable access to the statistics registry.
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// Note communication an optimization avoided — `messages` messages and
    /// `words` payload words (converted to bytes with the machine's word
    /// size) that would have been charged without it. Bookkeeping only:
    /// forwarded to the stats registry's saved bucket, never to the clocks
    /// or real totals, so enabling an optimization that records savings
    /// cannot perturb bit-identity of the modeled run.
    pub fn note_schedule_savings(&mut self, label: &'static str, messages: usize, words: usize) {
        self.stats
            .note_saved(label, messages, words * self.cfg.word_bytes);
    }

    /// Snapshot of the per-processor clocks as an [`ElapsedReport`].
    pub fn elapsed(&self) -> ElapsedReport {
        ElapsedReport {
            per_proc: self.clocks.iter().map(|c| c.total()).collect(),
            compute: self.clocks.iter().map(|c| c.compute).collect(),
            comm: self.clocks.iter().map(|c| c.comm).collect(),
            idle: self.clocks.iter().map(|c| c.idle).collect(),
        }
    }

    /// Charge `units` of local computation on processor `proc`.
    #[inline]
    pub fn charge_compute(&mut self, proc: ProcId, units: f64) {
        self.clocks[proc].charge_compute(units * self.cfg.cost.compute_unit);
    }

    /// Charge `words` of local memory traffic (buffer packing / unpacking,
    /// table copies) on processor `proc`.
    #[inline]
    pub fn charge_memory(&mut self, proc: ProcId, words: f64) {
        self.clocks[proc].charge_compute(words * self.cfg.cost.memory_word);
    }

    /// Charge the same number of compute units on every processor (used for
    /// perfectly replicated work).
    pub fn charge_compute_all(&mut self, units: f64) {
        for p in 0..self.nprocs() {
            self.charge_compute(p, units);
        }
    }

    /// Charge one point-to-point message of `words` payload words from
    /// `from` to `to`, accumulating its statistics into `phase` — the one
    /// way a message is charged. Both endpoint clocks pay the transfer
    /// (`alpha + beta*bytes + per_hop*hops`) plus a packing cost of
    /// `memory_word` per payload word; self-sends pay the local copy cost
    /// only (in and out) and count as zero messages.
    ///
    /// Data moves directly between the runtime's own buffers (the simulator
    /// shares one address space); the machine only accounts for the
    /// transfer. Finish the phase with [`Machine::end_phase`], which ends
    /// it with the loosely-synchronous model's implicit barrier.
    #[inline]
    pub fn charge_p2p(&mut self, phase: &mut PhaseCharge, from: ProcId, to: ProcId, words: usize) {
        let bytes = words * self.cfg.word_bytes;
        if from == to {
            let t = 2.0 * words as f64 * self.cfg.cost.memory_word;
            self.clocks[from].charge_compute(t);
            return;
        }
        let h = hops(self.cfg.topology, self.cfg.nprocs, from, to);
        let transfer = self.cfg.cost.message_cost(bytes, h);
        let pack = words as f64 * self.cfg.cost.memory_word;
        self.clocks[from].charge_comm(transfer + pack);
        self.clocks[to].charge_comm(transfer + pack);
        phase.stats.messages += 1;
        phase.stats.bytes += bytes;
        phase.stats.comm_seconds += 2.0 * (transfer + pack);
    }

    /// Finish a hand-charged message phase: merge its statistics into the
    /// current phase kind's totals (see [`StatsRegistry::record`]) and apply
    /// the per-phase barrier. Allocation-free.
    pub fn end_phase(&mut self, phase: PhaseCharge) {
        self.probe.phase_closed(&phase.stats);
        self.stats.record(phase.stats);
        self.synchronize_clocks();
    }

    /// The implicit barrier that ends every communication phase
    /// (loosely-synchronous SPMD, the model CHAOS assumes): advance every
    /// clock to the current maximum total, charging the difference as idle
    /// time.
    fn synchronize_clocks(&mut self) {
        let max_total = self.clocks.iter().map(|c| c.total()).fold(0.0, f64::max);
        for c in &mut self.clocks {
            let gap = max_total - c.total();
            if gap > 0.0 {
                c.charge_idle(gap);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    /// One phase of `(from, to, words)` messages, charged in order.
    fn charge_phase(m: &mut Machine, messages: &[(ProcId, ProcId, usize)]) {
        let mut phase = PhaseCharge::new();
        for &(from, to, words) in messages {
            m.charge_p2p(&mut phase, from, to, words);
        }
        m.end_phase(phase);
    }

    #[test]
    fn exchange_charges_both_ends() {
        let mut m = Machine::new(MachineConfig::unit(2));
        charge_phase(&mut m, &[(0, 1, 3)]);
        let e = m.elapsed();
        // unit cost: alpha=1, beta=1/byte (3 words * 8 bytes = 24), hop=1,
        // memory=1/word*3 -> transfer=1+24+1=26, pack=3 -> 29 per side.
        assert!((e.comm[0] - 29.0).abs() < 1e-9, "{}", e.comm[0]);
        assert!((e.comm[1] - 29.0).abs() < 1e-9);
    }

    #[test]
    fn self_send_is_memory_only() {
        let mut m = Machine::new(MachineConfig::unit(2));
        charge_phase(&mut m, &[(0, 0, 2)]);
        let e = m.elapsed();
        assert_eq!(e.comm[0], 0.0);
        assert!((e.compute[0] - 4.0).abs() < 1e-9); // 2 words in + out
        assert_eq!(m.stats().grand_totals().messages, 0);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let mut m = Machine::new(MachineConfig::unit(4));
        m.charge_compute(2, 100.0);
        m.synchronize_clocks();
        let e = m.elapsed();
        let max = e.max_seconds();
        for p in 0..4 {
            assert!((e.per_proc[p] - max).abs() < 1e-9, "proc {p} not synced");
        }
        assert!(e.idle.iter().any(|&i| i > 0.0));
    }

    #[test]
    fn barrier_per_phase_syncs_after_exchange() {
        let mut m = Machine::new(MachineConfig::unit(4));
        charge_phase(&mut m, &[(0, 1, 1)]);
        let e = m.elapsed();
        let max = e.max_seconds();
        assert!(max > 0.0);
        for p in 0..4 {
            assert!((e.per_proc[p] - max).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_accumulate_messages_and_bytes() {
        let mut m = Machine::new(MachineConfig::ipsc860(4));
        charge_phase(&mut m, &[(0, 1, 10), (2, 3, 5)]);
        let t = m.stats().grand_totals();
        assert_eq!(t.messages, 2);
        assert_eq!(t.bytes, 15 * 8);
        assert_eq!(t.phases, 1);
    }

    #[test]
    fn phase_kind_accrues_critical_path_time() {
        let mut m = Machine::new(MachineConfig::unit(2));
        m.set_phase_kind(Some(crate::stats::PhaseKind::Inspector));
        m.charge_compute(0, 10.0);
        m.set_phase_kind(Some(crate::stats::PhaseKind::Executor));
        m.charge_compute(0, 5.0);
        // Executor phase still open: phase_elapsed includes work so far.
        assert!((m.phase_elapsed(crate::stats::PhaseKind::Inspector) - 10.0).abs() < 1e-9);
        assert!((m.phase_elapsed(crate::stats::PhaseKind::Executor) - 5.0).abs() < 1e-9);
        m.set_phase_kind(None);
        assert!((m.phase_elapsed(crate::stats::PhaseKind::Executor) - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid machine configuration")]
    fn bad_config_panics() {
        let _ = Machine::new(MachineConfig::ipsc860(5));
    }
}
