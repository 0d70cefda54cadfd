//! Per-phase statistics: message counts, byte volumes, and modeled times.
//!
//! Every communication phase is counted under the [`PhaseKind`] current when
//! it closes ("inspector", "remap", "executor", …), and the benchmark
//! harness later asks the registry for the per-kind totals. The registry is
//! purely observational — removing it would not change any delivered data
//! or any clock value.

use std::collections::BTreeMap;

/// Broad classification of a phase, mirroring the row labels of the paper's
/// tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PhaseKind {
    /// GeoCoL graph generation.
    GraphGeneration,
    /// Running a data partitioner.
    Partitioner,
    /// Inspector preprocessing (schedule building, index translation).
    Inspector,
    /// Array / iteration remapping.
    Remap,
    /// Executor (communication + computation of the actual loop).
    Executor,
    /// Checkpoint refresh / rollback bookkeeping for recovery.
    Checkpoint,
    /// Anything else.
    Other,
}

impl PhaseKind {
    /// Number of kinds (the size of dense per-kind tables).
    pub const COUNT: usize = 7;

    /// Every kind in declaration order — the dense-index space of every
    /// per-kind table (the registry's totals, the machine's phase ledger,
    /// the metrics registry's counters).
    pub const ALL: [PhaseKind; PhaseKind::COUNT] = [
        PhaseKind::GraphGeneration,
        PhaseKind::Partitioner,
        PhaseKind::Inspector,
        PhaseKind::Remap,
        PhaseKind::Executor,
        PhaseKind::Checkpoint,
        PhaseKind::Other,
    ];

    /// Dense index of this kind within [`PhaseKind::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable label used in printed tables.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::GraphGeneration => "graph generation",
            PhaseKind::Partitioner => "partitioner",
            PhaseKind::Inspector => "inspector",
            PhaseKind::Remap => "remap",
            PhaseKind::Executor => "executor",
            PhaseKind::Checkpoint => "checkpoint",
            PhaseKind::Other => "other",
        }
    }
}

/// Communication statistics aggregated over one or more phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Total number of point-to-point messages.
    pub messages: usize,
    /// Total bytes moved.
    pub bytes: usize,
    /// Number of communication phases (exchanges / collectives).
    pub phases: usize,
    /// Modeled communication seconds summed over processors.
    pub comm_seconds: f64,
}

impl CommStats {
    /// Merge another statistics record into this one.
    pub fn merge(&mut self, other: &CommStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.phases += other.phases;
        self.comm_seconds += other.comm_seconds;
    }
}

/// Communication totals grouped by [`PhaseKind`], plus the savings bucket.
#[derive(Debug, Clone, Default)]
pub struct StatsRegistry {
    /// Totals indexed by [`PhaseKind::index`].
    by_kind: [CommStats; PhaseKind::COUNT],
    /// Communication that did NOT happen, by label — e.g. the messages an
    /// incremental schedule avoided fetching because earlier loops' ghosts
    /// were already resident. Purely observational bookkeeping: never part
    /// of [`StatsRegistry::grand_totals`] or any per-kind total.
    saved: BTreeMap<&'static str, CommStats>,
    current_kind: Option<PhaseKind>,
}

impl StatsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the kind attributed to subsequently recorded phases. Returns the
    /// previous value so callers can restore it.
    pub fn set_current_kind(&mut self, kind: Option<PhaseKind>) -> Option<PhaseKind> {
        std::mem::replace(&mut self.current_kind, kind)
    }

    /// The kind currently attributed to new phases.
    pub fn current_kind(&self) -> Option<PhaseKind> {
        self.current_kind
    }

    /// Merge a completed phase's statistics into the current kind's totals
    /// ([`PhaseKind::Other`] when none is set). Allocation-free.
    pub fn record(&mut self, stats: CommStats) {
        let kind = self.current_kind.unwrap_or(PhaseKind::Other);
        self.by_kind[kind.index()].merge(&stats);
    }

    /// Note communication that was *avoided* under `label` — `messages`
    /// point-to-point messages and `bytes` of payload that would have been
    /// charged without some optimization (schedule merging, incremental
    /// schedules). One call counts one avoided-or-shrunk phase. The saved
    /// bucket is bookkeeping only: clocks and real totals are untouched.
    /// After the first note with a given label this allocates nothing.
    pub fn note_saved(&mut self, label: &'static str, messages: usize, bytes: usize) {
        self.saved.entry(label).or_default().merge(&CommStats {
            messages,
            bytes,
            phases: 1,
            comm_seconds: 0.0,
        });
    }

    /// Aggregate savings noted under `label` via [`StatsRegistry::note_saved`].
    pub fn saved_labelled(&self, label: &str) -> CommStats {
        self.saved.get(label).copied().unwrap_or_default()
    }

    /// The per-label savings totals, in label order.
    pub fn saved_totals(&self) -> impl Iterator<Item = (&'static str, CommStats)> + '_ {
        self.saved.iter().map(|(l, s)| (*l, *s))
    }

    /// Aggregate statistics for a phase kind.
    pub fn totals_for(&self, kind: PhaseKind) -> CommStats {
        self.by_kind[kind.index()]
    }

    /// Aggregate statistics over every phase.
    pub fn grand_totals(&self) -> CommStats {
        let mut t = CommStats::default();
        for s in &self.by_kind {
            t.merge(s);
        }
        t
    }

    /// Overwrite this registry with `src`'s state, reusing this registry's
    /// buffers: allocation-free once the saved bucket holds the same labels.
    /// Checkpoints use it both ways — refresh a snapshot from the live
    /// registry, roll the live registry back to the snapshot.
    pub fn copy_from(&mut self, src: &StatsRegistry) {
        self.by_kind = src.by_kind;
        copy_btree_values(&src.saved, &mut self.saved);
        self.current_kind = src.current_kind;
    }
}

/// Copy `src`'s entries into `dst`, overwriting values in place when the key
/// sets already match (the steady state — no allocation) and rebuilding the
/// map otherwise.
fn copy_btree_values<K: Ord + Copy, V: Copy>(src: &BTreeMap<K, V>, dst: &mut BTreeMap<K, V>) {
    if dst.len() == src.len() && dst.keys().eq(src.keys()) {
        for (d, s) in dst.values_mut().zip(src.values()) {
            *d = *s;
        }
    } else {
        dst.clear();
        dst.extend(src.iter().map(|(k, v)| (*k, *v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(messages: usize, bytes: usize) -> CommStats {
        CommStats {
            messages,
            bytes,
            phases: 1,
            comm_seconds: bytes as f64 * 1e-6,
        }
    }

    #[test]
    fn registry_groups_by_kind() {
        let mut reg = StatsRegistry::new();
        reg.set_current_kind(Some(PhaseKind::Inspector));
        reg.record(stats(10, 100));
        reg.set_current_kind(Some(PhaseKind::Executor));
        reg.record(stats(5, 50));
        reg.record(stats(5, 50));

        assert_eq!(reg.totals_for(PhaseKind::Inspector).phases, 1);
        assert_eq!(reg.totals_for(PhaseKind::Executor).phases, 2);
        assert_eq!(reg.totals_for(PhaseKind::Inspector).messages, 10);
        assert_eq!(reg.totals_for(PhaseKind::Executor).messages, 10);
        assert_eq!(reg.totals_for(PhaseKind::Executor).bytes, 100);
        assert_eq!(reg.totals_for(PhaseKind::Remap).messages, 0);
        assert_eq!(reg.grand_totals().messages, 20);
        assert_eq!(reg.grand_totals().phases, 3);
    }

    #[test]
    fn unlabelled_phases_fall_into_other() {
        let mut reg = StatsRegistry::new();
        reg.record(stats(1, 8));
        assert_eq!(reg.totals_for(PhaseKind::Other).messages, 1);
    }

    #[test]
    fn set_current_kind_returns_previous() {
        let mut reg = StatsRegistry::new();
        assert_eq!(reg.set_current_kind(Some(PhaseKind::Remap)), None);
        assert_eq!(
            reg.set_current_kind(Some(PhaseKind::Executor)),
            Some(PhaseKind::Remap)
        );
        assert_eq!(reg.current_kind(), Some(PhaseKind::Executor));
    }

    #[test]
    fn dense_index_round_trips_through_all() {
        assert_eq!(PhaseKind::ALL.len(), PhaseKind::COUNT);
        for (i, kind) in PhaseKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn labels_are_human_readable() {
        assert_eq!(PhaseKind::Executor.label(), "executor");
        assert_eq!(PhaseKind::GraphGeneration.label(), "graph generation");
        assert_eq!(PhaseKind::Checkpoint.label(), "checkpoint");
    }

    #[test]
    fn saved_bucket_never_touches_real_totals() {
        let mut reg = StatsRegistry::new();
        reg.set_current_kind(Some(PhaseKind::Inspector));
        reg.record(stats(3, 24));
        reg.note_saved("L2:schedule-build", 2, 16);
        reg.note_saved("L2:schedule-build", 1, 8);
        reg.note_saved("executor:gather", 4, 32);
        assert_eq!(reg.saved_labelled("L2:schedule-build").messages, 3);
        assert_eq!(reg.saved_labelled("L2:schedule-build").bytes, 24);
        assert_eq!(reg.saved_labelled("L2:schedule-build").phases, 2);
        assert_eq!(reg.saved_labelled("unknown").messages, 0);
        assert_eq!(
            reg.saved_totals().map(|(l, _)| l).collect::<Vec<_>>(),
            vec!["L2:schedule-build", "executor:gather"]
        );
        // Real totals see only the real phase.
        assert_eq!(reg.grand_totals().messages, 3);
        assert_eq!(reg.totals_for(PhaseKind::Inspector).messages, 3);
    }

    #[test]
    fn snapshot_round_trips_the_saved_bucket() {
        let mut reg = StatsRegistry::new();
        reg.note_saved("a", 1, 8);
        let mut snap = StatsRegistry::new();
        snap.copy_from(&reg);
        reg.note_saved("a", 2, 16);
        reg.note_saved("b", 5, 40);
        reg.copy_from(&snap);
        assert_eq!(reg.saved_labelled("a").messages, 1);
        assert_eq!(reg.saved_labelled("b").messages, 0);
    }
}
