//! The state seam: everything the executor snapshots and restores, as one
//! [`ProgramState`].
//!
//! A FORALL's saved state is **one** [`LoopState`] in [`RunState::loops`],
//! indexed by the plan's [`LoopId`](chaos_runtime::LoopId): the inspector
//! driver builds it, re-inspecting overwrites it, and the sweep borrows it
//! in place next to the arrays and region values it reads. Nothing is taken
//! out of this struct while a sweep runs, so a sweep that unwinds leaves all
//! of it behind.

use super::ExecReport;
use crate::kernel::{ArrLoc, CompiledKernel, KernelBindings, RankSweepArea, BLOCK};
use chaos_geocol::GeoCoL;
use chaos_runtime::{
    Dad, DistArray, Distribution, InspectorResult, IterationPartition, RegionBinding, ReuseRegistry,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The distributed arrays of one element type, in first-`ALIGN` order.
/// Directives address them by name; a loop record resolves the names it
/// binds to positions once, when it is built, and its sweeps lend shards by
/// position. Positions are stable: an array is replaced in place, never
/// removed.
#[derive(Debug, Clone, Default)]
pub(super) struct ArrayTable<T>(pub Vec<DistArray<T>>);

impl<T> ArrayTable<T> {
    /// Position of the array called `name`.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.0.iter().position(|a| a.name() == name)
    }

    /// The array called `name`.
    pub fn named(&self, name: &str) -> Option<&DistArray<T>> {
        self.0.iter().find(|a| a.name() == name)
    }

    /// The array called `name`, mutably.
    pub fn named_mut(&mut self, name: &str) -> Option<&mut DistArray<T>> {
        self.0.iter_mut().find(|a| a.name() == name)
    }

    /// Add `array`, replacing (in place) an existing array of the same name.
    pub fn put(&mut self, array: DistArray<T>) {
        match self.named_mut(array.name()) {
            Some(slot) => *slot = array,
            None => self.0.push(array),
        }
    }
}

/// The resident value rows of one `(distribution, array)` ghost region:
/// what the shared region currently holds for that array, carried across
/// loops and sweeps so later loops can fetch only the ghosts earlier loops
/// didn't. Freshness is tracked per region chunk: a write to the array
/// marks every chunk stale ([`RunState::stale_ghosts`]), and the next
/// reader of each chunk falls back to a full gather.
#[derive(Debug, Clone)]
pub(crate) struct RegionValues {
    /// The DAD of the distribution whose region the rows mirror.
    pub dad: Dad,
    /// The array whose values the rows hold.
    pub array: String,
    /// Per-rank resident value rows, sized to the region when a loop record
    /// binds to them; sweeps gather into them and lend them in place.
    pub rows: Vec<Vec<f64>>,
    /// `fresh[c]` — region chunk `c`'s slots hold the array's current
    /// values (gathered since the array was last written).
    pub fresh: Vec<bool>,
}

/// One decomposition group of a loop's inspector state.
#[derive(Debug)]
pub(crate) struct InspectedGroup {
    /// The group's inspector result (schedule, localized rows, ghost
    /// counts) — always the loop's *own* full schedule.
    pub result: InspectorResult,
    /// The group's binding into the shared resident ghost region of its
    /// distribution.
    pub region: RegionBinding,
}

/// What one inspector run saved for a loop: immutable until the next
/// inspection replaces it, so the live state and every snapshot share it by
/// `Arc` instead of copying localized rows. Anything resolved once per
/// inspection — a name, a position, an index table — belongs here.
#[derive(Debug)]
pub(crate) struct Inspected {
    /// Which iterations each rank executes.
    pub iter_part: IterationPartition,
    /// One entry per decomposition group, parallel to `bindings.groups`
    /// (name-sorted), which holds each group's slot ids.
    pub groups: Vec<InspectedGroup>,
    /// How every slot, ghost buffer and write buffer of the plan resolves
    /// against `groups`.
    pub bindings: KernelBindings,
    /// The body's bytecode, compiled against `bindings`.
    pub kernel: CompiledKernel,
    /// Per ghost buffer (parallel to `bindings.ghosts`): the position of
    /// the gathered array in [`ProgramState::real`] and of the rows it is
    /// gathered into in [`RunState::regions`].
    pub ghost_sources: Vec<(usize, usize)>,
    /// Per entry of [`ProgramState::real`]: how the sweep lends that array
    /// to the ranks (`None`: the loop does not touch it).
    pub array_locs: Vec<Option<ArrLoc>>,
}

/// A FORALL's one record: the shared inspector results plus the per-rank
/// sweep areas (off-processor write-buffer rows sized by the schedules'
/// ghost counts, touched flags, the VM register file sized by the kernel)
/// its sweeps reuse.
#[derive(Debug, Clone)]
pub(super) struct LoopState {
    pub inspected: Arc<Inspected>,
    /// One area per rank.
    pub areas: Vec<RankSweepArea>,
}

impl LoopState {
    /// Wrap one inspector run's results, allocating the sweep areas they
    /// call for.
    pub fn new(inspected: Inspected) -> Self {
        let write_bufs = &inspected.bindings.write_bufs;
        let nregs = inspected.kernel.nregs as usize;
        let areas = (0..inspected.iter_part.nprocs())
            .map(|p| RankSweepArea {
                contrib: write_bufs
                    .iter()
                    .map(|w| vec![0.0; inspected.groups[w.group as usize].result.ghost_counts[p]])
                    .collect(),
                touched: vec![false; write_bufs.len()],
                regs: vec![[0.0; BLOCK]; nregs],
            })
            .collect();
        LoopState {
            inspected: Arc::new(inspected),
            areas,
        }
    }
}

/// What executing FORALLs saves and advances: the reuse registry, the loop
/// records, the resident region values and the counters.
#[derive(Debug, Clone, Default)]
pub(super) struct RunState {
    pub registry: ReuseRegistry,
    /// The loop records, indexed by [`LoopId::index`](chaos_runtime::LoopId::index).
    pub loops: Vec<Option<LoopState>>,
    /// Resident ghost-region value rows. Found by `(dad, array)` only while
    /// a loop record is built; sweeps index them by the position the record
    /// resolved.
    pub regions: Vec<RegionValues>,
    pub report: ExecReport,
}

impl RunState {
    /// The named array's values may have changed: no resident ghost-region
    /// chunk holds them any more, so its next gather fetches in full.
    pub fn stale_ghosts(&mut self, array: &str) {
        for rv in self.regions.iter_mut().filter(|rv| rv.array == array) {
            rv.fresh.fill(false);
        }
    }
}

/// Everything a snapshot holds and a restore puts back; `Clone` *is* the
/// snapshot, so a field added here cannot be forgotten by one. The fields
/// of the struct itself are what the directives establish — a FORALL
/// changes nothing in them but the values of the REAL arrays it writes;
/// everything else a FORALL touches is in `run`.
#[derive(Debug, Clone, Default)]
pub(super) struct ProgramState {
    pub real: ArrayTable<f64>,
    pub int: ArrayTable<u32>,
    /// Current distribution of each DISTRIBUTEd decomposition.
    pub decomp_dist: HashMap<String, Distribution>,
    /// Array name → the decomposition it is ALIGNed with.
    pub array_decomp: HashMap<String, String>,
    pub geocols: HashMap<String, GeoCoL>,
    /// Distribution formats produced by `SET ... BY PARTITIONING`.
    pub distfmts: HashMap<String, Distribution>,
    pub run: RunState,
}

impl ProgramState {
    /// Bring `self` — a copy of `live` from which `live` has since moved on
    /// by FORALL sweeps only — up to date: the arrays those sweeps `wrote`
    /// are re-copied values-only into the storage the copy already has, and
    /// nothing else outside `run` can differ.
    pub fn refresh_from(&mut self, live: &ProgramState, wrote: impl Fn(&str) -> bool) {
        let arrays = self.real.0.iter_mut().zip(&live.real.0);
        for (dst, src) in arrays.filter(|(_, src)| wrote(src.name())) {
            dst.copy_values_from(src);
        }
        self.run.clone_from(&live.run);
    }
}
