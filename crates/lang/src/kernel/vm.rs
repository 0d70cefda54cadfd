//! The register VM that executes compiled kernels rank-parallel.
//!
//! `run_rank` consumes three things. One `SweepView`, shared
//! by every rank, borrows *in place* everything a rank only reads: the
//! loop's record (iteration lists, localized reference rows, slot maps),
//! the rows of the resident ghost regions and the read-only arrays — a rank
//! indexes it with its own number, nothing is built per rank. The rank's
//! row of written shards (`&mut [&mut [f64]]`, its chunk of the sweep's one
//! flat shard table) is what it mutates in place, and its [`RankSweepArea`]
//! *owns* its sweep-scoped storage — off-processor write-buffer rows,
//! touched flags and the register file — so the fused sweep can hand each
//! rank `&mut` its area during compute and then share all areas immutably
//! with every rank during the scatter-combine stage. Shard rows and areas
//! are `Send` and the view is `Sync`, so the executor hands one (row, area)
//! pair per rank to [`chaos_dmsim::Backend::run_sweep`] and the sweep runs
//! on either engine — including one OS thread per rank under a
//! `PooledBackend` with `nprocs` workers — with byte-identical results.
//!
//! `run_rank` is the compiled hot path: the once-per-sweep setup region
//! (`ops[..iter_start]`, const broadcasts) runs first, then the rank's
//! iterations are cut into blocks of [`CompiledKernel::width`] and the
//! per-iteration region is walked once per block, each op over the whole
//! block. Registers are columns of [`BLOCK`] lanes (512 B each) in a file
//! that lives in the rank's [`RankSweepArea`], sized by the kernel when the
//! loop record is built. A `LoadSlot` resolves its column of the localized
//! row, its owned slice and its region row + slot map once per block and
//! then streams; the arithmetic ops are plain loops over two columns; a
//! `Store` resolves its shard, write-buffer row and combine once per block
//! and applies its run iteration-major. A body whose stores cannot wait for
//! the end of a block is compiled at width 1 and takes the same loop with
//! one-lane blocks (see [`compile`](super::compile)).
//!
//! The floating-point operation sequence on every value, and the order in
//! which every cell receives its contributions, are *identical* to a
//! per-element walk of the body's trees in statement order — post-order
//! emission preserves evaluation order, loads never round, lanes are
//! independent, and stores run iteration-major in statement order — which
//! is what lets the tests compare the VM byte for byte against the
//! tree-walking oracle (`kernel::oracle`, test builds only).

use super::compile::{
    ArrLoc, CompiledKernel, KernelBindings, Op, SlotBinding, StoreRun, StoreTarget, BLOCK,
};
use crate::exec::state::{Inspected, RegionValues};
use chaos_runtime::ScatterKind;

/// The edge-flux intrinsic shared with the workload crate's kernels. The
/// arithmetic is duplicated here (rather than depending on `chaos-workloads`)
/// to keep the language crate's dependency graph minimal. Nothing compares
/// the two functions directly: the cross-crate tests check them end to end,
/// a program's `EFLUX` sweep against the serial reference sweep that calls
/// `chaos_workloads::edge_flux_kernel`.
#[inline]
pub fn eflux(x1: f64, x2: f64) -> (f64, f64) {
    let avg = 0.5 * (x1 + x2);
    let diff = x2 - x1;
    let flux = avg * diff + 0.25 * diff.abs() * x1;
    (flux, -flux)
}

/// Everything the ranks of one sweep read, borrowed *in place* and shared
/// by all of them: built once per sweep, indexed by rank number. What a
/// rank writes in place — its shards of the written arrays, indexed like
/// [`KernelBindings::written`] — travels beside it as that rank's
/// `&mut [&mut [f64]]` row of the sweep's flat shard table.
pub(crate) struct SweepView<'a> {
    /// The loop's record: iteration lists, each group's localized rows
    /// (local indices, an owned offset below the shard's length and a ghost
    /// slot behind it) and slot re-binding maps, the bindings.
    pub rec: &'a Inspected,
    /// The resident ghost-region values the record's ghost buffers read
    /// ([`Inspected::ghost_sources`] says which): lent, not copied.
    pub regions: &'a [RegionValues],
    /// Every rank's shard of each read-only array, indexed like
    /// [`KernelBindings::read_only`].
    pub read_only: Vec<&'a [Vec<f64>]>,
}

impl<'a> SweepView<'a> {
    /// How many iterations `rank` runs.
    pub fn niters(&self, rank: usize) -> usize {
        self.rec.iter_part.iters(rank).len()
    }

    /// `rank`'s localized reference row of decomposition group `group`.
    #[inline]
    pub(super) fn localized(&self, group: u16, rank: usize) -> &'a [u32] {
        &self.rec.groups[group as usize].result.localized[rank]
    }

    /// `rank`'s row of the resident region ghost buffer `ghost` reads and
    /// its slot re-binding map into it: ghost slot `g` is read at
    /// `row[map[g]]`.
    #[inline]
    pub(super) fn ghost(&self, ghost: usize, rank: usize) -> (&'a [f64], &'a [u32]) {
        let group = self.rec.bindings.ghosts[ghost].group as usize;
        let (_, values) = self.rec.ghost_sources[ghost];
        let map = &self.rec.groups[group].region.slot_map[rank];
        (&self.regions[values].rows[rank], map)
    }

    /// `rank`'s shard of the array at `arr`: its own (written) or the
    /// shared one.
    #[inline]
    pub(super) fn owned<'s>(&self, arr: ArrLoc, rank: usize, shards: &'s [&mut [f64]]) -> &'s [f64]
    where
        'a: 's,
    {
        match arr {
            ArrLoc::Written(w) => &*shards[w as usize],
            ArrLoc::ReadOnly(r) => &self.read_only[r as usize][rank],
        }
    }
}

/// The rank's *owned* sweep-scoped storage, split from its shard row so the
/// fused sweep's stages can alias it stage-appropriately: during compute
/// each rank holds `&mut` its own area; during the scatter-combine stage
/// every rank reads all areas through a shared `&[RankSweepArea]` while
/// mutating only its own shards. Rows are indexed like the
/// corresponding [`KernelBindings`] tables.
#[derive(Debug, Clone, Default)]
pub struct RankSweepArea {
    /// The rank's row of each off-processor write buffer, indexed like
    /// [`KernelBindings::write_bufs`].
    pub contrib: Vec<Vec<f64>>,
    /// `touched[wb]` is set when the rank wrote write buffer `wb` (untouched
    /// buffers are not scattered, exactly like the lazily-created buffers of
    /// the original driver loop).
    pub touched: Vec<bool>,
    /// The VM's register file: [`CompiledKernel::nregs`] columns of
    /// [`BLOCK`] lanes, allocated with the loop record.
    pub regs: Vec<[f64; BLOCK]>,
}

impl RankSweepArea {
    /// Reset the write-buffer rows to their identities and clear the touched
    /// flags — the per-sweep prologue of every rank's compute.
    pub fn reset_write_buffers(&mut self, bindings: &KernelBindings) {
        for (wb, row) in self.contrib.iter_mut().enumerate() {
            row.fill(bindings.write_bufs[wb].kind.identity());
        }
        self.touched.fill(false);
    }
}

/// One register column.
type Column = [f64; BLOCK];

/// `regs[d][..len] = f(regs[x][..len], regs[y][..len])`, lane by lane: lane
/// `l` of the operands is read before lane `l` of `d` is written, so `d` may
/// name an operand — which is also why the lanes are indexed, not iterated.
#[inline]
#[allow(clippy::needless_range_loop)]
fn binary(
    regs: &mut [Column],
    (d, x, y): (usize, usize, usize),
    len: usize,
    f: impl Fn(f64, f64) -> f64,
) {
    for lane in 0..len.min(BLOCK) {
        regs[d][lane] = f(regs[x][lane], regs[y][lane]);
    }
}

/// `regs[d][..len] = f(regs[x][..len])`.
#[inline]
fn unary(regs: &mut [Column], (d, x): (usize, usize), len: usize, f: impl Fn(f64) -> f64) {
    binary(regs, (d, x, x), len, |a, _| f(a));
}

/// Load `out.len()` iterations of a slot, from the rank's `start`-th on:
/// the column, the owned slice and the region row + slot map are resolved
/// once, then each local index reads the owned element or, behind the
/// shard's length, its ghost slot through the re-binding map.
#[inline]
fn load_slot(
    sb: &SlotBinding,
    view: &SweepView<'_>,
    (rank, shards): (usize, &[&mut [f64]]),
    start: usize,
    out: &mut [f64],
) {
    let (stride, pos) = (sb.stride as usize, sb.pos as usize);
    let rows = view.localized(sb.group, rank)[start * stride..].chunks_exact(stride);
    let owned = view.owned(sb.arr, rank, shards);
    debug_assert_ne!(sb.ghost, super::compile::NO_GHOST, "write-only slot read");
    let (region, map) = view.ghost(sb.ghost as usize, rank);
    for (out, row) in out.iter_mut().zip(rows) {
        let idx = row[pos] as usize;
        *out = match idx.checked_sub(owned.len()) {
            None => owned[idx],
            Some(g) => region[map[g] as usize],
        };
    }
}

/// Execute one store run over `len` iterations from the rank's `start`-th,
/// iteration-major: the shard, the write-buffer row and the combine are
/// resolved here, once, and each target then goes to the owned cell or, when
/// its local index is behind the shard, to its ghost slot's buffer cell.
#[inline]
fn store_run(
    run: &StoreRun,
    refs: &[u32],
    shards: &mut [&mut [f64]],
    (contrib, touched): (&mut [Vec<f64>], &mut [bool]),
    regs: &[Column],
    (start, len): (usize, usize),
) {
    let stride = run.stride as usize;
    let refs = &refs[start * stride..][..len * stride];
    let mut cells = RunCells {
        refs,
        stride,
        shard: &mut *shards[run.written as usize],
        buffer: &mut contrib[run.wb as usize],
        regs,
    };
    // One loop per combine, so the operator is not re-matched per value.
    // `Store` assigns unconditionally — the NaN guard of
    // `ScatterKind::apply` belongs only to the scatter phase, where NaN
    // marks untouched buffer slots.
    touched[run.wb as usize] |= match run.kind {
        ScatterKind::Add => cells.combine_run(&run.targets, |cell, v| *cell += v),
        ScatterKind::Max => cells.combine_run(&run.targets, |cell, v| *cell = cell.max(v)),
        ScatterKind::Min => cells.combine_run(&run.targets, |cell, v| *cell = cell.min(v)),
        ScatterKind::Store => cells.combine_run(&run.targets, |cell, v| *cell = v),
    };
}

/// What a store run resolved for one block: the block's rows of the
/// localized references, the written shard and the write-buffer row behind
/// it, and the register file the values come from.
struct RunCells<'a> {
    refs: &'a [u32],
    stride: usize,
    shard: &'a mut [f64],
    buffer: &'a mut [f64],
    regs: &'a [Column],
}

impl RunCells<'_> {
    /// Dispatch the element loop on the run's length: runs of one and two
    /// targets — every paper kernel's — reach it as arrays, so their target
    /// loop unrolls and each column is looked up once per block.
    #[inline(always)]
    fn combine_run(&mut self, targets: &[StoreTarget], combine: impl Fn(&mut f64, f64)) -> bool {
        match *targets {
            [a] => self.combine_lanes([a], combine),
            [a, b] => self.combine_lanes([a, b], combine),
            _ => self.combine_lanes(targets, combine),
        }
    }

    /// The element loop, iteration-major; true when a target was
    /// off-processor.
    #[inline(always)]
    fn combine_lanes(
        &mut self,
        targets: impl AsRef<[StoreTarget]>,
        combine: impl Fn(&mut f64, f64),
    ) -> bool {
        let mut off_processor = false;
        for (lane, row) in (0..BLOCK).zip(self.refs.chunks_exact(self.stride)) {
            for t in targets.as_ref() {
                let (idx, v) = (
                    row[t.pos as usize] as usize,
                    self.regs[t.src as usize][lane],
                );
                match idx.checked_sub(self.shard.len()) {
                    None => combine(&mut self.shard[idx], v),
                    Some(g) => {
                        off_processor = true;
                        combine(&mut self.buffer[g], v);
                    }
                }
            }
        }
        off_processor
    }
}

/// Execute the compiled kernel over the rank's iterations: the executor's
/// compute phase on the bytecode hot path. The setup region runs once (its
/// const broadcasts persist in the area's register file), then the
/// per-iteration region is walked as zipped slices (one linear pass, no
/// per-operand bounds checks) once per block of `kernel.width` iterations;
/// lanes beyond a short last block are not computed.
pub(crate) fn run_rank(
    kernel: &CompiledKernel,
    view: &SweepView<'_>,
    rank: usize,
    shards: &mut [&mut [f64]],
    area: &mut RankSweepArea,
) {
    let bindings = &view.rec.bindings;
    area.reset_write_buffers(bindings);
    let RankSweepArea {
        contrib,
        touched,
        regs,
    } = area;
    let slots = &bindings.slots;
    let setup = kernel
        .ops
        .iter()
        .zip(&kernel.dst)
        .zip(&kernel.a)
        .take(kernel.iter_start);
    for ((&op, &d), &x) in setup {
        debug_assert_eq!(op, Op::LoadConst, "setup region is const loads only");
        let _ = op;
        regs[d as usize] = [kernel.consts[x as usize]; BLOCK];
    }
    let niters = view.niters(rank);
    for start in (0..niters).step_by(kernel.width) {
        let len = kernel.width.min(niters - start);
        let instrs = kernel.ops[kernel.iter_start..]
            .iter()
            .zip(&kernel.dst[kernel.iter_start..])
            .zip(&kernel.a[kernel.iter_start..])
            .zip(&kernel.b[kernel.iter_start..]);
        for (((&op, &d), &x), &y) in instrs {
            let (d, x, y) = (d as usize, x as usize, y as usize);
            match op {
                Op::LoadConst => regs[d][..len].fill(kernel.consts[x]),
                Op::LoadSlot => {
                    load_slot(&slots[x], view, (rank, shards), start, &mut regs[d][..len])
                }
                Op::Add => binary(regs, (d, x, y), len, |a, b| a + b),
                Op::Sub => binary(regs, (d, x, y), len, |a, b| a - b),
                Op::Mul => binary(regs, (d, x, y), len, |a, b| a * b),
                Op::Div => binary(regs, (d, x, y), len, |a, b| a / b),
                Op::Sqrt => unary(regs, (d, x), len, f64::sqrt),
                Op::Abs => unary(regs, (d, x), len, f64::abs),
                Op::Eflux1 => binary(regs, (d, x, y), len, |a, b| eflux(a, b).0),
                Op::Eflux2 => binary(regs, (d, x, y), len, |a, b| eflux(a, b).1),
                Op::Store => {
                    let run = &kernel.runs[x];
                    let refs = view.localized(run.group, rank);
                    let area = (contrib.as_mut_slice(), touched.as_mut_slice());
                    store_run(run, refs, shards, area, regs, (start, len));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::state::InspectedGroup;
    use crate::kernel::compile::{compile_kernel, GroupSpec};
    use crate::kernel::oracle::run_rank_interpreted;
    use crate::lower::lower_program;
    use crate::parser::parse_program;
    use chaos_runtime::{CommSchedule, Dad, InspectorResult, IterationPartition, RegionBinding};

    /// `body` in a loop over `ia` / `ib` into x, y (one decomposition).
    fn program(body: &str) -> String {
        format!(
            r#"
            REAL*8 x(n), y(n)
            INTEGER ia(m), ib(m)
            DECOMPOSITION reg(n), reg2(m)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            ALIGN x, y WITH reg
            ALIGN ia, ib WITH reg2
            FORALL i = 1, m
              {body}
            END FORALL
        "#
        )
    }

    /// Drive both executors over a synthetic single rank — 5 owned
    /// elements, 3 ghost slots, `niters` iterations whose references
    /// collide on those 8 cells many times per block — and compare every
    /// written bit. Returns the kernel's width.
    fn both_executors_agree(body: &str, niters: usize) -> usize {
        let cp = lower_program(parse_program(&program(body)).unwrap()).unwrap();
        let plan = &cp.plans["L1"];
        let slot_ids = (0..plan.slots.len()).collect();
        let groups = vec![GroupSpec::new(plan, "reg".to_string(), slot_ids)];
        let bindings = KernelBindings::bind(plan, &groups).unwrap();
        let kernel = compile_kernel(plan, &bindings).unwrap();

        let (owned, nghosts) = (5usize, 3usize);
        let stride = groups[0].ncols as usize;
        let localized: Vec<u32> = (0..niters * stride)
            .map(|k| ((k * 7 + k / 3) % (owned + nghosts)) as u32)
            .collect();
        // Region rows hold more than this loop's ghosts; the slot map picks.
        let region: Vec<f64> = (0..6).map(|g| 1.5 - g as f64 * 0.4).collect();
        let dad = Dad::Block { n: owned, p: 1 };
        let no_traffic = CommSchedule::from_csr_parts(1, vec![0, 0], vec![], vec![]);
        let group = InspectedGroup {
            result: InspectorResult {
                schedule: no_traffic.clone(),
                localized: vec![localized],
                owned_counts: vec![owned],
                ghost_counts: vec![nghosts],
            },
            region: RegionBinding {
                dad,
                chunk: None,
                deps: Vec::new(),
                slot_map: vec![vec![4, 0, 2]],
                diff: no_traffic,
                base: vec![0],
            },
        };
        let rec = Inspected {
            iter_part: IterationPartition::new(vec![(0..niters as u32).collect()]),
            groups: vec![group],
            ghost_sources: vec![(0, 0); bindings.ghosts.len()],
            array_locs: Vec::new(),
            bindings,
            kernel,
        };
        let (bindings, kernel) = (&rec.bindings, &rec.kernel);
        let regions = [RegionValues {
            dad,
            array: "x".to_string(),
            rows: vec![region],
            fresh: Vec::new(),
        }];
        let x = [(0..owned)
            .map(|i| 0.5 - i as f64 * 0.25)
            .collect::<Vec<f64>>()];
        let view = SweepView {
            rec: &rec,
            regions: &regions,
            read_only: vec![&x],
        };
        let run = |use_vm: bool| -> (Vec<f64>, Vec<f64>, Vec<bool>) {
            let mut y: Vec<f64> = (0..owned).map(|i| 1.0 + i as f64).collect();
            let nwb = bindings.write_bufs.len();
            let mut area = RankSweepArea {
                contrib: vec![vec![0.0; nghosts]; nwb],
                touched: vec![false; nwb],
                regs: vec![[0.0; BLOCK]; kernel.nregs as usize],
            };
            let shards: &mut [&mut [f64]] = &mut [&mut y];
            if use_vm {
                run_rank(kernel, &view, 0, shards, &mut area);
            } else {
                run_rank_interpreted(plan, &view, 0, shards, &mut area);
            }
            (y, area.contrib.concat(), area.touched)
        };
        let (vm, tree) = (run(true), run(false));
        for (u, v) in vm.0.iter().zip(&tree.0) {
            assert_eq!(u.to_bits(), v.to_bits(), "{niters}: owned writes diverged");
        }
        for (u, v) in vm.1.iter().zip(&tree.1) {
            assert_eq!(u.to_bits(), v.to_bits(), "{niters}: write buffers diverged");
        }
        assert_eq!(vm.2, tree.2, "{niters}: touched flags diverged");
        if niters > 8 {
            assert!(vm.2.iter().all(|&t| t), "every buffer saw a ghost write");
        }
        kernel.width
    }

    /// Iteration counts around the block boundaries.
    const COUNTS: [usize; 7] = [0, 1, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3];

    #[test]
    fn vm_and_tree_walker_agree_on_a_synthetic_rank() {
        // Stores in stream: y is read after it is written, within and
        // across iterations.
        let body = "REDUCE(ADD, y(ia(i)), SQRT(ABS(x(ia(i)) * 3.0 - 1.0)))
              y(ia(i)) = y(ia(i)) / 2.0";
        for n in COUNTS {
            assert_eq!(both_executors_agree(body, n), 1);
        }
    }

    #[test]
    fn deferred_stores_accumulate_in_the_tree_walkers_order() {
        // Stores in the tail: two targets of one run collide on 8 cells
        // throughout every block, so any order but iteration-major,
        // statement-minor changes a rounding.
        let body = "REDUCE(ADD, y(ia(i)), EFLUX1(x(ia(i)), x(ib(i))) * 0.1)
              REDUCE(ADD, y(ib(i)), EFLUX2(x(ia(i)), x(ib(i))) / 3.0)";
        for n in COUNTS {
            assert_eq!(both_executors_agree(body, n), BLOCK);
        }
    }

    #[test]
    fn two_kinds_on_one_array_apply_in_statement_order() {
        let body = "y(ia(i)) = x(ib(i)) - 0.25
              REDUCE(MAX, y(ia(i)), x(ib(i)) * x(ia(i)) - 1.0)";
        for n in COUNTS {
            assert_eq!(both_executors_agree(body, n), 1);
        }
    }

    #[test]
    fn eflux_matches_the_workload_kernel_shape() {
        let (f, g) = eflux(1.25, -0.5);
        assert_eq!(f, -g);
        let avg = 0.5 * (1.25 + -0.5);
        let diff: f64 = -0.5 - 1.25;
        assert_eq!(f, avg * diff + 0.25 * diff.abs() * 1.25);
    }
}
