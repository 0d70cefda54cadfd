//! The register VM that executes compiled kernels rank-parallel, and the
//! retained tree-walking interpreter it is differentially checked against.
//!
//! Both executors consume the same three things. One `SweepView`, shared
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
//! which every cell receives its contributions, are *identical* to the
//! tree-walker's (`run_rank_interpreted`) — post-order emission preserves
//! evaluation order, loads never round, lanes are independent, and stores
//! run iteration-major in statement order — which is what makes the
//! byte-for-byte differential tests possible.

use super::compile::{
    ArrLoc, CompiledKernel, KernelBindings, Op, SlotBinding, StoreRun, StoreTarget, BLOCK,
};
use crate::ast::Intrinsic;
use crate::exec::state::{Inspected, RegionValues};
use crate::lower::{CompiledExpr, LoopPlan};
use chaos_runtime::ScatterKind;

/// The edge-flux intrinsic shared with the workload crate's kernels. The
/// arithmetic is duplicated here (rather than depending on `chaos-workloads`)
/// to keep the language crate's dependency graph minimal; the cross-crate
/// integration tests assert the two stay identical.
#[inline]
pub fn eflux(x1: f64, x2: f64) -> (f64, f64) {
    let avg = 0.5 * (x1 + x2);
    let diff = x2 - x1;
    let flux = avg * diff + 0.25 * diff.abs() * x1;
    (flux, -flux)
}

/// The tree-walker's combine of a statement's value into a cell *inside the
/// compute loop* (an owned element or a write-buffer slot). Unlike
/// [`ScatterKind::apply`], `Store` here assigns unconditionally — the NaN
/// guard belongs only to the scatter phase, where NaN marks untouched
/// buffer slots.
#[inline]
fn combine_in_loop(kind: ScatterKind, cell: &mut f64, v: f64) {
    match kind {
        ScatterKind::Add => *cell += v,
        ScatterKind::Max => *cell = cell.max(v),
        ScatterKind::Min => *cell = cell.min(v),
        ScatterKind::Store => *cell = v,
    }
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
    fn localized(&self, group: u16, rank: usize) -> &'a [u32] {
        &self.rec.groups[group as usize].result.localized[rank]
    }

    /// `rank`'s row of the resident region ghost buffer `ghost` reads and
    /// its slot re-binding map into it: ghost slot `g` is read at
    /// `row[map[g]]`.
    #[inline]
    fn ghost(&self, ghost: usize, rank: usize) -> (&'a [f64], &'a [u32]) {
        let group = self.rec.bindings.ghosts[ghost].group as usize;
        let (_, values) = self.rec.ghost_sources[ghost];
        let map = &self.rec.groups[group].region.slot_map[rank];
        (&self.regions[values].rows[rank], map)
    }

    /// `rank`'s shard of the array at `arr`: its own (written) or the
    /// shared one.
    #[inline]
    fn owned<'s>(&self, arr: ArrLoc, rank: usize, shards: &'s [&mut [f64]]) -> &'s [f64]
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
    /// [`BLOCK`] lanes, allocated with the loop record (empty for the
    /// tree-walker, which has no registers).
    pub regs: Vec<[f64; BLOCK]>,
}

impl RankSweepArea {
    /// Reset the write-buffer rows to their identities and clear the touched
    /// flags — the per-sweep prologue both executors share.
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

/// The interpreter's per-rank name-resolution environment. The seed
/// interpreter resolved every slot read by *name* per element (a
/// `String`-keyed map lookup per read, two `String` clones per ghost
/// access); the oracle-hoist satellite moves that resolution behind a
/// one-time binding table built here, once per sweep: the constructor
/// still walks the name-keyed maps (decomposition-name group map,
/// array-name location map, `(decomposition, array)` ghost map — so the
/// two modes still resolve through genuinely different paths and a binding
/// bug cannot cancel out of the differential tests), but the per-read hot
/// path indexes the resolved per-slot tables. Output is byte-identical:
/// resolution is pure lookup, so hoisting it cannot change a value. The
/// per-statement combine kind and write-buffer resolution are likewise
/// hoisted once per sweep, and no per-element closure is constructed.
struct OracleEnv {
    /// Slot → group index, resolved through the decomposition-name map.
    slot_group: Vec<usize>,
    /// Slot → (pos, stride) inside its group's localization row.
    slot_pos: Vec<(u32, u32)>,
    /// Slot → array location, resolved through the array-name map.
    slot_arr: Vec<ArrLoc>,
    /// Slot → ghost buffer id, resolved through the
    /// `(decomposition, array)` map (`usize::MAX` for write-only slots,
    /// which never read).
    slot_ghost: Vec<usize>,
}

impl OracleEnv {
    fn new(plan: &LoopPlan, bindings: &KernelBindings) -> Self {
        // The seed's name-keyed maps, now built and consulted exactly once
        // per sweep instead of once per element read.
        let group_of: std::collections::BTreeMap<String, usize> = bindings
            .groups
            .iter()
            .enumerate()
            .map(|(g, spec)| (spec.decomp.clone(), g))
            .collect();
        let mut arr_of = std::collections::HashMap::new();
        for (w, name) in bindings.written.iter().enumerate() {
            arr_of.insert(name.clone(), ArrLoc::Written(w as u16));
        }
        for (r, name) in bindings.read_only.iter().enumerate() {
            arr_of.insert(name.clone(), ArrLoc::ReadOnly(r as u16));
        }
        let ghost_of: std::collections::HashMap<(String, String), usize> = bindings
            .ghosts
            .iter()
            .enumerate()
            .map(|(gid, gb)| {
                (
                    (
                        bindings.groups[gb.group as usize].decomp.clone(),
                        gb.array.clone(),
                    ),
                    gid,
                )
            })
            .collect();

        let mut slot_group = Vec::with_capacity(bindings.slots.len());
        let mut slot_pos = Vec::with_capacity(bindings.slots.len());
        let mut slot_arr = Vec::with_capacity(bindings.slots.len());
        let mut slot_ghost = Vec::with_capacity(bindings.slots.len());
        for (sid, sb) in bindings.slots.iter().enumerate() {
            let decomp = &bindings.groups[sb.group as usize].decomp;
            let array = &plan.slots[sid].array;
            slot_group.push(group_of[decomp]);
            slot_pos.push((sb.pos, sb.stride));
            slot_arr.push(arr_of[array]);
            slot_ghost.push(
                ghost_of
                    .get(&(decomp.clone(), array.clone()))
                    .copied()
                    .unwrap_or(usize::MAX),
            );
        }
        OracleEnv {
            slot_group,
            slot_pos,
            slot_arr,
            slot_ghost,
        }
    }

    /// The seed's `resolve`: localized reference of a slot, through the
    /// hoisted group table.
    fn resolve(&self, at: &RankAt<'_>, sid: usize, iter_pos: usize) -> u32 {
        let (pos, stride) = self.slot_pos[sid];
        let row = at.view.localized(self.slot_group[sid] as u16, at.rank);
        row[iter_pos * stride as usize + pos as usize]
    }

    /// The seed's `read_slot`: resolve, then fetch the value through the
    /// hoisted array / ghost tables.
    fn read_slot(&self, at: &RankAt<'_>, sid: usize, iter_pos: usize) -> f64 {
        let idx = self.resolve(at, sid, iter_pos) as usize;
        let owned = at.view.owned(self.slot_arr[sid], at.rank, at.shards);
        if idx < owned.len() {
            owned[idx]
        } else {
            let (row, map) = at.view.ghost(self.slot_ghost[sid], at.rank);
            row[map[idx - owned.len()] as usize]
        }
    }
}

/// Where the tree-walker is evaluating: the sweep's view, the rank, and
/// that rank's written shards as they stand.
struct RankAt<'s> {
    view: &'s SweepView<'s>,
    rank: usize,
    shards: &'s [&'s mut [f64]],
}

/// Recursive tree-walking evaluation of one expression — the retained
/// per-element interpreter the VM is checked against (and measured against
/// by `perf_check`'s compiled-vs-interpreted gate). Intrinsic calls collect their arguments
/// into a fresh vector, as the seed interpreter did.
fn eval_tree(e: &CompiledExpr, env: &OracleEnv, at: &RankAt<'_>, iter_pos: usize) -> f64 {
    match e {
        CompiledExpr::Lit(v) => *v,
        CompiledExpr::Slot(s) => env.read_slot(at, *s, iter_pos),
        CompiledExpr::Binary { op, lhs, rhs } => {
            let a = eval_tree(lhs, env, at, iter_pos);
            let b = eval_tree(rhs, env, at, iter_pos);
            match op {
                '+' => a + b,
                '-' => a - b,
                '*' => a * b,
                '/' => a / b,
                _ => unreachable!("parser only emits + - * /"),
            }
        }
        CompiledExpr::Call { intrinsic, args } => {
            let v: Vec<f64> = args
                .iter()
                .map(|arg| eval_tree(arg, env, at, iter_pos))
                .collect();
            match intrinsic {
                Intrinsic::Eflux1 => eflux(v[0], v[1]).0,
                Intrinsic::Eflux2 => eflux(v[0], v[1]).1,
                Intrinsic::Sqrt => v[0].sqrt(),
                Intrinsic::Abs => v[0].abs(),
            }
        }
    }
}

/// Execute the loop body by walking the `CompiledExpr` trees per element —
/// the differential oracle. The statements' targets, combine kinds and
/// write buffers are hoisted out of the iteration loop (they are
/// plan-static, the satellite fix over the seed's per-statement
/// re-derivation), and each read resolves arrays and ghost buffers through
/// the tree-walker environment's once-per-sweep binding table
/// (`OracleEnv`) built from the seed's
/// name-keyed maps.
pub(crate) fn run_rank_interpreted(
    plan: &LoopPlan,
    view: &SweepView<'_>,
    rank: usize,
    shards: &mut [&mut [f64]],
    area: &mut RankSweepArea,
) {
    let bindings = &view.rec.bindings;
    area.reset_write_buffers(bindings);
    let RankSweepArea {
        contrib, touched, ..
    } = area;
    let env = OracleEnv::new(plan, bindings);
    // Hoisted per-statement data: target slot, combine kind, write buffer.
    let stmt_ops: Vec<(usize, ScatterKind, u16)> = plan
        .stmts
        .iter()
        .map(|s| (s.target(), s.scatter_kind(), bindings.write_buf_of(s, plan)))
        .collect();
    for iter_pos in 0..view.niters(rank) {
        for (stmt, &(target, kind, wb)) in plan.stmts.iter().zip(&stmt_ops) {
            let at = RankAt {
                view,
                rank,
                shards: &*shards,
            };
            let v = eval_tree(stmt.value(), &env, &at, iter_pos);
            // The write applies through the target's resolved location.
            let idx = env.resolve(&at, target, iter_pos) as usize;
            let ArrLoc::Written(w) = env.slot_arr[target] else {
                unreachable!("store target bound to a read-only array")
            };
            let shard = &mut *shards[w as usize];
            if idx < shard.len() {
                combine_in_loop(kind, &mut shard[idx], v);
            } else {
                touched[wb as usize] = true;
                combine_in_loop(kind, &mut contrib[wb as usize][idx - shard.len()], v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::state::InspectedGroup;
    use crate::kernel::compile::{compile_kernel, GroupSpec};
    use crate::lower::lower_program;
    use crate::parser::parse_program;
    use chaos_runtime::{
        CommSchedule, DadSignature, InspectorResult, IterationPartition, RegionBinding,
    };

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
        let sig = DadSignature(0);
        let no_traffic = CommSchedule::from_csr_parts(1, vec![0, 0], vec![], vec![]);
        let group = InspectedGroup {
            result: InspectorResult {
                schedule: no_traffic.clone(),
                localized: vec![localized],
                owned_counts: vec![owned],
                ghost_counts: vec![nghosts],
            },
            region: RegionBinding {
                sig,
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
            kernel: Some(kernel),
        };
        let (bindings, kernel) = (&rec.bindings, rec.kernel.as_ref().unwrap());
        let regions = [RegionValues {
            sig,
            array: "x".to_string(),
            rows: vec![region],
            era: 0,
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
