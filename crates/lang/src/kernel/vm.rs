//! The register VM that executes compiled kernels rank-parallel, and the
//! retained tree-walking interpreter it is differentially checked against.
//!
//! Both executors consume the same pair of per-rank structures:
//! [`RankState`] borrows everything one virtual processor reads or writes
//! *in place* during a compute phase (its own shards of the written arrays,
//! shared views of the read-only arrays, its localized reference rows, its
//! rows of the resident ghost regions), while [`RankSweepArea`] *owns* the
//! rank's sweep-scoped storage — off-processor write-buffer rows, touched
//! flags and the register file — so the fused sweep can hand each rank
//! `&mut` its area during compute and then share all areas immutably with
//! every rank during the scatter-combine stage. Both are `Send`, so the
//! executor hands one pair per rank to [`chaos_dmsim::Backend::run_sweep`]
//! and the sweep runs on either engine — including one OS thread per rank
//! under a `PooledBackend` with `nprocs` workers — with byte-identical
//! results.
//!
//! [`run_rank`] is the compiled hot path: the once-per-sweep setup region
//! (`ops[..iter_start]`, const loads) runs first, then a linear walk of the
//! per-iteration region per iteration — pinned-slot preamble (slot CSE:
//! each distinct read-only slot loads once per iteration) followed by the
//! statements — with registers in a flat `f64` file persisted in the
//! rank's [`RankSweepArea`]. Its floating-point operation sequence is
//! *identical* to the tree-walker's ([`run_rank_interpreted`]) — post-order
//! emission preserves evaluation order, and loads never round — which is
//! what makes the byte-for-byte differential tests possible.

use super::compile::{ArrLoc, CompiledKernel, KernelBindings, Op, SlotBinding};
use crate::ast::Intrinsic;
use crate::lower::{CompiledExpr, LoopPlan};
use chaos_runtime::{LocalRef, ScatterKind};

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

/// Apply a statement's combine to a cell *inside the compute loop* (an
/// owned element or a write-buffer slot). Unlike
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

/// Everything one rank reads or writes *in place* during one compute
/// phase. Built by the executor from the loop's record and handed through
/// `Backend::run_sweep`, so the borrows are provably rank-disjoint.
pub struct RankState<'a> {
    /// The rank's iteration list (local iteration numbers, 0-based).
    pub iters: &'a [u32],
    /// Mutable shards of the written arrays, indexed like
    /// [`KernelBindings::written`].
    pub shards: Vec<&'a mut [f64]>,
    /// Shared shards of the read-only arrays, indexed like
    /// [`KernelBindings::read_only`].
    pub read_shards: Vec<&'a [f64]>,
    /// The rank's localized reference row per decomposition group, indexed
    /// like [`KernelBindings::groups`].
    pub localized: Vec<&'a [LocalRef]>,
    /// Per ghost buffer (indexed like [`KernelBindings::ghosts`]), the
    /// rank's row of the shared resident ghost region — lent, not copied —
    /// and the rank's slot re-binding map into it: ghost slot `g` is read
    /// at `row[map[g]]`.
    pub ghosts: Vec<(&'a [f64], &'a [u32])>,
}

/// The rank's *owned* sweep-scoped storage, split from [`RankState`] so the
/// fused sweep's stages can alias it stage-appropriately: during compute
/// each rank holds `&mut` its own area; during the scatter-combine stage
/// every rank reads all areas through a shared `&[RankSweepArea]` while
/// mutating only its [`RankState`] shards. Rows are indexed like the
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
    /// The VM's register file, persisted across sweeps so steady-state
    /// iterations are allocation-free (lazily grown to the kernel's
    /// `nregs`).
    pub regs: Vec<f64>,
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

    /// Grow the register file to at least `nregs` slots (no-op in steady
    /// state).
    fn ensure_regs(&mut self, nregs: usize) {
        if self.regs.len() < nregs {
            self.regs.resize(nregs, 0.0);
        }
    }
}

impl RankState<'_> {
    /// The localized reference of `slot` at the rank's `iter_pos`-th
    /// iteration.
    #[inline]
    fn slot_ref(&self, sb: &SlotBinding, iter_pos: usize) -> LocalRef {
        self.localized[sb.group as usize][iter_pos * sb.stride as usize + sb.pos as usize]
    }

    /// Read the value of `slot` at the rank's `iter_pos`-th iteration.
    #[inline]
    fn read_slot(&self, sb: &SlotBinding, iter_pos: usize) -> f64 {
        match self.slot_ref(sb, iter_pos) {
            LocalRef::Owned(off) => match sb.arr {
                ArrLoc::Written(w) => self.shards[w as usize][off as usize],
                ArrLoc::ReadOnly(r) => self.read_shards[r as usize][off as usize],
            },
            LocalRef::Ghost(g) => {
                debug_assert_ne!(sb.ghost, super::compile::NO_GHOST, "write-only slot read");
                let (row, map) = self.ghosts[sb.ghost as usize];
                row[map[g as usize] as usize]
            }
        }
    }

    /// Combine `v` into `slot`'s target cell: the rank's own shard when the
    /// element is owned, the statement's write buffer when it is not.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn write_slot(
        &mut self,
        sb: &SlotBinding,
        iter_pos: usize,
        wb: usize,
        kind: ScatterKind,
        v: f64,
        contrib: &mut [Vec<f64>],
        touched: &mut [bool],
    ) {
        match self.slot_ref(sb, iter_pos) {
            LocalRef::Owned(off) => {
                let ArrLoc::Written(w) = sb.arr else {
                    unreachable!("store target bound to a read-only array")
                };
                combine_in_loop(kind, &mut self.shards[w as usize][off as usize], v);
            }
            LocalRef::Ghost(g) => {
                touched[wb] = true;
                combine_in_loop(kind, &mut contrib[wb][g as usize], v);
            }
        }
    }
}

/// Execute the compiled kernel over the rank's iterations: the executor's
/// compute phase on the bytecode hot path. The setup region runs once (its
/// const loads persist in the area's register file), then the per-iteration
/// region is walked as zipped slices (one linear pass, no per-operand
/// bounds checks) per iteration.
pub fn run_rank(
    kernel: &CompiledKernel,
    bindings: &KernelBindings,
    st: &mut RankState<'_>,
    area: &mut RankSweepArea,
) {
    area.reset_write_buffers(bindings);
    area.ensure_regs(kernel.nregs.max(1) as usize);
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
        regs[d as usize] = kernel.consts[x as usize];
    }
    for iter_pos in 0..st.iters.len() {
        let instrs = kernel.ops[kernel.iter_start..]
            .iter()
            .zip(&kernel.dst[kernel.iter_start..])
            .zip(&kernel.a[kernel.iter_start..])
            .zip(&kernel.b[kernel.iter_start..]);
        for (((&op, &d), &x), &y) in instrs {
            let (d, x, y) = (d as usize, x as usize, y as usize);
            match op {
                Op::LoadConst => regs[d] = kernel.consts[x],
                Op::LoadSlot => regs[d] = st.read_slot(&slots[x], iter_pos),
                Op::Add => regs[d] = regs[x] + regs[y],
                Op::Sub => regs[d] = regs[x] - regs[y],
                Op::Mul => regs[d] = regs[x] * regs[y],
                Op::Div => regs[d] = regs[x] / regs[y],
                Op::Sqrt => regs[d] = regs[x].sqrt(),
                Op::Abs => regs[d] = regs[x].abs(),
                Op::Eflux1 => regs[d] = eflux(regs[x], regs[y]).0,
                Op::Eflux2 => regs[d] = eflux(regs[x], regs[y]).1,
                Op::StoreAssign => st.write_slot(
                    &slots[d],
                    iter_pos,
                    y,
                    ScatterKind::Store,
                    regs[x],
                    contrib,
                    touched,
                ),
                Op::StoreAdd => st.write_slot(
                    &slots[d],
                    iter_pos,
                    y,
                    ScatterKind::Add,
                    regs[x],
                    contrib,
                    touched,
                ),
                Op::StoreMax => st.write_slot(
                    &slots[d],
                    iter_pos,
                    y,
                    ScatterKind::Max,
                    regs[x],
                    contrib,
                    touched,
                ),
                Op::StoreMin => st.write_slot(
                    &slots[d],
                    iter_pos,
                    y,
                    ScatterKind::Min,
                    regs[x],
                    contrib,
                    touched,
                ),
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
    fn resolve(&self, st: &RankState<'_>, sid: usize, iter_pos: usize) -> LocalRef {
        let (pos, stride) = self.slot_pos[sid];
        st.localized[self.slot_group[sid]][iter_pos * stride as usize + pos as usize]
    }

    /// The seed's `read_slot`: resolve, then fetch the value through the
    /// hoisted array / ghost tables.
    fn read_slot(&self, st: &RankState<'_>, sid: usize, iter_pos: usize) -> f64 {
        match self.resolve(st, sid, iter_pos) {
            LocalRef::Owned(off) => match self.slot_arr[sid] {
                ArrLoc::Written(w) => st.shards[w as usize][off as usize],
                ArrLoc::ReadOnly(r) => st.read_shards[r as usize][off as usize],
            },
            LocalRef::Ghost(g) => {
                let (row, map) = st.ghosts[self.slot_ghost[sid]];
                row[map[g as usize] as usize]
            }
        }
    }
}

/// Recursive tree-walking evaluation of one expression — the retained
/// per-element interpreter the VM is checked against (and measured against
/// by `perf_check`'s compiled-vs-interpreted gate). Intrinsic calls collect their arguments
/// into a fresh vector, as the seed interpreter did.
fn eval_tree(e: &CompiledExpr, env: &OracleEnv, st: &RankState<'_>, iter_pos: usize) -> f64 {
    match e {
        CompiledExpr::Lit(v) => *v,
        CompiledExpr::Slot(s) => env.read_slot(st, *s, iter_pos),
        CompiledExpr::Binary { op, lhs, rhs } => {
            let a = eval_tree(lhs, env, st, iter_pos);
            let b = eval_tree(rhs, env, st, iter_pos);
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
                .map(|arg| eval_tree(arg, env, st, iter_pos))
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
pub fn run_rank_interpreted(
    plan: &LoopPlan,
    bindings: &KernelBindings,
    st: &mut RankState<'_>,
    area: &mut RankSweepArea,
) {
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
    for iter_pos in 0..st.iters.len() {
        for (stmt, &(target, kind, wb)) in plan.stmts.iter().zip(&stmt_ops) {
            let v = eval_tree(stmt.value(), &env, st, iter_pos);
            // The write applies through the target's resolved location.
            let lr = env.resolve(st, target, iter_pos);
            match lr {
                LocalRef::Owned(off) => {
                    let ArrLoc::Written(w) = env.slot_arr[target] else {
                        unreachable!("store target bound to a read-only array")
                    };
                    combine_in_loop(kind, &mut st.shards[w as usize][off as usize], v);
                }
                LocalRef::Ghost(g) => {
                    touched[wb as usize] = true;
                    combine_in_loop(kind, &mut contrib[wb as usize][g as usize], v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::compile::{compile_kernel, GroupSpec};
    use crate::lower::lower_program;
    use crate::parser::parse_program;

    /// Drive both executors over a tiny synthetic single-rank state and
    /// compare every written bit.
    #[test]
    fn vm_and_tree_walker_agree_on_a_synthetic_rank() {
        let src = r#"
            REAL*8 x(n), y(n)
            INTEGER ia(m)
            DECOMPOSITION reg(n), reg2(m)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            ALIGN x, y WITH reg
            ALIGN ia WITH reg2
            FORALL i = 1, m
              REDUCE(ADD, y(ia(i)), SQRT(ABS(x(ia(i)) * 3.0 - 1.0)))
              y(ia(i)) = y(ia(i)) / 2.0
            END FORALL
        "#;
        let cp = lower_program(parse_program(src).unwrap()).unwrap();
        let plan = &cp.plans["L1"];
        let groups = vec![GroupSpec {
            decomp: "reg".to_string(),
            slot_ids: (0..plan.slots.len()).collect(),
        }];
        let bindings = KernelBindings::bind(plan, &groups).unwrap();
        let kernel = compile_kernel(plan, &bindings).unwrap();
        // Both x and y are read, so each gets a ghost buffer (sorted order).
        assert_eq!(bindings.ghosts.len(), 2);

        // One rank, 3 iterations: refs 0 and 2 owned, ref 1 a ghost.
        let localized = [
            LocalRef::Owned(0),
            LocalRef::Owned(0),
            LocalRef::Ghost(0),
            LocalRef::Ghost(0),
            LocalRef::Owned(1),
            LocalRef::Owned(1),
        ];
        let run = |use_vm: bool| -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<bool>) {
            let mut y = vec![1.0, 2.0];
            let x = vec![0.5, -0.25];
            let nwb = bindings.write_bufs.len();
            let mut area = RankSweepArea {
                contrib: (0..nwb).map(|_| vec![0.0; 1]).collect(),
                touched: vec![false; nwb],
                regs: Vec::new(),
            };
            {
                let mut st = RankState {
                    iters: &[0, 1, 2],
                    shards: vec![&mut y],
                    read_shards: vec![&x],
                    localized: vec![&localized],
                    // The resident region rows (x's, then y's), lent.
                    ghosts: vec![(&[1.5], &[0]), (&[-0.75], &[0])],
                };
                if use_vm {
                    run_rank(&kernel, &bindings, &mut st, &mut area);
                } else {
                    run_rank_interpreted(plan, &bindings, &mut st, &mut area);
                }
            }
            (y, x, area.contrib.concat(), area.touched)
        };
        let a = run(true);
        let b = run(false);
        for (u, v) in a.0.iter().zip(&b.0) {
            assert_eq!(u.to_bits(), v.to_bits(), "owned writes diverged");
        }
        for (u, v) in a.2.iter().zip(&b.2) {
            assert_eq!(u.to_bits(), v.to_bits(), "write buffers diverged");
        }
        assert_eq!(a.3, b.3, "touched flags diverged");
        assert!(a.3.iter().any(|&t| t), "the ghost write marks its buffer");
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
