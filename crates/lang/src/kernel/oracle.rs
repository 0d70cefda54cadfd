//! The tree-walking interpreter the kernel VM is differentially checked
//! against — a test-only oracle, compiled under `cfg(test)` or the `oracle`
//! feature (which the root package's dev-dependency enables), so no release
//! build carries a second compute path.
//!
//! It executes a loop body one value at a time by walking the plan's
//! [`CompiledExpr`] trees, reading through the same [`SweepView`] and
//! writing the same shard row and [`RankSweepArea`] as
//! [`run_rank`](super::vm::run_rank). Its floating-point operation sequence
//! on every value, and the order in which every cell receives its
//! contributions, are the VM's by construction, so the two produce
//! byte-identical array values, modeled clocks and communication statistics
//! — `tests/kernel_equivalence.rs` and the executor's unit tests compare
//! them on both engines.

use super::compile::{ArrLoc, KernelBindings};
use super::vm::{eflux, RankSweepArea, SweepView};
use crate::ast::{BinOp, Intrinsic};
use crate::lower::{CompiledExpr, LoopPlan};
use chaos_runtime::ScatterKind;

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

/// The interpreter's per-rank name-resolution environment, built once per
/// sweep. The constructor walks name-keyed maps (decomposition-name group
/// map, array-name location map, `(decomposition, array)` ghost map) rather
/// than reading the positions [`KernelBindings::slots`] already resolved, so
/// the two executors resolve through genuinely different paths and a binding
/// bug cannot cancel out of the differential tests; the per-read path then
/// indexes the resolved per-slot tables.
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

    /// The localized reference of a slot, through the group table.
    fn resolve(&self, at: &RankAt<'_>, sid: usize, iter_pos: usize) -> u32 {
        let (pos, stride) = self.slot_pos[sid];
        let row = at.view.localized(self.slot_group[sid] as u16, at.rank);
        row[iter_pos * stride as usize + pos as usize]
    }

    /// Resolve a slot, then fetch its value through the array / ghost
    /// tables.
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

/// Recursive tree-walking evaluation of one expression. Intrinsic calls
/// collect their arguments into a fresh vector.
fn eval_tree(e: &CompiledExpr, env: &OracleEnv, at: &RankAt<'_>, iter_pos: usize) -> f64 {
    match e {
        CompiledExpr::Lit(v) => *v,
        CompiledExpr::Slot(s) => env.read_slot(at, *s, iter_pos),
        CompiledExpr::Binary { op, lhs, rhs } => {
            let a = eval_tree(lhs, env, at, iter_pos);
            let b = eval_tree(rhs, env, at, iter_pos);
            match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
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

/// Execute the loop body over the rank's iterations by walking the
/// `CompiledExpr` trees per element, statement by statement: the
/// statements' targets, combine kinds and write buffers are resolved once
/// per sweep, and each read resolves its array and ghost buffer through
/// [`OracleEnv`].
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
