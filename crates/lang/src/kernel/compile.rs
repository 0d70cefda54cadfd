//! Lowering FORALL bodies from [`CompiledExpr`] trees to flat register
//! bytecode.
//!
//! The compiler runs once per (loop, inspector run): [`KernelBindings::bind`]
//! binds every slot of the [`LoopPlan`] against the inspector's group layout
//! (which decomposition group the slot's localized references live in, which
//! ghost buffer serves its reads, which write buffer collects its
//! off-processor writes) and [`compile_kernel`] flattens the statement trees
//! into a linear instruction stream over a small register file. The result
//! is a [`CompiledKernel`] the
//! [`KernelVm`](crate::kernel::vm) executes as a rank-local compute kernel —
//! no name lookups, no tree recursion, no per-element allocation.
//!
//! # Bytecode layout
//!
//! Instructions live in a struct-of-arrays arena: four parallel vectors
//! `ops` / `dst` / `a` / `b` (opcode, destination register, operands), plus
//! a deduplicated `consts` pool and the table of store `runs`.
//!
//! The VM executes the per-iteration region one *block* of
//! [`CompiledKernel::width`] iterations at a time, each op over the whole
//! block, so a register is a column of [`BLOCK`] `f64` lanes (512 B) and a
//! register file is `nregs × 512` B per rank, whatever the loop length.
//!
//! The register file is split into three banks. Registers `0..nconsts`
//! hold the body's literal pool, broadcast by a *setup region*
//! (`ops[..iter_start]`) the VM runs once per rank per sweep. Registers
//! `nconsts..nconsts+npinned` pin the body's common subexpressions: every
//! distinct slot the body reads whose array is never written is loaded
//! exactly once per block by a preamble at the head of the per-iteration
//! region, and all its uses read the pinned register (slot CSE). Slots of
//! *written* arrays are excluded: a store earlier in the iteration may
//! change what a later read observes, so their loads stay in source
//! position. Scratch registers sit above both banks and are allocated
//! stack-style during post-order emission — an expression of depth *d* uses
//! scratch registers `0..=d` — and since loads never round, evaluation order
//! (and therefore every floating-point rounding) is identical to the
//! tree-walking interpreter's.
//!
//! # Stores, and the block width
//!
//! A store is one `Store` op naming a [`StoreRun`]: the targets of one
//! write buffer — one written array, one combine — each with the register
//! column holding its values. The VM executes a run *iteration-major* over
//! the block (every target of iteration `i` before any of `i + 1`, in
//! statement order), with the shard, the write-buffer row and the combine
//! resolved once per block instead of once per value.
//!
//! Where the `Store` ops sit is the compiler's decision, and it decides the
//! width:
//!
//! * **width [`BLOCK`], stores in a tail.** When no statement reads an
//!   array the body writes and every written array has a single write
//!   buffer, the per-iteration region is all of the body's arithmetic
//!   (`ops[iter_start..tail_start]`), each statement's value kept in a
//!   register of its own, followed by the *store tail*
//!   (`ops[tail_start..]`): one run per written array. Runs touch disjoint
//!   arrays and buffers, and inside a run the order is the source's, so
//!   every cell accumulates its contributions in exactly the order the
//!   tree-walker applies them — bit-identity is kept while loads,
//!   arithmetic and stores each stream over 64 iterations.
//! * **width 1, stores in stream.** A body that reads an array it writes
//!   carries a dependence from one iteration's store to the next one's
//!   load, and a body that writes one array through two write buffers
//!   (`y(ia(i)) = …` then `REDUCE(MAX, y(ia(i)), …)`) orders two combines
//!   on one owned cell; deferring either would reorder them. Such a body is
//!   compiled with each statement's `Store` (a one-target run) in source
//!   position and a block of one iteration: the same ops through the same
//!   VM loop, lanes beyond the first never computed.
//!
//! | op         | dst         | a          | b               |
//! |------------|-------------|------------|-----------------|
//! | `LoadConst`| register    | const idx  | —               |
//! | `LoadSlot` | register    | slot id    | —               |
//! | binary ops | register    | lhs reg    | rhs reg         |
//! | unary ops  | register    | arg reg    | —               |
//! | `Eflux1/2` | register    | arg-1 reg  | arg-2 reg       |
//! | `Store`    | —           | run id     | —               |

use crate::ast::{BinOp, Index, Intrinsic};
use crate::lower::{CompiledExpr, CompiledStmt, LoopPlan};
use chaos_runtime::ScatterKind;

/// Sentinel for "this slot is never read, it has no ghost buffer".
pub const NO_GHOST: u32 = u32::MAX;

/// Iterations per block of a kernel whose stores sit in the tail, and the
/// number of lanes in a register column.
pub const BLOCK: usize = 64;

/// One decomposition group of a loop's inspector state: the group's
/// decomposition name, the plan slots that index it, and the layout of its
/// localized rows — one column per *distinct index expression* among those
/// slots, interleaved per iteration. Slots of one group that index through
/// the same expression (`x(e1(i))` and `y(e1(i))`) name the same element of
/// the same distribution, so they share a column: the edge loop localizes 2
/// references per iteration, not 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    /// Decomposition name (the executor's group key).
    pub decomp: String,
    /// Plan slot ids in the group, in first-appearance order.
    pub slot_ids: Vec<usize>,
    /// The column of each slot (parallel to `slot_ids`), columns numbered
    /// in first-appearance order of their index expression.
    pub cols: Vec<u32>,
    /// Columns per iteration: the localized row stride.
    pub ncols: u32,
}

impl GroupSpec {
    /// Lay out the columns of the group `slot_ids` of `plan` form.
    pub fn new(plan: &LoopPlan, decomp: String, slot_ids: Vec<usize>) -> Self {
        let mut distinct: Vec<&Index> = Vec::new();
        let cols = slot_ids
            .iter()
            .map(|&sid| {
                let index = &plan.slots[sid].index;
                let col = distinct.iter().position(|seen| *seen == index);
                col.unwrap_or_else(|| {
                    distinct.push(index);
                    distinct.len() - 1
                }) as u32
            })
            .collect();
        GroupSpec {
            decomp,
            slot_ids,
            cols,
            ncols: distinct.len() as u32,
        }
    }
}

/// How a slot's array is lent to a sweep: mutably, as one of the written
/// arrays, or shared read-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrLoc {
    /// Index into [`KernelBindings::written`].
    Written(u16),
    /// Index into [`KernelBindings::read_only`].
    ReadOnly(u16),
}

/// Everything the VM needs to resolve one slot at one iteration, computed
/// once at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotBinding {
    /// Dense index of the slot's decomposition group.
    pub group: u16,
    /// The slot's column in its group's localized row ([`GroupSpec::cols`]).
    pub pos: u32,
    /// Columns in the group's row ([`GroupSpec::ncols`], the row stride).
    pub stride: u32,
    /// Where the slot's array lives during the sweep.
    pub arr: ArrLoc,
    /// Ghost buffer holding the slot's off-processor reads ([`NO_GHOST`]
    /// when the slot is write-only).
    pub ghost: u32,
}

/// One gathered ghost buffer: group `group`'s schedule moves array `array`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GhostBinding {
    /// Dense group index.
    pub group: u16,
    /// The array gathered through the group's schedule.
    pub array: String,
}

/// One off-processor write buffer: contributions of kind `kind` to `array`,
/// scattered through group `group`'s schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBinding {
    /// Dense group index.
    pub group: u16,
    /// The array the contributions are scattered into.
    pub array: String,
    /// Index of `array` in [`KernelBindings::written`].
    pub written: u16,
    /// The combine applied at the owners.
    pub kind: ScatterKind,
}

/// The sweep-state schema of one loop: which arrays are written (lent
/// mutably, shard by shard, to the rank-parallel state) vs read-only, how
/// each slot resolves, which ghost buffers to gather and which write
/// buffers to scatter — everything resolved against the CSR schedules at
/// compile time so the per-element hot path does no name lookups.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBindings {
    /// Decomposition groups, in the executor's (name-sorted) group order.
    pub groups: Vec<GroupSpec>,
    /// Arrays the body writes (sorted; lent mutably to the sweep).
    pub written: Vec<String>,
    /// Arrays the body only reads (sorted; borrowed shared).
    pub read_only: Vec<String>,
    /// Per-slot resolution data, indexed by plan slot id.
    pub slots: Vec<SlotBinding>,
    /// Ghost buffers to gather before the compute phase, in gather order.
    pub ghosts: Vec<GhostBinding>,
    /// Write buffers to scatter after the compute phase, in statement
    /// first-appearance order.
    pub write_bufs: Vec<WriteBinding>,
}

impl KernelBindings {
    /// Bind a plan against the inspector's group layout. Fails when the plan
    /// exceeds the bytecode's index widths or references a slot outside the
    /// layout (both indicate a bug upstream, but the error is graceful).
    pub fn bind(plan: &LoopPlan, groups: &[GroupSpec]) -> Result<Self, String> {
        if plan.slots.len() > u16::MAX as usize {
            return Err(format!("loop '{}' has too many slots", plan.label));
        }
        let written = plan.written_arrays.clone();
        let read_mask = plan.read_slot_mask();
        let mut read_only: Vec<String> = plan
            .data_arrays
            .iter()
            .filter(|a| !written.contains(a))
            .cloned()
            .collect();
        read_only.sort();
        let arr_loc = |array: &str| -> Result<ArrLoc, String> {
            if let Some(w) = written.iter().position(|a| a == array) {
                Ok(ArrLoc::Written(w as u16))
            } else if let Some(r) = read_only.iter().position(|a| a == array) {
                Ok(ArrLoc::ReadOnly(r as u16))
            } else {
                Err(format!("array '{array}' missing from the plan's arrays"))
            }
        };

        // Slot → (group, pos, stride).
        let mut placement: Vec<Option<(u16, u32, u32)>> = vec![None; plan.slots.len()];
        for (g, spec) in groups.iter().enumerate() {
            for (&sid, &col) in spec.slot_ids.iter().zip(&spec.cols) {
                placement[sid] = Some((g as u16, col, spec.ncols));
            }
        }

        // Ghost buffers: per group (group order), the group's read arrays in
        // sorted order — exactly the executor's historical gather order.
        let mut ghosts: Vec<GhostBinding> = Vec::new();
        for (g, spec) in groups.iter().enumerate() {
            let mut arrays: Vec<&String> = spec
                .slot_ids
                .iter()
                .map(|&sid| &plan.slots[sid].array)
                .filter(|a| {
                    plan.slots
                        .iter()
                        .enumerate()
                        .any(|(i, s)| read_mask[i] && s.array == **a)
                })
                .collect();
            arrays.sort();
            arrays.dedup();
            for a in arrays {
                ghosts.push(GhostBinding {
                    group: g as u16,
                    array: a.clone(),
                });
            }
        }

        let mut slots = Vec::with_capacity(plan.slots.len());
        for (i, slot) in plan.slots.iter().enumerate() {
            let (group, pos, stride) =
                placement[i].ok_or_else(|| format!("slot {i} missing from the group layout"))?;
            let ghost = if read_mask[i] {
                ghosts
                    .iter()
                    .position(|gb| gb.group == group && gb.array == slot.array)
                    .map(|x| x as u32)
                    .ok_or_else(|| format!("read slot {i} has no ghost buffer"))?
            } else {
                NO_GHOST
            };
            slots.push(SlotBinding {
                group,
                pos,
                stride,
                arr: arr_loc(&slot.array)?,
                ghost,
            });
        }

        // Write buffers in statement first-appearance order (the
        // deterministic scatter order both executor paths share).
        let mut write_bufs: Vec<WriteBinding> = Vec::new();
        for stmt in &plan.stmts {
            let target = stmt.target();
            let kind = stmt.scatter_kind();
            let sb = &slots[target];
            let array = &plan.slots[target].array;
            let exists = write_bufs
                .iter()
                .any(|wb| wb.group == sb.group && wb.array == *array && wb.kind == kind);
            if !exists {
                let ArrLoc::Written(w) = sb.arr else {
                    return Err(format!("target array '{array}' is not in the written set"));
                };
                write_bufs.push(WriteBinding {
                    group: sb.group,
                    array: array.clone(),
                    written: w,
                    kind,
                });
            }
        }
        if write_bufs.len() > u16::MAX as usize {
            return Err(format!("loop '{}' has too many write buffers", plan.label));
        }

        Ok(KernelBindings {
            groups: groups.to_vec(),
            written,
            read_only,
            slots,
            ghosts,
            write_bufs,
        })
    }

    /// The write-buffer id a statement's off-processor writes land in.
    pub fn write_buf_of(&self, stmt: &CompiledStmt, plan: &LoopPlan) -> u16 {
        let target = stmt.target();
        let kind = stmt.scatter_kind();
        let sb = &self.slots[target];
        let array = &plan.slots[target].array;
        self.write_bufs
            .iter()
            .position(|wb| wb.group == sb.group && wb.array == *array && wb.kind == kind)
            .expect("write buffer bound for every statement") as u16
    }
}

/// One target of a [`StoreRun`]: the column of the run's localized row that
/// names the cell, and the register column that holds the values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreTarget {
    /// The target slot's column ([`SlotBinding::pos`]).
    pub pos: u32,
    /// The register holding the statement's value.
    pub src: u16,
}

/// The stores into one write buffer — one written array, one combine —
/// that one `Store` op executes iteration-major over a block. Everything
/// the VM would otherwise resolve per value (which shard, which buffer row,
/// which operator, which column) is resolved here, once per inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreRun {
    /// Dense group index of the written array (whose localized row holds
    /// the targets' columns).
    pub group: u16,
    /// Index of the array in [`KernelBindings::written`].
    pub written: u16,
    /// The write buffer ([`KernelBindings::write_bufs`]) off-processor
    /// targets land in.
    pub wb: u16,
    /// The combine applied to every target of the run.
    pub kind: ScatterKind,
    /// The group's row stride.
    pub stride: u32,
    /// The targets, in statement order.
    pub targets: Vec<StoreTarget>,
}

/// Opcodes of the kernel bytecode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// `reg[dst] = consts[a]`.
    LoadConst,
    /// `reg[dst] = value of slot a at the current iteration`.
    LoadSlot,
    /// `reg[dst] = reg[a] + reg[b]`.
    Add,
    /// `reg[dst] = reg[a] - reg[b]`.
    Sub,
    /// `reg[dst] = reg[a] * reg[b]`.
    Mul,
    /// `reg[dst] = reg[a] / reg[b]`.
    Div,
    /// `reg[dst] = sqrt(reg[a])`.
    Sqrt,
    /// `reg[dst] = abs(reg[a])`.
    Abs,
    /// `reg[dst] = eflux(reg[a], reg[b]).0`.
    Eflux1,
    /// `reg[dst] = eflux(reg[a], reg[b]).1`.
    Eflux2,
    /// Execute store run `a`: combine each target's register into its cell
    /// (the owned element, or the run's write buffer when off-processor).
    Store,
}

/// A compiled loop body: the flat instruction arena over the slots and
/// buffers of the [`KernelBindings`] it was compiled against.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// Opcodes (struct-of-arrays with `dst` / `a` / `b`).
    pub ops: Vec<Op>,
    /// Destination register, per instruction.
    pub dst: Vec<u16>,
    /// First operand (register, slot id, const index or run id), per
    /// instruction.
    pub a: Vec<u16>,
    /// Second operand (register), per instruction.
    pub b: Vec<u16>,
    /// Deduplicated literal pool.
    pub consts: Vec<f64>,
    /// The store runs the `Store` ops name.
    pub runs: Vec<StoreRun>,
    /// Register-file size, in columns of [`BLOCK`] lanes.
    pub nregs: u16,
    /// First instruction of the per-iteration region: `ops[..iter_start]`
    /// is the setup region (const loads) the VM runs once per rank per
    /// sweep; `ops[iter_start..]` (pinned-slot preamble + statements) runs
    /// once per block.
    pub iter_start: usize,
    /// First instruction of the store tail: `ops[tail_start..]` is one
    /// `Store` per written array. Empty (`tail_start == len()`) when the
    /// stores are in stream.
    pub tail_start: usize,
    /// Iterations per block: [`BLOCK`] with the stores in the tail, 1 with
    /// the stores in stream.
    pub width: usize,
}

struct Emitter {
    ops: Vec<Op>,
    dst: Vec<u16>,
    a: Vec<u16>,
    b: Vec<u16>,
    consts: Vec<f64>,
    nregs: u16,
    /// First scratch register: consts and pinned slots sit below it.
    scratch_base: u16,
    /// Pinned slots (slot id → pinned register), first-encounter order.
    pinned: Vec<(usize, u16)>,
}

impl Emitter {
    fn push(&mut self, op: Op, dst: u16, a: u16, b: u16) {
        self.ops.push(op);
        self.dst.push(dst);
        self.a.push(a);
        self.b.push(b);
    }

    /// Register of literal `v` — also its index in the (pre-scanned, fully
    /// populated) const pool, since consts occupy registers `0..nconsts`.
    fn const_reg(&self, v: f64) -> u16 {
        let bits = v.to_bits();
        self.consts
            .iter()
            .position(|c| c.to_bits() == bits)
            .expect("pre-scan visited every literal") as u16
    }

    fn reg(&mut self, depth: usize) -> Result<u16, String> {
        let r = u16::try_from(depth)
            .ok()
            .and_then(|d| d.checked_add(self.scratch_base))
            .ok_or_else(|| "expression too deep".to_string())?;
        self.nregs = self.nregs.max(r + 1);
        Ok(r)
    }

    /// Post-order emission: the expression's value lands in scratch
    /// register `scratch_base + depth` — except literals and pinned slots,
    /// which resolve to their dedicated registers without emitting an
    /// instruction. Left-to-right operand order matches the tree-walker's
    /// evaluation order exactly, and loads never round, so the elision
    /// cannot change any floating-point result.
    fn emit_expr(&mut self, e: &CompiledExpr, depth: usize) -> Result<u16, String> {
        match e {
            CompiledExpr::Lit(v) => Ok(self.const_reg(*v)),
            CompiledExpr::Slot(s) => {
                if let Some(&(_, r)) = self.pinned.iter().find(|(sid, _)| sid == s) {
                    return Ok(r);
                }
                let dst = self.reg(depth)?;
                let slot = u16::try_from(*s).map_err(|_| "slot id overflow".to_string())?;
                self.push(Op::LoadSlot, dst, slot, 0);
                Ok(dst)
            }
            CompiledExpr::Binary { op, lhs, rhs } => {
                let dst = self.reg(depth)?;
                let a = self.emit_expr(lhs, depth)?;
                let b = self.emit_expr(rhs, depth + 1)?;
                let opcode = match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                };
                self.push(opcode, dst, a, b);
                Ok(dst)
            }
            CompiledExpr::Call { intrinsic, args } => {
                let dst = self.reg(depth)?;
                let mut regs = Vec::with_capacity(args.len());
                for (i, arg) in args.iter().enumerate() {
                    regs.push(self.emit_expr(arg, depth + i)?);
                }
                let opcode = match intrinsic {
                    Intrinsic::Eflux1 => Op::Eflux1,
                    Intrinsic::Eflux2 => Op::Eflux2,
                    Intrinsic::Sqrt => Op::Sqrt,
                    Intrinsic::Abs => Op::Abs,
                };
                // The parser checked the arity; a unary op ignores `b`.
                let b = regs.get(1).copied().unwrap_or(0);
                self.push(opcode, dst, regs[0], b);
                Ok(dst)
            }
        }
    }
}

/// Pre-scan one expression in the emitter's exact DFS order, collecting the
/// literal pool (bit-pattern deduplicated, first-encounter order — the same
/// pool the per-use emission historically built) and the pinnable slots:
/// reads whose array is never written by the body, so an iteration's
/// earlier stores cannot change what the load observes.
fn prescan(
    e: &CompiledExpr,
    bindings: &KernelBindings,
    consts: &mut Vec<f64>,
    pinned: &mut Vec<usize>,
) {
    match e {
        CompiledExpr::Lit(v) => {
            let bits = v.to_bits();
            if !consts.iter().any(|c| c.to_bits() == bits) {
                consts.push(*v);
            }
        }
        CompiledExpr::Slot(s) => {
            if matches!(bindings.slots[*s].arr, ArrLoc::ReadOnly(_)) && !pinned.contains(s) {
                pinned.push(*s);
            }
        }
        CompiledExpr::Binary { lhs, rhs, .. } => {
            prescan(lhs, bindings, consts, pinned);
            prescan(rhs, bindings, consts, pinned);
        }
        CompiledExpr::Call { args, .. } => {
            for arg in args {
                prescan(arg, bindings, consts, pinned);
            }
        }
    }
}

/// Compile a loop body against its bindings: pre-scan the statements for the
/// const pool and the pinnable slots, then flatten the statements into the
/// bytecode arena — a once-per-sweep const-load setup region followed by the
/// per-iteration region (pinned-slot preamble, then the statements), with
/// the stores in a tail at width [`BLOCK`] or in stream at width 1 (see the
/// [module docs](self)).
pub fn compile_kernel(
    plan: &LoopPlan,
    bindings: &KernelBindings,
) -> Result<CompiledKernel, String> {
    let mut consts = Vec::new();
    let mut pinned_slots = Vec::new();
    for stmt in &plan.stmts {
        prescan(stmt.value(), bindings, &mut consts, &mut pinned_slots);
    }
    let nconsts = u16::try_from(consts.len()).map_err(|_| "constant pool overflow".to_string())?;
    let scratch_base = u16::try_from(consts.len() + pinned_slots.len())
        .map_err(|_| "register file overflow".to_string())?;
    let mut e = Emitter {
        ops: Vec::new(),
        dst: Vec::new(),
        a: Vec::new(),
        b: Vec::new(),
        consts,
        nregs: scratch_base,
        scratch_base,
        pinned: Vec::with_capacity(pinned_slots.len()),
    };
    // Setup region: load the const pool into its register bank once per
    // rank per sweep.
    for c in 0..nconsts {
        e.push(Op::LoadConst, c, c, 0);
    }
    let iter_start = e.ops.len();
    // Per-iteration preamble: pin each read-only slot into its register.
    for (j, &s) in pinned_slots.iter().enumerate() {
        let r = nconsts + j as u16;
        let slot = u16::try_from(s).map_err(|_| "slot id overflow".to_string())?;
        e.push(Op::LoadSlot, r, slot, 0);
        e.pinned.push((s, r));
    }

    // Stores may wait for the end of the block only if no load can observe
    // one (a read slot of a written array has a ghost buffer *and* a written
    // location) and no array is combined into through two buffers.
    let reads_written = bindings
        .slots
        .iter()
        .any(|sb| sb.ghost != NO_GHOST && matches!(sb.arr, ArrLoc::Written(_)));
    let bufs = &bindings.write_bufs;
    let split_array =
        (1..bufs.len()).any(|i| bufs[..i].iter().any(|b| b.written == bufs[i].written));
    let deferred = !(reads_written || split_array);

    // In the tail a write buffer's stores are one run; in stream every store
    // is a run of its own, executed where the statement stands.
    let mut runs: Vec<StoreRun> = Vec::new();
    for stmt in &plan.stmts {
        let src = e.emit_expr(stmt.value(), 0)?;
        let wb = bindings.write_buf_of(stmt, plan);
        let run = runs.iter().position(|r| deferred && r.wb == wb);
        let run = run.unwrap_or_else(|| {
            let binding = &bufs[wb as usize];
            runs.push(StoreRun {
                group: binding.group,
                written: binding.written,
                wb,
                kind: binding.kind,
                stride: bindings.groups[binding.group as usize].ncols,
                targets: Vec::new(),
            });
            runs.len() - 1
        });
        let pos = bindings.slots[stmt.target()].pos;
        runs[run].targets.push(StoreTarget { pos, src });
        if !deferred {
            let run = u16::try_from(run).map_err(|_| "too many stores".to_string())?;
            e.push(Op::Store, 0, run, 0);
        } else if src >= e.scratch_base {
            // The value must survive to the tail: later statements start
            // their scratch stack above it.
            e.scratch_base = src + 1;
        }
    }
    let tail_start = e.ops.len();
    if deferred {
        for run in 0..runs.len() as u16 {
            e.push(Op::Store, 0, run, 0);
        }
    }
    Ok(CompiledKernel {
        ops: e.ops,
        dst: e.dst,
        a: e.a,
        b: e.b,
        consts: e.consts,
        runs,
        nregs: e.nregs,
        iter_start,
        tail_start,
        width: if deferred { BLOCK } else { 1 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use crate::parser::parse_program;

    const EDGE_LOOP: &str = r#"
        REAL*8 x(nnode), y(nnode)
        INTEGER end_pt1(nedge), end_pt2(nedge)
        DECOMPOSITION reg(nnode), reg2(nedge)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y WITH reg
        ALIGN end_pt1, end_pt2 WITH reg2
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
          REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
        END FORALL
    "#;

    /// The plan of `src`'s first loop, every slot in one group on "reg".
    fn one_group(src: &str) -> (LoopPlan, Vec<GroupSpec>) {
        let plan = lower_program(parse_program(src).unwrap()).unwrap().plans["L1"].clone();
        let slot_ids = (0..plan.slots.len()).collect();
        let groups = vec![GroupSpec::new(&plan, "reg".to_string(), slot_ids)];
        (plan, groups)
    }

    fn compiled(src: &str) -> (KernelBindings, CompiledKernel) {
        let (plan, groups) = one_group(src);
        let b = KernelBindings::bind(&plan, &groups).unwrap();
        let k = compile_kernel(&plan, &b).unwrap();
        (b, k)
    }

    #[test]
    fn bindings_resolve_slots_and_buffers() {
        let (plan, groups) = one_group(EDGE_LOOP);
        let b = KernelBindings::bind(&plan, &groups).unwrap();
        assert_eq!(b.written, vec!["y"]);
        assert_eq!(b.read_only, vec!["x"]);
        // x is gathered (read), y is not (write-only targets).
        assert_eq!(b.ghosts.len(), 1);
        assert_eq!(b.ghosts[0].array, "x");
        // Two REDUCE(ADD, y, ...) statements share one write buffer.
        assert_eq!(b.write_bufs.len(), 1);
        assert_eq!(b.write_bufs[0].kind, ScatterKind::Add);
        assert_eq!(b.write_bufs[0].array, "y");
        // Four slots, two distinct index expressions: x(end_pt1) and
        // y(end_pt1) share column 0, x(end_pt2) and y(end_pt2) column 1.
        assert_eq!(plan.slots.len(), 4);
        assert_eq!(groups[0].ncols, 2);
        for (sb, slot) in b.slots.iter().zip(&plan.slots) {
            assert_eq!(sb.group, 0);
            assert_eq!(sb.stride, 2);
            let through_pt1 = slot.index == Index::Indirect("end_pt1".to_string());
            assert_eq!(sb.pos, if through_pt1 { 0 } else { 1 });
            // The x slots read through the ghost buffer; the y slots do not.
            if slot.array == "x" {
                assert_eq!((sb.ghost, sb.arr), (0, ArrLoc::ReadOnly(0)));
            } else {
                assert_eq!((sb.ghost, sb.arr), (NO_GHOST, ArrLoc::Written(0)));
            }
        }
    }

    #[test]
    fn columns_follow_distinct_index_expressions_per_group() {
        // Three slots with unequal multiplicity: e1 indexes two arrays, e2
        // one, and the directly indexed w is a column of its own.
        let src = r#"
            REAL*8 x(n), y(n), z(n), w(n)
            INTEGER e1(m), e2(m)
            DECOMPOSITION reg(n), reg2(m)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            ALIGN x, y, z, w WITH reg
            ALIGN e1, e2 WITH reg2
            FORALL i = 1, m
              REDUCE(ADD, y(e2(i)), x(e1(i)) * w(i))
              REDUCE(ADD, z(e1(i)), x(e1(i)))
            END FORALL
        "#;
        let (plan, groups) = one_group(src);
        // Slots in first-appearance order: x(e1), w(i), y(e2), z(e1).
        let arrays: Vec<&str> = plan.slots.iter().map(|s| s.array.as_str()).collect();
        assert_eq!(arrays, ["x", "w", "y", "z"]);
        assert_eq!(groups[0].cols, vec![0, 1, 2, 0]);
        assert_eq!(groups[0].ncols, 3);
    }

    #[test]
    fn bytecode_shape_of_the_edge_loop() {
        let (b, k) = compiled(EDGE_LOOP);
        // Compute ops, then the store tail. Slot CSE pins the two x reads
        // once per block; both EFLUX statements read the pinned registers;
        // the two stores, into one write buffer, are one run.
        assert!(!k.ops.is_empty());
        assert_eq!(
            k.ops,
            vec![
                Op::LoadSlot, // pin x(end_pt1) → r0
                Op::LoadSlot, // pin x(end_pt2) → r1
                Op::Eflux1,   // → r2
                Op::Eflux2,   // → r3
                Op::Store,    // run 0: y(end_pt1) += r2, y(end_pt2) += r3
            ]
        );
        // No literals → no setup region; the stores are the tail, so the
        // block is full width.
        assert_eq!((k.iter_start, k.tail_start, k.width), (0, 4, BLOCK));
        assert!(k.consts.is_empty());
        // Each statement's value waits for the tail in a register of its
        // own: 2 pinned + 2 values, 4 × 512 B per rank.
        assert_eq!(k.nregs, 4);
        assert_eq!((k.a[2], k.b[2], k.dst[2]), (0, 1, 2));
        assert_eq!((k.a[3], k.b[3], k.dst[3]), (0, 1, 3));
        assert_eq!(
            k.runs,
            vec![StoreRun {
                group: 0,
                written: 0,
                wb: 0,
                kind: ScatterKind::Add,
                stride: 2,
                targets: vec![
                    StoreTarget { pos: 0, src: 2 },
                    StoreTarget { pos: 1, src: 3 },
                ],
            }]
        );
        assert_eq!(k.a[4], 0, "the Store names run 0");
        assert_eq!(b.write_bufs.len(), k.runs.len());
        // SoA arenas stay parallel.
        assert_eq!(k.dst.len(), k.ops.len());
        assert_eq!(k.a.len(), k.ops.len());
        assert_eq!(k.b.len(), k.ops.len());
    }

    #[test]
    fn constants_are_deduplicated() {
        let src = r#"
            REAL*8 x(n), y(n)
            DECOMPOSITION reg(n)
            DISTRIBUTE reg(BLOCK)
            ALIGN x, y WITH reg
            FORALL i = 1, n
              y(i) = x(i) * 2.0 + 2.0
            END FORALL
        "#;
        let (_, k) = compiled(src);
        // The two uses of 2.0 share one pool entry, broadcast into r0 by the
        // once-per-sweep setup region.
        assert_eq!(k.consts, vec![2.0]);
        assert_eq!(k.iter_start, 1);
        assert_eq!(k.ops[0], Op::LoadConst);
        // Per block: pin x → r1, then Mul / Add in scratch r2, then the tail.
        assert_eq!(k.ops[1..], [Op::LoadSlot, Op::Mul, Op::Add, Op::Store]);
        assert_eq!((k.ops.len(), k.tail_start, k.width), (5, 4, BLOCK));
        assert_eq!(k.nregs, 3);
        // Both arithmetic ops read the shared const register r0.
        assert_eq!((k.a[2], k.b[2], k.dst[2]), (1, 0, 2));
        assert_eq!((k.a[3], k.b[3], k.dst[3]), (2, 0, 2));
        assert_eq!(k.runs[0].kind, ScatterKind::Store);
        assert_eq!(k.runs[0].targets, vec![StoreTarget { pos: 0, src: 2 }]);
    }

    const TWO_KINDS: &str = r#"
        REAL*8 x(n), y(n)
        INTEGER ia(m)
        DECOMPOSITION reg(n), reg2(m)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y WITH reg
        ALIGN ia WITH reg2
        FORALL i = 1, m
          y(ia(i)) = x(ia(i))
          REDUCE(MAX, y(ia(i)), x(ia(i)) * 0.5)
        END FORALL
    "#;

    #[test]
    fn mixed_store_kinds_get_separate_write_buffers() {
        let (b, _) = compiled(TWO_KINDS);
        assert_eq!(b.write_bufs.len(), 2);
        assert_eq!(b.write_bufs[0].kind, ScatterKind::Store);
        assert_eq!(b.write_bufs[1].kind, ScatterKind::Max);
    }

    #[test]
    fn one_array_through_two_write_buffers_keeps_its_stores_in_stream() {
        // The assignment and the MAX meet on one owned cell: run after run
        // over a block would apply every assignment first. Width 1, each
        // store a one-target run where the statement stands, no tail.
        let (_, k) = compiled(TWO_KINDS);
        assert_eq!(
            k.ops[k.iter_start..],
            [Op::LoadSlot, Op::Store, Op::Mul, Op::Store]
        );
        assert_eq!((k.width, k.tail_start), (1, k.ops.len()));
        let kinds: Vec<_> = k
            .runs
            .iter()
            .map(|r| (r.wb, r.kind, r.targets.len()))
            .collect();
        assert_eq!(
            kinds,
            [(0, ScatterKind::Store, 1), (1, ScatterKind::Max, 1)]
        );
        // In stream a value is stored before the next statement starts, so
        // statements share scratch registers.
        assert_eq!(k.nregs, 3);
    }

    #[test]
    fn reading_a_written_array_keeps_its_stores_in_stream() {
        let src = r#"
            REAL*8 x(n), y(n)
            INTEGER ia(m)
            DECOMPOSITION reg(n), reg2(m)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            ALIGN x, y WITH reg
            ALIGN ia WITH reg2
            FORALL i = 1, m
              REDUCE(ADD, y(ia(i)), x(ia(i)))
              y(ia(i)) = y(ia(i)) / 2.0
            END FORALL
        "#;
        let (b, k) = compiled(src);
        // y is read, so it is gathered too and its load stays in source
        // position, after the store it must observe.
        assert_eq!(b.ghosts.len(), 2);
        assert_eq!(
            k.ops[k.iter_start..],
            [Op::LoadSlot, Op::Store, Op::LoadSlot, Op::Div, Op::Store]
        );
        assert_eq!((k.width, k.tail_start), (1, k.ops.len()));
    }

    #[test]
    fn two_written_arrays_are_two_runs_of_the_tail() {
        let src = r#"
            REAL*8 x(n), y(n), z(n)
            INTEGER ia(m), ib(m)
            DECOMPOSITION reg(n), reg2(m)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            ALIGN x, y, z WITH reg
            ALIGN ia, ib WITH reg2
            FORALL i = 1, m
              REDUCE(ADD, y(ia(i)), x(ia(i)) + 1.0)
              REDUCE(MAX, z(ib(i)), x(ib(i)) + 1.0)
              REDUCE(ADD, y(ib(i)), x(ib(i)))
            END FORALL
        "#;
        let (_, k) = compiled(src);
        assert_eq!(k.width, BLOCK);
        assert_eq!(k.ops[k.tail_start..], [Op::Store, Op::Store]);
        // r0 = 1.0, r1 / r2 pinned; statements 1 and 2 keep r3 and r4,
        // statement 3 stores a pinned register as it is.
        let targets = |r: usize| -> Vec<(u32, u16)> {
            k.runs[r].targets.iter().map(|t| (t.pos, t.src)).collect()
        };
        assert_eq!((k.runs[0].written, k.runs[0].kind), (0, ScatterKind::Add));
        assert_eq!(targets(0), [(0, 3), (1, 2)]);
        assert_eq!((k.runs[1].written, k.runs[1].kind), (1, ScatterKind::Max));
        assert_eq!(targets(1), [(1, 4)]);
        assert_eq!(k.nregs, 5);
    }
}
