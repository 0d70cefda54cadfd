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
//! a deduplicated `consts` pool.
//!
//! The register file is split into three banks. Registers `0..nconsts`
//! hold the body's literal pool, loaded by a *setup region*
//! (`ops[..iter_start]`) the VM runs once per rank per sweep. Registers
//! `nconsts..nconsts+npinned` pin the body's common subexpressions: every
//! distinct slot the body reads whose array is never written is loaded
//! exactly once per iteration by a preamble at the head of the
//! per-iteration region, and all its uses read the pinned register (slot
//! CSE — the classic `LoadSlot` re-resolution cost drops from one per use
//! to one per iteration). Slots of *written* arrays are excluded: a store
//! earlier in the iteration may change what a later read observes, so
//! their loads stay in source position. Scratch registers sit above both
//! banks and are allocated stack-style during post-order emission — an
//! expression of depth *d* uses scratch registers `0..=d` — and since
//! loads never round, evaluation order (and therefore every
//! floating-point rounding) is identical to the tree-walking
//! interpreter's.
//!
//! | op         | dst         | a          | b               |
//! |------------|-------------|------------|-----------------|
//! | `LoadConst`| register    | const idx  | —               |
//! | `LoadSlot` | register    | slot id    | —               |
//! | binary ops | register    | lhs reg    | rhs reg         |
//! | unary ops  | register    | arg reg    | —               |
//! | `Eflux1/2` | register    | arg-1 reg  | arg-2 reg       |
//! | `Store*`   | target slot | value reg  | write-buffer id |

use crate::ast::Intrinsic;
use crate::lower::{CompiledExpr, CompiledStmt, LoopPlan};
use chaos_runtime::ScatterKind;

/// Sentinel for "this slot is never read, it has no ghost buffer".
pub const NO_GHOST: u32 = u32::MAX;

/// One decomposition group of a loop's inspector state: the group's
/// decomposition name and the plan slots localized together in it (the
/// inspector's `localized` rows interleave these slots per iteration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    /// Decomposition name (the executor's group key).
    pub decomp: String,
    /// Plan slot ids in the group, in localization order.
    pub slot_ids: Vec<usize>,
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
    /// Position of the slot inside its group's localization row.
    pub pos: u32,
    /// Number of slots in the group (the localization row stride).
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
            let stride = spec.slot_ids.len() as u32;
            for (pos, &sid) in spec.slot_ids.iter().enumerate() {
                placement[sid] = Some((g as u16, pos as u32, stride));
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

/// Opcodes of the kernel bytecode. The `Store*` family carries the combine
/// in the opcode, so the VM never re-derives an operator per statement.
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
    /// Assign `reg[a]` to slot `dst` (write buffer `b` when off-processor).
    StoreAssign,
    /// Accumulate `reg[a]` into slot `dst` with `+`.
    StoreAdd,
    /// Accumulate `reg[a]` into slot `dst` with `max`.
    StoreMax,
    /// Accumulate `reg[a]` into slot `dst` with `min`.
    StoreMin,
}

/// A compiled loop body: the flat instruction arena over the slots and
/// buffers of the [`KernelBindings`] it was compiled against.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// Opcodes (struct-of-arrays with `dst` / `a` / `b`).
    pub ops: Vec<Op>,
    /// Destination register or target slot, per instruction.
    pub dst: Vec<u16>,
    /// First operand (register, slot id or const index), per instruction.
    pub a: Vec<u16>,
    /// Second operand (register or write-buffer id), per instruction.
    pub b: Vec<u16>,
    /// Deduplicated literal pool.
    pub consts: Vec<f64>,
    /// Register-file size.
    pub nregs: u16,
    /// First instruction of the per-iteration region: `ops[..iter_start]`
    /// is the setup region (const loads) the VM runs once per rank per
    /// sweep; `ops[iter_start..]` (pinned-slot preamble + statements) runs
    /// every iteration.
    pub iter_start: usize,
}

impl CompiledKernel {
    /// Total number of instructions, including the once-per-sweep setup
    /// region `ops[..iter_start]`.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for an empty loop body.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
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
                    '+' => Op::Add,
                    '-' => Op::Sub,
                    '*' => Op::Mul,
                    '/' => Op::Div,
                    other => return Err(format!("unknown binary operator '{other}'")),
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
                let (opcode, arity) = match intrinsic {
                    Intrinsic::Eflux1 => (Op::Eflux1, 2),
                    Intrinsic::Eflux2 => (Op::Eflux2, 2),
                    Intrinsic::Sqrt => (Op::Sqrt, 1),
                    Intrinsic::Abs => (Op::Abs, 1),
                };
                if regs.len() != arity {
                    return Err(format!(
                        "intrinsic {intrinsic:?} takes {arity} arguments, got {}",
                        regs.len()
                    ));
                }
                let b = if arity == 2 { regs[1] } else { 0 };
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
/// per-iteration region (pinned-slot preamble, then the statements).
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
    for stmt in &plan.stmts {
        let src = e.emit_expr(stmt.value(), 0)?;
        let target = u16::try_from(stmt.target()).map_err(|_| "slot id overflow".to_string())?;
        let wb = bindings.write_buf_of(stmt, plan);
        let opcode = match stmt.scatter_kind() {
            ScatterKind::Store => Op::StoreAssign,
            ScatterKind::Add => Op::StoreAdd,
            ScatterKind::Max => Op::StoreMax,
            ScatterKind::Min => Op::StoreMin,
        };
        e.push(opcode, target, src, wb);
    }
    Ok(CompiledKernel {
        ops: e.ops,
        dst: e.dst,
        a: e.a,
        b: e.b,
        consts: e.consts,
        nregs: e.nregs,
        iter_start,
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

    fn edge_plan() -> LoopPlan {
        lower_program(parse_program(EDGE_LOOP).unwrap())
            .unwrap()
            .plans["L1"]
            .clone()
    }

    fn edge_groups(plan: &LoopPlan) -> Vec<GroupSpec> {
        // All four slots reference x / y, aligned with "reg".
        vec![GroupSpec {
            decomp: "reg".to_string(),
            slot_ids: (0..plan.slots.len()).collect(),
        }]
    }

    #[test]
    fn bindings_resolve_slots_and_buffers() {
        let plan = edge_plan();
        let b = KernelBindings::bind(&plan, &edge_groups(&plan)).unwrap();
        assert_eq!(b.written, vec!["y"]);
        assert_eq!(b.read_only, vec!["x"]);
        // x is gathered (read), y is not (write-only targets).
        assert_eq!(b.ghosts.len(), 1);
        assert_eq!(b.ghosts[0].array, "x");
        // Two REDUCE(ADD, y, ...) statements share one write buffer.
        assert_eq!(b.write_bufs.len(), 1);
        assert_eq!(b.write_bufs[0].kind, ScatterKind::Add);
        assert_eq!(b.write_bufs[0].array, "y");
        for (i, sb) in b.slots.iter().enumerate() {
            assert_eq!(sb.group, 0);
            assert_eq!(sb.stride, plan.slots.len() as u32);
            assert_eq!(sb.pos, i as u32);
        }
        // The x slots read through the ghost buffer; the y slots do not.
        let xs: Vec<_> = plan
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.array == "x")
            .map(|(i, _)| i)
            .collect();
        for i in 0..plan.slots.len() {
            if xs.contains(&i) {
                assert_eq!(b.slots[i].ghost, 0);
                assert_eq!(b.slots[i].arr, ArrLoc::ReadOnly(0));
            } else {
                assert_eq!(b.slots[i].ghost, NO_GHOST);
                assert_eq!(b.slots[i].arr, ArrLoc::Written(0));
            }
        }
    }

    #[test]
    fn bytecode_shape_of_the_edge_loop() {
        let plan = edge_plan();
        let b = KernelBindings::bind(&plan, &edge_groups(&plan)).unwrap();
        let k = compile_kernel(&plan, &b).unwrap();
        // Slot CSE: the two x reads are pinned once by the per-iteration
        // preamble, then both EFLUX statements read the pinned registers —
        // 2 preamble loads + (Eflux + Store) per statement = 6 total,
        // versus 8 with per-use LoadSlots.
        assert_eq!(k.len(), 6);
        assert!(!k.is_empty());
        // No literals → no setup region; the per-iteration region is the
        // whole program.
        assert_eq!(k.iter_start, 0);
        assert!(k.consts.is_empty());
        assert_eq!(
            k.ops,
            vec![
                Op::LoadSlot, // pin x(end_pt1) → r0
                Op::LoadSlot, // pin x(end_pt2) → r1
                Op::Eflux1,
                Op::StoreAdd,
                Op::Eflux2,
                Op::StoreAdd,
            ]
        );
        // Both Eflux ops read the pinned bank and land in scratch r2.
        assert_eq!(k.nregs, 3);
        assert_eq!((k.a[2], k.b[2], k.dst[2]), (0, 1, 2));
        assert_eq!((k.a[4], k.b[4], k.dst[4]), (0, 1, 2));
        // SoA arenas stay parallel.
        assert_eq!(k.dst.len(), k.len());
        assert_eq!(k.a.len(), k.len());
        assert_eq!(k.b.len(), k.len());
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
        let cp = lower_program(parse_program(src).unwrap()).unwrap();
        let plan = &cp.plans["L1"];
        let groups = vec![GroupSpec {
            decomp: "reg".to_string(),
            slot_ids: (0..plan.slots.len()).collect(),
        }];
        let b = KernelBindings::bind(plan, &groups).unwrap();
        let k = compile_kernel(plan, &b).unwrap();
        // The two uses of 2.0 share one pool entry, loaded into r0 by the
        // once-per-sweep setup region.
        assert_eq!(k.consts, vec![2.0]);
        assert_eq!(k.iter_start, 1);
        assert_eq!(k.ops[0], Op::LoadConst);
        // Per iteration: pin x → r1, then Mul / Add in scratch r2, Store.
        assert_eq!(
            k.ops[1..],
            [Op::LoadSlot, Op::Mul, Op::Add, Op::StoreAssign]
        );
        assert_eq!(k.len(), 5);
        assert_eq!(k.nregs, 3);
        // Both arithmetic ops read the shared const register r0.
        assert_eq!((k.a[2], k.b[2], k.dst[2]), (1, 0, 2));
        assert_eq!((k.a[3], k.b[3], k.dst[3]), (2, 0, 2));
    }

    #[test]
    fn mixed_store_kinds_get_separate_write_buffers() {
        let src = r#"
            REAL*8 x(n), y(n)
            INTEGER ia(m)
            DECOMPOSITION reg(n), reg2(m)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            ALIGN x, y WITH reg
            ALIGN ia WITH reg2
            FORALL i = 1, m
              y(ia(i)) = x(ia(i))
              REDUCE(MAX, y(ia(i)), x(ia(i)))
            END FORALL
        "#;
        let cp = lower_program(parse_program(src).unwrap()).unwrap();
        let plan = &cp.plans["L1"];
        let groups = vec![GroupSpec {
            decomp: "reg".to_string(),
            slot_ids: (0..plan.slots.len()).collect(),
        }];
        let b = KernelBindings::bind(plan, &groups).unwrap();
        assert_eq!(b.write_bufs.len(), 2);
        assert_eq!(b.write_bufs[0].kind, ScatterKind::Store);
        assert_eq!(b.write_bufs[1].kind, ScatterKind::Max);
    }
}
