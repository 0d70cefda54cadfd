//! Runtime compilation: lowering `FORALL` loops to inspector/executor plans.
//!
//! This is the transformation sketched in the paper's Figure 6: for every
//! irregular loop the compiler emits (a) code that builds the loop's access
//! pattern from its indirection arrays, (b) a guarded inspector call (the
//! guard is the schedule-reuse check of Section 3), and (c) an executor that
//! runs gather → local compute → scatter-reduction. Here the "emitted code"
//! is a [`LoopPlan`]: a compact, pre-resolved form of the loop body in which
//! every distinct array reference has been assigned a *slot*, so the
//! executor's inner loop does no name lookups. The reference summary the
//! inspector and the reuse guard need — data, written and indirection
//! arrays — is derived from those slots.
//!
//! Lowering is the `FORALL` step of [`crate::analyze`]'s statement walk:
//! each loop is lowered where it stands, and the reference checks run on
//! the slots as lowering creates them.

use crate::analyze::{analyze_program, check_one_decomposition, check_ref, ProgramInfo};
use crate::ast::*;
use crate::error::LangError;
use chaos_runtime::LoopId;
use std::collections::{BTreeMap, BTreeSet};

/// One distinct array reference form appearing in a loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefSlot {
    /// The data array referenced.
    pub array: String,
    /// How it is indexed.
    pub index: Index,
}

/// A loop-body expression with array references resolved to slot ids.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    /// Literal.
    Lit(f64),
    /// Value of slot `.0` at the current iteration.
    Slot(usize),
    /// Binary arithmetic.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<CompiledExpr>,
        /// Right operand.
        rhs: Box<CompiledExpr>,
    },
    /// Intrinsic call.
    Call {
        /// The intrinsic.
        intrinsic: Intrinsic,
        /// Arguments.
        args: Vec<CompiledExpr>,
    },
}

/// A loop-body statement with references resolved to slots.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledStmt {
    /// `slot := expr`.
    Assign {
        /// Target slot.
        target: usize,
        /// Value.
        value: CompiledExpr,
    },
    /// `slot op= expr`.
    Reduce {
        /// Reduction operator.
        op: ReduceOp,
        /// Target slot.
        target: usize,
        /// Contribution.
        value: CompiledExpr,
    },
}

/// The lowered form of one `FORALL` loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopPlan {
    /// Loop label.
    pub label: String,
    /// The label's interned [`LoopId`], minted here once: the index of the
    /// loop's record in the executor's table and in the reuse registry.
    pub id: LoopId,
    /// Loop lower bound (1-based inclusive).
    pub lo: SizeExpr,
    /// Loop upper bound (1-based inclusive).
    pub hi: SizeExpr,
    /// Distinct reference slots in first-appearance order.
    pub slots: Vec<RefSlot>,
    /// Compiled body.
    pub stmts: Vec<CompiledStmt>,
    /// REAL data arrays referenced (sorted): the arrays of `slots`.
    pub data_arrays: Vec<String>,
    /// REAL data arrays written (sorted): the arrays of the statements'
    /// target slots.
    pub written_arrays: Vec<String>,
    /// INTEGER indirection arrays (sorted): those `slots` index through.
    pub indirection_arrays: Vec<String>,
    /// Estimated compute units per iteration (charged to the machine by the
    /// executor): a few units per slot access plus per arithmetic node.
    pub ops_per_iteration: f64,
}

impl CompiledStmt {
    /// The slot the statement writes.
    pub fn target(&self) -> usize {
        match self {
            CompiledStmt::Assign { target, .. } | CompiledStmt::Reduce { target, .. } => *target,
        }
    }

    /// The statement's value expression.
    pub fn value(&self) -> &CompiledExpr {
        match self {
            CompiledStmt::Assign { value, .. } | CompiledStmt::Reduce { value, .. } => value,
        }
    }

    /// How off-processor writes of this statement combine at the owner: an
    /// assignment is a last-writer-wins store, a reduction maps to its
    /// operator.
    pub fn scatter_kind(&self) -> chaos_runtime::ScatterKind {
        use chaos_runtime::ScatterKind;
        match self {
            CompiledStmt::Assign { .. } => ScatterKind::Store,
            CompiledStmt::Reduce { op, .. } => match op {
                ReduceOp::Add => ScatterKind::Add,
                ReduceOp::Max => ScatterKind::Max,
                ReduceOp::Min => ScatterKind::Min,
            },
        }
    }
}

/// True when `slot` appears anywhere inside `e`.
fn expr_uses(e: &CompiledExpr, slot: usize) -> bool {
    match e {
        CompiledExpr::Lit(_) => false,
        CompiledExpr::Slot(s) => *s == slot,
        CompiledExpr::Binary { lhs, rhs, .. } => expr_uses(lhs, slot) || expr_uses(rhs, slot),
        CompiledExpr::Call { args, .. } => args.iter().any(|a| expr_uses(a, slot)),
    }
}

impl LoopPlan {
    /// `mask[slot]` is true when the slot is *read* — it appears in some
    /// statement's value expression (as opposed to write-only targets).
    /// Read slots are the ones whose arrays the executor must gather.
    pub fn read_slot_mask(&self) -> Vec<bool> {
        (0..self.slots.len())
            .map(|i| self.stmts.iter().any(|s| expr_uses(s.value(), i)))
            .collect()
    }
}

/// A lowered program: the original statements (directives are interpreted
/// directly) plus one [`LoopPlan`] per `FORALL`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The parsed program.
    pub program: Program,
    /// Analysis results.
    pub info: ProgramInfo,
    /// Plans keyed by loop label.
    pub plans: BTreeMap<String, LoopPlan>,
}

/// Analyse and lower a parsed program.
pub fn lower_program(program: Program) -> Result<CompiledProgram, LangError> {
    let (info, plans) = analyze_program(&program)?;
    Ok(CompiledProgram {
        program,
        info,
        plans,
    })
}

/// The slot of reference `r`, appending one on its first appearance.
fn slot_of(slots: &mut Vec<RefSlot>, r: &ArrayRef) -> usize {
    match slots
        .iter()
        .position(|s| s.array == r.array && s.index == r.index)
    {
        Some(i) => i,
        None => {
            slots.push(RefSlot {
                array: r.array.clone(),
                index: r.index.clone(),
            });
            slots.len() - 1
        }
    }
}

fn lower_expr(e: &Expr, slots: &mut Vec<RefSlot>, ops: &mut f64) -> CompiledExpr {
    match e {
        Expr::Lit(v) => CompiledExpr::Lit(*v),
        Expr::Ref(r) => {
            *ops += 2.0;
            CompiledExpr::Slot(slot_of(slots, r))
        }
        Expr::Binary { op, lhs, rhs } => {
            *ops += 1.0;
            CompiledExpr::Binary {
                op: *op,
                lhs: Box::new(lower_expr(lhs, slots, ops)),
                rhs: Box::new(lower_expr(rhs, slots, ops)),
            }
        }
        Expr::Call { intrinsic, args } => {
            *ops += 4.0;
            CompiledExpr::Call {
                intrinsic: *intrinsic,
                args: args.iter().map(|a| lower_expr(a, slots, ops)).collect(),
            }
        }
    }
}

/// The distinct `names`, sorted.
fn sorted<'a>(names: impl Iterator<Item = &'a String>) -> Vec<String> {
    names
        .collect::<BTreeSet<_>>()
        .into_iter()
        .cloned()
        .collect()
}

/// Lower loop `label` against the declarations and alignments `info` holds
/// at its place in the program.
pub(crate) fn lower_loop(
    info: &ProgramInfo,
    label: &str,
    lo: &SizeExpr,
    hi: &SizeExpr,
    body: &[LoopStmt],
) -> Result<LoopPlan, LangError> {
    let mut slots: Vec<RefSlot> = Vec::new();
    let mut stmts = Vec::with_capacity(body.len());
    let mut ops_per_iteration = 0.0;
    for s in body {
        let before = slots.len();
        let (LoopStmt::Assign { target, value } | LoopStmt::Reduce { target, value, .. }) = s;
        let value = lower_expr(value, &mut slots, &mut ops_per_iteration);
        let target = slot_of(&mut slots, target);
        let stmt = match s {
            LoopStmt::Assign { .. } => {
                ops_per_iteration += 2.0;
                CompiledStmt::Assign { target, value }
            }
            LoopStmt::Reduce { op, .. } => {
                ops_per_iteration += 3.0;
                CompiledStmt::Reduce {
                    op: *op,
                    target,
                    value,
                }
            }
        };
        // Check the references this statement slotted first, in source
        // order: the target, then the value's in order of appearance.
        let fresh = before..slots.len();
        let value_refs = fresh.clone().filter(|&i| i != target);
        let first = fresh.contains(&target).then_some(target);
        for i in first.into_iter().chain(value_refs) {
            check_ref(info, label, &slots[i])?;
        }
        stmts.push(stmt);
    }
    check_one_decomposition(info, label, &slots)?;

    let indirection_arrays = sorted(slots.iter().filter_map(|s| match &s.index {
        Index::Indirect(ind) => Some(ind),
        Index::LoopVar => None,
    }));
    Ok(LoopPlan {
        label: label.to_string(),
        id: LoopId::new(label),
        lo: lo.clone(),
        hi: hi.clone(),
        data_arrays: sorted(slots.iter().map(|s| &s.array)),
        written_arrays: sorted(stmts.iter().map(|s| &slots[s.target()].array)),
        indirection_arrays,
        slots,
        stmts,
        ops_per_iteration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn lowering_deduplicates_slots() {
        let cp = lower_program(parse_program(EDGE_LOOP).unwrap()).unwrap();
        let plan = &cp.plans["L1"];
        // Distinct slots: x(end_pt1), x(end_pt2), y(end_pt1), y(end_pt2).
        assert_eq!(plan.slots.len(), 4);
        assert_eq!(plan.indirection_arrays, vec!["end_pt1", "end_pt2"]);
        assert_eq!(plan.stmts.len(), 2);
        assert_eq!(plan.written_arrays, vec!["y"]);
        assert!(plan.ops_per_iteration > 0.0);
        // The two statements must write *different* slots (y via end_pt1 and
        // y via end_pt2).
        match (&plan.stmts[0], &plan.stmts[1]) {
            (CompiledStmt::Reduce { target: t1, .. }, CompiledStmt::Reduce { target: t2, .. }) => {
                assert_ne!(t1, t2)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn regular_loop_plan_has_loopvar_slots() {
        let src = r#"
            REAL*8 x(n), y(n)
            DECOMPOSITION reg(n)
            DISTRIBUTE reg(BLOCK)
            ALIGN x, y WITH reg
            FORALL i = 1, n
              y(i) = x(i) * 2.0 + 1.0
            END FORALL
        "#;
        let cp = lower_program(parse_program(src).unwrap()).unwrap();
        let plan = &cp.plans["L1"];
        assert!(plan.indirection_arrays.is_empty());
        assert_eq!(plan.slots.len(), 2);
        assert!(plan.slots.iter().all(|s| s.index == Index::LoopVar));
    }

    #[test]
    fn plans_are_keyed_by_label_in_order() {
        let src = r#"
            REAL*8 x(n), y(n)
            DECOMPOSITION reg(n)
            DISTRIBUTE reg(BLOCK)
            ALIGN x, y WITH reg
            FORALL i = 1, n
              y(i) = x(i)
            END FORALL
            FORALL i = 1, n
              x(i) = y(i)
            END FORALL
        "#;
        let cp = lower_program(parse_program(src).unwrap()).unwrap();
        assert_eq!(cp.plans.len(), 2);
        assert!(cp.plans.contains_key("L1") && cp.plans.contains_key("L2"));
        assert_eq!(cp.plans["L1"].written_arrays, vec!["y"]);
        assert_eq!(cp.plans["L2"].written_arrays, vec!["x"]);
    }

    #[test]
    fn lowering_propagates_semantic_errors() {
        let src = "FORALL i = 1, n\n y(i) = 1.0\nEND FORALL";
        assert!(lower_program(parse_program(src).unwrap()).is_err());
    }
}
