//! Semantic analysis, and the statement walk that lowers each `FORALL`.
//!
//! The analyzer enforces the assumptions the paper states up front
//! (Section 1): irregular accesses appear inside `FORALL` loops, the only
//! loop-carried dependences are left-hand-side reductions, and irregular
//! references use a *single* level of indirection through a distributed
//! integer array indexed directly by the loop variable.
//!
//! `analyze_program` walks the statements once in source order. It checks
//! each directive against the declarations, alignments and GeoCoLs before
//! it, and lowers each `FORALL` where it stands ([`crate::lower`]); lowering
//! calls back `check_ref` for every distinct reference it gives a slot and
//! `check_one_decomposition` over the loop's slots, so the first error a
//! program reports is the first bad statement or reference in source order.

use crate::ast::*;
use crate::error::LangError;
use crate::lower::{lower_loop, LoopPlan, RefSlot};
use std::collections::{BTreeMap, BTreeSet};

/// What is known about one declared array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    /// Element type.
    pub ty: ElemType,
    /// The decomposition the array is aligned with (if any).
    pub decomp: Option<String>,
}

/// Result of analysing a program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProgramInfo {
    /// Declared arrays.
    pub arrays: BTreeMap<String, ArrayInfo>,
    /// Declared decompositions and their size expressions.
    pub decomps: BTreeMap<String, SizeExpr>,
}

impl ProgramInfo {
    /// Look up an array, failing with a semantic error if undeclared.
    pub fn array(&self, name: &str) -> Result<&ArrayInfo, LangError> {
        self.arrays
            .get(name)
            .ok_or_else(|| LangError::semantic(format!("array '{name}' is not declared")))
    }
}

/// Analyse a parsed program, lowering each `FORALL` where it stands: the
/// declarations and alignments, plus one [`LoopPlan`] per loop keyed by
/// label.
pub(crate) fn analyze_program(
    program: &Program,
) -> Result<(ProgramInfo, BTreeMap<String, LoopPlan>), LangError> {
    let mut info = ProgramInfo::default();
    let mut plans = BTreeMap::new();
    let mut distfmts: BTreeSet<String> = BTreeSet::new();
    let mut geocols: BTreeSet<String> = BTreeSet::new();

    for stmt in &program.stmts {
        match stmt {
            Stmt::Declare { ty, arrays } => {
                for (name, _) in arrays {
                    if info.arrays.contains_key(name) {
                        return Err(LangError::semantic(format!(
                            "array '{name}' declared twice"
                        )));
                    }
                    info.arrays.insert(
                        name.clone(),
                        ArrayInfo {
                            ty: *ty,
                            decomp: None,
                        },
                    );
                }
            }
            Stmt::Decomposition { decomps, .. } => {
                for (name, size) in decomps {
                    info.decomps.insert(name.clone(), size.clone());
                }
            }
            Stmt::Distribute { decomp, format } => {
                if !info.decomps.contains_key(decomp) {
                    return Err(LangError::semantic(format!(
                        "DISTRIBUTE references undeclared decomposition '{decomp}'"
                    )));
                }
                let fmt = format.to_ascii_uppercase();
                if fmt != "BLOCK" && fmt != "CYCLIC" && !info.arrays.contains_key(format) {
                    // distributing by a map array / distfmt defined later is
                    // only valid through REDISTRIBUTE; initial DISTRIBUTE
                    // must be regular or reference a declared map array.
                    return Err(LangError::semantic(format!(
                        "DISTRIBUTE format '{format}' is neither BLOCK, CYCLIC nor a declared map array"
                    )));
                }
            }
            Stmt::Align { arrays, decomp } => {
                if !info.decomps.contains_key(decomp) {
                    return Err(LangError::semantic(format!(
                        "ALIGN references undeclared decomposition '{decomp}'"
                    )));
                }
                for a in arrays {
                    let entry = info.arrays.get_mut(a).ok_or_else(|| {
                        LangError::semantic(format!("ALIGN of undeclared array '{a}'"))
                    })?;
                    entry.decomp = Some(decomp.clone());
                }
            }
            Stmt::ReadData { arrays } => {
                for a in arrays {
                    info.array(a)?;
                }
            }
            Stmt::Construct { name, sections, .. } => {
                geocols.insert(name.clone());
                for s in sections {
                    match s {
                        ConstructSection::Geometry(axes) => {
                            for a in axes {
                                let ai = info.array(a)?;
                                if ai.ty != ElemType::Real {
                                    return Err(LangError::semantic(format!(
                                        "GEOMETRY coordinate array '{a}' must be REAL"
                                    )));
                                }
                            }
                        }
                        ConstructSection::Load(w) => {
                            info.array(w)?;
                        }
                        ConstructSection::Link { list1, list2, .. } => {
                            for a in [list1, list2] {
                                let ai = info.array(a)?;
                                if ai.ty != ElemType::Integer {
                                    return Err(LangError::semantic(format!(
                                        "LINK endpoint array '{a}' must be INTEGER"
                                    )));
                                }
                            }
                        }
                    }
                }
            }
            Stmt::SetPartition {
                distfmt, geocol, ..
            } => {
                if !geocols.contains(geocol) {
                    return Err(LangError::semantic(format!(
                        "SET references GeoCoL '{geocol}' before any CONSTRUCT defines it"
                    )));
                }
                distfmts.insert(distfmt.clone());
            }
            Stmt::Redistribute { decomp, distfmt } => {
                if !info.decomps.contains_key(decomp) {
                    return Err(LangError::semantic(format!(
                        "REDISTRIBUTE references undeclared decomposition '{decomp}'"
                    )));
                }
                if !distfmts.contains(distfmt) {
                    return Err(LangError::semantic(format!(
                        "REDISTRIBUTE uses '{distfmt}' before a SET ... BY PARTITIONING defines it"
                    )));
                }
            }
            Stmt::Forall {
                label,
                lo,
                hi,
                body,
                ..
            } => {
                plans.insert(label.clone(), lower_loop(&info, label, lo, hi, body)?);
            }
        }
    }

    Ok((info, plans))
}

/// Check one distinct reference of loop `label`: a REAL data array ALIGNed
/// with a decomposition, indexed by the loop variable or through an
/// ALIGNed INTEGER indirection array.
pub(crate) fn check_ref(info: &ProgramInfo, label: &str, r: &RefSlot) -> Result<(), LangError> {
    let ai = info.array(&r.array)?;
    if ai.ty != ElemType::Real {
        return Err(LangError::semantic(format!(
            "array '{}' referenced as data in loop {label} must be REAL",
            r.array
        )));
    }
    if ai.decomp.is_none() {
        return Err(LangError::semantic(format!(
            "array '{}' used in loop {label} is not ALIGNed with any decomposition",
            r.array
        )));
    }
    if let Index::Indirect(ind) = &r.index {
        let ii = info.array(ind)?;
        if ii.ty != ElemType::Integer {
            return Err(LangError::semantic(format!(
                "indirection array '{ind}' in loop {label} must be INTEGER"
            )));
        }
        if ii.decomp.is_none() {
            return Err(LangError::semantic(format!(
                "indirection array '{ind}' in loop {label} is not ALIGNed"
            )));
        }
    }
    Ok(())
}

/// All data arrays loop `label` references through indirection must share
/// one decomposition — the restriction under which a single inspector per
/// loop suffices, matching the paper's templates (x and y are aligned to
/// the same decomposition). `slots` have passed [`check_ref`].
pub(crate) fn check_one_decomposition(
    info: &ProgramInfo,
    label: &str,
    slots: &[RefSlot],
) -> Result<(), LangError> {
    let indirect_decomps = slots
        .iter()
        .filter(|r| matches!(r.index, Index::Indirect(_)))
        .filter_map(|r| info.arrays.get(&r.array)?.decomp.as_deref());
    mixed_decompositions(label, indirect_decomps).map_or(Ok(()), |m| Err(LangError::semantic(m)))
}

/// The message for loop `label` when `decomps`, those of the arrays it
/// references through indirection, name more than one decomposition. The
/// front end ([`check_one_decomposition`]) and the executor, which meets
/// the case when a later ALIGN has moved one of the loop's arrays, say the
/// same words.
pub(crate) fn mixed_decompositions<'a>(
    label: &str,
    decomps: impl IntoIterator<Item = &'a str>,
) -> Option<String> {
    let decomps: BTreeSet<&str> = decomps.into_iter().collect();
    (decomps.len() > 1).then(|| {
        format!(
            "loop {label} indirectly references arrays on different decompositions \
             ({decomps:?}); this reproduction requires them to share one"
        )
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
    fn analyzes_edge_loop() {
        let p = parse_program(EDGE_LOOP).unwrap();
        let (info, plans) = analyze_program(&p).unwrap();
        assert_eq!(info.arrays.len(), 4);
        assert_eq!(info.decomps.len(), 2);
        let l = &plans["L1"];
        assert_eq!(l.indirection_arrays, vec!["end_pt1", "end_pt2"]);
        assert_eq!(l.data_arrays, vec!["x", "y"]);
        assert_eq!(l.written_arrays, vec!["y"]);
        assert_eq!(l.indirection_arrays, vec!["end_pt1", "end_pt2"]);
        assert_eq!(info.array("x").unwrap().decomp.as_deref(), Some("reg"));
    }

    #[test]
    fn regular_loop_is_not_irregular() {
        let src = r#"
            REAL*8 x(n), y(n)
            DECOMPOSITION reg(n)
            DISTRIBUTE reg(BLOCK)
            ALIGN x, y WITH reg
            FORALL i = 1, n
              y(i) = x(i) * 2.0
            END FORALL
        "#;
        let (_, plans) = analyze_program(&parse_program(src).unwrap()).unwrap();
        let l = &plans["L1"];
        assert!(l.indirection_arrays.is_empty());
    }

    #[test]
    fn rejects_undeclared_array_in_loop() {
        let src = "FORALL i = 1, n\n y(i) = 1.0\nEND FORALL";
        let err = analyze_program(&parse_program(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("not declared"));
    }

    #[test]
    fn rejects_unaligned_data_array() {
        let src = r#"
            REAL*8 y(n)
            DECOMPOSITION reg(n)
            FORALL i = 1, n
              y(i) = 1.0
            END FORALL
        "#;
        let err = analyze_program(&parse_program(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("ALIGN"));
    }

    #[test]
    fn rejects_integer_data_array() {
        let src = r#"
            INTEGER y(n)
            DECOMPOSITION reg(n)
            DISTRIBUTE reg(BLOCK)
            ALIGN y WITH reg
            FORALL i = 1, n
              y(i) = 1.0
            END FORALL
        "#;
        let err = analyze_program(&parse_program(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("must be REAL"));
    }

    #[test]
    fn rejects_real_indirection_array() {
        let src = r#"
            REAL*8 x(n), ia(m)
            DECOMPOSITION reg(n), reg2(m)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            ALIGN x WITH reg
            ALIGN ia WITH reg2
            FORALL i = 1, m
              x(ia(i)) = 1.0
            END FORALL
        "#;
        let err = analyze_program(&parse_program(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("must be INTEGER"));
    }

    #[test]
    fn rejects_redistribute_before_set() {
        let src = r#"
            REAL*8 x(n)
            DECOMPOSITION reg(n)
            DISTRIBUTE reg(BLOCK)
            ALIGN x WITH reg
            REDISTRIBUTE reg(distfmt)
        "#;
        let err = analyze_program(&parse_program(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("before a SET"));
    }

    #[test]
    fn rejects_mixed_decomposition_indirection() {
        let src = r#"
            REAL*8 x(n), z(m)
            INTEGER ia(k), ib(k)
            DECOMPOSITION reg(n), reg3(m), reg2(k)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            DISTRIBUTE reg3(BLOCK)
            ALIGN x WITH reg
            ALIGN z WITH reg3
            ALIGN ia, ib WITH reg2
            FORALL i = 1, k
              REDUCE(ADD, x(ia(i)), z(ib(i)))
            END FORALL
        "#;
        let err = analyze_program(&parse_program(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("different decompositions"));
    }

    #[test]
    fn figure4_construct_sections_are_checked() {
        let src = r#"
            REAL*8 x(nnode)
            INTEGER end_pt1(nedge), end_pt2(nedge)
            DECOMPOSITION reg(nnode), reg2(nedge)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            ALIGN x WITH reg
            ALIGN end_pt1, end_pt2 WITH reg2
C$          CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$          SET distfmt BY PARTITIONING G USING RSB
C$          REDISTRIBUTE reg(distfmt)
        "#;
        assert!(analyze_program(&parse_program(src).unwrap()).is_ok());
        // Swapping in a REAL array as a LINK endpoint must fail.
        let bad = src.replace(
            "INTEGER end_pt1(nedge), end_pt2(nedge)",
            "REAL*8 end_pt1(nedge), end_pt2(nedge)",
        );
        let err = analyze_program(&parse_program(&bad).unwrap()).unwrap_err();
        assert!(err.to_string().contains("must be INTEGER"));
    }
}
