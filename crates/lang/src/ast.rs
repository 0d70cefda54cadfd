//! Abstract syntax of the mini-language.
//!
//! The grammar is deliberately close to the paper's figures. A program is a
//! flat list of statements; sizes (`nnode`, `nedge`, ...) are symbolic
//! scalars bound at execution time through [`crate::exec::ProgramInputs`].
//!
//! Indexing is 1-based, as in Fortran: `FORALL i = 1, nedge` iterates over
//! `1..=nedge`, and indirection-array *values* are 1-based element numbers.

/// Elemental type of a declared array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemType {
    /// `REAL*8`
    Real,
    /// `INTEGER`
    Integer,
}

/// A scalar size expression: a literal, a named scalar, or `name - literal`
/// (enough for `nedge`, `53000`, `nnode-1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SizeExpr {
    /// Literal value.
    Lit(usize),
    /// Named scalar looked up in the program inputs.
    Name(String),
    /// `Name - offset`.
    NameMinus(String, usize),
}

/// How an array is indexed inside a `FORALL` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Index {
    /// Directly by the loop variable: `x(i)`.
    LoopVar,
    /// Through one level of indirection: `x(ia(i))` — `ia` is a distributed
    /// integer array indexed by the loop variable (the only indirect form
    /// the paper's techniques handle).
    Indirect(String),
}

/// A reference to a distributed array element inside a loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayRef {
    /// Array name.
    pub array: String,
    /// Index form.
    pub index: Index,
}

/// Reduction operators allowed on the left-hand side of `REDUCE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Accumulate with `+`.
    Add,
    /// Accumulate with `max`.
    Max,
    /// Accumulate with `min`.
    Min,
}

/// Built-in scalar functions usable in loop bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrinsic {
    /// First component of the Euler edge flux (`f` in the paper's loop L2).
    Eflux1,
    /// Second component of the Euler edge flux (`g` in the paper's loop L2).
    Eflux2,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Expressions inside a loop body.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Floating-point literal.
    Lit(f64),
    /// Distributed-array element.
    Ref(ArrayRef),
    /// Binary arithmetic.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Intrinsic call.
    Call {
        /// Which intrinsic.
        intrinsic: Intrinsic,
        /// Argument list.
        args: Vec<Expr>,
    },
}

/// A statement inside a `FORALL` body.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopStmt {
    /// `target = expr` — no loop-carried dependence allowed.
    Assign {
        /// Left-hand side element.
        target: ArrayRef,
        /// Right-hand side expression.
        value: Expr,
    },
    /// `REDUCE(op, target, expr)` — the only loop-carried dependence the
    /// paper's model admits.
    Reduce {
        /// Reduction operator.
        op: ReduceOp,
        /// Accumulation target.
        target: ArrayRef,
        /// Contribution expression.
        value: Expr,
    },
}

/// A section of a `CONSTRUCT` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstructSection {
    /// `GEOMETRY(dim, xc, yc, zc)`.
    Geometry(Vec<String>),
    /// `LOAD(weight)`.
    Load(String),
    /// `LINK(E, list1, list2)`.
    Link {
        /// Number of edges.
        count: SizeExpr,
        /// First endpoint array.
        list1: String,
        /// Second endpoint array.
        list2: String,
    },
}

/// Top-level statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `REAL x(n), y(n)` / `INTEGER ia(m)`.
    Declare {
        /// Element type.
        ty: ElemType,
        /// `(name, size)` pairs.
        arrays: Vec<(String, SizeExpr)>,
    },
    /// `DECOMPOSITION reg(n)[, reg2(m) ...]`, optionally `DYNAMIC`.
    Decomposition {
        /// `(name, size)` pairs.
        decomps: Vec<(String, SizeExpr)>,
        /// Whether declared DYNAMIC (redistributable).
        dynamic: bool,
    },
    /// `DISTRIBUTE reg(BLOCK)` / `DISTRIBUTE reg(CYCLIC)` /
    /// `DISTRIBUTE reg(map)` where `map` is an integer array.
    Distribute {
        /// Decomposition name.
        decomp: String,
        /// `"BLOCK"`, `"CYCLIC"`, or the name of a map array / distfmt.
        format: String,
    },
    /// `ALIGN x, y WITH reg`.
    Align {
        /// Array names.
        arrays: Vec<String>,
        /// Decomposition name.
        decomp: String,
    },
    /// `READ_DATA(a, b, ...)` — bind externally supplied values to arrays.
    ReadData {
        /// Arrays to fill from the program inputs.
        arrays: Vec<String>,
    },
    /// `CONSTRUCT G (n, <sections>)`.
    Construct {
        /// GeoCoL name.
        name: String,
        /// Vertex count.
        nvertices: SizeExpr,
        /// Sections.
        sections: Vec<ConstructSection>,
    },
    /// `SET distfmt BY PARTITIONING G USING RSB`.
    SetPartition {
        /// Name of the distribution-format variable being defined.
        distfmt: String,
        /// GeoCoL name.
        geocol: String,
        /// Partitioner name (resolved through the geocol registry).
        partitioner: String,
    },
    /// `REDISTRIBUTE reg(distfmt)`.
    Redistribute {
        /// Decomposition to redistribute.
        decomp: String,
        /// Distribution-format variable produced by `SET`.
        distfmt: String,
    },
    /// `FORALL i = lo, hi ... END FORALL`.
    Forall {
        /// Loop label (used as the schedule-reuse loop id); generated
        /// automatically when the source does not name the loop.
        label: String,
        /// Loop variable name.
        var: String,
        /// Lower bound (1-based, inclusive).
        lo: SizeExpr,
        /// Upper bound (1-based, inclusive).
        hi: SizeExpr,
        /// Body statements.
        body: Vec<LoopStmt>,
    },
}

/// A parsed program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level statements in source order.
    pub stmts: Vec<Stmt>,
}

impl Program {
    /// All `FORALL` labels in source order.
    pub fn loop_labels(&self) -> Vec<&str> {
        self.stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Forall { label, .. } => Some(label.as_str()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_labels_extracted_in_order() {
        let p = Program {
            stmts: vec![
                Stmt::ReadData { arrays: vec![] },
                Stmt::Forall {
                    label: "L1".into(),
                    var: "i".into(),
                    lo: SizeExpr::Lit(1),
                    hi: SizeExpr::Name("n".into()),
                    body: vec![],
                },
                Stmt::Forall {
                    label: "L2".into(),
                    var: "i".into(),
                    lo: SizeExpr::Lit(1),
                    hi: SizeExpr::Lit(10),
                    body: vec![],
                },
            ],
        };
        assert_eq!(p.loop_labels(), vec!["L1", "L2"]);
    }

    #[test]
    fn ast_nodes_are_comparable() {
        let r1 = ArrayRef {
            array: "x".into(),
            index: Index::Indirect("ia".into()),
        };
        let r2 = r1.clone();
        assert_eq!(r1, r2);
        let e = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Ref(r1)),
            rhs: Box::new(Expr::Lit(1.0)),
        };
        assert_eq!(e, e.clone());
    }
}
